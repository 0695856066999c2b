#ifndef SQLFACIL_MODELS_MULTITASK_MODEL_H_
#define SQLFACIL_MODELS_MULTITASK_MODEL_H_

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "sqlfacil/models/cnn_trunk.h"
#include "sqlfacil/models/train_state.h"
#include "sqlfacil/nn/layers.h"
#include "sqlfacil/util/random.h"
#include "sqlfacil/util/status.h"

namespace sqlfacil::models {

/// Training data for the multi-task model: one statement with up to three
/// labels (error class, log CPU time, log answer size). Absent labels
/// contribute no loss.
struct MultiTaskDataset {
  std::vector<std::string> statements;
  std::vector<int> error_labels;      // -1 = absent
  std::vector<float> cpu_targets;     // NaN = absent
  std::vector<float> answer_targets;  // NaN = absent
  int num_error_classes = 3;

  size_t size() const { return statements.size(); }
};

/// The multi-task extension sketched in the paper's Section 8: one shared
/// character-level CNN encoder (the CnnTrunk that CnnModel also uses)
/// feeding three task heads — error classification, CPU-time regression,
/// answer-size regression. The joint loss is the sum of the per-task
/// losses; tasks with correlated labels (long queries are slow AND large)
/// share representation capacity.
class MultiTaskCnnModel {
 public:
  struct Config {
    sql::Granularity granularity = sql::Granularity::kChar;
    size_t max_vocab = 5000;
    size_t max_len = 192;
    int embed_dim = 16;
    int kernels_per_width = 48;
    std::vector<int> widths = {3, 4, 5};
    float dropout = 0.5f;
    float lr = 3e-3f;
    float clip_norm = 0.25f;
    int epochs = 3;
    int batch_size = 16;
    float huber_delta = 1.0f;
    /// Upper bound on microbatch shards per training step. Shard boundaries
    /// depend only on (batch size, this cap), so trained weights are
    /// bit-identical at any SQLFACIL_THREADS setting.
    int train_shards = 8;
    /// Crash-safe training snapshots (empty dir disables).
    SnapshotOptions snapshot;
  };

  explicit MultiTaskCnnModel(Config config) : config_(std::move(config)) {}

  void Fit(const MultiTaskDataset& train, const MultiTaskDataset& valid,
           Rng* rng);

  struct Prediction {
    std::vector<float> error_probs;
    float cpu = 0.0f;     // log space
    float answer = 0.0f;  // log space
  };
  /// A batch of one through PredictBatch, so the two agree bit for bit.
  Prediction Predict(const std::string& statement) const;
  /// The trunk's graph-free forward (fixed 32-statement slices on the
  /// thread pool) under the three heads.
  std::vector<Prediction> PredictBatch(
      std::span<const std::string> statements) const;

  size_t num_parameters() const;

  /// Validation-loss trajectory of the last Fit (one entry per epoch).
  const std::vector<double>& valid_history() const { return valid_history_; }

  /// Trained-state serialization in the same hardened tag-based format as
  /// the single-task models ("multitask_model.v1"); wrap with the
  /// checkpoint layer (models/checkpoint.h) for framing + atomic writes.
  Status SaveTo(std::ostream& out) const;
  Status LoadFrom(std::istream& in);

 private:
  CnnTrunk::Shape TrunkShape() const {
    return {config_.granularity, config_.max_len, config_.embed_dim,
            config_.kernels_per_width, config_.widths};
  }
  /// The trunk's parameters, then each head's, in checkpoint order.
  std::vector<nn::Var> Params() const;
  /// Mean over `valid` of each example's summed task losses (absent labels
  /// skipped), from the graph-free forward.
  double ValidLoss(const MultiTaskDataset& valid) const;

  Config config_;
  int num_error_classes_ = 3;
  CnnTrunk trunk_;
  nn::Linear error_head_;
  nn::Linear cpu_head_;
  nn::Linear answer_head_;
  std::vector<double> valid_history_;
};

}  // namespace sqlfacil::models

#endif  // SQLFACIL_MODELS_MULTITASK_MODEL_H_
