#ifndef SQLFACIL_MODELS_CNN_MODEL_H_
#define SQLFACIL_MODELS_CNN_MODEL_H_

#include <cstdint>

#include "sqlfacil/models/model.h"
#include "sqlfacil/models/train_state.h"
#include "sqlfacil/models/vocab.h"
#include "sqlfacil/nn/layers.h"
#include "sqlfacil/nn/optim.h"
#include "sqlfacil/nn/quant.h"

namespace sqlfacil::nn {
class Arena;
}  // namespace sqlfacil::nn

namespace sqlfacil::models {

/// The shallow CNN of Section 5.3 (Figure 11, adapted from Kim [32]):
/// token embeddings, parallel 1-D convolutions with window sizes {3,4,5},
/// Relu, max-over-time pooling per kernel, concatenation, dropout, and a
/// fully-connected output. Trained with AdaMax on cross-entropy / Huber.
class CnnModel : public Model {
 public:
  struct Config {
    sql::Granularity granularity = sql::Granularity::kChar;
    size_t max_vocab = 5000;
    size_t max_len_char = 192;
    size_t max_len_word = 64;
    int embed_dim = 12;
    int kernels_per_width = 32;
    std::vector<int> widths = {3, 4, 5};
    float dropout = 0.5f;
    float lr = 2e-3f;
    float clip_norm = 0.25f;
    int epochs = 3;
    int batch_size = 16;
    float huber_delta = 1.0f;
    /// Regression ablation: plain squared loss instead of Huber
    /// (Section 4.4.1 argues Huber is more robust to label outliers).
    bool use_squared_loss = false;
    /// Upper bound on microbatch shards per training step. Shard boundaries
    /// depend only on (batch size, this cap), so trained weights are
    /// bit-identical at any SQLFACIL_THREADS setting.
    int train_shards = 8;
    /// Crash-safe training snapshots (empty dir disables).
    SnapshotOptions snapshot;
  };

  explicit CnnModel(Config config) : config_(std::move(config)) {}

  std::string name() const override {
    return config_.granularity == sql::Granularity::kChar ? "ccnn" : "wcnn";
  }
  void Fit(const Dataset& train, const Dataset& valid, Rng* rng) override;
  std::vector<float> Predict(const std::string& statement,
                             double opt_cost) const override;
  /// Batched fast path: queries are processed in fixed slices; per conv
  /// width the unfold windows of every query in a slice stack into one tall
  /// matrix, so each width costs a single stacked matmul instead of one
  /// matmul per query. Temporaries live in a per-thread arena (zero heap
  /// allocations at steady state). Predict is a batch of one.
  std::vector<std::vector<float>> PredictBatch(
      std::span<const std::string> statements,
      std::span<const double> opt_costs = {}) const override;
  size_t vocab_size() const override { return vocab_.size(); }
  size_t num_parameters() const override;
  /// Builds the int8 tier: the embedding table quantizes to u8 under its own
  /// max-abs range (the conv inputs ARE table rows, so the range is static —
  /// `calibration` is accepted for interface parity but unused) and each
  /// width's conv map quantizes per-tensor. Relu, max-over-time pooling, and
  /// the head stay fp32. Fit/FineTune call this automatically.
  Status Quantize(std::span<const std::string> calibration) override;
  /// True when the int8 tier is built (SQLFACIL_PRECISION=int8 serves it).
  bool quantized() const { return quant_.ready(); }
  /// Validation-loss trajectory of the last Fit/FineTune (one per epoch).
  const std::vector<double>& valid_history() const { return valid_history_; }
  Status SaveTo(std::ostream& out) const override;
  Status LoadFrom(std::istream& in) override;

  /// Fine-tunes the already-trained network on a new dataset without
  /// re-initializing parameters or rebuilding the vocabulary (the paper's
  /// Section 8 transfer-learning direction: reuse a ccnn trained on a
  /// large workload for a different database). Requires prior Fit/LoadFrom
  /// with the same task kind.
  void FineTune(const Dataset& train, const Dataset& valid, int epochs,
                Rng* rng);

 private:
  /// The int8 tier's offline-quantized state (see Quantize()).
  struct CnnQuant {
    float emb_scale = 0.0f;        // u8 scale of the embedding rows
    std::vector<uint8_t> qtable;   // (vocab x d) quantized embedding
    std::vector<nn::quant::QuantizedTensor> convs;  // per width (w*d x K)

    bool ready() const { return !convs.empty(); }
  };

  /// Shared training loop (from-scratch fit and fine-tuning).
  void TrainLoop(const Dataset& train, const Dataset& valid, int epochs,
                 Rng* rng);

  size_t MaxLen() const {
    return config_.granularity == sql::Granularity::kChar
               ? config_.max_len_char
               : config_.max_len_word;
  }
  /// Training-step forward (autograd, dropout on) for one padded statement.
  nn::Var Forward(const std::vector<int>& ids, Rng* rng) const;
  /// Encodes statements, each padded with -1 (a zero embedding row) to the
  /// widest conv window.
  std::vector<std::vector<int>> EncodePadded(
      std::span<const std::string> statements) const;
  /// The graph-free forward of encoded[qb..qe) up to the logits, returned
  /// as a (slice x outputs_) row-major block in `arena`. The int8 tier
  /// (quant_ must be ready) gathers and unfolds u8 rows and runs quantized
  /// conv matmuls; Relu, max-over-time pooling and the head run fp32 on
  /// both tiers.
  const float* SliceLogits(const std::vector<std::vector<int>>& encoded,
                           size_t qb, size_t qe, bool int8,
                           nn::Arena* arena) const;
  std::vector<nn::Var> Params() const;
  /// Mean validation loss from SliceLogits on the fp32 tier.
  double ValidLoss(const Dataset& valid) const;

  Config config_;
  TaskKind kind_ = TaskKind::kClassification;
  int outputs_ = 1;
  Vocabulary vocab_;
  nn::Embedding embedding_;
  std::vector<nn::Linear> convs_;  // one (width*d x K) map per width
  nn::Linear head_;
  std::vector<double> valid_history_;
  CnnQuant quant_;
};

}  // namespace sqlfacil::models

#endif  // SQLFACIL_MODELS_CNN_MODEL_H_
