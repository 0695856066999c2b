#ifndef SQLFACIL_MODELS_MODEL_H_
#define SQLFACIL_MODELS_MODEL_H_

#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sqlfacil/models/dataset.h"
#include "sqlfacil/util/random.h"
#include "sqlfacil/util/status.h"

namespace sqlfacil::models {

/// Common interface of all compared models (Section 6.1): mfreq / median /
/// opt baselines, ctfidf/wtfidf, ccnn/wcnn, clstm/wlstm.
///
/// For classification tasks Predict returns a probability vector over the
/// classes; for regression it returns a single (log-space) value.
class Model {
 public:
  virtual ~Model() = default;

  virtual std::string name() const = 0;

  /// Trains on `train`, using `valid` for best-epoch selection where the
  /// model iterates.
  virtual void Fit(const Dataset& train, const Dataset& valid, Rng* rng) = 0;

  /// Per-query inference. `opt_cost` feeds the opt baseline only.
  virtual std::vector<float> Predict(const std::string& statement,
                                     double opt_cost) const = 0;

  /// Batched inference over `statements`; result i is bit-identical to
  /// Predict(statements[i], opt_costs[i]). `opt_costs` may be empty (treated
  /// as all-zero) or must match `statements` in size. The base
  /// implementation shards per-query Predict over the thread pool; the
  /// neural families override it with an allocation-free batched forward
  /// (stacked matmul for CNN, length-bucketed stepping for LSTM).
  virtual std::vector<std::vector<float>> PredictBatch(
      std::span<const std::string> statements,
      std::span<const double> opt_costs = {}) const;

  /// Vocabulary size v (0 for baselines) and parameter count p, as
  /// reported in the paper's Tables 2/4/5.
  virtual size_t vocab_size() const { return 0; }
  virtual size_t num_parameters() const { return 0; }

  /// Builds the model's int8 inference tier from its trained fp32 weights,
  /// calibrating activation ranges over `calibration` statements (a held-out
  /// split; typically a few hundred queries). After success Predict and
  /// PredictBatch run the int8 kernels; the next Fit (or fine-tune) drops
  /// the tier and the model serves fp32 again. SaveTo writes the tier, so a
  /// loaded quantized checkpoint serves int8. Default: unsupported.
  ///
  /// Precision belongs to the model, and so to the published version that
  /// serves it: a model behind a lifecycle::ModelVersion or a
  /// serving::ModelRef is never trained, loaded or quantized while it is
  /// served. To serve int8 next to fp32, publish a quantized copy as a new
  /// generation.
  virtual Status Quantize(std::span<const std::string> calibration);

  /// Checkpointing: serializes the *trained* state. Default: unsupported.
  virtual Status SaveTo(std::ostream& out) const;
  /// Restores trained state into a model constructed with the same name.
  virtual Status LoadFrom(std::istream& in);
};

using ModelPtr = std::unique_ptr<Model>;

}  // namespace sqlfacil::models

#endif  // SQLFACIL_MODELS_MODEL_H_
