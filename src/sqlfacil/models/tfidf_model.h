#ifndef SQLFACIL_MODELS_TFIDF_MODEL_H_
#define SQLFACIL_MODELS_TFIDF_MODEL_H_

#include "sqlfacil/models/model.h"
#include "sqlfacil/models/train_state.h"
#include "sqlfacil/models/vocab.h"

namespace sqlfacil::models {

/// The traditional two-stage model of Section 5.1: bag-of-ngrams (up to
/// 5-grams) with TFIDF weighting, then multinomial logistic regression
/// (classification) or a linear model with Huber loss (regression), both
/// trained by mini-batch SGD with sparse updates.
class TfidfModel : public Model {
 public:
  struct Config {
    sql::Granularity granularity = sql::Granularity::kChar;
    int max_n = 5;
    size_t max_features = 20000;
    int epochs = 10;
    int batch_size = 16;
    float lr = 0.5f;
    float weight_decay = 1e-5f;
    float huber_delta = 1.0f;
    /// Crash-safe training snapshots (empty dir disables).
    SnapshotOptions snapshot;
  };

  explicit TfidfModel(Config config) : config_(config) {}

  std::string name() const override {
    return config_.granularity == sql::Granularity::kChar ? "ctfidf"
                                                          : "wtfidf";
  }
  void Fit(const Dataset& train, const Dataset& valid, Rng* rng) override;
  std::vector<float> Predict(const std::string& statement,
                             double opt_cost) const override;
  /// Batched fast path: featurization shards over the thread pool once,
  /// then scoring runs over the precomputed sparse vectors. (The features
  /// are sparse, so there is no dense stacked matmul to win here — the
  /// gain is batching the featurization and skipping per-call overhead.)
  /// Predict is a batch of one.
  std::vector<std::vector<float>> PredictBatch(
      std::span<const std::string> statements,
      std::span<const double> opt_costs = {}) const override;
  size_t vocab_size() const override { return vectorizer_.num_features(); }
  size_t num_parameters() const override {
    return (vectorizer_.num_features() + 1) * outputs_;
  }
  Status SaveTo(std::ostream& out) const override;
  Status LoadFrom(std::istream& in) override;

  /// Validation-loss trajectory of the last Fit (one entry per epoch).
  const std::vector<double>& valid_history() const { return valid_history_; }

 private:
  std::vector<float> Scores(
      const std::vector<std::pair<int, float>>& features) const;

  Config config_;
  TaskKind kind_ = TaskKind::kClassification;
  int outputs_ = 1;
  TfidfVectorizer vectorizer_;
  nn::Var weights_;  // (num_features x outputs), row-major
  nn::Var bias_;     // (1 x outputs)
  std::vector<double> valid_history_;
};

}  // namespace sqlfacil::models

#endif  // SQLFACIL_MODELS_TFIDF_MODEL_H_
