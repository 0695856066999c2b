#include "sqlfacil/models/tfidf_model.h"

#include <algorithm>
#include <cmath>

#include "sqlfacil/models/serialize_util.h"
#include "sqlfacil/models/train_state.h"
#include "sqlfacil/nn/infer.h"
#include "sqlfacil/util/failpoint.h"
#include "sqlfacil/util/logging.h"
#include "sqlfacil/util/thread_pool.h"

namespace sqlfacil::models {

namespace {

void Softmax(std::vector<float>* scores) {
  nn::infer::SoftmaxInPlace(scores->data(), scores->size());
}

}  // namespace

std::vector<float> TfidfModel::Scores(
    const std::vector<std::pair<int, float>>& features) const {
  const float* bias = bias_->value.data();
  std::vector<float> scores(bias, bias + outputs_);
  const float* weights = weights_->value.data();
  for (const auto& [f, x] : features) {
    const float* row = weights + static_cast<size_t>(f) * outputs_;
    for (int c = 0; c < outputs_; ++c) scores[c] += row[c] * x;
  }
  return scores;
}

void TfidfModel::Fit(const Dataset& train, const Dataset& valid, Rng* rng) {
  failpoint::MaybeFail("model.fit");
  // Captured before the first epoch draw (see train_state.h): a resumed
  // epoch re-draws the identical permutation from this stream.
  const Rng::State entry_state = rng->state();
  kind_ = train.kind;
  outputs_ = kind_ == TaskKind::kClassification ? train.num_classes : 1;

  TfidfVectorizer::Config vec_config;
  vec_config.granularity = config_.granularity;
  vec_config.max_n = config_.max_n;
  vec_config.max_features = config_.max_features;
  vectorizer_ = TfidfVectorizer::Fit(train.statements, vec_config);

  const int num_features = static_cast<int>(vectorizer_.num_features());
  weights_ = nn::MakeParam(nn::Tensor({num_features, outputs_}));
  bias_ = nn::MakeParam(nn::Tensor({1, outputs_}));

  // Precompute sparse features (sharded over the thread pool).
  auto train_features = vectorizer_.TransformAll(train.statements);
  auto valid_features = vectorizer_.TransformAll(valid.statements);

  // Per-example losses accumulate into per-chunk partials that are summed
  // in chunk order, so the total is bit-identical at any thread count.
  constexpr size_t kLossGrain = 256;
  auto valid_loss = [&]() {
    if (valid_features.empty()) return 0.0;
    const size_t n_valid = valid_features.size();
    std::vector<double> partial(NumChunks(0, n_valid, kLossGrain), 0.0);
    ParallelForChunks(0, n_valid, kLossGrain,
                      [&](size_t chunk, size_t b, size_t e) {
                        double sum = 0.0;
                        for (size_t i = b; i < e; ++i) {
                          auto scores = Scores(valid_features[i]);
                          if (kind_ == TaskKind::kClassification) {
                            Softmax(&scores);
                            sum -= std::log(std::max(
                                1e-12,
                                static_cast<double>(scores[valid.labels[i]])));
                          } else {
                            const double r = scores[0] - valid.targets[i];
                            const double ar = std::fabs(r);
                            sum += ar <= config_.huber_delta
                                       ? 0.5 * r * r
                                       : config_.huber_delta *
                                             (ar - 0.5 * config_.huber_delta);
                          }
                        }
                        partial[chunk] = sum;
                      });
    double total = 0.0;
    for (double p : partial) total += p;
    return total / static_cast<double>(n_valid);
  };

  // Mini-batch sparse SGD. Each minibatch runs two phases: (1) per-example
  // score gradients from the batch-start weights, then (2) a merge that
  // applies the sparse updates in example order. Both run on the calling
  // thread: a 16-example batch is less work than a pool hand-off.
  const size_t batch_size =
      static_cast<size_t>(std::max(1, config_.batch_size));
  const size_t n = train.size();
  std::vector<float> dscores;

  Fingerprint fp;
  fp.MixString("tfidf_model.v1|" + name());
  fp.MixI32(config_.granularity == sql::Granularity::kChar ? 0 : 1)
      .MixI32(config_.max_n)
      .Mix(config_.max_features)
      .MixI32(config_.epochs)
      .MixI32(config_.batch_size)
      .MixFloat(config_.lr)
      .MixFloat(config_.weight_decay)
      .MixFloat(config_.huber_delta);
  MixDataset(&fp, train);
  MixDataset(&fp, valid);
  fp.MixRngState(entry_state);
  TrainSnapshotter snap(config_.snapshot, name(), fp.digest());

  // Plain SGD with a closed-form per-epoch rate: no optimizer state.
  EpochLoop loop;
  loop.params = {weights_, bias_};
  loop.epochs = config_.epochs;
  loop.batches_per_epoch = (n + batch_size - 1) / batch_size;
  loop.has_valid = !valid_features.empty();
  float epoch_lr = 0.0f;
  std::vector<size_t> perm;
  loop.begin_epoch = [&](int epoch) {
    epoch_lr = config_.lr / (1.0f + 0.5f * static_cast<float>(epoch));
    perm = rng->Permutation(n);
  };
  loop.run_batch = [&](uint64_t bpos) {
    const size_t start = bpos * batch_size;
    const size_t end = std::min(n, start + batch_size);
    const size_t batch = end - start;
    dscores.assign(batch * static_cast<size_t>(outputs_), 0.0f);
    for (size_t i = 0; i < batch; ++i) {
      const size_t idx = perm[start + i];
      auto scores = Scores(train_features[idx]);
      float* dscore = &dscores[i * static_cast<size_t>(outputs_)];
      if (kind_ == TaskKind::kClassification) {
        Softmax(&scores);
        for (int c = 0; c < outputs_; ++c) {
          dscore[c] = scores[c] - (c == train.labels[idx] ? 1.0f : 0.0f);
        }
      } else {
        const float r = scores[0] - train.targets[idx];
        dscore[0] = std::fabs(r) <= config_.huber_delta
                        ? r
                        : (r > 0 ? config_.huber_delta : -config_.huber_delta);
      }
      // Batch-mean normalization: every gradient in the batch was taken at
      // the same (batch-start) weights, so applying their sum at the
      // per-example rate would overshoot; the mean keeps the linear region
      // contractive at any batch size.
      for (int c = 0; c < outputs_; ++c) {
        dscore[c] /= static_cast<float>(batch);
      }
    }
    // Ordered merge: sparse updates apply in example order (weight decay
    // on touched rows only, reading the live row as before). The rate, the
    // decay and the weight pointers are locals: a float read through a
    // reference or a member may alias every `row[c]` store, and would be
    // reloaded for each element.
    const float lr = epoch_lr;
    const float decay = config_.weight_decay;
    float* const weights = weights_->value.data();
    float* const bias = bias_->value.data();
    for (size_t i = 0; i < batch; ++i) {
      const size_t idx = perm[start + i];
      const float* dscore = &dscores[i * static_cast<size_t>(outputs_)];
      for (const auto& [f, x] : train_features[idx]) {
        float* row = weights + static_cast<size_t>(f) * outputs_;
        for (int c = 0; c < outputs_; ++c) {
          row[c] -= lr * (dscore[c] * x + decay * row[c]);
        }
      }
      for (int c = 0; c < outputs_; ++c) bias[c] -= lr * dscore[c];
    }
  };
  loop.valid_loss = valid_loss;
  RunEpochs(loop, &snap, rng, &valid_history_);
}

std::vector<float> TfidfModel::Predict(const std::string& statement,
                                       double opt_cost) const {
  // A batch of one, so Predict meets the same failpoint and the same
  // featurization as PredictBatch.
  return PredictBatch(std::span<const std::string>(&statement, 1),
                      std::span<const double>(&opt_cost, 1))[0];
}

std::vector<std::vector<float>> TfidfModel::PredictBatch(
    std::span<const std::string> statements,
    std::span<const double> opt_costs) const {
  (void)opt_costs;
  failpoint::MaybeFail("model.predict");
  const auto features = vectorizer_.TransformAll(statements);
  std::vector<std::vector<float>> preds(statements.size());
  constexpr size_t kScoreGrain = 64;
  ParallelFor(0, statements.size(), kScoreGrain, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      auto scores = Scores(features[i]);
      if (kind_ == TaskKind::kClassification) Softmax(&scores);
      preds[i] = std::move(scores);
    }
  });
  return preds;
}

Status TfidfModel::SaveTo(std::ostream& out) const {
  serialize::WriteTag(out, "tfidf_model.v1");
  serialize::WriteI32(out, kind_ == TaskKind::kClassification ? 0 : 1);
  serialize::WriteI32(out, outputs_);
  vectorizer_.SaveTo(out);
  for (const nn::Var& p : {weights_, bias_}) {
    serialize::WriteFloats(out, {p->value.data(), p->value.size()});
  }
  return Status::Ok();
}

Status TfidfModel::LoadFrom(std::istream& in) {
  if (Status s = serialize::ExpectTag(in, "tfidf_model.v1"); !s.ok()) {
    return s;
  }
  auto kind = serialize::ReadI32(in);
  if (!kind.ok()) return kind.status();
  kind_ = *kind == 0 ? TaskKind::kClassification : TaskKind::kRegression;
  auto outputs = serialize::ReadI32(in);
  if (!outputs.ok()) return outputs.status();
  outputs_ = *outputs;
  auto vectorizer = TfidfVectorizer::LoadFrom(in);
  if (!vectorizer.ok()) return vectorizer.status();
  vectorizer_ = std::move(vectorizer).value();
  auto weights = serialize::ReadFloats(in);
  if (!weights.ok()) return weights.status();
  auto bias = serialize::ReadFloats(in);
  if (!bias.ok()) return bias.status();
  if (weights->size() != vectorizer_.num_features() * outputs_ ||
      bias->size() != static_cast<size_t>(outputs_)) {
    return Status::InvalidArgument("tfidf model shape mismatch");
  }
  auto param = [](const std::vector<float>& values, int rows, int cols) {
    nn::Tensor t({rows, cols});
    std::copy(values.begin(), values.end(), t.data());
    return nn::MakeParam(std::move(t));
  };
  weights_ = param(*weights, static_cast<int>(vectorizer_.num_features()),
                   outputs_);
  bias_ = param(*bias, 1, outputs_);
  return Status::Ok();
}

}  // namespace sqlfacil::models
