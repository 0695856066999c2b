#include "sqlfacil/models/cnn_model.h"

#include <algorithm>

#include "sqlfacil/models/serialize_util.h"
#include "sqlfacil/models/train_state.h"
#include "sqlfacil/nn/arena.h"
#include "sqlfacil/nn/data_parallel.h"
#include "sqlfacil/nn/infer.h"
#include "sqlfacil/nn/simd.h"
#include "sqlfacil/util/failpoint.h"
#include "sqlfacil/util/logging.h"

namespace sqlfacil::models {

std::vector<nn::Var> CnnModel::Params() const {
  std::vector<nn::Var> params = trunk_.Params();
  for (const auto& p : head_.Params()) params.push_back(p);
  return params;
}

size_t CnnModel::num_parameters() const {
  size_t total = 0;
  for (const auto& p : Params()) total += p->value.size();
  return total;
}

double CnnModel::ValidLoss(const Dataset& valid) const {
  if (valid.size() == 0) return 0.0;
  // The serving forward on the fp32 weights being trained. Losses land in
  // per-example slots and sum in example order for bit-identical results
  // at any thread count.
  const auto encoded = trunk_.EncodePadded(valid.statements);
  std::vector<double> losses(valid.size(), 0.0);
  trunk_.ForEachSlice(encoded, /*int8=*/false, [&](size_t qb, size_t qe,
                                                  const float* features,
                                                  nn::Arena* arena) {
    const float* logits =
        head_.Apply(features, static_cast<int>(qe - qb), arena);
    for (size_t i = qb; i < qe; ++i) {
      const float* row = logits + (i - qb) * static_cast<size_t>(outputs_);
      if (kind_ == TaskKind::kClassification) {
        losses[i] = nn::infer::SoftmaxCrossEntropy(row, 1, outputs_,
                                                   &valid.labels[i], nullptr);
      } else if (config_.use_squared_loss) {
        losses[i] = nn::infer::SquaredLoss(row, &valid.targets[i], 1, nullptr);
      } else {
        losses[i] = nn::infer::HuberLoss(row, &valid.targets[i], 1,
                                         config_.huber_delta, nullptr);
      }
    }
  });
  double total = 0.0;
  for (double l : losses) total += l;
  return total / static_cast<double>(valid.size());
}

void CnnModel::Fit(const Dataset& train, const Dataset& valid, Rng* rng) {
  failpoint::MaybeFail("model.fit");
  kind_ = train.kind;
  outputs_ = kind_ == TaskKind::kClassification ? train.num_classes : 1;
  trunk_.Init(TrunkShape(), train.statements, config_.max_vocab, rng);
  head_ = nn::Linear(trunk_.feature_dim(), outputs_, rng);

  TrainLoop(train, valid, config_.epochs, rng);
}

void CnnModel::FineTune(const Dataset& train, const Dataset& valid,
                        int epochs, Rng* rng) {
  SQLFACIL_CHECK(head_.weight != nullptr) << "FineTune requires a fit model";
  SQLFACIL_CHECK(train.kind == kind_) << "FineTune task kind mismatch";
  TrainLoop(train, valid, epochs, rng);
}

void CnnModel::TrainLoop(const Dataset& train, const Dataset& valid,
                         int epochs, Rng* rng) {
  // The int8 tier was built from the weights this loop is about to change:
  // drop it, so every exit (drain included) leaves an fp32 model.
  trunk_.DropInt8();
  // Captured before the loop's first draw; a resumed epoch re-draws its
  // permutation and per-example dropout seeds from this stream position.
  const Rng::State entry_state = rng->state();
  auto params = Params();
  nn::AdaMax optimizer(params, config_.lr);

  // Pre-encode (sharded over the thread pool).
  const auto encoded = trunk_.EncodePadded(train.statements);

  // Data-parallel training: minibatches split into at most `train_shards`
  // microbatch shards that build their per-example graphs on the thread
  // pool. Dropout masks come from per-example seeds drawn serially from the
  // master stream, so masks — and therefore weights — are bit-identical at
  // any shard/thread count.
  const size_t max_shards =
      static_cast<size_t>(std::max(1, config_.train_shards));
  nn::GradShards shards;
  shards.Prepare(params, max_shards);

  const size_t n = train.size();

  Fingerprint fp;
  fp.MixString("cnn_model.v1|" + name());
  fp.MixI32(config_.granularity == sql::Granularity::kChar ? 0 : 1)
      .Mix(config_.max_vocab)
      .Mix(MaxLen())
      .MixI32(config_.embed_dim)
      .MixI32(config_.kernels_per_width)
      .Mix(config_.widths.size());
  for (int w : config_.widths) fp.MixI32(w);
  fp.MixFloat(config_.dropout)
      .MixFloat(config_.lr)
      .MixFloat(config_.clip_norm)
      .MixI32(epochs)
      .MixI32(config_.batch_size)
      .MixFloat(config_.huber_delta)
      .MixI32(config_.use_squared_loss ? 1 : 0)
      .MixI32(config_.train_shards);
  // TrainLoop also backs FineTune, where the starting weights are not a
  // function of the seed — mix the parameter values themselves so a
  // snapshot is tied to the exact network it was training.
  for (const auto& p : params) {
    fp.Mix(p->value.size());
    const float* v = p->value.data();
    for (size_t i = 0; i < p->value.size(); ++i) fp.MixFloat(v[i]);
  }
  MixDataset(&fp, train);
  MixDataset(&fp, valid);
  fp.MixRngState(entry_state);
  TrainSnapshotter snap(config_.snapshot, name(), fp.digest());

  EpochLoop loop;
  loop.params = params;
  loop.optimizer = &optimizer;
  loop.epochs = epochs;
  loop.batches_per_epoch = (n + config_.batch_size - 1) / config_.batch_size;
  loop.has_valid = valid.size() > 0;
  std::vector<size_t> perm;
  std::vector<uint64_t> dropout_seeds;
  loop.begin_epoch = [&](int) {
    perm = rng->Permutation(n);
    dropout_seeds.resize(n);
    for (uint64_t& seed : dropout_seeds) seed = rng->Next();
  };
  loop.run_batch = [&](uint64_t bpos) {
    const size_t start = bpos * config_.batch_size;
    const size_t end = std::min(n, start + config_.batch_size);
    const size_t batch = end - start;
    optimizer.ZeroGrad();
    nn::ShardedTrainStep(
        params, &shards, batch, max_shards,
        [&](size_t /*shard*/, size_t sb, size_t se) {
          nn::Var shard_loss;
          for (size_t i = start + sb; i < start + se; ++i) {
            const size_t idx = perm[i];
            Rng example_rng(dropout_seeds[i]);
            nn::Var logits = head_.Apply(trunk_.Forward(
                encoded[idx], config_.dropout, &example_rng));
            nn::Var loss;
            if (kind_ == TaskKind::kClassification) {
              loss = nn::SoftmaxCrossEntropy(logits, {train.labels[idx]});
            } else if (config_.use_squared_loss) {
              loss = nn::SquaredLoss(logits, {train.targets[idx]});
            } else {
              loss = nn::HuberLoss(logits, {train.targets[idx]},
                                   config_.huber_delta);
            }
            shard_loss =
                shard_loss == nullptr ? loss : nn::Add(shard_loss, loss);
          }
          // Shard's share of the batch-mean loss.
          return nn::Scale(shard_loss, 1.0f / static_cast<float>(batch));
        });
    nn::ClipGradNorm(params, config_.clip_norm);
    optimizer.Step();
  };
  loop.valid_loss = [&] { return ValidLoss(valid); };
  RunEpochs(loop, &snap, rng, &valid_history_);
}

Status CnnModel::Quantize(std::span<const std::string> calibration) {
  (void)calibration;  // conv input ranges are static: see the header doc
  if (head_.weight == nullptr || trunk_.vocab_size() <= 1) {
    return Status::InvalidArgument("quantize requires a trained model");
  }
  trunk_.Quantize();
  return Status::Ok();
}

Status CnnModel::SaveTo(std::ostream& out) const {
  serialize::WriteTag(out, "cnn_model.v2");
  serialize::WriteI32(out, kind_ == TaskKind::kClassification ? 0 : 1);
  serialize::WriteI32(out, outputs_);
  serialize::WriteI32(out,
                      config_.granularity == sql::Granularity::kChar ? 0 : 1);
  serialize::WriteI32(out, config_.embed_dim);
  serialize::WriteI32(out, config_.kernels_per_width);
  serialize::WriteU64(out, config_.max_len_char);
  serialize::WriteU64(out, config_.max_len_word);
  trunk_.WriteTo(out);
  serialize::WriteTensor(out, head_.weight->value);
  serialize::WriteTensor(out, head_.bias->value);
  trunk_.WriteInt8(out);  // v2 trailer: the int8 tier
  return Status::Ok();
}

Status CnnModel::LoadFrom(std::istream& in) {
  auto tag = serialize::ReadString(in);
  if (!tag.ok()) return tag.status();
  const bool v2 = *tag == "cnn_model.v2";
  if (!v2 && *tag != "cnn_model.v1") {
    return Status::CorruptCheckpoint(
        "model file tag mismatch: expected 'cnn_model.v1/v2', found '" +
        *tag + "'");
  }
  auto read_i32 = [&](int* dst) -> Status {
    auto v = serialize::ReadI32(in);
    if (!v.ok()) return v.status();
    *dst = *v;
    return Status::Ok();
  };
  int kind = 0;
  if (Status s = read_i32(&kind); !s.ok()) return s;
  kind_ = kind == 0 ? TaskKind::kClassification : TaskKind::kRegression;
  if (Status s = read_i32(&outputs_); !s.ok()) return s;
  int granularity = 0;
  if (Status s = read_i32(&granularity); !s.ok()) return s;
  config_.granularity =
      granularity == 0 ? sql::Granularity::kChar : sql::Granularity::kWord;
  if (Status s = read_i32(&config_.embed_dim); !s.ok()) return s;
  if (Status s = read_i32(&config_.kernels_per_width); !s.ok()) return s;
  auto max_len_char = serialize::ReadU64(in);
  if (!max_len_char.ok()) return max_len_char.status();
  config_.max_len_char = *max_len_char;
  auto max_len_word = serialize::ReadU64(in);
  if (!max_len_word.ok()) return max_len_word.status();
  config_.max_len_word = *max_len_word;
  if ((kind != 0 && kind != 1) || outputs_ < 1) {
    return Status::CorruptCheckpoint("implausible cnn_model header");
  }
  if (Status s = trunk_.ReadFrom(in, TrunkShape()); !s.ok()) return s;
  config_.widths = trunk_.shape().widths;
  // Every tensor must have the shape the header implies (see ReadParam).
  if (Status s = serialize::ReadParam(in, &head_.weight, trunk_.feature_dim(),
                                      outputs_);
      !s.ok()) {
    return s;
  }
  if (Status s = serialize::ReadParam(in, &head_.bias, 1, outputs_); !s.ok()) {
    return s;
  }
  if (!v2) return Status::Ok();  // v1: fp32-only checkpoint
  return trunk_.ReadInt8(in);
}

std::vector<float> CnnModel::Predict(const std::string& statement,
                                     double opt_cost) const {
  // A single query is a batch of one through the same kernels, so Predict
  // and PredictBatch are bit-identical on either tier by construction.
  return PredictBatch(std::span<const std::string>(&statement, 1),
                      std::span<const double>(&opt_cost, 1))[0];
}

std::vector<std::vector<float>> CnnModel::PredictBatch(
    std::span<const std::string> statements,
    std::span<const double> opt_costs) const {
  (void)opt_costs;
  failpoint::MaybeFail("model.predict");
  nn::simd::LogDispatchOnce();
  const auto encoded = trunk_.EncodePadded(statements);
  std::vector<std::vector<float>> preds(encoded.size());
  trunk_.ForEachSlice(encoded, trunk_.quantized(), [&](size_t qb, size_t qe,
                                                       const float* features,
                                                       nn::Arena* arena) {
    const float* logits =
        head_.Apply(features, static_cast<int>(qe - qb), arena);
    for (size_t q = qb; q < qe; ++q) {
      const float* row = logits + (q - qb) * static_cast<size_t>(outputs_);
      preds[q].assign(row, row + outputs_);
      if (kind_ == TaskKind::kClassification) {
        nn::infer::SoftmaxInPlace(preds[q].data(), preds[q].size());
      }
    }
  });
  return preds;
}

}  // namespace sqlfacil::models
