#include "sqlfacil/models/multitask_model.h"

#include <algorithm>
#include <cmath>

#include "sqlfacil/models/serialize_util.h"
#include "sqlfacil/models/train_state.h"
#include "sqlfacil/nn/data_parallel.h"
#include "sqlfacil/nn/infer.h"
#include "sqlfacil/util/logging.h"

namespace sqlfacil::models {

namespace {

bool HasTarget(float v) { return !std::isnan(v); }

// Multi-task datasets are not models::Dataset, so their content hashes
// into the fingerprint here (same role as MixDataset).
void MixMultiTaskDataset(Fingerprint* fp, const MultiTaskDataset& data) {
  fp->MixI32(data.num_error_classes);
  fp->Mix(data.statements.size());
  for (const auto& s : data.statements) fp->MixString(s);
  for (int l : data.error_labels) fp->MixI32(l);
  for (float t : data.cpu_targets) fp->MixFloat(t);
  for (float t : data.answer_targets) fp->MixFloat(t);
}

}  // namespace

std::vector<nn::Var> MultiTaskCnnModel::Params() const {
  std::vector<nn::Var> params = trunk_.Params();
  for (const auto* head : {&error_head_, &cpu_head_, &answer_head_}) {
    for (const auto& p : head->Params()) params.push_back(p);
  }
  return params;
}

size_t MultiTaskCnnModel::num_parameters() const {
  size_t total = 0;
  for (const auto& p : Params()) total += p->value.size();
  return total;
}

double MultiTaskCnnModel::ValidLoss(const MultiTaskDataset& valid) const {
  if (valid.size() == 0) return 0.0;
  // Per-example losses land in slots and sum in example order, so the
  // total is identical at any thread count.
  const auto encoded = trunk_.EncodePadded(valid.statements);
  std::vector<double> losses(valid.size(), 0.0);
  trunk_.ForEachSlice(encoded, /*int8=*/false, [&](size_t qb, size_t qe,
                                                  const float* features,
                                                  nn::Arena* arena) {
    const int rows = static_cast<int>(qe - qb);
    const float* error = error_head_.Apply(features, rows, arena);
    const float* cpu = cpu_head_.Apply(features, rows, arena);
    const float* answer = answer_head_.Apply(features, rows, arena);
    for (size_t i = qb; i < qe; ++i) {
      const size_t r = i - qb;
      double loss = 0.0;
      if (valid.error_labels[i] >= 0) {
        loss += nn::infer::SoftmaxCrossEntropy(
            error + r * num_error_classes_, 1, num_error_classes_,
            &valid.error_labels[i], nullptr);
      }
      if (HasTarget(valid.cpu_targets[i])) {
        loss += nn::infer::HuberLoss(cpu + r, &valid.cpu_targets[i], 1,
                                     config_.huber_delta, nullptr);
      }
      if (HasTarget(valid.answer_targets[i])) {
        loss += nn::infer::HuberLoss(answer + r, &valid.answer_targets[i], 1,
                                     config_.huber_delta, nullptr);
      }
      losses[i] = loss;
    }
  });
  double total = 0.0;
  for (double l : losses) total += l;
  return total / static_cast<double>(valid.size());
}

void MultiTaskCnnModel::Fit(const MultiTaskDataset& train,
                            const MultiTaskDataset& valid, Rng* rng) {
  SQLFACIL_CHECK(train.error_labels.size() == train.size());
  SQLFACIL_CHECK(train.cpu_targets.size() == train.size());
  SQLFACIL_CHECK(train.answer_targets.size() == train.size());
  // Captured before any init draw (see train_state.h: deterministic resume).
  const Rng::State entry_state = rng->state();
  num_error_classes_ = train.num_error_classes;
  trunk_.Init(TrunkShape(), train.statements, config_.max_vocab, rng);
  const int feature_dim = trunk_.feature_dim();
  error_head_ = nn::Linear(feature_dim, num_error_classes_, rng);
  cpu_head_ = nn::Linear(feature_dim, 1, rng);
  answer_head_ = nn::Linear(feature_dim, 1, rng);

  const std::vector<nn::Var> params = Params();
  nn::AdaMax optimizer(params, config_.lr);

  const auto encoded = trunk_.EncodePadded(train.statements);

  // Data-parallel training (see nn/data_parallel.h): per-example dropout
  // seeds are drawn serially from the master stream so masks — and thus
  // weights — are bit-identical at any shard/thread count.
  const size_t max_shards =
      static_cast<size_t>(std::max(1, config_.train_shards));
  nn::GradShards shards;
  shards.Prepare(params, max_shards);

  auto has_any_loss = [&](size_t idx) {
    return train.error_labels[idx] >= 0 || HasTarget(train.cpu_targets[idx]) ||
           HasTarget(train.answer_targets[idx]);
  };

  const size_t n = train.size();
  const size_t batch_size = static_cast<size_t>(config_.batch_size);

  Fingerprint fp;
  fp.MixString("multitask_model.v1");
  fp.MixI32(config_.granularity == sql::Granularity::kChar ? 0 : 1)
      .Mix(config_.max_vocab)
      .Mix(config_.max_len)
      .MixI32(config_.embed_dim)
      .MixI32(config_.kernels_per_width)
      .Mix(config_.widths.size());
  for (int w : config_.widths) fp.MixI32(w);
  fp.MixFloat(config_.dropout)
      .MixFloat(config_.lr)
      .MixFloat(config_.clip_norm)
      .MixI32(config_.epochs)
      .MixI32(config_.batch_size)
      .MixFloat(config_.huber_delta)
      .MixI32(config_.train_shards);
  MixMultiTaskDataset(&fp, train);
  MixMultiTaskDataset(&fp, valid);
  fp.MixRngState(entry_state);
  TrainSnapshotter snap(config_.snapshot, "mtcnn", fp.digest());

  EpochLoop loop;
  loop.params = params;
  loop.optimizer = &optimizer;
  loop.epochs = config_.epochs;
  loop.batches_per_epoch = (n + batch_size - 1) / batch_size;
  loop.has_valid = valid.size() > 0;
  std::vector<size_t> perm;
  std::vector<uint64_t> dropout_seeds;
  loop.begin_epoch = [&](int) {
    perm = rng->Permutation(n);
    dropout_seeds.resize(n);
    for (uint64_t& seed : dropout_seeds) seed = rng->Next();
  };
  loop.run_batch = [&](uint64_t bpos) {
    const size_t start = bpos * batch_size;
    const size_t end = std::min(n, start + batch_size);
    const size_t batch = end - start;
    bool any_loss = false;
    for (size_t i = start; i < end && !any_loss; ++i) {
      any_loss = has_any_loss(perm[i]);
    }
    if (!any_loss) return;  // fully unlabeled batch: no step
    optimizer.ZeroGrad();
    nn::ShardedTrainStep(
        params, &shards, batch, max_shards,
        [&](size_t /*shard*/, size_t sb, size_t se) {
          nn::Var shard_loss;
          for (size_t i = start + sb; i < start + se; ++i) {
            const size_t idx = perm[i];
            if (!has_any_loss(idx)) continue;
            Rng example_rng(dropout_seeds[i]);
            nn::Var features =
                trunk_.Forward(encoded[idx], config_.dropout, &example_rng);
            nn::Var example_loss;
            auto accumulate = [&](nn::Var task_loss) {
              example_loss = example_loss == nullptr
                                 ? task_loss
                                 : nn::Add(example_loss, task_loss);
            };
            if (train.error_labels[idx] >= 0) {
              accumulate(nn::SoftmaxCrossEntropy(error_head_.Apply(features),
                                                 {train.error_labels[idx]}));
            }
            if (HasTarget(train.cpu_targets[idx])) {
              accumulate(nn::HuberLoss(cpu_head_.Apply(features),
                                       {train.cpu_targets[idx]},
                                       config_.huber_delta));
            }
            if (HasTarget(train.answer_targets[idx])) {
              accumulate(nn::HuberLoss(answer_head_.Apply(features),
                                       {train.answer_targets[idx]},
                                       config_.huber_delta));
            }
            shard_loss = shard_loss == nullptr
                             ? example_loss
                             : nn::Add(shard_loss, example_loss);
          }
          // A shard may hold only unlabeled examples; contribute zero.
          if (shard_loss == nullptr) return nn::ZerosConst({1, 1});
          return nn::Scale(shard_loss, 1.0f / static_cast<float>(batch));
        });
    nn::ClipGradNorm(params, config_.clip_norm);
    optimizer.Step();
  };
  loop.valid_loss = [&] { return ValidLoss(valid); };
  RunEpochs(loop, &snap, rng, &valid_history_);
}

Status MultiTaskCnnModel::SaveTo(std::ostream& out) const {
  serialize::WriteTag(out, "multitask_model.v1");
  serialize::WriteI32(out, num_error_classes_);
  serialize::WriteI32(out,
                      config_.granularity == sql::Granularity::kChar ? 0 : 1);
  serialize::WriteI32(out, config_.embed_dim);
  serialize::WriteI32(out, config_.kernels_per_width);
  serialize::WriteU64(out, config_.max_len);
  trunk_.WriteTo(out);
  for (const auto* head : {&error_head_, &cpu_head_, &answer_head_}) {
    serialize::WriteTensor(out, head->weight->value);
    serialize::WriteTensor(out, head->bias->value);
  }
  return Status::Ok();
}

Status MultiTaskCnnModel::LoadFrom(std::istream& in) {
  if (Status s = serialize::ExpectTag(in, "multitask_model.v1"); !s.ok()) {
    return s;
  }
  auto read_i32 = [&](int* dst) -> Status {
    auto v = serialize::ReadI32(in);
    if (!v.ok()) return v.status();
    *dst = *v;
    return Status::Ok();
  };
  if (Status s = read_i32(&num_error_classes_); !s.ok()) return s;
  if (num_error_classes_ < 1 || num_error_classes_ > 1024) {
    return Status::CorruptCheckpoint("implausible error class count");
  }
  int granularity = 0;
  if (Status s = read_i32(&granularity); !s.ok()) return s;
  config_.granularity =
      granularity == 0 ? sql::Granularity::kChar : sql::Granularity::kWord;
  if (Status s = read_i32(&config_.embed_dim); !s.ok()) return s;
  if (Status s = read_i32(&config_.kernels_per_width); !s.ok()) return s;
  auto max_len = serialize::ReadU64(in);
  if (!max_len.ok()) return max_len.status();
  config_.max_len = *max_len;
  if (Status s = trunk_.ReadFrom(in, TrunkShape()); !s.ok()) return s;
  config_.widths = trunk_.shape().widths;
  // Every head must have the shape the header implies (see ReadParam).
  const int64_t feat_dim = trunk_.feature_dim();
  for (auto [head, outputs] : {std::pair{&error_head_, num_error_classes_},
                               std::pair{&cpu_head_, 1},
                               std::pair{&answer_head_, 1}}) {
    if (Status s = serialize::ReadParam(in, &head->weight, feat_dim, outputs);
        !s.ok()) {
      return s;
    }
    if (Status s = serialize::ReadParam(in, &head->bias, 1, outputs);
        !s.ok()) {
      return s;
    }
  }
  return Status::Ok();
}

MultiTaskCnnModel::Prediction MultiTaskCnnModel::Predict(
    const std::string& statement) const {
  return PredictBatch(std::span<const std::string>(&statement, 1))[0];
}

std::vector<MultiTaskCnnModel::Prediction> MultiTaskCnnModel::PredictBatch(
    std::span<const std::string> statements) const {
  const auto encoded = trunk_.EncodePadded(statements);
  std::vector<Prediction> preds(encoded.size());
  trunk_.ForEachSlice(encoded, /*int8=*/false, [&](size_t qb, size_t qe,
                                                  const float* features,
                                                  nn::Arena* arena) {
    const int rows = static_cast<int>(qe - qb);
    const float* error = error_head_.Apply(features, rows, arena);
    const float* cpu = cpu_head_.Apply(features, rows, arena);
    const float* answer = answer_head_.Apply(features, rows, arena);
    for (size_t q = qb; q < qe; ++q) {
      const size_t r = q - qb;
      Prediction& pred = preds[q];
      const float* logits = error + r * num_error_classes_;
      pred.error_probs.assign(logits, logits + num_error_classes_);
      nn::infer::SoftmaxInPlace(pred.error_probs.data(),
                                pred.error_probs.size());
      pred.cpu = cpu[r];
      pred.answer = answer[r];
    }
  });
  return preds;
}

}  // namespace sqlfacil::models
