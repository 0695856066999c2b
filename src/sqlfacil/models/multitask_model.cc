#include "sqlfacil/models/multitask_model.h"

#include <algorithm>
#include <cmath>

#include "sqlfacil/models/serialize_util.h"
#include "sqlfacil/models/train_state.h"
#include "sqlfacil/nn/data_parallel.h"
#include "sqlfacil/nn/infer.h"
#include "sqlfacil/util/drain.h"
#include "sqlfacil/util/logging.h"
#include "sqlfacil/util/thread_pool.h"

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

std::vector<nn::Tensor> Snapshot(const std::vector<nn::Var>& params) {
  std::vector<nn::Tensor> out;
  out.reserve(params.size());
  for (const auto& p : params) out.push_back(p->value);
  return out;
}

void Restore(const std::vector<nn::Var>& params,
             const std::vector<nn::Tensor>& snapshot) {
  for (size_t i = 0; i < params.size(); ++i) params[i]->value = snapshot[i];
}

}  // namespace

nn::Var MultiTaskCnnModel::Encode(const std::vector<int>& ids, bool training,
                                  Rng* rng) const {
  std::vector<int> padded = ids;
  const int max_width =
      *std::max_element(config_.widths.begin(), config_.widths.end());
  while (padded.size() < static_cast<size_t>(max_width)) padded.push_back(-1);
  nn::Var emb = embedding_.Lookup(padded);
  std::vector<nn::Var> pooled;
  for (size_t w = 0; w < config_.widths.size(); ++w) {
    pooled.push_back(nn::MaxOverTime(
        nn::Relu(convs_[w].Apply(nn::Unfold(emb, config_.widths[w])))));
  }
  return nn::Dropout(nn::ConcatCols(pooled), config_.dropout, training, rng);
}

size_t MultiTaskCnnModel::num_parameters() const {
  size_t total = 0;
  for (const auto& p : embedding_.Params()) total += p->value.size();
  for (const auto& conv : convs_) {
    for (const auto& p : conv.Params()) total += p->value.size();
  }
  for (const auto* head : {&error_head_, &cpu_head_, &answer_head_}) {
    for (const auto& p : head->Params()) total += p->value.size();
  }
  return total;
}

double MultiTaskCnnModel::ExampleLoss(const std::string& statement,
                                      int error_label, float cpu_target,
                                      float answer_target) const {
  Rng unused(0);
  const auto ids = vocab_.Encode(statement, config_.max_len);
  nn::Var features = Encode(ids, /*training=*/false, &unused);
  double loss = 0.0;
  if (error_label >= 0) {
    loss += nn::SoftmaxCrossEntropy(error_head_.Apply(features),
                                    {error_label})
                ->value.at(0);
  }
  if (HasTarget(cpu_target)) {
    loss += nn::HuberLoss(cpu_head_.Apply(features), {cpu_target},
                          config_.huber_delta)
                ->value.at(0);
  }
  if (HasTarget(answer_target)) {
    loss += nn::HuberLoss(answer_head_.Apply(features), {answer_target},
                          config_.huber_delta)
                ->value.at(0);
  }
  return loss;
}

double MultiTaskCnnModel::ValidLoss(const MultiTaskDataset& valid) const {
  if (valid.size() == 0) return 0.0;
  // Forward-only, parallel per example; per-example losses land in slots and
  // sum in example order, so the total is identical at any thread count.
  std::vector<double> losses(valid.size(), 0.0);
  ParallelFor(0, valid.size(), 8, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      losses[i] = ExampleLoss(valid.statements[i], valid.error_labels[i],
                              valid.cpu_targets[i], valid.answer_targets[i]);
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
  vocab_ = Vocabulary::Build(train.statements, config_.granularity,
                             config_.max_vocab);
  embedding_ =
      nn::Embedding(static_cast<int>(vocab_.size()), config_.embed_dim, rng);
  convs_.clear();
  for (int width : config_.widths) {
    convs_.emplace_back(width * config_.embed_dim, config_.kernels_per_width,
                        rng);
  }
  const int feature_dim =
      static_cast<int>(config_.widths.size()) * config_.kernels_per_width;
  error_head_ = nn::Linear(feature_dim, num_error_classes_, rng);
  cpu_head_ = nn::Linear(feature_dim, 1, rng);
  answer_head_ = nn::Linear(feature_dim, 1, rng);

  std::vector<nn::Var> params = embedding_.Params();
  for (const auto& conv : convs_) {
    for (const auto& p : conv.Params()) params.push_back(p);
  }
  for (const auto* head : {&error_head_, &cpu_head_, &answer_head_}) {
    for (const auto& p : head->Params()) params.push_back(p);
  }
  nn::AdaMax optimizer(params, config_.lr);

  auto encoded = vocab_.EncodeAll(train.statements, config_.max_len);

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

  std::vector<nn::Tensor> best = Snapshot(params);
  double best_valid = 1e300;
  valid_history_.clear();
  const size_t n = train.size();
  const size_t batches_per_epoch =
      (n + static_cast<size_t>(config_.batch_size) - 1) /
      static_cast<size_t>(config_.batch_size);

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
  const ResumePoint at =
      ResumeOrColdStart(&snap, config_.epochs, batches_per_epoch, params,
                        &optimizer, rng, &best, &best_valid, &valid_history_);

  std::vector<uint64_t> dropout_seeds;
  for (int epoch = at.epoch; epoch < config_.epochs; ++epoch) {
    const Rng::State epoch_rng = rng->state();
    auto perm = rng->Permutation(n);
    const uint64_t skip = epoch == at.epoch ? at.batch : 0;
    // Drains the run after the batch position `next_cursor - 1` completed
    // (applied or skipped-as-unlabeled — the cursor counts positions, so
    // resume replays the same seed draws either way).
    auto drain_now = [&](uint64_t next_cursor) {
      SaveTrainSnapshot(&snap, epoch, next_cursor, epoch_rng, best_valid,
                        valid_history_, params, best, &optimizer);
      Restore(params, best);
    };
    uint64_t bpos = 0;
    for (size_t start = 0; start < n;
         start += static_cast<size_t>(config_.batch_size), ++bpos) {
      const size_t end =
          std::min(n, start + static_cast<size_t>(config_.batch_size));
      const size_t batch = end - start;
      // Seeds are drawn even for replayed / unlabeled batches: the master
      // stream must pass the same positions an uninterrupted run would.
      dropout_seeds.resize(batch);
      for (size_t i = 0; i < batch; ++i) dropout_seeds[i] = rng->Next();
      if (bpos < skip) continue;  // replayed: applied before the snapshot
      bool any_loss = false;
      for (size_t i = start; i < end && !any_loss; ++i) {
        any_loss = has_any_loss(perm[i]);
      }
      if (!any_loss) {  // fully unlabeled batch: no step
        if (train::DrainRequested()) {
          drain_now(bpos + 1);
          return;
        }
        continue;
      }
      optimizer.ZeroGrad();
      nn::ShardedTrainStep(
          params, &shards, batch, max_shards,
          [&](size_t /*shard*/, size_t sb, size_t se) {
            nn::Var shard_loss;
            for (size_t i = sb; i < se; ++i) {
              const size_t idx = perm[start + i];
              if (!has_any_loss(idx)) continue;
              Rng example_rng(dropout_seeds[i]);
              nn::Var features =
                  Encode(encoded[idx], /*training=*/true, &example_rng);
              nn::Var example_loss;
              auto accumulate = [&](nn::Var task_loss) {
                example_loss = example_loss == nullptr
                                   ? task_loss
                                   : nn::Add(example_loss, task_loss);
              };
              if (train.error_labels[idx] >= 0) {
                accumulate(nn::SoftmaxCrossEntropy(
                    error_head_.Apply(features), {train.error_labels[idx]}));
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
      if (train::DrainRequested()) {
        drain_now(bpos + 1);
        return;
      }
    }
    const double vloss = ValidLoss(valid);
    valid_history_.push_back(vloss);
    if (vloss < best_valid || valid.size() == 0) {
      best_valid = vloss;
      best = Snapshot(params);
    }
    const bool drained = train::DrainRequested();
    if (snap.ShouldSnapshot(epoch + 1, config_.epochs) || drained) {
      SaveTrainSnapshot(&snap, epoch + 1, 0, rng->state(), best_valid,
                        valid_history_, params, best, &optimizer);
    }
    if (drained) break;
  }
  Restore(params, best);
}

Status MultiTaskCnnModel::SaveTo(std::ostream& out) const {
  serialize::WriteTag(out, "multitask_model.v1");
  serialize::WriteI32(out, num_error_classes_);
  serialize::WriteI32(out,
                      config_.granularity == sql::Granularity::kChar ? 0 : 1);
  serialize::WriteI32(out, config_.embed_dim);
  serialize::WriteI32(out, config_.kernels_per_width);
  serialize::WriteU64(out, config_.max_len);
  serialize::WriteU64(out, config_.widths.size());
  for (int w : config_.widths) serialize::WriteI32(out, w);
  vocab_.SaveTo(out);
  serialize::WriteTensor(out, embedding_.table->value);
  for (const auto& conv : convs_) {
    serialize::WriteTensor(out, conv.weight->value);
    serialize::WriteTensor(out, conv.bias->value);
  }
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
  auto num_widths = serialize::ReadU64(in);
  if (!num_widths.ok()) return num_widths.status();
  if (*num_widths == 0 || *num_widths > 16) {
    return Status::CorruptCheckpoint("implausible width count");
  }
  config_.widths.clear();
  for (uint64_t i = 0; i < *num_widths; ++i) {
    int w = 0;
    if (Status s = read_i32(&w); !s.ok()) return s;
    if (w < 1) return Status::CorruptCheckpoint("implausible conv width");
    config_.widths.push_back(w);
  }
  auto vocab = Vocabulary::LoadFrom(in);
  if (!vocab.ok()) return vocab.status();
  vocab_ = std::move(vocab).value();

  if (config_.embed_dim < 1 || config_.kernels_per_width < 1) {
    return Status::CorruptCheckpoint("implausible multitask_model header");
  }
  // Every tensor must have the shape the header implies (see ReadParam).
  auto read_param = [&in](nn::Var* dst, int64_t rows, int64_t cols,
                          bool at_least_rows = false) {
    return serialize::ReadParam(in, dst, rows, cols, at_least_rows);
  };
  const int d = config_.embed_dim;
  const int kernels = config_.kernels_per_width;
  if (Status s = read_param(&embedding_.table, vocab_.size(), d,
                            /*at_least_rows=*/true);
      !s.ok()) {
    return s;
  }
  convs_.assign(config_.widths.size(), nn::Linear());
  for (size_t w = 0; w < convs_.size(); ++w) {
    const int64_t window = int64_t{config_.widths[w]} * d;
    if (Status s = read_param(&convs_[w].weight, window, kernels); !s.ok()) {
      return s;
    }
    if (Status s = read_param(&convs_[w].bias, 1, kernels); !s.ok()) return s;
  }
  const int64_t feat_dim =
      int64_t{kernels} * static_cast<int64_t>(config_.widths.size());
  for (auto [head, outputs] : {std::pair{&error_head_, num_error_classes_},
                               std::pair{&cpu_head_, 1},
                               std::pair{&answer_head_, 1}}) {
    if (Status s = read_param(&head->weight, feat_dim, outputs); !s.ok()) {
      return s;
    }
    if (Status s = read_param(&head->bias, 1, outputs); !s.ok()) return s;
  }
  return Status::Ok();
}

MultiTaskCnnModel::Prediction MultiTaskCnnModel::Predict(
    const std::string& statement) const {
  Rng unused(0);
  const auto ids = vocab_.Encode(statement, config_.max_len);
  nn::Var features = Encode(ids, /*training=*/false, &unused);
  Prediction pred;
  nn::Var logits = error_head_.Apply(features);
  pred.error_probs.assign(logits->value.data(),
                          logits->value.data() + logits->value.size());
  nn::infer::SoftmaxInPlace(pred.error_probs.data(), pred.error_probs.size());
  pred.cpu = cpu_head_.Apply(features)->value.at(0);
  pred.answer = answer_head_.Apply(features)->value.at(0);
  return pred;
}

}  // namespace sqlfacil::models
