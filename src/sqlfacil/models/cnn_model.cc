#include "sqlfacil/models/cnn_model.h"

#include <algorithm>
#include <cmath>

#include "sqlfacil/models/serialize_util.h"
#include "sqlfacil/models/train_state.h"
#include "sqlfacil/nn/arena.h"
#include "sqlfacil/nn/data_parallel.h"
#include "sqlfacil/nn/infer.h"
#include "sqlfacil/nn/quant.h"
#include "sqlfacil/nn/simd.h"
#include "sqlfacil/util/drain.h"
#include "sqlfacil/util/failpoint.h"
#include "sqlfacil/util/logging.h"
#include "sqlfacil/util/thread_pool.h"

namespace sqlfacil::models {

namespace {

/// Deep copy of parameter values (best-epoch snapshotting).
std::vector<nn::Tensor> Snapshot(const std::vector<nn::Var>& params) {
  std::vector<nn::Tensor> out;
  out.reserve(params.size());
  for (const auto& p : params) out.push_back(p->value);
  return out;
}

void Restore(const std::vector<nn::Var>& params,
             const std::vector<nn::Tensor>& snapshot) {
  SQLFACIL_CHECK(params.size() == snapshot.size());
  for (size_t i = 0; i < params.size(); ++i) params[i]->value = snapshot[i];
}

/// Runs `fn(qb, qe, arena)` over [0, n) in fixed 32-query slices on the
/// thread pool, resetting the per-thread arena after each. Fixed slices
/// bound the arena high-water mark and give deterministic work boundaries
/// (each query's rows depend only on that query, so slicing cannot change
/// any result).
template <typename Fn>
void ForEachSlice(size_t n, const Fn& fn) {
  constexpr size_t kSliceQueries = 32;
  const size_t num_slices = (n + kSliceQueries - 1) / kSliceQueries;
  ParallelFor(0, num_slices, 1, [&](size_t sb, size_t se) {
    nn::Arena& arena = nn::ThreadLocalArena();
    for (size_t s = sb; s < se; ++s) {
      fn(s * kSliceQueries, std::min(n, (s + 1) * kSliceQueries), &arena);
      arena.Reset();
    }
  });
}

}  // namespace

std::vector<nn::Var> CnnModel::Params() const {
  std::vector<nn::Var> params = embedding_.Params();
  for (const auto& conv : convs_) {
    for (const auto& p : conv.Params()) params.push_back(p);
  }
  for (const auto& p : head_.Params()) params.push_back(p);
  return params;
}

size_t CnnModel::num_parameters() const {
  size_t total = 0;
  for (const auto& p : Params()) total += p->value.size();
  return total;
}

nn::Var CnnModel::Forward(const std::vector<int>& ids, Rng* rng) const {
  nn::Var emb = embedding_.Lookup(ids);
  std::vector<nn::Var> pooled;
  pooled.reserve(config_.widths.size());
  for (size_t w = 0; w < config_.widths.size(); ++w) {
    nn::Var windows = nn::Unfold(emb, config_.widths[w]);
    nn::Var activations = nn::Relu(convs_[w].Apply(windows));
    pooled.push_back(nn::MaxOverTime(activations));
  }
  nn::Var features = nn::ConcatCols(pooled);
  features = nn::Dropout(features, config_.dropout, /*training=*/true, rng);
  return head_.Apply(features);
}

std::vector<std::vector<int>> CnnModel::EncodePadded(
    std::span<const std::string> statements) const {
  auto encoded = vocab_.EncodeAll(statements, MaxLen());
  // Pad to the largest window so every conv has at least one position.
  const size_t max_width = static_cast<size_t>(
      *std::max_element(config_.widths.begin(), config_.widths.end()));
  for (auto& ids : encoded) {
    if (ids.size() < max_width) ids.resize(max_width, -1);
  }
  return encoded;
}

const float* CnnModel::SliceLogits(
    const std::vector<std::vector<int>>& encoded, size_t qb, size_t qe,
    bool int8, nn::Arena* arena) const {
  const int slice = static_cast<int>(qe - qb);
  const int d = config_.embed_dim;
  const int kernels = config_.kernels_per_width;
  const int feat_dim = static_cast<int>(config_.widths.size()) * kernels;
  auto alloc_bytes = [arena](size_t bytes) {
    return reinterpret_cast<uint8_t*>(arena->Alloc((bytes + 3) / 4));
  };

  // Embed every query in the slice into one contiguous buffer (u8 rows on
  // the int8 tier).
  thread_local std::vector<size_t> row_offset;
  row_offset.assign(slice + 1, 0);
  for (size_t q = qb; q < qe; ++q) {
    row_offset[q - qb + 1] = row_offset[q - qb] + encoded[q].size();
  }
  const size_t total_tokens = row_offset[slice];
  float* emb = int8 ? nullptr : arena->Alloc(total_tokens * d);
  uint8_t* qemb = int8 ? alloc_bytes(total_tokens * d) : nullptr;
  for (size_t q = qb; q < qe; ++q) {
    const auto& ids = encoded[q];
    const int t = static_cast<int>(ids.size());
    if (int8) {
      nn::infer::Int8GatherRows(quant_.qtable.data(), d, ids.data(), t,
                                qemb + row_offset[q - qb] * d, d);
    } else {
      nn::infer::GatherRows(embedding_.table->value.data(), d, ids.data(), t,
                            emb + row_offset[q - qb] * d);
    }
  }

  float* features = arena->Alloc(static_cast<size_t>(slice) * feat_dim);
  for (size_t w = 0; w < config_.widths.size(); ++w) {
    const int width = config_.widths[w];
    size_t total_rows = 0;
    for (size_t q = qb; q < qe; ++q) {
      total_rows += encoded[q].size() - width + 1;
    }
    // Stack all queries' unfold windows into one tall matrix so the
    // convolution is a single matmul for the whole slice: fp32, or u8
    // windows through the quantized conv (dequantized against the fp32
    // conv bias).
    float* conv_out = arena->Alloc(total_rows * kernels);
    if (int8) {
      const auto& W = quant_.convs[w];
      const int stride = 4 * W.k4;
      uint8_t* windows = alloc_bytes(total_rows * stride);
      for (size_t q = qb, row = 0; q < qe; ++q) {
        const int t = static_cast<int>(encoded[q].size());
        nn::infer::Int8Unfold(qemb + row_offset[q - qb] * d, t, d, width,
                              windows + row * stride, stride);
        row += static_cast<size_t>(t - width + 1);
      }
      int32_t* acc = reinterpret_cast<int32_t*>(
          arena->Alloc(total_rows * static_cast<size_t>(W.n_pad)));
      nn::infer::Int8MatMul(windows, stride, W, quant_.emb_scale,
                            convs_[w].bias->value.data(),
                            static_cast<int>(total_rows), acc, conv_out);
    } else {
      const int wd = width * d;
      float* windows = arena->Alloc(total_rows * wd);
      for (size_t q = qb, row = 0; q < qe; ++q) {
        const int t = static_cast<int>(encoded[q].size());
        nn::infer::Unfold(emb + row_offset[q - qb] * d, t, d, width,
                          windows + row * wd);
        row += static_cast<size_t>(t - width + 1);
      }
      nn::infer::MatMul(windows, convs_[w].weight->value.data(), conv_out,
                        static_cast<int>(total_rows), wd, kernels);
      nn::infer::BiasAdd(conv_out, convs_[w].bias->value.data(),
                         static_cast<int>(total_rows), kernels);
    }
    nn::simd::Relu(conv_out, total_rows * kernels);
    // Max-over-time per query lands directly in this width's feature
    // columns, so the concat of pooled widths needs no extra copy.
    for (size_t q = qb, row = 0; q < qe; ++q) {
      const int rows_q = static_cast<int>(encoded[q].size()) - width + 1;
      nn::simd::MaxOverTime(
          conv_out, row, row + static_cast<size_t>(rows_q), kernels,
          features + (q - qb) * static_cast<size_t>(feat_dim) +
              w * static_cast<size_t>(kernels),
          nullptr);
      row += static_cast<size_t>(rows_q);
    }
  }

  float* logits = arena->Alloc(static_cast<size_t>(slice) * outputs_);
  nn::infer::MatMul(features, head_.weight->value.data(), logits, slice,
                    feat_dim, outputs_);
  nn::infer::BiasAdd(logits, head_.bias->value.data(), slice, outputs_);
  return logits;
}

double CnnModel::ValidLoss(const Dataset& valid) const {
  if (valid.size() == 0) return 0.0;
  // The serving forward on the fp32 weights being trained, whatever tier
  // serves: a re-fit must not be scored by the previous fit's int8 tier.
  // Losses land in per-example slots and sum in example order for
  // bit-identical results at any thread count.
  const auto encoded = EncodePadded(valid.statements);
  std::vector<double> losses(valid.size(), 0.0);
  ForEachSlice(valid.size(), [&](size_t qb, size_t qe, nn::Arena* arena) {
    const float* logits = SliceLogits(encoded, qb, qe, /*int8=*/false, arena);
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
  vocab_ = Vocabulary::Build(train.statements, config_.granularity,
                             config_.max_vocab);

  embedding_ = nn::Embedding(static_cast<int>(vocab_.size()),
                             config_.embed_dim, rng);
  convs_.clear();
  for (int width : config_.widths) {
    convs_.emplace_back(width * config_.embed_dim, config_.kernels_per_width,
                        rng);
  }
  head_ = nn::Linear(
      static_cast<int>(config_.widths.size()) * config_.kernels_per_width,
      outputs_, rng);

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
  // Captured before the loop's first draw; a resumed epoch re-draws its
  // permutation and per-example dropout seeds from this stream position.
  const Rng::State entry_state = rng->state();
  auto params = Params();
  nn::AdaMax optimizer(params, config_.lr);

  // Pre-encode (sharded over the thread pool).
  const auto encoded = EncodePadded(train.statements);

  // Data-parallel training: minibatches split into at most `train_shards`
  // microbatch shards that build their per-example graphs on the thread
  // pool. Dropout masks come from per-example seeds drawn serially from the
  // master stream, so masks — and therefore weights — are bit-identical at
  // any shard/thread count.
  const size_t max_shards =
      static_cast<size_t>(std::max(1, config_.train_shards));
  nn::GradShards shards;
  shards.Prepare(params, max_shards);

  std::vector<nn::Tensor> best = Snapshot(params);
  double best_valid = 1e300;
  valid_history_.clear();
  const size_t n = train.size();
  const size_t batches_per_epoch =
      (n + config_.batch_size - 1) / config_.batch_size;

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
  const ResumePoint at =
      ResumeOrColdStart(&snap, epochs, batches_per_epoch, params, &optimizer,
                        rng, &best, &best_valid, &valid_history_);

  std::vector<uint64_t> dropout_seeds;
  for (int epoch = at.epoch; epoch < epochs; ++epoch) {
    const Rng::State epoch_rng = rng->state();
    auto perm = rng->Permutation(n);
    const uint64_t skip = epoch == at.epoch ? at.batch : 0;
    uint64_t bpos = 0;
    for (size_t start = 0; start < n; start += config_.batch_size, ++bpos) {
      const size_t end = std::min(n, start + config_.batch_size);
      const size_t batch = end - start;
      // Seeds are drawn even for replayed batches: the master stream must
      // pass the same positions an uninterrupted run would.
      dropout_seeds.resize(batch);
      for (size_t i = 0; i < batch; ++i) dropout_seeds[i] = rng->Next();
      if (bpos < skip) continue;  // replayed: applied before the snapshot
      optimizer.ZeroGrad();
      nn::ShardedTrainStep(
          params, &shards, batch, max_shards,
          [&](size_t /*shard*/, size_t sb, size_t se) {
            nn::Var shard_loss;
            for (size_t i = sb; i < se; ++i) {
              const size_t idx = perm[start + i];
              Rng example_rng(dropout_seeds[i]);
              nn::Var logits = Forward(encoded[idx], &example_rng);
              nn::Var loss;
              if (kind_ == TaskKind::kClassification) {
                // Distillation: train against the teacher's soft target row
                // when present; validation still scores hard labels.
                if (train.soft_labels.size() == train.size()) {
                  loss = nn::SoftCrossEntropy(logits, train.soft_labels[idx]);
                } else {
                  loss = nn::SoftmaxCrossEntropy(logits, {train.labels[idx]});
                }
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
      if (train::DrainRequested()) {
        SaveTrainSnapshot(&snap, epoch, bpos + 1, epoch_rng, best_valid,
                          valid_history_, params, best, &optimizer);
        Restore(params, best);
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
    if (snap.ShouldSnapshot(epoch + 1, epochs) || drained) {
      SaveTrainSnapshot(&snap, epoch + 1, 0, rng->state(), best_valid,
                        valid_history_, params, best, &optimizer);
    }
    if (drained) break;
  }
  Restore(params, best);
  // The int8 tier needs no data-dependent calibration (conv inputs are
  // embedding rows with a static range), so every trained network quantizes
  // immediately.
  (void)Quantize({});
}

Status CnnModel::Quantize(std::span<const std::string> calibration) {
  (void)calibration;  // conv input ranges are static: see the header doc
  if (head_.weight == nullptr || convs_.empty() || vocab_.size() <= 1) {
    return Status::InvalidArgument("quantize requires a trained model");
  }
  CnnQuant q;
  const auto& table = embedding_.table->value;
  nn::quant::Calibration cal;
  cal.Observe(table.data(), table.size());
  q.emb_scale = cal.scale();
  q.qtable.resize(table.size());
  nn::quant::QuantizeActivations(table.data(), table.size(),
                                 1.0f / q.emb_scale, q.qtable.data());
  for (size_t w = 0; w < config_.widths.size(); ++w) {
    q.convs.push_back(nn::quant::QuantizeWeights(
        convs_[w].weight->value.data(),
        config_.widths[w] * config_.embed_dim, config_.kernels_per_width));
  }
  quant_ = std::move(q);
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
  serialize::WriteU64(out, config_.widths.size());
  for (int w : config_.widths) serialize::WriteI32(out, w);
  vocab_.SaveTo(out);
  serialize::WriteTensor(out, embedding_.table->value);
  for (const auto& conv : convs_) {
    serialize::WriteTensor(out, conv.weight->value);
    serialize::WriteTensor(out, conv.bias->value);
  }
  serialize::WriteTensor(out, head_.weight->value);
  serialize::WriteTensor(out, head_.bias->value);
  // v2 trailer: the int8 tier. The u8 embedding table is derived from the
  // fp32 table + scale and is rebuilt on load.
  serialize::WriteI32(out, quant_.ready() ? 1 : 0);
  if (quant_.ready()) {
    serialize::WriteF32(out, quant_.emb_scale);
    for (const auto& w : quant_.convs) serialize::WriteQuantTensor(out, w);
  }
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
  if ((kind != 0 && kind != 1) || outputs_ < 1 || config_.embed_dim < 1 ||
      config_.kernels_per_width < 1) {
    return Status::CorruptCheckpoint("implausible cnn_model header");
  }
  auto vocab = Vocabulary::LoadFrom(in);
  if (!vocab.ok()) return vocab.status();
  vocab_ = std::move(vocab).value();

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
  if (Status s = read_param(&head_.weight, feat_dim, outputs_); !s.ok()) {
    return s;
  }
  if (Status s = read_param(&head_.bias, 1, outputs_); !s.ok()) return s;

  quant_ = CnnQuant{};
  if (!v2) return Status::Ok();  // v1: fp32-only checkpoint
  auto qflag = serialize::ReadI32(in);
  if (!qflag.ok()) return qflag.status();
  if (*qflag == 0) return Status::Ok();
  if (*qflag != 1) {
    return Status::CorruptCheckpoint("bad quantization flag");
  }
  CnnQuant q;
  auto es = serialize::ReadF32(in);
  if (!es.ok()) return es.status();
  if (!std::isfinite(*es) || *es <= 0.0f) {
    return Status::CorruptCheckpoint("bad embedding scale");
  }
  q.emb_scale = *es;
  for (size_t w = 0; w < config_.widths.size(); ++w) {
    auto t = serialize::ReadQuantTensor(in);
    if (!t.ok()) return t.status();
    if (t->k != config_.widths[w] * config_.embed_dim ||
        t->n != config_.kernels_per_width) {
      return Status::CorruptCheckpoint("quantized conv shape mismatch");
    }
    q.convs.push_back(std::move(t).value());
  }
  // The u8 table is derived: requantize the fp32 table under the stored
  // scale (bit-identical to the save-time table by the rounding contract).
  const auto& table = embedding_.table->value;
  q.qtable.resize(table.size());
  nn::quant::QuantizeActivations(table.data(), table.size(),
                                 1.0f / q.emb_scale, q.qtable.data());
  quant_ = std::move(q);
  return Status::Ok();
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
  const bool int8 = nn::quant::ActivePrecision() ==
                        nn::quant::Precision::kInt8 &&
                    quant_.ready();
  const auto encoded = EncodePadded(statements);
  std::vector<std::vector<float>> preds(encoded.size());
  ForEachSlice(encoded.size(), [&](size_t qb, size_t qe, nn::Arena* arena) {
    const float* logits = SliceLogits(encoded, qb, qe, int8, arena);
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
