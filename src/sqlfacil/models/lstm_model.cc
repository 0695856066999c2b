#include "sqlfacil/models/lstm_model.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "sqlfacil/models/serialize_util.h"
#include "sqlfacil/models/train_state.h"
#include "sqlfacil/nn/arena.h"
#include "sqlfacil/nn/data_parallel.h"
#include "sqlfacil/nn/infer.h"
#include "sqlfacil/nn/lstm_fused.h"
#include "sqlfacil/nn/simd.h"
#include "sqlfacil/util/drain.h"
#include "sqlfacil/util/failpoint.h"
#include "sqlfacil/util/logging.h"
#include "sqlfacil/util/thread_pool.h"

namespace sqlfacil::models {

namespace {

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

/// Length bucketing as in Fit: a stable sort by encoded length, then
/// buckets of `bucket` sequences, so every bucket (a single one too) holds
/// its rows in ascending length order, the order BucketLogits steps on.
/// Runs `fn(seqs, idx, batch, arena)` per bucket — seqs[i] is statement
/// idx[i] — and resets the per-thread arena after each. Every row computes
/// from its own state only, so results do not depend on the partition.
template <typename Fn>
void ForEachBucket(const std::vector<std::vector<int>>& encoded, int bucket,
                   bool parallel, const Fn& fn) {
  const size_t n = encoded.size();
  const size_t size = static_cast<size_t>(std::max(1, bucket));
  const size_t num_buckets = (n + size - 1) / size;
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return encoded[a].size() < encoded[b].size();
  });
  auto run = [&](size_t bb, size_t be) {
    nn::Arena& arena = nn::ThreadLocalArena();
    thread_local std::vector<const std::vector<int>*> seqs;
    for (size_t b = bb; b < be; ++b) {
      const size_t start = b * size;
      const size_t end = std::min(n, start + size);
      seqs.clear();
      for (size_t i = start; i < end; ++i) seqs.push_back(&encoded[order[i]]);
      fn(seqs.data(), order.data() + start, static_cast<int>(end - start),
         &arena);
      arena.Reset();
    }
  };
  if (parallel) {
    ParallelFor(0, num_buckets, 1, run);
  } else {
    run(0, num_buckets);
  }
}

}  // namespace

std::vector<nn::Var> LstmModel::Params() const {
  std::vector<nn::Var> params = stack_.Params();
  for (const auto& p : embedding_.Params()) params.push_back(p);
  for (const auto& p : head_.Params()) params.push_back(p);
  return params;
}

size_t LstmModel::num_parameters() const {
  size_t total = 0;
  for (const auto& p : Params()) total += p->value.size();
  return total;
}

double LstmModel::ValidLoss(
    const Dataset& valid, const std::vector<std::vector<int>>& encoded) const {
  if (valid.size() == 0) return 0.0;
  // The serving forward on the fp32 weights being trained, whatever tier
  // serves: a re-fit must not be scored by the previous fit's int8 tier.
  // Losses land in per-example slots and sum in example order for
  // bit-identical results at any thread count.
  std::vector<double> losses(valid.size(), 0.0);
  ForEachBucket(encoded, config_.batch_size, /*parallel=*/true,
                [&](const std::vector<int>* const* seqs, const size_t* idx,
                    int batch, nn::Arena* arena) {
                  float* logits =
                      arena->Alloc(static_cast<size_t>(batch) * outputs_);
                  BucketLogits(seqs, batch, /*int8=*/false, arena, logits);
                  for (int i = 0; i < batch; ++i) {
                    const float* row =
                        logits + static_cast<size_t>(i) * outputs_;
                    const size_t e = idx[i];
                    losses[e] =
                        kind_ == TaskKind::kClassification
                            ? nn::infer::SoftmaxCrossEntropy(
                                  row, 1, outputs_, &valid.labels[e], nullptr)
                            : nn::infer::HuberLoss(row, &valid.targets[e], 1,
                                                   config_.huber_delta,
                                                   nullptr);
                  }
                });
  double total = 0.0;
  for (double l : losses) total += l;
  return total / static_cast<double>(valid.size());
}

void LstmModel::Fit(const Dataset& train, const Dataset& valid, Rng* rng) {
  failpoint::MaybeFail("model.fit");
  // Captured before any init draw: the fingerprint ties a snapshot to the
  // exact draw stream this run would produce, and a resumed epoch replays
  // from this stream's positions.
  const Rng::State entry_state = rng->state();
  kind_ = train.kind;
  outputs_ = kind_ == TaskKind::kClassification ? train.num_classes : 1;
  vocab_ = Vocabulary::Build(train.statements, config_.granularity,
                             config_.max_vocab);

  embedding_ = nn::Embedding(static_cast<int>(vocab_.size()),
                             config_.embed_dim, rng);
  stack_ = nn::LstmStack(config_.embed_dim, config_.hidden_dim,
                         config_.num_layers, rng);
  head_ = nn::Linear(config_.hidden_dim, outputs_, rng);

  auto params = Params();
  nn::AdaMax optimizer(params, config_.lr);

  auto encoded =
      vocab_.EncodeAll(train.statements, MaxLen(), /*pad_empty=*/true);
  auto valid_encoded =
      vocab_.EncodeAll(valid.statements, MaxLen(), /*pad_empty=*/true);

  // Length bucketing: sort indices by sequence length so batches carry
  // minimal padding, then shuffle the batch order each epoch.
  std::vector<size_t> by_length(train.size());
  std::iota(by_length.begin(), by_length.end(), 0);
  std::stable_sort(by_length.begin(), by_length.end(),
                   [&](size_t a, size_t b) {
                     return encoded[a].size() < encoded[b].size();
                   });
  std::vector<std::vector<size_t>> batches;
  for (size_t start = 0; start < by_length.size();
       start += config_.batch_size) {
    const size_t end =
        std::min(by_length.size(), start + config_.batch_size);
    batches.emplace_back(by_length.begin() + start, by_length.begin() + end);
  }

  // Data-parallel training: each minibatch splits into at most
  // `train_shards` microbatch shards that run the fused LstmSequence
  // forward/backward on the thread pool. Shard boundaries, gradient
  // reduction order, and the loss sum depend only on the batch size and the
  // shard cap, so the trained weights are bit-identical at any thread count.
  const size_t max_shards =
      static_cast<size_t>(std::max(1, config_.train_shards));
  nn::GradShards shards;
  shards.Prepare(params, max_shards);

  std::vector<nn::Tensor> best = Snapshot(params);
  double best_valid = 1e300;
  valid_history_.clear();

  Fingerprint fp;
  fp.MixString("lstm_model.v1|" + name());
  fp.MixI32(config_.granularity == sql::Granularity::kChar ? 0 : 1)
      .Mix(config_.max_vocab)
      .Mix(MaxLen())
      .MixI32(config_.embed_dim)
      .MixI32(config_.hidden_dim)
      .MixI32(config_.num_layers)
      .MixFloat(config_.lr)
      .MixFloat(config_.clip_norm)
      .MixI32(config_.epochs)
      .MixI32(config_.batch_size)
      .MixFloat(config_.huber_delta)
      .MixI32(config_.train_shards);
  MixDataset(&fp, train);
  MixDataset(&fp, valid);
  fp.MixRngState(entry_state);
  TrainSnapshotter snap(config_.snapshot, name(), fp.digest());
  const ResumePoint at =
      ResumeOrColdStart(&snap, config_.epochs, batches.size(), params,
                        &optimizer, rng, &best, &best_valid, &valid_history_);

  for (int epoch = at.epoch; epoch < config_.epochs; ++epoch) {
    // The master RNG state at epoch start: a mid-epoch snapshot stores it,
    // and resume re-draws the identical permutation then skips the batches
    // that were already applied.
    const Rng::State epoch_rng = rng->state();
    auto batch_order = rng->Permutation(batches.size());
    const uint64_t skip = epoch == at.epoch ? at.batch : 0;
    for (size_t bpos = 0; bpos < batch_order.size(); ++bpos) {
      if (bpos < skip) continue;  // replayed: applied before the snapshot
      const auto& batch = batches[batch_order[bpos]];
      optimizer.ZeroGrad();
      nn::ShardedTrainStep(
          params, &shards, batch.size(), max_shards,
          [&](size_t /*shard*/, size_t sb, size_t se) {
            const int sz = static_cast<int>(se - sb);
            // Pooled shard scratch: shapes are stable across steps, so
            // steady-state assembly performs no allocation.
            thread_local std::vector<int> step_ids, lens, labels;
            thread_local std::vector<float> targets;
            int max_len = 1;
            lens.assign(sz, 1);
            for (int i = 0; i < sz; ++i) {
              lens[i] = static_cast<int>(encoded[batch[sb + i]].size());
              max_len = std::max(max_len, lens[i]);
            }
            step_ids.assign(static_cast<size_t>(max_len) * sz, -1);
            labels.clear();
            targets.clear();
            for (int i = 0; i < sz; ++i) {
              const size_t idx = batch[sb + i];
              const auto& ids = encoded[idx];
              for (size_t t = 0; t < ids.size(); ++t) {
                step_ids[t * sz + i] = ids[t];
              }
              if (kind_ == TaskKind::kClassification) {
                labels.push_back(train.labels[idx]);
              } else {
                targets.push_back(train.targets[idx]);
              }
            }
            nn::Var h = nn::LstmSequence(embedding_.table, stack_, step_ids,
                                         lens, max_len);
            nn::Var out = head_.Apply(h);
            nn::Var loss =
                kind_ == TaskKind::kClassification
                    ? nn::SoftmaxCrossEntropy(out, labels)
                    : nn::HuberLoss(out, targets, config_.huber_delta);
            // Per-shard mean -> shard's share of the batch mean.
            return nn::Scale(loss, static_cast<float>(sz) /
                                       static_cast<float>(batch.size()));
          });
      nn::ClipGradNorm(params, config_.clip_norm);
      optimizer.Step();
      if (train::DrainRequested()) {
        // Graceful drain: the in-flight sharded step finished above; save
        // the mid-epoch position and stop.
        SaveTrainSnapshot(&snap, epoch, bpos + 1, epoch_rng, best_valid,
                          valid_history_, params, best, &optimizer);
        Restore(params, best);
        return;
      }
    }
    const double vloss = ValidLoss(valid, valid_encoded);
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
  // Auto-calibrate the int8 tier on a held-out slice (valid when available)
  // so every trained model can serve SQLFACIL_PRECISION=int8 without an
  // extra offline step; tools/quantize re-runs this on saved checkpoints.
  const auto& cal_src = valid.size() > 0 ? valid.statements : train.statements;
  const size_t cal_n = std::min<size_t>(cal_src.size(), 256);
  if (cal_n > 0) {
    (void)Quantize(std::span<const std::string>(cal_src.data(), cal_n));
  }
}

Status LstmModel::SaveTo(std::ostream& out) const {
  serialize::WriteTag(out, "lstm_model.v2");
  serialize::WriteI32(out, kind_ == TaskKind::kClassification ? 0 : 1);
  serialize::WriteI32(out, outputs_);
  serialize::WriteI32(out,
                      config_.granularity == sql::Granularity::kChar ? 0 : 1);
  serialize::WriteI32(out, config_.embed_dim);
  serialize::WriteI32(out, config_.hidden_dim);
  serialize::WriteI32(out, config_.num_layers);
  serialize::WriteU64(out, config_.max_len_char);
  serialize::WriteU64(out, config_.max_len_word);
  vocab_.SaveTo(out);
  serialize::WriteTensor(out, embedding_.table->value);
  for (const auto& layer : stack_.layers) {
    serialize::WriteTensor(out, layer.input_map.weight->value);
    serialize::WriteTensor(out, layer.input_map.bias->value);
    serialize::WriteTensor(out, layer.hidden_map.weight->value);
  }
  serialize::WriteTensor(out, head_.weight->value);
  serialize::WriteTensor(out, head_.bias->value);
  // v2 trailer: the int8 tier. The x_table is derived data (an exact fp32
  // fold of weights already stored above) and is rebuilt on load.
  serialize::WriteI32(out, quant_.ready() ? 1 : 0);
  if (quant_.ready()) {
    serialize::WriteF32(out, hidden_scale_);
    serialize::WriteQuantTensor(out, quant_.wh0);
    for (size_t l = 0; l < quant_.wcat.size(); ++l) {
      serialize::WriteQuantTensor(out, quant_.wcat[l]);
      serialize::WriteFloats(out, quant_.bias[l]);
    }
    serialize::WriteQuantTensor(out, quant_.head);
    serialize::WriteFloats(out, quant_.head_bias);
  }
  return Status::Ok();
}

Status LstmModel::LoadFrom(std::istream& in) {
  auto tag = serialize::ReadString(in);
  if (!tag.ok()) return tag.status();
  const bool v2 = *tag == "lstm_model.v2";
  if (!v2 && *tag != "lstm_model.v1") {
    return Status::CorruptCheckpoint(
        "model file tag mismatch: expected 'lstm_model.v1/v2', found '" +
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
  if (Status s = read_i32(&config_.hidden_dim); !s.ok()) return s;
  if (Status s = read_i32(&config_.num_layers); !s.ok()) return s;
  if (config_.num_layers < 1 || config_.num_layers > 16) {
    return Status::CorruptCheckpoint("implausible LSTM layer count");
  }
  if ((kind != 0 && kind != 1) || outputs_ < 1 || config_.embed_dim < 1 ||
      config_.hidden_dim < 1) {
    return Status::CorruptCheckpoint("implausible lstm_model header");
  }
  auto max_len_char = serialize::ReadU64(in);
  if (!max_len_char.ok()) return max_len_char.status();
  config_.max_len_char = *max_len_char;
  auto max_len_word = serialize::ReadU64(in);
  if (!max_len_word.ok()) return max_len_word.status();
  config_.max_len_word = *max_len_word;
  auto vocab = Vocabulary::LoadFrom(in);
  if (!vocab.ok()) return vocab.status();
  vocab_ = std::move(vocab).value();

  // Every tensor must have the shape the header implies (see ReadParam).
  auto read_param = [&in](nn::Var* dst, int64_t rows, int64_t cols,
                          bool at_least_rows = false) {
    return serialize::ReadParam(in, dst, rows, cols, at_least_rows);
  };
  const int hidden = config_.hidden_dim;
  const int64_t gates = int64_t{4} * hidden;
  if (Status s = read_param(&embedding_.table, vocab_.size(),
                            config_.embed_dim, /*at_least_rows=*/true);
      !s.ok()) {
    return s;
  }
  stack_.layers.assign(config_.num_layers, nn::LstmLayer());
  for (int l = 0; l < config_.num_layers; ++l) {
    auto& layer = stack_.layers[l];
    layer.hidden_dim = hidden;
    const int input_dim = l == 0 ? config_.embed_dim : hidden;
    if (Status s = read_param(&layer.input_map.weight, input_dim, gates);
        !s.ok()) {
      return s;
    }
    if (Status s = read_param(&layer.input_map.bias, 1, gates); !s.ok()) {
      return s;
    }
    if (Status s = read_param(&layer.hidden_map.weight, hidden, gates);
        !s.ok()) {
      return s;
    }
  }
  if (Status s = read_param(&head_.weight, hidden, outputs_); !s.ok()) {
    return s;
  }
  if (Status s = read_param(&head_.bias, 1, outputs_); !s.ok()) return s;

  quant_ = nn::QuantLstmStack{};
  hidden_scale_ = 0.0f;
  if (!v2) return Status::Ok();  // v1: fp32-only checkpoint
  auto qflag = serialize::ReadI32(in);
  if (!qflag.ok()) return qflag.status();
  if (*qflag == 0) return Status::Ok();
  if (*qflag != 1) {
    return Status::CorruptCheckpoint("bad quantization flag");
  }
  auto hs = serialize::ReadF32(in);
  if (!hs.ok()) return hs.status();
  if (!std::isfinite(*hs) || *hs <= 0.0f) {
    return Status::CorruptCheckpoint("bad hidden-state scale");
  }
  hidden_scale_ = *hs;
  nn::QuantLstmStack q;
  q.num_layers = config_.num_layers;
  q.hidden = hidden;
  q.vocab = embedding_.table->value.shape()[0];
  q.outputs = outputs_;
  q.hidden_scale = hidden_scale_;
  auto read_qt = [&](nn::quant::QuantizedTensor* dst, int k,
                     int n) -> Status {
    auto t = serialize::ReadQuantTensor(in);
    if (!t.ok()) return t.status();
    if (t->k != k || t->n != n) {
      return Status::CorruptCheckpoint("quantized tensor shape mismatch");
    }
    *dst = std::move(t).value();
    return Status::Ok();
  };
  if (Status s = read_qt(&q.wh0, hidden, 4 * hidden); !s.ok()) return s;
  for (int l = 1; l < config_.num_layers; ++l) {
    nn::quant::QuantizedTensor w;
    if (Status s = read_qt(&w, 2 * hidden, 4 * hidden); !s.ok()) return s;
    q.wcat.push_back(std::move(w));
    auto b = serialize::ReadFloats(in);
    if (!b.ok()) return b.status();
    if (static_cast<int>(b->size()) != 4 * hidden) {
      return Status::CorruptCheckpoint("quantized bias size mismatch");
    }
    q.bias.push_back(std::move(b).value());
  }
  if (Status s = read_qt(&q.head, hidden, outputs_); !s.ok()) return s;
  auto hb = serialize::ReadFloats(in);
  if (!hb.ok()) return hb.status();
  if (static_cast<int>(hb->size()) != outputs_) {
    return Status::CorruptCheckpoint("quantized head bias size mismatch");
  }
  q.head_bias = std::move(hb).value();
  // The exact token -> gate fold is derived from the fp32 weights above.
  q.x_table = nn::BuildLstmXTable(embedding_.table->value, stack_.layers[0]);
  quant_ = std::move(q);
  return Status::Ok();
}

std::vector<float> LstmModel::Predict(const std::string& statement,
                                      double opt_cost) const {
  // A single query is a batch of one through the same kernels, so Predict
  // and PredictBatch are bit-identical on either tier by construction.
  return PredictBatch(std::span<const std::string>(&statement, 1),
                      std::span<const double>(&opt_cost, 1))[0];
}

void LstmModel::BucketLogits(const std::vector<int>* const* seqs, int batch,
                             bool int8, nn::Arena* arena, float* logits,
                             float* max_abs_h) const {
  if (int8) {
    nn::LstmInt8Forward(quant_, seqs, batch, arena, logits);
    return;
  }
  const int d = config_.embed_dim;
  const int hidden = config_.hidden_dim;
  const int layers = static_cast<int>(stack_.layers.size());
  const size_t max_len = seqs[batch - 1]->size();

  // Step workspace, allocated once and reused across every (t, layer) pair
  // so the arena high-water mark is independent of sequence length.
  float* x = arena->Alloc(static_cast<size_t>(batch) * d);
  float* gx = arena->Alloc(static_cast<size_t>(batch) * 4 * hidden);
  // Per-layer state, updated in place: LstmGates reads a layer's h rows
  // before the cell overwrites them, and each row's c is read then written
  // element by element.
  thread_local std::vector<float*> h, c;
  h.resize(layers);
  c.resize(layers);
  const size_t state_floats = static_cast<size_t>(batch) * hidden;
  for (int l = 0; l < layers; ++l) {
    h[l] = arena->AllocZero(state_floats);
    c[l] = arena->AllocZero(state_floats);
  }
  const float* table = embedding_.table->value.data();

  // Rows ascend by length, so the rows still reading tokens at step t are
  // [first, batch); a finished row keeps its final state untouched.
  int first = 0;
  for (size_t t = 0; t < max_len; ++t) {
    while (seqs[first]->size() <= t) ++first;
    for (int b = first; b < batch; ++b) {
      std::copy_n(table + static_cast<size_t>((*seqs[b])[t]) * d, d,
                  x + static_cast<size_t>(b) * d);
    }
    const float* input = x;
    int input_dim = d;
    for (int l = 0; l < layers; ++l) {
      const auto& layer = stack_.layers[l];
      // Gate pre-activations in one register-resident sweep:
      // gx = x @ Wx + bias + h @ Wh (same term order as the training fast
      // path's forward).
      nn::simd::LstmGates(input, layer.input_map.weight->value.data(),
                          layer.input_map.bias->value.data(), h[l],
                          layer.hidden_map.weight->value.data(), gx, first,
                          batch, input_dim, hidden, 4 * hidden);
      for (int b = first; b < batch; ++b) {
        float* h_row = h[l] + static_cast<size_t>(b) * hidden;
        float* c_row = c[l] + static_cast<size_t>(b) * hidden;
        // Gate order [update, forget, output, candidate], matching
        // SplitGates.
        float* row = gx + static_cast<size_t>(b) * 4 * hidden;
        nn::simd::SigmoidInPlace(row, 3 * static_cast<size_t>(hidden));
        nn::simd::TanhInPlace(row + 3 * hidden, hidden);
        nn::simd::LstmCellForward(row, row + hidden, row + 2 * hidden,
                                  row + 3 * hidden, c_row, c_row, h_row,
                                  static_cast<size_t>(hidden));
        if (max_abs_h != nullptr) {
          for (int j = 0; j < hidden; ++j) {
            const float a = std::fabs(h_row[j]);
            if (a > *max_abs_h) *max_abs_h = a;
          }
        }
      }
      input = h[l];
      input_dim = hidden;
    }
  }

  nn::infer::MatMul(h[layers - 1], head_.weight->value.data(), logits,
                    batch, hidden, outputs_);
  nn::infer::BiasAdd(logits, head_.bias->value.data(), batch, outputs_);
}

std::vector<std::vector<float>> LstmModel::PredictBatch(
    std::span<const std::string> statements,
    std::span<const double> opt_costs) const {
  (void)opt_costs;
  failpoint::MaybeFail("model.predict");
  nn::simd::LogDispatchOnce();
  const bool int8 = nn::quant::ActivePrecision() ==
                        nn::quant::Precision::kInt8 &&
                    quant_.ready();
  const auto encoded =
      vocab_.EncodeAll(statements, MaxLen(), /*pad_empty=*/true);
  std::vector<std::vector<float>> preds(encoded.size());
  ForEachBucket(encoded, config_.batch_size, /*parallel=*/true,
                [&](const std::vector<int>* const* seqs, const size_t* idx,
                    int batch, nn::Arena* arena) {
                  float* logits =
                      arena->Alloc(static_cast<size_t>(batch) * outputs_);
                  BucketLogits(seqs, batch, int8, arena, logits);
                  for (int i = 0; i < batch; ++i) {
                    const float* row =
                        logits + static_cast<size_t>(i) * outputs_;
                    auto& out = preds[idx[i]];
                    out.assign(row, row + outputs_);
                    if (kind_ == TaskKind::kClassification) {
                      nn::infer::SoftmaxInPlace(out.data(), out.size());
                    }
                  }
                });
  return preds;
}

Status LstmModel::Quantize(std::span<const std::string> calibration) {
  if (stack_.layers.empty() || vocab_.size() <= 1) {
    return Status::InvalidArgument("quantize requires a trained model");
  }
  if (calibration.empty()) {
    return Status::InvalidArgument(
        "quantize requires calibration statements");
  }
  // Calibration = the fp32 forward with max|h| capture. Serial over
  // buckets: the split is small and a single running max avoids any
  // cross-thread reduction question.
  const auto encoded =
      vocab_.EncodeAll(calibration, MaxLen(), /*pad_empty=*/true);
  float max_abs = 0.0f;
  ForEachBucket(encoded, config_.batch_size, /*parallel=*/false,
                [&](const std::vector<int>* const* seqs, const size_t*,
                    int batch, nn::Arena* arena) {
                  BucketLogits(
                      seqs, batch, /*int8=*/false, arena,
                      arena->Alloc(static_cast<size_t>(batch) * outputs_),
                      &max_abs);
                });
  hidden_scale_ = std::max(max_abs, 1e-6f) / 127.0f;
  quant_ = nn::BuildQuantLstmStack(embedding_.table->value, stack_, head_,
                                   outputs_, hidden_scale_);
  return Status::Ok();
}

}  // namespace sqlfacil::models
