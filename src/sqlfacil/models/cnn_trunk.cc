#include "sqlfacil/models/cnn_trunk.h"

#include <cmath>

#include "sqlfacil/models/serialize_util.h"
#include "sqlfacil/nn/infer.h"
#include "sqlfacil/nn/simd.h"

namespace sqlfacil::models {

void CnnTrunk::Init(Shape shape, const std::vector<std::string>& statements,
                    size_t max_vocab, Rng* rng) {
  shape_ = std::move(shape);
  vocab_ = Vocabulary::Build(statements, shape_.granularity, max_vocab);
  embedding_ = nn::Embedding(static_cast<int>(vocab_.size()),
                             shape_.embed_dim, rng);
  convs_.clear();
  for (int width : shape_.widths) {
    convs_.emplace_back(width * shape_.embed_dim, shape_.kernels_per_width,
                        rng);
  }
}

std::vector<nn::Var> CnnTrunk::Params() const {
  std::vector<nn::Var> params = embedding_.Params();
  for (const auto& conv : convs_) {
    for (const auto& p : conv.Params()) params.push_back(p);
  }
  return params;
}

std::vector<std::vector<int>> CnnTrunk::EncodePadded(
    std::span<const std::string> statements) const {
  auto encoded = vocab_.EncodeAll(statements, shape_.max_len);
  // Pad to the largest window so every conv has at least one position.
  size_t max_width = 0;
  for (int w : shape_.widths) {
    max_width = std::max(max_width, static_cast<size_t>(w));
  }
  for (auto& ids : encoded) {
    if (ids.size() < max_width) ids.resize(max_width, -1);
  }
  return encoded;
}

nn::Var CnnTrunk::Forward(const std::vector<int>& ids, float dropout,
                          Rng* rng) const {
  nn::Var emb = embedding_.Lookup(ids);
  std::vector<nn::Var> pooled;
  pooled.reserve(shape_.widths.size());
  for (size_t w = 0; w < shape_.widths.size(); ++w) {
    nn::Var windows = nn::Unfold(emb, shape_.widths[w]);
    nn::Var activations = nn::Relu(convs_[w].Apply(windows));
    pooled.push_back(nn::MaxOverTime(activations));
  }
  return nn::Dropout(nn::ConcatCols(pooled), dropout, rng);
}

const float* CnnTrunk::SliceFeatures(
    const std::vector<std::vector<int>>& encoded, size_t qb, size_t qe,
    bool int8, nn::Arena* arena) const {
  const int slice = static_cast<int>(qe - qb);
  const int d = shape_.embed_dim;
  const int kernels = shape_.kernels_per_width;
  const int feat_dim = feature_dim();
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
  for (size_t w = 0; w < shape_.widths.size(); ++w) {
    const int width = shape_.widths[w];
    size_t total_rows = 0;
    for (size_t q = qb; q < qe; ++q) {
      total_rows += encoded[q].size() - width + 1;
    }
    // Stack all queries' unfold windows into one tall matrix so the
    // convolution is a single matmul for the whole slice: fp32, or u8
    // windows through the quantized conv (dequantized against the fp32
    // conv bias).
    float* conv_out = nullptr;
    if (int8) {
      const auto& W = quant_.convs[w];
      const int stride = 4 * W.k4;
      conv_out = arena->Alloc(total_rows * kernels);
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
      conv_out =
          convs_[w].Apply(windows, static_cast<int>(total_rows), arena);
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
  return features;
}

void CnnTrunk::Quantize() {
  Int8Tier q;
  const auto& table = embedding_.table->value;
  nn::quant::Calibration cal;
  cal.Observe(table.data(), table.size());
  q.emb_scale = cal.scale();
  q.qtable.resize(table.size());
  nn::quant::QuantizeActivations(table.data(), table.size(),
                                 1.0f / q.emb_scale, q.qtable.data());
  for (size_t w = 0; w < shape_.widths.size(); ++w) {
    q.convs.push_back(nn::quant::QuantizeWeights(
        convs_[w].weight->value.data(), shape_.widths[w] * shape_.embed_dim,
        shape_.kernels_per_width));
  }
  quant_ = std::move(q);
}

void CnnTrunk::WriteTo(std::ostream& out) const {
  serialize::WriteU64(out, shape_.widths.size());
  for (int w : shape_.widths) serialize::WriteI32(out, w);
  vocab_.SaveTo(out);
  serialize::WriteTensor(out, embedding_.table->value);
  for (const auto& conv : convs_) {
    serialize::WriteTensor(out, conv.weight->value);
    serialize::WriteTensor(out, conv.bias->value);
  }
}

Status CnnTrunk::ReadFrom(std::istream& in, Shape shape) {
  quant_ = Int8Tier{};
  if (shape.embed_dim < 1 || shape.kernels_per_width < 1) {
    return Status::CorruptCheckpoint("implausible conv trunk shape");
  }
  auto num_widths = serialize::ReadU64(in);
  if (!num_widths.ok()) return num_widths.status();
  if (*num_widths == 0 || *num_widths > 16) {
    return Status::CorruptCheckpoint("implausible width count");
  }
  shape.widths.clear();
  for (uint64_t i = 0; i < *num_widths; ++i) {
    auto w = serialize::ReadI32(in);
    if (!w.ok()) return w.status();
    if (*w < 1) return Status::CorruptCheckpoint("implausible conv width");
    shape.widths.push_back(*w);
  }
  shape_ = std::move(shape);
  auto vocab = Vocabulary::LoadFrom(in);
  if (!vocab.ok()) return vocab.status();
  vocab_ = std::move(vocab).value();

  // Every tensor must have the shape the header implies (see ReadParam).
  const int d = shape_.embed_dim;
  const int kernels = shape_.kernels_per_width;
  if (Status s = serialize::ReadParam(in, &embedding_.table, vocab_.size(), d,
                                      /*at_least_rows=*/true);
      !s.ok()) {
    return s;
  }
  convs_.assign(shape_.widths.size(), nn::Linear());
  for (size_t w = 0; w < convs_.size(); ++w) {
    const int64_t window = int64_t{shape_.widths[w]} * d;
    if (Status s = serialize::ReadParam(in, &convs_[w].weight, window, kernels);
        !s.ok()) {
      return s;
    }
    if (Status s = serialize::ReadParam(in, &convs_[w].bias, 1, kernels);
        !s.ok()) {
      return s;
    }
  }
  return Status::Ok();
}

void CnnTrunk::WriteInt8(std::ostream& out) const {
  serialize::WriteI32(out, quantized() ? 1 : 0);
  if (!quantized()) return;
  serialize::WriteF32(out, quant_.emb_scale);
  for (const auto& w : quant_.convs) serialize::WriteQuantTensor(out, w);
}

Status CnnTrunk::ReadInt8(std::istream& in) {
  quant_ = Int8Tier{};
  auto qflag = serialize::ReadI32(in);
  if (!qflag.ok()) return qflag.status();
  if (*qflag == 0) return Status::Ok();
  if (*qflag != 1) {
    return Status::CorruptCheckpoint("bad quantization flag");
  }
  Int8Tier q;
  auto es = serialize::ReadF32(in);
  if (!es.ok()) return es.status();
  if (!std::isfinite(*es) || *es <= 0.0f) {
    return Status::CorruptCheckpoint("bad embedding scale");
  }
  q.emb_scale = *es;
  for (size_t w = 0; w < shape_.widths.size(); ++w) {
    auto t = serialize::ReadQuantTensor(in);
    if (!t.ok()) return t.status();
    if (t->k != shape_.widths[w] * shape_.embed_dim ||
        t->n != shape_.kernels_per_width) {
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

}  // namespace sqlfacil::models
