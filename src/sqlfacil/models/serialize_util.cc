#include "sqlfacil/models/serialize_util.h"

#include <cmath>
#include <limits>

namespace sqlfacil::models::serialize {

namespace {

template <typename T>
void WritePod(std::ostream& out, T v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
StatusOr<T> ReadPod(std::istream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!in.good()) return Status::CorruptCheckpoint("truncated model file");
  return v;
}

/// Validates a length prefix before any allocation happens: it must pass
/// the caller's sanity cap AND fit in the bytes the stream still holds.
/// `elem_size` converts an element count into bytes.
Status BoundLength(std::istream& in, uint64_t count, uint64_t cap,
                   uint64_t elem_size, const char* what) {
  if (count > cap) {
    return Status::ResourceExhausted(std::string("implausible ") + what +
                                     " size in model file");
  }
  const uint64_t remaining = RemainingBytes(in);
  if (remaining != std::numeric_limits<uint64_t>::max() &&
      count * elem_size > remaining) {
    return Status::CorruptCheckpoint(
        std::string(what) + " length exceeds remaining model file bytes");
  }
  return Status::Ok();
}

}  // namespace

uint64_t RemainingBytes(std::istream& in) {
  const std::istream::pos_type pos = in.tellg();
  if (pos == std::istream::pos_type(-1)) {
    return std::numeric_limits<uint64_t>::max();
  }
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(pos);
  if (end == std::istream::pos_type(-1) || end < pos) {
    return std::numeric_limits<uint64_t>::max();
  }
  return static_cast<uint64_t>(end - pos);
}

void WriteU64(std::ostream& out, uint64_t v) { WritePod(out, v); }
StatusOr<uint64_t> ReadU64(std::istream& in) { return ReadPod<uint64_t>(in); }

void WriteI32(std::ostream& out, int32_t v) { WritePod(out, v); }
StatusOr<int32_t> ReadI32(std::istream& in) { return ReadPod<int32_t>(in); }

void WriteF32(std::ostream& out, float v) { WritePod(out, v); }
StatusOr<float> ReadF32(std::istream& in) { return ReadPod<float>(in); }

void WriteF64(std::ostream& out, double v) { WritePod(out, v); }
StatusOr<double> ReadF64(std::istream& in) { return ReadPod<double>(in); }

void WriteString(std::ostream& out, const std::string& s) {
  WriteU64(out, s.size());
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

StatusOr<std::string> ReadString(std::istream& in) {
  auto size = ReadU64(in);
  if (!size.ok()) return size.status();
  if (Status s = BoundLength(in, *size, uint64_t{1} << 32, 1, "string");
      !s.ok()) {
    return s;
  }
  std::string str(*size, '\0');
  in.read(str.data(), static_cast<std::streamsize>(*size));
  if (!in.good() && *size > 0) {
    return Status::CorruptCheckpoint("truncated model file");
  }
  return str;
}

void WriteFloats(std::ostream& out, std::span<const float> v) {
  WriteU64(out, v.size());
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(float)));
}

StatusOr<std::vector<float>> ReadFloats(std::istream& in) {
  auto size = ReadU64(in);
  if (!size.ok()) return size.status();
  if (Status s =
          BoundLength(in, *size, uint64_t{1} << 32, sizeof(float), "array");
      !s.ok()) {
    return s;
  }
  std::vector<float> v(*size);
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(*size * sizeof(float)));
  if (!in.good() && *size > 0) {
    return Status::CorruptCheckpoint("truncated model file");
  }
  return v;
}

void WriteTensor(std::ostream& out, const nn::Tensor& t) {
  WriteU64(out, t.shape().size());
  for (int d : t.shape()) WriteI32(out, d);
  out.write(reinterpret_cast<const char*>(t.data()),
            static_cast<std::streamsize>(t.size() * sizeof(float)));
}

StatusOr<nn::Tensor> ReadTensor(std::istream& in) {
  auto rank = ReadU64(in);
  if (!rank.ok()) return rank.status();
  if (*rank > 8) {
    return Status::ResourceExhausted("implausible tensor rank");
  }
  std::vector<int> shape;
  uint64_t elems = 1;
  for (uint64_t i = 0; i < *rank; ++i) {
    auto d = ReadI32(in);
    if (!d.ok()) return d.status();
    if (*d < 0 || *d > (1 << 28)) {
      return Status::ResourceExhausted("implausible tensor dim");
    }
    shape.push_back(*d);
    elems *= static_cast<uint64_t>(*d);
    // Checked per-dim so the running product can never overflow u64
    // (elems <= 2^32 here, each dim <= 2^28).
    if (elems > (uint64_t{1} << 32)) {
      return Status::ResourceExhausted("implausible tensor element count");
    }
  }
  if (Status s =
          BoundLength(in, elems, uint64_t{1} << 32, sizeof(float), "tensor");
      !s.ok()) {
    return s;
  }
  nn::Tensor t(shape);
  in.read(reinterpret_cast<char*>(t.data()),
          static_cast<std::streamsize>(t.size() * sizeof(float)));
  if (!in.good() && t.size() > 0) {
    return Status::CorruptCheckpoint("truncated model file");
  }
  return t;
}

Status ReadParam(std::istream& in, nn::Var* dst, int64_t rows, int64_t cols,
                 bool at_least_rows) {
  auto t = ReadTensor(in);
  if (!t.ok()) return t.status();
  const auto& shape = t->shape();
  if (shape.size() != 2 || shape[1] != cols ||
      (at_least_rows ? shape[0] < rows : shape[0] != rows)) {
    return Status::CorruptCheckpoint("tensor shape does not match the header");
  }
  *dst = nn::MakeParam(std::move(t).value());
  return Status::Ok();
}

void WriteQuantTensor(std::ostream& out,
                      const nn::quant::QuantizedTensor& q) {
  WriteI32(out, q.k);
  WriteI32(out, q.n);
  WriteF32(out, q.scale);
  WriteString(out, std::string(reinterpret_cast<const char*>(q.packed.data()),
                               q.packed.size()));
}

StatusOr<nn::quant::QuantizedTensor> ReadQuantTensor(std::istream& in) {
  nn::quant::QuantizedTensor q;
  auto k = ReadI32(in);
  if (!k.ok()) return k.status();
  auto n = ReadI32(in);
  if (!n.ok()) return n.status();
  if (*k <= 0 || *k > (1 << 24) || *n <= 0 || *n > (1 << 24)) {
    return Status::ResourceExhausted("implausible quantized tensor shape");
  }
  q.k = *k;
  q.n = *n;
  q.k4 = (q.k + 3) / 4;
  q.n_pad = (q.n + 7) / 8 * 8;
  auto scale = ReadF32(in);
  if (!scale.ok()) return scale.status();
  if (!std::isfinite(*scale) || *scale <= 0.0f) {
    return Status::CorruptCheckpoint("bad quantized tensor scale");
  }
  q.scale = *scale;
  auto bytes = ReadString(in);
  if (!bytes.ok()) return bytes.status();
  const size_t expect = static_cast<size_t>(q.k4) * q.n_pad * 4;
  if (bytes->size() != expect) {
    return Status::CorruptCheckpoint("quantized tensor byte count mismatch");
  }
  q.packed.resize(expect);
  for (size_t i = 0; i < expect; ++i) {
    const int8_t v = static_cast<int8_t>((*bytes)[i]);
    if (v < -nn::quant::kWeightQmax || v > nn::quant::kWeightQmax) {
      return Status::CorruptCheckpoint(
          "quantized weight outside the +-63 range");
    }
    q.packed[i] = v;
  }
  nn::quant::ComputeColCorr(&q);
  return q;
}

void WriteStringIntMap(std::ostream& out,
                       const std::unordered_map<std::string, int>& m) {
  WriteU64(out, m.size());
  for (const auto& [key, value] : m) {
    WriteString(out, key);
    WriteI32(out, value);
  }
}

StatusOr<std::unordered_map<std::string, int>> ReadStringIntMap(
    std::istream& in) {
  auto size = ReadU64(in);
  if (!size.ok()) return size.status();
  // Each entry needs at least a u64 length prefix plus an i32 value.
  if (Status s = BoundLength(in, *size, uint64_t{1} << 28,
                             sizeof(uint64_t) + sizeof(int32_t), "map");
      !s.ok()) {
    return s;
  }
  std::unordered_map<std::string, int> m;
  m.reserve(*size);
  for (uint64_t i = 0; i < *size; ++i) {
    auto key = ReadString(in);
    if (!key.ok()) return key.status();
    auto value = ReadI32(in);
    if (!value.ok()) return value.status();
    m.emplace(std::move(key).value(), *value);
  }
  return m;
}

void WriteTag(std::ostream& out, const std::string& tag) {
  WriteString(out, tag);
}

Status ExpectTag(std::istream& in, const std::string& tag) {
  auto read = ReadString(in);
  if (!read.ok()) return read.status();
  if (*read != tag) {
    return Status::CorruptCheckpoint("model file tag mismatch: expected '" +
                                     tag + "', found '" + *read + "'");
  }
  return Status::Ok();
}

}  // namespace sqlfacil::models::serialize
