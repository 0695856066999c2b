#ifndef SQLFACIL_MODELS_SERIALIZE_UTIL_H_
#define SQLFACIL_MODELS_SERIALIZE_UTIL_H_

#include <cstdint>
#include <iostream>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "sqlfacil/nn/autograd.h"
#include "sqlfacil/nn/quant.h"
#include "sqlfacil/nn/tensor.h"
#include "sqlfacil/util/status.h"

namespace sqlfacil::models::serialize {

// Binary (de)serialization helpers for trained models. The format is
// native-endian and versioned per model; it is a model checkpoint format,
// not an interchange format.
//
// Hardened readers: every length-prefixed reader bounds the claimed length
// against both a sanity cap and the bytes actually remaining in the stream
// before allocating, so a truncated or bit-flipped checkpoint yields a
// typed Status (kCorruptCheckpoint / kResourceExhausted) instead of a
// multi-GB allocation or garbage weights.

/// Upper bound on the bytes left in `in` from the current read position.
/// Returns UINT64_MAX for non-seekable streams (no bound available).
uint64_t RemainingBytes(std::istream& in);

void WriteU64(std::ostream& out, uint64_t v);
StatusOr<uint64_t> ReadU64(std::istream& in);

void WriteI32(std::ostream& out, int32_t v);
StatusOr<int32_t> ReadI32(std::istream& in);

void WriteF32(std::ostream& out, float v);
StatusOr<float> ReadF32(std::istream& in);

void WriteF64(std::ostream& out, double v);
StatusOr<double> ReadF64(std::istream& in);

void WriteString(std::ostream& out, const std::string& s);
StatusOr<std::string> ReadString(std::istream& in);

void WriteFloats(std::ostream& out, std::span<const float> v);
StatusOr<std::vector<float>> ReadFloats(std::istream& in);

void WriteTensor(std::ostream& out, const nn::Tensor& t);
StatusOr<nn::Tensor> ReadTensor(std::istream& in);

/// Reads a model parameter whose shape the checkpoint header fixes into
/// `*dst`: kCorruptCheckpoint unless it is a (rows x cols) matrix. With
/// `at_least_rows`, any row count >= rows passes (an embedding table must
/// cover its vocabulary). Legacy unframed checkpoints carry no CRC, so this
/// is what stops a damaged header from sizing the inference kernels.
Status ReadParam(std::istream& in, nn::Var* dst, int64_t rows, int64_t cols,
                 bool at_least_rows = false);

/// Quantized weight matrix (nn/quant.h): stores shape, scale, and the packed
/// bytes. col_corr is derived data and recomputed on read; readers validate
/// the byte count against the shape and every byte against the +-63 weight
/// range (the no-saturation invariant of the quad-dot kernel).
void WriteQuantTensor(std::ostream& out, const nn::quant::QuantizedTensor& q);
StatusOr<nn::quant::QuantizedTensor> ReadQuantTensor(std::istream& in);

void WriteStringIntMap(std::ostream& out,
                       const std::unordered_map<std::string, int>& m);
StatusOr<std::unordered_map<std::string, int>> ReadStringIntMap(
    std::istream& in);

/// Writes/checks a section tag; a mismatch on read yields an error.
void WriteTag(std::ostream& out, const std::string& tag);
Status ExpectTag(std::istream& in, const std::string& tag);

}  // namespace sqlfacil::models::serialize

#endif  // SQLFACIL_MODELS_SERIALIZE_UTIL_H_
