#ifndef SQLFACIL_MODELS_CNN_TRUNK_H_
#define SQLFACIL_MODELS_CNN_TRUNK_H_

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "sqlfacil/models/vocab.h"
#include "sqlfacil/nn/arena.h"
#include "sqlfacil/nn/layers.h"
#include "sqlfacil/nn/quant.h"
#include "sqlfacil/util/random.h"
#include "sqlfacil/util/status.h"
#include "sqlfacil/util/thread_pool.h"

namespace sqlfacil::models {

/// The convolutional encoder of the Kim CNN (Section 5.3, Figure 11) that
/// CnnModel and MultiTaskCnnModel put their heads on: a token vocabulary,
/// embeddings, one 1-D convolution per window width, Relu and max-over-time
/// pooling per kernel, concatenated into feature_dim() features. It has one
/// training forward (autograd, dropout on) and one graph-free forward over
/// fixed slices of statements, which also carries the int8 tier.
class CnnTrunk {
 public:
  /// What a model's config or checkpoint header fixes.
  struct Shape {
    sql::Granularity granularity = sql::Granularity::kChar;
    size_t max_len = 0;  ///< Tokens kept per statement.
    int embed_dim = 0;
    int kernels_per_width = 0;
    std::vector<int> widths;
  };

  /// Builds the vocabulary over `statements` (at most `max_vocab` ids) and
  /// draws the embedding, then each width's conv map, from `rng`.
  void Init(Shape shape, const std::vector<std::string>& statements,
            size_t max_vocab, Rng* rng);

  const Shape& shape() const { return shape_; }
  int feature_dim() const {
    return static_cast<int>(shape_.widths.size()) * shape_.kernels_per_width;
  }
  size_t vocab_size() const { return vocab_.size(); }
  /// The embedding table, then each width's conv weight and bias.
  std::vector<nn::Var> Params() const;

  /// Encodes statements, each padded with -1 (a zero embedding row) to the
  /// widest conv window.
  std::vector<std::vector<int>> EncodePadded(
      std::span<const std::string> statements) const;

  /// Training-step forward (autograd) of one padded statement: the pooled
  /// features after inverted dropout at rate `dropout`, masks drawn from
  /// `rng`.
  nn::Var Forward(const std::vector<int>& ids, float dropout, Rng* rng) const;

  /// The graph-free forward of `encoded`, in fixed 32-statement slices on
  /// the thread pool: calls fn(qb, qe, features, arena) with the
  /// (qe - qb) x feature_dim() features of encoded[qb..qe) in the per-thread
  /// arena, which resets after fn returns. Fixed slices bound the arena's
  /// high-water mark and give deterministic work boundaries (each
  /// statement's rows depend only on that statement, so slicing cannot
  /// change any result). `int8` requires quantized().
  template <typename Fn>
  void ForEachSlice(const std::vector<std::vector<int>>& encoded, bool int8,
                    const Fn& fn) const {
    constexpr size_t kSliceQueries = 32;
    const size_t n = encoded.size();
    const size_t num_slices = (n + kSliceQueries - 1) / kSliceQueries;
    ParallelFor(0, num_slices, 1, [&](size_t sb, size_t se) {
      nn::Arena& arena = nn::ThreadLocalArena();
      for (size_t s = sb; s < se; ++s) {
        const size_t qb = s * kSliceQueries;
        const size_t qe = std::min(n, qb + kSliceQueries);
        fn(qb, qe, SliceFeatures(encoded, qb, qe, int8, &arena), &arena);
        arena.Reset();
      }
    });
  }

  /// Builds the int8 tier: the embedding table quantizes to u8 under its
  /// own max-abs range (the conv inputs ARE table rows, so the range is
  /// static) and each width's conv map quantizes per-tensor. Relu and
  /// max-over-time pooling stay fp32.
  void Quantize();
  bool quantized() const { return !quant_.convs.empty(); }
  void DropInt8() { quant_ = Int8Tier{}; }

  /// Writes the widths, the vocabulary, the embedding table and each
  /// width's conv map; the rest of the shape is the model header's.
  void WriteTo(std::ostream& out) const;
  /// Reads WriteTo's bytes under `shape`'s granularity, max_len, embed_dim
  /// and kernels_per_width (the widths are read). Every tensor must have
  /// the shape these imply (kCorruptCheckpoint otherwise); drops the int8
  /// tier.
  Status ReadFrom(std::istream& in, Shape shape);
  /// The int8 tier's trailer: a flag, then the embedding scale and each
  /// quantized conv map. The u8 table is derived and rebuilt on read.
  void WriteInt8(std::ostream& out) const;
  Status ReadInt8(std::istream& in);

 private:
  /// The int8 tier's offline-quantized state (see Quantize()).
  struct Int8Tier {
    float emb_scale = 0.0f;        // u8 scale of the embedding rows
    std::vector<uint8_t> qtable;   // (vocab x d) quantized embedding
    std::vector<nn::quant::QuantizedTensor> convs;  // per width (w*d x K)
  };

  /// The graph-free forward of encoded[qb..qe) up to the pooled features,
  /// a (slice x feature_dim()) row-major block in `arena`. The int8 tier
  /// gathers and unfolds u8 rows and runs quantized conv matmuls; Relu and
  /// max-over-time pooling run fp32 on both tiers.
  const float* SliceFeatures(const std::vector<std::vector<int>>& encoded,
                             size_t qb, size_t qe, bool int8,
                             nn::Arena* arena) const;

  Shape shape_;
  Vocabulary vocab_;
  nn::Embedding embedding_;
  std::vector<nn::Linear> convs_;  // one (width*d x K) map per width
  Int8Tier quant_;
};

}  // namespace sqlfacil::models

#endif  // SQLFACIL_MODELS_CNN_TRUNK_H_
