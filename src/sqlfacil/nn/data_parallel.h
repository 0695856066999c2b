#ifndef SQLFACIL_NN_DATA_PARALLEL_H_
#define SQLFACIL_NN_DATA_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "sqlfacil/nn/autograd.h"

namespace sqlfacil::nn {

/// Per-shard gradient buffers for deterministic data-parallel training.
///
/// A minibatch splits into microbatch shards whose boundaries depend only on
/// (batch size, shard cap) — never on SQLFACIL_THREADS — so the same shards
/// form at any thread count. Each shard's backward accumulates into its own
/// buffer set (installed via GradRedirectScope, so shared parameters are
/// never written concurrently), and Reduce() folds the buffers into the
/// parameter gradients with a fixed-order pairwise tree. Final weights are
/// therefore bit-identical for any threads x SIMD combination.
///
/// Buffers are sized once in Prepare() and reused every step: steady-state
/// training performs no gradient-buffer allocation.
class GradShards {
 public:
  GradShards() = default;
  GradShards(const GradShards&) = delete;
  GradShards& operator=(const GradShards&) = delete;

  /// Sizes buffers for up to `max_shards` shards over `params`. Call once
  /// per Fit (parameter shapes must not change afterwards).
  void Prepare(const std::vector<Var>& params, size_t max_shards);

  size_t max_shards() const { return buffers_.size(); }

  /// The redirect map for one shard (leaf parameter -> shard buffer).
  const GradRedirectScope::Map* map(size_t shard) const {
    return &maps_[shard];
  }

  /// Zeroes one shard's buffers (run by the shard worker before backward).
  void Zero(size_t shard);

  /// Folds shards [0, used) into the parameters' gradients (adding, on top
  /// of whatever the grads already hold). Pairwise tree in fixed shard
  /// order: stride 1 adds shard s+1 into s for even s, then stride 2, ... —
  /// an order independent of thread count. Parallelizes over parameters
  /// (each parameter's tree is independent and internally sequential).
  void Reduce(const std::vector<Var>& params, size_t used);

  /// Per-shard loss slots (written by shard workers, summed in shard order
  /// by ShardedTrainStep).
  double* loss_slot(size_t shard) { return &losses_[shard]; }

 private:
  std::vector<std::vector<Tensor>> buffers_;  // [shard][param]
  std::vector<GradRedirectScope::Map> maps_;
  std::vector<double> losses_;
};

/// One data-parallel training step over a minibatch of `batch` examples.
///
/// Splits [0, batch) into at most `max_shards` microbatch shards and runs
/// `shard_loss(shard, begin, end)` for each on the thread pool, inside a
/// fresh TapeScope and with gradients redirected into `shards`. The
/// callback builds the shard's forward graph and returns a scalar loss Var
/// normalized so that the full-batch loss is the SUM over shards (i.e.
/// scale a per-shard mean by shard_size / batch). The step runs Backward,
/// resets the thread-local training arena, reduces the shard gradients in
/// fixed tree order, and returns the summed loss (shard order, so the value
/// is thread-count independent too).
///
/// `params` must contain every trainable parameter reachable from the
/// shard graphs (the redirect map covers exactly these).
double ShardedTrainStep(
    const std::vector<Var>& params, GradShards* shards, size_t batch,
    size_t max_shards,
    const std::function<Var(size_t shard, size_t begin, size_t end)>&
        shard_loss);

}  // namespace sqlfacil::nn

#endif  // SQLFACIL_NN_DATA_PARALLEL_H_
