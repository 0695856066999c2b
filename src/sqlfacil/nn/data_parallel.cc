#include "sqlfacil/nn/data_parallel.h"

#include "sqlfacil/nn/arena.h"
#include "sqlfacil/nn/simd.h"
#include "sqlfacil/util/logging.h"
#include "sqlfacil/util/thread_pool.h"

namespace sqlfacil::nn {

void GradShards::Prepare(const std::vector<Var>& params, size_t max_shards) {
  SQLFACIL_CHECK(max_shards >= 1);
  buffers_.resize(max_shards);
  maps_.resize(max_shards);
  losses_.assign(max_shards, 0.0);
  for (size_t s = 0; s < max_shards; ++s) {
    buffers_[s].clear();
    buffers_[s].reserve(params.size());
    maps_[s].clear();
    maps_[s].reserve(params.size());
    for (const auto& p : params) {
      buffers_[s].emplace_back(p->value.shape());
      maps_[s].emplace_back(p.get(), &buffers_[s].back());
    }
  }
}

void GradShards::Zero(size_t shard) {
  for (auto& t : buffers_[shard]) t.Fill(0.0f);
}

void GradShards::Reduce(const std::vector<Var>& params, size_t used) {
  SQLFACIL_CHECK(used <= buffers_.size());
  if (used == 0) return;
  ParallelFor(0, params.size(), 1, [&](size_t pb, size_t pe) {
    for (size_t p = pb; p < pe; ++p) {
      for (size_t stride = 1; stride < used; stride *= 2) {
        for (size_t i = 0; i + stride < used; i += 2 * stride) {
          simd::AddAcc(buffers_[i][p].data(), buffers_[i + stride][p].data(),
                       buffers_[i][p].size());
        }
      }
      simd::AddAcc(params[p]->EnsureGrad().data(), buffers_[0][p].data(),
                   buffers_[0][p].size());
    }
  });
}

namespace {

/// Chunk grain that yields at most `max_shards` shards over `batch` rows:
/// ceil(batch / max_shards). Shard boundaries then come from NumChunks with
/// this grain — a pure function of (batch, max_shards).
size_t ShardGrain(size_t batch, size_t max_shards) {
  SQLFACIL_CHECK(max_shards >= 1);
  return (batch + max_shards - 1) / max_shards;
}

}  // namespace

double ShardedTrainStep(
    const std::vector<Var>& params, GradShards* shards, size_t batch,
    size_t max_shards,
    const std::function<Var(size_t shard, size_t begin, size_t end)>&
        shard_loss) {
  if (batch == 0) return 0.0;
  const size_t grain = ShardGrain(batch, max_shards);
  const size_t used = NumChunks(0, batch, grain);
  SQLFACIL_CHECK(used <= shards->max_shards());
  // Loss slots indexed by shard (owned by GradShards so every worker sees
  // the same storage): summing them in shard order afterwards keeps the
  // reported loss bit-identical at any thread count.
  ParallelForChunks(0, batch, grain, [&](size_t shard, size_t b, size_t e) {
    shards->Zero(shard);
    TapeScope tape;
    {
      GradRedirectScope redirect(shards->map(shard));
      Var loss = shard_loss(shard, b, e);
      Backward(loss);
      *shards->loss_slot(shard) = static_cast<double>(loss->value.at(0, 0));
    }
    // Fused-op activation slabs die with the step.
    ThreadLocalTrainArena().Reset();
  });
  shards->Reduce(params, used);
  double total = 0.0;
  for (size_t s = 0; s < used; ++s) total += *shards->loss_slot(s);
  return total;
}

}  // namespace sqlfacil::nn
