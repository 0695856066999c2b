#include "sqlfacil/serving/prediction_cache.h"

#include <algorithm>
#include <cctype>
#include <functional>

#include "sqlfacil/util/failpoint.h"

namespace sqlfacil::serving {

std::string NormalizeStatement(const std::string& statement) {
  std::string out;
  out.reserve(statement.size());
  bool pending_space = false;
  for (char c : statement) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) {
      out.push_back(' ');
      pending_space = false;
    }
    out.push_back(c);
  }
  return out;
}

PredictionCache::PredictionCache(size_t capacity, size_t num_shards)
    : shards_(std::max<size_t>(1, num_shards)) {
  per_shard_capacity_ = std::max<size_t>(1, capacity / shards_.size());
}

PredictionCache::Shard& PredictionCache::ShardFor(const std::string& key) {
  return shards_[std::hash<std::string>{}(key) % shards_.size()];
}

std::optional<std::vector<float>> PredictionCache::Get(
    const std::string& key) {
  // Failpoint "cache.get": kError degrades the lookup to a miss (the
  // caller recomputes — results stay correct), kThrow simulates a broken
  // cache backend, kDelay has already slept.
  switch (failpoint::Eval("cache.get")) {
    case failpoint::Mode::kError:
      return std::nullopt;
    case failpoint::Mode::kThrow:
      throw failpoint::FailpointError("cache.get");
    default:
      break;
  }
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  shard.hits.fetch_add(1, std::memory_order_relaxed);
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->value;
}

void PredictionCache::Put(const std::string& key, std::vector<float> value) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->value = std::move(value);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(Entry{key, std::move(value)});
  shard.index.emplace(key, shard.lru.begin());
  if (shard.index.size() > per_shard_capacity_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    shard.evictions.fetch_add(1, std::memory_order_relaxed);
  }
}

size_t PredictionCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.index.size();
  }
  return total;
}

PredictionCache::Stats PredictionCache::GetStats() const {
  Stats stats;
  for (const Shard& shard : shards_) {
    stats.hits += shard.hits.load(std::memory_order_relaxed);
    stats.misses += shard.misses.load(std::memory_order_relaxed);
    stats.evictions += shard.evictions.load(std::memory_order_relaxed);
  }
  stats.size = size();
  return stats;
}

}  // namespace sqlfacil::serving
