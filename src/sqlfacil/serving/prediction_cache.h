#ifndef SQLFACIL_SERVING_PREDICTION_CACHE_H_
#define SQLFACIL_SERVING_PREDICTION_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace sqlfacil::serving {

/// Normalizes a SQL statement for cache keying: strips leading/trailing
/// whitespace and collapses internal whitespace runs to one space. This is
/// semantics-preserving for every model family — the char tokenizer skips
/// all whitespace and the word tokenizer lexes (whitespace-insensitive) —
/// so two statements with the same normal form always predict identically.
/// Case is NOT folded: char-gram models are case-sensitive.
std::string NormalizeStatement(const std::string& statement);

/// Sharded, thread-safe LRU cache for prediction vectors. Keys are opaque
/// strings (ResilientModel composes model generation + precision tier +
/// opt-cost bits + normalized statement); each shard holds
/// capacity/num_shards entries behind its own mutex, so concurrent lookups
/// rarely contend. Nothing is ever invalidated: a key names the model
/// version whose answer it holds, and unused entries age out.
class PredictionCache {
 public:
  /// `capacity` = max cached entries across all shards (floored at one per
  /// shard).
  explicit PredictionCache(size_t capacity, size_t num_shards = 8);

  /// Returns a copy of the cached vector and refreshes its LRU position.
  std::optional<std::vector<float>> Get(const std::string& key);

  /// Inserts (or refreshes) key -> value, evicting the shard's least
  /// recently used entry when over capacity.
  void Put(const std::string& key, std::vector<float> value);

  /// One coherent-enough counter snapshot. Counters are per-shard relaxed
  /// atomics folded on read: increments from concurrent server threads are
  /// race-free without taking the shard locks, and a snapshot taken during
  /// traffic is the sum of per-shard values that are each exact (the
  /// cross-shard sum may straddle in-flight requests, which is fine for
  /// telemetry). hit_rate() is hits / (hits + misses).
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t size = 0;
    double hit_rate() const {
      const uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
  };
  Stats GetStats() const;

  size_t size() const;
  size_t hits() const { return GetStats().hits; }
  size_t misses() const { return GetStats().misses; }

 private:
  struct Entry {
    std::string key;
    std::vector<float> value;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recent
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    // Counters live outside the lock so Stats() never contends with the
    // serving hot path.
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> evictions{0};
  };

  Shard& ShardFor(const std::string& key);

  size_t per_shard_capacity_;
  std::vector<Shard> shards_;
};

}  // namespace sqlfacil::serving

#endif  // SQLFACIL_SERVING_PREDICTION_CACHE_H_
