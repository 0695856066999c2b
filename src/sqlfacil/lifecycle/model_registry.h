#ifndef SQLFACIL_LIFECYCLE_MODEL_REGISTRY_H_
#define SQLFACIL_LIFECYCLE_MODEL_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sqlfacil/models/model.h"
#include "sqlfacil/util/status.h"

namespace sqlfacil::lifecycle {

/// One immutable, generation-numbered model snapshot: (weights, precision
/// tier, generation), the tier being the model's own (Model::Quantize). Once
/// published the model behind it is never mutated: retraining or quantizing
/// produces a *new* snapshot and rollback republishes an *old* one under a
/// fresh generation number.
struct ModelVersion {
  /// Monotonic publish counter (1 = first publish; 0 never appears).
  uint64_t generation = 0;
  /// Generation this version's weights were first published under. Equal
  /// to `generation` for fresh candidates; smaller for rollbacks (the
  /// republished snapshot keeps pointing at the original weights).
  uint64_t source_generation = 0;
  std::shared_ptr<const models::Model> model;
  std::string note;  ///< provenance ("seed", "stream@round3", "rollback", ...)
};

using VersionPtr = std::shared_ptr<const ModelVersion>;

/// Versioned model registry with RCU-style atomic publish (ISSUE 10
/// tentpole, part 1).
///
/// `Current()` copies the live VersionPtr under a dedicated mutex held
/// only for the refcount bump — never while a model trains, publishes or
/// scores, so readers are never blocked behind model work. (A
/// std::atomic<shared_ptr> would make the read lock-free, but libstdc++'s
/// _Sp_atomic guards its raw pointer with a lock bit ThreadSanitizer
/// cannot see through, and a TSan-provable swap path is worth more to
/// this PR than a nanosecond read.) A reader that pins the returned
/// VersionPtr keeps scoring on that snapshot for as long as it holds the
/// pointer, no matter how many publishes happen meanwhile — an in-flight
/// serving batch therefore finishes on the model it started with and the
/// swap can never fail a request. Writers (Publish/Rollback) serialize on
/// a separate mutex and touch `current_` only for the pointer assignment.
///
/// Serving caches need no invalidation hook: serving::ResilientModel pins
/// one version per batch and keys its prediction cache by that version's
/// generation, so entries of a swapped-out generation are simply never
/// looked up again.
///
/// Failpoint `lifecycle.swap` fires at the top of Publish (error mode
/// returns a typed Status, throw mode throws). Either way *no* state has
/// changed when it fires: a failed publish leaves the incumbent fully in
/// place — there is no half-published generation.
class ModelRegistry {
 public:
  /// `history_capacity` bounds how many distinct versions are retained
  /// for rollback (the current version always counts as one of them).
  explicit ModelRegistry(size_t history_capacity = 8);

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// The live version (null until the first Publish). One pointer copy
  /// under `current_mu_`; callers pin the snapshot by holding the returned
  /// shared_ptr.
  VersionPtr Current() const {
    std::lock_guard<std::mutex> lock(current_mu_);
    return current_;
  }

  /// Atomically publishes `model` as the new live version and returns its
  /// generation number. The previous version stays in the history window
  /// (rollback target) and stays alive for as long as any in-flight
  /// reader still pins it. Null models are rejected.
  StatusOr<uint64_t> Publish(std::shared_ptr<const models::Model> model,
                             std::string note);

  /// Republishes the version that was live immediately before the current
  /// one, under a NEW generation number (the generation stream never goes
  /// backwards, so a generation names exactly one publish).
  /// Returns the new generation, or kNotFound when there is no previous
  /// version to return to.
  StatusOr<uint64_t> Rollback(std::string note = "rollback");

  /// Latest published generation (0 before the first publish).
  uint64_t generation() const {
    return generation_counter_.load(std::memory_order_acquire);
  }

  /// Generations currently retained in the rollback window, oldest first.
  std::vector<uint64_t> RetainedGenerations() const;

  uint64_t num_published() const {
    return published_.load(std::memory_order_relaxed);
  }
  uint64_t num_rollbacks() const {
    return rollbacks_.load(std::memory_order_relaxed);
  }

 private:
  StatusOr<uint64_t> PublishLocked(std::shared_ptr<const models::Model> model,
                                   std::string note,
                                   uint64_t source_generation);

  mutable std::mutex publish_mu_;  // serializes writers only
  /// Guards only the `current_` pointer itself (copy on read, assign on
  /// publish) — held for a refcount bump, never across model work.
  mutable std::mutex current_mu_;
  VersionPtr current_;
  std::atomic<uint64_t> generation_counter_{0};
  std::atomic<uint64_t> published_{0};
  std::atomic<uint64_t> rollbacks_{0};
  size_t history_capacity_;
  std::deque<VersionPtr> history_;  // guarded by publish_mu_, newest last
};

}  // namespace sqlfacil::lifecycle

#endif  // SQLFACIL_LIFECYCLE_MODEL_REGISTRY_H_
