#include "sqlfacil/lifecycle/model_registry.h"

#include <utility>

#include "sqlfacil/util/failpoint.h"

namespace sqlfacil::lifecycle {

ModelRegistry::ModelRegistry(size_t history_capacity)
    : history_capacity_(history_capacity < 2 ? 2 : history_capacity) {}

StatusOr<uint64_t> ModelRegistry::PublishLocked(
    std::shared_ptr<const models::Model> model, std::string note,
    uint64_t source_generation) {
  // The swap failpoint fires before ANY state change: a failed publish is
  // indistinguishable from one that never happened (no half-published
  // generation, the incumbent keeps serving).
  switch (failpoint::Eval("lifecycle.swap")) {
    case failpoint::Mode::kError:
      return Status::IoError("injected lifecycle.swap failure");
    case failpoint::Mode::kThrow:
      throw failpoint::FailpointError("lifecycle.swap");
    default:
      break;
  }
  auto version = std::make_shared<ModelVersion>();
  version->generation =
      generation_counter_.load(std::memory_order_relaxed) + 1;
  version->source_generation =
      source_generation == 0 ? version->generation : source_generation;
  version->model = std::move(model);
  version->note = std::move(note);
  history_.push_back(version);
  while (history_.size() > history_capacity_) history_.pop_front();
  {
    std::lock_guard<std::mutex> lock(current_mu_);
    current_ = version;
  }
  generation_counter_.store(version->generation, std::memory_order_release);
  published_.fetch_add(1, std::memory_order_relaxed);
  return version->generation;
}

StatusOr<uint64_t> ModelRegistry::Publish(
    std::shared_ptr<const models::Model> model, std::string note) {
  if (model == nullptr) {
    return Status::InvalidArgument("cannot publish a null model");
  }
  std::lock_guard<std::mutex> lock(publish_mu_);
  return PublishLocked(std::move(model), std::move(note), 0);
}

StatusOr<uint64_t> ModelRegistry::Rollback(std::string note) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  if (history_.size() < 2) {
    return Status::NotFound("no previous generation to roll back to");
  }
  // The entry before the live one, skipping versions that share the live
  // version's weights (a rollback-of-a-rollback must step further back,
  // not republish the same snapshot forever).
  const VersionPtr live = history_.back();
  const ModelVersion* target = nullptr;
  for (auto it = history_.rbegin() + 1; it != history_.rend(); ++it) {
    if ((*it)->source_generation != live->source_generation) {
      target = it->get();
      break;
    }
  }
  if (target == nullptr) {
    return Status::NotFound("no distinct previous generation to roll back to");
  }
  auto result = PublishLocked(
      target->model,
      note + " (restores gen " + std::to_string(target->source_generation) +
          ")",
      target->source_generation);
  if (result.ok()) rollbacks_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

std::vector<uint64_t> ModelRegistry::RetainedGenerations() const {
  std::lock_guard<std::mutex> lock(publish_mu_);
  std::vector<uint64_t> out;
  out.reserve(history_.size());
  for (const VersionPtr& v : history_) out.push_back(v->generation);
  return out;
}

}  // namespace sqlfacil::lifecycle
