// Chaos driver for the model lifecycle (ISSUE 10): a swap storm under
// paced serving load, with injected-regression rounds proving the
// auto-rollback path and a drift leg proving the detect -> retrain ->
// shadow-gate loop end to end.
//
// Per run it:
//   1. trains an incumbent on an SDSS/SQLShare-style session trace and
//      publishes it into a lifecycle::ModelRegistry;
//   2. stands up serving::Server whose shards serve the registry (each
//      batch pins one published version and keys its prediction cache by
//      that version's generation) and hammers it from paced closed-loop
//      clients;
//   3. drives >= --swaps hot swaps through the SwapController state
//      machine (shadow -> gate -> promote -> watch) while the load runs,
//      tolerating SQLFACIL_FAILPOINTS="lifecycle.swap:error@nN" storms
//      (a failed publish leaves the incumbent serving; the round retries);
//   4. every --inject-every rounds force-promotes a prediction-flipping
//      wrapper of the incumbent and proves the watch window rolls it back,
//      and submits the same broken model through the shadow gate to prove
//      the gate rejects it;
//   5. optionally (--drift, default on) replays a schema-shifted trace
//      into the DriftDetector, retrains on the shifted window via
//      StreamTrainer, and submits the retrained candidate to the gate.
//
// The load clients poll Server::PollDrain(), so SIGTERM drains the run
// cleanly; Quiesce() proves no swap is mid-flight at shutdown.
//
// Greppable verdict: LIFECYCLE_BENCH_OK (exit 0) iff the swap target was
// reached with zero failed requests, every injected regression rolled
// back, and the gate rejected the known-bad candidate.

#include <cinttypes>
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sqlfacil/lifecycle/drift_detector.h"
#include "sqlfacil/lifecycle/model_registry.h"
#include "sqlfacil/lifecycle/stream_trainer.h"
#include "sqlfacil/lifecycle/swap_controller.h"
#include "sqlfacil/models/baselines.h"
#include "sqlfacil/models/dataset.h"
#include "sqlfacil/models/model.h"
#include "sqlfacil/models/tfidf_model.h"
#include "sqlfacil/serving/loadgen.h"
#include "sqlfacil/serving/resilient_model.h"
#include "sqlfacil/serving/server.h"
#include "sqlfacil/util/drain.h"
#include "sqlfacil/util/failpoint.h"
#include "sqlfacil/util/random.h"

namespace {

using sqlfacil::Rng;
using sqlfacil::lifecycle::DriftDetector;
using sqlfacil::lifecycle::ModelRegistry;
using sqlfacil::lifecycle::StreamTrainer;
using sqlfacil::lifecycle::SwapController;
using sqlfacil::models::Dataset;
using sqlfacil::models::TaskKind;
using sqlfacil::serving::BuildSessionTrace;
using sqlfacil::serving::Server;
using sqlfacil::serving::ServerOptions;

struct Args {
  uint64_t swaps = 60;        // successful hot swaps to reach
  uint64_t seed = 1;
  size_t clients = 2;
  double qps = 400.0;         // total paced offered load
  size_t trace_len = 512;
  int inject_every = 10;      // force a regression every N rounds (0 = off)
  bool drift = true;
  int shadow_window = 16;     // overridden by SQLFACIL_SHADOW_WINDOW
};

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--swaps N] [--seed N] [--clients N] [--qps Q]\n"
               "          [--trace-len N] [--inject-every N] [--no-drift]\n",
               argv0);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--swaps" && (v = next())) {
      args->swaps = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seed" && (v = next())) {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--clients" && (v = next())) {
      args->clients = static_cast<size_t>(std::atoi(v));
    } else if (flag == "--qps" && (v = next())) {
      args->qps = std::atof(v);
    } else if (flag == "--trace-len" && (v = next())) {
      args->trace_len = static_cast<size_t>(std::atoi(v));
    } else if (flag == "--inject-every" && (v = next())) {
      args->inject_every = std::atoi(v);
    } else if (flag == "--no-drift") {
      args->drift = false;
    } else {
      Usage(argv[0]);
      return false;
    }
  }
  return true;
}

// Prediction-flipping wrapper: the known-bad candidate. Serves the wrapped
// model's probabilities rotated by one class, so its argmax is wrong on
// every sample the inner model gets right.
class FlipModel : public sqlfacil::models::Model {
 public:
  explicit FlipModel(std::shared_ptr<const sqlfacil::models::Model> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return "flipped_" + inner_->name(); }
  void Fit(const Dataset&, const Dataset&, Rng*) override {}
  std::vector<float> Predict(const std::string& statement,
                             double opt_cost) const override {
    std::vector<float> probs = inner_->Predict(statement, opt_cost);
    if (!probs.empty()) {
      std::rotate(probs.begin(), probs.begin() + 1, probs.end());
    }
    return probs;
  }

 private:
  std::shared_ptr<const sqlfacil::models::Model> inner_;
};

Dataset TraceDataset(const std::vector<std::string>& statements,
                     const std::vector<int>& labels, int num_classes) {
  Dataset data;
  data.kind = TaskKind::kClassification;
  data.num_classes = num_classes;
  data.statements = statements;
  data.labels = labels;
  data.opt_costs.assign(statements.size(), 0.0);
  return data;
}

std::shared_ptr<const sqlfacil::models::Model> TrainIncumbent(
    const Dataset& full, uint64_t seed) {
  Dataset train, valid;
  train.kind = valid.kind = TaskKind::kClassification;
  train.num_classes = valid.num_classes = full.num_classes;
  for (size_t i = 0; i < full.statements.size(); ++i) {
    Dataset* side = (i % 5 == 4) ? &valid : &train;
    side->statements.push_back(full.statements[i]);
    side->labels.push_back(full.labels[i]);
    side->opt_costs.push_back(0.0);
  }
  sqlfacil::models::TfidfModel::Config cfg;
  cfg.epochs = 3;
  cfg.max_features = 8192;
  auto model = std::make_shared<sqlfacil::models::TfidfModel>(cfg);
  Rng rng(seed);
  model->Fit(train, valid, &rng);
  return model;
}

struct ChaosCounters {
  uint64_t swaps = 0;         // successful promotions (gate or forced)
  uint64_t attempts = 0;
  uint64_t gate_rejections = 0;
  uint64_t injected = 0;
  uint64_t rollbacks_observed = 0;
  uint64_t rollback_misses = 0;  // injected regressions that never rolled back
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  sqlfacil::failpoint::ConfigureFromEnv();
  sqlfacil::train::InstallSignalDrain();

  constexpr int kNumClasses = 7;  // workload::SessionClass arity

  // --- Incumbent + registry + serving stack --------------------------------
  std::vector<int> labels;
  const std::vector<std::string> trace =
      BuildSessionTrace(args.trace_len, 0.185, args.seed, 0, &labels);
  const Dataset trace_ds = TraceDataset(trace, labels, kNumClasses);
  auto incumbent = TrainIncumbent(trace_ds, args.seed);

  ModelRegistry registry(8);
  {
    // The seed publish must land even under a lifecycle.swap storm.
    for (int i = 0; i < 64; ++i) {
      if (registry.Publish(incumbent, "seed").ok()) break;
    }
    if (registry.Current() == nullptr) {
      std::fprintf(stderr, "seed publish never landed\n");
      return 1;
    }
  }

  ServerOptions options;
  options.num_shards = 2;
  options.queue_depth = 4096;
  options.batch_window_us = 100;
  Server server(
      [&](size_t) {
        Rng rng(args.seed + 17);
        auto baseline = std::make_unique<sqlfacil::models::MfreqModel>();
        baseline->Fit(trace_ds, trace_ds, &rng);
        return std::make_unique<sqlfacil::serving::ResilientModel>(
            &registry, std::move(baseline));
      },
      options);

  SwapController::Options copt = SwapController::Options::FromEnv();
  if (copt.mode == SwapController::Mode::kOff) {
    copt.mode = SwapController::Mode::kAuto;  // the bench exists to chaos this
  }
  if (copt.shadow_window <= 0) copt.shadow_window = args.shadow_window;
  SwapController controller(&registry, copt);

  // --- Paced closed-loop load ----------------------------------------------
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> issued{0};
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> failed{0};
  const double per_client_interval_s =
      args.qps > 0.0 ? static_cast<double>(args.clients) / args.qps : 0.0;
  std::vector<std::thread> clients;
  clients.reserve(args.clients);
  for (size_t c = 0; c < args.clients; ++c) {
    clients.emplace_back([&, c] {
      size_t i = c * 31;
      while (!stop.load(std::memory_order_acquire)) {
        if (server.PollDrain()) break;  // SIGTERM: stop issuing, drain
        const std::string& stmt = trace[i++ % trace.size()];
        issued.fetch_add(1, std::memory_order_relaxed);
        sqlfacil::serving::ServerReply reply = server.Call(stmt, 0.0);
        if (reply.status.ok() && !reply.prediction.empty()) {
          ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
        if (per_client_interval_s > 0.0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(per_client_interval_s));
        }
      }
    });
  }

  // --- Swap storm through the full state machine ---------------------------
  ChaosCounters chaos;
  size_t li = args.seed % trace.size();  // labeled feed cursor
  auto feed_until = [&](int max_samples) -> SwapController::Event {
    SwapController::Event last = SwapController::Event::kNone;
    for (int i = 0; i < max_samples; ++i) {
      const size_t idx = li++ % trace.size();
      const SwapController::Event e =
          controller.Observe(trace[idx], 0.0, labels[idx]);
      if (e != SwapController::Event::kNone) {
        last = e;
        if (e != SwapController::Event::kPromoted) break;
      }
    }
    return last;
  };

  const uint64_t max_attempts = args.swaps * 20 + 64;
  const int round_cap = (copt.shadow_window + copt.watch_window + 4) * 64;
  while (chaos.swaps < args.swaps && chaos.attempts < max_attempts &&
         !sqlfacil::train::DrainRequested()) {
    ++chaos.attempts;
    const bool inject = args.inject_every > 0 &&
                        chaos.attempts % static_cast<uint64_t>(
                                             args.inject_every) == 0;
    if (inject) {
      // Known-bad candidate through the gate first: must be rejected.
      auto flipped = std::make_shared<FlipModel>(incumbent);
      if (controller.SubmitCandidate(flipped, "known-bad").ok()) {
        const SwapController::Event e = feed_until(round_cap);
        if (e == SwapController::Event::kRejected) ++chaos.gate_rejections;
      }
      // Then force it live (bypassing the gate) and demand a rollback.
      if (!controller.ForcePromote(flipped, "injected regression").ok()) {
        continue;  // lifecycle.swap failpoint ate the publish; retry round
      }
      ++chaos.injected;
      ++chaos.swaps;
      SwapController::Event e = SwapController::Event::kNone;
      for (int i = 0; i < round_cap; ++i) {
        const size_t idx = li++ % trace.size();
        e = controller.Observe(trace[idx], 0.0, labels[idx]);
        if (e == SwapController::Event::kRolledBack) break;
      }
      if (e == SwapController::Event::kRolledBack) {
        ++chaos.rollbacks_observed;
      } else {
        ++chaos.rollback_misses;
      }
      continue;
    }
    // Ordinary round: re-promote the incumbent weights through the shadow
    // gate (identical accuracy -> deterministic pass). A lifecycle.swap
    // failpoint can still fail the publish at the gate; that surfaces as
    // kRejected with publish_failures++ and the round retries.
    if (!controller
             .SubmitCandidate(incumbent,
                              "storm#" + std::to_string(chaos.attempts))
             .ok()) {
      controller.Quiesce();
      continue;
    }
    SwapController::Event e = feed_until(round_cap);
    if (e == SwapController::Event::kPromoted ||
        e == SwapController::Event::kWatchPassed) {
      ++chaos.swaps;
      // Drain the watch window so the next round starts from kIdle.
      while (controller.state() != SwapController::State::kIdle) {
        if (feed_until(round_cap) == SwapController::Event::kNone) break;
      }
    }
  }

  // --- Drift leg: detect -> retrain -> gate --------------------------------
  bool drift_alarm = false;
  uint64_t stream_rounds = 0;
  const char* drift_event = "skipped";
  if (args.drift && !sqlfacil::train::DrainRequested()) {
    DriftDetector detector(DriftDetector::Options{});
    std::vector<int> shifted_labels;
    const auto shifted = BuildSessionTrace(1024, 0.185, args.seed + 7,
                                           /*schema_epoch=*/2,
                                           &shifted_labels);
    // Stationary reference from the live trace, then the shifted stream.
    for (size_t i = 0; i < trace.size(); ++i) {
      detector.Observe(trace[i % trace.size()], labels[i % trace.size()]);
    }
    StreamTrainer::Options sopt;
    sopt.window_capacity = 1024;
    sopt.min_batch = 256;
    sopt.num_classes = kNumClasses;
    StreamTrainer trainer(sopt, [](const sqlfacil::models::SnapshotOptions&
                                       snap) {
      sqlfacil::models::TfidfModel::Config cfg;
      cfg.epochs = 3;
      cfg.max_features = 8192;
      cfg.snapshot = snap;
      return std::make_unique<sqlfacil::models::TfidfModel>(cfg);
    });
    for (size_t i = 0; i < shifted.size(); ++i) {
      drift_alarm |= detector.Observe(shifted[i], shifted_labels[i]);
      trainer.Ingest(shifted[i], shifted_labels[i]);
    }
    if (drift_alarm && trainer.ReadyToTrain()) {
      Rng rng(args.seed + 29);
      auto candidate = trainer.TrainRound(&rng);
      if (candidate.ok()) {
        stream_rounds = trainer.GetStats().rounds;
        detector.RefreezeReference();
        if (controller.SubmitCandidate(*candidate, "drift retrain").ok()) {
          // Gate the retrained candidate on the SHIFTED live stream.
          SwapController::Event e = SwapController::Event::kNone;
          for (size_t i = 0; i < shifted.size(); ++i) {
            e = controller.Observe(shifted[i], 0.0, shifted_labels[i]);
            if (e != SwapController::Event::kNone &&
                e != SwapController::Event::kWatchPassed) {
              drift_event = ToString(e);
              if (e != SwapController::Event::kPromoted) break;
            }
            if (e == SwapController::Event::kWatchPassed) {
              drift_event = ToString(e);
              break;
            }
          }
        }
      }
    }
  }

  // --- Drain + report ------------------------------------------------------
  stop.store(true, std::memory_order_release);
  for (auto& t : clients) t.join();
  controller.Quiesce();  // returning proves no swap is mid-flight
  server.Shutdown();

  const auto cstats = controller.GetStats();
  const auto sstats = server.GetStats();
  std::printf("lifecycle_bench: seed=%" PRIu64 " swaps=%" PRIu64
              " attempts=%" PRIu64 " promoted=%" PRIu64 " forced=%" PRIu64
              " gate_rejections=%" PRIu64 " rollbacks=%" PRIu64
              " publish_failures=%" PRIu64 " generation=%" PRIu64 "\n",
              args.seed, chaos.swaps, chaos.attempts, cstats.promoted,
              cstats.forced, chaos.gate_rejections, cstats.rollbacks,
              cstats.publish_failures, registry.generation());
  std::printf("lifecycle_bench: requests issued=%" PRIu64 " ok=%" PRIu64
              " failed=%" PRIu64 " tier_failed=%zu cache_hits=%" PRIu64
              " breaker_opens=%" PRIu64 "\n",
              issued.load(), ok.load(), failed.load(), sstats.tiers.failed,
              sstats.cache.hits, sstats.breaker.opens);
  std::printf("lifecycle_bench: drift alarm=%d stream_rounds=%" PRIu64
              " gate_event=%s\n",
              drift_alarm ? 1 : 0, stream_rounds, drift_event);

  bool pass = chaos.swaps >= args.swaps;
  pass = pass && failed.load() == 0 && sstats.tiers.failed == 0;
  if (args.inject_every > 0) {
    pass = pass && chaos.injected > 0 && chaos.rollback_misses == 0 &&
           chaos.gate_rejections > 0;
  }
  if (args.drift) {
    pass = pass && drift_alarm && stream_rounds >= 1;
  }
  std::printf(pass ? "LIFECYCLE_BENCH_OK\n" : "LIFECYCLE_BENCH_FAIL\n");
  return pass ? 0 : 1;
}
