// serve_session: serving::Server with the shipped ServerOptions, driven
// by one load thread that multiplexes kUsers closed-loop virtual users
// through Server::Submit callbacks. Each round replays one non-cycling
// session trace (the paper's 0.185 Zipf replay rate) against a fresh
// server, so every round sees the same cold cache and the same hit
// pattern.

#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"
#include "sqlfacil/core/model_zoo.h"
#include "sqlfacil/serving/loadgen.h"
#include "sqlfacil/serving/prediction_cache.h"
#include "sqlfacil/serving/server.h"
#include "sqlfacil/sql/tokenizer.h"
#include "sqlfacil/util/random.h"
#include "sqlfacil/workload/types.h"

namespace perfbench {
namespace {

namespace models = sqlfacil::models;
namespace serving = sqlfacil::serving;
using sqlfacil::MixSeed;
using sqlfacil::Rng;

/// Virtual users = the shipped max_batch, so steady-state batches close
/// when full, never on the batch-window timer.
constexpr size_t kUsers = 32;
constexpr double kReplayRate = 0.185;
constexpr size_t kTrainStatements = 256;
constexpr size_t kValidStatements = 128;
constexpr int kTrainEpochs = 2;
/// Requests per round (one non-cycling trace).
constexpr size_t kSessionRequests = 4096;
/// Untraced runs check this many replies bit-for-bit; traced runs all.
constexpr size_t kCheckSample = 256;

/// Batch bookkeeping touched only by the shard's batcher thread: reply
/// callbacks advance `batch` at the first reply of each batch, and the
/// model decorator tags its call with the batch being served.
struct BatcherState {
  uint64_t batch = 0;
  size_t slots_left = 0;
};

/// Benchmark-side decorator between CachedModel and the trained model:
/// times each inner PredictBatch (the cache's misses) and keeps the
/// statements it saw. Written on the batcher thread, read after the server
/// joined it.
class TracedModel final : public models::Model {
 public:
  struct Call {
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    size_t statements = 0;
    uint64_t batch = 0;
  };

  TracedModel(models::Model* inner, const BatcherState* batcher)
      : inner_(inner), batcher_(batcher) {}

  std::string name() const override { return inner_->name(); }
  void Fit(const models::Dataset& train, const models::Dataset& valid,
           Rng* rng) override {
    inner_->Fit(train, valid, rng);
  }
  std::vector<float> Predict(const std::string& statement,
                             double opt_cost) const override {
    return inner_->Predict(statement, opt_cost);
  }
  std::vector<std::vector<float>> PredictBatch(
      std::span<const std::string> statements,
      std::span<const double> opt_costs = {}) const override {
    const int64_t start = NowNs();
    auto out = inner_->PredictBatch(statements, opt_costs);
    calls_.push_back(
        Call{start, NowNs(), statements.size(), batcher_->batch + 1});
    misses_.insert(misses_.end(), statements.begin(), statements.end());
    return out;
  }
  size_t vocab_size() const override { return inner_->vocab_size(); }
  size_t num_parameters() const override { return inner_->num_parameters(); }

  const std::vector<Call>& calls() const { return calls_; }
  const std::vector<std::string>& misses() const { return misses_; }

 private:
  models::Model* inner_;
  const BatcherState* batcher_;
  mutable std::vector<Call> calls_;
  mutable std::vector<std::string> misses_;
};

struct Record {
  int64_t submit_ns = 0;
  int64_t reply_ns = 0;
  double queue_us = 0.0;
  double total_us = 0.0;
  size_t batch_size = 0;
  uint64_t batch = 0;
  serving::Tier tier = serving::Tier::kFailed;
  bool ok = false;
  std::vector<float> prediction;
};

/// State shared between the load thread and reply callbacks. It outlives
/// every server it is used with, so a callback still unlocking `mu` can
/// never touch freed memory.
struct LoadState {
  std::vector<Record> records;
  BatcherState batcher;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<uint32_t> completed;  // guarded by mu
};

/// Plays `statements` through `server`: user u sends statements u,
/// u + kUsers, ..., each only after its previous reply arrived. Returns
/// when every request has been answered.
void PlayRound(serving::Server& server,
               const std::vector<std::string>& statements, LoadState* load) {
  const size_t n = statements.size();
  load->records.assign(n, Record{});
  auto submit = [&](uint32_t i) {
    load->records[i].submit_ns = NowNs();
    server.Submit(statements[i], 0.0, [load, i](serving::ServerReply reply) {
      Record& rec = load->records[i];
      rec.reply_ns = NowNs();
      rec.ok = reply.status.ok();
      rec.tier = reply.tier;
      rec.queue_us = reply.queue_us;
      rec.total_us = reply.total_us;
      rec.batch_size = reply.batch_size;
      if (reply.batch_size > 0) {  // served on the batcher thread
        BatcherState& b = load->batcher;
        if (b.slots_left == 0) {
          ++b.batch;
          b.slots_left = reply.batch_size;
        }
        --b.slots_left;
        rec.batch = b.batch;
      }
      rec.prediction = std::move(reply.prediction);
      std::lock_guard<std::mutex> lock(load->mu);
      load->completed.push_back(i);
      load->cv.notify_one();
    });
  };
  for (uint32_t u = 0; u < kUsers && u < n; ++u) submit(u);
  size_t done = 0;
  std::vector<uint32_t> ready;
  while (done < n) {
    {
      std::unique_lock<std::mutex> lock(load->mu);
      load->cv.wait(lock, [&] { return !load->completed.empty(); });
      ready.swap(load->completed);
    }
    for (uint32_t i : ready) {
      ++done;
      if (i + kUsers < n) submit(static_cast<uint32_t>(i + kUsers));
    }
    ready.clear();
  }
}

RoundFigures FiguresOf(const std::vector<Record>& records) {
  RoundFigures f;
  int64_t start = records.front().submit_ns;
  int64_t end = records.front().reply_ns;
  std::vector<double> latency;
  latency.reserve(records.size());
  for (const Record& r : records) {
    start = std::min(start, r.submit_ns);
    end = std::max(end, r.reply_ns);
    if (r.ok) latency.push_back(static_cast<double>(r.reply_ns - r.submit_ns) * 1e-3);
  }
  f.wall_s = static_cast<double>(end - start) * 1e-9;
  f.throughput_per_s = static_cast<double>(latency.size()) / f.wall_s;
  f.latency_us = Summarize(std::move(latency));
  return f;
}

/// Counts replies that failed or came from a degraded tier.
uint64_t CountFailed(const std::vector<Record>& records) {
  uint64_t failed = 0;
  for (const Record& r : records) {
    if (!r.ok || r.tier != serving::Tier::kPrimary) ++failed;
  }
  return failed;
}

/// Replies at `indices` must equal the model's own PredictBatch answer
/// bit for bit. Returns the number of mismatches.
uint64_t CheckReplies(const models::Model& model,
                      const std::vector<std::string>& statements,
                      const std::vector<Record>& records,
                      const std::vector<size_t>& indices) {
  std::vector<std::string> batch;
  batch.reserve(indices.size());
  for (size_t i : indices) batch.push_back(statements[i]);
  const auto expected = model.PredictBatch(batch);
  uint64_t mismatches = 0;
  for (size_t k = 0; k < indices.size(); ++k) {
    const auto& got = records[indices[k]].prediction;
    const auto& want = expected[k];
    if (got.size() != want.size() ||
        std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) != 0) {
      ++mismatches;
    }
  }
  return mismatches;
}

std::vector<size_t> SampleIndices(size_t n, size_t sample) {
  std::vector<size_t> out;
  if (sample >= n) {
    for (size_t i = 0; i < n; ++i) out.push_back(i);
    return out;
  }
  for (size_t k = 0; k < sample; ++k) out.push_back(k * n / sample);
  return out;
}

/// The served model: an fp32 clstm trained on session-class labels, and
/// the mfreq baseline of the degradation chain.
struct ServedModels {
  models::ModelPtr primary;
  models::ModelPtr baseline;
};

models::Dataset SessionDataset(size_t n, uint64_t seed) {
  models::Dataset data;
  data.kind = models::TaskKind::kClassification;
  data.num_classes = sqlfacil::workload::kNumSessionClasses;
  data.statements =
      serving::BuildSessionTrace(n, /*duplicate_rate=*/0.0, seed, 0,
                                 &data.labels);
  data.opt_costs.assign(n, 0.0);
  return data;
}

ServedModels TrainServedModels(uint64_t seed) {
  const models::Dataset train = SessionDataset(kTrainStatements, MixSeed(seed, 1));
  const models::Dataset valid = SessionDataset(kValidStatements, MixSeed(seed, 2));
  sqlfacil::core::ZooConfig zoo;
  zoo.epochs = kTrainEpochs;
  ServedModels m;
  m.primary = sqlfacil::core::MakeModel("clstm", zoo);
  m.baseline = sqlfacil::core::MakeModel("mfreq", zoo);
  Rng rng(MixSeed(seed, 3));
  m.primary->Fit(train, valid, &rng);
  m.baseline->Fit(train, valid, &rng);
  return m;
}

serving::ServerOptions ShippedOptions() { return serving::ServerOptions{}; }

void PrintServeConfig(size_t requests) {
  const serving::ServerOptions o = ShippedOptions();
  std::printf(
      "config serve_session: virtual_users=%zu (closed loop, 1 load thread) "
      "requests/round=%zu ServerOptions{shards=%zu max_batch=%zu "
      "batch_window_us=%lld queue_depth=%zu deadline_us=%lld} model=clstm "
      "fp32 (ZooConfig defaults, epochs=%d) trained on %zu session "
      "statements (+%zu valid) baseline=mfreq replay_rate=%.3f\n",
      kUsers, requests, o.num_shards, o.max_batch,
      static_cast<long long>(o.batch_window_us), o.queue_depth,
      static_cast<long long>(o.default_deadline_us), kTrainEpochs,
      kTrainStatements, kValidStatements, kReplayRate);
}

/// Builds a one-shard server whose primary is `primary`.
std::unique_ptr<serving::Server> MakeServer(
    const std::function<models::ModelPtr()>& primary,
    models::Model* baseline) {
  return std::make_unique<serving::Server>(
      [&](size_t) {
        return std::make_unique<serving::ResilientModel>(
            primary(), std::make_unique<serving::ModelRef>(baseline));
      },
      ShippedOptions());
}

/// Per-layer accumulators over the traced rounds of a serving workload.
struct ServeLedger {
  std::vector<double> queue_us, in_batch_us, handoff_us, cache_path_us;
  std::vector<double> predict_us;
  uint64_t predict_stmts = 0;
  double predict_total_us = 0.0;
  uint64_t hits = 0, misses = 0, evictions = 0;
  uint64_t completed = 0, batches = 0;
  uint64_t degraded = 0;
  std::vector<double> residual_share;

  void AddRound(const std::vector<Record>& records,
                const std::vector<TracedModel::Call>& calls, Trace* trace) {
    int64_t start = records.front().submit_ns;
    int64_t end = records.front().reply_ns;
    for (const Record& r : records) {
      start = std::min(start, r.submit_ns);
      end = std::max(end, r.reply_ns);
    }
    Trace local;
    const int root = local.Add("round", start, end);
    std::map<uint64_t, int> batch_span;
    for (size_t i = 0; i < records.size(); ++i) {
      const Record& r = records[i];
      if (r.tier != serving::Tier::kPrimary) ++degraded;
      const int64_t formed = r.submit_ns + static_cast<int64_t>(r.queue_us * 1e3);
      const int64_t done = r.submit_ns + static_cast<int64_t>(r.total_us * 1e3);
      if (r.batch_size > 0 && batch_span.count(r.batch) == 0) {
        batch_span[r.batch] = local.Add("serving.batch", formed, done, root);
      }
      const int req = local.Add("serving.request", r.submit_ns, r.reply_ns, root, i);
      local.Add("serving.queue", r.submit_ns, formed, req, i);
      local.Add("serving.in_batch", formed, done, req, i);
      local.Add("serving.handoff", done, r.reply_ns, req, i);
      queue_us.push_back(r.queue_us);
      in_batch_us.push_back(r.total_us - r.queue_us);
      handoff_us.push_back(static_cast<double>(r.reply_ns - done) * 1e-3);
    }
    for (const TracedModel::Call& c : calls) {
      auto it = batch_span.find(c.batch);
      local.Add("models.predict", c.start_ns, c.end_ns,
                it == batch_span.end() ? root : it->second);
      predict_us.push_back(static_cast<double>(c.end_ns - c.start_ns) * 1e-3);
      predict_total_us += static_cast<double>(c.end_ns - c.start_ns) * 1e-3;
      predict_stmts += c.statements;
    }
    const std::vector<int64_t> self = SelfTimes(local.spans());
    for (const auto& [batch, span] : batch_span) {
      cache_path_us.push_back(static_cast<double>(self[static_cast<size_t>(span)]) * 1e-3);
    }
    residual_share.push_back(StageCoverage(local.spans(), root).residual_share());
    if (trace->spans().empty()) *trace = std::move(local);
  }

  void AddStats(const serving::Server::Stats& before,
                const serving::Server::Stats& after) {
    hits += after.cache.hits - before.cache.hits;
    misses += after.cache.misses - before.cache.misses;
    evictions += after.cache.evictions - before.cache.evictions;
    completed += after.completed - before.completed;
    batches += after.batches - before.batches;
  }

  void Report(Values* out) const {
    const Percentiles q = Summarize(queue_us);
    const Percentiles b = Summarize(in_batch_us);
    const Percentiles h = Summarize(handoff_us);
    const Percentiles c = Summarize(cache_path_us);
    const Percentiles p = Summarize(predict_us);
    std::printf("  %s\n", FormatPercentiles("serving.queue_us", q, "us").c_str());
    std::printf("  %s\n", FormatPercentiles("serving.batch_us", b, "us").c_str());
    std::printf("  %s\n", FormatPercentiles("serving.handoff_us", h, "us").c_str());
    std::printf("  %s (per batch: batch span self time)\n",
                FormatPercentiles("serving.cache_path_us", c, "us").c_str());
    std::printf("  %s (per call)\n",
                FormatPercentiles("models.predict_us", p, "us").c_str());
    std::printf("  %s\n", FormatRatio("serving.batch_size.mean",
                                      static_cast<double>(completed),
                                      "completed", static_cast<double>(batches),
                                      "batches").c_str());
    std::printf("  %s evictions=%llu\n",
                FormatRatio("serving.cache_hit_ratio", static_cast<double>(hits),
                            "hits", static_cast<double>(hits + misses),
                            "lookups").c_str(),
                static_cast<unsigned long long>(evictions));
    std::printf("  %s calls=%zu\n",
                FormatRatio("models.predict_us_per_stmt", predict_total_us,
                            "predict_us", static_cast<double>(predict_stmts),
                            "stmts").c_str(),
                predict_us.size());
    (*out)["serving.queue_us.p50"] = q.p50;
    (*out)["serving.queue_us.p90"] = q.p90;
    (*out)["serving.batch_us.p50"] = b.p50;
    (*out)["serving.batch_us.p90"] = b.p90;
    (*out)["serving.handoff_us.p50"] = h.p50;
    (*out)["serving.cache_path_us.p50"] = c.p50;
    (*out)["serving.batch_size.mean"] =
        Ratio(static_cast<double>(completed), static_cast<double>(batches));
    (*out)["serving.cache_hit_ratio"] =
        Ratio(static_cast<double>(hits), static_cast<double>(hits + misses));
    (*out)["serving.cache_hits"] = static_cast<double>(hits);
    (*out)["serving.cache_misses"] = static_cast<double>(misses);
    (*out)["serving.cache_evictions"] = static_cast<double>(evictions);
    (*out)["serving.degraded"] = static_cast<double>(degraded);
    (*out)["models.predict_calls"] = static_cast<double>(predict_us.size());
    (*out)["models.predict_stmts"] = static_cast<double>(predict_stmts);
    (*out)["models.predict_us.p50"] = p.p50;
    (*out)["models.predict_us_per_stmt"] =
        Ratio(predict_total_us, static_cast<double>(predict_stmts));
    (*out)["ledger.stage_residual_share"] = Median(residual_share);
    std::printf("  ledger.stage_residual_share=%.6f (round not covered by any "
                "in-flight request; median over %zu traced rounds)\n",
                Median(residual_share), residual_share.size());
  }
};

/// Times `fn(statement)` once per statement; returns the median in us.
template <typename F>
double MedianCallUs(const std::vector<std::string>& statements, F&& fn) {
  return Median(TimeEach(statements.size(),
                         [&](size_t i) { fn(statements[i]); }));
}

}  // namespace

Result RunServeSession(const Options& options) {
  Result result;
  ServedModels served;
  std::vector<std::string> round_statements;
  auto load = std::make_unique<LoadState>();

  // One measured round: a fresh server, so every round starts with the
  // same cold cache. It is kept (shut down) until the next round, so its
  // model decorator can still be read.
  std::unique_ptr<serving::Server> server;
  SetupTimer setup([&] {
    server.reset();  // it refers to the models about to be replaced
    served = TrainServedModels(options.seed);
    round_statements = serving::BuildSessionTrace(
        kSessionRequests, kReplayRate, MixSeed(options.seed, 4));
  });
  setup.TimeUpFront();
  PrintServeConfig(round_statements.size());

  auto play = [&](const std::function<models::ModelPtr()>& primary,
                  serving::Server::Stats* before, serving::Server::Stats* after) {
    server = MakeServer(primary, served.baseline.get());
    load->batcher = BatcherState{};
    *before = server->GetStats();
    PlayRound(*server, round_statements, load.get());
    *after = server->GetStats();
    server->Shutdown();
    result.attempted += round_statements.size();
    result.failed += CountFailed(load->records);
    return FiguresOf(load->records);
  };
  auto ref_primary = [&] {
    return models::ModelPtr(std::make_unique<serving::ModelRef>(served.primary.get()));
  };

  const double untraced_s = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<RoundFigures> rounds;
  uint64_t hits = 0, lookups = 0;
  RunRounds(untraced_s, 3, &setup, [&] {
    serving::Server::Stats before, after;
    rounds.push_back(play(ref_primary, &before, &after));
    hits += after.cache.hits - before.cache.hits;
    lookups += (after.cache.hits + after.cache.misses) -
               (before.cache.hits + before.cache.misses);
  });
  // The last round's replies against the model's own answers.
  const uint64_t mismatches =
      CheckReplies(*served.primary, round_statements, load->records,
                   SampleIndices(round_statements.size(), kCheckSample));
  result.failed += mismatches;
  std::printf("check: %zu sampled replies bit-equal to the model's "
              "PredictBatch: %s (%llu mismatches); cache hit ratio %s\n",
              std::min(kCheckSample, round_statements.size()),
              mismatches == 0 ? "yes" : "NO",
              static_cast<unsigned long long>(mismatches),
              FormatRatio("untraced", static_cast<double>(hits), "hits",
                          static_cast<double>(lookups), "lookups").c_str());
  ReportSetup(setup, "train the model, build the trace", &result.end_to_end);
  ReportRounds("serve_session untraced", rounds, &result.end_to_end);
  if (!options.trace) return result;

  // Traced rounds: the decorator sits between CachedModel and the model.
  TracedModel* traced = nullptr;
  auto traced_primary = [&] {
    auto m = std::make_unique<TracedModel>(served.primary.get(), &load->batcher);
    traced = m.get();
    return models::ModelPtr(std::move(m));
  };
  ServeLedger ledger;
  Trace trace;
  std::vector<RoundFigures> traced_rounds;
  RunRounds(options.seconds / 2, 3, &setup, [&] {
    serving::Server::Stats before, after;
    traced_rounds.push_back(play(traced_primary, &before, &after));
    ledger.AddStats(before, after);
    ledger.AddRound(load->records, traced->calls(), &trace);
  });
  Values traced_e2e;
  ReportRounds("serve_session traced", traced_rounds, &traced_e2e);
  ReportOverhead(result.end_to_end, traced_e2e, &result.per_layer);

  const uint64_t all_mismatches =
      CheckReplies(*served.primary, round_statements, load->records,
                   SampleIndices(round_statements.size(), round_statements.size()));
  result.failed += all_mismatches;
  std::printf("check: all %zu replies of the last traced round bit-equal to "
              "the model's PredictBatch: %s\n",
              round_statements.size(), all_mismatches == 0 ? "yes" : "NO");

  std::printf("per-layer ledger (%zu traced rounds):\n", traced_rounds.size());
  ledger.Report(&result.per_layer);
  const double normalize_us = MedianCallUs(round_statements, [](const std::string& s) {
    return serving::NormalizeStatement(s);
  });
  const double char_tokens_us = traced->misses().empty()
      ? 0.0
      : MedianCallUs(traced->misses(), [](const std::string& s) {
          return sqlfacil::sql::CharTokens(s);
        });
  result.per_layer["serving.normalize_us.p50"] = normalize_us;
  result.per_layer["sql.char_tokens_us.p50"] = char_tokens_us;
  std::printf("  serving.normalize_us.p50=%.4f (n=%zu served statements)\n",
              normalize_us, round_statements.size());
  std::printf("  sql.char_tokens_us.p50=%.4f (n=%zu miss statements of the "
              "last traced round)\n",
              char_tokens_us, traced->misses().size());
  WriteTrace(options, trace);
  return result;
}


}  // namespace perfbench
