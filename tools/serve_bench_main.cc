// Closed-loop load generator for the serving front end (ISSUE 7): trains a
// small predictor on session-style traffic, stands up serving::Server, and
// replays SDSS/SQLShare-flavoured traces against it at controlled arrival
// rates with the paper's ~18.5% statement redundancy. Reports sustained QPS
// and p50/p99/p999 latency per (precision tier x arrival rate), plus a
// window=0 per-query baseline at the highest rate so the micro-batching win
// is measured, not assumed.
//
// SIGTERM/SIGINT drain the run (util/drain): clients stop issuing, the
// server serves everything already admitted, and the partial report prints.
// SQLFACIL_FAILPOINTS is honoured (failpoint::ConfigureFromEnv), which is
// how CI injects a mid-load model failure to exercise the per-shard circuit
// breaker.
//
// Exit codes: 0 = every request got an answer (possibly degraded tier),
// 1 = some request exhausted all serving tiers, 2 = usage error.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "sqlfacil/models/baselines.h"
#include "sqlfacil/models/cnn_model.h"
#include "sqlfacil/models/lstm_model.h"
#include "sqlfacil/models/tfidf_model.h"
#include "sqlfacil/serving/loadgen.h"
#include "sqlfacil/serving/server.h"
#include "sqlfacil/util/drain.h"
#include "sqlfacil/util/env.h"
#include "sqlfacil/util/failpoint.h"
#include "sqlfacil/util/random.h"

namespace {

using sqlfacil::Rng;
using sqlfacil::models::Dataset;
using sqlfacil::models::TaskKind;
using sqlfacil::serving::BuildSessionTrace;
using sqlfacil::serving::LoadGenOptions;
using sqlfacil::serving::LoadReport;
using sqlfacil::serving::ModelRef;
using sqlfacil::serving::ResilientModel;
using sqlfacil::serving::Server;
using sqlfacil::serving::ServerOptions;

struct Args {
  std::string model = "ccnn";
  size_t shards = 2;
  size_t clients = 64;
  double duration_s = 1.0;
  double warmup_s = 0.25;
  std::vector<double> rates = {4000.0, 12000.0, 0.0};  // 0 = unpaced max
  int64_t window_us = -1;       // -1 = ServerOptions default
  int max_batch = -1;           // -1 = ServerOptions default
  int queue_depth = -1;         // -1 = ServerOptions default
  int64_t deadline_us = 0;      // per-request deadline (0 = none)
  int64_t slo_us = 2000;        // p99 SLO checked at the middle rate
  double dup_rate = 0.185;
  uint64_t seed = 20200221;
  size_t train_n = 256;
  size_t trace_len = 256;
  std::string precision = "both";  // fp32|int8|both
  bool compare_window0 = true;
  std::string json_out;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--model ccnn|clstm|ctfidf] [--shards N] [--clients N]\n"
      "          [--duration-s S] [--warmup-s S]\n"
      "          [--rates r1,r2,...  (0 = unpaced)]\n"
      "          [--window-us W] [--max-batch N] [--queue-depth N]\n"
      "          [--deadline-us D] [--slo-us S] [--dup-rate F] [--seed N]\n"
      "          [--train-n N] [--trace-len N] [--precision fp32|int8|both]\n"
      "          [--no-window0-baseline] [--json FILE]\n",
      argv0);
}

bool ParseRates(const std::string& spec, std::vector<double>* rates) {
  rates->clear();
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    rates->push_back(std::atof(spec.substr(pos, comma - pos).c_str()));
    pos = comma + 1;
  }
  return !rates->empty();
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--model" && (v = next())) {
      args->model = v;
    } else if (flag == "--shards" && (v = next())) {
      args->shards = static_cast<size_t>(std::atoi(v));
    } else if (flag == "--clients" && (v = next())) {
      args->clients = static_cast<size_t>(std::atoi(v));
    } else if (flag == "--duration-s" && (v = next())) {
      args->duration_s = std::atof(v);
    } else if (flag == "--warmup-s" && (v = next())) {
      args->warmup_s = std::atof(v);
    } else if (flag == "--rates" && (v = next())) {
      if (!ParseRates(v, &args->rates)) return false;
    } else if (flag == "--window-us" && (v = next())) {
      args->window_us = std::atoll(v);
    } else if (flag == "--max-batch" && (v = next())) {
      args->max_batch = std::atoi(v);
    } else if (flag == "--queue-depth" && (v = next())) {
      args->queue_depth = std::atoi(v);
    } else if (flag == "--deadline-us" && (v = next())) {
      args->deadline_us = std::atoll(v);
    } else if (flag == "--slo-us" && (v = next())) {
      args->slo_us = std::atoll(v);
    } else if (flag == "--dup-rate" && (v = next())) {
      args->dup_rate = std::atof(v);
    } else if (flag == "--seed" && (v = next())) {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--train-n" && (v = next())) {
      args->train_n = static_cast<size_t>(std::atoi(v));
    } else if (flag == "--trace-len" && (v = next())) {
      args->trace_len = static_cast<size_t>(std::atoi(v));
    } else if (flag == "--precision" && (v = next())) {
      args->precision = v;
    } else if (flag == "--no-window0-baseline") {
      args->compare_window0 = false;
    } else if (flag == "--json" && (v = next())) {
      args->json_out = v;
    } else {
      Usage(argv[0]);
      return false;
    }
  }
  return true;
}

// Labels session-style statements with a syntactic aggregate-vs-lookup
// split — the facilitation task itself is irrelevant to load testing, but
// training on the served vocabulary keeps inference cost realistic.
Dataset BuildTrainData(size_t n, uint64_t seed) {
  Dataset data;
  data.kind = TaskKind::kClassification;
  data.num_classes = 2;
  data.statements = BuildSessionTrace(n, /*duplicate_rate=*/0.0, seed);
  data.labels.reserve(n);
  data.opt_costs.assign(n, 0.0);
  for (const std::string& s : data.statements) {
    const bool agg = s.find("COUNT") != std::string::npos ||
                     s.find("GROUP BY") != std::string::npos ||
                     s.find("count(") != std::string::npos;
    data.labels.push_back(agg ? 1 : 0);
  }
  return data;
}

std::unique_ptr<sqlfacil::models::Model> BuildModel(const std::string& name) {
  if (name == "ccnn") {
    sqlfacil::models::CnnModel::Config config;
    config.epochs = 1;
    return std::make_unique<sqlfacil::models::CnnModel>(config);
  }
  if (name == "clstm") {
    sqlfacil::models::LstmModel::Config config;
    config.epochs = 1;
    config.num_layers = 2;
    return std::make_unique<sqlfacil::models::LstmModel>(config);
  }
  if (name == "ctfidf") {
    sqlfacil::models::TfidfModel::Config config;
    config.epochs = 2;
    return std::make_unique<sqlfacil::models::TfidfModel>(config);
  }
  return nullptr;
}

struct RunRecord {
  std::string precision;
  double rate_qps = 0.0;
  int64_t window_us = 0;
  LoadReport report;
};

RunRecord RunOne(sqlfacil::models::Model* model,
                 sqlfacil::models::Model* baseline, const Args& args,
                 const ServerOptions& base_options, const char* precision,
                 double rate, int64_t window_us) {
  ServerOptions options = base_options;
  options.batch_window_us = window_us;
  Server server(
      [&](size_t) {
        return std::make_unique<ResilientModel>(
            std::make_unique<ModelRef>(model),
            std::make_unique<ModelRef>(baseline));
      },
      options);

  LoadGenOptions load;
  load.num_clients = args.clients;
  load.arrival_rate_qps = rate;
  load.duration_s = args.duration_s;
  load.warmup_s = args.warmup_s;
  load.duplicate_rate = args.dup_rate;
  load.trace_len = args.trace_len;
  load.deadline_us = args.deadline_us;
  load.seed = args.seed;

  RunRecord record;
  record.precision = precision;
  record.rate_qps = rate;
  record.window_us = window_us;
  record.report = RunLoadGen(server, load);
  server.Shutdown();
  return record;
}

void PrintRecord(const RunRecord& r) {
  const LoadReport& rep = r.report;
  std::printf(
      "%-5s rate=%-8.0f window=%-4" PRId64
      " qps=%-9.0f p50=%-8.1f p99=%-8.1f p999=%-8.1f "
      "ok=%" PRIu64 " rej=%" PRIu64 " exp=%" PRIu64 " fail=%" PRIu64
      " batch=%.1f hit=%.2f\n",
      r.precision.c_str(), r.rate_qps, r.window_us, rep.achieved_qps,
      rep.latency_ns.PercentileUs(50.0), rep.latency_ns.PercentileUs(99.0),
      rep.latency_ns.PercentileUs(99.9), rep.ok, rep.rejected, rep.expired,
      rep.failed, rep.server.mean_batch_size, rep.server.cache.hit_rate());
}

void WriteJson(const std::string& path, const Args& args,
               const std::vector<RunRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"config\": {\"model\": \"%s\", \"shards\": %zu, "
               "\"clients\": %zu, \"duration_s\": %g, \"warmup_s\": %g, "
               "\"dup_rate\": %g, "
               "\"slo_us\": %" PRId64 ", \"deadline_us\": %" PRId64 "},\n",
               args.model.c_str(), args.shards, args.clients, args.duration_s,
               args.warmup_s, args.dup_rate, args.slo_us, args.deadline_us);
  std::fprintf(f, "  \"runs\": [\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const RunRecord& r = records[i];
    const LoadReport& rep = r.report;
    std::fprintf(
        f,
        "    {\"precision\": \"%s\", \"rate_qps\": %g, \"window_us\": "
        "%" PRId64 ", \"qps\": %.1f, \"issued\": %" PRIu64
        ", \"ok\": %" PRIu64 ", \"rejected\": %" PRIu64 ", \"expired\": "
        "%" PRIu64 ", \"failed\": %" PRIu64
        ", \"p50_us\": %.2f, \"p99_us\": %.2f, \"p999_us\": %.2f, "
        "\"mean_us\": %.2f, \"mean_batch\": %.2f, \"cache_hit_rate\": %.4f, "
        "\"cache_hits\": %" PRIu64 ", \"cache_misses\": %" PRIu64
        ", \"cache_evictions\": %" PRIu64
        ", \"breaker_opens\": %" PRIu64 ", \"breaker_half_opens\": %" PRIu64
        ", \"breaker_closes\": %" PRIu64
        ", \"tier_primary\": %zu, \"tier_stale_cache\": %zu, "
        "\"tier_baseline\": %zu, \"tier_failed\": %zu}%s\n",
        r.precision.c_str(), r.rate_qps, r.window_us, rep.achieved_qps,
        rep.issued, rep.ok, rep.rejected, rep.expired, rep.failed,
        rep.latency_ns.PercentileUs(50.0), rep.latency_ns.PercentileUs(99.0),
        rep.latency_ns.PercentileUs(99.9), rep.latency_ns.MeanUs(),
        rep.server.mean_batch_size, rep.server.cache.hit_rate(),
        rep.server.cache.hits, rep.server.cache.misses,
        rep.server.cache.evictions, rep.server.breaker.opens,
        rep.server.breaker.half_opens, rep.server.breaker.closes,
        rep.server.tiers.primary, rep.server.tiers.stale_cache,
        rep.server.tiers.baseline, rep.server.tiers.failed,
        i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  sqlfacil::failpoint::ConfigureFromEnv();
  sqlfacil::train::InstallSignalDrain();

  auto model = BuildModel(args.model);
  if (model == nullptr) {
    Usage(argv[0]);
    return 2;
  }
  std::printf("training %s on %zu session statements...\n",
              args.model.c_str(), args.train_n);
  const Dataset train = BuildTrainData(args.train_n, args.seed);
  Rng rng(sqlfacil::GetSeedFromEnv(7));
  model->Fit(train, train, &rng);

  auto baseline = std::make_unique<sqlfacil::models::MfreqModel>();
  baseline->Fit(train, train, &rng);

  const bool want_int8 =
      args.precision == "int8" || args.precision == "both";
  const bool want_fp32 =
      args.precision == "fp32" || args.precision == "both";
  ServerOptions base_options;
  base_options.num_shards = args.shards;
  if (args.window_us >= 0) base_options.batch_window_us = args.window_us;
  if (args.max_batch >= 1) {
    base_options.max_batch = static_cast<size_t>(args.max_batch);
  }
  if (args.queue_depth >= 1) {
    base_options.queue_depth = static_cast<size_t>(args.queue_depth);
  }
  base_options.default_deadline_us = 0;  // deadlines come per request

  std::printf(
      "serving %s: shards=%zu clients=%zu window=%" PRId64
      "us max_batch=%zu queue_depth=%zu dup=%.3f\n",
      args.model.c_str(), args.shards, args.clients,
      base_options.batch_window_us, base_options.max_batch,
      base_options.queue_depth, args.dup_rate);

  std::vector<RunRecord> records;
  for (const char* precision : {"fp32", "int8"}) {
    const bool is_int8 = std::strcmp(precision, "int8") == 0;
    if (is_int8 && !want_int8) continue;
    if (!is_int8 && !want_fp32) continue;
    if (is_int8) {
      // The fp32 rounds are done and no server holds the model: build its
      // int8 tier, which every later Predict serves.
      const auto calibration =
          BuildSessionTrace(128, 0.0, sqlfacil::MixSeed(args.seed, 999));
      const auto status = model->Quantize(calibration);
      if (!status.ok()) {
        std::fprintf(stderr, "quantize failed: %s\n",
                     status.ToString().c_str());
        return 2;
      }
    }
    for (double rate : args.rates) {
      if (sqlfacil::train::DrainRequested()) break;
      records.push_back(RunOne(model.get(), baseline.get(), args,
                               base_options, precision, rate,
                               base_options.batch_window_us));
      PrintRecord(records.back());
    }
    // Per-query baseline (window = 0) at the highest-concurrency point:
    // the unpaced run, or the largest rate when all runs are paced.
    if (args.compare_window0 && !args.rates.empty() &&
        !sqlfacil::train::DrainRequested()) {
      double top_rate = args.rates[0];
      for (double r : args.rates) {
        if (r == 0.0) top_rate = 0.0;
        if (top_rate != 0.0 && r > top_rate) top_rate = r;
      }
      records.push_back(RunOne(model.get(), baseline.get(), args,
                               base_options, precision, top_rate, 0));
      PrintRecord(records.back());
    }
  }

  // Derived summary lines (greppable; CI asserts on them).
  uint64_t total_failed = 0;
  for (const RunRecord& r : records) total_failed += r.report.failed;
  for (const char* precision : {"fp32", "int8"}) {
    const RunRecord* batched = nullptr;
    const RunRecord* perquery = nullptr;
    for (const RunRecord& r : records) {
      if (r.precision != precision) continue;
      if (r.window_us == 0) {
        perquery = &r;
      } else if (batched == nullptr ||
                 r.report.achieved_qps > batched->report.achieved_qps) {
        batched = &r;
      }
    }
    if (batched != nullptr && perquery != nullptr &&
        perquery->report.achieved_qps > 0.0) {
      std::printf("BATCHING_SPEEDUP_%s=%.2f\n", precision,
                  batched->report.achieved_qps /
                      perquery->report.achieved_qps);
    }
    // SLO check at the middle paced rate.
    std::vector<const RunRecord*> paced;
    for (const RunRecord& r : records) {
      if (r.precision == precision && r.window_us != 0 && r.rate_qps > 0.0) {
        paced.push_back(&r);
      }
    }
    if (!paced.empty()) {
      const RunRecord* mid = paced[paced.size() / 2];
      const double p99 = mid->report.latency_ns.PercentileUs(99.0);
      std::printf("SLO_%s_%s p99=%.1fus slo=%" PRId64 "us rate=%.0f\n",
                  p99 <= static_cast<double>(args.slo_us) ? "OK" : "MISS",
                  precision, p99, args.slo_us, mid->rate_qps);
    }
  }
  if (!args.json_out.empty()) WriteJson(args.json_out, args, records);
  if (total_failed > 0) {
    std::printf("SERVE_BENCH_FAILED_REQUESTS=%" PRIu64 "\n", total_failed);
    return 1;
  }
  std::printf("SERVE_BENCH_OK\n");
  return 0;
}
