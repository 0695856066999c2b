// pipeline: the paper's reproduction path on the mem backend. One round =
// BuildSdssWorkload (simulate sessions, execute and label in parallel) ->
// RandomSplit -> for each of the four problems BuildTask -> MakeModel
// ("ccnn") -> Fit -> Evaluate. wall_s times that round.
//
// p50_us / p90_us time the facilitator's unit of use after the round: one
// Predict per workload statement (statement i with the model of problem
// i % 4), called one at a time; each must equal its model's PredictBatch
// answer bit for bit. The label stage's unit, one sequential
// QueryLabeler::Label on a replica of the catalog BuildSdssWorkload
// built, is timed too but lands in the per-layer ledger: its heavy
// statements are memory-bound, and on a shared host their p90 moved by
// 1.5x between identical runs.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "sqlfacil/core/evaluator.h"
#include "sqlfacil/core/model_zoo.h"
#include "sqlfacil/core/tasks.h"
#include "sqlfacil/sql/parser.h"
#include "sqlfacil/util/random.h"
#include "sqlfacil/workload/labeler.h"
#include "sqlfacil/workload/sdss.h"
#include "sqlfacil/workload/split.h"

namespace perfbench {
namespace {

namespace core = sqlfacil::core;
namespace models = sqlfacil::models;
namespace workload = sqlfacil::workload;
using sqlfacil::MixSeed;
using sqlfacil::Rng;

/// Multiplies the SDSS session count (25000) and the catalog's row counts.
constexpr double kScale = 0.03;
constexpr int kEpochs = 1;
constexpr const char* kModel = "ccnn";
/// Statements labeled one by one on the replica after each round.
constexpr size_t kLabelSample = 500;
/// Set-up warms the pool, allocator and kernels with a round this small.
constexpr double kWarmupScale = 0.01;
/// Share of a traced round its stage spans may leave uncovered.
constexpr double kStageTolerance = 0.01;

constexpr core::Problem kProblems[] = {
    core::Problem::kErrorClassification,
    core::Problem::kSessionClassification,
    core::Problem::kCpuTime,
    core::Problem::kAnswerSize,
};

workload::SdssWorkloadConfig ConfigFor(uint64_t seed, double scale) {
  workload::SdssWorkloadConfig config;
  config.scale = scale;
  config.seed = MixSeed(seed, 11);
  return config;
}

/// The catalog BuildSdssWorkload builds internally: same config, same
/// forked random stream.
sqlfacil::engine::Catalog ReplicaCatalog(
    const workload::SdssWorkloadConfig& config) {
  Rng rng(config.seed);
  Rng catalog_rng = rng.Fork();
  workload::SdssCatalogConfig catalog = config.catalog;
  catalog.scale *= config.scale;
  return workload::BuildSdssCatalog(catalog, &catalog_rng);
}

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

uint64_t Mix(uint64_t h, uint64_t v) { return MixSeed(h, v); }

bool BitEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// What one round produced, for the round-to-round identity checks.
struct RoundOutput {
  size_t statements = 0;
  uint64_t label_checksum = 0;   ///< error classes + answer sizes
  double cost_units = 0.0;       ///< replica labels' accounted cost
  std::vector<uint64_t> problem_checksums;  ///< test metrics per problem
  uint64_t checked = 0;     ///< labels + predictions compared
  uint64_t mismatches = 0;  ///< of those, how many differed
};

struct PipelineLedger {
  std::vector<double> build_s, split_task_s, fit_s, evaluate_s, catalog_s;
  std::vector<double> label_us, parse_us, residual_share;
  int uncovered_rounds = 0;  ///< traced rounds outside kStageTolerance
  double train_examples = 0.0;  ///< examples x epochs, summed over fits
  double fit_total_s = 0.0;
  double cost_units = 0.0;
};

class Pipeline {
 public:
  explicit Pipeline(uint64_t seed) : seed_(seed) {}

  void Setup() {
    // Warm-up round at a tiny scale: thread pool, allocator arenas and
    // kernel dispatch are lazily initialized on first use.
    const auto warm = workload::BuildSdssWorkload(ConfigFor(seed_, kWarmupScale));
    Rng rng(MixSeed(seed_, 12));
    const auto split = workload::RandomSplit(warm.workload, &rng);
    core::ZooConfig zoo;
    zoo.epochs = kEpochs;
    const auto task = core::BuildTask(warm.workload, split, kProblems[0]);
    auto model = core::MakeModel(kModel, zoo);
    model->Fit(task.train, task.valid, &rng);
    replica_ = std::make_unique<sqlfacil::engine::Catalog>(
        ReplicaCatalog(ConfigFor(seed_, kScale)));
    replica_->WarmStats();
  }

  /// One measured round. With `ledger` set, also records the per-layer
  /// figures, and the first such round's spans into `trace`.
  RoundFigures Round(RoundOutput* out, PipelineLedger* ledger, Trace* trace) {
    Trace local;
    const workload::SdssWorkloadConfig config = ConfigFor(seed_, kScale);
    const int root = local.Open("round");
    int span = local.Open("workload.build", root);
    const workload::SdssBuildResult built = workload::BuildSdssWorkload(config);
    local.Close(span);
    span = local.Open("core.split", root);
    Rng split_rng(MixSeed(seed_, 12));
    const workload::DataSplit split = workload::RandomSplit(built.workload, &split_rng);
    local.Close(span);
    core::ZooConfig zoo;
    zoo.epochs = kEpochs;
    std::vector<models::ModelPtr> trained;
    for (size_t p = 0; p < std::size(kProblems); ++p) {
      span = local.Open("core.build_task", root);
      const core::TaskData task = core::BuildTask(built.workload, split, kProblems[p]);
      local.Close(span);
      span = local.Open("models.fit", root);
      trained.push_back(core::MakeModel(kModel, zoo));
      Rng fit_rng(MixSeed(seed_, 13 + p));
      trained.back()->Fit(task.train, task.valid, &fit_rng);
      local.Close(span);
      span = local.Open("core.evaluate", root);
      uint64_t h = 0;
      if (task.train.kind == models::TaskKind::kClassification) {
        const auto m = core::EvaluateClassification(*trained.back(), task.test);
        h = Mix(Mix(h, Bits(m.loss)), Bits(m.accuracy));
        for (double f : m.per_class_f1) h = Mix(h, Bits(f));
      } else {
        const auto m = core::EvaluateRegression(*trained.back(), task.test);
        h = Mix(Mix(h, Bits(m.loss)), Bits(m.mse));
      }
      local.Close(span);
      out->problem_checksums.push_back(h);
      if (ledger != nullptr) {
        ledger->train_examples += static_cast<double>(task.train.size()) * kEpochs;
      }
    }
    local.Close(root);

    RoundFigures f;
    f.wall_s = static_cast<double>(local.spans()[static_cast<size_t>(root)].duration_ns()) * 1e-9;
    out->statements = built.workload.queries.size();
    f.throughput_per_s = static_cast<double>(out->statements) / f.wall_s;

    // One timed Predict per workload statement (statement i with the model
    // of problem i % 4); each must equal its model's PredictBatch answer.
    const auto& queries = built.workload.queries;
    const size_t num_models = trained.size();
    std::vector<std::vector<std::string>> statements(num_models);
    std::vector<std::vector<double>> costs(num_models);
    for (size_t i = 0; i < queries.size(); ++i) {
      statements[i % num_models].push_back(queries[i].statement);
      costs[i % num_models].push_back(queries[i].opt_cost);
    }
    std::vector<std::vector<std::vector<float>>> batched(num_models);
    for (size_t p = 0; p < num_models; ++p) {
      batched[p] = trained[p]->PredictBatch(statements[p], costs[p]);
    }
    std::vector<double> predict_us(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      const size_t p = i % num_models, k = i / num_models;
      const int64_t t0 = NowNs();
      const std::vector<float> one = trained[p]->Predict(statements[p][k], costs[p][k]);
      predict_us[i] = static_cast<double>(NowNs() - t0) * 1e-3;
      ++out->checked;
      if (!BitEqual(one, batched[p][k])) ++out->mismatches;
    }
    f.latency_us = Summarize(std::move(predict_us));

    // Label checksum over the whole workload, then sequential labels of
    // its first statements on the replica: accounted cost, and agreement
    // with the parallel labels BuildSdssWorkload produced.
    for (const auto& q : queries) {
      out->label_checksum = Mix(Mix(out->label_checksum,
                                    static_cast<uint64_t>(q.error_class)),
                                Bits(q.answer_size));
    }
    const workload::QueryLabeler labeler(replica_.get(), config.labeler);
    const size_t n = std::min(kLabelSample, built.workload.queries.size());
    std::vector<workload::QueryLabels> labels(n);
    const std::vector<double> label_us = TimeEach(n, [&](size_t i) {
      labels[i] = labeler.Label(built.workload.queries[i].statement);
    });
    for (size_t i = 0; i < n; ++i) {
      const auto& q = built.workload.queries[i];
      out->cost_units += labels[i].base_cpu_seconds / config.labeler.seconds_per_cost_unit;
      ++out->checked;
      if (labels[i].error_class != q.error_class ||
          Bits(labels[i].answer_size) != Bits(q.answer_size)) {
        ++out->mismatches;
      }
    }

    if (ledger != nullptr) {
      const auto& spans = local.spans();
      double build = 0, task = 0, fit = 0, eval = 0;
      for (const Span& s : spans) {
        const double d = static_cast<double>(s.duration_ns()) * 1e-9;
        if (s.name == "workload.build") build += d;
        if (s.name == "core.split" || s.name == "core.build_task") task += d;
        if (s.name == "models.fit") fit += d;
        if (s.name == "core.evaluate") eval += d;
      }
      ledger->build_s.push_back(build);
      ledger->split_task_s.push_back(task);
      ledger->fit_s.push_back(fit);
      ledger->evaluate_s.push_back(eval);
      ledger->fit_total_s += fit;
      const Coverage coverage = StageCoverage(spans, root);
      ledger->residual_share.push_back(coverage.residual_share());
      if (!coverage.Within(kStageTolerance)) ++ledger->uncovered_rounds;
      ledger->label_us.insert(ledger->label_us.end(), label_us.begin(), label_us.end());
      ledger->cost_units = out->cost_units;
      const std::vector<double> parse = TimeEach(n, [&](size_t i) {
        (void)sqlfacil::sql::ParseStatement(built.workload.queries[i].statement);
      });
      ledger->parse_us.insert(ledger->parse_us.end(), parse.begin(), parse.end());
      const int64_t c0 = NowNs();
      (void)ReplicaCatalog(config);
      ledger->catalog_s.push_back(static_cast<double>(NowNs() - c0) * 1e-9);
      if (trace->spans().empty()) *trace = std::move(local);
    }
    return f;
  }

 private:
  uint64_t seed_;
  std::unique_ptr<sqlfacil::engine::Catalog> replica_;
};

}  // namespace

Result RunPipeline(const Options& options) {
  Result result;
  Pipeline pipeline(options.seed);
  SetupTimer setup([&] { pipeline.Setup(); });
  setup.TimeUpFront();
  std::printf(
      "config pipeline: backend=mem scale=%.3f (sessions=%zu, catalog rows "
      "x%.3f) model=%s epochs=%d problems=4 predict=sequential "
      "label_sample=%zu warmup_scale=%.3f\n",
      kScale, static_cast<size_t>(25000 * kScale), kScale, kModel, kEpochs,
      kLabelSample, kWarmupScale);

  RoundOutput first;
  bool have_first = false;
  // Attempted per round: every label and prediction compared, the four
  // problems and the label checksum. Failed: those that disagree, or that
  // differ from the first round.
  auto check = [&](const RoundOutput& out) {
    result.attempted += out.checked + std::size(kProblems) + 1;
    result.failed += out.mismatches;
    if (!have_first) {
      first = out;
      have_first = true;
      return;
    }
    if (out.label_checksum != first.label_checksum ||
        Bits(out.cost_units) != Bits(first.cost_units)) {
      ++result.failed;
    }
    for (size_t p = 0; p < out.problem_checksums.size(); ++p) {
      if (out.problem_checksums[p] != first.problem_checksums[p]) ++result.failed;
    }
  };

  std::vector<RoundFigures> rounds;
  const double untraced_s = options.trace ? options.seconds / 2 : options.seconds;
  RunRounds(untraced_s, 2, &setup, [&] {
    RoundOutput out;
    rounds.push_back(pipeline.Round(&out, nullptr, nullptr));
    check(out);
  });
  std::printf("check: %zu rounds, statements=%zu label_checksum=%016llx "
              "cost_units=%.17g; problem checksums identical across rounds, "
              "labels equal the pipeline's and Predict equals PredictBatch: "
              "%s\n",
              rounds.size(), first.statements,
              static_cast<unsigned long long>(first.label_checksum),
              first.cost_units, result.failed == 0 ? "yes" : "NO");
  ReportSetup(setup, "warm-up round, replica catalog", &result.end_to_end);
  ReportRounds("pipeline untraced", rounds, &result.end_to_end);
  if (!options.trace) return result;

  PipelineLedger ledger;
  Trace trace;
  std::vector<RoundFigures> traced_rounds;
  RunRounds(options.seconds / 2, 1, &setup, [&] {
    RoundOutput out;
    traced_rounds.push_back(pipeline.Round(&out, &ledger, &trace));
    check(out);
  });
  Values traced_e2e;
  ReportRounds("pipeline traced", traced_rounds, &traced_e2e);
  ReportOverhead(result.end_to_end, traced_e2e, &result.per_layer);

  Values& v = result.per_layer;
  const Percentiles label = Summarize(ledger.label_us);
  const Percentiles parse = Summarize(ledger.parse_us);
  v["workload.build_s"] = Median(ledger.build_s);
  v["workload.label_us.p50"] = label.p50;
  v["workload.label_us.p90"] = label.p90;
  v["engine.catalog_build_s"] = Median(ledger.catalog_s);
  v["engine.cost_units"] = ledger.cost_units;
  v["core.build_task_s"] = Median(ledger.split_task_s);
  v["core.evaluate_s"] = Median(ledger.evaluate_s);
  v["models.fit_s"] = Median(ledger.fit_s);
  v["nn.train_examples_per_s"] = Ratio(ledger.train_examples, ledger.fit_total_s);
  v["sql.parse_us.p50"] = parse.p50;
  v["ledger.stage_residual_share"] = Median(ledger.residual_share);
  const double wall = traced_e2e["wall_s"];
  std::printf("per-layer ledger (%zu traced rounds, medians):\n",
              traced_rounds.size());
  std::printf("  %s\n", FormatRatio("workload.build share of wall", v["workload.build_s"],
                                    "workload.build_s", wall, "wall_s").c_str());
  std::printf("  %s\n", FormatRatio("models.fit share of wall", v["models.fit_s"],
                                    "models.fit_s", wall, "wall_s").c_str());
  std::printf("  %s (sequential, replica catalog)\n",
              FormatPercentiles("workload.label_us", label, "us").c_str());
  std::printf("  %s\n", FormatPercentiles("sql.parse_us", parse, "us").c_str());
  std::printf("  %s\n", FormatRatio("nn.train_examples_per_s", ledger.train_examples,
                                    "examples_x_epochs", ledger.fit_total_s,
                                    "fit_s").c_str());
  PrintValues(v);
  std::printf("stage coverage: stages cover every traced round within "
              "%.0f%%: %s (median residual share %.6f)\n",
              kStageTolerance * 100, ledger.uncovered_rounds == 0 ? "yes" : "NO",
              v["ledger.stage_residual_share"]);
  if (ledger.uncovered_rounds > 0) result.correct = false;
  WriteTrace(options, trace);
  return result;
}

}  // namespace perfbench
