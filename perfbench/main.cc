// sqlfacil benchmark: one workload per process.
//
//   perfbench --workload <serve_session|pipeline|label_disk>
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//             [--trace-out FILE]
//
// Every workload repeats a fixed unit of work (a "round": the same
// seeded inputs, the same operation count) until --seconds have passed,
// and reports what its quiet rounds reach (kQuietQuantile, ledger.h).
// --trace 0 prints the end-to-end metrics of untraced rounds; --trace 1
// spends half the time on untraced rounds and half on traced ones, and
// prints the per-layer ledger plus the tracing overhead (traced vs
// untraced wall_s). The last stdout line is the JSON result; the exit code
// is 0 only when every correctness check passed.
//
// The process runs on one CPU with the library's thread pool off, so no
// two of its threads wait on each other across CPUs.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"

namespace perfbench {

namespace {

/// SQLFACIL_THREADS: 1 runs every ParallelFor on its calling thread.
constexpr int kPoolThreads = 1;

/// Restricts this thread, and every thread it starts later, to the
/// highest-numbered CPU it may run on (CPU 0 takes most device
/// interrupts). Returns that CPU, or -1 when the affinity call fails.
/// Threads of a serving round hand each request back and forth; on one CPU
/// each hand-off is a local context switch, where across CPUs it waits for
/// another virtual CPU to wake, whose delay the host sets.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

/// Keeps freed memory inside the process. With glibc's defaults every
/// round returns its large temporaries to the kernel and faults them back
/// in, and on a virtual machine those first-touch faults made identical
/// label passes differ by up to 2x; with these settings a round reuses the
/// pages of the previous one.
constexpr int kMmapThreshold = 32 << 20;  // glibc's maximum
constexpr int kTrimThreshold = 1 << 30;
constexpr int kTopPad = 64 << 20;

void KeepFreedMemory() {
  mallopt(M_MMAP_THRESHOLD, kMmapThreshold);
  mallopt(M_TRIM_THRESHOLD, kTrimThreshold);
  mallopt(M_TOP_PAD, kTopPad);
}

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--trace-out FILE]\n");
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (flag == "--workload") {
      o->workload = v;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      o->seconds = std::atof(v);
    } else if (flag == "--trace") {
      o->trace = std::atoi(v) != 0;
    } else if (flag == "--work-dir") {
      o->work_dir = v;
    } else if (flag == "--trace-out") {
      o->trace_out = v;
    } else {
      return false;
    }
  }
  return !o->workload.empty() && !o->work_dir.empty() && o->seconds > 0.0;
}

}  // namespace

void ReportRounds(const std::string& label,
                  const std::vector<RoundFigures>& rounds, Values* out) {
  std::vector<double> wall, tput, p50, p90, p99;
  size_t samples = 0;
  for (const RoundFigures& r : rounds) {
    wall.push_back(r.wall_s);
    tput.push_back(r.throughput_per_s);
    p50.push_back(r.latency_us.p50);
    p90.push_back(r.latency_us.p90);
    p99.push_back(r.latency_us.p99);
    samples += r.latency_us.n;
  }
  (*out)["wall_s"] = QuietTime(wall);
  (*out)["throughput_per_s"] = QuietRate(tput);
  (*out)["p50_us"] = QuietTime(p50);
  (*out)["p90_us"] = QuietTime(p90);
  const size_t per_round = rounds.empty() ? 0 : rounds[0].latency_us.n;
  std::printf(
      "[%s] rounds=%zu quiet (q=%.2f over rounds): wall_s=%.6f "
      "throughput_per_s=%.2f p50_us=%.3f p90_us=%.3f p99_us=%.3f "
      "(not compared) | median over rounds: wall_s=%.6f (quartiles "
      "%.6f..%.6f) p50_us=%.3f p90_us=%.3f | samples/round=%zu (beyond "
      "p90=%zu, beyond p99=%zu) total=%zu\n",
      label.c_str(), rounds.size(), kQuietQuantile, QuietTime(wall),
      QuietRate(tput), QuietTime(p50), QuietTime(p90), QuietTime(p99),
      Median(wall), Quantile(wall, 0.25), Quantile(wall, 0.75), Median(p50),
      Median(p90), per_round, SamplesBeyond(per_round, 0.90),
      SamplesBeyond(per_round, 0.99), samples);
  std::printf("[%s] per round (wall_s p50_us p90_us):", label.c_str());
  for (const RoundFigures& r : rounds) {
    std::printf(" %.4g/%.4g/%.4g", r.wall_s, r.latency_us.p50,
                r.latency_us.p90);
  }
  std::printf("\n");
}

void ReportSetup(const SetupTimer& setup, const char* what, Values* out) {
  (*out)["setup_s"] = setup.median_s();
  std::printf("setup_s=%.6f (median of %zu set-ups across the run: %s)\n",
              setup.median_s(), setup.count(), what);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void PrintValues(const Values& values) {
  for (const auto& [name, value] : values) {
    std::printf("  %s=%.17g\n", name.c_str(), value);
  }
}

void WriteTrace(const Options& options, const Trace& trace) {
  if (options.trace_out.empty()) return;
  std::FILE* out = std::fopen(options.trace_out.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", options.trace_out.c_str());
    return;
  }
  trace.WriteJsonLines(out);
  std::fclose(out);
  std::printf("spans: %zu written to %s\n", trace.spans().size(),
              options.trace_out.c_str());
}

void ReportOverhead(const Values& untraced, const Values& traced,
                    Values* per_layer) {
  const double base = untraced.at("wall_s");
  const double with = traced.at("wall_s");
  (*per_layer)["ledger.trace_overhead"] = Ratio(with, base);
  std::printf("tracing overhead: %s\n",
              FormatRatio("traced/untraced wall_s", with, "traced_wall_s",
                          base, "untraced_wall_s")
                  .c_str());
  for (const char* name : {"throughput_per_s", "p50_us", "p90_us"}) {
    std::printf("  %s untraced=%.6g traced=%.6g\n", name, untraced.at(name),
                traced.at(name));
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    Usage();
    return 2;
  }
  KeepFreedMemory();
  // Before any thread exists, so every thread inherits the one CPU, and
  // before anything creates the library's global pool.
  const int cpu = PinToOneCpu();
  const std::string threads = std::to_string(kPoolThreads);
  setenv("SQLFACIL_THREADS", threads.c_str(), 1);

  std::printf(
      "perfbench workload=%s seed=%" PRIu64
      " seconds=%g trace=%d pinned_cpu=%d SQLFACIL_THREADS=%s nproc=%u "
      "malloc{mmap_threshold=%d trim_threshold=%d top_pad=%d}\n",
      options.workload.c_str(), options.seed, options.seconds,
      options.trace ? 1 : 0, cpu, threads.c_str(),
      std::thread::hardware_concurrency(), kMmapThreshold, kTrimThreshold,
      kTopPad);

  Result result;
  if (options.workload == "serve_session") {
    result = RunServeSession(options);
  } else if (options.workload == "pipeline") {
    result = RunPipeline(options);
  } else if (options.workload == "label_disk") {
    result = RunLabelDisk(options);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  result.end_to_end["peak_rss_mb"] = PeakRssMb();

  std::vector<Metric> metrics;
  bool complete = true;
  if (!options.trace) {
    for (const MetricSpec& spec : kEndToEnd) {
      auto it = result.end_to_end.find(spec.name);
      if (it == result.end_to_end.end() || !(it->second > 0.0)) {
        std::fprintf(stderr, "end-to-end metric %s missing or zero\n",
                     spec.name);
        complete = false;
        continue;
      }
      metrics.push_back(Metric{spec.name, it->second, spec.unit});
    }
  } else {
    for (const MetricSpec& spec : kPerLayer) {
      auto it = result.per_layer.find(spec.name);
      metrics.push_back(Metric{
          spec.name, it == result.per_layer.end() ? 0.0 : it->second,
          spec.unit});
    }
  }
  std::printf("attempted=%" PRIu64 " failed=%" PRIu64 " correct=%s\n",
              result.attempted, result.failed,
              result.correct ? "true" : "false");
  if (!complete) {
    std::fflush(stdout);
    return 1;
  }
  const bool correct =
      result.correct && result.failed == 0 && result.attempted > 0;
  std::printf("%s\n", ResultJson(correct, result.attempted, result.failed,
                                 metrics)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
