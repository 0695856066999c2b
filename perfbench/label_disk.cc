// label_disk: the labeler on the durable disk engine. One round, in a
// fresh data directory:
//   write phase  BuildSdssCatalog under SQLFACIL_STORAGE=disk
//                SQLFACIL_DURABILITY=wal (shipped group commit and
//                checkpoint interval), then FlushStorage + Checkpoint per
//                table so every loaded row is durable and the pool clean;
//   read phase   QueryLabeler::Label, one statement at a time, over seeded
//                point lookups with keys drawn uniformly over each table,
//                through per-table pools well below the largest heap.
// wall_s times both phases; p50_us / p90_us / throughput_per_s time the
// read phase's Label calls. Each round ends with a clean close. After the
// last round the tables are reopened with recovery, and every loaded row
// must be back.

#include <sys/statfs.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "sqlfacil/engine/catalog.h"
#include "sqlfacil/sql/parser.h"
#include "sqlfacil/util/random.h"
#include "sqlfacil/workload/labeler.h"
#include "sqlfacil/workload/sdss_catalog.h"

namespace perfbench {
namespace {

namespace engine = sqlfacil::engine;
namespace workload = sqlfacil::workload;
using sqlfacil::MixSeed;
using sqlfacil::Rng;

constexpr double kScale = 0.25;
/// Per-table buffer pool (4 KiB pages).
constexpr size_t kPoolPages = 64;
/// Label calls per round.
constexpr size_t kReadStatements = 20000;
/// Share of a traced round's measured phase its stage spans may leave
/// uncovered (the loop between Label calls).
constexpr double kStageTolerance = 0.02;

/// Sets the storage knobs for the lifetime of one catalog build and
/// restores a mem default afterwards (single-threaded use only).
class StorageEnv {
 public:
  explicit StorageEnv(const std::string& data_dir) {
    setenv("SQLFACIL_STORAGE", "disk", 1);
    setenv("SQLFACIL_DURABILITY", "wal", 1);
    setenv("SQLFACIL_DATA_DIR", data_dir.c_str(), 1);
    setenv("SQLFACIL_BUFFER_POOL_PAGES", std::to_string(kPoolPages).c_str(), 1);
  }
  ~StorageEnv() {
    unsetenv("SQLFACIL_STORAGE");
    unsetenv("SQLFACIL_DURABILITY");
    unsetenv("SQLFACIL_DATA_DIR");
    unsetenv("SQLFACIL_BUFFER_POOL_PAGES");
  }
  StorageEnv(const StorageEnv&) = delete;
  StorageEnv& operator=(const StorageEnv&) = delete;
};

workload::SdssCatalogConfig CatalogConfig() {
  workload::SdssCatalogConfig config;
  config.scale = kScale;
  return config;
}

engine::Catalog BuildCatalog(uint64_t seed) {
  Rng rng(MixSeed(seed, 21));
  return workload::BuildSdssCatalog(CatalogConfig(), &rng);
}

/// Point lookups in the shape of the SDSS bot templates, with keys drawn
/// uniformly over each table so nearly every heap page fetch misses the
/// pool (one latency mode).
std::vector<std::string> ReadStatements(uint64_t seed,
                                        const engine::Catalog& catalog) {
  const auto rows = [&](const char* table) {
    return static_cast<int64_t>(catalog.FindTable(table)->num_rows());
  };
  const int64_t photo = rows("PhotoObj"), tag = rows("PhotoTag"),
                spec = rows("SpecObj");
  Rng rng(MixSeed(seed, 22));
  std::vector<std::string> out;
  out.reserve(kReadStatements);
  char buf[160];
  for (size_t i = 0; i < kReadStatements; ++i) {
    switch (rng.NextUint64(4)) {
      case 0:
        std::snprintf(buf, sizeof(buf), "SELECT * FROM PhotoTag WHERE objId=%lld",
                      static_cast<long long>(rng.UniformInt(0, tag - 1)));
        break;
      case 1:
        std::snprintf(buf, sizeof(buf), "SELECT ra,dec FROM PhotoObj WHERE objid=%lld",
                      static_cast<long long>(rng.UniformInt(0, photo - 1)));
        break;
      case 2:
        std::snprintf(buf, sizeof(buf),
                      "SELECT objid,u,g,r,i,z FROM PhotoObj WHERE objid=%lld",
                      static_cast<long long>(rng.UniformInt(0, photo - 1)));
        break;
      default:
        std::snprintf(buf, sizeof(buf), "SELECT z,zerr FROM SpecObj WHERE specobjid=%lld",
                      static_cast<long long>(rng.UniformInt(0, spec - 1)));
        break;
    }
    out.push_back(buf);
  }
  return out;
}

std::string FilesystemOf(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

engine::Table::StorageStats SumStats(const engine::Catalog& catalog) {
  engine::Table::StorageStats sum;
  for (const std::string& name : catalog.TableNames()) {
    const auto s = catalog.FindTable(name)->GetStorageStats();
    sum.pool_hits += s.pool_hits;
    sum.pool_misses += s.pool_misses;
    sum.pool_evictions += s.pool_evictions;
    sum.pages_read += s.pages_read;
    sum.pages_written += s.pages_written;
    sum.heap_pages = std::max(sum.heap_pages, s.heap_pages);
    sum.pool_pages = std::max(sum.pool_pages, s.pool_pages);
    sum.wal_bytes += s.wal_bytes;
    sum.wal_syncs += s.wal_syncs;
    sum.wal_sync_requests += s.wal_sync_requests;
    sum.wal_syncs_coalesced += s.wal_syncs_coalesced;
    sum.wal_checkpoints += s.wal_checkpoints;
  }
  return sum;
}

struct LabelDiskLedger {
  std::vector<double> load_s, rows_per_s, residual_share;
  int uncovered_rounds = 0;  ///< traced rounds outside kStageTolerance
  std::vector<double> mem_label_us, parse_us, disk_vs_mem, catalog_s;
  engine::Table::StorageStats write;  // last traced round's write phase
  double bytes_per_row = 0.0;
  double cost_units = 0.0;
};

class LabelDisk {
 public:
  explicit LabelDisk(const Options& options)
      : options_(options), dir_(options.work_dir + "/tables") {}

  /// Set-up: a scratch directory, the read statements (keys sized from a
  /// mem build of the same catalog, which traced rounds also label).
  void Setup() {
    std::filesystem::create_directories(options_.work_dir);
    mem_ = std::make_unique<engine::Catalog>(BuildCatalog(options_.seed));
    mem_->WarmStats();
    statements_ = ReadStatements(options_.seed, *mem_);
  }

  RoundFigures Round(Result* result, LabelDiskLedger* ledger, Trace* trace) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    Trace local;
    const int root = local.Open("measured");

    // Write phase.
    int span = local.Open("storage.load", root);
    std::unique_ptr<engine::Catalog> disk;
    {
      StorageEnv env(dir_);
      disk = std::make_unique<engine::Catalog>(BuildCatalog(options_.seed));
    }
    size_t rows = 0;
    for (const std::string& name : disk->TableNames()) {
      // The catalog hands out const tables; this benchmark built them and
      // owns the only other reference.
      const auto table =
          std::const_pointer_cast<engine::Table>(disk->FindTable(name));
      rows += table->num_rows();
      if (!table->FlushStorage().ok() || !table->Checkpoint().ok()) {
        ++result->failed;
      }
    }
    local.Close(span);
    const engine::Table::StorageStats after_write = SumStats(*disk);

    // Read phase.
    const workload::QueryLabeler labeler(disk.get(), {});
    std::vector<workload::QueryLabels> labels(statements_.size());
    std::vector<double> us(statements_.size());
    const int64_t read_start = NowNs();
    for (size_t i = 0; i < statements_.size(); ++i) {
      const int s = local.Open("workload.label", root, i);
      labels[i] = labeler.Label(statements_[i]);
      local.Close(s);
      us[i] = static_cast<double>(local.spans()[static_cast<size_t>(s)].duration_ns()) * 1e-3;
    }
    const int64_t read_end = NowNs();
    local.Close(root);
    const engine::Table::StorageStats after_read = SumStats(*disk);

    RoundFigures f;
    f.wall_s = static_cast<double>(local.spans()[static_cast<size_t>(root)].duration_ns()) * 1e-9;
    f.throughput_per_s = static_cast<double>(statements_.size()) /
                         (static_cast<double>(read_end - read_start) * 1e-9);
    f.latency_us = Summarize(us);
    result->attempted += statements_.size() + 1;
    rows_loaded_ = rows;

    // Clean shutdown (flush + checkpoint); Reopen checks what it left.
    expected_.clear();
    for (const std::string& name : disk->TableNames()) {
      const auto table = disk->FindTable(name);
      expected_.emplace_back(table->schema(), table->num_rows());
    }
    disk.reset();

    if (ledger != nullptr) {
      const auto& spans = local.spans();
      const double load_s = static_cast<double>(spans[static_cast<size_t>(span)].duration_ns()) * 1e-9;
      ledger->load_s.push_back(load_s);
      ledger->rows_per_s.push_back(static_cast<double>(rows) / load_s);
      const Coverage coverage = StageCoverage(spans, root);
      ledger->residual_share.push_back(coverage.residual_share());
      if (!coverage.Within(kStageTolerance)) ++ledger->uncovered_rounds;
      ledger->write = after_write;
      ledger->bytes_per_row =
          (static_cast<double>(after_write.wal_bytes) +
           static_cast<double>(after_write.pages_written) * 4096.0) /
          static_cast<double>(rows);
      // The same statements on the mem catalog: the mem == disk contract
      // and the per-statement disk/mem gap.
      const workload::QueryLabeler mem_labeler(mem_.get(), {});
      std::vector<workload::QueryLabels> mem_labels(statements_.size());
      const std::vector<double> mem_us = TimeEach(statements_.size(), [&](size_t i) {
        mem_labels[i] = mem_labeler.Label(statements_[i]);
      });
      double disk_total = 0, mem_total = 0, cost = 0;
      for (size_t i = 0; i < statements_.size(); ++i) {
        disk_total += us[i];
        mem_total += mem_us[i];
        cost += labels[i].base_cpu_seconds / workload::LabelerConfig{}.seconds_per_cost_unit;
        if (labels[i].error_class != mem_labels[i].error_class ||
            labels[i].answer_size != mem_labels[i].answer_size) {
          ++result->failed;
          ++mem_disk_mismatches_;
        }
      }
      result->attempted += statements_.size();
      ledger->disk_vs_mem.push_back(Ratio(disk_total, mem_total));
      ledger->mem_label_us.insert(ledger->mem_label_us.end(), mem_us.begin(), mem_us.end());
      ledger->cost_units = cost;
      const std::vector<double> parse = TimeEach(statements_.size(), [&](size_t i) {
        (void)sqlfacil::sql::ParseStatement(statements_[i]);
      });
      ledger->parse_us.insert(ledger->parse_us.end(), parse.begin(), parse.end());
      const int64_t c0 = NowNs();
      (void)BuildCatalog(options_.seed);
      ledger->catalog_s.push_back(static_cast<double>(NowNs() - c0) * 1e-9);
      if (trace->spans().empty()) *trace = std::move(local);
    }
    read_stats_ = {after_read.pages_read - after_write.pages_read,
                   after_read.pool_hits - after_write.pool_hits,
                   after_read.pool_misses - after_write.pool_misses,
                   after_read.pool_evictions - after_write.pool_evictions};
    return f;
  }

  /// Reopens the last round's tables with recovery and checks that every
  /// loaded row is back (one failed operation otherwise). Returns the
  /// seconds the reopen took; removes the tables.
  double Reopen(Result* result) {
    const int64_t start = NowNs();
    size_t rows = 0;
    bool ok = true;
    for (const auto& [schema, count] : expected_) {
      engine::TableOptions opts;
      opts.backend = engine::StorageBackend::kDisk;
      opts.data_dir = dir_;
      opts.buffer_pool_pages = kPoolPages;
      opts.durable = true;
      opts.recover = true;
      engine::Table table(schema, opts);
      if (!table.OpenStorage().ok() || table.num_rows() != count) ok = false;
      rows += table.num_rows();
    }
    const double seconds = static_cast<double>(NowNs() - start) * 1e-9;
    ok = ok && rows == rows_loaded_;
    ++result->attempted;
    if (!ok) ++result->failed;
    std::printf("check: %zu loaded rows, %zu back after reopen with recovery "
                "(%.3f s): %s\n",
                rows_loaded_, rows, seconds, ok ? "yes" : "NO");
    std::filesystem::remove_all(dir_);
    return seconds;
  }

  size_t rows_loaded() const { return rows_loaded_; }
  uint64_t mem_disk_mismatches() const { return mem_disk_mismatches_; }
  /// Read-phase deltas of the last round: pages read, hits, misses,
  /// evictions.
  const std::array<uint64_t, 4>& read_stats() const { return read_stats_; }
  const std::vector<std::string>& statements() const { return statements_; }

 private:
  const Options& options_;
  const std::string dir_;
  std::unique_ptr<engine::Catalog> mem_;
  std::vector<std::pair<engine::TableSchema, size_t>> expected_;
  std::vector<std::string> statements_;
  size_t rows_loaded_ = 0;
  uint64_t mem_disk_mismatches_ = 0;
  std::array<uint64_t, 4> read_stats_{};
};

}  // namespace

Result RunLabelDisk(const Options& options) {
  Result result;
  LabelDisk bench(options);
  SetupTimer setup([&] { bench.Setup(); });
  setup.TimeUpFront();
  std::printf(
      "config label_disk: catalog scale=%.3f durability=wal "
      "wal_fsync_every=64 (shipped group commit) checkpoint_bytes=4MiB "
      "(shipped) pool_pages=%zu per table read_statements=%zu (uniform-key "
      "point lookups) data_dir_fs=%s\n",
      kScale, kPoolPages, kReadStatements, FilesystemOf(options.work_dir).c_str());

  std::vector<RoundFigures> rounds;
  std::vector<uint64_t> pages_read;
  const double untraced_s = options.trace ? options.seconds / 2 : options.seconds;
  RunRounds(untraced_s, 2, &setup, [&] {
    rounds.push_back(bench.Round(&result, nullptr, nullptr));
    pages_read.push_back(bench.read_stats()[0]);
  });
  bench.Reopen(&result);
  bool pages_repeat = true;
  for (uint64_t p : pages_read) pages_repeat = pages_repeat && p == pages_read[0];
  std::printf("check: read-phase pages_read=%llu identical across %zu rounds: "
              "%s\n",
              static_cast<unsigned long long>(pages_read[0]), pages_read.size(),
              pages_repeat ? "yes" : "NO");
  ReportSetup(setup, "mem catalog for keys, statements", &result.end_to_end);
  ReportRounds("label_disk untraced", rounds, &result.end_to_end);
  if (!options.trace) return result;

  LabelDiskLedger ledger;
  Trace trace;
  std::vector<RoundFigures> traced_rounds;
  RunRounds(options.seconds / 2, 1, &setup, [&] {
    traced_rounds.push_back(bench.Round(&result, &ledger, &trace));
  });
  const double reopen_s = bench.Reopen(&result);
  Values traced_e2e;
  ReportRounds("label_disk traced", traced_rounds, &traced_e2e);
  ReportOverhead(result.end_to_end, traced_e2e, &result.per_layer);

  Values& v = result.per_layer;
  const auto& rs = bench.read_stats();
  const Percentiles mem = Summarize(ledger.mem_label_us);
  const Percentiles parse = Summarize(ledger.parse_us);
  v["storage.load_s"] = Median(ledger.load_s);
  v["storage.load_rows_per_s"] = Median(ledger.rows_per_s);
  v["storage.wal_syncs"] = static_cast<double>(ledger.write.wal_syncs);
  v["storage.wal_sync_requests"] = static_cast<double>(ledger.write.wal_sync_requests);
  v["storage.wal_syncs_coalesced"] = static_cast<double>(ledger.write.wal_syncs_coalesced);
  v["storage.wal_checkpoints"] = static_cast<double>(ledger.write.wal_checkpoints);
  v["storage.write_bytes_per_row"] = ledger.bytes_per_row;
  v["storage.pages_read"] = static_cast<double>(rs[0]);
  v["storage.pool_hits"] = static_cast<double>(rs[1]);
  v["storage.pool_misses"] = static_cast<double>(rs[2]);
  v["storage.pool_evictions"] = static_cast<double>(rs[3]);
  v["storage.pool_hit_ratio"] =
      Ratio(static_cast<double>(rs[1]), static_cast<double>(rs[1] + rs[2]));
  v["storage.disk_vs_mem_label"] = Median(ledger.disk_vs_mem);
  v["storage.reopen_s"] = reopen_s;
  v["workload.label_us.p50"] = mem.p50;
  v["workload.label_us.p90"] = mem.p90;
  v["engine.catalog_build_s"] = Median(ledger.catalog_s);
  v["engine.cost_units"] = ledger.cost_units;
  v["sql.parse_us.p50"] = parse.p50;
  v["ledger.stage_residual_share"] = Median(ledger.residual_share);
  std::printf("per-layer ledger (%zu traced rounds):\n", traced_rounds.size());
  std::printf("  pool: %zu pages per table vs largest heap %zu pages\n",
              ledger.write.pool_pages, ledger.write.heap_pages);
  std::printf("  %s\n", FormatRatio("storage.pool_hit_ratio", static_cast<double>(rs[1]),
                                    "hits", static_cast<double>(rs[1] + rs[2]),
                                    "lookups").c_str());
  std::printf("  %s\n", FormatRatio("storage.write_bytes_per_row",
                                    static_cast<double>(ledger.write.wal_bytes) +
                                        static_cast<double>(ledger.write.pages_written) * 4096.0,
                                    "wal_plus_page_bytes",
                                    static_cast<double>(bench.rows_loaded()), "rows").c_str());
  std::printf("  %s\n", FormatRatio("storage.wal_syncs_coalesced per request",
                                    static_cast<double>(ledger.write.wal_syncs_coalesced),
                                    "coalesced",
                                    static_cast<double>(ledger.write.wal_sync_requests),
                                    "requests").c_str());
  std::printf("  storage.disk_vs_mem_label: per-statement disk label time / "
              "mem label time over the same %zu statements (median of %zu "
              "rounds)\n",
              bench.statements().size(), ledger.disk_vs_mem.size());
  std::printf("  %s (mem catalog)\n",
              FormatPercentiles("workload.label_us", mem, "us").c_str());
  std::printf("  %s\n", FormatPercentiles("sql.parse_us", parse, "us").c_str());
  PrintValues(v);
  std::printf("check: traced labels equal the mem labels (mem == disk): %s "
              "(%llu mismatches)\n",
              bench.mem_disk_mismatches() == 0 ? "yes" : "NO",
              static_cast<unsigned long long>(bench.mem_disk_mismatches()));
  std::printf("stage coverage: load + label spans cover every traced "
              "round's measured phase within %.0f%%: %s (median residual "
              "share %.6f)\n",
              kStageTolerance * 100, ledger.uncovered_rounds == 0 ? "yes" : "NO",
              v["ledger.stage_residual_share"]);
  if (ledger.uncovered_rounds > 0) result.correct = false;
  WriteTrace(options, trace);
  return result;
}

}  // namespace perfbench
