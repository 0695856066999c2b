#ifndef SQLFACIL_ENGINE_TABLE_H_
#define SQLFACIL_ENGINE_TABLE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sqlfacil/engine/value.h"
#include "sqlfacil/util/status.h"

namespace sqlfacil::storage {
class BPlusTree;
class BufferPoolManager;
class DiskManager;
class TableHeap;
class WalManager;
struct BufferPoolStats;
}  // namespace sqlfacil::storage

namespace sqlfacil::engine {

struct ColumnDef {
  std::string name;
  ColumnType type = ColumnType::kInt64;
};

struct TableSchema {
  std::string name;
  std::vector<ColumnDef> columns;

  /// Case-insensitive column lookup; returns -1 if absent.
  int FindColumn(const std::string& column_name) const;
};

enum class StorageBackend {
  kMem,   // columnar vectors in RAM (the original engine)
  kDisk,  // slotted-page table heap through a buffer pool
};

/// Where and how a Table stores its rows. Defaults resolve the
/// SQLFACIL_STORAGE / SQLFACIL_DATA_DIR / SQLFACIL_BUFFER_POOL_PAGES /
/// SQLFACIL_DURABILITY / SQLFACIL_WAL_* knobs, so existing call sites
/// switch backends via the environment.
struct TableOptions {
  StorageBackend backend = StorageBackend::kMem;
  std::string data_dir;
  size_t buffer_pool_pages = 2048;  // 8 MiB per table

  /// Durability for the disk backend. false = PR 8 scratch semantics
  /// (files truncated on open, unlinked on close). true = write-ahead
  /// logging: the table file gets a stable name, every append is logged
  /// before it touches a page, and reopening the table recovers the
  /// committed prefix of a crashed process.
  bool durable = false;
  /// Group commit: fsync the WAL once per N appended rows (1 = every
  /// row is durable before the append returns).
  int wal_fsync_every = 64;
  /// Auto-checkpoint (and truncate the log) every time the log grows by
  /// this many bytes. 0 disables auto-checkpoints.
  uint64_t wal_checkpoint_bytes = 4ull << 20;
  /// Whether opening a durable table replays an existing WAL. false
  /// starts fresh (truncating any prior files) — for harnesses reusing
  /// table names across cases.
  bool recover = true;

  static TableOptions FromEnv();
};

/// A relation addressed by dense row index. Two interchangeable backends:
///
///  - kMem: columnar in-memory vectors with equality hash indexes over int
///    columns (the seed engine, bit-for-bit unchanged).
///  - kDisk: rows encoded into a slotted-page TableHeap behind an LRU-K
///    buffer pool (4KiB CRC-framed pages), with B+ tree indexes over int64
///    *and* string columns supporting equality and range scans. Datasets
///    larger than the pool spill to disk and are paged back on demand.
///
/// Both backends return identical values for identical appends, and index
/// lookups return row ids ascending, so query results do not depend on the
/// backend. Loading and index building are single-threaded; afterwards any
/// number of threads may read concurrently (disk-mode reads pin pages
/// through the buffer pool's mutex).
class Table {
 public:
  /// The single-argument form resolves TableOptions::FromEnv(), so
  /// SQLFACIL_STORAGE=disk switches every table built through datagen /
  /// the workload catalogs without touching call sites.
  explicit Table(TableSchema schema);
  Table(TableSchema schema, TableOptions options);
  ~Table();

  Table(Table&&) noexcept;
  Table& operator=(Table&&) noexcept;

  const TableSchema& schema() const { return schema_; }
  const std::string& name() const { return schema_.name; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return schema_.columns.size(); }
  StorageBackend backend() const { return options_.backend; }

  /// Appends one row; values must match the schema arity and types
  /// (int64 for kInt64, double for kDouble, string for kString).
  /// Storage failures abort; use TryAppendRow for a Status channel.
  void AppendRow(const std::vector<Value>& row);

  /// Status-returning append: kResourceExhausted for oversized rows,
  /// kIoError/kDataCorruption for disk faults. On error the row is not
  /// visible (num_rows() unchanged, no torn tuples) — with one durable-
  /// mode exception: a failed WAL group-commit fsync returns kIoError
  /// with the row appended in memory (it may not survive a crash; a
  /// later Checkpoint/FlushStorage retries the sync).
  Status TryAppendRow(const std::vector<Value>& row);

  /// In disk mode a storage fault surfaces as storage::StorageError (the
  /// executor converts it back to a typed Status); mem mode never throws.
  Value GetValue(size_t row, size_t col) const;

  /// Builds an index over a column. Idempotent. Mem backend: equality hash
  /// index, int64 columns only. Disk backend: B+ tree, int64 or string
  /// columns, supporting equality and (for int64) range scans.
  Status BuildIndex(const std::string& column_name);
  bool HasIndex(int col) const;
  /// True when `col` carries a B+ tree (ordered) index — range scans and
  /// string-equality scans are only available here.
  bool HasOrderedIndex(int col) const;

  /// Row ids whose `col` equals `key`, ascending. Requires HasIndex(col).
  std::vector<uint32_t> IndexLookup(int col, int64_t key) const;

  /// Row ids whose string `col` equals `key`, ascending. Requires
  /// HasOrderedIndex(col).
  std::vector<uint32_t> IndexLookup(int col, const std::string& key) const;

  /// Row ids with lo </<= col </<= hi (null bound = unbounded), sorted
  /// ascending. Requires HasOrderedIndex(col).
  std::vector<uint32_t> IndexRange(int col, const int64_t* lo,
                                   bool lo_inclusive, const int64_t* hi,
                                   bool hi_inclusive) const;

  // --- Statistics used by the optimizer cost model (opt baseline) ---

  /// Approximate number of distinct values in a column (exact for the mem
  /// backend, HyperLogLog-estimated for disk).
  size_t DistinctCount(int col) const;
  /// Min/max of a numeric column as doubles (0 for empty/string columns).
  double ColumnMin(int col) const;
  double ColumnMax(int col) const;

  /// Data pages the table occupies (actual heap pages on disk; the
  /// encoded-size equivalent for mem tables). Drives page-fetch costing.
  size_t num_data_pages() const;
  /// B+ tree height of `col`'s index (0 without an ordered index).
  int IndexHeight(int col) const;

  /// Eagerly computes every column's statistics. The mem backend's stats
  /// cache is lazily filled and not thread-safe; call this before sharing
  /// a table across threads that consult the cost model. Disk-mode stats
  /// are maintained incrementally at append time, so this is a no-op.
  void WarmStats() const;

  /// Buffer-pool counters (hits/misses/evictions/hit rate) plus pages
  /// read/written and WAL activity; zeros for the mem backend.
  struct StorageStats {
    uint64_t pool_hits = 0;
    uint64_t pool_misses = 0;
    uint64_t pool_evictions = 0;
    uint64_t pages_read = 0;
    uint64_t pages_written = 0;
    size_t pool_pages = 0;
    size_t heap_pages = 0;
    double hit_rate = 0.0;
    // Durable mode only.
    uint64_t wal_records = 0;
    uint64_t wal_bytes = 0;
    uint64_t wal_syncs = 0;
    uint64_t wal_sync_requests = 0;   // group-commit goals raised
    uint64_t wal_syncs_coalesced = 0; // goals that rode an in-flight fsync
    uint64_t wal_truncations = 0;
    uint64_t wal_checkpoints = 0;
    bool recovered = false;  // this open replayed an existing WAL
  };
  StorageStats GetStorageStats() const;

  /// Forces the disk backend open now instead of at the first append or
  /// read — in durable mode this runs WAL recovery, so num_rows() and
  /// GetValue() reflect the recovered table afterwards. Surfaces open and
  /// recovery failures as a typed Status (the lazy path inside AppendRow
  /// aborts instead). No-op for mem tables and when already open.
  Status OpenStorage();

  /// Flushes dirty pages to disk (no-op for mem). Called after load so
  /// read-only query phases start from a clean pool.
  Status FlushStorage();

  /// Durable mode: fuzzy checkpoint — syncs the WAL, fsyncs the data
  /// file, logs a checkpoint record (heap directory, tree metadata when
  /// the pool is fully clean, dirty-page table) and truncates the
  /// reclaimable log prefix. No-op without a WAL. Called automatically
  /// every `wal_checkpoint_bytes` of log growth and on clean shutdown.
  Status Checkpoint();

 private:
  struct Column {
    ColumnType type;
    std::vector<int64_t> ints;
    std::vector<double> doubles;
    std::vector<std::string> strings;
  };

  /// Distinct-count sketch: exact up to kSparseLimit distinct hashes,
  /// HyperLogLog (256 registers, fed in both modes) beyond. Small
  /// cardinalities — where the cost model's selectivity estimates are most
  /// sensitive — stay exact. The exact set is flat open addressing over
  /// `slots` (0 marks an empty slot, so hash 0 is the `has_zero` flag): 16
  /// slots at first, doubled at load 1/2 only while under the limit, so at
  /// most 2 * kSparseLimit slots (64 KiB), released at the switch to dense.
  struct Hll {
    static constexpr size_t kSparseLimit = 4096;
    std::array<uint8_t, 256> registers{};
    std::vector<uint64_t> slots;
    size_t exact = 0;  // distinct hashes held while not dense, 0 included
    bool has_zero = false;
    bool dense = false;
    /// Returns whether the sketch changed (a new exact hash, the switch to
    /// dense, or a raised register); Estimate() can move only then.
    bool Add(uint64_t hash);
    size_t Estimate() const;
  };

  struct ColumnStats {
    bool computed = false;
    size_t distinct = 0;
    double min = 0.0;
    double max = 0.0;
  };

  Status EnsureDiskStorage();
  Status OpenDurableStorage(const std::string& path);
  /// Rebuilds per-column min/max + HLL sketches by rescanning the
  /// recovered heap (sketches are not checkpointed).
  Status RebuildStatsFromHeap();
  Status AppendRowDisk(const std::vector<Value>& row);
  void UpdateIncrementalStats(const std::vector<Value>& row);
  void ComputeStatsIfNeeded(int col) const;
  /// Decodes one column value from an encoded record; throws StorageError
  /// on malformed bytes.
  Value DecodeColumnValue(const char* record, size_t len, size_t col) const;
  /// Decodes a full record into `out`.
  void DecodeRow(const char* record, size_t len,
                 std::vector<Value>* out) const;

  TableSchema schema_;
  TableOptions options_;
  std::vector<Column> columns_;  // mem backend only
  size_t num_rows_ = 0;
  uint64_t encoded_bytes_ = 0;  // mem: size the rows would occupy on disk

  // mem backend: equality hash indexes over int columns.
  std::unordered_map<int, std::unordered_map<int64_t, std::vector<uint32_t>>>
      indexes_;

  // disk backend. Declaration order doubles as destruction order in
  // reverse: trees/heap/pool go before the WAL and the disk file.
  uint64_t table_gen_ = 0;  // process-unique id keying the row-decode cache
  std::unique_ptr<storage::DiskManager> disk_;
  std::unique_ptr<storage::WalManager> wal_;
  std::unique_ptr<storage::BufferPoolManager> pool_;
  std::unique_ptr<storage::TableHeap> heap_;
  std::unordered_map<int, std::unique_ptr<storage::BPlusTree>> btrees_;
  std::vector<Hll> hlls_;  // per-column distinct estimators (disk)
  std::string encoded_row_;  // AppendRowDisk's record buffer, reused per row

  // durable mode bookkeeping.
  int appends_since_sync_ = 0;
  uint64_t last_checkpoint_end_lsn_ = 0;
  uint64_t wal_checkpoints_ = 0;
  bool recovered_ = false;

  mutable std::vector<ColumnStats> stats_;
};

}  // namespace sqlfacil::engine

#endif  // SQLFACIL_ENGINE_TABLE_H_
