#include "sqlfacil/engine/table.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstring>
#include <unordered_set>

#include "sqlfacil/storage/bplus_tree.h"
#include "sqlfacil/storage/buffer_pool.h"
#include "sqlfacil/storage/disk_manager.h"
#include "sqlfacil/storage/recovery.h"
#include "sqlfacil/storage/table_heap.h"
#include "sqlfacil/storage/wal.h"
#include "sqlfacil/util/env.h"
#include "sqlfacil/util/logging.h"
#include "sqlfacil/util/string_util.h"

namespace sqlfacil::engine {

namespace {

std::atomic<uint64_t> g_table_gen{1};

/// splitmix64 finalizer: cheap avalanche for the HLL hashes.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The slot of a flat open-addressing set (linear probing, 0 = empty)
/// that holds `hash`, or the empty slot where it belongs.
size_t ProbeSlot(const std::vector<uint64_t>& slots, uint64_t hash) {
  const size_t mask = slots.size() - 1;
  size_t i = hash & mask;
  while (slots[i] != 0 && slots[i] != hash) i = (i + 1) & mask;
  return i;
}

uint64_t HashBytes(const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a, then finalized
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return Mix64(h);
}

// --- Row codec -------------------------------------------------------------
// int64 / double: 8 bytes little-endian. string: u16 length + raw bytes.
// Nulls are stored as their backend defaults (0 / 0.0 / "") to match the
// mem backend's AppendRow semantics exactly.

/// A string cell as stored, by reference (no copy of the value).
const std::string& StoredString(const Value& v) {
  static const auto* kEmpty = new std::string();
  return v.is_null() ? *kEmpty : v.AsString();
}

void EncodeRow(const TableSchema& schema, const std::vector<Value>& row,
               std::string* out) {
  out->clear();
  for (size_t i = 0; i < schema.columns.size(); ++i) {
    switch (schema.columns[i].type) {
      case ColumnType::kInt64: {
        const int64_t v = row[i].is_null() ? 0 : row[i].AsInt();
        out->append(reinterpret_cast<const char*>(&v), sizeof(v));
        break;
      }
      case ColumnType::kDouble: {
        const double v = row[i].is_null() ? 0.0 : row[i].ToDouble();
        out->append(reinterpret_cast<const char*>(&v), sizeof(v));
        break;
      }
      case ColumnType::kString: {
        const std::string& s = StoredString(row[i]);
        SQLFACIL_CHECK(s.size() <= 0xffff) << "string value exceeds 64KiB";
        const uint16_t len = static_cast<uint16_t>(s.size());
        out->append(reinterpret_cast<const char*>(&len), sizeof(len));
        out->append(s);
        break;
      }
    }
  }
}

/// Thread-local cache of the most recently decoded rows, keyed by
/// (table generation, row). Direct-mapped over a few slots so a join
/// alternating between two tables keeps both hot. Safe because rows are
/// immutable once appended and generations are process-unique.
struct RowCacheEntry {
  uint64_t table_gen = 0;
  uint64_t row = ~0ull;
  size_t page_hint = 0;
  std::vector<Value> values;
};
constexpr size_t kRowCacheSlots = 8;
thread_local RowCacheEntry t_row_cache[kRowCacheSlots];

}  // namespace

int TableSchema::FindColumn(const std::string& column_name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (EqualsIgnoreCase(columns[i].name, column_name)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

TableOptions TableOptions::FromEnv() {
  TableOptions options;
  options.backend = GetStorageModeFromEnv() == 1 ? StorageBackend::kDisk
                                                 : StorageBackend::kMem;
  options.data_dir = GetDataDirFromEnv();
  options.buffer_pool_pages =
      GetBufferPoolPagesFromEnv(options.buffer_pool_pages);
  options.durable = GetDurabilityFromEnv() == 1;
  options.wal_fsync_every = GetWalFsyncEveryFromEnv(options.wal_fsync_every);
  options.wal_checkpoint_bytes =
      GetWalCheckpointBytesFromEnv(options.wal_checkpoint_bytes);
  options.recover = GetWalRecoverFromEnv() == 1;
  return options;
}

Table::Table(TableSchema schema) : Table(std::move(schema), TableOptions::FromEnv()) {}

Table::Table(TableSchema schema, TableOptions options)
    : schema_(std::move(schema)), options_(std::move(options)) {
  if (options_.data_dir.empty()) options_.data_dir = GetDataDirFromEnv();
  // B+ tree inserts pin a root-to-leaf path plus split pages; a handful of
  // frames is the floor for correctness, not a tuning choice.
  options_.buffer_pool_pages = std::max<size_t>(16, options_.buffer_pool_pages);
  stats_.resize(schema_.columns.size());
  if (options_.backend == StorageBackend::kMem) {
    columns_.resize(schema_.columns.size());
    for (size_t i = 0; i < columns_.size(); ++i) {
      columns_[i].type = schema_.columns[i].type;
    }
  } else {
    table_gen_ = g_table_gen.fetch_add(1, std::memory_order_relaxed);
    hlls_.resize(schema_.columns.size());
    for (auto& s : stats_) s.computed = true;  // maintained incrementally
  }
}

Table::~Table() {
  if (wal_ != nullptr && heap_ != nullptr) {
    // Best-effort clean shutdown: flush the pool and checkpoint so the
    // next open restores from metadata instead of replaying the log.
    if (FlushStorage().ok()) (void)Checkpoint();
  }
}

Table::Table(Table&&) noexcept = default;
Table& Table::operator=(Table&&) noexcept = default;

Status Table::EnsureDiskStorage() {
  if (disk_ != nullptr) return Status::Ok();
  std::string safe_name;
  for (char c : schema_.name) {
    safe_name += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  }
  if (options_.data_dir.empty()) options_.data_dir = GetDataDirFromEnv();
  if (options_.durable) {
    // Durable tables use a stable path (no pid / generation suffix): the
    // whole point is that a new process finds the old files.
    return OpenDurableStorage(options_.data_dir + "/sqlfacil_" + safe_name +
                              ".tbl");
  }
  const std::string path = options_.data_dir + "/sqlfacil_" + safe_name +
                           "." + std::to_string(::getpid()) + "." +
                           std::to_string(table_gen_) + ".tbl";
  auto disk = std::make_unique<storage::DiskManager>();
  if (Status s = disk->Open(path); !s.ok()) return s;
  disk_ = std::move(disk);
  pool_ = std::make_unique<storage::BufferPoolManager>(
      options_.buffer_pool_pages, disk_.get());
  heap_ = std::make_unique<storage::TableHeap>(pool_.get());
  return Status::Ok();
}

Status Table::OpenDurableStorage(const std::string& path) {
  auto disk = std::make_unique<storage::DiskManager>();
  const auto mode = options_.recover ? storage::OpenMode::kPersistent
                                     : storage::OpenMode::kPersistentFresh;
  if (Status s = disk->Open(path, mode); !s.ok()) return s;
  auto wal = std::make_unique<storage::WalManager>();
  if (Status s = wal->Open(path + ".wal", /*truncate=*/!options_.recover);
      !s.ok()) {
    return s;
  }
  storage::RecoveryResult recovered;
  if (options_.recover) {
    auto result = storage::Recover(disk.get(), wal.get());
    if (!result.ok()) return result.status();
    recovered = std::move(*result);
  }
  disk_ = std::move(disk);
  wal_ = std::move(wal);
  pool_ = std::make_unique<storage::BufferPoolManager>(
      options_.buffer_pool_pages, disk_.get(), wal_.get());
  heap_ = std::make_unique<storage::TableHeap>(pool_.get());
  if (options_.recover) {
    storage::CheckpointState& st = recovered.state;
    heap_->Restore(std::move(st.heap_pages), std::move(st.heap_first_row),
                   st.num_rows, st.total_bytes);
    num_rows_ = static_cast<size_t>(st.num_rows);
    encoded_bytes_ = st.total_bytes;
    for (const auto& t : st.trees) {
      if (t.column >= schema_.columns.size()) continue;  // stale metadata
      // A tree snapshot covers exactly the rows that existed when the
      // checkpoint was taken (one entry per row). If replay applied later
      // heap appends, the snapshot is stale — drop it so BuildIndex
      // rebuilds from the recovered heap instead of missing rows.
      if (t.num_entries != st.num_rows) continue;
      auto tree = std::make_unique<storage::BPlusTree>(pool_.get());
      tree->Restore(t.root, t.height, static_cast<size_t>(t.num_entries),
                    static_cast<size_t>(t.num_leaves));
      btrees_[static_cast<int>(t.column)] = std::move(tree);
    }
    recovered_ = recovered.records_scanned > 0 || recovered.found_checkpoint;
    if (num_rows_ > 0) {
      if (Status s = RebuildStatsFromHeap(); !s.ok()) return s;
    }
  }
  last_checkpoint_end_lsn_ = wal_->end_lsn();
  return Status::Ok();
}

Status Table::RebuildStatsFromHeap() {
  // Min/max and distinct sketches are not checkpointed; rebuild them the
  // same way the load path maintains them, one decoded row at a time.
  const size_t rows = num_rows_;
  for (auto& h : hlls_) h = Hll{};
  for (auto& s : stats_) {
    s = ColumnStats{};
    s.computed = true;
  }
  std::vector<Value> values;
  size_t page_hint = 0;
  num_rows_ = 0;  // UpdateIncrementalStats keys min/max init off this
  for (size_t row = 0; row < rows; ++row) {
    Status s;
    try {
      s = heap_->ReadRow(
          row,
          [&](const char* record, size_t len) {
            DecodeRow(record, len, &values);
          },
          &page_hint);
    } catch (const storage::StorageError& e) {
      s = e.status();
    }
    if (!s.ok()) {
      num_rows_ = rows;
      return s;
    }
    UpdateIncrementalStats(values);
    ++num_rows_;
  }
  num_rows_ = rows;
  return Status::Ok();
}

void Table::AppendRow(const std::vector<Value>& row) {
  SQLFACIL_CHECK_OK(TryAppendRow(row));
}

Status Table::TryAppendRow(const std::vector<Value>& row) {
  if (row.size() != schema_.columns.size()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " != schema arity " +
        std::to_string(schema_.columns.size()));
  }
  if (options_.backend == StorageBackend::kDisk) return AppendRowDisk(row);
  for (size_t i = 0; i < row.size(); ++i) {
    Column& col = columns_[i];
    switch (col.type) {
      case ColumnType::kInt64:
        col.ints.push_back(row[i].is_null() ? 0 : row[i].AsInt());
        encoded_bytes_ += 8;
        break;
      case ColumnType::kDouble:
        col.doubles.push_back(row[i].is_null() ? 0.0 : row[i].ToDouble());
        encoded_bytes_ += 8;
        break;
      case ColumnType::kString:
        col.strings.push_back(row[i].is_null() ? std::string()
                                               : row[i].AsString());
        encoded_bytes_ += 2 + col.strings.back().size();
        break;
    }
  }
  ++num_rows_;
  return Status::Ok();
}

Status Table::AppendRowDisk(const std::vector<Value>& row) {
  if (Status s = EnsureDiskStorage(); !s.ok()) return s;
  EncodeRow(schema_, row, &encoded_row_);
  if (Status s = heap_->Append(encoded_row_.data(), encoded_row_.size());
      !s.ok()) {
    return s;
  }
  UpdateIncrementalStats(row);
  encoded_bytes_ += encoded_row_.size();
  ++num_rows_;
  if (wal_ != nullptr) {
    // Group commit: every wal_fsync_every rows the log tail is made
    // durable. Batch size 1 keeps the strict contract — the row is on
    // disk before the append returns. Larger batches hand the goal to
    // the WAL's background flusher instead of fsyncing inline, so
    // appends overlap with the fsync and goals coalesce when the disk
    // lags; a background fsync failure surfaces here as kIoError on a
    // later append (the row itself is in, matching the documented
    // contract). The lag cap bounds the crash-loss window when the
    // flusher cannot keep up.
    if (++appends_since_sync_ >= options_.wal_fsync_every) {
      appends_since_sync_ = 0;
      if (options_.wal_fsync_every <= 1) {
        if (Status s = wal_->Sync(); !s.ok()) return s;
      } else {
        if (Status s = wal_->RequestSync(); !s.ok()) return s;
        constexpr uint64_t kMaxWalLagBytes = 1u << 20;
        if (wal_->end_lsn() - wal_->durable_lsn() > kMaxWalLagBytes) {
          if (Status s = wal_->Sync(); !s.ok()) return s;
        }
      }
    }
    if (options_.wal_checkpoint_bytes > 0 &&
        wal_->end_lsn() - last_checkpoint_end_lsn_ >=
            options_.wal_checkpoint_bytes) {
      if (Status s = Checkpoint(); !s.ok()) return s;
    }
  }
  return Status::Ok();
}

void Table::UpdateIncrementalStats(const std::vector<Value>& row) {
  for (size_t i = 0; i < row.size(); ++i) {
    ColumnStats& s = stats_[i];
    uint64_t hash = 0;
    switch (schema_.columns[i].type) {
      case ColumnType::kInt64: {
        const int64_t v = row[i].is_null() ? 0 : row[i].AsInt();
        const double d = static_cast<double>(v);
        if (num_rows_ == 0) {
          s.min = s.max = d;
        } else {
          s.min = std::min(s.min, d);
          s.max = std::max(s.max, d);
        }
        hash = Mix64(static_cast<uint64_t>(v));
        break;
      }
      case ColumnType::kDouble: {
        const double d = row[i].is_null() ? 0.0 : row[i].ToDouble();
        if (num_rows_ == 0) {
          s.min = s.max = d;
        } else {
          s.min = std::min(s.min, d);
          s.max = std::max(s.max, d);
        }
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        hash = Mix64(bits);
        break;
      }
      case ColumnType::kString: {
        const std::string& str = StoredString(row[i]);
        hash = HashBytes(str.data(), str.size());
        break;
      }
    }
    // The estimate is a function of the sketch alone, so it is recomputed
    // only when the sketch changed.
    if (hlls_[i].Add(hash)) s.distinct = hlls_[i].Estimate();
  }
}

bool Table::Hll::Add(uint64_t hash) {
  bool changed = false;
  if (!dense) {
    if (slots.empty()) slots.assign(16, 0);
    size_t slot = ProbeSlot(slots, hash);
    if (hash == 0 ? !has_zero : slots[slot] == 0) {
      changed = true;
      if (exact == kSparseLimit) {
        dense = true;
        slots = std::vector<uint64_t>();
      } else {
        if (2 * (exact + 1) > slots.size()) {
          std::vector<uint64_t> grown(2 * slots.size(), 0);
          for (uint64_t h : slots) {
            if (h != 0) grown[ProbeSlot(grown, h)] = h;
          }
          slots = std::move(grown);
          slot = ProbeSlot(slots, hash);
        }
        if (hash == 0) {
          has_zero = true;
        } else {
          slots[slot] = hash;
        }
        ++exact;
      }
    }
  }
  const size_t bucket = hash >> 56;  // top 8 bits -> 256 registers
  // Rank = leading zeros of the remaining 56 bits + 1, capped at 57.
  const auto rank =
      static_cast<uint8_t>(std::min(std::countl_zero(hash << 8), 56) + 1);
  if (rank > registers[bucket]) {
    registers[bucket] = rank;
    changed = true;
  }
  return changed;
}

size_t Table::Hll::Estimate() const {
  if (!dense) return exact;
  const double m = static_cast<double>(registers.size());
  const double alpha = 0.7213 / (1.0 + 1.079 / m);
  double sum = 0.0;
  int zeros = 0;
  for (uint8_t r : registers) {
    sum += std::ldexp(1.0, -static_cast<int>(r));
    if (r == 0) ++zeros;
  }
  double estimate = alpha * m * m / sum;
  if (estimate <= 2.5 * m && zeros > 0) {
    estimate = m * std::log(m / zeros);  // small-range correction
  }
  return static_cast<size_t>(std::llround(std::max(0.0, estimate)));
}

Value Table::DecodeColumnValue(const char* record, size_t len,
                               size_t col) const {
  size_t off = 0;
  for (size_t i = 0; i < schema_.columns.size(); ++i) {
    switch (schema_.columns[i].type) {
      case ColumnType::kInt64: {
        if (off + 8 > len) {
          throw storage::StorageError(
              Status::DataCorruption("truncated int field in record"));
        }
        if (i == col) {
          int64_t v;
          std::memcpy(&v, record + off, sizeof(v));
          return Value(v);
        }
        off += 8;
        break;
      }
      case ColumnType::kDouble: {
        if (off + 8 > len) {
          throw storage::StorageError(
              Status::DataCorruption("truncated double field in record"));
        }
        if (i == col) {
          double v;
          std::memcpy(&v, record + off, sizeof(v));
          return Value(v);
        }
        off += 8;
        break;
      }
      case ColumnType::kString: {
        if (off + 2 > len) {
          throw storage::StorageError(
              Status::DataCorruption("truncated string length in record"));
        }
        uint16_t slen;
        std::memcpy(&slen, record + off, sizeof(slen));
        off += 2;
        if (off + slen > len) {
          throw storage::StorageError(
              Status::DataCorruption("truncated string field in record"));
        }
        if (i == col) return Value(std::string(record + off, slen));
        off += slen;
        break;
      }
    }
  }
  throw storage::StorageError(
      Status::Internal("column index out of range in DecodeColumnValue"));
}

void Table::DecodeRow(const char* record, size_t len,
                      std::vector<Value>* out) const {
  out->clear();
  out->reserve(schema_.columns.size());
  size_t off = 0;
  for (const ColumnDef& def : schema_.columns) {
    switch (def.type) {
      case ColumnType::kInt64: {
        if (off + 8 > len) {
          throw storage::StorageError(
              Status::DataCorruption("truncated int field in record"));
        }
        int64_t v;
        std::memcpy(&v, record + off, sizeof(v));
        off += 8;
        out->push_back(Value(v));
        break;
      }
      case ColumnType::kDouble: {
        if (off + 8 > len) {
          throw storage::StorageError(
              Status::DataCorruption("truncated double field in record"));
        }
        double v;
        std::memcpy(&v, record + off, sizeof(v));
        off += 8;
        out->push_back(Value(v));
        break;
      }
      case ColumnType::kString: {
        if (off + 2 > len) {
          throw storage::StorageError(
              Status::DataCorruption("truncated string length in record"));
        }
        uint16_t slen;
        std::memcpy(&slen, record + off, sizeof(slen));
        off += 2;
        if (off + slen > len) {
          throw storage::StorageError(
              Status::DataCorruption("truncated string field in record"));
        }
        out->push_back(Value(std::string(record + off, slen)));
        off += slen;
        break;
      }
    }
  }
}

Value Table::GetValue(size_t row, size_t col) const {
  SQLFACIL_CHECK(row < num_rows_ && col < schema_.columns.size());
  if (options_.backend == StorageBackend::kMem) {
    const Column& c = columns_[col];
    switch (c.type) {
      case ColumnType::kInt64:
        return Value(c.ints[row]);
      case ColumnType::kDouble:
        return Value(c.doubles[row]);
      case ColumnType::kString:
        return Value(c.strings[row]);
    }
    return Value::Null();
  }
  RowCacheEntry& slot = t_row_cache[table_gen_ % kRowCacheSlots];
  if (slot.table_gen == table_gen_ && slot.row == row) {
    return slot.values[col];
  }
  Status s = heap_->ReadRow(
      row,
      [&](const char* record, size_t len) {
        DecodeRow(record, len, &slot.values);
      },
      &slot.page_hint);
  if (!s.ok()) {
    slot.table_gen = 0;  // decoder may have clobbered the cached values
    throw storage::StorageError(std::move(s));
  }
  slot.table_gen = table_gen_;
  slot.row = row;
  return slot.values[col];
}

Status Table::BuildIndex(const std::string& column_name) {
  const int col = schema_.FindColumn(column_name);
  if (col < 0) {
    return Status::NotFound("no column '" + column_name + "' in table '" +
                            schema_.name + "'");
  }
  if (options_.backend == StorageBackend::kMem) {
    if (columns_[col].type != ColumnType::kInt64) {
      return Status::InvalidArgument("index requires an int64 column");
    }
    if (indexes_.count(col) > 0) return Status::Ok();
    auto& index = indexes_[col];
    const auto& ints = columns_[col].ints;
    for (size_t row = 0; row < ints.size(); ++row) {
      index[ints[row]].push_back(static_cast<uint32_t>(row));
    }
    return Status::Ok();
  }

  const ColumnType type = schema_.columns[col].type;
  if (type == ColumnType::kDouble) {
    return Status::InvalidArgument(
        "disk index requires an int64 or string column");
  }
  if (btrees_.count(col) > 0) return Status::Ok();
  if (Status s = EnsureDiskStorage(); !s.ok()) return s;

  // Gather (key, row) pairs, sort by composite, insert in order: every
  // insert lands on the rightmost path, keeping the build pass friendly to
  // a pool smaller than the index.
  std::vector<std::pair<storage::IndexKey, uint32_t>> entries;
  entries.reserve(num_rows_);
  size_t page_hint = 0;
  for (size_t row = 0; row < num_rows_; ++row) {
    Status decode_status;
    storage::IndexKey key{};
    Status s = heap_->ReadRow(
        row,
        [&](const char* record, size_t len) {
          if (type == ColumnType::kInt64) {
            key = storage::EncodeIntKey(
                DecodeColumnValue(record, len, col).AsInt());
          } else {
            auto k = storage::EncodeStringKey(
                DecodeColumnValue(record, len, col).AsString());
            if (!k.ok()) {
              decode_status = k.status();
              return;
            }
            key = *k;
          }
        },
        &page_hint);
    if (!s.ok()) return s;
    if (!decode_status.ok()) return decode_status;
    entries.emplace_back(key, static_cast<uint32_t>(row));
  }
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    const int c = std::memcmp(a.first.data(), b.first.data(),
                              storage::kIndexKeyLen);
    return c != 0 ? c < 0 : a.second < b.second;
  });

  auto tree = std::make_unique<storage::BPlusTree>(pool_.get());
  for (const auto& [key, row] : entries) {
    if (Status s = tree->Insert(key, row); !s.ok()) return s;
  }
  btrees_[col] = std::move(tree);
  return Status::Ok();
}

bool Table::HasIndex(int col) const {
  return indexes_.count(col) > 0 || btrees_.count(col) > 0;
}

bool Table::HasOrderedIndex(int col) const {
  return btrees_.count(col) > 0;
}

std::vector<uint32_t> Table::IndexLookup(int col, int64_t key) const {
  if (options_.backend == StorageBackend::kMem) {
    auto it = indexes_.find(col);
    SQLFACIL_CHECK(it != indexes_.end()) << "IndexLookup without index";
    auto rows = it->second.find(key);
    return rows == it->second.end() ? std::vector<uint32_t>() : rows->second;
  }
  auto it = btrees_.find(col);
  SQLFACIL_CHECK(it != btrees_.end()) << "IndexLookup without index";
  std::vector<uint32_t> out;
  if (Status s = it->second->ScanEqual(storage::EncodeIntKey(key), &out);
      !s.ok()) {
    throw storage::StorageError(std::move(s));
  }
  return out;
}

std::vector<uint32_t> Table::IndexLookup(int col,
                                         const std::string& key) const {
  auto it = btrees_.find(col);
  SQLFACIL_CHECK(it != btrees_.end()) << "string IndexLookup without index";
  auto encoded = storage::EncodeStringKey(key);
  // Values that survived index build always encode, so a literal that does
  // not (too long / embedded NUL) cannot equal any stored value.
  if (!encoded.ok()) return {};
  std::vector<uint32_t> out;
  if (Status s = it->second->ScanEqual(*encoded, &out); !s.ok()) {
    throw storage::StorageError(std::move(s));
  }
  return out;
}

std::vector<uint32_t> Table::IndexRange(int col, const int64_t* lo,
                                        bool lo_inclusive, const int64_t* hi,
                                        bool hi_inclusive) const {
  auto it = btrees_.find(col);
  SQLFACIL_CHECK(it != btrees_.end()) << "IndexRange without ordered index";
  storage::IndexKey lo_key{}, hi_key{};
  if (lo != nullptr) lo_key = storage::EncodeIntKey(*lo);
  if (hi != nullptr) hi_key = storage::EncodeIntKey(*hi);
  std::vector<uint32_t> out;
  if (Status s = it->second->ScanRange(lo != nullptr ? &lo_key : nullptr,
                                       lo_inclusive,
                                       hi != nullptr ? &hi_key : nullptr,
                                       hi_inclusive, &out);
      !s.ok()) {
    throw storage::StorageError(std::move(s));
  }
  // ScanRange yields composite (key, row) order; executor bit-identity
  // with the mem backend's sequential scan needs ascending row ids.
  std::sort(out.begin(), out.end());
  return out;
}

void Table::ComputeStatsIfNeeded(int col) const {
  ColumnStats& s = stats_[col];
  if (s.computed) return;
  s.computed = true;
  const Column& c = columns_[col];
  switch (c.type) {
    case ColumnType::kInt64: {
      std::unordered_set<int64_t> distinct(c.ints.begin(), c.ints.end());
      s.distinct = distinct.size();
      if (!c.ints.empty()) {
        s.min = static_cast<double>(
            *std::min_element(c.ints.begin(), c.ints.end()));
        s.max = static_cast<double>(
            *std::max_element(c.ints.begin(), c.ints.end()));
      }
      break;
    }
    case ColumnType::kDouble: {
      std::unordered_set<double> distinct(c.doubles.begin(), c.doubles.end());
      s.distinct = distinct.size();
      if (!c.doubles.empty()) {
        s.min = *std::min_element(c.doubles.begin(), c.doubles.end());
        s.max = *std::max_element(c.doubles.begin(), c.doubles.end());
      }
      break;
    }
    case ColumnType::kString: {
      std::unordered_set<std::string> distinct(c.strings.begin(),
                                               c.strings.end());
      s.distinct = distinct.size();
      break;
    }
  }
}

void Table::WarmStats() const {
  if (options_.backend == StorageBackend::kDisk) return;  // always warm
  for (size_t col = 0; col < columns_.size(); ++col) {
    ComputeStatsIfNeeded(static_cast<int>(col));
  }
}

size_t Table::DistinctCount(int col) const {
  SQLFACIL_CHECK(col >= 0 && static_cast<size_t>(col) < stats_.size());
  ComputeStatsIfNeeded(col);
  return stats_[col].distinct;
}

double Table::ColumnMin(int col) const {
  SQLFACIL_CHECK(col >= 0 && static_cast<size_t>(col) < stats_.size());
  ComputeStatsIfNeeded(col);
  return stats_[col].min;
}

double Table::ColumnMax(int col) const {
  SQLFACIL_CHECK(col >= 0 && static_cast<size_t>(col) < stats_.size());
  ComputeStatsIfNeeded(col);
  return stats_[col].max;
}

size_t Table::num_data_pages() const {
  if (heap_ != nullptr) return std::max<size_t>(1, heap_->num_pages());
  return std::max<uint64_t>(
      1, (encoded_bytes_ + storage::kPayloadSize - 1) / storage::kPayloadSize);
}

int Table::IndexHeight(int col) const {
  auto it = btrees_.find(col);
  return it == btrees_.end() ? 0 : it->second->height();
}

Table::StorageStats Table::GetStorageStats() const {
  StorageStats out;
  if (pool_ == nullptr) return out;
  const storage::BufferPoolStats stats = pool_->stats();
  out.pool_hits = stats.hits;
  out.pool_misses = stats.misses;
  out.pool_evictions = stats.evictions;
  out.hit_rate = stats.hit_rate();
  out.pool_pages = pool_->pool_pages();
  out.pages_read = disk_->pages_read();
  out.pages_written = disk_->pages_written();
  out.heap_pages = heap_ != nullptr ? heap_->num_pages() : 0;
  if (wal_ != nullptr) {
    const storage::WalStats ws = wal_->stats();
    out.wal_records = ws.records_appended;
    out.wal_bytes = ws.bytes_appended;
    out.wal_syncs = ws.syncs;
    out.wal_sync_requests = ws.sync_requests;
    out.wal_syncs_coalesced = ws.syncs_coalesced;
    out.wal_truncations = ws.truncations;
    out.wal_checkpoints = wal_checkpoints_;
    out.recovered = recovered_;
  }
  return out;
}

Status Table::OpenStorage() {
  if (options_.backend != StorageBackend::kDisk) return Status::Ok();
  return EnsureDiskStorage();
}

Status Table::FlushStorage() {
  if (pool_ == nullptr) return Status::Ok();
  return pool_->FlushAll();
}

Status Table::Checkpoint() {
  if (wal_ == nullptr || heap_ == nullptr) return Status::Ok();
  // Make every appended record durable before the checkpoint claims a
  // durability watermark.
  if (Status s = wal_->Sync(); !s.ok()) return s;
  appends_since_sync_ = 0;
  // Flush-behind: write back pages dirtied more than half a checkpoint
  // interval ago. The dirty-page table's minimum recLSN bounds how much
  // log Truncate below can reclaim; without this, a pool larger than the
  // working set keeps early pages dirty forever and the log never shrinks.
  // Recently-dirtied pages stay in memory — the checkpoint remains fuzzy.
  {
    const storage::lsn_t end = wal_->end_lsn();
    const uint64_t keep_tail = options_.wal_checkpoint_bytes / 2;
    const storage::lsn_t horizon = end > keep_tail ? end - keep_tail : 0;
    if (Status s = pool_->FlushPagesBefore(horizon); !s.ok()) return s;
  }
  // Harden pages the pool already wrote back: the dirty-page table below
  // says "everything NOT listed is safely on disk", which is only true
  // past an fsync.
  if (Status s = disk_->SyncData(); !s.ok()) return s;
  storage::CheckpointState st;
  st.heap_pages = heap_->pages();
  st.heap_first_row = heap_->first_rows();
  st.num_rows = heap_->num_rows();
  st.total_bytes = heap_->total_bytes();
  st.dirty_pages = pool_->DirtyPageTable();
  if (st.dirty_pages.empty()) {
    // Every page is durable, so tree metadata is consistent with the data
    // file; register the trees so reopen skips the index rebuild. With
    // dirty pages outstanding we leave them out — reopen rebuilds indexes
    // from the recovered heap instead of trusting half-flushed nodes.
    for (const auto& [col, tree] : btrees_) {
      st.trees.push_back({static_cast<uint32_t>(col), tree->root(),
                          tree->height(), tree->num_entries(),
                          tree->num_leaf_pages()});
    }
  }
  st.durable_lsn = wal_->durable_lsn();
  st.disk_pages = disk_->num_pages();
  auto cp_lsn = wal_->AppendCheckpoint(storage::SerializeCheckpoint(st));
  if (!cp_lsn.ok()) return cp_lsn.status();
  if (Status s = wal_->Sync(); !s.ok()) return s;
  // Records before min(dirty recLSNs, the checkpoint itself) can never be
  // needed again; reclaim them once the prefix is worth a file rewrite.
  storage::lsn_t keep_from = *cp_lsn;
  for (const auto& [pid, rec_lsn] : st.dirty_pages) {
    keep_from = std::min(keep_from, rec_lsn);
  }
  if (Status s = wal_->Truncate(keep_from, /*min_reclaim_bytes=*/64 << 10);
      !s.ok()) {
    return s;
  }
  last_checkpoint_end_lsn_ = wal_->end_lsn();
  ++wal_checkpoints_;
  return Status::Ok();
}

}  // namespace sqlfacil::engine
