#include "sqlfacil/util/env.h"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <thread>

namespace sqlfacil {

double GetScaleFromEnv() {
  const char* v = std::getenv("SQLFACIL_SCALE");
  if (v == nullptr) return 1.0;
  const double scale = std::atof(v);
  return scale > 0.0 ? scale : 1.0;
}

int GetEpochsFromEnv(int fallback) {
  const char* v = std::getenv("SQLFACIL_EPOCHS");
  if (v == nullptr) return fallback;
  const int epochs = std::atoi(v);
  return epochs > 0 ? epochs : fallback;
}

uint64_t GetSeedFromEnv(uint64_t fallback) {
  const char* v = std::getenv("SQLFACIL_SEED");
  if (v == nullptr) return fallback;
  return std::strtoull(v, nullptr, 10);
}

int GetThreadsFromEnv() {
  const int fallback =
      std::max(1u, std::thread::hardware_concurrency());
  const char* v = std::getenv("SQLFACIL_THREADS");
  if (v == nullptr) return fallback;
  const int threads = std::atoi(v);
  return threads >= 1 ? threads : fallback;
}

std::string GetSnapshotDirFromEnv() {
  const char* v = std::getenv("SQLFACIL_SNAPSHOT_DIR");
  return v == nullptr ? std::string() : std::string(v);
}

int GetSnapshotEveryFromEnv(int fallback) {
  const char* v = std::getenv("SQLFACIL_SNAPSHOT_EVERY");
  if (v == nullptr) return fallback;
  const int every = std::atoi(v);
  return every >= 1 ? every : fallback;
}

namespace {

/// Shared parser for size-suffixed byte counts. Returns false on malformed
/// input; `had_suffix` reports whether a K/M/G multiplier was present (so
/// GetBufferPoolPagesFromEnv can tell a page count from a byte budget).
bool ParseSizeBytes(const char* text, uint64_t* bytes, bool* had_suffix) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || value < 0) return false;
  uint64_t multiplier = 1;
  bool suffix = false;
  if (*end != '\0') {
    switch (*end) {
      case 'k': case 'K': multiplier = 1ull << 10; break;
      case 'm': case 'M': multiplier = 1ull << 20; break;
      case 'g': case 'G': multiplier = 1ull << 30; break;
      default: return false;
    }
    suffix = true;
    ++end;
    if (*end == 'b' || *end == 'B') ++end;
    if (*end != '\0') return false;
  }
  *bytes = static_cast<uint64_t>(value) * multiplier;
  if (had_suffix != nullptr) *had_suffix = suffix;
  return true;
}

}  // namespace

uint64_t GetEnvBytes(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  uint64_t bytes = 0;
  if (!ParseSizeBytes(v, &bytes, nullptr)) return fallback;
  return bytes;
}

size_t GetBufferPoolPagesFromEnv(size_t fallback) {
  const char* v = std::getenv("SQLFACIL_BUFFER_POOL_PAGES");
  uint64_t value = 0;
  bool had_suffix = false;
  if (!ParseSizeBytes(v, &value, &had_suffix)) return fallback;
  const uint64_t pages = had_suffix ? value / 4096 : value;
  return pages >= 1 ? static_cast<size_t>(pages) : fallback;
}

std::string GetDataDirFromEnv() {
  const char* v = std::getenv("SQLFACIL_DATA_DIR");
  if (v != nullptr && *v != '\0') return v;
  const char* tmp = std::getenv("TMPDIR");
  if (tmp != nullptr && *tmp != '\0') return tmp;
  return "/tmp";
}

int GetStorageModeFromEnv() {
  const char* v = std::getenv("SQLFACIL_STORAGE");
  if (v == nullptr) return 0;
  const std::string s(v);
  if (s == "disk" || s == "1") return 1;
  return 0;
}

int GetDurabilityFromEnv() {
  const char* v = std::getenv("SQLFACIL_DURABILITY");
  if (v == nullptr) return 0;
  const std::string s(v);
  if (s == "wal" || s == "1") return 1;
  return 0;
}

int GetWalFsyncEveryFromEnv(int fallback) {
  const char* v = std::getenv("SQLFACIL_WAL_FSYNC_EVERY");
  if (v == nullptr) return fallback;
  const int every = std::atoi(v);
  return every >= 1 ? every : fallback;
}

uint64_t GetWalCheckpointBytesFromEnv(uint64_t fallback) {
  return GetEnvBytes("SQLFACIL_WAL_CHECKPOINT_BYTES", fallback);
}

int GetLifecycleModeFromEnv() {
  const char* v = std::getenv("SQLFACIL_LIFECYCLE");
  if (v == nullptr) return 0;
  const std::string s(v);
  if (s == "shadow" || s == "1") return 1;
  if (s == "auto" || s == "2") return 2;
  return 0;
}

int GetShadowWindowFromEnv(int fallback) {
  const char* v = std::getenv("SQLFACIL_SHADOW_WINDOW");
  if (v == nullptr) return fallback;
  const int window = std::atoi(v);
  return window >= 1 ? window : fallback;
}

double GetRollbackDeltaFromEnv(double fallback) {
  const char* v = std::getenv("SQLFACIL_ROLLBACK_DELTA");
  if (v == nullptr) return fallback;
  const double delta = std::atof(v);
  return delta >= 0.0 ? delta : fallback;
}

double GetDriftThresholdFromEnv(double fallback) {
  const char* v = std::getenv("SQLFACIL_DRIFT_THRESHOLD");
  if (v == nullptr) return fallback;
  const double threshold = std::atof(v);
  return (threshold > 0.0 && threshold <= 1.0) ? threshold : fallback;
}

int GetWalRecoverFromEnv() {
  const char* v = std::getenv("SQLFACIL_WAL_RECOVER");
  if (v == nullptr) return 1;
  const std::string s(v);
  return s == "0" ? 0 : 1;
}

int GetSimdFromEnv() {
  const char* v = std::getenv("SQLFACIL_SIMD");
  if (v == nullptr) return -1;
  const std::string s(v);
  if (s == "0") return 0;
  if (s == "1") return 1;
  return -1;
}

int GetPrecisionFromEnv() {
  const char* v = std::getenv("SQLFACIL_PRECISION");
  if (v == nullptr) return -1;
  const std::string s(v);
  if (s == "fp32" || s == "0") return 0;
  if (s == "int8" || s == "1") return 1;
  return -1;
}

}  // namespace sqlfacil
