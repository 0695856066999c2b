#ifndef SQLFACIL_UTIL_ENV_H_
#define SQLFACIL_UTIL_ENV_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace sqlfacil {

/// Reads SQLFACIL_SCALE from the environment (default 1.0). Bench binaries
/// multiply their default workload sizes by this factor, so a full-scale run
/// is `SQLFACIL_SCALE=10 ./bench/...` while CI uses the small default.
double GetScaleFromEnv();

/// Reads SQLFACIL_EPOCHS (default `fallback`); overrides per-model training
/// epochs in the bench harness.
int GetEpochsFromEnv(int fallback);

/// Reads SQLFACIL_SEED (default `fallback`); the master seed for a bench run.
uint64_t GetSeedFromEnv(uint64_t fallback);

/// Reads SQLFACIL_THREADS (default: hardware_concurrency, at least 1); the
/// worker count of the global ThreadPool. Values < 1 fall back to the
/// default. 1 disables parallelism entirely.
int GetThreadsFromEnv();

/// Reads SQLFACIL_SIMD: 0 forces the scalar kernels, 1 requests the vector
/// kernels (still subject to CPU support), unset/other returns -1 meaning
/// auto-detect.
int GetSimdFromEnv();

/// Reads SQLFACIL_PRECISION: "int8" selects the quantized inference tier,
/// "fp32" the float tier, unset/other returns -1 meaning the default (fp32).
int GetPrecisionFromEnv();

/// Reads SQLFACIL_SNAPSHOT_DIR: the directory training snapshots are written
/// to (and resumed from). Empty / unset disables snapshotting.
std::string GetSnapshotDirFromEnv();

/// Reads SQLFACIL_SNAPSHOT_EVERY (default `fallback`): write a training
/// snapshot every N completed epochs. Values < 1 fall back.
int GetSnapshotEveryFromEnv(int fallback);

/// Parses a size-suffixed byte count: a plain integer, or one followed by
/// K/M/G (powers of 1024) with an optional trailing B, case-insensitive —
/// "4096", "64M", "1g", "512KB". Returns `fallback` on unset, malformed,
/// or negative input.
uint64_t GetEnvBytes(const char* name, uint64_t fallback);

/// Reads SQLFACIL_BUFFER_POOL_PAGES (default `fallback` pages): the
/// buffer-pool capacity of each disk-backed table. A bare integer is a
/// page count; a size-suffixed value ("64M") is a byte budget converted
/// to 4KiB pages. Values < 1 page fall back.
size_t GetBufferPoolPagesFromEnv(size_t fallback);

/// Reads SQLFACIL_DATA_DIR: where disk-backed storage writes its
/// (ephemeral) table files. Default: TMPDIR if set, else /tmp.
std::string GetDataDirFromEnv();

/// Reads SQLFACIL_STORAGE: "disk" selects the disk-backed table storage,
/// "mem" the in-memory columnar backend, unset/other returns 0 (mem).
int GetStorageModeFromEnv();

/// Reads SQLFACIL_DURABILITY: "wal"/"1" enables write-ahead logging +
/// crash recovery for disk-backed tables (files survive process exit),
/// "none"/"0"/unset returns 0 (ephemeral scratch files, the PR 8
/// behaviour).
int GetDurabilityFromEnv();

/// Reads SQLFACIL_WAL_FSYNC_EVERY (default `fallback`): group-commit
/// batch size — the WAL is fsynced once per N appended rows (1 = every
/// row durable immediately). Values < 1 fall back.
int GetWalFsyncEveryFromEnv(int fallback);

/// Reads SQLFACIL_WAL_CHECKPOINT_BYTES (default `fallback`, size
/// suffixes allowed): a fuzzy checkpoint is taken and the log truncated
/// once the log grows past this many bytes. 0 disables auto-checkpoints.
uint64_t GetWalCheckpointBytesFromEnv(uint64_t fallback);

/// Reads SQLFACIL_LIFECYCLE: "off"/"0"/unset returns 0 (lifecycle
/// disabled — candidates are rejected), "shadow"/"1" returns 1 (shadow
/// scoring only, verdicts recorded but nothing is ever published),
/// "auto"/"2" returns 2 (gated promotion + automatic rollback).
int GetLifecycleModeFromEnv();

/// Reads SQLFACIL_SHADOW_WINDOW (default `fallback`): how many live
/// samples a candidate is shadow-scored on before the promotion gate is
/// evaluated (also the post-promotion watch window). Values < 1 fall back.
int GetShadowWindowFromEnv(int fallback);

/// Reads SQLFACIL_ROLLBACK_DELTA (default `fallback`): the accuracy
/// regression (absolute, 0..1) a candidate may show versus the incumbent
/// before the gate rejects it, and the live-accuracy drop after promotion
/// that triggers automatic rollback. Negative values fall back.
double GetRollbackDeltaFromEnv(double fallback);

/// Reads SQLFACIL_DRIFT_THRESHOLD (default `fallback`): the label-histogram
/// total-variation distance (0..1) past which the drift detector alarms.
/// Values outside (0, 1] fall back.
double GetDriftThresholdFromEnv(double fallback);

/// Reads SQLFACIL_WAL_RECOVER (default 1): whether opening a durable
/// table runs recovery over existing files. 0 truncates them instead
/// (fresh durable table) — used by test harnesses that reuse table names
/// across cases.
int GetWalRecoverFromEnv();

}  // namespace sqlfacil

#endif  // SQLFACIL_UTIL_ENV_H_
