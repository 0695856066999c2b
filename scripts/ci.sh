#!/bin/sh
# Full local CI: tier-1 tests (Release), the failpoint fault-injection
# matrix, the chaos harnesses, a smoke run of the benchmark, then the
# ASan, TSan and UBSan suites.
# Usage: scripts/ci.sh [build-dir]   (default: build; the benchmark builds
#        into <build-dir>-perfbench)
# Exits non-zero on the first failing stage; prints one loud status line
# per stage so logs are greppable (CI_TESTS_OK / CI_INT8_TESTS_OK /
# CI_DISK_TESTS_OK / CI_WAL_TESTS_OK / CI_FAILPOINT_MATRIX_OK /
# CI_STORAGE_MATRIX_OK / CI_WAL_MATRIX_OK / CI_SERVING_SOAK_OK /
# CI_LIFECYCLE_OK / CI_PERFBENCH_OK / RESUME_CHAOS_OK /
# CI_CRASH_RECOVERY_OK / ASAN_CLEAN / TSAN_CLEAN / UBSAN_CLEAN).
set -eu
BUILD_DIR="${1:-build}"

echo "== tier-1 tests (Release) =="
if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
fi
cmake --build "$BUILD_DIR" -j >/dev/null
if ! ctest --test-dir "$BUILD_DIR" --output-on-failure; then
  echo "CI_TESTS_FAILED" >&2
  exit 1
fi
echo "CI_TESTS_OK"

echo "== int8 precision tier =="
# Re-run the suite with the quantized tier active: every LSTM/CNN Predict
# dispatches the int8 kernels, and the same bit-identity / accuracy
# assertions must hold (the tier has its own determinism contract).
if ! SQLFACIL_PRECISION=int8 ctest --test-dir "$BUILD_DIR" --output-on-failure; then
  echo "CI_INT8_TESTS_FAILED" >&2
  exit 1
fi
echo "CI_INT8_TESTS_OK"

echo "== disk storage backend =="
# Re-run the engine suite with every table on the disk backend (slotted
# pages through the buffer pool, B+ tree indexes): the same results and
# statistics assertions must hold as in mem mode, plus the dedicated
# storage-layer suite (disk manager, LRU-K, buffer pool, heap, B+ tree).
if ! "$BUILD_DIR/tests/storage_test"; then
  echo "CI_DISK_TESTS_FAILED" >&2
  exit 1
fi
if ! SQLFACIL_STORAGE=disk SQLFACIL_BUFFER_POOL_PAGES=64 \
    "$BUILD_DIR/tests/engine_test"; then
  echo "CI_DISK_TESTS_FAILED" >&2
  exit 1
fi
echo "CI_DISK_TESTS_OK"

echo "== durable (WAL) storage =="
# The WAL/recovery suite, then the engine suite with every table durable:
# each append is logged before it touches a page and data files get stable
# names. SQLFACIL_WAL_RECOVER=0 starts each table fresh — engine_test
# reuses table names across cases, and recovery across unrelated schemas
# is exercised by wal_test itself.
if ! "$BUILD_DIR/tests/wal_test"; then
  echo "CI_WAL_TESTS_FAILED" >&2
  exit 1
fi
WAL_DIR="${TMPDIR:-/tmp}/sqlfacil_ci_wal_$$"
mkdir -p "$WAL_DIR"
if ! SQLFACIL_STORAGE=disk SQLFACIL_DURABILITY=wal SQLFACIL_WAL_RECOVER=0 \
    SQLFACIL_DATA_DIR="$WAL_DIR" SQLFACIL_BUFFER_POOL_PAGES=64 \
    "$BUILD_DIR/tests/engine_test"; then
  rm -rf "$WAL_DIR"
  echo "CI_WAL_TESTS_FAILED" >&2
  exit 1
fi
rm -rf "$WAL_DIR"
echo "CI_WAL_TESTS_OK"

echo "== failpoint matrix =="
# Hard faults drive the end-to-end degradation chain: serving must answer
# from a lower tier (or return a typed error), never abort.
for spec in \
  "model.predict:throw" \
  "checkpoint.read:corrupt" \
  "checkpoint.write:error" \
  "cache.get:error;model.predict:throw@n2"; do
  echo "-- resilience_test end-to-end under SQLFACIL_FAILPOINTS='$spec' --"
  if ! SQLFACIL_FAILPOINTS="$spec" "$BUILD_DIR/tests/resilience_test" \
      --gtest_filter='ResilienceEndToEndTest.EndToEndUnderEnvFailpoints'; then
    echo "CI_FAILPOINT_MATRIX_FAILED" >&2
    exit 1
  fi
done
# Benign delay-mode faults across the full serving suite: added latency
# must never change results (the suite's bit-identity assertions still hold).
for spec in "cache.get:delay(1)@n10;model.predict:delay(1)@n25"; do
  echo "-- serving_test under SQLFACIL_FAILPOINTS='$spec' --"
  if ! SQLFACIL_FAILPOINTS="$spec" "$BUILD_DIR/tests/serving_test"; then
    echo "CI_FAILPOINT_MATRIX_FAILED" >&2
    exit 1
  fi
done
# Snapshot-layer faults: failed/corrupted snapshot saves, unreadable or
# damaged loads, and a rename failure during the atomic install must
# degrade durability only — training still runs to completion, and a
# damaged snapshot cold-starts the next run instead of diverging it.
for spec in \
  "train.snapshot_save:error" \
  "train.snapshot_load:corrupt" \
  "train.snapshot_save:corrupt;train.snapshot_load:error@n2" \
  "checkpoint.rename:error"; do
  echo "-- resume_test end-to-end under SQLFACIL_FAILPOINTS='$spec' --"
  if ! SQLFACIL_FAILPOINTS="$spec" "$BUILD_DIR/tests/resume_test" \
      --gtest_filter='ResumeEndToEndTest.TrainsToCompletionUnderEnvFailpoints'; then
    echo "CI_FAILPOINT_MATRIX_FAILED" >&2
    exit 1
  fi
done
echo "CI_FAILPOINT_MATRIX_OK"

echo "== storage failpoint matrix =="
# Disk-layer faults against the paging query path: reads failing or
# throwing mid-scan, evictions failing under pool pressure. Queries must
# surface typed storage errors while faults are armed and return
# bit-identical answers once they clear — no torn pages, no stuck pins.
for spec in \
  "disk.read:throw@n3" \
  "disk.read:error@n5" \
  "disk.write:throw@n4" \
  "bufferpool.evict:throw@n2" \
  "disk.read:error@n6;bufferpool.evict:error@n3"; do
  echo "-- resilience_test storage end-to-end under SQLFACIL_FAILPOINTS='$spec' --"
  if ! SQLFACIL_FAILPOINTS="$spec" "$BUILD_DIR/tests/resilience_test" \
      --gtest_filter='StorageResilienceTest.EndToEndUnderEnvStorageFailpoints'; then
    echo "CI_STORAGE_MATRIX_FAILED" >&2
    exit 1
  fi
done
echo "CI_STORAGE_MATRIX_OK"

echo "== WAL failpoint matrix =="
# Log-layer faults against a durable load + reopen: failed appends must
# leave pages untouched (typed error, no torn tuple), failed fsyncs must
# keep records pending, a corrupted record must stop recovery at the
# crash frontier, and faults during the redo pass must surface as typed
# errors with a clean retry. Whatever prefix survives must read back
# bit-identical after reopen.
for spec in \
  "wal.append:error@n40" \
  "wal.append:corrupt@n60" \
  "wal.fsync:error@n3" \
  "disk.short_write:error@n2" \
  "wal.append:error@p0.02/11;wal.fsync:error@p0.05/12"; do
  echo "-- wal_test durable load under SQLFACIL_FAILPOINTS='$spec' --"
  if ! SQLFACIL_FAILPOINTS="$spec" "$BUILD_DIR/tests/wal_test" \
      --gtest_filter='DurableTableTest.DurableLoadUnderEnvWalFailpoints'; then
    echo "CI_WAL_MATRIX_FAILED" >&2
    exit 1
  fi
done
echo "CI_WAL_MATRIX_OK"

echo "== serving soak =="
# Closed-loop load against the full serving front end while the primary
# model throws on every 40th predict: each shard's breaker must absorb the
# faults and answer from a degraded tier — zero outright-failed requests
# (serve_bench exits non-zero if any request ends kInternal).
if ! SQLFACIL_FAILPOINTS="model.predict:throw@n40" \
    "$BUILD_DIR/tools/serve_bench" --rates 0 --clients 16 --shards 2 \
    --duration-s 0.3 --warmup-s 0.05 --precision fp32 --train-n 64 \
    --trace-len 64; then
  echo "CI_SERVING_SOAK_FAILED" >&2
  exit 1
fi
echo "CI_SERVING_SOAK_OK"

echo "== lifecycle chaos =="
# Seeded swap storm through the model lifecycle: >= 50 hot swaps per seed
# under paced load with every 7th registry publish failed by the
# lifecycle.swap failpoint, injected-regression rounds that must
# auto-roll back, shadow-gate rejections of a known-bad candidate, and a
# drift-detect -> stream-retrain -> gate leg. Zero failed requests
# (scripts/check_lifecycle.sh prints CI_LIFECYCLE_OK).
if ! scripts/check_lifecycle.sh "$BUILD_DIR"; then
  echo "CI_LIFECYCLE_FAILED" >&2
  exit 1
fi

echo "== benchmark smoke run =="
# perfbench/ (BENCHMARK.json) compiles against the library's serving,
# model and storage APIs but lives outside the main build: build it beside
# the main tree, check its ledger arithmetic, and run every workload
# briefly with the per-layer ledger on. perfbench exits 0 only when every
# correctness check passed (failed=0).
PERF_DIR="$BUILD_DIR-perfbench"
if [ ! -f "$PERF_DIR/CMakeCache.txt" ]; then
  cmake -S perfbench -B "$PERF_DIR" -DCMAKE_BUILD_TYPE=Release >/dev/null
fi
cmake --build "$PERF_DIR" -j --target perfbench perfbench_ledger_test \
  >/dev/null
if ! "$PERF_DIR/perfbench_ledger_test"; then
  echo "CI_PERFBENCH_FAILED" >&2
  exit 1
fi
PERF_WORK="${TMPDIR:-/tmp}/sqlfacil_ci_perfbench_$$"
for workload in serve_session pipeline label_disk; do
  echo "-- perfbench --workload $workload --seconds 4 --trace 1 --"
  if ! "$PERF_DIR/perfbench" --workload "$workload" --seed 1 --seconds 4 \
      --trace 1 --work-dir "$PERF_WORK/$workload"; then
    rm -rf "$PERF_WORK"
    echo "CI_PERFBENCH_FAILED" >&2
    exit 1
  fi
done
rm -rf "$PERF_WORK"
echo "CI_PERFBENCH_OK"

echo "== kill/resume chaos =="
# Seeded SIGKILL storm over every model family x threads x SIMD: resumed
# runs must finish with bit-identical weights and ValidLoss trajectories.
if ! scripts/check_resume.sh "$BUILD_DIR"; then
  echo "CI_RESUME_CHAOS_FAILED" >&2
  exit 1
fi

echo "== crash recovery storm =="
# Seeded SIGKILL storm against the durable storage engine: after every
# kill the reopened table must hold a bit-identical prefix of the
# pre-crash rows, honor the durable watermark, and rebuild a consistent
# B+ tree (scripts/check_crash.sh prints CRASH_RECOVERY_OK).
if ! scripts/check_crash.sh "$BUILD_DIR"; then
  echo "CI_CRASH_RECOVERY_FAILED" >&2
  exit 1
fi
echo "CI_CRASH_RECOVERY_OK"

echo "== sanitizers =="
scripts/check_sanitizer.sh address
scripts/check_sanitizer.sh thread
scripts/check_sanitizer.sh undefined

echo "CI_PASSED"
