#!/bin/sh
# Builds the tree under one sanitizer and runs its leg: the ctest suites
# labelled for it in tests/CMakeLists.txt (plain, then the `-int8` label
# with SQLFACIL_PRECISION=int8), then the sanitizer's own extra runs.
# Usage: scripts/check_sanitizer.sh address|thread|undefined [build-dir]
#        (default build-dir: build-asan, build-tsan or build-ubsan)
# Prints ASAN_CLEAN / TSAN_CLEAN / UBSAN_CLEAN, or *_FAILURES.
set -eu
case "${1:-}" in
  address) TAG=asan ;;
  thread) TAG=tsan ;;
  undefined) TAG=ubsan ;;
  *)
    echo "usage: scripts/check_sanitizer.sh address|thread|undefined [build-dir]" >&2
    exit 2
    ;;
esac
MODE="$1"
NAME=$(echo "$TAG" | tr '[:lower:]' '[:upper:]')
BUILD_DIR="${2:-build-$TAG}"
cmake -B "$BUILD_DIR" -S . -DSQLFACIL_SANITIZE="$MODE" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null

suites() {
  ctest --test-dir "$BUILD_DIR" -N -L "^$1\$" |
    sed -n 's/^ *Test *#[0-9]*: *//p'
}
case "$MODE" in
  address) TOOLS="engine_test storage_crash lifecycle_bench" ;;
  thread) TOOLS="serve_bench lifecycle_bench" ;;
  undefined) TOOLS="engine_test" ;;
esac
# shellcheck disable=SC2046  # suite names are single words
cmake --build "$BUILD_DIR" -j "$(nproc)" --target $(suites "$TAG") $TOOLS

status=0
run() {
  echo "== $1 ($NAME) =="
  shift
  if ! "$@"; then
    status=1
  fi
}
run "labelled suites" ctest --test-dir "$BUILD_DIR" -L "^$TAG\$" \
  --output-on-failure
# Tier-sensitive suites again with the quantized kernels dispatched.
if [ -n "$(suites "$TAG-int8")" ]; then
  run "labelled suites, SQLFACIL_PRECISION=int8" env SQLFACIL_PRECISION=int8 \
    ctest --test-dir "$BUILD_DIR" -L "^$TAG-int8\$" --output-on-failure
fi

if [ "$MODE" != thread ]; then
  # Engine suite on the disk backend (slotted pages, buffer pool, B+ tree,
  # key encoding), then in durable (WAL) mode: log framing, recovery redo
  # and checkpoint serialization.
  run "engine_test, SQLFACIL_STORAGE=disk" env SQLFACIL_STORAGE=disk \
    SQLFACIL_BUFFER_POOL_PAGES=64 "$BUILD_DIR/tests/engine_test"
  WAL_DIR="${TMPDIR:-/tmp}/sqlfacil_${TAG}_wal_$$"
  mkdir -p "$WAL_DIR"
  run "engine_test, SQLFACIL_DURABILITY=wal" env SQLFACIL_STORAGE=disk \
    SQLFACIL_DURABILITY=wal SQLFACIL_WAL_RECOVER=0 \
    SQLFACIL_DATA_DIR="$WAL_DIR" SQLFACIL_BUFFER_POOL_PAGES=64 \
    "$BUILD_DIR/tests/engine_test"
  rm -rf "$WAL_DIR"
fi

if [ "$MODE" = address ]; then
  # Recovery's redo pass walks torn input after each kill, and lifecycle
  # swaps recycle model snapshots (use-after-free on a swapped-out version).
  run "crash storm, 24 kills" scripts/check_crash.sh "$BUILD_DIR" 20260809 24
  run "lifecycle chaos, 20 swaps" scripts/check_lifecycle.sh "$BUILD_DIR" 20 1
fi

if [ "$MODE" = thread ]; then
  # Latch races in the buffer pool's fetch/unpin/evict path, repeated.
  run "storage_test concurrent soak" "$BUILD_DIR/tests/storage_test" \
    --gtest_filter='*Concurrent*' --gtest_repeat=10
  # Concurrent clients, batcher threads, stats polling and shard caches.
  run "serve_bench soak" "$BUILD_DIR/tools/serve_bench" --rates 0 \
    --clients 8 --shards 2 --duration-s 0.2 --warmup-s 0.05 \
    --precision fp32 --train-n 48 --trace-len 64
  # Swap under concurrent predict: the registry's RCU publish, each
  # batch's version pin and the shard batcher threads all racing.
  run "lifecycle swap storm" "$BUILD_DIR/tests/lifecycle_test" \
    --gtest_filter='*SwapStorm*' --gtest_repeat=5
  run "lifecycle chaos, 20 swaps" scripts/check_lifecycle.sh "$BUILD_DIR" 20 1
fi

if [ "$status" -eq 0 ]; then
  echo "${NAME}_CLEAN"
else
  echo "${NAME}_FAILURES"
fi
exit "$status"
