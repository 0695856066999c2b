#!/bin/sh
# Seeded chaos gate for the model lifecycle (ISSUE 10): per seed,
# tools/lifecycle_bench drives >= 50 hot swaps through the full
# SwapController state machine (shadow -> gate -> promote -> watch) while
# paced closed-loop clients hammer the serving front end, with
#   * a lifecycle.swap error-mode failpoint failing every 7th registry
#     publish (the incumbent must stay live and the round must retry),
#   * injected-regression rounds (a prediction-flipping wrapper is
#     force-promoted past the gate) that MUST auto-roll back within the
#     watch window — and the same broken candidate submitted through the
#     shadow gate MUST be rejected,
#   * a drift leg: a schema-shifted trace must alarm the DriftDetector,
#     StreamTrainer must retrain on the shifted window, and the retrained
#     candidate goes back through the gate,
#   * zero failed requests end to end (the bench exits non-zero if any
#     Call fails or any reply lands on the failed tier).
#
# Exits 0 and prints CI_LIFECYCLE_OK when every seed survives.
# Usage: scripts/check_lifecycle.sh [build-dir] [swaps] [seeds...]
set -u
BUILD_DIR="${1:-build}"
SWAPS="${2:-60}"
if [ $# -ge 3 ]; then
  shift 2
  SEEDS="$*"
else
  SEEDS="1 2 3"
fi
TOOL="$BUILD_DIR/tools/lifecycle_bench"

if [ ! -x "$TOOL" ]; then
  echo "missing $TOOL; build first (cmake --build $BUILD_DIR -j)" >&2
  exit 1
fi

for seed in $SEEDS; do
  echo "== lifecycle chaos (seed $seed, $SWAPS swaps, lifecycle.swap storm) =="
  out="$(SQLFACIL_FAILPOINTS="lifecycle.swap:error@n7" \
         "$TOOL" --swaps "$SWAPS" --seed "$seed" --qps 300)" || {
    echo "$out"
    echo "CI_LIFECYCLE_FAILED: seed $seed" >&2
    exit 1
  }
  echo "$out"
  if ! echo "$out" | grep -q "LIFECYCLE_BENCH_OK"; then
    echo "CI_LIFECYCLE_FAILED: seed $seed (no OK marker)" >&2
    exit 1
  fi
  # The storm must actually have exercised the retry path: with every 7th
  # publish failing, a clean run still reports publish_failures > 0.
  if ! echo "$out" | grep -q "publish_failures=[1-9]"; then
    echo "CI_LIFECYCLE_FAILED: seed $seed (failpoint storm never fired)" >&2
    exit 1
  fi
done

echo "CI_LIFECYCLE_OK"
