#!/usr/bin/env bash
# Build and run the whole test suite under a sanitizer configuration.
#
#   scripts/run_sanitized.sh [sanitizers] [build-dir]
#
# Defaults: sanitizers=address,undefined, build-dir=build-asan — except that
# `thread` defaults its build dir to build-tsan so ASan and TSan trees never
# share object files (they are link-incompatible). The normal `build/` tree
# is left untouched so a sanitized run never forces a full rebuild of the
# day-to-day configuration.
#
#   scripts/run_sanitized.sh thread        # ThreadSanitizer over the suite
#
# TSan races are suppressed only via scripts/tsan.supp, which documents each
# entry; a new race must be fixed, not suppressed.
set -euo pipefail

SANITIZERS="${1:-address,undefined}"
if [ "$SANITIZERS" = "thread" ]; then
  DEFAULT_DIR=build-tsan
else
  DEFAULT_DIR=build-asan
fi
BUILD_DIR="${2:-$DEFAULT_DIR}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

# ccache, when installed, makes repeat sanitizer builds near-free (CI caches
# ~/.cache/ccache across runs); a machine without it builds exactly as before.
LAUNCHER_ARGS=()
if command -v ccache >/dev/null 2>&1; then
  LAUNCHER_ARGS=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

cmake -B "$ROOT/$BUILD_DIR" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDCFA_SANITIZE="$SANITIZERS" \
  ${LAUNCHER_ARGS[@]+"${LAUNCHER_ARGS[@]}"}
cmake --build "$ROOT/$BUILD_DIR" -j "$(nproc)"

# halt_on_error so a sanitizer report fails the suite instead of scrolling by.
# The traffic soak stretches to 13 ranks here: more ranks means more
# interleavings of protocol state for the sanitizers to chew on than the
# default 9.
# The hang watchdog (tests/watchdog.cpp) gets a doubled deadline: sanitizer
# instrumentation slows everything down, and a false watchdog abort would
# read as a hang that never happened.
export DCFA_TEST_DEADLINE_MS="${DCFA_TEST_DEADLINE_MS:-480000}"
DCFA_SOAK_RANKS="${DCFA_SOAK_RANKS:-13}" \
ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:halt_on_error=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1:suppressions=$ROOT/scripts/tsan.supp}" \
  ctest --test-dir "$ROOT/$BUILD_DIR" --output-on-failure -j "$(nproc)"

# Rank-failure recovery is the most teardown-heavy path in the repo (mid-
# flight schedule cancellation, revoked comms, shrink agreement), so drive
# the survivor_soak scenario under the same sanitizer build with DcfaCheck
# at full paranoia — races and leaks in the death path show up here first.
DCFA_CHECK=full \
ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:halt_on_error=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1:suppressions=$ROOT/scripts/tsan.supp}" \
  "$ROOT/$BUILD_DIR/bench/traffic_gen" --quick --scenario survivor_soak

# The RMA torture test is the one-sided counterpart: every rank runs
# randomized lock/put/accumulate/flush epochs against every other rank
# concurrently (plus a rank-kill mid-epoch scenario), so the passive-target
# ledgers, doorbell channels and window teardown all get sanitizer + full-
# checker coverage in one go — same explicit treatment as survivor_soak.
DCFA_CHECK=full \
ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:halt_on_error=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1:suppressions=$ROOT/scripts/tsan.supp}" \
  "$ROOT/$BUILD_DIR/tests/test_rma_random"
