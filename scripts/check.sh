#!/usr/bin/env bash
# Full verification pass — lint first (fastest feedback), then two
# sanitizer trees:
#   0. Static analysis via scripts/lint.sh: the repo-specific
#      determinism lint, plus clang-tidy and the Clang thread-safety
#      build when those tools are installed (DESIGN.md §11).
#   1. AddressSanitizer + UndefinedBehaviorSanitizer over the whole test
#      suite (memory and UB coverage).
#   2. ThreadSanitizer over the concurrency-heavy suites — the MapReduce
#      runtime, the zero-copy record path, the fault-tolerance scheduler
#      whose speculative attempts race by design, and the multi-tenant
#      admission controller whose FIFO queues block across threads.
# Use this before sending a change for review; the plain `build/` tree
# stays untouched for fast iteration.
#
# Usage: scripts/check.sh [--lint-only|--analyze-only|--tsan-only]
#        [asan-dir] [tsan-dir]   (defaults: build-asan build-tsan)
#        --analyze-only runs just the cross-TU analyzer phase
#        (scripts/lint.sh --analyze-only, DESIGN.md §16).
#
# Environment:
#   JOBS   parallelism for builds and ctest (default: nproc). CI runners
#          set this below their core count to avoid memory pressure.
#
# Exit codes (CI maps these to named annotations):
#   0   clean
#   30  lint phase failed (scripts/lint.sh: determinism lint findings,
#       clang-tidy errors, or -Werror=thread-safety errors)
#   40  cross-TU analyzer phase failed (determinism-taint/layering
#       findings or a stale baseline; scripts/lint.sh phase 4)
#   10  ASan/UBSan phase failed (build or tests)
#   20  TSan phase failed (build or tests)
#   2   usage error
set -uo pipefail

cd "$(dirname "$0")/.."

TSAN_ONLY=0
LINT_ONLY=0
if [[ "${1:-}" == "--tsan-only" ]]; then
  TSAN_ONLY=1
  shift
elif [[ "${1:-}" == "--lint-only" ]]; then
  LINT_ONLY=1
  shift
elif [[ "${1:-}" == "--analyze-only" ]]; then
  if ! scripts/lint.sh --analyze-only; then
    echo "check.sh: analyzer phase FAILED" >&2
    exit 40
  fi
  echo "check.sh: analyzer phase passed (--analyze-only)"
  exit 0
fi
if [[ "${1:-}" == --* ]]; then
  echo "check.sh: unknown flag '$1'" >&2
  echo "usage: scripts/check.sh [--lint-only|--analyze-only|--tsan-only] [asan-dir] [tsan-dir]" >&2
  exit 2
fi

BUILD_DIR="${1:-build-asan}"
TSAN_DIR="${2:-build-tsan}"
JOBS="${JOBS:-$(nproc)}"
SAN_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer -fno-sanitize-recover=all"
TSAN_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"

# The TSan pass is kept to the suites that exercise real concurrency so
# the (slow) TSan runtime stays affordable:
#   - mapreduce_test: thread pool, shuffle, parallel map/reduce
#   - zero_copy_test: shared block arenas across map attempts
#   - fault_test: retries + speculative attempt races, commit-once CAS
#   - robustness_test: fault-matrix sweep over whole operations
#   - admission_test: cross-thread FIFO admission, quota blocking, lane
#     accounting under concurrent tenants
#   - catalog_test: snapshot reads racing concurrent catalog appends
#   - index_builder_test: partition blocks laid out on the thread pool
TSAN_SUITES=(mapreduce_test zero_copy_test fault_test robustness_test
             admission_test catalog_test server_test index_builder_test)

asan_phase() {
  cmake -B "${BUILD_DIR}" -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="${SAN_FLAGS}" \
    -DCMAKE_EXE_LINKER_FLAGS="${SAN_FLAGS}" &&
  cmake --build "${BUILD_DIR}" -j "${JOBS}" &&
  # The zero-copy lifetime suite first and on its own: it holds record
  # views across arena growth/eviction, so a broken lifetime contract
  # must surface here as a sanitizer report before the full run.
  ctest --test-dir "${BUILD_DIR}" --output-on-failure -R zero_copy_test &&
  ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"
}

tsan_phase() {
  local regex
  regex="^($(IFS='|'; echo "${TSAN_SUITES[*]}"))\$"
  cmake -B "${TSAN_DIR}" -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="${TSAN_FLAGS}" \
    -DCMAKE_EXE_LINKER_FLAGS="${TSAN_FLAGS}" &&
  cmake --build "${TSAN_DIR}" -j "${JOBS}" --target "${TSAN_SUITES[@]}" &&
  TSAN_OPTIONS="halt_on_error=1" ctest --test-dir "${TSAN_DIR}" \
    --output-on-failure -R "${regex}"
}

# Lint runs first: it is seconds where the sanitizer trees are minutes,
# so a banned pattern or lock-discipline break fails fast.
if [[ "${TSAN_ONLY}" -eq 0 ]]; then
  scripts/lint.sh
  lint_code=$?
  if [[ "${lint_code}" -eq 40 ]]; then
    echo "check.sh: analyzer phase FAILED" >&2
    exit 40
  elif [[ "${lint_code}" -ne 0 ]]; then
    echo "check.sh: lint phase FAILED" >&2
    exit 30
  fi
fi
if [[ "${LINT_ONLY}" -eq 1 ]]; then
  echo "check.sh: lint phase passed (--lint-only)"
  exit 0
fi

if [[ "${TSAN_ONLY}" -eq 0 ]]; then
  if ! asan_phase; then
    echo "check.sh: ASan/UBSan phase FAILED" >&2
    exit 10
  fi
fi

if ! tsan_phase; then
  echo "check.sh: TSan phase FAILED" >&2
  exit 20
fi

echo "check.sh: all sanitizer phases passed"
