#!/usr/bin/env bash
# Wall-clock benchmark of the spatial hot path against a baseline
# revision. Builds bench_hotpath in Release mode twice — once in this
# tree, once in a `git archive` copy of the baseline ref (default:
# HEAD~1) with the same harness source copied in — runs both with
# identical fixed seeds, and merges the reports into ${OUT}.
# Besides the zero-copy benchmarks, the harness also runs the
# fault-recovery scenario (5% task failures + stragglers), the
# incremental-ingest scenario (catalog appends vs a full rebuild), the
# server-saturation scenario (concurrent tenant sessions through the
# query server, reporting simulated p50/p99 request latencies), and the
# optimizer-planning scenario (cost-based join/range/index planning,
# whose row checksum pins every EXPLAIN plan line and must be identical
# across reruns and admission seeds). The harness compiles only against
# trees that have all of those subsystems (the default baseline and
# anything later), so both sides run every scenario.
#
# The two binaries alternate rep by rep (baseline first on odd reps,
# current first on even ones), so host drift and warm-up fall on both
# sides alike. The merged report gives each side's median wall time with
# its min/max spread; the speedup is the ratio of the medians.
#
# Fails if the parse-once invariant is violated (geometry parses exceed
# the record-visit bound of any benchmark in the current tree), if a
# checksum differs between reps, or if the fault-injected sweep's rows
# diverge from the clean run.
#
# Usage: scripts/bench.sh [baseline-ref]        (default: HEAD~1)
#        REPS=5 OUT=BENCH_pr<N>.json scripts/bench.sh   (env overrides)
# The default OUT stays inside the ignored build-bench/ tree; name a
# BENCH_pr<N>.json explicitly for a report that is meant to be committed.
set -euo pipefail

cd "$(dirname "$0")/.."
BASELINE_REF="${1:-HEAD~1}"
REPS="${REPS:-5}"
OUT="${OUT:-build-bench/BENCH.json}"
BASELINE_DIR=".bench-baseline"

echo "== building current tree (Release) =="
cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-bench -j "$(nproc)" --target bench_hotpath

echo "== preparing baseline copy (${BASELINE_REF}) =="
rm -rf "${BASELINE_DIR}"
mkdir -p "${BASELINE_DIR}"
trap 'rm -rf "'"${BASELINE_DIR}"'"' EXIT
git archive "${BASELINE_REF}" | tar -x -C "${BASELINE_DIR}"

# The harness itself rides along: the baseline needs only the source
# file and a target registration.
cp bench/bench_hotpath.cc "${BASELINE_DIR}/bench/"
if ! grep -q bench_hotpath "${BASELINE_DIR}/bench/CMakeLists.txt"; then
  cat >> "${BASELINE_DIR}/bench/CMakeLists.txt" <<'EOF'

add_executable(bench_hotpath bench_hotpath.cc)
target_link_libraries(bench_hotpath PRIVATE
  shadoop_core shadoop_index shadoop_mapreduce shadoop_hdfs
  shadoop_geometry shadoop_workload shadoop_common Threads::Threads)
EOF
fi

echo "== building baseline (Release) =="
cmake -B "${BASELINE_DIR}/build-bench" -S "${BASELINE_DIR}" \
  -DCMAKE_BUILD_TYPE=Release
cmake --build "${BASELINE_DIR}/build-bench" -j "$(nproc)" \
  --target bench_hotpath

BASELINE_LABEL="baseline-$(git rev-parse --short "${BASELINE_REF}")"
CURRENT_LABEL="current-$(git rev-parse --short HEAD)"
run_baseline() {
  "${BASELINE_DIR}/build-bench/bench/bench_hotpath" \
    --label "${BASELINE_LABEL}" --reps 1 --out "$1"
}
run_current() {
  ./build-bench/bench/bench_hotpath \
    --label "${CURRENT_LABEL}" --reps 1 --out "$1"
}

BASELINE_RUNS=()
CURRENT_RUNS=()
for ((rep = 1; rep <= REPS; ++rep)); do
  base_out="build-bench/baseline.${rep}.json"
  cur_out="build-bench/current.${rep}.json"
  if ((rep % 2 == 1)); then
    echo "== rep ${rep}/${REPS}: baseline, then current =="
    run_baseline "${base_out}"
    run_current "${cur_out}"
  else
    echo "== rep ${rep}/${REPS}: current, then baseline =="
    run_current "${cur_out}"
    run_baseline "${base_out}"
  fi
  BASELINE_RUNS+=("${base_out}")
  CURRENT_RUNS+=("${cur_out}")
done

echo "== merging -> ${OUT} =="
./build-bench/bench/bench_hotpath --merge \
  "$(IFS=,; echo "${BASELINE_RUNS[*]}")" \
  "$(IFS=,; echo "${CURRENT_RUNS[*]}")" > "${OUT}"
cat "${OUT}"

# Trajectory check: a scenario whose speedup drops versus the previous
# PR's report is a regression in the making (spatial_join slid
# 1.10x -> 1.05x between pr3 and pr6 with nothing saying so). Compare
# each scenario against the newest committed BENCH_pr*.json other than
# ${OUT} and warn — advisory, not blocking, because reports may span
# runners; the same-runner wall-clock bound stays the blocking check.
PREV=""
for report in $(ls BENCH_pr*.json 2>/dev/null | sort -V); do
  [ "${report}" = "${OUT}" ] && continue
  PREV="${report}"
done
if [ -n "${PREV}" ]; then
  echo "== speedup trajectory vs ${PREV} =="
  awk -v prev="${PREV}" -v prev_name="${PREV}" '
    function row(line, arr) {
      if (match(line, /"name": "[^"]+"/) == 0) return ""
      name = substr(line, RSTART + 9, RLENGTH - 10)
      if (match(line, /"speedup": [-0-9.eE+]+/) == 0) return ""
      arr[name] = substr(line, RSTART + 11, RLENGTH - 11) + 0
      return name
    }
    FNR == NR { row($0, p); next }          # first file: previous report
    {
      name = row($0, c)
      # Rows either tree could not run carry speedup <= 0; skip them.
      if (name == "" || !(name in p) || p[name] <= 0 || c[name] <= 0) next
      printf "  %-20s %.2fx -> %.2fx", name, p[name], c[name]
      if (c[name] < p[name]) {
        printf "   WARNING: speedup fell vs %s", prev_name
        warned = 1
      }
      printf "\n"
    }
    END { if (warned) print "  (investigate before merging: a drop here compounds silently)" }
  ' "${PREV}" "${OUT}"
fi
