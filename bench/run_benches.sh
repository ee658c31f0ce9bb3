#!/usr/bin/env bash
# Runs the bench binaries from a finished build tree and collects the
# perf-trajectory JSON.
#
#   bench/run_benches.sh [build-dir] [output-dir]
#
# build-dir  defaults to ./build
# output-dir defaults to the build dir; receives BENCH_parallel_sweep.json
#
# Every fresh BENCH_*.json is additionally diffed against the committed
# baseline in bench/baselines/ (when present): boolean gates like
# bit_identical must hold and throughput fields must stay within the
# baseline's max_regression (20% by default) — see bench/bench_compare.cpp.
# The committed absolute-throughput values are deliberately conservative
# (well below a healthy dev machine) so shared CI runners gate real
# collapses, not scheduler noise; ratio gates (speedup) are tight.
#   BENCH_SKIP_BASELINES=1   skip the comparison (e.g. unrelated hardware)
#   BENCH_WRITE_BASELINES=1  refresh the committed baselines instead
#
# The figure benches (fig*/abl_*/tab_*) reproduce paper data and are run
# with --benchmark_min_time to keep total wall time reasonable; they are
# skipped unless RUN_FIGURE_BENCHES=1 (they need Google Benchmark and
# take minutes).
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-${BUILD_DIR}}"
BASELINE_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)/baselines"

if [[ ! -d "${BUILD_DIR}" ]]; then
    echo "error: build directory '${BUILD_DIR}' not found (run cmake first)" >&2
    exit 1
fi
mkdir -p "${OUT_DIR}"

# Compares (or, with BENCH_WRITE_BASELINES=1, refreshes) one bench
# artifact against its committed baseline.  A missing baseline file or
# bench_compare binary is not an error — only committed contracts gate.
compare_baseline() {
    local artifact="$1"
    local baseline="${BASELINE_DIR}/$(basename "${artifact}")"
    [[ "${BENCH_SKIP_BASELINES:-0}" == "1" ]] && return 0
    [[ -x "${BUILD_DIR}/bench_compare" && -f "${baseline}" ]] || return 0
    if [[ "${BENCH_WRITE_BASELINES:-0}" == "1" ]]; then
        "${BUILD_DIR}/bench_compare" init "${artifact}" "${baseline}"
    else
        "${BUILD_DIR}/bench_compare" check "${artifact}" "${baseline}"
    fi
}

# ---- perf trajectory: serial vs parallel batch evaluation -------------------
if [[ -x "${BUILD_DIR}/bench_parallel_sweep" ]]; then
    echo "== bench_parallel_sweep =="
    "${BUILD_DIR}/bench_parallel_sweep" "${OUT_DIR}/BENCH_parallel_sweep.json"
    compare_baseline "${OUT_DIR}/BENCH_parallel_sweep.json"
else
    echo "error: ${BUILD_DIR}/bench_parallel_sweep not built" >&2
    exit 1
fi

# ---- perf trajectory: Study-API batch throughput ----------------------------
if [[ -x "${BUILD_DIR}/bench_study_batch" ]]; then
    echo "== bench_study_batch =="
    "${BUILD_DIR}/bench_study_batch" "${OUT_DIR}/BENCH_study_batch.json"
    compare_baseline "${OUT_DIR}/BENCH_study_batch.json"
else
    echo "error: ${BUILD_DIR}/bench_study_batch not built" >&2
    exit 1
fi

# ---- perf trajectory: study-compiler shared-work execution graph -----------
if [[ -x "${BUILD_DIR}/bench_study_graph" ]]; then
    echo "== bench_study_graph =="
    "${BUILD_DIR}/bench_study_graph" "${OUT_DIR}/BENCH_study_graph.json"
    compare_baseline "${OUT_DIR}/BENCH_study_graph.json"
else
    echo "error: ${BUILD_DIR}/bench_study_graph not built" >&2
    exit 1
fi

# ---- perf trajectory: heterogeneous design-space exploration ----------------
if [[ -x "${BUILD_DIR}/bench_design_space" ]]; then
    echo "== bench_design_space =="
    "${BUILD_DIR}/bench_design_space" "${OUT_DIR}/BENCH_design_space.json"
    compare_baseline "${OUT_DIR}/BENCH_design_space.json"
else
    echo "error: ${BUILD_DIR}/bench_design_space not built" >&2
    exit 1
fi

# ---- perf trajectory: actuaryd serving, cold vs warm cache ------------------
if [[ -x "${BUILD_DIR}/bench_serve" ]]; then
    echo "== bench_serve =="
    "${BUILD_DIR}/bench_serve" "${OUT_DIR}/BENCH_serve.json"
    compare_baseline "${OUT_DIR}/BENCH_serve.json"
else
    echo "error: ${BUILD_DIR}/bench_serve not built" >&2
    exit 1
fi

# ---- perf trajectory: persistent study-cache warm start ---------------------
if [[ -x "${BUILD_DIR}/bench_cache" ]]; then
    echo "== bench_cache =="
    "${BUILD_DIR}/bench_cache" "${OUT_DIR}/BENCH_cache.json"
    compare_baseline "${OUT_DIR}/BENCH_cache.json"
else
    echo "error: ${BUILD_DIR}/bench_cache not built" >&2
    exit 1
fi

# ---- paper figure benches (optional, Google Benchmark) ----------------------
if [[ "${RUN_FIGURE_BENCHES:-0}" == "1" ]]; then
    for bench in "${BUILD_DIR}"/fig* "${BUILD_DIR}"/abl_* "${BUILD_DIR}"/tab_*; do
        [[ -x "${bench}" && ! -d "${bench}" ]] || continue
        name="$(basename "${bench}")"
        echo "== ${name} =="
        "${bench}" --benchmark_min_time=0.05s \
            --benchmark_out="${OUT_DIR}/BENCH_${name}.json" \
            --benchmark_out_format=json
    done
fi

echo "bench outputs in ${OUT_DIR}"
