#!/usr/bin/env bash
# Snapshot the Table-1 sorting benchmark to a JSON file.
#
#   scripts/bench_snapshot.sh [build-dir] [out.json] [min-time-seconds]
#
# Output goes through --benchmark_out (not stdout: the bench also prints
# its human-readable paper table there).  The sorting benches run each
# network on one host thread, so OT_HOST_THREADS does not change them.
#
# The snapshot's "context" block records CMAKE_BUILD_TYPE, the
# dispatched SIMD backend and OT_HOST_THREADS; OT_SIMD=scalar|avx2|neon
# forces a backend for apples-to-apples runs, e.g.
#
#   OT_SIMD=scalar scripts/bench_snapshot.sh build-rel BENCH_scalar.json
set -euo pipefail

build_dir=${1:-build}
out=${2:-BENCH_sorting.json}
min_time=${3:-0.2}

bench="$build_dir/bench/bench_table1_sorting"
if [[ ! -x "$bench" ]]; then
    echo "error: $bench not found or not executable (build first)" >&2
    exit 1
fi

"$bench" \
    --benchmark_filter='BM_Sort(Otn|Otc|FatTree|D2dMot)' \
    --benchmark_min_time="$min_time" \
    --benchmark_out="$out" \
    --benchmark_out_format=json \
    > /dev/null

# Fold the model-time trace analysis (per-phase breakdown, root
# bandwidth, critical path) for a reference SORT-OTN run into the
# snapshot, so a bench JSON explains *where* the model time went, not
# just how fast the host simulated it.
otsim="$build_dir/tools/otsim"
if [[ -x "$otsim" ]] && command -v python3 > /dev/null; then
    summary=$(mktemp)
    trap 'rm -f "$summary"' EXIT
    if "$otsim" sort --net otn --n 256 --trace-summary "$summary" \
        > /dev/null; then
        python3 - "$out" "$summary" << 'EOF'
import json, sys
out_path, summary_path = sys.argv[1], sys.argv[2]
with open(out_path) as f:
    bench = json.load(f)
with open(summary_path) as f:
    bench["trace_summary"] = json.load(f)
with open(out_path, "w") as f:
    json.dump(bench, f, indent=1)
EOF
        echo "folded trace summary (sort --net otn --n 256) into $out"
    else
        echo "note: otsim trace summary unavailable, skipping" >&2
    fi
fi

# Record the build/dispatch context the numbers were taken under: the
# CMake build type (debug and Release snapshots are not comparable),
# the SIMD backend the bench binary dispatches to, and the host-thread
# setting.  Comparisons across snapshots must hold these fixed.
if command -v python3 > /dev/null; then
    build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
        "$build_dir/CMakeCache.txt" 2> /dev/null || true)
    backend=""
    if [[ -x "$otsim" ]]; then
        backend=$("$otsim" simd | sed -n 's/^active: //p' || true)
    fi
    python3 - "$out" "${build_type:-unknown}" "${backend:-unknown}" \
        "${OT_HOST_THREADS:-auto}" << 'EOF'
import json, sys
out_path, build_type, backend, threads = sys.argv[1:5]
with open(out_path) as f:
    bench = json.load(f)
bench.setdefault("context", {})
bench["context"]["cmake_build_type"] = build_type
bench["context"]["simd_backend"] = backend
bench["context"]["ot_host_threads"] = threads
with open(out_path, "w") as f:
    json.dump(bench, f, indent=1)
EOF
    echo "context: build_type=${build_type:-unknown}" \
        "simd=${backend:-unknown} threads=${OT_HOST_THREADS:-auto}"
fi

# Fold the workload-farm benchmark (cold vs warm NetworkCache, farm
# width sweep) into the same snapshot so cache efficacy and batch
# scaling travel with the sorting numbers.
workload_bench="$build_dir/bench/bench_workload"
if [[ -x "$workload_bench" ]] && command -v python3 > /dev/null; then
    wl=$(mktemp)
    trap 'rm -f "${summary:-}" "$wl"' EXIT
    if "$workload_bench" \
        --benchmark_filter='BM_Batch(Cold|Warm|Wide)' \
        --benchmark_min_time="$min_time" \
        --benchmark_out="$wl" \
        --benchmark_out_format=json \
        > /dev/null; then
        python3 - "$out" "$wl" << 'EOF'
import json, sys
out_path, wl_path = sys.argv[1], sys.argv[2]
with open(out_path) as f:
    bench = json.load(f)
with open(wl_path) as f:
    bench["workload_benchmarks"] = json.load(f)["benchmarks"]
with open(out_path, "w") as f:
    json.dump(bench, f, indent=1)
EOF
        echo "folded workload farm benchmarks into $out"
    else
        echo "note: bench_workload failed, skipping" >&2
    fi
fi

echo "wrote $out (host threads: ${OT_HOST_THREADS:-auto})"
