#!/usr/bin/env bash
# Run the micro_perf suite and record machine-readable results.
#
# Usage: bench/run_benchmarks.sh [build_dir] [output_json]
#
# Defaults: build_dir=build, output_json=BENCH_micro_perf.json (repo
# root). Pass BENCHMARK_FILTER to restrict benchmarks, e.g.
#   BENCHMARK_FILTER='BM_GroundTruthSearch.*' bench/run_benchmarks.sh
#
# The JSON is google-benchmark's --benchmark_out format; the
# BM_GroundTruthSearch / BM_GroundTruthSearchEuler pair measures the
# analytic segment-stepping speedup in-process, so their ratio is
# meaningful even on a loaded machine.

set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
OUTPUT="${2:-BENCH_micro_perf.json}"
FILTER="${BENCHMARK_FILTER:-}"

BIN="$BUILD_DIR/bench/micro_perf"
if [[ ! -x "$BIN" ]]; then
    echo "error: $BIN not built; run:" >&2
    echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
    exit 1
fi

ARGS=(
    --benchmark_out="$OUTPUT"
    --benchmark_out_format=json
    --benchmark_repetitions="${BENCHMARK_REPETITIONS:-1}"
    # Shuffle repetitions across benchmarks so suite ordering (a long
    # Euler benchmark heating the core right before a fast one) does
    # not bias paired comparisons.
    --benchmark_enable_random_interleaving=true
)
if [[ -n "$FILTER" ]]; then
    ARGS+=(--benchmark_filter="$FILTER")
fi

# Run every bench binary with explicit status accumulation: a crashed
# or failing bench must fail this script even though later convenience
# steps (the summary printer below) are allowed to fail soft. With a
# bare `set -e` a non-final command's failure is easy to mask when the
# script grows; the explicit exit keeps propagation airtight.
STATUS=0
"$BIN" "${ARGS[@]}" || STATUS=$?
if [[ "$STATUS" -ne 0 ]]; then
    echo "error: $BIN exited with status $STATUS" >&2
    exit "$STATUS"
fi

echo
echo "wrote $OUTPUT"

# Convenience: print the analytic-vs-Euler speedups if the paired
# benchmarks are present in the output.
python3 - "$OUTPUT" <<'EOF' 2>/dev/null || true
import json, sys
data = json.load(open(sys.argv[1]))
times = {}
# Benchmarks report real_time in their own unit; normalize to ns so
# cross-unit ratios (a ns-scale decode over a ms-scale trial) hold.
unit_ns = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
for b in data.get("benchmarks", []):
    if b.get("run_type") == "aggregate":
        continue
    # Min across repetitions: the robust per-benchmark statistic.
    name = b["name"]
    scale = unit_ns.get(b.get("time_unit", "ns"), 1.0)
    times[name] = min(times.get(name, float("inf")),
                      b["real_time"] * scale)
fast = times.get("BM_GroundTruthSearch")
euler = times.get("BM_GroundTruthSearchEuler")
if fast and euler:
    print(f"ground-truth search speedup (Euler/analytic): {euler / fast:.1f}x")
trial_fast = times.get("BM_RunTrial/force_euler:0")
trial_euler = times.get("BM_RunTrial/force_euler:1")
if trial_fast and trial_euler:
    print(f"scheduler trial speedup (Euler/device): "
          f"{trial_euler / trial_fast:.1f}x")
trial_tel = times.get("BM_RunTrial_telemetry")
if trial_fast and trial_tel:
    overhead = (trial_tel / trial_fast - 1.0) * 100.0
    print(f"telemetry overhead on the analytic trial: {overhead:+.1f}% "
          f"(target < 5%)")
# Fleet parallel scaling: wall-clock ratio of the same
# population under pools of 1 vs N participants.
fleet_one = times.get("BM_FleetStep/threads:1/real_time")
for threads in (2, 4):
    wide = times.get(f"BM_FleetStep/threads:{threads}/real_time")
    if fleet_one and wide:
        print(f"fleet step {threads}-thread scaling: "
              f"{fleet_one / wide:.2f}x")
# Trace ingestion: replayed-trial overhead vs the constant-harvest
# trial, and the defensive decode's cost relative to one replay.
trace_step = times.get("BM_TraceStep")
trace_decode = times.get("BM_TraceDecode")
if trial_fast and trace_step:
    print(f"trace replay trial cost (vs constant harvest): "
          f"{trace_step / trial_fast:.2f}x")
if trace_step and trace_decode:
    print(f"trace decode cost (vs one replayed trial): "
          f"{trace_decode / trace_step:.2f}x")
EOF
