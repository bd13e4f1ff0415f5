#!/usr/bin/env bash
# Times the three PAAF steps (std::time::Instant inside the oracle)
# single-threaded vs. parallel and appends the comparison to a history
# array in BENCH_pao.json, printing the delta against the previous run.
# Offline; uses the generated suite.
#
# Usage: scripts/bench_steps.sh [case] [threads] [out.json]
#   case     testgen case name (smoke, ispd18s_test1..10, aes14);
#            default ispd18s_test2
#   threads  parallel worker count; default: all available cores
#   out      history file; default BENCH_pao.json
set -euo pipefail
cd "$(dirname "$0")/.."

CASE="${1:-ispd18s_test2}"
OUT="${3:-BENCH_pao.json}"
RUN="$(mktemp /tmp/pao_bench_XXXXXX.json)"
trap 'rm -f "$RUN"' EXIT
ARGS=(bench --case "$CASE" --out "$RUN")
if [[ -n "${2:-}" ]]; then
  ARGS+=(--threads "$2")
fi

cargo run --release -p pao-cli -- "${ARGS[@]}"

if command -v python3 > /dev/null; then
  python3 - "$RUN" "$OUT" <<'EOF'
import json, sys

run_path, out_path = sys.argv[1], sys.argv[2]
run = json.load(open(run_path))
try:
    hist = json.load(open(out_path))
except (FileNotFoundError, json.JSONDecodeError):
    hist = []
if isinstance(hist, dict):  # legacy single-object file from older runs
    hist = [hist]

prev = next((h for h in reversed(hist) if h.get("workload") == run["workload"]), None)
hist.append(run)
with open(out_path, "w") as f:
    json.dump(hist, f, indent=2)
    f.write("\n")

# threads_effective (new field) is what the host can actually deliver;
# fall back to min(requested, host) for history entries predating it.
requested = run.get("threads_requested", run.get("threads", 1))
effective = run.get("threads_effective") or min(requested, run.get("host_threads", 1)) or 1
single_core = effective <= 1
if run.get("host_threads", 0) < requested:
    print(
        f"WARNING: host has only {run['host_threads']} hardware thread(s) but the\n"
        f"WARNING: parallel run asked for {requested} workers (effective {effective}) —\n"
        f"WARNING: wall-clock speedups below are meaningless on this machine\n"
        f"WARNING: (oversubscribed pool); counter identity and per-phase deltas\n"
        f"WARNING: remain valid.",
        file=sys.stderr,
    )

print(f"appended run #{len(hist)} ({run['workload']}) to {out_path}")
sel = run.get("select")
if sel:
    print(
        f"  select     {sel['probes']} probes, "
        f"{sel['edges_pruned']} edges pruned, {sel['pairs_far']} pairs far"
    )
if prev is None:
    print("no previous run for this workload; no delta to report")
else:
    for key in ("apgen_s", "pattern_s", "cluster_s", "total_s"):
        old, new = prev["parallel"][key], run["parallel"][key]
        pct = 100.0 * (new - old) / old if old else 0.0
        speedup = f"  {old / new:5.2f}x vs prev" if new else ""
        print(f"  {key:<10} {old:>9.6f}s -> {new:>9.6f}s  ({pct:+.1f}%){speedup}")
    if single_core:
        # One effective worker: baseline and "parallel" are the same
        # machine configuration, so the ratio is run-to-run noise.
        print(
            f"  speedup    {prev['speedup']:.3f} -> {run['speedup']:.3f} "
            "(single-core host: determinism check only, not a performance number)"
        )
    else:
        print(f"  speedup    {prev['speedup']:.3f} -> {run['speedup']:.3f}")
    # Deadline-mode run (infinite budget, every cancellation poll live):
    # the overhead of the anytime machinery, expected well under 1%.
    old_ov, new_ov = prev.get("deadline_overhead_pct"), run.get("deadline_overhead_pct")
    if new_ov is not None:
        shown = f"{old_ov:+.2f}% -> " if old_ov is not None else ""
        print(f"  deadline-mode overhead {shown}{new_ov:+.2f}%")
EOF
else
  # No python3: keep the raw run so nothing is lost, skip the history.
  cp "$RUN" "$OUT"
  echo "python3 not found; wrote single run to $OUT (no history append)"
fi
