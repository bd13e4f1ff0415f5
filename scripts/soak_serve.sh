#!/usr/bin/env bash
# Chaos soak for `pao serve` (DESIGN.md §17): hostile traffic, crash
# recovery and fault-injection arms, at 1 and 4 worker threads.
#
# Phase 1 (hostile): a daemon with deliberately tight admission limits
#   takes `pao soak --mode hostile` floods — concurrent valid, malformed,
#   oversized, binary-garbage and half-closed requests — in two halves
#   with a VmHWM sample between them. Asserts: the soak client reports
#   zero protocol violations, the daemon's peak RSS plateaus between the
#   halves (no per-connection leak), the serve.* counters recorded the
#   abuse, and shutdown still exits 0.
# Phase 2 (crash): a journaled daemon is SIGKILLed mid-ECO-burst, then
#   restarted with --resume. The resumed dump, and its get_pin_access
#   replies for a fixed set of pins (reject reasons included), must be
#   byte-identical to a fresh twin daemon that serially replays the
#   recovered journal (soak --mode emit | pao call). A third restart
#   restores every signature from the checkpoint store and replays
#   nothing (an empty journal): its pin replies must equal the fresh
#   twin's before replay.
# Phase 3 (degrade): --inject-fault / --inject-stall arm a one-shot
#   fault against the first ECO re-analysis. That ECO must answer the
#   typed -32004 degrade error while the previous snapshot keeps
#   serving; the next ECO must succeed.
#
# Env: SOAK_SECS   seconds per hostile half (default 10)
#      SOAK_BENCH  1 = append a soak entry to BENCH_pao.json
set -euo pipefail
cd "$(dirname "$0")/.."

SOAK_SECS="${SOAK_SECS:-10}"
PAO=target/release/pao
LEF=benchmarks/smoke.lef
DEF=benchmarks/smoke.def
[[ -x "$PAO" ]] || { echo "build first: cargo build --release"; exit 1; }
command -v python3 > /dev/null || { echo "soak needs python3"; exit 1; }

dir="$(mktemp -d /tmp/pao_soak_XXXXXX)"
daemon_pid=""
cleanup() {
    [[ -n "$daemon_pid" ]] && kill -9 "$daemon_pid" 2> /dev/null || true
    rm -rf "$dir"
}
trap cleanup EXIT

# Any placed component works as an ECO target; take the first two from
# the DEF.
insts="$(awk '$1 == "-" && NF > 2 { print $2 }' "$DEF" | head -2 | paste -sd,)"
[[ -n "$insts" ]] || { echo "no instances found in $DEF"; exit 1; }
first_inst="${insts%%,*}"
# A fixed set of get_pin_access requests: the first 8 instances × pins
# A, B, C and Y (a pin a master lacks answers a typed error, which must
# match too).
awk '$1 == "-" && NF > 2 { print $2 }' "$DEF" | head -8 | python3 -c "
import json, sys
i = 0
for inst in sys.stdin.read().split():
    for pin in 'ABCY':
        i += 1
        print(json.dumps({'id': i, 'method': 'get_pin_access',
                          'params': {'inst': inst, 'pin': pin}}))
" > "$dir/pins.jsonl"

# Blocks until the daemon answers a stats round trip.
wait_ready() { # socket
    "$PAO" call --socket "$1" --timeout-ms 20000 \
        '{"id":0,"method":"stats"}' > /dev/null
}

vm_hwm_kb() { # pid
    awk '/^VmHWM:/ { print $2 }' "/proc/$1/status"
}

dump_to() { # socket file
    "$PAO" call --socket "$1" '{"id":1,"method":"dump_selection"}' \
        | python3 -c \
          "import json,sys; print(json.loads(sys.stdin.read())['result']['dump'], end='')" \
        > "$2"
}

hostile_summary=""
for t in 1 4; do
    echo "== soak (threads $t): phase 1 — hostile traffic =="
    sock="$dir/hostile-$t.sock"
    "$PAO" serve "$LEF" "$DEF" --socket "$sock" --threads "$t" \
        --max-frame-bytes 4096 --max-conns 8 --max-inflight 2 \
        --idle-ms 2000 > "$dir/hostile-$t.log" 2>&1 &
    daemon_pid=$!
    wait_ready "$sock"
    hostile_ms=$((SOAK_SECS * 1000))
    "$PAO" soak --socket "$sock" --mode hostile --clients 4 \
        --duration-ms "$hostile_ms" --seed "$t" --inst "$first_inst" \
        > "$dir/soak1-$t.json" \
        || { echo "hostile soak (half 1) failed"; cat "$dir/hostile-$t.log"; exit 1; }
    hwm1="$(vm_hwm_kb "$daemon_pid")"
    "$PAO" soak --socket "$sock" --mode hostile --clients 4 \
        --duration-ms "$hostile_ms" --seed "$((t + 100))" --inst "$first_inst" \
        > "$dir/soak2-$t.json" \
        || { echo "hostile soak (half 2) failed"; cat "$dir/hostile-$t.log"; exit 1; }
    hwm2="$(vm_hwm_kb "$daemon_pid")"
    # Leak check: the second identical half must not grow the peak RSS
    # beyond slack (16 MiB or 20%, whichever is larger).
    python3 - "$hwm1" "$hwm2" << 'PY'
import sys
h1, h2 = int(sys.argv[1]), int(sys.argv[2])
slack = max(16 * 1024, h1 // 5)
assert h2 - h1 <= slack, f"VmHWM grew {h1} -> {h2} kB (> {slack} kB slack): leak?"
print(f"VmHWM plateau ok: {h1} -> {h2} kB")
PY
    # The daemon must have seen (and counted) the abuse, and still
    # answer stats + shut down cleanly.
    "$PAO" call --socket "$sock" '{"id":1,"method":"stats"}' \
        '{"id":2,"method":"shutdown"}' > "$dir/stats-$t.json"
    wait "$daemon_pid" \
        || { echo "hostile daemon exited non-zero"; cat "$dir/hostile-$t.log"; exit 1; }
    daemon_pid=""
    python3 - "$dir/stats-$t.json" "$dir/soak1-$t.json" "$dir/soak2-$t.json" << 'PY'
import json, sys
stats = json.loads(open(sys.argv[1]).readline())["result"]["serve"]
soaks = [json.load(open(p)) for p in sys.argv[2:]]
assert stats["oversized"] > 0, f"no oversized frames counted: {stats}"
assert stats["requests"] > 0, stats
assert all(s["violations"] == 0 for s in soaks), soaks
sent = sum(s["sent"] for s in soaks)
print(f"hostile ok: {sent} requests sent, serve counters: {stats}")
PY
    hostile_summary="$dir/soak2-$t.json"

    echo "== soak (threads $t): phase 2 — kill -9 + journal replay =="
    ckpt="$dir/ckpt-$t"
    rm -rf "$ckpt"
    sock="$dir/crash-$t.sock"
    "$PAO" serve "$LEF" "$DEF" --socket "$sock" --threads "$t" \
        --checkpoint "$ckpt" > "$dir/crash-$t.log" 2>&1 &
    daemon_pid=$!
    wait_ready "$sock"
    # An ECO burst in the background; SIGKILL the daemon mid-burst. The
    # soak client must tolerate the death (exit 0, "died":true or a
    # completed burst — timing dependent) and never crash itself.
    "$PAO" soak --socket "$sock" --mode eco --count 500 --seed "$t" \
        --inst "$insts" > "$dir/eco-$t.json" &
    soak_pid=$!
    sleep 1
    kill -9 "$daemon_pid"
    wait "$daemon_pid" 2> /dev/null || true
    daemon_pid=""
    wait "$soak_pid" \
        || { echo "eco soak client failed after daemon kill"; cat "$dir/eco-$t.json"; exit 1; }
    # Resume from the journal…
    sock2="$dir/resumed-$t.sock"
    "$PAO" serve "$LEF" "$DEF" --socket "$sock2" --threads "$t" \
        --checkpoint "$ckpt" --resume > "$dir/resumed-$t.log" 2>&1 &
    daemon_pid=$!
    wait_ready "$sock2"
    dump_to "$sock2" "$dir/dump-resumed-$t.txt"
    "$PAO" call --socket "$sock2" < "$dir/pins.jsonl" > "$dir/pins-resumed-$t.jsonl"
    "$PAO" call --socket "$sock2" '{"id":9,"method":"shutdown"}' > /dev/null
    wait "$daemon_pid" || { echo "resumed daemon exited non-zero"; exit 1; }
    daemon_pid=""
    # …and serially replay the same journal against a fresh twin. The
    # burst ran for a second before the kill, so the recovered journal
    # must hold real batches — an empty one would make the byte-identity
    # check below vacuous.
    "$PAO" soak --mode emit --journal "$ckpt/eco.journal" > "$dir/emit-$t.jsonl"
    replayed="$(wc -l < "$dir/emit-$t.jsonl")"
    [[ "$replayed" -gt 0 ]] \
        || { echo "no ECO batches journaled before the kill"; exit 1; }
    sock3="$dir/twin-$t.sock"
    "$PAO" serve "$LEF" "$DEF" --socket "$sock3" --threads "$t" \
        > "$dir/twin-$t.log" 2>&1 &
    daemon_pid=$!
    wait_ready "$sock3"
    "$PAO" call --socket "$sock3" < "$dir/pins.jsonl" > "$dir/pins-fresh-$t.jsonl"
    "$PAO" call --socket "$sock3" < "$dir/emit-$t.jsonl" \
        > "$dir/twin-replay-$t.jsonl"
    dump_to "$sock3" "$dir/dump-twin-$t.txt"
    "$PAO" call --socket "$sock3" < "$dir/pins.jsonl" > "$dir/pins-twin-$t.jsonl"
    "$PAO" call --socket "$sock3" '{"id":9,"method":"shutdown"}' > /dev/null
    wait "$daemon_pid" || { echo "twin daemon exited non-zero"; exit 1; }
    daemon_pid=""
    cmp "$dir/dump-resumed-$t.txt" "$dir/dump-twin-$t.txt" \
        || { echo "resumed dump != serial-replay twin (threads $t)"; exit 1; }
    grep -q "replaying" "$dir/resumed-$t.log" \
        || { echo "resumed daemon did not report a journal replay"; exit 1; }
    cmp "$dir/pins-resumed-$t.jsonl" "$dir/pins-twin-$t.jsonl" \
        || { echo "resumed get_pin_access replies != twin (threads $t)"; exit 1; }
    grep -q '"rejects":\[{' "$dir/pins-twin-$t.jsonl" \
        || { echo "no reply carries reject reasons: vacuous pin check"; exit 1; }
    sock4="$dir/restored-$t.sock"
    "$PAO" serve "$LEF" "$DEF" --socket "$sock4" --threads "$t" \
        --checkpoint "$ckpt" --resume --journal "$dir/empty-$t.journal" \
        > "$dir/restored-$t.log" 2>&1 &
    daemon_pid=$!
    wait_ready "$sock4"
    "$PAO" call --socket "$sock4" < "$dir/pins.jsonl" > "$dir/pins-restored-$t.jsonl"
    "$PAO" call --socket "$sock4" '{"id":9,"method":"shutdown"}' > /dev/null
    wait "$daemon_pid" || { echo "restored daemon exited non-zero"; exit 1; }
    daemon_pid=""
    cmp "$dir/pins-restored-$t.jsonl" "$dir/pins-fresh-$t.jsonl" \
        || { echo "store-restored pin replies != fresh daemon (threads $t)"; exit 1; }
    echo "crash replay ok: $replayed journaled batch(es), dumps and pin replies byte-identical"

    echo "== soak (threads $t): phase 3 — fault + stall degrade arms =="
    for arm in "--inject-fault select:0" \
               "--inject-stall select:0:600 --watchdog-ms 100"; do
        sock="$dir/degrade-$t.sock"
        # shellcheck disable=SC2086
        "$PAO" serve "$LEF" "$DEF" --socket "$sock" --threads "$t" \
            $arm > "$dir/degrade-$t.log" 2>&1 &
        daemon_pid=$!
        wait_ready "$sock"
        "$PAO" call --socket "$sock" \
            "{\"id\":1,\"method\":\"eco_update\",\"params\":{\"moves\":[{\"inst\":\"$first_inst\",\"dx\":40,\"dy\":0}]}}" \
            "{\"id\":2,\"method\":\"eco_update\",\"params\":{\"moves\":[{\"inst\":\"$first_inst\",\"dx\":40,\"dy\":0}]}}" \
            '{"id":3,"method":"stats"}' \
            '{"id":4,"method":"shutdown"}' > "$dir/degrade-$t.jsonl" \
            || { echo "degrade calls failed ($arm)"; cat "$dir/degrade-$t.log"; exit 1; }
        wait "$daemon_pid" \
            || { echo "degrade daemon exited non-zero ($arm)"; cat "$dir/degrade-$t.log"; exit 1; }
        daemon_pid=""
        python3 - "$dir/degrade-$t.jsonl" << 'PY'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1])]
first, second, stats = lines[0], lines[1], lines[2]["result"]
err = first.get("error")
assert err and err["code"] == -32004, f"first ECO must degrade: {first}"
d = err["data"]
assert d["quarantined"] + d["stalls"] > 0 or d["skipped"] > 0, d
assert "result" in second, f"second ECO must succeed: {second}"
assert second["result"]["eco_seq"] == 1, second
assert stats["serve"]["eco_degraded"] == 1, stats["serve"]
assert stats["eco_updates"] == 1, stats
print(f"degrade ok: {err['message']!r}, counters {stats['serve']}")
PY
    done
done

if [[ "${SOAK_BENCH:-0}" == "1" && -n "$hostile_summary" ]]; then
    python3 - "$hostile_summary" << 'PY'
import json, os, sys
entry = {
    "workload": "soak_serve",
    "host_threads": os.cpu_count(),
    "soak_secs": int(os.environ.get("SOAK_SECS", "10")),
    "soak": json.load(open(sys.argv[1])),
}
path = "BENCH_pao.json"
hist = json.load(open(path)) if os.path.exists(path) else []
if isinstance(hist, dict):
    hist = [hist]
hist.append(entry)
with open(path, "w") as f:
    json.dump(hist, f, indent=1)
    f.write("\n")
print(f"appended soak entry to {path}")
PY
fi

echo "soak_serve: OK"
