#!/usr/bin/env bash
# Offline tier-1 verification: formatting, lints, release build and the
# full test suite. Needs no network — the workspace has zero external
# dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== rustfmt =="
cargo fmt --all --check

echo "== doc code references =="
# Every backticked `*.rs` reference in DESIGN.md, README.md and
# docs/paper-mapping.md must be a path from the repository root, and each
# name of a `path.rs::name` reference must name an item (fn, struct,
# enum, trait, const, static, type or mod) in that file, so a moved file
# or a renamed item breaks the docs visibly.
if command -v python3 > /dev/null; then
    python3 - DESIGN.md README.md docs/paper-mapping.md <<'PY'
import os, re, sys
bad = []
for doc in sys.argv[1:]:
    for n, line in enumerate(open(doc, encoding='utf-8'), 1):
        for ref in re.findall(r'`([^`\s]+\.rs(?:::[^`\s]+)?)`', line):
            path, _, names = ref.partition('::')
            if not os.path.isfile(path):
                bad.append(f'{doc}:{n}: `{ref}`: no file {path}')
                continue
            src = open(path, encoding='utf-8').read()
            for name in filter(None, names.split('::')):
                item = r'\b(fn|struct|enum|trait|const|static|type|mod)\s+'
                if not re.search(item + re.escape(name.removesuffix('()')) + r'\b', src):
                    bad.append(f'{doc}:{n}: `{ref}`: no item {name} in {path}')
print('\n'.join(bad) or 'doc code references: OK')
sys.exit(1 if bad else 0)
PY
else
    echo "doc code references: skipped (no python3)"
fi

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== clippy (panic-freedom gate) =="
# Library and binary code must not contain `unwrap()`/`expect()` — errors
# are typed (`PaoError`) or explicitly degraded (see DESIGN.md §12).
# Tests keep their asserting style; `--lib --bins` leaves them exempt.
cargo clippy --workspace --lib --bins -- \
    -D warnings -D clippy::unwrap_used -D clippy::expect_used

echo "== release build =="
cargo build --workspace --release

echo "== tests =="
cargo test --workspace -q

echo "== profile smoke =="
# End-to-end observability check: `pao profile` on the bundled smoke
# case must emit a Chrome trace that python's strict JSON parser accepts,
# holding exactly one complete ("ph":"X") span per pipeline phase on the
# main thread's track (tid 0) — the run records one clock per phase.
trace="$(mktemp /tmp/pao_trace_XXXXXX.json)"
trap 'rm -f "$trace"' EXIT
target/release/pao profile benchmarks/smoke.lef benchmarks/smoke.def \
    --trace "$trace" > /dev/null
if command -v python3 > /dev/null; then
    python3 -c "import json,sys
ev = json.load(open(sys.argv[1]))['traceEvents']
n = {p: sum(e.get('ph') == 'X' and e.get('tid') == 0 and e.get('name') == 'phase.' + p
            for e in ev) for p in ('apgen', 'pattern', 'select', 'repair', 'audit')}
sys.exit(0 if set(n.values()) == {1} else 'phase spans on tid 0: %s' % n)" "$trace"
else
    # Fallback: the exporter self-validates, just check non-emptiness.
    test -s "$trace"
fi

echo "== deadline / watchdog / resume e2e =="
# The anytime contract (DESIGN.md §13), end to end on the release binary.
# 1. A zero budget must yield a *partial* result: exit 6 without
#    --deadline-ok, exit 0 with it — never a hang or an abort.
target/release/pao analyze benchmarks/smoke.lef benchmarks/smoke.def \
    --deadline-ms 0 > /dev/null && {
    echo "deadline-partial run must exit 6"; exit 1; }
rc=$?
[[ "$rc" == 6 ]] || { echo "expected exit 6, got $rc"; exit 1; }
target/release/pao analyze benchmarks/smoke.lef benchmarks/smoke.def \
    --deadline-ms 0 --deadline-ok > /dev/null
# 2. Checkpoint + resume reproduces an uninterrupted run bit-identically
#    (stable stat lines, timings excluded, and the selection dump) at 1
#    and 4 threads.
ckpt="$(mktemp -d /tmp/pao_ckpt_XXXXXX)"
rep="$(mktemp -d /tmp/pao_rep_XXXXXX)"
trap 'rm -f "$trace"; rm -rf "$ckpt" "$rep"' EXIT
counters() { grep -E '^(unique|total|dirty|pins|off-track|repaired|failed|quarantined)' "$1"; }
metrics() { sed -n '/^metrics:/,$p' "$1"; }
for t in 1 4; do
    target/release/pao analyze benchmarks/smoke.lef benchmarks/smoke.def \
        --threads "$t" --report "$rep/clean-$t.txt" \
        --dump-selection "$rep/clean-$t.sel" > /dev/null 2>&1
    rm -rf "$ckpt"
    target/release/pao analyze benchmarks/smoke.lef benchmarks/smoke.def \
        --threads "$t" --deadline-ms 3 --deadline-ok \
        --checkpoint "$ckpt" > /dev/null 2>&1
    target/release/pao analyze benchmarks/smoke.lef benchmarks/smoke.def \
        --threads "$t" --checkpoint "$ckpt" --resume \
        --report "$rep/resumed-$t.txt" \
        --dump-selection "$rep/resumed-$t.sel" > /dev/null 2>&1
    diff <(counters "$rep/clean-$t.txt") <(counters "$rep/resumed-$t.txt") \
        || { echo "resume x$t diverged from uninterrupted run"; exit 1; }
    cmp -s "$rep/clean-$t.sel" "$rep/resumed-$t.sel" \
        || { echo "resume x$t selection dump diverged from uninterrupted run"; exit 1; }
done
# 3. An injected mid-item stall is detected by the watchdog (exit 6,
#    stall recorded) instead of hanging the run.
out="$rep/stall.txt"
target/release/pao analyze benchmarks/smoke.lef benchmarks/smoke.def \
    --threads 2 --inject-stall apgen:0:600 --watchdog-ms 100 \
    --metrics > "$out" && { echo "stall-cut run must exit 6"; exit 1; }
rc=$?
[[ "$rc" == 6 ]] || { echo "expected exit 6 after stall, got $rc"; exit 1; }
grep -q "stalled on item 0" "$out" || { echo "stall not recorded"; exit 1; }
grep -q "watchdog.stalls" "$out" || { echo "watchdog counter missing"; exit 1; }
# 4. Degraded runs repeat at every thread count: one run records every
#    phase's faults, skips and stalls (DESIGN.md §12-13). A zero budget
#    prints one deadline skip record per cut phase, and the same deadline
#    line and deadline.skipped.* counters at 1 and 4 threads. A fault
#    injected into any phase prints the same quarantined records,
#    failed-pin line and listing, fault.quarantined.* counters and
#    selection dump at 1 and 4 threads. A one-day budget, never reached,
#    leaves the stat lines and the dump of the unbudgeted run.
skips() { grep -E '^deadline +:|^  deadline\.skipped\.' "$1"; }
faults() { grep -E '^(quarantined|failed pins) +:|^  \[|^  fault\.quarantined\.|^  FAILED ' "$1"; }
for t in 1 4; do
    target/release/pao analyze benchmarks/smoke.lef benchmarks/smoke.def \
        --threads "$t" --deadline-ms 0 --deadline-ok --metrics > "$rep/zero-$t.txt"
done
grep -Eq '^deadline +: .*skipped [0-9]+ \(apgen [0-9]+ \(deadline\), pattern [0-9]+ \(deadline\), select [0-9]+ \(deadline\), audit [0-9]+ \(deadline\)\)' \
    "$rep/zero-1.txt" || { echo "zero budget: expected apgen, pattern, select and audit skip records"; exit 1; }
diff <(skips "$rep/zero-1.txt") <(skips "$rep/zero-4.txt") \
    || { echo "zero-budget skip records diverged between 1 and 4 threads"; exit 1; }
for phase in apgen pattern select repair audit; do
    for t in 1 4; do
        target/release/pao analyze benchmarks/smoke.lef benchmarks/smoke.def \
            --threads "$t" --inject-fault "$phase:1" --degraded-ok --metrics \
            --dump-selection "$rep/fault-$phase-$t.sel" > "$rep/fault-$phase-$t.txt" 2> /dev/null
    done
    grep -Eq '^quarantined +: 1$' "$rep/fault-$phase-1.txt" \
        || { echo "--inject-fault $phase:1 quarantined no item"; exit 1; }
    diff <(faults "$rep/fault-$phase-1.txt") <(faults "$rep/fault-$phase-4.txt") \
        || { echo "--inject-fault $phase:1 records diverged between 1 and 4 threads"; exit 1; }
    cmp -s "$rep/fault-$phase-1.sel" "$rep/fault-$phase-4.sel" \
        || { echo "--inject-fault $phase:1 selection dump diverged between 1 and 4 threads"; exit 1; }
done
for t in 1 4; do
    target/release/pao analyze benchmarks/smoke.lef benchmarks/smoke.def \
        --threads "$t" --deadline-ms 86400000 --deadline-ok --report "$rep/day-$t.txt" \
        --dump-selection "$rep/day-$t.sel" > /dev/null 2>&1
    diff <(counters "$rep/clean-$t.txt") <(counters "$rep/day-$t.txt") \
        || { echo "one-day budget x$t changed the stat lines"; exit 1; }
    cmp -s "$rep/clean-$t.sel" "$rep/day-$t.sel" \
        || { echo "one-day budget x$t changed the selection dump"; exit 1; }
done
echo "deadline e2e: OK"

echo "== selection identity =="
# The cluster-selection fast path (DP pruning, the group fan-out and
# merge) must be output-invariant: --dump-selection files from any
# thread count are byte-identical (DESIGN.md §14).
ref="$rep/sel-ref.txt"
target/release/pao analyze benchmarks/smoke.lef benchmarks/smoke.def \
    --threads 1 --dump-selection "$ref" > /dev/null 2>&1
for t in 2 4; do
    target/release/pao analyze benchmarks/smoke.lef benchmarks/smoke.def \
        --threads "$t" --dump-selection "$rep/sel-$t.txt" > /dev/null 2>&1
    cmp -s "$ref" "$rep/sel-$t.txt" \
        || { echo "selection dump diverged for: --threads $t"; exit 1; }
done
# Without BCA, selection leaves conflicts for the repair rounds (572
# repaired pins on ispd18s_test2, 958 on the N14 aes14): overrides,
# direct probes and greedy re-placement, each probe in its own local
# window context, all run on two techs, and the dumps, counters and the
# whole --metrics table must still match across thread counts.
target/release/pao gen ispd18s_test2 --lef "$rep/t2.lef" --def "$rep/t2.def" > /dev/null
target/release/pao gen aes14 --lef "$rep/aes14.lef" --def "$rep/aes14.def" > /dev/null
for case in t2 aes14; do
    for t in 1 4; do
        target/release/pao analyze "$rep/$case.lef" "$rep/$case.def" --no-bca --threads "$t" \
            --metrics --dump-selection "$rep/nobca-$case-sel-$t.txt" > "$rep/nobca-$case-$t.txt"
    done
    cmp -s "$rep/nobca-$case-sel-1.txt" "$rep/nobca-$case-sel-4.txt" \
        || { echo "$case --no-bca selection dump diverged between 1 and 4 threads"; exit 1; }
    diff <(counters "$rep/nobca-$case-1.txt") <(counters "$rep/nobca-$case-4.txt") \
        || { echo "$case --no-bca counters diverged between 1 and 4 threads"; exit 1; }
    grep -q '^metrics:' "$rep/nobca-$case-1.txt" \
        || { echo "$case --no-bca --metrics printed no metrics table"; exit 1; }
    diff <(metrics "$rep/nobca-$case-1.txt") <(metrics "$rep/nobca-$case-4.txt") \
        || { echo "$case --no-bca metrics diverged between 1 and 4 threads"; exit 1; }
    grep -Eq '^repaired pins +: [1-9]' "$rep/nobca-$case-1.txt" \
        || { echo "$case --no-bca arm repaired nothing"; exit 1; }
done
echo "selection identity: OK"

echo "== store input stamp =="
# A checkpoint store is stamped with the inputs steps 1-2 read besides
# the signature (DESIGN.md §12). Resumed with other inputs it must be
# rejected with a warning and recomputed, landing on a fresh run's dump
# and counters: a BCA store resumed with --no-bca (the fresh --no-bca
# runs above), and a smoke store resumed with one via removed.
stamp_ok() { # name resumed-report resumed-dump resumed-stderr fresh-report fresh-dump
    grep -q "rejected, recomputing" "$4" \
        || { echo "$1: stale store not rejected"; exit 1; }
    cmp -s "$3" "$6" || { echo "$1: resumed dump != fresh run"; exit 1; }
    diff <(counters "$2") <(counters "$5") \
        || { echo "$1: resumed counters != fresh run"; exit 1; }
}
awk '$1 == "VIA" && $2 == "via1_1" { skip = 1 } !skip { print }
     skip && $1 == "END" && $2 == "via1_1" { skip = 0 }' \
    benchmarks/smoke.lef > "$rep/no-via1_1.lef"
! cmp -s benchmarks/smoke.lef "$rep/no-via1_1.lef" \
    || { echo "via1_1 not found in smoke.lef"; exit 1; }
target/release/pao analyze "$rep/no-via1_1.lef" benchmarks/smoke.def \
    --report "$rep/novia-fresh.txt" --dump-selection "$rep/novia-fresh.sel" > /dev/null 2>&1
for t in 1 4; do
    rm -rf "$ckpt"
    target/release/pao analyze "$rep/t2.lef" "$rep/t2.def" --threads "$t" \
        --checkpoint "$ckpt" > /dev/null 2>&1
    target/release/pao analyze "$rep/t2.lef" "$rep/t2.def" --no-bca --threads "$t" \
        --checkpoint "$ckpt" --resume --report "$rep/nobca-res-$t.txt" \
        --dump-selection "$rep/nobca-res-$t.sel" > /dev/null 2> "$rep/nobca-res-$t.err"
    stamp_ok "--no-bca x$t" "$rep/nobca-res-$t.txt" "$rep/nobca-res-$t.sel" \
        "$rep/nobca-res-$t.err" "$rep/nobca-t2-$t.txt" "$rep/nobca-t2-sel-$t.txt"
    rm -rf "$ckpt"
    target/release/pao analyze benchmarks/smoke.lef benchmarks/smoke.def \
        --threads "$t" --checkpoint "$ckpt" > /dev/null 2>&1
    target/release/pao analyze "$rep/no-via1_1.lef" benchmarks/smoke.def \
        --threads "$t" --checkpoint "$ckpt" --resume \
        --report "$rep/novia-res-$t.txt" --dump-selection "$rep/novia-res-$t.sel" \
        > /dev/null 2> "$rep/novia-res-$t.err"
    stamp_ok "via removed x$t" "$rep/novia-res-$t.txt" "$rep/novia-res-$t.sel" \
        "$rep/novia-res-$t.err" "$rep/novia-fresh.txt" "$rep/novia-fresh.sel"
done
echo "store input stamp: OK"

echo "== shared intra-cell work identity =="
# Unique instances of one (master, orientation) share candidate verdicts,
# and those with one relative access point set share a pattern DP
# (DESIGN.md §7). Each shared item is computed exactly once, so the work
# counters repeat at any thread count, and the decision ledger behind
# `pao report` is replayed per unique instance. repair.scan.fast_clean
# counts the pins whose probe windows hold no foreign shape, so it also
# fingerprints the repair scan's neighbour search. No phase keeps
# per-worker state that changes what it computes, so the whole --metrics
# table, drc.* included, repeats at any thread count.
target/release/pao gen ispd18s_test4 --lef "$rep/t4.lef" --def "$rep/t4.def" > /dev/null
shared_work() {
    grep -E '^ +(apgen\.via_memo\.misses|apgen\.planar_probes|pattern\.dp_runs|repair\.scan\.fast_clean) ' "$1"
}
for t in 1 4; do
    target/release/pao analyze "$rep/t4.lef" "$rep/t4.def" --threads "$t" \
        --metrics > "$rep/t4-$t.txt"
    target/release/pao report "$rep/t4.lef" "$rep/t4.def" --threads "$t" \
        --out "$rep/t4-$t.jsonl" > /dev/null
done
[[ "$(shared_work "$rep/t4-1.txt" | wc -l)" == 4 ]] \
    || { echo "shared-work counters missing from --metrics"; exit 1; }
diff <(metrics "$rep/t4-1.txt") <(metrics "$rep/t4-4.txt") \
    || { echo "--metrics table diverged between 1 and 4 threads"; exit 1; }
cmp -s "$rep/t4-1.jsonl" "$rep/t4-4.jsonl" \
    || { echo "pao report diverged between 1 and 4 threads"; exit 1; }
echo "shared work identity: OK"

echo "== selection zero-alloc gate =="
# The warm selection pass must not allocate (counting-allocator
# integration test, re-run here explicitly).
cargo test -p pao-core --test select_alloc -q

echo "== sweep scale identity =="
# Streamed scale DEFs and the analysis tail (row-index clusters and
# repair-scan neighbours, claim-block executor phases) must keep results
# thread-count-invariant: the deterministic fields of the sweep JSON
# (everything but the timings and RSS) are identical at 1 and 4 threads
# for both the benchmark size and the streamed 20k case. (These runs
# make no direct probe and no greedy re-placement, and their audit is
# fully hinted: every verdict comes from the repair scan.)
sweepdir="$(mktemp -d /tmp/pao_sweepchk_XXXXXX)"
trap 'rm -f "$trace"; rm -rf "$ckpt" "$rep" "$sweepdir"' EXIT
det() { # strip timing/rss fields, keep counters
    python3 -c "
import json, sys
d = json.loads(sys.stdin.read())
for k in list(d):
    if k.endswith('_s') or k in ('threads', 'peak_rss_mb'):
        del d[k]
print(json.dumps(d, sort_keys=True))
"
}
if command -v python3 > /dev/null; then
    for case in ispd18s_test2 scale_20k; do
        one="$(target/release/pao sweep --case "$case" --threads 1 \
            --dir "$sweepdir" 2> /dev/null | det)"
        four="$(target/release/pao sweep --case "$case" --threads 4 \
            --dir "$sweepdir" 2> /dev/null | det)"
        [[ "$one" == "$four" ]] \
            || { echo "sweep $case diverged between 1 and 4 threads"; \
                 echo " 1: $one"; echo " 4: $four"; exit 1; }
    done
    echo "sweep scale identity: OK"
else
    echo "sweep scale identity: skipped (no python3)"
fi

echo "== serve smoke gate =="
# Service-mode contract (DESIGN.md §17): the resident daemon must answer
# the same bytes as one-shot `pao analyze` — before and after each ECO —
# at 1 and 4 threads, and shut down cleanly (exit 0). The scripted
# batch covers every method: dump, pin access, a fanned-out batch, two
# real ECOs, stats, shutdown. The first ECO swaps two same-signature
# instances in different rows; the second shifts one instance by one
# site, which changes its X track phase (site 360, metal2 pitch 400) to
# one another instance already has, so the daemon must re-class it
# without re-analysis. Both must take the window tail. The moved DEFs
# are written alongside: the daemon's dump after each ECO must equal
# one-shot `pao analyze --dump-selection` of the matching DEF, and the
# shifted instance's unique index and member count must equal
# `pao explain --inst` on the twice-moved DEF.
servedir="$(mktemp -d /tmp/pao_serve_XXXXXX)"
trap 'rm -f "$trace"; rm -rf "$ckpt" "$rep" "$sweepdir" "$servedir"' EXIT
if ! command -v python3 > /dev/null; then
    echo "serve smoke gate: skipped (no python3)"
else
# Pick an instance whose master has a pin named A (not every master
# does — the flops use D/CK/Q).
inst="$(python3 - << 'PY'
masters, cur = set(), None
for line in open('benchmarks/smoke.lef'):
    t = line.split()
    if t[:1] == ['MACRO']:
        cur = t[1]
    if t[:2] == ['PIN', 'A'] and cur:
        masters.add(cur)
for line in open('benchmarks/smoke.def'):
    t = line.split()
    if t[:1] == ['-'] and len(t) > 2 and t[2] in masters:
        print(t[1])
        break
PY
)"
[[ -n "$inst" ]] || { echo "no instance with pin A found"; exit 1; }
# Prints three lines — the swap's move list, the shift's move list and
# the shifted instance — and writes moved.def (after the swap) and
# moved2.def (after both ECOs).
plan="$(python3 - benchmarks/smoke.def benchmarks/smoke.lef "$servedir" << 'PY'
import json, re, sys
lines = open(sys.argv[1]).read().split('\n')
size, cur = {}, None
for line in open(sys.argv[2]):
    t = line.split()
    if t[:1] == ['MACRO']:
        cur = t[1]
    if t[:1] == ['SIZE'] and cur:
        size[cur] = (round(float(t[1]) * 1000), round(float(t[3]) * 1000))
tracks, rows, comps = [], [], []
place = re.compile(r'\s*- (\S+) (\S+) \+ PLACED \( (-?\d+) (-?\d+) \) (\S+) ;')
for i, line in enumerate(lines):
    t = line.split()
    if t[:1] == ['TRACKS']:
        tracks.append((t[1], int(t[2]), int(t[6])))
    if t[:1] == ['ROW']:
        rows.append((int(t[3]), int(t[4]), int(t[7]), int(t[11])))
    m = place.match(line)
    if m:
        comps.append([i, m[1], m[2], int(m[3]), int(m[4]), m[5]])
def sig(c, x=None):
    x = c[3] if x is None else x
    return (c[2], c[5], tuple(((x if ax == 'X' else c[4]) - start) % step
                              for ax, start, step in tracks))
def write(path):
    out = list(lines)
    for c in comps:
        out[c[0]] = place.sub(f' - {c[1]} {c[2]} + PLACED ( {c[3]} {c[4]} ) {c[5]} ;', out[c[0]])
    open(path, 'w').write('\n'.join(out))
# ECO 1: two instances with one signature (master, orientation, track
# phases) in different rows, hence different clusters, trade places.
a, b = next((a, b) for a in comps for b in comps
            if a[4] < b[4] and sig(a) == sig(b))
(a[3], a[4]), (b[3], b[4]) = (b[3], b[4]), (a[3], a[4])
write(sys.argv[3] + '/moved.def')
print(json.dumps([{'inst': a[1], 'x': a[3], 'y': a[4]},
                  {'inst': b[1], 'x': b[3], 'y': b[4]}]))
# ECO 2: a single-row instance steps one site into free row space and
# lands on a signature another instance already has.
def box(c, x=None):
    w, h = size[c[2]]
    x = c[3] if x is None else x
    return (x, c[4], x + w, c[4] + h)
def free(c, x):
    b = box(c, x)
    inside = any(r[1] == b[1] and r[0] <= b[0] and b[2] <= r[0] + r[2] * r[3] for r in rows)
    return inside and all(d is c or box(d)[2] <= b[0] or b[2] <= box(d)[0]
                          or box(d)[3] <= b[1] or b[3] <= box(d)[1] for d in comps)
site = rows[0][3]
c, x = next((c, c[3] + dx) for c in comps for dx in (site, -site)
            if size[c[2]][1] == 2800 and free(c, c[3] + dx)
            and any(d is not c and sig(d) == sig(c, c[3] + dx) for d in comps))
c[3] = x
write(sys.argv[3] + '/moved2.def')
print(json.dumps([{'inst': c[1], 'x': c[3], 'y': c[4]}]))
print(c[1])
PY
)"
moves="$(sed -n 1p <<< "$plan")"
shift_moves="$(sed -n 2p <<< "$plan")"
shifted="$(sed -n 3p <<< "$plan")"
[[ -n "$moves" && -n "$shift_moves" && -n "$shifted" ]] \
    || { echo "no same-signature pair or one-site re-class found"; exit 1; }
for t in 1 4; do
    target/release/pao analyze benchmarks/smoke.lef benchmarks/smoke.def \
        --threads "$t" --dump-selection "$servedir/ref-$t.txt" > /dev/null 2>&1
    for d in moved moved2; do
        target/release/pao analyze benchmarks/smoke.lef "$servedir/$d.def" \
            --threads "$t" --dump-selection "$servedir/$d-$t.txt" > /dev/null 2>&1
    done
    target/release/pao explain benchmarks/smoke.lef "$servedir/moved2.def" \
        --inst "$shifted" --threads "$t" > "$servedir/explain-$t.txt" \
        || { echo "pao explain (threads $t) failed"; exit 1; }
    sock="$servedir/pao-$t.sock"
    target/release/pao serve benchmarks/smoke.lef benchmarks/smoke.def \
        --socket "$sock" --threads "$t" > "$servedir/daemon-$t.log" 2>&1 &
    daemon=$!
    target/release/pao call --socket "$sock" \
        '{"id":1,"method":"dump_selection"}' \
        "{\"id\":2,\"method\":\"get_pin_access\",\"params\":{\"inst\":\"$inst\",\"pin\":\"A\"}}" \
        "{\"id\":3,\"method\":\"batch\",\"params\":[{\"id\":31,\"method\":\"get_instance_patterns\",\"params\":{\"inst\":\"$inst\"}},{\"id\":32,\"method\":\"get_cluster_selection\",\"params\":{\"inst\":\"$inst\"}}]}" \
        "{\"id\":4,\"method\":\"eco_update\",\"params\":{\"moves\":$moves}}" \
        '{"id":5,"method":"dump_selection"}' \
        "{\"id\":6,\"method\":\"eco_update\",\"params\":{\"moves\":$shift_moves}}" \
        '{"id":7,"method":"dump_selection"}' \
        "{\"id\":8,\"method\":\"get_instance_patterns\",\"params\":{\"inst\":\"$shifted\"}}" \
        '{"id":9,"method":"stats"}' \
        '{"id":10,"method":"shutdown"}' > "$servedir/resp-$t.jsonl" \
        || { echo "pao call (threads $t) failed"; cat "$servedir/daemon-$t.log"; exit 1; }
    wait "$daemon" \
        || { echo "daemon (threads $t) exited non-zero"; cat "$servedir/daemon-$t.log"; exit 1; }
    [[ "$(wc -l < "$servedir/resp-$t.jsonl")" == 10 ]] \
        || { echo "expected 10 response lines (threads $t)"; exit 1; }
    python3 - "$servedir/resp-$t.jsonl" "$servedir/ref-$t.txt" \
        "$servedir/moved-$t.txt" "$servedir/moved2-$t.txt" "$servedir/explain-$t.txt" << 'PY'
import json, re, sys
resp = [json.loads(l) for l in open(sys.argv[1])]  # strict-parse every line
ref, moved, moved2 = (open(p).read() for p in sys.argv[2:5])
explain = re.search(r'unique instance (\d+), (\d+) member', open(sys.argv[5]).read())
assert explain, 'pao explain printed no unique instance'
assert resp[0]['result']['dump'] == ref, 'daemon dump != one-shot analyze'
assert resp[1]['result']['selected'] is not None, 'pin has no access'
assert len(resp[2]['result']) == 2, 'batch must answer both sub-requests'
eco = resp[3]['result']
assert eco['eco_seq'] == 1 and eco['cache_misses'] == 0, f'ECO missed the cache: {eco}'
assert eco['tail'] == 'window', f'swap ECO did not take the window tail: {eco}'
assert eco['moved'] == 2 and eco['pins_reprobed'] > 0, f'vacuous ECO: {eco}'
assert resp[4]['result']['dump'] == moved, 'dump after the swap != one-shot analyze of the moved DEF'
eco = resp[5]['result']
assert eco['eco_seq'] == 2 and eco['cache_misses'] == 0, f'shift ECO missed the cache: {eco}'
assert eco['tail'] == 'window', f'shift ECO did not take the window tail: {eco}'
assert eco['moved'] == 1 and eco['pins_reprobed'] > 0, f'vacuous shift ECO: {eco}'
assert resp[6]['result']['dump'] == moved2, 'dump after the shift != one-shot analyze of the twice-moved DEF'
pat = resp[7]['result']
assert (pat['unique_index'], pat['members']) == tuple(map(int, explain.groups())), \
    f'shifted instance {pat["inst"]}: daemon says unique instance {pat["unique_index"]} with ' \
    f'{pat["members"]} member(s), pao explain says {explain.group(0)}'
stats = resp[8]['result']
assert stats['eco_tails'] == {'window': 2, 'full': 0}, stats['eco_tails']
assert stats['symbol']['interned'] > 0, 'symbol gauges missing'
assert resp[9]['result']['ok'] is True, 'shutdown not acknowledged'
PY
done
# Byte-identity across thread counts: the one-shot dumps, pao explain
# and every deterministic response line (stats — line 9 — reports
# measured phase fractions, so it is the one line allowed to differ).
for f in ref moved moved2 explain; do
    cmp -s "$servedir/$f-1.txt" "$servedir/$f-4.txt" \
        || { echo "one-shot $f output diverged between 1 and 4 threads"; exit 1; }
done
diff <(sed -n '1,8p' "$servedir/resp-1.jsonl") \
     <(sed -n '1,8p' "$servedir/resp-4.jsonl") \
    || { echo "daemon responses diverged between 1 and 4 threads"; exit 1; }
echo "serve smoke gate: OK"
fi

echo "== serve soak gate =="
# Hardening contract (DESIGN.md §17): hostile traffic, kill -9 +
# journal replay, fault/stall degrade arms — short halves here; CI and
# scripts/soak_serve.sh default to longer ones.
if command -v python3 > /dev/null; then
    SOAK_SECS="${SOAK_SECS:-3}" scripts/soak_serve.sh
else
    echo "serve soak gate: skipped (no python3)"
fi

echo "== bench history =="
# The bench history appended by scripts/bench_steps.sh must stay valid
# JSON (a top-level array of run objects, or the legacy single object).
if [[ -f BENCH_pao.json ]]; then
    if command -v python3 > /dev/null; then
        python3 -c "
import json, sys
h = json.load(open('BENCH_pao.json'))
runs = h if isinstance(h, list) else [h]
# Three entry shapes share the history: step-bench runs (speedup +
# parallel phases), size_sweep runs (per-size matrix) and soak_serve
# runs (hostile-traffic soak summaries from scripts/soak_serve.sh).
assert runs, 'empty bench history'
for r in runs:
    assert 'workload' in r, 'entry missing workload'
    if r['workload'] == 'size_sweep':
        assert r.get('sizes'), 'size_sweep entry missing sizes'
    elif r['workload'] == 'soak_serve':
        assert r.get('soak'), 'soak_serve entry missing soak summary'
    else:
        assert 'speedup' in r, 'bench entry missing speedup'
print(f'BENCH_pao.json: {len(runs)} run(s), ok')
"
    else
        test -s BENCH_pao.json
    fi
fi

echo "verify: OK"
