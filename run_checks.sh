#!/usr/bin/env bash
# CI-equivalent checks: build, tests, clippy, fmt.
#
# The committed .cargo/config.toml patches every external dependency to the
# offline stubs under devtools/stubs/ (this container cannot reach the
# crates.io registry). On a networked machine, delete that file to build and
# test against the real crates — the commands below work either way.
set -euo pipefail
cd "$(dirname "$0")"

# One temp root for every scratch file below, cleaned up on ANY exit path.
# The trap is installed before the first mktemp so an early failure (e.g.
# in the doc check) can never leak temp files; the fallback guards the
# window before tmp_root is assigned.
trap 'rm -rf "${tmp_root:-/nonexistent-vcount-tmp}"' EXIT
tmp_root="$(mktemp -d /tmp/vcount_checks.XXXXXX)"

run() {
    echo "+ $*"
    "$@"
}

run cargo build --release
run cargo test -q --workspace
# Some unit tests pin release-only behaviour (`#[cfg(not(debug_assertions))]`,
# e.g. the exchange's double-handoff counter), so the engine crate's unit
# tests also run in release.
run cargo test --release -q -p vcount-sim --lib
run cargo clippy --workspace --all-targets -- -D warnings
run cargo fmt --all --check

# vbench, the end-to-end benchmark, is its own workspace over the library
# crates: a library change that breaks it fails here. --locked also fails
# any change that would make cargo rewrite vbench/Cargo.lock.
run cargo build --offline --locked --manifest-path vbench/Cargo.toml
run cargo test --offline --locked --manifest-path vbench/Cargo.toml

# Docs must build clean: every public item is documented, every intra-doc
# link resolves, and cargo itself emits no warnings (e.g. doc-path
# collisions, which -D warnings alone would not catch).
echo "+ cargo doc --workspace --no-deps (zero warnings required)"
doc_log="$tmp_root/doc_log"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps 2>"$doc_log" || {
    cat "$doc_log"
    echo "cargo doc failed (warnings are errors)" >&2
    exit 1
}
if grep -q "^warning" "$doc_log"; then
    cat "$doc_log"
    echo "cargo doc emitted warnings" >&2
    exit 1
fi

# Snapshot → resume smoke: on a tiny grid, a run interrupted by a snapshot
# and resumed must emit the byte-identical tail of the uninterrupted run's
# event trace (the per-variant digest test lives in crates/sim/tests/).
snap_dir="$tmp_root/snap"
mkdir "$snap_dir"
run cargo run --release -q -p vcount-cli --bin vcount -- \
    scenario --preset closed --volume 40 --seeds 2 --rng 9 --out "$snap_dir/scen.json"
run cargo run --release -q -p vcount-cli --bin vcount -- \
    run "$snap_dir/scen.json" --goal constitution \
    --snapshot-every 50 --snapshot-out "$snap_dir/snap.json" \
    --trace "$snap_dir/full.jsonl" >/dev/null
run cargo run --release -q -p vcount-cli --bin vcount -- \
    run --resume "$snap_dir/snap.json" --goal constitution \
    --trace "$snap_dir/tail.jsonl" >/dev/null
run python3 - "$snap_dir" <<'EOF'
import sys
d = sys.argv[1]
full = open(f"{d}/full.jsonl", "rb").read()
tail = open(f"{d}/tail.jsonl", "rb").read()
assert tail and full.endswith(tail), \
    "resumed trace is not a byte-identical suffix of the uninterrupted trace"
print(f"snapshot/resume smoke ok: {len(tail)} byte tail of {len(full)} byte trace")
EOF
# A snapshot is outside input: a poisoned copy must be refused by
# validation (exit 1 with one `error:` line), never reach a panic. One
# poison is in the sim half (the first on-edge vehicle's edge), one in the
# engine half (a checkpoint table pred).
refuse_resume() { # $1: poisoned snapshot
    local status=0
    cargo run --release -q -p vcount-cli --bin vcount -- \
        run --resume "$1" --goal constitution >/dev/null 2>"$1.err" || status=$?
    if [ "$status" -ne 1 ] || [ "$(grep -c '^error: ' "$1.err")" -ne 1 ] \
        || grep -q 'panicked' "$1.err"; then
        cat "$1.err" >&2
        echo "corrupt snapshot $1 was not refused cleanly (exit $status)" >&2
        exit 1
    fi
    echo "corrupt-snapshot smoke ok: $(grep -m1 '^error: ' "$1.err")"
}
echo "+ vcount run --resume on snap.json with one on-edge edge set to 999999 (refused)"
jq -c '.sim.vehicles.at |= (first(paths(numbers)) as $p | setpath($p; 999999))' \
    "$snap_dir/snap.json" > "$snap_dir/bad_edge.json"
refuse_resume "$snap_dir/bad_edge.json"
echo "+ vcount run --resume on snap.json with a checkpoint pred set to 999999 (refused)"
jq -c '.checkpoints.pred[0] = 999999' "$snap_dir/snap.json" > "$snap_dir/bad_pred.json"
refuse_resume "$snap_dir/bad_pred.json"
# The daemon refuses the same snapshot in a Resume and serves on: an
# Error, then the Pump's answer, then a clean exit at end of input.
echo "+ vcount serve < Resume of bad_pred.json, Pump (refused, daemon serves on)"
printf '{"Resume":{"run":"r","snapshot":%s}}\n{"Pump":{}}\n' \
    "$(cat "$snap_dir/bad_pred.json")" > "$snap_dir/bad_pred_cmds.jsonl"
cargo run --release -q -p vcount-cli --bin vcount -- \
    serve < "$snap_dir/bad_pred_cmds.jsonl" > "$snap_dir/bad_pred_resp.jsonl"
run python3 - "$snap_dir/bad_pred_resp.jsonl" <<'EOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1], encoding="utf-8")]
assert [next(iter(r)) for r in lines] == ["Error", "Pumped"], lines
message = lines[0]["Error"]["message"]
assert message.startswith("resume failed: snapshot checkpoints:"), message
print(f"corrupt-Resume smoke ok: {message}")
EOF

# Fault-injection smoke: a run under a crash+blackout+chaos plan must end
# exact or explicitly degraded (never a silent miscount), and the crash
# must actually fire (DESIGN.md §7).
fault_dir="$tmp_root/faults"
mkdir "$fault_dir"
cat > "$fault_dir/plan.json" <<'EOF'
{
  "seed": 7,
  "crashes":   [{ "node": 1, "at_s": 120.0, "recover_s": 300.0 }],
  "blackouts": [{ "nodes": [2], "from_s": 60.0, "until_s": 180.0 }],
  "chaos": { "from_s": 0.0, "until_s": 240.0, "duplicate_p": 0.2,
             "delay_p": 0.2, "max_delay_s": 10.0, "reorder_p": 0.1 },
  "image_every_s": 60.0
}
EOF
run cargo run --release -q -p vcount-cli --bin vcount -- \
    scenario --preset fig1 --rng 5 --out "$fault_dir/scen.json"
# Redirect inside the command, not around the `run` wrapper — its echo
# line must not end up in the JSON.
# The trace pins the event total end to end: telemetry counts exactly the
# records the sinks saw, fault events included.
echo "+ vcount run scen.json --faults plan.json --trace events.jsonl > metrics.json"
cargo run --release -q -p vcount-cli --bin vcount -- \
    run "$fault_dir/scen.json" --faults "$fault_dir/plan.json" \
    --trace "$fault_dir/events.jsonl" > "$fault_dir/metrics.json"
run python3 - "$fault_dir" <<'EOF'
import json, sys
d = sys.argv[1]
m = json.load(open(f"{d}/metrics.json"))
assert m["degraded"] or (
    m["oracle_violations"] == 0 and m["global_count"] == m["true_population"]
), f"SILENT miscount: {m['global_count']} vs {m['true_population']}, not degraded"
assert m["telemetry"]["crashes"] >= 1, "scheduled crash never fired"
with open(f"{d}/events.jsonl", "rb") as f:
    traced = sum(1 for _ in f)
assert m["telemetry"]["events"] == traced, \
    f"telemetry.events {m['telemetry']['events']} != {traced} traced records"
print(f"fault smoke ok: degraded={m['degraded']} "
      f"crashes={m['telemetry']['crashes']} "
      f"dropped={m['telemetry']['fault_messages_dropped']} "
      f"blackouts={m['telemetry']['blackout_failures']} "
      f"events={traced}")
EOF

# Record → replay smoke: record the same faulty run's action trace, then
# re-drive the pure protocol machines only (no simulator) and require
# byte-identical dispatches and final counts (DESIGN.md §8).
echo "+ vcount run scen.json --faults plan.json --record-actions trace.json > /dev/null"
cargo run --release -q -p vcount-cli --bin vcount -- \
    run "$fault_dir/scen.json" --faults "$fault_dir/plan.json" \
    --record-actions "$fault_dir/trace.json" >/dev/null
echo "+ vcount replay trace.json > replay.json"
cargo run --release -q -p vcount-cli --bin vcount -- \
    replay "$fault_dir/trace.json" > "$fault_dir/replay.json"
run python3 - "$fault_dir/replay.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["digests_match"] and r["counts_match"], r
print(f"record/replay smoke ok: {r['actions']} actions, "
      f"digest {r['recorded_digest']:#018x} reproduced machine-only")
EOF

# Sweep fault axis: one cell with the same plan; every cell must report
# the degraded-replicate count.
run cargo run --release -q -p vcount-cli --bin vcount -- \
    sweep --volumes 60 --seed-counts 2 --replicates 1 \
    --faults "$fault_dir/plan.json" --out "$fault_dir/sweep.json"
run python3 - "$fault_dir/sweep.json" <<'EOF'
import json, sys
cells = json.load(open(sys.argv[1]))
assert cells and all("degraded" in c for c in cells), "sweep cells lack degraded counts"
print(f"sweep fault axis ok: {len(cells)} cell(s), "
      f"degraded replicates {[c['degraded'] for c in cells]}")
EOF

# Serve smoke: transport is a deployment knob, never a semantics knob
# (DESIGN.md §10) — a scenario driven through `vcount serve` by a
# simulator-fed client must return the byte-identical event trace that
# `vcount run --trace` writes, `vcount run`, `vcount run --progress` and
# `vcount feed` must report the same metrics, and an over-rate feed
# against a tiny queue must get an explicit Throttled response (never a
# silent drop).
serve_dir="$tmp_root/serve"
mkdir "$serve_dir"
echo "+ vcount run|run --progress|feed|serve on scen.json (byte-diff event traces)"
cargo run --release -q -p vcount-cli --bin vcount -- \
    run "$snap_dir/scen.json" --goal constitution \
    --trace "$serve_dir/batch.jsonl" > "$serve_dir/mbatch.json"
cargo run --release -q -p vcount-cli --bin vcount -- \
    run "$snap_dir/scen.json" --goal constitution --progress \
    > "$serve_dir/mprog.json" 2>/dev/null
cargo run --release -q -p vcount-cli --bin vcount -- \
    feed "$snap_dir/scen.json" --goal constitution \
    --emit "$serve_dir/cmds.jsonl" \
    --trace "$serve_dir/feed.jsonl" > "$serve_dir/mfeed.json"
run cmp "$serve_dir/batch.jsonl" "$serve_dir/feed.jsonl"
echo "+ vcount serve < cmds.jsonl (stdin-transport replay, byte-diff)"
cargo run --release -q -p vcount-cli --bin vcount -- \
    serve < "$serve_dir/cmds.jsonl" > "$serve_dir/responses.jsonl"
run python3 - "$serve_dir" <<'EOF'
import json, sys
d = sys.argv[1]
batch = open(f"{d}/batch.jsonl", "rb").read()
lines = []
throttled = 0
for raw in open(f"{d}/responses.jsonl", encoding="utf-8"):
    resp = json.loads(raw)
    if "Event" in resp:
        lines.append(resp["Event"]["line"])
    elif "Throttled" in resp:
        throttled += 1
    assert "Error" not in resp, resp
replay = ("\n".join(lines) + "\n").encode() if lines else b""
assert replay == batch, "stdin-transport replay diverged from vcount run --trace"
assert throttled == 0, "default queue must absorb a single-tenant feed"
mf = json.load(open(f"{d}/mfeed.json"))
assert mf["oracle_violations"] == 0
print(f"serve smoke ok: {len(lines)} event lines byte-identical across "
      f"run/feed/serve, count {mf['global_count']}")
EOF
# The same scenario under a crash after constitution: node 71 goes down
# between constitution (905 s) and collection (1406 s) and recovers from
# its t = 0 image, so the run is degraded and does not reach its goal
# again. Every driver must stop at the same step on the same predicate.
# The time budget is cut to 2400 s so the degraded runs stay short.
echo "+ vcount run|run --progress|feed under a crash after constitution"
python3 - "$snap_dir/scen.json" "$serve_dir/scen_late.json" <<'EOF'
import json, sys
s = json.load(open(sys.argv[1]))
s["max_time_s"] = 2400.0
json.dump(s, open(sys.argv[2], "w"))
EOF
cat > "$serve_dir/late.json" <<'EOF'
{ "seed": 3, "crashes": [{ "node": 71, "at_s": 1150.0, "recover_s": 1160.0 }],
  "image_every_s": 1e7 }
EOF
cargo run --release -q -p vcount-cli --bin vcount -- \
    run "$serve_dir/scen_late.json" --faults "$serve_dir/late.json" \
    > "$serve_dir/late_mbatch.json" 2>/dev/null
cargo run --release -q -p vcount-cli --bin vcount -- \
    run "$serve_dir/scen_late.json" --faults "$serve_dir/late.json" --progress \
    > "$serve_dir/late_mprog.json" 2>/dev/null
cargo run --release -q -p vcount-cli --bin vcount -- \
    feed "$serve_dir/scen_late.json" --faults "$serve_dir/late.json" \
    --emit "$serve_dir/late_cmds.jsonl" > "$serve_dir/late_mfeed.json" 2>/dev/null
# Whole metrics, minus the wall-clock phase timings (the feeder, not the
# service, pays for traffic).
run python3 - "$serve_dir" <<'EOF'
import json, sys
d = sys.argv[1]

def metrics(name):
    m = json.load(open(f"{d}/{name}"))
    for k in ("traffic_step_secs", "protocol_secs", "relay_secs"):
        del m["telemetry"][k]
    return m

for case in ("", "late_"):
    run = metrics(f"{case}mbatch.json")
    for other in ("mprog.json", "mfeed.json"):
        got = metrics(f"{case}{other}")
        diff = sorted(k for k in run if got.get(k) != run[k])
        assert got == run, f"{case}{other} differs from {case}mbatch.json in {diff}"
late = metrics("late_mbatch.json")
assert late["degraded"] and late["constitution_done_s"] is None, late
assert late["elapsed_s"] == 2400.0, late["elapsed_s"]
print("completion parity ok: run, run --progress and feed report identical "
      "metrics, clean and under a crash after constitution")
EOF
# Over-rate feed: replay the same command stream with ingest made fully
# manual (--pump-budget 0) against a 2-batch queue; with no Pump requests
# in the stream, the queue must fill and every further batch must be
# answered Throttled.
echo "+ vcount serve --queue-capacity 2 --pump-budget 0 < cmds.jsonl (backpressure)"
cargo run --release -q -p vcount-cli --bin vcount -- \
    serve --queue-capacity 2 --pump-budget 0 < "$serve_dir/cmds.jsonl" \
    > "$serve_dir/throttled.jsonl"
run python3 - "$serve_dir/throttled.jsonl" <<'EOF'
import json, sys
accepted = throttled = 0
for raw in open(sys.argv[1], encoding="utf-8"):
    resp = json.loads(raw)
    if "Accepted" in resp:
        accepted += 1
        assert resp["Accepted"]["queued"] <= 2, resp
    elif "Throttled" in resp:
        throttled += 1
        assert resp["Throttled"] == {"run": "run-1", "queued": 2, "capacity": 2}, resp
assert accepted == 2, f"exactly the queue capacity is accepted, got {accepted}"
assert throttled > 0, "over-rate feed was never throttled"
print(f"backpressure smoke ok: {accepted} accepted, {throttled} explicit Throttled")
EOF

# Malformed-line smoke: the wire is a trust boundary (DESIGN.md §10) — a
# garbage line, Starts failing scenario validation (an out-of-range seed
# node, a channel probability of 1.5, a grid with 0 columns), and an
# Observe failing batch validation (every event row's node column out of
# range) must each get an explicit Error response, and the good tenant fed
# by the very same stream must still produce the byte-identical trace.
echo "+ vcount serve < poisoned cmds.jsonl (trust-boundary errors, byte-diff good run)"
run python3 - "$serve_dir" <<'EOF'
import json, sys
d = sys.argv[1]
good = open(f"{d}/cmds.jsonl", encoding="utf-8").read().splitlines()
start = json.loads(good[0])
assert "Start" in start, "first recorded command is the Start"
hostile = json.loads(good[0])
hostile["Start"]["run"] = "adv"
hostile["Start"]["scenario"]["seeds"] = {"Explicit": [9999]}
bad_channel = json.loads(good[0])
bad_channel["Start"]["run"] = "adv_channel"
bad_channel["Start"]["scenario"]["channel"] = {"Bernoulli": 1.5}
bad_grid = json.loads(good[0])
bad_grid["Start"]["run"] = "adv_grid"
bad_grid["Start"]["scenario"]["map"] = {"Grid": {
    "cols": 0, "rows": 3, "spacing_m": 100.0, "lanes": 1, "speed_mps": 10.0}}

OVERTAKE = 4  # the one event row kind whose third column is no node

def poison_nodes(cmd):
    # An event row is [kind, vehicle, node, edge]; set every node column.
    for row in cmd["Observe"]["batch"]["events"]:
        if row[0] != OVERTAKE:
            row[2] = 4294967295
    return cmd

out = ["this is not json", json.dumps(hostile), json.dumps(bad_channel),
       json.dumps(bad_grid)]
poisoned = False
for line in good:
    cmd = json.loads(line)
    if not poisoned and "Observe" in cmd and cmd["Observe"]["batch"]["events"]:
        out.append(json.dumps(poison_nodes(cmd)))
        poisoned = True
    out.append(line)
assert poisoned, "recorded stream has no Observe with events to poison"
open(f"{d}/poisoned.jsonl", "w", encoding="utf-8").write("\n".join(out) + "\n")
EOF
# Every refusal comes from validation, so stderr must hold no panic.
cargo run --release -q -p vcount-cli --bin vcount -- \
    serve < "$serve_dir/poisoned.jsonl" > "$serve_dir/poisoned_responses.jsonl" \
    2> "$serve_dir/poisoned_stderr.log"
run python3 - "$serve_dir" <<'EOF'
import json, sys
d = sys.argv[1]
batch = open(f"{d}/batch.jsonl", "rb").read()
lines, errors = [], []
for raw in open(f"{d}/poisoned_responses.jsonl", encoding="utf-8"):
    resp = json.loads(raw)
    if "Event" in resp:
        lines.append(resp["Event"]["line"])
    elif "Error" in resp:
        errors.append(resp["Error"])
replay = ("\n".join(lines) + "\n").encode() if lines else b""
assert replay == batch, "poison lines perturbed the good tenant's stream"
msgs = [e["message"] for e in errors]
assert any("malformed request" in m for m in msgs), msgs
assert any("start failed: scenario seed 9999" in m for m in msgs), msgs
for run in ("adv_channel", "adv_grid"):
    assert any(e["run"] == run and e["message"].startswith("start failed:")
               for e in errors), (run, errors)
assert any("malformed batch" in m for m in msgs), msgs
assert "panicked" not in open(f"{d}/poisoned_stderr.log").read(), \
    "a poisoned request reached a panic instead of validation"
print(f"malformed-line smoke ok: {len(errors)} explicit Errors, "
      f"good stream byte-identical ({len(lines)} events)")
EOF

# Concurrent-feeders smoke: one daemon, two tenants at once, first over a
# Unix socket, then over TCP — each feeder's returned trace must be
# byte-identical to its own solo `vcount run --trace`, and the Unix
# daemon must remove its socket file on exit (DESIGN.md §10).
echo "+ vcount serve --socket --max-conns 2 & two concurrent feeds (byte-diff)"
run cargo run --release -q -p vcount-cli --bin vcount -- \
    scenario --preset closed --volume 40 --seeds 2 --rng 10 --out "$serve_dir/scen_b.json"
cargo run --release -q -p vcount-cli --bin vcount -- \
    run "$serve_dir/scen_b.json" --goal constitution \
    --trace "$serve_dir/batch_b.jsonl" > "$serve_dir/mbatch_b.json"
vcountd_sock="$serve_dir/vcountd.sock"
cargo run --release -q -p vcount-cli --bin vcount -- \
    serve --socket "$vcountd_sock" --max-conns 2 2>/dev/null &
serve_pid=$!
for _ in $(seq 100); do
    [ -S "$vcountd_sock" ] && break
    sleep 0.1
done
[ -S "$vcountd_sock" ] || { echo "daemon never bound $vcountd_sock" >&2; exit 1; }
cargo run --release -q -p vcount-cli --bin vcount -- \
    feed "$snap_dir/scen.json" --goal constitution --run a \
    --socket "$vcountd_sock" --trace "$serve_dir/feed_a.jsonl" \
    > "$serve_dir/mfeed_a.json" &
feed_a_pid=$!
cargo run --release -q -p vcount-cli --bin vcount -- \
    feed "$serve_dir/scen_b.json" --goal constitution --run b \
    --socket "$vcountd_sock" --trace "$serve_dir/feed_b.jsonl" \
    > "$serve_dir/mfeed_b.json" &
feed_b_pid=$!
wait "$feed_a_pid"
wait "$feed_b_pid"
wait "$serve_pid"
run cmp "$serve_dir/batch.jsonl" "$serve_dir/feed_a.jsonl"
run cmp "$serve_dir/batch_b.jsonl" "$serve_dir/feed_b.jsonl"
if [ -e "$vcountd_sock" ]; then
    echo "daemon exited without removing $vcountd_sock" >&2
    exit 1
fi
# The same two feeders over TCP: the daemon binds an ephemeral port and
# prints it on its `vcountd listening on` line.
echo "+ vcount serve --listen 127.0.0.1:0 --max-conns 2 & two concurrent feeds (byte-diff)"
vcountd_log="$serve_dir/vcountd_tcp.log"
cargo run --release -q -p vcount-cli --bin vcount -- \
    serve --listen 127.0.0.1:0 --max-conns 2 2>"$vcountd_log" &
serve_pid=$!
vcountd_addr=""
for _ in $(seq 100); do
    vcountd_addr="$(sed -n 's/^vcountd listening on //p' "$vcountd_log")"
    [ -n "$vcountd_addr" ] && break
    sleep 0.1
done
[ -n "$vcountd_addr" ] || { echo "daemon never printed its TCP address" >&2; exit 1; }
cargo run --release -q -p vcount-cli --bin vcount -- \
    feed "$snap_dir/scen.json" --goal constitution --run a \
    --connect "$vcountd_addr" --trace "$serve_dir/tcp_feed_a.jsonl" \
    > "$serve_dir/tcp_mfeed_a.json" &
feed_a_pid=$!
cargo run --release -q -p vcount-cli --bin vcount -- \
    feed "$serve_dir/scen_b.json" --goal constitution --run b \
    --connect "$vcountd_addr" --trace "$serve_dir/tcp_feed_b.jsonl" \
    > "$serve_dir/tcp_mfeed_b.json" &
feed_b_pid=$!
wait "$feed_a_pid"
wait "$feed_b_pid"
wait "$serve_pid"
run cmp "$serve_dir/batch.jsonl" "$serve_dir/tcp_feed_a.jsonl"
run cmp "$serve_dir/batch_b.jsonl" "$serve_dir/tcp_feed_b.jsonl"
run python3 - "$serve_dir" <<'EOF'
import json, sys
d = sys.argv[1]
for transport in ("", "tcp_"):
    for tag in ("a", "b"):
        ref = json.load(open(f"{d}/mbatch.json" if tag == "a" else f"{d}/mbatch_b.json"))
        fed = json.load(open(f"{d}/{transport}mfeed_{tag}.json"))
        assert fed["global_count"] == ref["global_count"], (transport, tag, fed["global_count"])
        assert fed["oracle_violations"] == 0, (transport, tag, fed)
print("concurrent-feeders smoke ok: both tenants byte-identical to solo runs "
      "over a Unix socket and over TCP, socket file cleaned up")
EOF

# Trace-dir smoke: the daemon writes a server-side trace only as a bare
# file name inside its --trace-dir, and never over an existing file
# (DESIGN.md §10). `--server-trace x.jsonl` leaves DIR/x.jsonl
# byte-identical to the feeder's own trace; a second feed naming
# x.jsonl is refused and leaves it so; `--server-trace ../x.jsonl` is
# refused and creates no file.
echo "+ vcount serve --socket --trace-dir D & feed --server-trace x.jsonl, x.jsonl again, ../x.jsonl"
trace_dir="$serve_dir/traces"
mkdir "$trace_dir"
vcountd_sock="$serve_dir/vcountd_traces.sock"
cargo run --release -q -p vcount-cli --bin vcount -- \
    serve --socket "$vcountd_sock" --max-conns 3 --trace-dir "$trace_dir" 2>/dev/null &
serve_pid=$!
for _ in $(seq 100); do
    [ -S "$vcountd_sock" ] && break
    sleep 0.1
done
[ -S "$vcountd_sock" ] || { echo "daemon never bound $vcountd_sock" >&2; exit 1; }
cargo run --release -q -p vcount-cli --bin vcount -- \
    feed "$fault_dir/scen.json" --socket "$vcountd_sock" \
    --trace "$serve_dir/trace_dir_feed.jsonl" --server-trace x.jsonl >/dev/null
again_status=0
cargo run --release -q -p vcount-cli --bin vcount -- \
    feed "$fault_dir/scen.json" --socket "$vcountd_sock" --run again \
    --server-trace x.jsonl >/dev/null 2>"$serve_dir/again.err" || again_status=$?
escape_status=0
cargo run --release -q -p vcount-cli --bin vcount -- \
    feed "$fault_dir/scen.json" --socket "$vcountd_sock" --run escape \
    --server-trace ../x.jsonl >/dev/null 2>"$serve_dir/escape.err" || escape_status=$?
wait "$serve_pid"
run cmp "$serve_dir/trace_dir_feed.jsonl" "$trace_dir/x.jsonl"
if [ "$again_status" -ne 1 ] || ! grep -q 'already exists' "$serve_dir/again.err"; then
    cat "$serve_dir/again.err" >&2
    echo "a second --server-trace x.jsonl was not refused cleanly (exit $again_status)" >&2
    exit 1
fi
if [ "$escape_status" -ne 1 ] || ! grep -q 'is not a bare file name' "$serve_dir/escape.err" \
    || [ -e "$serve_dir/x.jsonl" ]; then
    cat "$serve_dir/escape.err" >&2
    echo "--server-trace ../x.jsonl was not refused cleanly (exit $escape_status)" >&2
    exit 1
fi
echo "trace-dir smoke ok: x.jsonl written inside --trace-dir and kept, ../x.jsonl refused"

# Bench smoke: the hotpath bin must run end to end, emit well-formed JSON,
# and stay within 5% of the committed throughput baseline — both
# steps/sec and events/sec per case (tiny grid, a few hundred steps —
# seconds, not minutes; regressions re-measure at the committed length
# before failing). The high-fanout relay case must be present: it is the
# message-plane guard, where events/sec is dominated by wire traffic. No
# `_sN` case (a per-worker-count variant) may come back: the engine runs a
# single region.
smoke_out="$tmp_root/bench_smoke.json"
run cargo run --release -q -p vcount-bench --bin hotpath -- --smoke --out "$smoke_out" \
    --guard BENCH_hotpath.json --tolerance 0.05
if command -v jq >/dev/null 2>&1; then
    run jq -e '.schema == "vcount-hotpath-bench/v1" and (.cases | length) > 0 and all(.cases[]; .steps_per_sec > 0 and .events_per_sec > 0) and any(.cases[]; .name | startswith("fanout_")) and all(.cases[]; .name | test("_s[0-9]+$") | not)' "$smoke_out" >/dev/null
else
    run python3 - "$smoke_out" <<'EOF'
import json, re, sys
r = json.load(open(sys.argv[1]))
assert r["schema"] == "vcount-hotpath-bench/v1", r["schema"]
assert r["cases"] and all(c["steps_per_sec"] > 0 and c["events_per_sec"] > 0 for c in r["cases"])
assert any(c["name"].startswith("fanout_") for c in r["cases"]), "high-fanout case missing"
assert not any(re.search(r"_s[0-9]+$", c["name"]) for c in r["cases"]), "_sN case present"
EOF
fi
echo "All checks passed."
