#!/usr/bin/env bash
# Tier-1 verification: the workspace must be rustfmt-clean, build, test,
# and resolve its dependency graph fully offline (no registry crates at
# all), and the session server must come up, answer a scripted session,
# and shut down cleanly.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== cargo fmt --check (root workspace; perfbench is its own) =="
cargo fmt --all -- --check

echo "== cargo build --release (offline) =="
cargo build --release --workspace --all-targets

echo "== cargo test -q (offline) =="
cargo test -q --workspace

echo "== cargo clippy on the server, core and obs crates (warnings are errors) =="
cargo clippy --offline -p sit-server -p sit-core -p sit-obs --all-targets -- -D warnings

echo "== benchmark's own tests (perfbench correctness gate) =="
# perfbench is a workspace of its own, so the step above does not reach
# it. Its tests run tiny passes of every workload through the benchmark's
# correctness gate: assertion-matrix cells must match sit-datagen ground
# truth, and `assert` on a cloned session must derive as many facts as
# the service reported.
CARGO_TARGET_DIR=.bench_build cargo test --offline --manifest-path perfbench/Cargo.toml

echo "== dependency graph is the workspace allowlist, nothing else =="
# The resolved graph must be exactly the in-tree crates below: every
# package must be path-sourced and on the allowlist. Anything else —
# a registry/git source, or a new in-tree crate nobody allowlisted —
# fails loudly with the offending crate named.
meta_json="$(mktemp)"
trap 'rm -f "$meta_json"' EXIT
cargo metadata --format-version 1 --locked >"$meta_json"
python3 - "$meta_json" <<'EOF'
import json, sys

ALLOWED = {
    "sit",
    "sit-bench",
    "sit-core",
    "sit-datagen",
    "sit-ecr",
    "sit-matcher",
    "sit-obs",
    "sit-prng",
    "sit-server",
    "sit-translate",
    "sit-tui",
}

with open(sys.argv[1]) as fh:
    meta = json.load(fh)
bad = []
for pkg in meta["packages"]:
    if pkg["source"] is not None:
        bad.append(
            f'{pkg["name"]} {pkg["version"]}: external source {pkg["source"]}'
        )
    elif pkg["name"] not in ALLOWED:
        bad.append(
            f'{pkg["name"]} {pkg["version"]}: path crate not on the allowlist '
            f"(add it to scripts/verify.sh deliberately)"
        )
if bad:
    print("FAIL: dependency graph contains non-allowlisted crates:", file=sys.stderr)
    for line in bad:
        print(f"  {line}", file=sys.stderr)
    sys.exit(1)
names = sorted(p["name"] for p in meta["packages"])
print(f"ok: {len(names)} workspace crates, no external deps: {', '.join(names)}")
EOF

echo "== no stray println!/eprintln! outside bin targets, the bench harness, and sit-obs =="
# Library code reports through sit-obs (spans, counters, histograms) or
# returns values — printing belongs to binaries (src/bin), the bench
# harness's table output, and the obs crate itself.
if grep -rn 'println!\|eprintln!' src crates/*/src --include='*.rs' \
    | grep -v '^src/bin/' | grep -v '^crates/bench/' | grep -v '^crates/obs/'; then
  echo "FAIL: stray print in library code (route it through sit-obs or return it)" >&2
  exit 1
fi
echo "ok: library crates are print-free"

echo "== traced smoke session (sit trace -> Chrome trace JSON) =="
trace_json="$(mktemp)"
trap 'rm -f "$meta_json" "$trace_json"' EXIT
./target/release/sit trace "$trace_json" | sed 's/^/  /'
python3 - "$trace_json" <<'EOF'
import json, sys

with open(sys.argv[1]) as fh:
    trace = json.load(fh)
events = trace["traceEvents"]
assert events, "exported trace has no events"
for e in events:
    assert e["ph"] in ("X", "i"), e
    assert isinstance(e["ts"], (int, float)), e
    assert e["pid"] == 1, e
    if e["ph"] == "X":
        assert isinstance(e["dur"], (int, float)), e
names = {e["name"] for e in events}
needed = [
    # request lifecycle (server layer)
    "request", "parse", "dispatch", "encode",
    # engine phases (core layer)
    "session.add_schema", "acs.declare_equivalent", "ocs.ranked_pairs",
    "ocs.ranked_rel_pairs", "closure.assert", "integrate", "integrate.lattice",
    "integrate.attrs", "integrate.assemble", "integrate.rels",
]
missing = [n for n in needed if n not in names]
assert not missing, f"trace is missing spans: {missing}"
print(f"ok: {len(events)} events, all lifecycle + engine spans present")
EOF

echo "== chaos determinism (fixed seeds 101-124, cross-process trace diff) =="
# The suite itself runs every seed twice in-process and asserts the
# traces match; here we additionally run the whole suite in two separate
# processes and require the combined event-trace dumps to be identical —
# catching any nondeterminism tied to process state (ASLR, hash seeds,
# thread scheduling) that an in-process comparison could mask.
chaos_a="$(mktemp)"
chaos_b="$(mktemp)"
trap 'rm -f "$meta_json" "$trace_json" "$chaos_a" "$chaos_b"' EXIT
for dump in "$chaos_a" "$chaos_b"; do
  SIT_CHAOS_TRACE="$dump" cargo test -q --release -p sit-server --test chaos \
    chaos_scenarios_are_deterministic_and_hold_invariants -- --exact >/dev/null
done
if ! cmp -s "$chaos_a" "$chaos_b"; then
  echo "FAIL: chaos event traces diverged between two runs of the same seeds:" >&2
  diff "$chaos_a" "$chaos_b" | head -20 >&2
  exit 1
fi
[ -s "$chaos_a" ] || { echo "FAIL: chaos trace dump is empty" >&2; exit 1; }
echo "ok: $(wc -l <"$chaos_a") trace lines, byte-identical across independent runs"

echo "== server smoke test (serve + scripted client session) =="
serve_log="$(mktemp)"
./target/release/sit serve --addr 127.0.0.1:0 >"$serve_log" &
serve_pid=$!
cleanup_server() {
  kill "$serve_pid" 2>/dev/null || true
  rm -f "$serve_log" "$meta_json" "$trace_json" "$chaos_a" "$chaos_b"
}
trap cleanup_server EXIT

# The server prints `listening on 127.0.0.1:PORT` once bound.
port=""
for _ in $(seq 1 50); do
  port="$(sed -n 's/^listening on 127\.0\.0\.1://p' "$serve_log" || true)"
  [ -n "$port" ] && break
  sleep 0.1
done
[ -n "$port" ] || { echo "FAIL: server never reported its port" >&2; exit 1; }

smoke_out="$(./target/release/sit client "127.0.0.1:$port" <<'REQS'
{"op":"ping"}
{"op":"load","script":"schema s1 { entity Student { Name: char key; } }\nschema s2 { entity Pupil { Name: char key; } }\nequiv s1.Student.Name = s2.Pupil.Name;\nassert s1.Student equals s2.Pupil;"}
{"op":"integrate","session":"1","a":"s1","b":"s2"}
{"op":"stats"}
{"op":"metrics_text"}
REQS
)"
echo "$smoke_out" | sed 's/^/  /'
echo "$smoke_out" | grep -q '"pong":true' \
  || { echo "FAIL: no pong from server" >&2; exit 1; }
echo "$smoke_out" | grep -q '"ok":true,"schema":' \
  || { echo "FAIL: integrate over the wire failed" >&2; exit 1; }
echo "$smoke_out" | grep -q 'sit_requests_total' \
  || { echo "FAIL: metrics_text exposition missing over the wire" >&2; exit 1; }

# Short connections must not pile up descriptors in the server: each
# one is released when its client hangs up, not at shutdown.
if [ -d "/proc/$serve_pid/fd" ]; then
  fds_before="$(ls "/proc/$serve_pid/fd" | wc -l)"
  for _ in $(seq 1 200); do
    exec 3<>"/dev/tcp/127.0.0.1/$port"
    printf '{"op":"ping"}\n' >&3
    read -r _ <&3
    exec 3>&-
  done
  fds_after=""
  for _ in $(seq 1 50); do
    fds_after="$(ls "/proc/$serve_pid/fd" | wc -l)"
    [ "$fds_after" -le $((fds_before + 4)) ] && break
    sleep 0.1
  done
  if [ "$fds_after" -gt $((fds_before + 4)) ]; then
    echo "FAIL: server fds grew from $fds_before to $fds_after over 200 connections" >&2
    exit 1
  fi
  echo "ok: server fds $fds_before -> $fds_after over 200 short connections"
fi

bye="$(echo '{"op":"shutdown"}' | ./target/release/sit client "127.0.0.1:$port")"
echo "$bye" | grep -q '"draining":true' \
  || { echo "FAIL: shutdown not acknowledged" >&2; exit 1; }

# Graceful shutdown: the process must exit on its own (drained), not be
# killed by the trap.
for _ in $(seq 1 50); do
  kill -0 "$serve_pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$serve_pid" 2>/dev/null; then
  echo "FAIL: server still running after shutdown request" >&2
  exit 1
fi
wait "$serve_pid" 2>/dev/null || true
echo "ok: server served the scripted session and drained cleanly"

echo "== crash-recovery smoke (kill -9 a durable server, restart, diff saves) =="
persist_dir="$(mktemp -d)"
crash_log="$(mktemp)"
crash_pid=""
cleanup_crash() {
  [ -n "$crash_pid" ] && kill -9 "$crash_pid" 2>/dev/null || true
  rm -rf "$persist_dir"
  rm -f "$crash_log"
  cleanup_server
}
trap cleanup_crash EXIT

start_durable() {
  : >"$crash_log"
  ./target/release/sit serve --addr 127.0.0.1:0 --data-dir "$persist_dir" \
    --fsync always --snapshot-every 4 >"$crash_log" &
  crash_pid=$!
  crash_port=""
  for _ in $(seq 1 50); do
    crash_port="$(sed -n 's/^listening on 127\.0\.0\.1://p' "$crash_log" || true)"
    [ -n "$crash_port" ] && break
    sleep 0.1
  done
  [ -n "$crash_port" ] || { echo "FAIL: durable server never reported its port" >&2; exit 1; }
}

start_durable
before="$(./target/release/sit client "127.0.0.1:$crash_port" <<'REQS'
{"op":"open"}
{"op":"add_schema","session":"1","ddl":"schema s1 { entity Student { Name: char key; } }"}
{"op":"add_schema","session":"1","ddl":"schema s2 { entity Pupil { Name: char key; } }"}
{"op":"equiv","session":"1","a":"s1.Student.Name","b":"s2.Pupil.Name"}
{"op":"assert","session":"1","a":"s1.Student","b":"s2.Pupil","assertion":"equals"}
{"op":"add_schema","session":"1","ddl":"schema s3 { entity Learner { Name: char key; } }"}
{"op":"add_schema","session":"1","ddl":"schema s4 { entity Scholar { Name: char key; } }"}
{"op":"equiv","session":"1","a":"s3.Learner.Name","b":"s4.Scholar.Name"}
{"op":"assert","session":"1","a":"s3.Learner","b":"s4.Scholar","assertion":"equals"}
{"op":"persist_stats"}
{"op":"save","session":"1"}
REQS
)"
echo "$before" | grep -q '"ok":false' \
  && { echo "FAIL: durable session setup rejected a request" >&2; exit 1; }
# Eight mutations under --snapshot-every 4: two snapshot records.
echo "$before" | grep -q '"snapshots":2' \
  || { echo "FAIL: expected two snapshot records: $before" >&2; exit 1; }
before_save="$(echo "$before" | tail -n 1)"

# Die with no chance to flush or say goodbye; every frame above was
# acknowledged under --fsync always, so nothing acknowledged may be lost.
# (The brace group keeps bash's "Killed" job notice out of the output.)
{ kill -9 "$crash_pid" && wait "$crash_pid"; } 2>/dev/null || true
crash_pid=""

start_durable
after="$(printf '%s\n' \
  '{"op":"save","session":"1"}' \
  '{"op":"persist_stats"}' \
  '{"op":"close","session":"1"}' \
  '{"op":"shutdown"}' \
  | ./target/release/sit client "127.0.0.1:$crash_port")"
after_save="$(echo "$after" | head -n 1)"
if [ "$before_save" != "$after_save" ]; then
  echo "FAIL: recovered session does not save byte-identically after kill -9:" >&2
  echo "  before: $before_save" >&2
  echo "  after:  $after_save" >&2
  exit 1
fi
echo "$after" | grep -q '"enabled":true' \
  || { echo "FAIL: persist_stats does not report persistence enabled" >&2; exit 1; }
echo "$after" | grep -q '"closed":true' \
  || { echo "FAIL: close of the recovered session not acknowledged" >&2; exit 1; }
# A session owns no file: the directory holds log segments only.
left="$(cd "$persist_dir" && ls -A | grep -v '^log\.[0-9]*\.[0-9]*$' || true)"
if [ -n "$left" ]; then
  echo "FAIL: files other than log segments remain: $left" >&2
  exit 1
fi
wait_exit() {
  for _ in $(seq 1 50); do
    kill -0 "$crash_pid" 2>/dev/null || break
    sleep 0.1
  done
  if kill -0 "$crash_pid" 2>/dev/null; then
    echo "FAIL: recovered server still running after shutdown request" >&2
    exit 1
  fi
  wait "$crash_pid" 2>/dev/null || true
  crash_pid=""
}
wait_exit

# Restart once more: the acknowledged close must hold across recovery.
start_durable
reopened="$(printf '%s\n' \
  '{"op":"save","session":"1"}' \
  '{"op":"shutdown"}' \
  | ./target/release/sit client "127.0.0.1:$crash_port" 2>/dev/null || true)"
echo "$reopened" | head -n 1 | grep -q '"code":"unknown_session"' \
  || { echo "FAIL: closed session 1 came back after restart: $reopened" >&2; exit 1; }
wait_exit
echo "ok: acknowledged state survived kill -9 byte-for-byte; only log segments on disk; close held across a restart"

echo "== verify OK =="
