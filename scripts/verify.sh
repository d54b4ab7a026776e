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

echo "== doc paths: every backticked crates/... path in the docs exists =="
# A module that moves or is folded into another leaves its old path in
# the design notes; this fails on such a path, naming doc and line. A
# trailing `:line` or `::item` is stripped first, and `*` is a glob.
python3 - README.md DESIGN.md ROADMAP.md EXPERIMENTS.md <<'EOF'
import glob, os, re, sys

stale = []
for doc in sys.argv[1:]:
    with open(doc) as fh:
        for lineno, line in enumerate(fh, 1):
            for path in re.findall(r"`(crates/[^`\s]*)`", line):
                bare = re.sub(r"(::.*|:[0-9][0-9-]*)$", "", path)
                if not (glob.glob(bare) if "*" in bare else os.path.exists(bare)):
                    stale.append(f"{doc}:{lineno}: `{path}`")
if stale:
    print("FAIL: docs name paths that do not exist:", file=sys.stderr)
    for entry in stale:
        print(f"  {entry}", file=sys.stderr)
    sys.exit(1)
print("ok: every backticked crates/ path in the docs exists")
EOF

echo "== cargo build --release (offline) =="
cargo build --release --workspace --all-targets

echo "== cargo test -q (offline) =="
cargo test -q --workspace

echo "== cargo clippy on the whole workspace, every target (warnings are errors) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo doc on the whole workspace (rustdoc warnings are errors) =="
# A stale intra-doc link (a renamed or deleted item, a link to a private
# one) fails here instead of rendering as plain text.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== benchmark's own tests (perfbench correctness gate) =="
# perfbench is a workspace of its own, so the step above does not reach
# it. Its tests run tiny passes of every workload through the benchmark's
# correctness gate: assertion-matrix cells must match sit-datagen ground
# truth, and `assert` on a cloned session must derive as many facts as
# the service reported. `--locked` fails the step instead of letting a
# change to a crate the benchmark depends on rewrite perfbench/Cargo.lock.
CARGO_TARGET_DIR=.bench_build cargo test --offline --locked --manifest-path perfbench/Cargo.toml

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

echo "== large-frame smoke (a ~900 KiB add_schema frame over --stdio) =="
# Decoding and encoding are linear in frame size, so a frame close to
# wire::MAX_FRAME is answered at once; a decoder quadratic in frame size
# would hold it for minutes and trip the timeout.
big_out="$(python3 - <<'EOF' | timeout 10 ./target/release/sit serve --stdio
import json

ddl = "schema big {\n"
i = 0
while len(ddl) < 900 * 1024:
    attrs = " ".join(f"A{i}_{k}: char;" for k in range(600))
    ddl += f"  entity E{i} {{ Name{i}: char key; {attrs} }}\n"
    i += 1
ddl += "}"
for frame in ({"op": "open"}, {"op": "add_schema", "session": "1", "ddl": ddl}):
    print(json.dumps(frame, separators=(",", ":")))
EOF
)" || { echo "FAIL: sit serve --stdio did not answer a ~900 KiB frame within 10 s" >&2; exit 1; }
big_reply="$(echo "$big_out" | sed -n 2p)"
case "$big_reply" in
  '{"ok":true,'* | '{"ok":false,"error":{"code":"bad_request",'*) ;;
  *) echo "FAIL: ~900 KiB add_schema frame got no typed reply: ${big_reply:0:200}" >&2; exit 1 ;;
esac
echo "ok: ~900 KiB add_schema frame answered: ${big_reply:0:60}"

echo "== many-root smoke (~1,500 root entity sets, then assert and retract) =="
# A schema's root entity sets are pairwise disjoint: n²/2 structural
# facts. Registration writes their closure in one pass, and a retract
# rebuilds it the same way, so this session answers well inside the
# timeout; propagating every disjointness fact on its own took about
# 21 s for the add_schema frame alone.
many_out="$(python3 - <<'EOF' | timeout 10 ./target/release/sit serve --stdio
import json

ddl = "schema many {\n"
i = 0
while len(ddl) < 900 * 1024:
    attrs = " ".join(f"A{i}_{k}: char;" for k in range(38))
    ddl += f"  entity E{i} {{ K{i}: char key; {attrs} }}\n"
    i += 1
ddl += "}"
few = "schema few { entity F { K: char key; } entity G { K: char key; } }"
pair = {"session": "1", "a": "many.E0", "b": "few.F"}
for frame in (
    {"op": "open"},
    {"op": "add_schema", "session": "1", "ddl": ddl},
    {"op": "add_schema", "session": "1", "ddl": few},
    {"op": "assert", **pair, "assertion": "equals"},
    {"op": "retract", **pair},
):
    print(json.dumps(frame, separators=(",", ":")))
EOF
)" || { echo "FAIL: sit serve --stdio did not answer the many-root session within 10 s" >&2; exit 1; }
if [ "$(echo "$many_out" | grep -c '^{"ok":true,')" -ne 5 ] \
  || ! echo "$many_out" | sed -n 5p | grep -q '"retracted":true'; then
  echo "FAIL: the many-root session got an error or an unexpected reply:" >&2
  echo "$many_out" | cut -c1-100 >&2
  exit 1
fi
echo "ok: ~1,500-root add_schema, assert and retract answered"

echo "== deep-chain smoke (a 2,046-deep category chain, then a conflict citing it) =="
# A category is PP each of its ancestors, so a chain of n categories
# pins n²/2 pairs, and its leaf's pair with its root rests on all n
# edges. Provenance is a log of one entry per refinement, read only when
# a report cites it; storing each pair's fact list took ~n³/6 ids, about
# 11 GB for this chain. The chain's 2,047 object classes and the second
# schema's one fill Session::MAX_OBJECTS. The conflict reply must cite
# every edge plus the `equals`: 2,047 supports.
deep_out="$(python3 - <<'EOF' | bash -c 'ulimit -v 1048576 && exec timeout 10 ./target/release/sit serve --stdio'
import json

n = 2046
ddl = "schema deep {\n  entity C0 { K: char key; }\n"
ddl += "".join(f"  category C{i} of C{i - 1} {{ }}\n" for i in range(1, n + 1))
ddl += "}"
few = "schema few { entity F { K: char key; } }"
for frame in (
    {"op": "open"},
    {"op": "add_schema", "session": "1", "ddl": ddl},
    {"op": "add_schema", "session": "1", "ddl": few},
    {"op": "assert", "session": "1", "a": "few.F", "b": f"deep.C{n}", "assertion": "equals"},
    {"op": "assert", "session": "1", "a": "few.F", "b": "deep.C0",
     "assertion": "disjoint-non-integrable"},
):
    print(json.dumps(frame, separators=(",", ":")))
EOF
)" || { echo "FAIL: sit serve --stdio did not answer the deep-chain session within 10 s and 1 GiB" >&2; exit 1; }
deep_supports="$(echo "$deep_out" | sed -n 5p | python3 -c '
import json, sys
error = json.loads(sys.stdin.read())["error"]
print(error["message"].count("\n  ") if error["code"] == "conflict" else -1)
' 2>/dev/null || echo -1)"
if [ "$(echo "$deep_out" | sed -n 1,4p | grep -c '^{"ok":true,')" -ne 4 ] \
  || [ "$deep_supports" -ne 2047 ]; then
  echo "FAIL: the deep-chain session erred, or its conflict did not cite 2,047 supports ($deep_supports):" >&2
  echo "$deep_out" | cut -c1-100 >&2
  exit 1
fi
echo "ok: 2,046-deep chain seeded; its conflict cites all $deep_supports supports"

echo "== atomic add_schema smoke (a frame whose second block fails registers nothing) =="
# An add_schema frame's blocks are checked as a batch before any is
# registered, so an error leaves the session as it was and a retry of
# the same frame meets the same error.
atomic_out="$(printf '%s\n' \
  '{"op":"open"}' \
  '{"op":"add_schema","session":"1","ddl":"schema a { entity X { k: int key; } } schema a { entity Y { k: int key; } }"}' \
  '{"op":"list_schemas","session":"1"}' \
  | timeout 10 ./target/release/sit serve --stdio)" \
  || { echo "FAIL: sit serve --stdio did not answer the add_schema batch" >&2; exit 1; }
if ! echo "$atomic_out" | sed -n 2p | grep -q '^{"ok":false,"error":{"code":"core",' \
  || ! echo "$atomic_out" | sed -n 3p | grep -q '"schemas":\[\]'; then
  echo "FAIL: a failing add_schema block left earlier blocks registered:" >&2
  echo "$atomic_out" >&2
  exit 1
fi
echo "ok: the failing frame registered no schema"

echo "== shared-schema smoke (two sessions, one DDL text, one parse) =="
# Every add_schema text goes through one service-wide table: the second
# session's copy of a text is a hit, and a text that does not parse is
# not kept, so sending it again fails the same way.
intern_ddl='schema s { entity E { k: int key; } entity F { m: char key; } }'
intern_out="$(printf '%s\n' \
  '{"op":"open"}' \
  '{"op":"open"}' \
  "{\"op\":\"add_schema\",\"session\":\"1\",\"ddl\":\"$intern_ddl\"}" \
  "{\"op\":\"add_schema\",\"session\":\"2\",\"ddl\":\"$intern_ddl\"}" \
  '{"op":"add_schema","session":"1","ddl":"schema t { entity Café { k: int key; } }"}' \
  '{"op":"add_schema","session":"2","ddl":"schema t { entity Café { k: int key; } }"}' \
  '{"op":"metrics_text"}' \
  | timeout 10 ./target/release/sit serve --stdio)" \
  || { echo "FAIL: sit serve --stdio did not answer the shared-schema session" >&2; exit 1; }
bad_first="$(echo "$intern_out" | sed -n 5p)"
if ! echo "$intern_out" | sed -n 3,4p | grep -c '^{"ok":true,"schemas":\["s"\]}$' | grep -qx 2 \
  || ! echo "$bad_first" | grep -q '^{"ok":false,"error":{"code":"bad_request",' \
  || [ "$bad_first" != "$(echo "$intern_out" | sed -n 6p)" ] \
  || ! echo "$intern_out" | sed -n 7p | grep -qF 'sit_schema_intern_hits_total 1\n' \
  || ! echo "$intern_out" | sed -n 7p | grep -qF 'sit_schema_intern_entries 1\n'; then
  echo "FAIL: a repeated add_schema text was not one hit, or bad DDL answered differently twice:" >&2
  echo "$intern_out" | cut -c1-200 >&2
  exit 1
fi
echo "ok: the second session's text was a hit; bad DDL failed alike twice: ${bad_first:0:110}"

echo "== restart smoke (a class left within one schema survives recovery) =="
# `equiv x=y`, `equiv y=z`, `unequiv y` leaves {sc1.A.x, sc1.C.z}, a class
# within one schema. Served durably in two processes split after the
# unequiv, every write snapshotted, the last equiv, candidates and save
# must answer byte for byte as one uninterrupted in-memory run does.
restart_dir="$(mktemp -d)"
restart_ddl='schema sc1 { entity A { x: char key; } entity C { z: char key; } } schema sc2 { entity B { y: char key; } entity D { w: char key; } }'
restart_head=(
  '{"op":"open"}'
  "{\"op\":\"add_schema\",\"session\":\"1\",\"ddl\":\"$restart_ddl\"}"
  '{"op":"equiv","session":"1","a":"sc1.A.x","b":"sc2.B.y"}'
  '{"op":"equiv","session":"1","a":"sc2.B.y","b":"sc1.C.z"}'
  '{"op":"unequiv","session":"1","a":"sc2.B.y"}'
)
restart_tail=(
  '{"op":"equiv","session":"1","a":"sc1.A.x","b":"sc2.D.w"}'
  '{"op":"candidates","session":"1","a":"sc1","b":"sc2"}'
  '{"op":"save","session":"1"}'
)
durable_stdio() {
  timeout 10 ./target/release/sit serve --stdio --data-dir "$restart_dir" --snapshot-every 1
}
restart_one="$(printf '%s\n' "${restart_head[@]}" "${restart_tail[@]}" \
  | timeout 10 ./target/release/sit serve --stdio | tail -n 3)" \
  && restart_first="$(printf '%s\n' "${restart_head[@]}" | durable_stdio)" \
  && restart_two="$(printf '%s\n' "${restart_tail[@]}" | durable_stdio)" \
  || { rm -rf "$restart_dir"; echo "FAIL: sit serve --stdio did not answer the restart session" >&2; exit 1; }
rm -rf "$restart_dir"
if echo "$restart_first" | grep -q '"ok":false' || [ "$restart_one" != "$restart_two" ]; then
  echo "FAIL: a restart changed the replies after a same-schema class:" >&2
  echo "  first run:     $restart_first" | cut -c1-300 >&2
  echo "  uninterrupted: $restart_one" | cut -c1-300 >&2
  echo "  restarted:     $restart_two" | cut -c1-300 >&2
  exit 1
fi
echo "ok: the restarted session answered like the uninterrupted one"

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
