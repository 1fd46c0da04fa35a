#!/usr/bin/env bash
# Tier-1 verification: formatting, release build, full test suite.
# The workspace is dependency-free, so everything runs offline
# (--offline makes cargo fail fast instead of probing the network).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo build --release"
cargo build --release --offline

# Size claims in CHANGES.md are read off this table, not counted by hand.
echo "==> non-test lines of crates/everest/src"
scripts/loc.sh crates/everest/src

echo "==> cargo test -q"
cargo test -q --offline

echo "==> benches compile"
cargo build -q --offline -p mathcloud-bench --benches

# The autoscaling load test drives a mock clock with wall-clock pacing; run
# it in release mode under a hard timeout so a livelocked pool (a worker
# missing a poison pill, a controller that never converges) fails the build
# instead of hanging it.
echo "==> pool autoscaling load test (release, 300s budget)"
timeout 300 cargo test -q --offline --release \
  -p mathcloud-integration-tests --test pool_autoscaling

# The federation sweep probes dead and black-holed sockets; a reintroduced
# connect hang (no connect timeout, serial sweep) would stall far past the
# per-target deadline, so the hard timeout turns it into a fast failure.
echo "==> catalogue federation test (release, 120s budget)"
timeout 120 cargo test -q --offline --release \
  -p mathcloud-integration-tests --test federation

# The crash-recovery suite kills a container mid-run (jobs queued, running
# and done), restarts onto the same journal and asserts replay-without-
# re-execution, re-queue of interrupted work, cross-restart idempotency
# and bounded compaction; the idempotency race parks 16 threads on one
# key. A recovery that deadlocks on the jobs/idem/store locks or a worker
# that never drains must fail the build, not hang it.
echo "==> crash recovery + idempotency suite (release, 180s budget)"
timeout 180 cargo test -q --offline --release \
  -p mathcloud-integration-tests --test failure_injection

# The torn-write battery truncates and corrupts the job journal at every
# byte offset of the final record: recovery must never panic, must replay
# the longest well-formed prefix and must keep the id watermark monotonic.
echo "==> job journal torn-write battery (release, 120s budget)"
timeout 120 cargo test -q --offline --release \
  -p mathcloud-everest --test jobstore_torn

# The group-commit battery: eight threads through one appender (nothing lost
# or reordered, syncs shared), the bus delivering in id order only after the
# covering sync, and — in a test binary of its own, so the process-wide
# `mc_journal_*` histograms count nothing else — recovery republishing with
# no events-journal sync and compaction with two. Then `one_log`: a job waits
# for the job journal alone, its three events arrive in id order and never
# ahead of their record, ids resume past a compaction, a pre-ring resume is
# answered from the job journal. A follower that is never woken, or a leader
# flag left set, hangs a handler for good: hard timeout.
echo "==> journal group-commit battery (release, 120s budget)"
timeout 120 cargo test -q --offline --release \
  -p mathcloud-events --test group_commit
timeout 120 cargo test -q --offline --release \
  -p mathcloud-integration-tests --test group_commit
timeout 120 cargo test -q --offline --release \
  -p mathcloud-integration-tests --test one_log

# The memo-key canonicalization battery drives 1200 xorshift-generated
# inputs through every equivalent rewrite (key order, number spellings,
# whitespace, file-id aliasing) and every single semantic mutation; the
# race battery parks 16 threads on one memo key and races hits against
# terminal-job eviction. The unit tests of the two types they lean on run
# here too, in release mode because races hide in debug: `singleflight`
# (16 claimants of one key, abandoned reservations) and `jobs` (every
# from × to pair through `transition`). A canonicalizer that conflates
# distinct inputs, a claim that never wakes or a cache that deadlocks in a
# probe must fail fast.
echo "==> memo canonicalization + race battery (release, 120s budget)"
timeout 120 cargo test -q --offline --release \
  -p mathcloud-everest --test memo_canon --test memo_races
timeout 120 cargo test -q --offline --release \
  -p mathcloud-everest --lib -- singleflight:: jobs::

# The payload-path batteries, in release because that is what ships and
# what selects the hardware kernel: SHA-256 portable rounds == the kernel
# this CPU selects == every split of the input (FIPS 180-4 and RFC 4231
# vectors on both block functions; the log names the selected kernel, so a
# run on a box without SHA extensions shows the hardware path went
# unexercised), the run-copy JSON escaper against the per-char reference,
# and `record_line` byte for byte against lines the previous writer wrote.
# `memo_canon` above holds the golden memo keys.
echo "==> payload path: sha256 kernels, JSON escaper, journal bytes (release, 120s budget)"
timeout 120 cargo test -q --offline --release \
  -p mathcloud-security --lib -- sha256:: --nocapture
timeout 120 cargo test -q --offline --release \
  -p mathcloud-json --lib -- ser::
timeout 120 cargo test -q --offline --release \
  -p mathcloud-everest --lib -- jobstore::tests::payload_records memo::

# The differential multiplication battery cross-checks every tiered-mul
# kernel, mul_threads, and Bareiss determinants against serial oracles on
# ≥1000 xorshift-seeded cases. Release mode keeps the 500-limb schoolbook
# oracles fast; the hard timeout turns a hung pool region into a failure.
echo "==> multiplication differential battery (release, 300s budget)"
timeout 300 cargo test -q --offline --release \
  -p mathcloud-exact --test mul_differential

# The Table 2 kernel smoke proves the parallel/fraction-free inversion path
# still beats the serial oracle (the kernels are asserted bit-identical
# inside the binary) and that the Toom-3 tier beats schoolbook at ≥256
# limbs. Release mode because exact arithmetic is ~20x slower unoptimized;
# the smoke sizes finish in well under a second.
#
# The four `--smoke` emitters below write `BENCH_<n>.json` into their working
# directory. They run from a scratch directory and the gates read the scratch
# copies, so the committed full-run `BENCH_5`–`8.json` are never overwritten.
repo=$PWD
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
echo "==> table2 kernel smoke (release, 120s budget)"
cargo build -q --release --offline -p mathcloud-bench --bin repro
(cd "$smoke_dir" && timeout 120 "$repo/target/release/repro" --table2 --json --smoke)
python3 - "$smoke_dir/BENCH_5.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)
rows = report["rows"]
assert rows, "BENCH_5.json has no rows"
for row in rows:
    for key in ("n", "serial_ms", "parallel_ms", "speedup",
                "max_entry_bits", "mul_kernel"):
        assert key in row, f"row missing {key}: {row}"
last = rows[-1]
if last["parallel_ms"] > last["serial_ms"]:
    sys.exit(
        f"parallel inversion slower than serial at N={last['n']}: "
        f"{last['parallel_ms']:.1f}ms vs {last['serial_ms']:.1f}ms"
    )
mul_rows = report["mul_kernels"]
assert mul_rows, "BENCH_5.json has no mul_kernels"
big = [r for r in mul_rows if r["limbs"] >= 256]
assert big, "mul_kernels sweep must include a >=256-limb point"
for r in big:
    if r["toom3_ms"] > r["schoolbook_ms"]:
        sys.exit(
            f"Toom-3 slower than schoolbook at {r['limbs']} limbs: "
            f"{r['toom3_ms']:.3f}ms vs {r['schoolbook_ms']:.3f}ms"
        )
print(f"BENCH_5.json OK: speedup {last['speedup']:.2f}x at N={last['n']}, "
      f"toom-3 {big[-1]['toom3_ms']:.3f}ms vs schoolbook "
      f"{big[-1]['schoolbook_ms']:.3f}ms at {big[-1]['limbs']} limbs")
EOF

# The push-vs-poll smoke proves the events bus actually displaces polling:
# the same jobs waited out via `GET /events` subscriptions must cost at
# least 5x fewer job-status requests than the poll loop. Both modes read
# the server-side request counter, so the comparison is exact.
echo "==> push-vs-poll events smoke (release, 120s budget)"
cargo build -q --release --offline -p mathcloud-bench --bin pushpoll
(cd "$smoke_dir" && timeout 120 "$repo/target/release/pushpoll" --smoke)
python3 - "$smoke_dir/BENCH_6.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)
for mode in ("poll", "push"):
    for key in ("status_requests", "per_job"):
        assert key in report[mode], f"{mode} missing {key}: {report}"
assert report["jobs"] > 0, "no jobs measured"
if report["push"]["per_job"] > 2.0:
    sys.exit(
        f"push mode is polling: {report['push']['per_job']:.2f} "
        "status requests per job (expected <= 2)"
    )
if report["reduction"] < 5.0:
    sys.exit(
        f"push only reduced status requests {report['reduction']:.1f}x "
        f"(poll {report['poll']['per_job']:.1f}/job vs push "
        f"{report['push']['per_job']:.1f}/job); gate is 5x"
    )
print(f"BENCH_6.json OK: push cut status requests {report['reduction']:.1f}x "
      f"({report['poll']['per_job']:.1f} -> {report['push']['per_job']:.1f} "
      "per job)")
EOF

# The server-edge smoke proves SSE subscribers no longer starve the worker
# pool: an 8-worker server answers a closed-loop /ping load with zero
# errors while 12 live `GET /events` subscriptions are held open, and the
# SSE-loaded p99/throughput stay within 20% of the bare run (median of
# repeated pairs, with a 1ms epsilon so sub-millisecond jitter cannot
# masquerade as a regression).
echo "==> server edge RPS/latency smoke (release, 180s budget)"
cargo build -q --release --offline -p mathcloud-bench --bin edge
(cd "$smoke_dir" && timeout 180 "$repo/target/release/edge" --smoke)
python3 - "$smoke_dir/BENCH_7.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)
scenarios = report["scenarios"]
assert scenarios, "BENCH_7.json has no scenarios"
for s in scenarios:
    for key in ("connections", "sse_subscribers", "requests", "errors",
                "rps", "p50_ms", "p99_ms"):
        assert key in s, f"scenario missing {key}: {s}"
    assert s["requests"] > 0, f"scenario measured nothing: {s}"
    if s["errors"]:
        sys.exit(
            f"{s['errors']} failed requests at {s['connections']} conns "
            f"with {s['sse_subscribers']} SSE subscribers"
        )
sse = [s for s in scenarios if s["sse_subscribers"] > 0]
assert sse, "no SSE-loaded scenario measured"
assert all(s["sse_events_received"] > 0 for s in sse), \
    "held SSE streams received no events"
# Recorded baseline: the seed smoke run's bare p99 sat well under 1ms on
# this hardware; 25ms leaves headroom for shared CI runners while still
# catching an edge that reintroduces serial accepts or per-request
# allocation storms.
if report["baseline_p99_ms"] > 25.0:
    sys.exit(
        f"bare p99 regressed to {report['baseline_p99_ms']:.2f}ms "
        "(recorded baseline <1ms, gate 25ms)"
    )
if report["sse_p99_ratio"] > 1.2:
    sys.exit(
        f"SSE subscribers inflate p99 {report['sse_p99_ratio']:.2f}x "
        f"({report['baseline_p99_ms']:.3f}ms -> "
        f"{report['sse_p99_ms']:.3f}ms); gate is 1.2x"
    )
if report["sse_throughput_ratio"] < 0.8:
    sys.exit(
        f"SSE subscribers cut /ping throughput to "
        f"{report['sse_throughput_ratio']:.2f}x; gate is 0.8x"
    )
print(f"BENCH_7.json OK: {report['sse_subscribers']} subscribers on "
      f"{report['workers']} workers, p99 ratio "
      f"{report['sse_p99_ratio']:.2f}, throughput ratio "
      f"{report['sse_throughput_ratio']:.2f}")
EOF

# The memoized-sweep smoke re-runs an identical X-ray campaign against a
# memoizing container: the warm pass must be answered from the result
# cache (hit rate >= 0.5 — in practice 1.0) and at least 3x faster than
# the cold pass, or the cache is not actually displacing compute.
echo "==> memoized sweep smoke (release, 120s budget)"
cargo build -q --release --offline -p mathcloud-bench --bin sweep
(cd "$smoke_dir" && timeout 120 "$repo/target/release/sweep" --smoke)
python3 - "$smoke_dir/BENCH_8.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)
for section in ("cold", "warm"):
    for key in ("wall_ms", "hits", "misses"):
        assert key in report[section], f"{section} missing {key}: {report}"
assert report["jobs_per_pass"] > 0, "no jobs measured"
assert report["warm"]["hits"] > 0, "warm pass never hit the cache"
if report["warm_hit_rate"] < 0.5:
    sys.exit(
        f"warm hit rate {report['warm_hit_rate']:.2f} "
        f"({report['warm']['hits']} hits / {report['warm']['misses']} "
        "misses); gate is 0.5"
    )
if report["speedup"] < 3.0:
    sys.exit(
        f"memoized re-run only {report['speedup']:.1f}x faster "
        f"(cold {report['cold']['wall_ms']:.1f}ms vs warm "
        f"{report['warm']['wall_ms']:.1f}ms); gate is 3x"
    )
print(f"BENCH_8.json OK: warm pass {report['speedup']:.1f}x faster, "
      f"hit rate {report['warm_hit_rate']:.2f} over "
      f"{report['jobs_per_pass']} jobs")
EOF

# The repo's benchmark (BENCHMARK.json) must keep building against the
# surface it calls and keep getting right answers: its own unit tests, then
# all five workloads at smoke size. Every workload prints one JSON result
# line; a wrong answer shows there as `"correct": false` (and in the exit
# status), a hang trips the timeout. `jobpath_smoke.py` runs the smoke and
# watches it from outside: it fails when a node's scratch `events.jsonl` is
# not empty or `/metrics` shows a sync of the events journal.
echo "==> jobpath benchmark: unit tests + five-workload smoke (release, 300s budget)"
timeout 300 cargo test -q --offline --manifest-path bench/jobpath/Cargo.toml
jobpath_smoke=$(timeout 300 "$repo/scripts/jobpath_smoke.py")
grep -E '^(\{|one log)' <<<"$jobpath_smoke" | cut -c1-160
if grep -q '"correct": false' <<<"$jobpath_smoke"; then
  echo "jobpath --smoke: a workload answered wrongly" >&2
  exit 1
fi
if [ "$(grep -c '^{"correct": true' <<<"$jobpath_smoke")" -ne 5 ]; then
  echo "jobpath --smoke: expected five correct result lines" >&2
  exit 1
fi

echo "verify: OK"
