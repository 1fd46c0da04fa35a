#!/usr/bin/env bash
# The one gate: formatting, release build, full test suite, warning-free API
# docs, the release-mode batteries under hard timeouts, the Table 2 smoke and
# the jobpath smoke.
# CI runs exactly this script (.github/workflows/ci.yml), so a check exists
# once. The workspace is dependency-free, so everything runs offline
# (--offline makes cargo fail fast instead of probing the network).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo build --release"
cargo build --release --offline

# Size claims in CHANGES.md are read off this table, not counted by hand.
echo "==> non-test lines per crate"
scripts/loc.sh | awk '/\(total, non-test\)/ { print; sum += $1 } END { printf "%7d  workspace\n", sum }'

echo "==> cargo test -q"
cargo test -q --offline

echo "==> benches compile"
cargo build -q --offline -p mathcloud-bench --benches

# The API docs build without a warning, so a doc link to an item that was
# deleted or made private fails the build instead of dangling.
echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps --offline

# The federation sweep probes dead and black-holed sockets; a reintroduced
# connect hang (no connect timeout, serial sweep) would stall far past the
# per-target deadline, so the hard timeout turns it into a fast failure.
echo "==> catalogue federation test (release, 120s budget)"
timeout 120 cargo test -q --offline --release \
  -p mathcloud-integration-tests --test federation

# The workflow engine waits for one report from every block it starts; a
# block that never reports (a panic that escapes its catch, a lost sender)
# would hang its run for good, so the hard timeout turns that into a
# failure instead of a stalled build. Release mode, where the engine's
# parallelism test times two blocks against one. The crate's tests also
# hold the publish-time script checks (a script that does not parse, reads
# an unbound name or leaves a declared output unassigned is refused, naming
# its block), the proptests of straight-line scripts and random DAGs
# against their models, and `composite_copies`, which holds a 64 KiB value
# to 100 000 bytes per run through a Service block and through a Script
# block.
echo "==> workflow engine (release, 120s budget)"
timeout 120 cargo test -q --offline --release -p mathcloud-workflow
timeout 120 cargo test -q --offline --release \
  -p mathcloud-integration-tests --test workflow_engine

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
# `one_log` and `failure_injection` also guard one sync per answered job.
echo "==> journal group-commit battery (release, 120s budget)"
timeout 120 cargo test -q --offline --release \
  -p mathcloud-events --test group_commit
timeout 120 cargo test -q --offline --release \
  -p mathcloud-integration-tests --test group_commit
timeout 120 cargo test -q --offline --release \
  -p mathcloud-integration-tests --test one_log
# A settled job's inputs leave the journal at compaction; a live job's survive it and a crash.
timeout 120 cargo test -q --offline --release \
  -p mathcloud-integration-tests --test settled_inputs

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
# what selects the hardware kernel. `cargo test -q` above runs them
# unoptimized; this guards the SSE2 string scan and the SHA-NI message
# schedule as compiled for release. The JSON and SHA-256 crates whole,
# proptests included: SHA-256 portable rounds == the kernel this CPU
# selects == every split of the input, random `update` splits of up to 64
# blocks among them (FIPS 180-4 and RFC 4231 vectors on both block
# functions; `--nocapture` lets the one line naming the selected kernel
# through, so a run on a box without SHA extensions shows the hardware path
# went unexercised); the
# string scans at every 16-, 32- and 64-byte edge against the per-byte
# reference, the run-copy escaper and reader against the per-char and
# per-byte ones; the mutated-parser battery, `parse_bytes` against `parse`
# and the nesting limit. Then `record_line` byte for byte against lines the
# previous writer wrote; `memo_canon` above holds the golden memo keys.
echo "==> payload path: sha256 kernels, JSON crate, journal bytes (release, 120s budget)"
timeout 120 cargo test -q --offline --release \
  -p mathcloud-json -p mathcloud-security -- --nocapture
timeout 120 cargo test -q --offline --release \
  -p mathcloud-everest --lib -- jobstore::tests::payload_records memo::

# The request edge, in release because that is what ships. The wire
# proptests parse every generated message twice — from one buffer (header
# lines parsed in place) and in 1–7 byte reads (lines spanning refills take
# the copying path) — and require the same result, down to the 400/413/431
# a rejected message gets; they also truncate, overfill and corrupt a
# benchmark-shaped POST, repeat one of its header lines (two differing
# `Content-Length`s are a 400, not a body framed by the first), give it
# a `Content-Length` past the body cap or past `usize`, and splice a
# second, chunked submission into it at every offset (never a third
# request). An RFC 9112 §6 framing table runs as requests and responses,
# and chunk-size lines with signs, spaces and extensions must never panic
# a release build, where an unchecked sum would wrap. `alloc_budget`
# counts the heap allocations of a GET and a memo-hit POST through the
# container's router (and the bytes of a 64 KiB one, plain and with a `\"`
# every 64 bytes) and of parsing a request and a response, against
# ceilings: a per-field header copy, a path copy, a cloned job document, a
# copy of the body before parsing or an escaped string grown by doubling
# coming back fails it.
echo "==> request edge: split-read parse + allocation budget (release, 120s budget)"
timeout 120 cargo test -q --offline --release \
  -p mathcloud-http --test proptests
timeout 120 cargo test -q --offline --release \
  -p mathcloud-integration-tests --test alloc_budget

# The differential multiplication battery cross-checks every tiered-mul
# kernel, mul_threads, and Bareiss determinants against serial oracles on
# ≥1000 xorshift-seeded cases. Release mode keeps the 500-limb schoolbook
# oracles fast; the hard timeout turns a region that never joins into a
# failure.
echo "==> multiplication differential battery (release, 300s budget)"
timeout 300 cargo test -q --offline --release \
  -p mathcloud-exact --test mul_differential

# The Table 2 kernel smoke proves the parallel/fraction-free inversion path
# still beats the serial oracle (the kernels are asserted bit-identical
# inside the binary) and that Karatsuba beats schoolbook at 256 limbs;
# `repro` exits non-zero when either does not. Release mode because
# exact arithmetic is ~20x slower unoptimized; the smoke sizes finish in
# well under a second.
#
# `repro --smoke` writes `BENCH_5.json` into its working directory: it runs
# from a scratch directory, so the committed full-run `BENCH_5.json` is
# never overwritten.
repo=$PWD
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
echo "==> table2 kernel smoke (release, 120s budget)"
cargo build -q --release --offline -p mathcloud-bench --bin repro
(cd "$smoke_dir" && timeout 120 "$repo/target/release/repro" --table2 --json --smoke)

# The repo's benchmark (BENCHMARK.json) must keep building against the
# surface it calls and keep getting right answers: its own unit tests, then
# all five workloads at smoke size. Every workload prints one JSON result
# line; a wrong answer shows there as `"correct": false` (and in the exit
# status), a hang trips the timeout. `jobpath_smoke.py` runs the smoke and
# watches it from outside: it fails when a node's scratch `events.jsonl` is
# not empty or `/metrics` shows a sync of the events journal. Both builds
# are `--locked`: `bench/jobpath/Cargo.lock` records the dependency graph of
# every crate jobpath links, so a `[dependencies]` change in one of them
# fails here instead of silently rewriting the benchmark's lock file.
echo "==> jobpath benchmark: unit tests + five-workload smoke (release, 300s budget)"
timeout 300 cargo test -q --offline --locked --manifest-path bench/jobpath/Cargo.toml
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
