//! Torn-write battery for the durable job journal.
//!
//! A crash can truncate the journal mid-append or leave garbage in its tail
//! (lost sector, bit rot). The recovery contract mirrors the events
//! journal's torn-tail rule: opening the store never panics and never
//! fails, the longest well-formed prefix is replayed exactly, and the
//! sequence / job-id watermarks re-seed past everything recovered so the
//! restarted container never reuses an id.
//!
//! The battery is exhaustive over truncation (every byte offset of the
//! final record) and xorshift-driven over single-byte corruption, with a
//! fixed seed so failures reproduce.

use std::path::{Path, PathBuf};
use std::time::Duration;

use mathcloud_core::{JobState, Parameter, ServiceDescription};
use mathcloud_everest::adapter::NativeAdapter;
use mathcloud_everest::jobstore::{JobStore, TransitionDetail, TransitionState};
use mathcloud_everest::Everest;
use mathcloud_json::{json, Schema, Value};
use mathcloud_telemetry::rng::XorShift64;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mc-torn-{tag}-{}-{}",
        std::process::id(),
        mathcloud_telemetry::next_request_id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Builds the reference journal: four settled jobs covering every terminal
/// state plus a WAITING one, then one final full-width record (inputs,
/// outputs-shaped payload, idempotency key) whose bytes the battery will
/// tear and corrupt.
fn build_reference(path: &Path) {
    let store = JobStore::open(path, usize::MAX).unwrap();
    let ins = json!({"a": 1, "b": 2}).as_object().unwrap().clone();
    let outs = json!({"sum": 3}).as_object().unwrap().clone();
    for (job, state) in [
        ("j-1", JobState::Done),
        ("j-2", JobState::Failed),
        ("j-3", JobState::Cancelled),
        ("j-4", JobState::Waiting),
    ] {
        store.append(
            "sum",
            job,
            TransitionState::Job(JobState::Waiting),
            TransitionDetail {
                inputs: Some(&ins),
                request_id: Some("rid-prefix"),
                ..Default::default()
            },
        );
        if state != JobState::Waiting {
            store.append(
                "sum",
                job,
                TransitionState::Job(state),
                TransitionDetail {
                    outputs: (state == JobState::Done).then_some(&outs),
                    error: (state == JobState::Failed).then_some("boom"),
                    runtime_ms: Some(5),
                    ..Default::default()
                },
            );
        }
    }
    // The record under test: a new job, distinct from every prefix job (no
    // single-byte substitution of "j-77" can collide with "j-1".."j-4").
    store.append(
        "sum",
        "j-77",
        TransitionState::Job(JobState::Waiting),
        TransitionDetail {
            idem_key: Some("torn-key"),
            memo_key: Some("torn-memo-key"),
            request_id: Some("rid-torn"),
            inputs: Some(&ins),
            ..Default::default()
        },
    );
}

/// `(service, job) → (state, seq-independent fields)` snapshot for
/// comparing folds.
fn fold_of(store: &JobStore) -> Vec<(String, String, JobState)> {
    store
        .recovered()
        .into_iter()
        .map(|r| (r.service, r.job, r.state))
        .collect()
}

#[test]
fn truncation_at_every_offset_of_the_final_record_recovers_the_prefix() {
    let dir = tmp_dir("truncate");
    let reference = dir.join("reference.jsonl");
    build_reference(&reference);
    let bytes = std::fs::read(&reference).unwrap();
    // Start of the final line: one past the newline that ends the
    // second-to-last line.
    let last_start = bytes[..bytes.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .map(|p| p + 1)
        .unwrap();

    // The expected prefix fold: the journal cut exactly before the final
    // record.
    let prefix_path = dir.join("prefix.jsonl");
    std::fs::write(&prefix_path, &bytes[..last_start]).unwrap();
    let prefix_store = JobStore::open(&prefix_path, usize::MAX).unwrap();
    let prefix_fold = fold_of(&prefix_store);
    let prefix_seq = prefix_store.last_seq();
    assert_eq!(prefix_fold.len(), 4);
    drop(prefix_store);

    let full_store = JobStore::open(&reference, usize::MAX).unwrap();
    let full_fold = fold_of(&full_store);
    let full_seq = full_store.last_seq();
    assert_eq!(full_fold.len(), 5);
    drop(full_store);

    let victim = dir.join("victim.jsonl");
    for cut in last_start..=bytes.len() {
        std::fs::write(&victim, &bytes[..cut]).unwrap();
        let store = JobStore::open(&victim, usize::MAX)
            .unwrap_or_else(|e| panic!("open failed at cut {cut}: {e}"));
        let fold = fold_of(&store);
        if cut >= bytes.len() - 1 {
            // Only the trailing newline (or nothing) is missing: the final
            // record is complete and must replay.
            assert_eq!(fold, full_fold, "cut {cut}");
            assert_eq!(store.last_seq(), full_seq, "cut {cut}");
            assert_eq!(store.max_job_number(), 77, "cut {cut}");
        } else {
            // The final record is torn: exactly the prefix replays.
            assert_eq!(fold, prefix_fold, "cut {cut}");
            assert_eq!(store.last_seq(), prefix_seq, "cut {cut}");
            assert_eq!(store.max_job_number(), 4, "cut {cut}");
        }
        // The store stays writable and sequence numbers stay monotonic.
        let seq = store.append(
            "sum",
            "j-100",
            TransitionState::Job(JobState::Waiting),
            TransitionDetail::default(),
        );
        assert_eq!(seq, store.last_seq());
        assert!(seq > prefix_seq, "cut {cut}: seq {seq} reused");
        // And the post-recovery append survives its own recovery: the torn
        // tail was newline-terminated on open, so the new record cannot be
        // glued to the fragment — nor can it destroy a complete final
        // record that was only missing its newline (cut == len - 1).
        drop(store);
        let reopened = JobStore::open(&victim, usize::MAX)
            .unwrap_or_else(|e| panic!("reopen failed at cut {cut}: {e}"));
        let refold = fold_of(&reopened);
        let expected: Vec<_> = if cut >= bytes.len() - 1 {
            &full_fold
        } else {
            &prefix_fold
        }
        .iter()
        .cloned()
        .chain([("sum".to_string(), "j-100".to_string(), JobState::Waiting)])
        .collect();
        assert_eq!(refold, expected, "cut {cut}: appended record lost");
        assert_eq!(reopened.last_seq(), seq, "cut {cut}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn random_corruption_of_the_final_record_never_breaks_recovery() {
    let dir = tmp_dir("corrupt");
    let reference = dir.join("reference.jsonl");
    build_reference(&reference);
    let bytes = std::fs::read(&reference).unwrap();
    let last_start = bytes[..bytes.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .map(|p| p + 1)
        .unwrap();

    let prefix_path = dir.join("prefix.jsonl");
    std::fs::write(&prefix_path, &bytes[..last_start]).unwrap();
    let prefix_store = JobStore::open(&prefix_path, usize::MAX).unwrap();
    let prefix_fold = fold_of(&prefix_store);
    let prefix_seq = prefix_store.last_seq();
    drop(prefix_store);

    let victim = dir.join("victim.jsonl");
    let mut rng = XorShift64::new(0x7031_7a6b_9d2f_4c01);
    for round in 0..256u32 {
        let mut corrupted = bytes.clone();
        // Smash one byte of the final record (including its newline) with a
        // random value — non-UTF-8 sequences, quote/brace breakage, line
        // splits, digit swaps.
        let span = corrupted.len() - last_start;
        let offset = last_start + (rng.next_u64() as usize % span);
        let value = (rng.next_u64() & 0xff) as u8;
        corrupted[offset] = value;
        std::fs::write(&victim, &corrupted).unwrap();

        let store = JobStore::open(&victim, usize::MAX).unwrap_or_else(|e| {
            panic!("round {round}: open failed after corrupting byte {offset} to {value:#x}: {e}")
        });
        let fold = fold_of(&store);
        // The prefix always survives intact: the final record is a distinct
        // job, so at worst the corrupted line adds one (possibly garbled)
        // entry and at best it is skipped entirely.
        let on_prefix: Vec<_> = fold
            .iter()
            .filter(|(s, j, _)| prefix_fold.iter().any(|(ps, pj, _)| ps == s && pj == j))
            .cloned()
            .collect();
        assert_eq!(
            on_prefix, prefix_fold,
            "round {round}: prefix fold damaged by byte {offset} = {value:#x}"
        );
        assert!(
            fold.len() <= prefix_fold.len() + 1,
            "round {round}: corruption invented records"
        );
        // Re-seeding: new work never reuses a recovered sequence number.
        assert!(store.last_seq() >= prefix_seq);
        let seq = store.append(
            "sum",
            "j-100",
            TransitionState::Job(JobState::Waiting),
            TransitionDetail::default(),
        );
        assert!(seq > prefix_seq, "round {round}: seq {seq} reused");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A sparse subset of torn journals driven through the full container
/// recovery path: the container must come up, answer recovered jobs and
/// accept new work whatever the tail looked like.
#[test]
fn containers_attach_torn_journals_end_to_end() {
    let dir = tmp_dir("attach");
    let reference = dir.join("reference.jsonl");
    build_reference(&reference);
    let bytes = std::fs::read(&reference).unwrap();
    let last_start = bytes[..bytes.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .map(|p| p + 1)
        .unwrap();

    let torn_span = bytes.len() - last_start;
    for (i, cut) in [
        last_start,
        last_start + torn_span / 3,
        last_start + 2 * torn_span / 3,
        bytes.len(),
    ]
    .into_iter()
    .enumerate()
    {
        let victim = dir.join(format!("victim-{i}.jsonl"));
        std::fs::write(&victim, &bytes[..cut]).unwrap();
        let e = Everest::with_handlers(&format!("torn-{i}"), 1);
        e.deploy(
            ServiceDescription::new("sum", "adds")
                .input(Parameter::new("a", Schema::integer()))
                .input(Parameter::new("b", Schema::integer()))
                .output(Parameter::new("sum", Schema::integer())),
            NativeAdapter::from_fn(|inputs, _| {
                let a = inputs.get("a").and_then(Value::as_i64).unwrap_or(0);
                let b = inputs.get("b").and_then(Value::as_i64).unwrap_or(0);
                Ok([("sum".to_string(), json!(a + b))].into_iter().collect())
            }),
        );
        let report = e.attach_job_journal(&victim).unwrap();
        assert_eq!(report.replayed, 3, "cut {cut}: j-1, j-2, j-3");
        // j-4 always re-queues; the torn record (j-77) only when intact.
        assert!((1..=2).contains(&report.requeued), "cut {cut}: {report:?}");
        // The recovered DONE job answers with its journaled outputs.
        let rep = e.representation("sum", "j-1").unwrap();
        assert_eq!(rep.state, JobState::Done);
        assert_eq!(rep.outputs.unwrap().get("sum").unwrap().as_i64(), Some(3));
        // Re-queued jobs re-run; fresh ids sit past the watermark.
        let requeued = e
            .wait("sum", "j-4", Duration::from_secs(10))
            .expect("re-queued job finishes");
        assert_eq!(requeued.state, JobState::Done);
        let fresh = e
            .submit_sync(
                "sum",
                &json!({"a": 1, "b": 1}),
                None,
                Duration::from_secs(10),
            )
            .unwrap();
        let n: u64 = fresh
            .id
            .as_str()
            .strip_prefix("j-")
            .unwrap()
            .parse()
            .unwrap();
        assert!(n > 4, "fresh id {n} must clear the recovered prefix");
        if cut == bytes.len() {
            assert!(n > 77, "an intact tail raises the watermark to j-77");
            let torn_job = e
                .wait("sum", "j-77", Duration::from_secs(10))
                .expect("intact keyed job re-runs");
            assert_eq!(torn_job.state, JobState::Done);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Tears a memoized job's DONE record at every byte offset and drives each
/// victim through full container recovery with memoization enabled. The
/// contract: an intact DONE record serves the identical resubmission as a
/// hit with zero executions; a torn one degrades to exactly one clean
/// re-execution — in neither case a wrong answer.
#[test]
fn torn_memo_done_records_degrade_to_a_miss_never_a_wrong_answer() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let dir = tmp_dir("memo");
    let reference = dir.join("reference.jsonl");
    let ins = json!({"a": 20, "b": 22}).as_object().unwrap().clone();
    // The key the container will derive for these inputs (no file refs).
    let key = mathcloud_everest::memo::memo_key("sum", &ins, &|_| None);
    {
        let store = JobStore::open(&reference, usize::MAX).unwrap();
        let outs = json!({"sum": 42}).as_object().unwrap().clone();
        store.append(
            "sum",
            "j-1",
            TransitionState::Job(JobState::Waiting),
            TransitionDetail {
                inputs: Some(&ins),
                memo_key: Some(&key),
                ..Default::default()
            },
        );
        // The record under test: the DONE transition carrying the outputs.
        store.append(
            "sum",
            "j-1",
            TransitionState::Job(JobState::Done),
            TransitionDetail {
                outputs: Some(&outs),
                runtime_ms: Some(5),
                ..Default::default()
            },
        );
    }
    let bytes = std::fs::read(&reference).unwrap();
    let last_start = bytes[..bytes.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .map(|p| p + 1)
        .unwrap();

    let victim = dir.join("victim.jsonl");
    for cut in last_start..=bytes.len() {
        std::fs::write(&victim, &bytes[..cut]).unwrap();
        let execs = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&execs);
        let e = Everest::with_handlers(&format!("memo-torn-{cut}"), 1);
        e.deploy(
            ServiceDescription::new("sum", "adds")
                .input(Parameter::new("a", Schema::integer()))
                .input(Parameter::new("b", Schema::integer()))
                .output(Parameter::new("sum", Schema::integer())),
            NativeAdapter::from_fn(move |inputs, _| {
                counter.fetch_add(1, Ordering::SeqCst);
                let a = inputs.get("a").and_then(Value::as_i64).unwrap_or(0);
                let b = inputs.get("b").and_then(Value::as_i64).unwrap_or(0);
                Ok([("sum".to_string(), json!(a + b))].into_iter().collect())
            }),
        );
        e.set_result_memoization(true);
        let report = e.attach_job_journal(&victim).unwrap();
        let intact = cut >= bytes.len() - 1;
        if intact {
            assert_eq!(report.replayed, 1, "cut {cut}: intact DONE replays");
        } else {
            assert_eq!(report.requeued, 1, "cut {cut}: torn DONE re-queues");
        }
        assert_eq!(report.memo_keys, 1, "cut {cut}: the memo key folds back");

        // The identical submission, respelled at the wire level.
        let o = e
            .submit_full("sum", &json!({"b": 22.0, "a": 20}), None, None, None)
            .unwrap();
        assert!(
            o.memo_hit,
            "cut {cut}: recovered key answers the resubmission"
        );
        assert_eq!(o.rep.id.as_str(), "j-1", "cut {cut}");
        let rep = if o.rep.state.is_terminal() {
            o.rep
        } else {
            e.wait("sum", "j-1", Duration::from_secs(10))
                .expect("re-queued job finishes")
        };
        assert_eq!(rep.state, JobState::Done, "cut {cut}");
        assert_eq!(
            rep.outputs.unwrap().get("sum").unwrap().as_i64(),
            Some(42),
            "cut {cut}: never a wrong answer"
        );
        if intact {
            assert_eq!(
                execs.load(Ordering::SeqCst),
                0,
                "cut {cut}: an intact DONE record is served from the journal"
            );
        } else {
            assert_eq!(
                execs.load(Ordering::SeqCst),
                1,
                "cut {cut}: a torn DONE record re-executes exactly once"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// With group commit, a crash between a batch's writes and its one sync can
/// cut the journal anywhere inside the batch, not only inside one record.
/// Writes WAITING → RUNNING → DONE of one job as a single unsynced batch
/// (what a handler and a submitter leave when they share a sync) and
/// truncates at every byte offset of it: every record that ends before the
/// cut replays, none after it does, and reopen-and-append stays clean.
#[test]
fn a_multi_record_batch_cut_anywhere_replays_exactly_the_records_before_the_cut() {
    let dir = tmp_dir("batch");
    let reference = dir.join("reference.jsonl");
    build_reference(&reference);
    let batch_start = std::fs::metadata(&reference).unwrap().len() as usize;
    let prefix_fold = fold_of(&JobStore::open(&reference, usize::MAX).unwrap());
    assert_eq!(prefix_fold.len(), 5);
    {
        let store = JobStore::open(&reference, usize::MAX).unwrap();
        let ins = json!({"a": 1, "b": 2}).as_object().unwrap().clone();
        let outs = json!({"sum": 3}).as_object().unwrap().clone();
        let waiting = TransitionDetail {
            inputs: Some(&ins),
            memo_key: Some("batch-memo-key"),
            ..Default::default()
        };
        let done = TransitionDetail {
            outputs: Some(&outs),
            runtime_ms: Some(5),
            ..Default::default()
        };
        let mut last = 0;
        for (state, detail) in [
            (JobState::Waiting, waiting),
            (JobState::Running, TransitionDetail::default()),
            (JobState::Done, done),
        ] {
            last = store.write("sum", "j-90", TransitionState::Job(state), detail);
        }
        let before = store.journal_stats();
        assert_eq!((before.records, before.durable), (3, 0), "written only");
        store.sync_to(last);
        let after = store.journal_stats();
        assert_eq!(after.durable, 3);
        assert_eq!(after.syncs, before.syncs + 1, "one sync for the batch");
    }
    let bytes = std::fs::read(&reference).unwrap();
    // Where each record of the batch ends, newline excluded: a record is
    // complete (and replays) once its closing brace is on disk.
    let ends: Vec<usize> = bytes
        .iter()
        .enumerate()
        .skip(batch_start)
        .filter(|(_, &b)| b == b'\n')
        .map(|(at, _)| at)
        .collect();
    assert_eq!(ends.len(), 3);
    let states = [JobState::Waiting, JobState::Running, JobState::Done];

    let victim = dir.join("victim.jsonl");
    for cut in batch_start..=bytes.len() {
        std::fs::write(&victim, &bytes[..cut]).unwrap();
        let complete = ends.iter().filter(|&&end| cut >= end).count();
        let expected: Vec<_> = prefix_fold
            .iter()
            .cloned()
            .chain(
                complete
                    .checked_sub(1)
                    .map(|last| ("sum".to_string(), "j-90".to_string(), states[last])),
            )
            .collect();
        let store = JobStore::open(&victim, usize::MAX)
            .unwrap_or_else(|e| panic!("open failed at cut {cut}: {e}"));
        assert_eq!(fold_of(&store), expected, "cut {cut}");
        let job = store.recovered().into_iter().find(|r| r.job == "j-90");
        assert_eq!(
            job.as_ref().and_then(|r| r.outputs.as_ref()).is_some(),
            complete == 3,
            "cut {cut}: outputs exist exactly when the DONE record does"
        );
        if let Some(job) = &job {
            assert_eq!(job.memo_key.as_deref(), Some("batch-memo-key"), "cut {cut}");
        }
        // Reopen-and-append: the new record neither glues onto a torn
        // fragment nor destroys what replayed.
        let seq = store.append(
            "sum",
            "j-100",
            TransitionState::Job(JobState::Waiting),
            TransitionDetail::default(),
        );
        drop(store);
        let reopened = JobStore::open(&victim, usize::MAX)
            .unwrap_or_else(|e| panic!("reopen failed at cut {cut}: {e}"));
        let with_append: Vec<_> = expected
            .into_iter()
            .chain([("sum".to_string(), "j-100".to_string(), JobState::Waiting)])
            .collect();
        assert_eq!(fold_of(&reopened), with_append, "cut {cut}: after append");
        assert_eq!(reopened.last_seq(), seq, "cut {cut}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
