//! A settled job's bytes are kept once: its inputs leave the job table, the
//! store's fold and every compaction once it is terminal, while a live job
//! keeps its own byte for byte — re-execution after a crash is what they are
//! for. A 64 KiB-string service on a journaled, memoizing container.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mathcloud_core::{JobState, Parameter, ServiceDescription};
use mathcloud_everest::adapter::NativeAdapter;
use mathcloud_everest::Everest;
use mathcloud_json::value::Object;
use mathcloud_json::{json, Schema, Value};
use mathcloud_telemetry::XorShift64;

const SETTLED: usize = 48;
const WAIT: Duration = Duration::from_secs(10);

/// Runs of the `digest` service, across both instances.
static DIGESTS: AtomicUsize = AtomicUsize::new(0);

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mc-settled-{tag}-{}-{}",
        std::process::id(),
        mathcloud_telemetry::next_request_id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// 64 KiB of text with something to escape every kilobyte or so.
fn payload(seed: u64) -> String {
    let mut rng = XorShift64::new(seed);
    (0..64 * 1024)
        .map(|i| match (i % 1021, i % 4) {
            (0, 0) => '"',
            (0, 1) => '\\',
            (0, 2) => '\n',
            (0, _) => 'é',
            _ => (b'a' + rng.index(26) as u8) as char,
        })
        .collect()
}

/// A few dozen bytes out of 64 KiB in: FNV-1a of the text, and its length.
fn digest(inputs: &Object) -> Object {
    let data = inputs.get("data").and_then(Value::as_str).unwrap_or("");
    let hash = data.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    let out = json!({"digest": (format!("{hash:016x}")), "bytes": (data.len() as i64)});
    out.as_object().unwrap().clone()
}

/// `digest` runs at once; `held` runs the same code once `gate` opens. An
/// instance whose gate never opens can never write a late record into the
/// journal the next instance recovers.
fn container(name: &str, gate: &Arc<AtomicBool>) -> Everest {
    let e = Everest::with_handlers(name, 2);
    let describe = |name| {
        ServiceDescription::new(name, "digests a string")
            .input(Parameter::new("data", Schema::string()))
            .output(Parameter::new("digest", Schema::string()))
            .output(Parameter::new("bytes", Schema::integer()))
    };
    e.deploy(
        describe("digest"),
        NativeAdapter::from_fn(|inputs, _| {
            DIGESTS.fetch_add(1, Ordering::SeqCst);
            Ok(digest(inputs))
        }),
    );
    let gate = Arc::clone(gate);
    e.deploy(
        describe("held"),
        NativeAdapter::from_fn(move |inputs, _| {
            while !gate.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(2));
            }
            Ok(digest(inputs))
        }),
    );
    e.set_result_memoization(true);
    e
}

#[test]
fn a_settled_job_keeps_its_outputs_and_drops_its_inputs_a_live_one_keeps_both() {
    let dir = tmp_dir("journal");
    let journal = dir.join("jobs.jsonl");
    let body = |seed| json!({"data": (payload(seed))});

    // ---- Instance one: 48 jobs settle, one is held RUNNING. ----
    let gate1 = Arc::new(AtomicBool::new(false)); // never opens
    let e1 = container("settled-1", &gate1);
    e1.attach_job_journal_with(&journal, usize::MAX).unwrap();
    let mut settled = Vec::new();
    for k in 0..SETTLED as u64 {
        let key = format!("key-{k}");
        let outcome = e1
            .submit_full("digest", &body(k), None, None, Some(&key))
            .unwrap();
        let id = outcome.rep.id.as_str().to_string();
        let done = e1.wait("digest", &id, WAIT).expect("settles");
        assert_eq!(done.state, JobState::Done);
        settled.push((k, key, id, done.outputs.unwrap()));
    }
    let live_body = body(1_000);
    let live = e1.submit("held", &live_body, None).unwrap().id;
    let live = live.as_str().to_string();
    let deadline = Instant::now() + WAIT;
    while e1.representation("held", &live).unwrap().state != JobState::Running {
        assert!(Instant::now() < deadline, "the held job never started");
        std::thread::sleep(Duration::from_millis(2));
    }

    let store = e1.job_store().unwrap();
    store.compact();
    let text = std::fs::read_to_string(&journal).unwrap();
    let live_line = text
        .lines()
        .find(|line| line.contains(&format!("\"job\":\"{live}\"")))
        .expect("the live job's record");
    let record = mathcloud_json::parse(live_line).unwrap();
    assert_eq!(record["state"].as_str(), Some("RUNNING"));
    assert_eq!(
        record.get("inputs"),
        live_body
            .as_object()
            .map(|o| Value::Object(o.clone()))
            .as_ref(),
        "a live job keeps its inputs through compaction"
    );
    let budget = live_line.len() + (SETTLED + 1) * 1024;
    assert!(
        text.len() <= budget,
        "the journal holds the live job's record plus at most 1 KiB per \
         settled job: {} bytes against {budget}",
        text.len()
    );
    drop((store, e1)); // the kill: nothing of instance one but the journal

    // ---- Instance two: recover, answer, re-run the live job. ----
    let gate2 = Arc::new(AtomicBool::new(true));
    let e2 = container("settled-2", &gate2);
    let report = e2.attach_job_journal_with(&journal, usize::MAX).unwrap();
    assert_eq!((report.replayed, report.requeued), (SETTLED, 1));
    assert_eq!(report.idem_keys, SETTLED);
    let runs = DIGESTS.load(Ordering::SeqCst);
    assert_eq!(runs, SETTLED);
    for (k, key, id, outputs) in &settled {
        let rep = e2.representation("digest", id).expect("recovered");
        assert_eq!(rep.state, JobState::Done, "{id}");
        assert_eq!(rep.outputs.as_ref(), Some(outputs), "{id}");
        let repeat = e2
            .submit_full("digest", &body(*k), None, None, None)
            .unwrap();
        assert!(repeat.memo_hit, "{id}: a repeat is a memo hit");
        assert_eq!(repeat.rep.id.as_str(), id);
        let retry = e2
            .submit_full("digest", &body(*k), None, None, Some(key))
            .unwrap();
        assert!(retry.deduplicated, "{id}: a keyed retry deduplicates");
        assert_eq!(retry.rep.id.as_str(), id);
    }
    assert_eq!(
        DIGESTS.load(Ordering::SeqCst),
        runs,
        "nothing settled re-ran"
    );

    let rerun = e2.wait("held", &live, WAIT).expect("the live job re-runs");
    assert_eq!(rerun.state, JobState::Done);
    let expected = Value::Object(digest(live_body.as_object().unwrap()));
    let got = Value::Object(rerun.outputs.unwrap());
    assert_eq!(
        got.to_string(),
        expected.to_string(),
        "from its journaled inputs, byte for byte"
    );
    drop(e2);
    std::fs::remove_dir_all(&dir).ok();
}
