//! Group commit, counted where an operator would count it: the
//! `mc_journal_fsync_seconds` and `mc_journal_batch_records` histograms.
//!
//! The two series are process-wide per journal kind, so this file is a test
//! binary of its own and its tests take turns — the counts below are exact,
//! not bounds padded for whatever else is running.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

use mathcloud_core::{JobState, Parameter, ServiceDescription};
use mathcloud_events::KindFilter;
use mathcloud_everest::adapter::NativeAdapter;
use mathcloud_everest::jobstore::{JobStore, TransitionDetail, TransitionState};
use mathcloud_everest::Everest;
use mathcloud_json::{json, Schema, Value};
use mathcloud_telemetry::metrics;

static TURN: Mutex<()> = Mutex::new(());

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mc-gc-it-{tag}-{}-{}",
        std::process::id(),
        mathcloud_telemetry::next_request_id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `(syncs, records made durable by group commits)` of one journal kind.
fn counts(journal: &str) -> (u64, f64) {
    let labels = [("journal", journal)];
    let reg = metrics::global();
    (
        reg.histogram("mc_journal_fsync_seconds", &labels).count(),
        reg.histogram("mc_journal_batch_records", &labels).sum(),
    )
}

fn add_container(name: &str) -> Everest {
    let e = Everest::with_handlers(name, 4);
    e.deploy(
        ServiceDescription::new("add", "adds")
            .input(Parameter::new("a", Schema::integer()))
            .input(Parameter::new("b", Schema::integer()))
            .output(Parameter::new("sum", Schema::integer())),
        NativeAdapter::from_fn(|inputs, _| {
            let a = inputs.get("a").and_then(Value::as_i64).unwrap_or(0);
            let b = inputs.get("b").and_then(Value::as_i64).unwrap_or(0);
            Ok([("sum".to_string(), json!(a + b))].into_iter().collect())
        }),
    );
    e
}

/// A journal of `jobs` finished `add` jobs, written as one batch.
fn write_done_jobs(path: &std::path::Path, jobs: u64) -> JobStore {
    let store = JobStore::open(path, usize::MAX).unwrap();
    let mut last = 0;
    for k in 1..=jobs {
        let ins = json!({"a": (k as i64), "b": 1})
            .as_object()
            .unwrap()
            .clone();
        let outs = json!({"sum": (k as i64 + 1)}).as_object().unwrap().clone();
        let id = format!("j-{k}");
        store.write(
            "add",
            &id,
            TransitionState::Job(JobState::Waiting),
            TransitionDetail {
                inputs: Some(&ins),
                request_id: Some("rid-recovered"),
                ..Default::default()
            },
        );
        last = store.write(
            "add",
            &id,
            TransitionState::Job(JobState::Done),
            TransitionDetail {
                outputs: Some(&outs),
                runtime_ms: Some(1),
                ..Default::default()
            },
        );
    }
    store.sync_to(last);
    store
}

#[test]
fn recovery_republishes_every_job_without_touching_the_events_journal() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    const JOBS: u64 = 400;
    let dir = tmp_dir("recovery");
    let journal = dir.join("jobs.jsonl");
    drop(write_done_jobs(&journal, JOBS));

    let bus = mathcloud_events::global();
    bus.attach_journal(&dir.join("events.jsonl")).unwrap();
    let replayed = bus.subscribe(KindFilter::parse("job."), 2 * JOBS as usize);
    let e = add_container("gc-recovery");
    let (events_before, jobs_before) = (counts("events"), counts("jobs"));
    let first_id = bus.last_id() + 1;
    let report = e.attach_job_journal(&journal).unwrap();
    assert_eq!(report.replayed as u64, JOBS);
    assert_eq!(
        counts("events"),
        events_before,
        "no events-journal record and no events-journal sync"
    );
    assert_eq!(bus.journal_stats().unwrap().records, 0);
    let store = e.job_store().unwrap();
    assert_eq!(
        store.journal_stats().records,
        1,
        "one line, so the replayed ids are not handed out again"
    );
    assert_eq!(store.last_ev(), first_id + JOBS - 1);
    // The batch is still {JOBS} ordinary events to a subscriber — once the
    // line naming their ids is on disk, which recovery did not wait for.
    for k in 0..JOBS {
        let ev = replayed
            .recv_timeout(Duration::from_secs(5))
            .expect("replayed event");
        assert_eq!(store.journal_stats().durable, 1, "event {k}");
        assert_eq!(ev.id, first_id + k);
        assert_eq!(ev.kind, "job.done");
        assert_eq!(ev.request_id.as_deref(), Some("rid-recovered"));
        assert_eq!(
            ev.payload.get("replayed").and_then(Value::as_bool),
            Some(true)
        );
        assert_eq!(
            ev.payload.get("job").and_then(Value::as_str),
            Some(format!("j-{}", k + 1).as_str())
        );
    }
    assert_eq!(
        counts("jobs").0 - jobs_before.0,
        1,
        "one sync of the job journal for the whole replay, not one per job"
    );
    assert_eq!(
        e.representation("add", "j-7")
            .unwrap()
            .outputs
            .unwrap()
            .get("sum"),
        Some(&json!(8))
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compaction_costs_two_syncs_however_many_records_survive() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    const JOBS: u64 = 2000;
    let dir = tmp_dir("compaction");
    let journal = dir.join("jobs.jsonl");
    let store = write_done_jobs(&journal, JOBS);
    let (syncs_before, _) = counts("jobs");
    store.compact();
    let (syncs, _) = counts("jobs");
    assert!(
        syncs - syncs_before <= 3,
        "compacting {JOBS} records took {} syncs",
        syncs - syncs_before
    );
    assert_eq!(syncs - syncs_before, 2, "the file and its directory");
    drop(store);
    let reopened = JobStore::open(&journal, usize::MAX).unwrap();
    assert_eq!(reopened.recovered().len() as u64, JOBS);
    assert_eq!(reopened.last_seq(), 2 * JOBS);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn live_jobs_write_three_records_and_wait_for_at_most_two_syncs() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    const CLIENTS: u64 = 8;
    const EACH: u64 = 50;
    let dir = tmp_dir("live");
    let e = add_container("gc-live");
    e.attach_job_journal_with(&dir.join("jobs.jsonl"), usize::MAX)
        .unwrap();
    let (syncs_before, records_before) = counts("jobs");
    let done = mathcloud_events::global().subscribe(KindFilter::parse("job.done"), 1 << 12);
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let e = &e;
            scope.spawn(move || {
                for i in 0..EACH {
                    let n = (c * EACH + i) as i64;
                    let rep = e
                        .submit_and_wait(
                            "add",
                            json!({"a": n, "b": 1}),
                            None,
                            None,
                            None,
                            Some(Duration::from_secs(10)),
                        )
                        .unwrap()
                        .rep;
                    assert_eq!(rep.state, JobState::Done);
                    assert_eq!(rep.outputs.unwrap().get("sum"), Some(&json!(n + 1)));
                }
            });
        }
    });
    let jobs = CLIENTS * EACH;
    // A waiter can be answered before the handler has published `job.done`;
    // see every handler through, so none publishes into the next test.
    for _ in 0..jobs {
        done.recv_timeout(Duration::from_secs(10))
            .expect("a job.done per job");
    }
    let stats = e.job_store().unwrap().journal_stats();
    assert_eq!(stats.records, 3 * jobs, "WAITING, RUNNING and DONE each");
    let (syncs, records) = counts("jobs");
    assert!(
        records - records_before >= (3 * jobs - 1) as f64,
        "every record but possibly a last RUNNING rode on some sync"
    );
    assert!(
        syncs - syncs_before <= 2 * jobs,
        "RUNNING is never waited on, and concurrent clients share: {} syncs for {jobs} jobs",
        syncs - syncs_before
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A job journal exactly as the per-record-fsync code wrote it (a
/// compaction, then one more job) and three lines of the events journal that
/// went with it — records without `ev`, `job.*` lines in the events journal:
/// neither group commit nor moving `job.*` events onto the job journal changed
/// what old bytes mean, so the pair must open, replay the same report and
/// take appends.
#[test]
fn journals_from_before_group_commit_open_replay_and_accept_appends() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    const JOBS: &str = r#"{"meta":true,"seq":10,"max_job":3}
{"seq":3,"service":"add","job":"j-1","state":"DONE","idem_key":"key-1","memo_key":"3df0fd8efb35158191babbc3027ae4806a00e89527bb5193b24c45150af77299","request_id":"rid-1","inputs":{"a":20,"b":22},"outputs":{"sum":42},"runtime_ms":0,"time_ms":1790345604030}
{"seq":6,"service":"add","job":"j-2","state":"FAILED","memo_key":"8002549e89ae039f76a846488d75b4af673ebdeaca981c2aa787685dcc7c87f3","request_id":"rid-2","inputs":{"a":-1,"b":2},"error":"negative \"a\"","runtime_ms":0,"time_ms":1790345604030}
{"seq":11,"service":"add","job":"j-4","state":"WAITING","memo_key":"0884960183eca7afb97827a0e84938403488ee525f07bf6d2c2ecd4450267589","request_id":"rid-4","inputs":{"a":5,"b":5},"time_ms":1790345604031}
{"seq":12,"service":"add","job":"j-4","state":"RUNNING","time_ms":1790345604031}
{"seq":13,"service":"add","job":"j-4","state":"DONE","outputs":{"sum":10},"runtime_ms":0,"time_ms":1790345604031}
"#;
    const EVENTS: &str = r#"{"id":6,"kind":"job.failed","time_ms":1790345604028,"request_id":"rid-2","payload":{"container":"fixture#0","service":"add","job":"j-2","error":"negative \"a\""}}
{"id":7,"kind":"job.submitted","time_ms":1790345604028,"request_id":null,"payload":{"container":"fixture#0","service":"add","job":"j-3"}}
{"id":12,"kind":"job.done","time_ms":1790345604032,"request_id":"rid-4","payload":{"container":"fixture#0","service":"add","job":"j-4"}}
"#;
    let dir = tmp_dir("compat");
    let (jobs, events) = (dir.join("jobs.jsonl"), dir.join("events.jsonl"));
    std::fs::write(&jobs, JOBS).unwrap();
    std::fs::write(&events, EVENTS).unwrap();

    let old_events = mathcloud_events::read_journal(&events).unwrap();
    assert_eq!(old_events.len(), 3);
    let bus = mathcloud_events::global();
    bus.attach_journal(&events).unwrap();
    assert!(bus.last_id() >= 12, "ids resume past the old journal");
    let e = add_container("gc-compat");
    e.set_result_memoization(true);
    let report = e.attach_job_journal(&jobs).unwrap();
    assert_eq!(
        (
            report.replayed,
            report.requeued,
            report.idem_keys,
            report.memo_keys
        ),
        (3, 0, 1, 2)
    );
    let store = e.job_store().unwrap();
    assert_eq!((store.last_seq(), store.max_job_number()), (13, 4));
    let failed = e.representation("add", "j-2").unwrap();
    assert_eq!(failed.state, JobState::Failed);
    assert_eq!(failed.error.as_deref(), Some("negative \"a\""));

    // The old memo entry answers; a new job appends after the old records.
    let hit = e
        .submit_and_wait("add", json!({"b": 22, "a": 20}), None, None, None, None)
        .unwrap();
    assert!(hit.memo_hit);
    assert_eq!(hit.rep.id.as_str(), "j-1");
    // Both journaled keys are still what `memo_key` computes: the second
    // memoized job answers too, and the key of the first is the fixture's.
    let hit = e
        .submit_and_wait("add", json!({"a": 5, "b": 5}), None, None, None, None)
        .unwrap();
    assert!(hit.memo_hit);
    assert_eq!(hit.rep.id.as_str(), "j-4");
    let inputs = json!({"b": 22.0, "a": 2e1});
    assert_eq!(
        mathcloud_everest::memo::memo_key("add", inputs.as_object().unwrap(), &|_| None),
        "3df0fd8efb35158191babbc3027ae4806a00e89527bb5193b24c45150af77299"
    );
    let fresh = e
        .submit_and_wait(
            "add",
            json!({"a": 7, "b": 8}),
            None,
            None,
            None,
            Some(Duration::from_secs(10)),
        )
        .unwrap()
        .rep;
    assert_eq!(fresh.id.as_str(), "j-5");
    assert_eq!(fresh.state, JobState::Done);
    drop((store, e));

    let text = std::fs::read_to_string(&jobs).unwrap();
    assert!(
        text.starts_with(JOBS),
        "old records untouched, new ones after"
    );
    let reopened = JobStore::open(&jobs, usize::MAX).unwrap();
    assert_eq!(reopened.recovered().len(), 4);
    assert_eq!(reopened.last_seq(), 16);
    assert_eq!(
        mathcloud_events::read_journal(&events).unwrap(),
        old_events,
        "old events read back the same, and no job.* event joined them"
    );
    // What was appended carries the ids of the events it caused, all past
    // the old events journal's: the watermark of the three replayed events,
    // then j-5's three records.
    let appended = text[JOBS.len()..]
        .lines()
        .map(|line| mathcloud_json::parse(line).unwrap())
        .collect::<Vec<Value>>();
    let evs: Vec<u64> = appended
        .iter()
        .map(|v| {
            v.get("ev")
                .and_then(Value::as_u64)
                .expect("every new line has ev")
        })
        .collect();
    assert_eq!(evs.len(), 4);
    assert_eq!(appended[0].get("meta"), Some(&json!(true)));
    assert!(evs[0] >= 12 + 3, "{evs:?}");
    assert!(evs.windows(2).all(|w| w[0] < w[1]), "{evs:?}");
    assert_eq!(reopened.last_ev(), evs[3]);

    // The old writer's settled lines carried their inputs; compaction
    // rewrites them without, a live job's WAITING line keeps its own, and
    // the fold is the same before and after.
    let ins = json!({"a": 9, "b": 9}).as_object().unwrap().clone();
    let waiting = TransitionDetail {
        inputs: Some(&ins),
        ..Default::default()
    };
    reopened.append(
        "add",
        "j-6",
        TransitionState::Job(JobState::Waiting),
        waiting,
    );
    let fold = reopened.recovered();
    reopened.compact();
    let rewritten = std::fs::read_to_string(&jobs).unwrap();
    let rewritten: Vec<Value> = rewritten
        .lines()
        .map(|line| mathcloud_json::parse(line).unwrap())
        .collect();
    assert_eq!(rewritten.len(), 1 + 5, "the meta line and one per job");
    let inputs_of = |job: &str| {
        let record = rewritten.iter().find(|v| v["job"].as_str() == Some(job));
        record.expect("a record per job").get("inputs").cloned()
    };
    for job in ["j-1", "j-2", "j-4", "j-5"] {
        assert_eq!(inputs_of(job), None, "{job} is settled");
    }
    assert_eq!(inputs_of("j-6"), Some(Value::Object(ins)));
    drop(reopened);
    assert_eq!(JobStore::open(&jobs, usize::MAX).unwrap().recovered(), fold);
    std::fs::remove_dir_all(&dir).ok();
}
