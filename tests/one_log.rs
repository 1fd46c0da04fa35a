//! One durable log on the job path: `job.*` events are staged on the bus by
//! the transition that causes them, carry their id in the job-journal record,
//! and are released by the one sync of that journal — the events journal is
//! for the kinds that have no other log. A job answered with its result waits
//! for one sync: its DONE record's, which covers WAITING and RUNNING.
//!
//! The journal series and the bus are process-wide, so this file is a test
//! binary of its own and its tests take turns: the counts below are exact.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mathcloud_core::{JobState, Parameter, ServiceDescription};
use mathcloud_events::{Bus, Envelope, KindFilter, Subscription};
use mathcloud_everest::adapter::NativeAdapter;
use mathcloud_everest::{Everest, JobStore};
use mathcloud_http::Client;
use mathcloud_json::{json, Schema, Value};
use mathcloud_telemetry::metrics;

static TURN: Mutex<()> = Mutex::new(());

const WAIT: Duration = Duration::from_secs(10);

/// A `hold` job with input `n` runs until this reaches `n`.
static GATE: AtomicI64 = AtomicI64::new(0);

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mc-one-log-{tag}-{}-{}",
        std::process::id(),
        mathcloud_telemetry::next_request_id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `mc_journal_fsync_seconds_count{journal=…}`.
fn syncs(journal: &str) -> u64 {
    metrics::global()
        .histogram("mc_journal_fsync_seconds", &[("journal", journal)])
        .count()
}

/// A container with an instant `add` service and a `hold` service that takes
/// as long as [`GATE`] says, journaling into `dir` with compaction off (so a
/// record's line number is its log position), and the process-wide bus
/// journaling into `dir` too.
fn node(name: &str, dir: &Path) -> Everest {
    node_with(name, dir, 4)
}

fn node_with(name: &str, dir: &Path, handlers: usize) -> Everest {
    mathcloud_events::global()
        .attach_journal(&dir.join("events.jsonl"))
        .unwrap();
    let e = Everest::with_handlers(name, handlers);
    e.deploy(
        ServiceDescription::new("hold", "runs until the gate opens")
            .input(Parameter::new("n", Schema::integer()))
            .output(Parameter::new("n", Schema::integer())),
        NativeAdapter::from_fn(|inputs, _| {
            let n = inputs.get("n").and_then(Value::as_i64).unwrap_or(0);
            while GATE.load(Ordering::SeqCst) < n {
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok([("n".to_string(), json!(n))].into_iter().collect())
        }),
    );
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
    e.attach_job_journal_with(&dir.join("jobs.jsonl"), usize::MAX)
        .unwrap();
    e
}

/// `clients` threads submit `each` jobs one after another and see every one
/// `DONE`. Returns the job ids.
fn run_jobs(e: &Everest, clients: u64, each: u64) -> Vec<String> {
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    (0..each)
                        .map(|i| {
                            let n = (c * each + i) as i64;
                            let rep = e
                                .submit_and_wait(
                                    "add",
                                    json!({"a": n, "b": 1}),
                                    None,
                                    None,
                                    None,
                                    Some(WAIT),
                                )
                                .unwrap()
                                .rep;
                            assert_eq!(rep.state, JobState::Done);
                            assert_eq!(rep.outputs.unwrap().get("sum"), Some(&json!(n + 1)));
                            rep.id.as_str().to_string()
                        })
                        .collect::<Vec<String>>()
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("submitter panicked"))
            .collect()
    })
}

/// Everything `sub` receives until `done` terminal events have come.
fn drain_until_done(sub: &Subscription, done: usize) -> Vec<Arc<Envelope>> {
    let mut seen = Vec::new();
    let mut terminal = 0;
    while terminal < done {
        let ev = sub.recv_timeout(WAIT).expect("events keep coming");
        terminal += usize::from(ev.kind == "job.done");
        seen.push(ev);
    }
    seen
}

fn job_of(ev: &Envelope) -> &str {
    ev.payload.get("job").and_then(Value::as_str).unwrap()
}

/// The job journal's lines, parsed, in log-position order.
fn journal_lines(dir: &Path) -> Vec<Value> {
    std::fs::read_to_string(dir.join("jobs.jsonl"))
        .unwrap()
        .lines()
        .map(|line| mathcloud_json::parse(line).unwrap())
        .collect()
}

/// The log position of `job`'s `state` record.
fn position(dir: &Path, job: &str, state: &str) -> u64 {
    let field = |v: &Value, name| v.get(name).and_then(Value::as_str).map(str::to_string);
    let at = journal_lines(dir)
        .iter()
        .position(|v| {
            field(v, "job").as_deref() == Some(job) && field(v, "state").as_deref() == Some(state)
        })
        .unwrap_or_else(|| panic!("{job} has no {state} record"));
    at as u64 + 1
}

#[test]
fn a_post_answered_with_its_result_waits_for_one_sync() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    const JOBS: u64 = 40;
    let dir = tmp_dir("answered");
    let e = node("one-log-answered", &dir);
    let store = e.job_store().unwrap();
    let server = mathcloud_everest::serve(e.clone(), "127.0.0.1:0", None).unwrap();
    let (client, url) = (Client::new(), format!("{}/services/add", server.base_url()));
    let before = syncs("jobs");

    let answered: Vec<(String, u64)> = (0..JOBS as i64)
        .map(|n| {
            let resp = client.post_json(&url, &json!({"a": n, "b": 1})).unwrap();
            let durable = store.journal_stats().durable;
            assert_eq!(resp.status.as_u16(), 201);
            let rep = resp.body_json().unwrap();
            assert_eq!(rep["state"].as_str(), Some("DONE"));
            assert_eq!(rep["outputs"]["sum"].as_i64(), Some(n + 1));
            (rep["id"].as_str().unwrap().to_string(), durable)
        })
        .collect();

    // WAITING and RUNNING ride on the DONE record's sync: one per job, where
    // waiting for WAITING before queueing the job made it two.
    assert_eq!(syncs("jobs") - before, JOBS, "one sync per answered job");
    assert_eq!(store.journal_stats().records, 3 * JOBS);
    for (job, durable) in &answered {
        let done = position(&dir, job, "DONE");
        assert!(
            *durable >= done,
            "{job} answered at {durable}, DONE is at {done}"
        );
    }
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn whatever_is_answered_before_the_result_is_durable_first() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmp_dir("unanswered");
    let e = node("one-log-unanswered", &dir);
    e.set_result_memoization(true);
    let store = e.job_store().unwrap();
    let durable = || store.journal_stats().durable;
    let label = e.metrics_label().to_string();
    let server = mathcloud_everest::serve(e.clone(), "127.0.0.1:0", None).unwrap();
    let hold = format!("{}/services/hold", server.base_url());
    let sub = mathcloud_events::global().subscribe(KindFilter::parse("job.submitted"), 1 << 10);
    let n = GATE.load(Ordering::SeqCst) + 1;

    // A POST whose job outlives the synchronous window is answered with its
    // state then, RUNNING (a handler is free), and only once its WAITING
    // record is on disk; so is its `job.submitted`.
    let (resp, announced) = std::thread::scope(|scope| {
        let watcher = scope.spawn(|| loop {
            let ev = sub.recv_timeout(WAIT).expect("job.submitted arrives");
            if ev.payload.get("container").and_then(Value::as_str) == Some(&label) {
                break (job_of(&ev).to_string(), durable());
            }
        });
        let resp = Client::new().post_json(&hold, &json!({ "n": n })).unwrap();
        (resp, watcher.join().expect("watcher panicked"))
    });
    let at = durable();
    assert_eq!(resp.status.as_u16(), 201);
    let rep = resp.body_json().unwrap();
    assert_eq!(rep["state"].as_str(), Some("RUNNING"));
    let held = rep["id"].as_str().unwrap().to_string();
    let waiting = position(&dir, &held, "WAITING");
    assert!(
        at >= waiting,
        "answered WAITING at {at}, its record is at {waiting}"
    );
    assert_eq!(announced.0, held);
    assert!(announced.1 >= waiting, "job.submitted at {}", announced.1);

    // `submit` answers without waiting for the result: WAITING, durable.
    let submitted = e
        .submit_and_wait("hold", json!({ "n": n }), None, None, None, None)
        .unwrap()
        .rep;
    let at = durable();
    assert_eq!(submitted.id.as_str(), held, "a coalesced memo hit");
    assert!(at >= waiting);
    let fresh = e
        .submit_and_wait("hold", json!({ "n": (n + 1) }), None, None, None, None)
        .unwrap()
        .rep;
    let at = durable();
    let waiting = position(&dir, fresh.id.as_str(), "WAITING");
    assert!(
        at >= waiting,
        "submit returned at {at}, WAITING is at {waiting}"
    );
    GATE.store(n + 1, Ordering::SeqCst);
    for job in [&held, fresh.id.as_str()] {
        assert_eq!(e.wait("hold", job, WAIT).unwrap().state, JobState::Done);
    }

    // A keyed retry and a coalesced memo hit that reach a job whose WAITING
    // record is still deferred answer once it is durable.
    let mut deferred = 0;
    for n in n + 2..n + 5 {
        let (body, key) = (json!({ "n": n }), format!("key-{n}"));
        std::thread::scope(|scope| {
            let records = store.journal_stats().records;
            let first = scope.spawn(|| {
                e.submit_and_wait("hold", body.clone(), None, None, Some(&key), Some(WAIT))
                    .unwrap()
            });
            while store.journal_stats().records == records {
                std::hint::spin_loop();
            }
            let waiting = records + 1;
            deferred += usize::from(durable() < waiting);
            let retry = e
                .submit_and_wait("hold", body.clone(), None, None, Some(&key), None)
                .unwrap();
            assert!(retry.deduplicated && durable() >= waiting, "keyed retry");
            let hit = e
                .submit_and_wait("hold", body.clone(), None, None, None, None)
                .unwrap();
            assert!(hit.memo_hit && durable() >= waiting, "coalesced memo hit");
            assert_eq!(retry.rep.id, hit.rep.id);
            GATE.store(n, Ordering::SeqCst);
            let answered = first.join().expect("submitter panicked");
            assert_eq!(answered.rep.id, hit.rep.id);
            assert_eq!(answered.rep.state, JobState::Done);
        });
    }
    assert!(deferred > 0, "no retry reached a deferred record");
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_job_waits_for_the_job_journal_alone() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    const CLIENTS: u64 = 8;
    const EACH: u64 = 50;
    let jobs = CLIENTS * EACH;
    let dir = tmp_dir("syncs");
    let e = node("one-log-syncs", &dir);
    let bus = mathcloud_events::global();
    let done = bus.subscribe(KindFilter::parse("job.done"), 1 << 12);
    let (events_before, jobs_before) = (syncs("events"), syncs("jobs"));

    run_jobs(&e, CLIENTS, EACH);
    // A waiter can be answered before the handler has released `job.done`.
    drain_until_done(&done, jobs as usize);

    assert_eq!(syncs("events"), events_before, "no events-journal sync");
    let events_journal = bus.journal_stats().unwrap();
    assert_eq!(events_journal.records, 0, "no events-journal record");
    assert_eq!(
        std::fs::metadata(dir.join("events.jsonl")).unwrap().len(),
        0
    );
    let stats = e.job_store().unwrap().journal_stats();
    assert_eq!(stats.records, 3 * jobs, "WAITING, RUNNING and DONE each");
    let waited = syncs("jobs") - jobs_before;
    assert!(waited <= 2 * jobs, "{waited} syncs for {jobs} jobs");
    // Every record names the event it caused, each id once.
    let mut evs: Vec<u64> = journal_lines(&dir)
        .iter()
        .map(|v| v.get("ev").and_then(Value::as_u64).expect("ev on a record"))
        .collect();
    evs.sort_unstable();
    evs.dedup();
    assert_eq!(evs.len() as u64, 3 * jobs);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn events_arrive_in_id_order_and_never_ahead_of_their_own_log() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    const CLIENTS: u64 = 8;
    const EACH: u64 = 40;
    let jobs = (CLIENTS * EACH) as usize;
    let dir = tmp_dir("order");
    let e = node("one-log-order", &dir);
    let store = e.job_store().unwrap();
    let bus = mathcloud_events::global();
    let sub = bus.subscribe(KindFilter::all(), 1 << 14);
    let stop = AtomicBool::new(false);

    // Each event with what was durable when it was received: the job
    // journal for `job.*`, the events journal for the rest.
    let seen: Vec<(Arc<Envelope>, u64)> = std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            let mut seen = Vec::new();
            let mut terminal = 0;
            while terminal < jobs {
                let ev = sub.recv_timeout(WAIT).expect("events keep coming");
                let durable = match ev.kind.starts_with("job.") {
                    true => store.journal_stats().durable,
                    false => bus.journal_stats().unwrap().durable,
                };
                terminal += usize::from(ev.kind == "job.done");
                seen.push((ev, durable));
            }
            seen
        });
        // The other kind of publisher, on the other log, all the while.
        scope.spawn(|| {
            let mut n = 0;
            while !stop.load(Ordering::SeqCst) {
                n += 1;
                let id = bus.publish("pool.scale", None, json!({ "n": (n as i64) }));
                assert!(bus.journal_stats().unwrap().durable >= n, "event {id}");
            }
        });
        run_jobs(&e, CLIENTS, EACH);
        let seen = watcher.join().expect("watcher panicked");
        stop.store(true, Ordering::SeqCst);
        seen
    });

    let ids: Vec<u64> = seen.iter().map(|(ev, _)| ev.id).collect();
    assert!(
        ids.windows(2).all(|w| w[1] == w[0] + 1),
        "gapless and strictly increasing across jobs and kinds"
    );
    assert_eq!(sub.lagged(), 0);

    // Where each event's record sits in the job journal.
    let mut position = HashMap::new();
    for (line, v) in journal_lines(&dir).iter().enumerate() {
        let ev = v.get("ev").and_then(Value::as_u64).unwrap();
        position.insert(ev, line as u64 + 1);
    }
    let mut per_job: HashMap<&str, Vec<&str>> = HashMap::new();
    let mut scaled = 0;
    for (ev, durable) in &seen {
        if ev.kind == "pool.scale" {
            // The only publisher on the events journal: its n-th event is
            // the n-th record.
            scaled += 1;
            assert_eq!(ev.payload.get("n"), Some(&json!(scaled as i64)));
            assert!(*durable >= scaled, "pool.scale {scaled} at {durable}");
            continue;
        }
        per_job.entry(job_of(ev)).or_default().push(&ev.kind);
        // One rule for all three: the record naming the id is on disk.
        let covered_by = position[&ev.id];
        assert!(
            *durable >= covered_by,
            "{} {} delivered with {durable} durable, its record at {covered_by}",
            ev.kind,
            ev.id
        );
    }
    assert!(scaled > 0, "the events journal was in use throughout");
    assert_eq!(per_job.len(), jobs);
    for (job, kinds) in per_job {
        assert_eq!(kinds, ["job.submitted", "job.running", "job.done"], "{job}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ids_resume_above_everything_delivered_even_when_no_record_names_them() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmp_dir("resume");
    let e = node("one-log-resume", &dir);
    let bus = mathcloud_events::global();
    let sub = bus.subscribe(KindFilter::parse("job."), 1 << 10);
    let ids = run_jobs(&e, 2, 10);
    let delivered = drain_until_done(&sub, ids.len());
    let highest = delivered.iter().map(|ev| ev.id).max().unwrap();
    // Every job but the first goes, and with it every record naming the
    // last ids; compaction leaves the `meta` line and one record.
    for id in &ids[1..] {
        assert!(e.delete_job("add", id));
    }
    let store = e.job_store().unwrap();
    store.compact();
    assert_eq!(journal_lines(&dir).len(), 2);
    drop((store, e));

    let restarted = |events: &Path, jobs: &Path| {
        let bus = Bus::with_ring(8);
        bus.attach_journal(events).unwrap();
        bus.resume_after(JobStore::open(jobs, usize::MAX).unwrap().last_ev());
        bus.last_id()
    };
    let (events, jobs) = (dir.join("events.jsonl"), dir.join("jobs.jsonl"));
    assert!(restarted(&events, &jobs) >= highest);

    // A recovery's replayed events are named by no record either: the
    // `meta` line it appends speaks for them, also after a compaction.
    let e2 = node("one-log-resume-2", &dir);
    let replayed = sub
        .recv_timeout(WAIT)
        .expect("the surviving job is replayed");
    assert_eq!(
        replayed.payload.get("replayed").and_then(Value::as_bool),
        Some(true)
    );
    assert!(replayed.id > highest);
    assert!(restarted(&events, &jobs) >= replayed.id);
    e2.job_store().unwrap().compact();
    drop(e2);
    assert!(restarted(&events, &jobs) >= replayed.id);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_resume_older_than_the_ring_gets_each_surviving_jobs_last_event_then_the_ring() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmp_dir("history");
    let e = node("one-log-history", &dir);
    let label = e.metrics_label().to_string();
    let bus = mathcloud_events::global();
    let start = bus.last_id();
    let live = bus.subscribe(KindFilter::parse("job."), 1 << 12);

    // Ten early jobs, two of them deleted, then enough to push all of their
    // events off the ring.
    let early = run_jobs(&e, 1, 10);
    for id in &early[..2] {
        assert!(e.delete_job("add", id));
    }
    let flood = run_jobs(&e, 4, 100);
    assert!(3 * flood.len() > mathcloud_events::DEFAULT_RING);
    let delivered = drain_until_done(&live, early.len() + flood.len());
    assert!(delivered.windows(2).all(|w| w[1].id == w[0].id + 1));

    let (backlog, _sub) = bus.subscribe_from(Some(start), KindFilter::parse("job."), 8);
    assert!(
        backlog.windows(2).all(|w| w[0].id < w[1].id),
        "id order, no duplicate"
    );
    // From the ring's first event on, the backlog is what was delivered.
    let ring_len = mathcloud_events::DEFAULT_RING;
    let (older, ring) = backlog.split_at(backlog.len() - ring_len);
    let tail = &delivered[delivered.len() - ring_len..];
    assert!(ring.iter().zip(tail).all(|(a, b)| a == b), "then the ring");
    assert!(older.last().unwrap().id < ring[0].id);
    // Before it, each job that survives and whose last event the ring has
    // let go of is there once, with that event under its original id.
    let expected: Vec<&Arc<Envelope>> = delivered[..delivered.len() - ring_len]
        .iter()
        .filter(|ev| ev.kind == "job.done" && !early[..2].contains(&job_of(ev).to_string()))
        .collect();
    assert!(expected.len() >= 8, "the early survivors at least");
    assert_eq!(older.len(), expected.len());
    for (got, want) in older.iter().zip(expected) {
        assert_eq!((got.id, &got.kind), (want.id, &want.kind));
        assert_eq!(job_of(got), job_of(want));
        assert_eq!(got.request_id, want.request_id);
        assert_eq!(
            got.payload.get("container").and_then(Value::as_str),
            Some(label.as_str())
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// What a crash right now would leave of the two journals — their synced
/// lines — and the id a bus restarted on that resumes at.
fn resumes_at_after_a_crash(e: &Everest, dir: &Path, image: &Path) -> u64 {
    let synced = [
        ("jobs.jsonl", e.job_store().unwrap().journal_stats().durable),
        (
            "events.jsonl",
            mathcloud_events::global().journal_stats().unwrap().durable,
        ),
    ];
    for (file, durable) in synced {
        let text = std::fs::read_to_string(dir.join(file)).unwrap();
        let kept: String = text.split_inclusive('\n').take(durable as usize).collect();
        std::fs::write(image.join(file), kept).unwrap();
    }
    let bus = Bus::with_ring(8);
    bus.attach_journal(&image.join("events.jsonl")).unwrap();
    let jobs = JobStore::open(&image.join("jobs.jsonl"), usize::MAX).unwrap();
    bus.resume_after(jobs.last_ev());
    bus.last_id()
}

#[test]
fn a_long_job_is_announced_while_it_runs_and_never_under_an_id_a_crash_would_forget() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let (dir, image) = (tmp_dir("crash"), tmp_dir("crash-image"));
    // One handler: the second job waits in the queue, so ids of the other
    // log come between its WAITING record and its RUNNING record.
    let e = node_with("one-log-crash", &dir, 1);
    let bus = mathcloud_events::global();
    let sub = bus.subscribe(KindFilter::all(), 1 << 10);
    GATE.store(0, Ordering::SeqCst);
    let first = e
        .submit_and_wait("hold", json!({"n": 1}), None, None, None, None)
        .unwrap()
        .rep;
    let second = e
        .submit_and_wait("hold", json!({"n": 2}), None, None, None, None)
        .unwrap()
        .rep;
    for n in 0..5 {
        bus.publish("pool.scale", None, json!({ "n": n }));
    }
    GATE.store(1, Ordering::SeqCst);
    e.wait("hold", first.id.as_str(), WAIT)
        .expect("the first runs out");

    // The second job runs now, on a container where nothing else happens:
    // no record follows its RUNNING record, no sync of anybody covers it.
    // Crash after crash, no id a subscriber has seen is handed out again —
    // and `job.running` does arrive, long before the job ends.
    let mut delivered = 0;
    let mut running_seen = false;
    let deadline = std::time::Instant::now() + WAIT;
    while !running_seen {
        assert!(std::time::Instant::now() < deadline, "job.running is late");
        while let Some(ev) = sub.try_recv() {
            delivered = delivered.max(ev.id);
            running_seen |= ev.kind == "job.running" && job_of(&ev) == second.id.as_str();
        }
        let resumed = resumes_at_after_a_crash(&e, &dir, &image);
        assert!(
            resumed >= delivered,
            "id {delivered} was delivered, a crash resumes at {resumed}"
        );
    }
    let rep = e.representation("hold", second.id.as_str()).unwrap();
    assert_eq!(rep.state, JobState::Running, "announced while it runs");
    // Nor does the running job hold back the other log's events.
    let id = bus.publish("pool.scale", None, json!({"n": 5}));
    let scaled = sub
        .recv_timeout(WAIT)
        .expect("delivered behind job.running");
    assert_eq!((scaled.id, scaled.kind.as_str()), (id, "pool.scale"));

    GATE.store(2, Ordering::SeqCst);
    e.wait("hold", second.id.as_str(), WAIT)
        .expect("the second runs out");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&image).ok();
}
