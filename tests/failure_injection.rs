//! Failure injection: what happens when pieces of the distributed platform
//! die mid-operation. The heterogeneous environments the paper targets fail
//! constantly; these tests pin down the platform's behaviour when they do.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mathcloud_catalogue::Catalogue;
use mathcloud_client::ServiceClient;
use mathcloud_core::{Parameter, ServiceDescription};
use mathcloud_everest::adapter::NativeAdapter;
use mathcloud_everest::Everest;
use mathcloud_http::{Response, Router, Server};
use mathcloud_json::{json, Schema, Value};
use mathcloud_workflow::{validate, Engine, EngineError, HttpCaller, HttpDescriptions, Workflow};

fn sum_container() -> Everest {
    let e = Everest::with_handlers("victim", 2);
    e.deploy(
        ServiceDescription::new("add", "adds")
            .input(Parameter::new("a", Schema::integer()))
            .input(Parameter::new("b", Schema::integer()))
            .output(Parameter::new("sum", Schema::integer())),
        NativeAdapter::from_fn(|inputs, _| {
            let a = inputs.get("a").and_then(Value::as_i64).unwrap_or(0);
            let b = inputs.get("b").and_then(Value::as_i64).unwrap_or(0);
            std::thread::sleep(Duration::from_millis(50));
            Ok([("sum".to_string(), json!(a + b))].into_iter().collect())
        }),
    );
    e
}

#[test]
fn workflow_fails_cleanly_when_a_service_dies_mid_run() {
    let server = mathcloud_everest::serve(sum_container(), "127.0.0.1:0", None).unwrap();
    let base = server.base_url();
    let wf = Workflow::new("doomed", "")
        .input("a", Schema::integer())
        .input("b", Schema::integer())
        .service("s1", &format!("{base}/services/add"))
        .service("s2", &format!("{base}/services/add"))
        .output("r", Schema::integer())
        .wire(("a", "value"), ("s1", "a"))
        .wire(("b", "value"), ("s1", "b"))
        .wire(("s1", "sum"), ("s2", "a"))
        .wire(("b", "value"), ("s2", "b"))
        .wire(("s2", "sum"), ("r", "value"));
    let validated = validate(&wf, &HttpDescriptions::new()).unwrap();
    // Kill the container before execution: every service call now fails.
    drop(server);
    let engine = Engine::with_caller(validated, HttpCaller::default());
    let inputs = [("a".to_string(), json!(1)), ("b".to_string(), json!(2))]
        .into_iter()
        .collect();
    let err = engine.run(&inputs).unwrap_err();
    match err {
        EngineError::BlockFailed { block, reason } => {
            assert_eq!(block, "s1", "the first service block is attributed");
            assert!(!reason.is_empty());
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn client_reports_transport_failures_distinctly_from_job_failures() {
    let server = mathcloud_everest::serve(sum_container(), "127.0.0.1:0", None).unwrap();
    let base = server.base_url();
    let svc = ServiceClient::connect(&format!("{base}/services/add")).unwrap();
    // Healthy call first.
    assert!(svc
        .call(&json!({"a": 1, "b": 2}), Duration::from_secs(10))
        .is_ok());
    // Kill the server; the next call is a transport error, not JobFailed.
    drop(server);
    let err = svc
        .call(&json!({"a": 1, "b": 2}), Duration::from_secs(2))
        .unwrap_err();
    assert!(
        matches!(err, mathcloud_client::ServiceError::Transport(_)),
        "{err}"
    );
}

#[test]
fn catalogue_survives_flapping_services() {
    let catalogue = Catalogue::new();
    let server = mathcloud_everest::serve(sum_container(), "127.0.0.1:0", None).unwrap();
    let url = format!("{}/services/add", server.base_url());
    catalogue.publish(&url, &["math"]).unwrap();
    assert_eq!(catalogue.ping_all(), (1, 0));
    drop(server);
    assert_eq!(catalogue.ping_all(), (0, 1));
    // The entry remains searchable while marked unavailable.
    let hits = catalogue.search("adds", None);
    assert_eq!(hits.len(), 1);
    assert!(!hits[0].entry.available);
}

#[test]
fn catalogue_rejects_services_that_serve_garbage() {
    // A server that speaks HTTP but not the MathCloud protocol.
    let mut router = Router::new();
    router.get("/services/junk", |_r, _p| {
        Response::text(200, "<html>not a description</html>")
    });
    let server = Server::bind("127.0.0.1:0", router).unwrap();
    let catalogue = Catalogue::new();
    let err = catalogue
        .publish(&format!("{}/services/junk", server.base_url()), &[])
        .unwrap_err();
    assert!(err.to_string().contains("bad service description"), "{err}");
}

#[test]
fn half_open_connections_do_not_wedge_the_server() {
    use std::io::Write;
    use std::net::TcpStream;

    let server = mathcloud_everest::serve(sum_container(), "127.0.0.1:0", None).unwrap();
    // Open sockets that send partial requests and vanish.
    for _ in 0..5 {
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        let _ = s.write_all(b"POST /services/add HTTP/1.1\r\nContent-Le");
        drop(s);
    }
    // The server still answers real clients promptly.
    let svc = ServiceClient::connect(&format!("{}/services/add", server.base_url())).unwrap();
    let rep = svc
        .call(&json!({"a": 20, "b": 22}), Duration::from_secs(10))
        .unwrap();
    assert_eq!(rep.outputs.unwrap().get("sum").unwrap().as_i64(), Some(42));
}

#[test]
fn adapter_panics_do_not_take_down_the_container() {
    let e = Everest::with_handlers("panicky", 2);
    e.deploy(
        ServiceDescription::new("boom", "panics"),
        NativeAdapter::from_fn(|_, _| panic!("adapter bug")),
    );
    e.deploy(
        ServiceDescription::new("fine", "works"),
        NativeAdapter::from_fn(|_, _| Ok(mathcloud_json::value::Object::new())),
    );
    // The panic is contained: the job FAILS with the panic message and the
    // handler thread survives to serve later jobs.
    let rep = e.submit("boom", &json!({}), None).unwrap();
    let done = e
        .wait("boom", rep.id.as_str(), Duration::from_secs(5))
        .unwrap();
    assert_eq!(done.state, mathcloud_core::JobState::Failed);
    assert!(
        done.error
            .as_deref()
            .unwrap_or("")
            .contains("adapter panicked"),
        "{done:?}"
    );
    // Saturate the pool with more panicking jobs, then prove both handlers
    // still work.
    for _ in 0..4 {
        let rep = e.submit("boom", &json!({}), None).unwrap();
        e.wait("boom", rep.id.as_str(), Duration::from_secs(5))
            .unwrap();
    }
    let ok = e
        .submit_sync("fine", &json!({}), None, Duration::from_secs(5))
        .unwrap();
    assert_eq!(ok.state, mathcloud_core::JobState::Done);
}

/// A unique temp directory for one test's job journal.
fn journal_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mc-durable-{tag}-{}-{}",
        std::process::id(),
        mathcloud_telemetry::next_request_id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One "crashable" container instance for the kill-and-restart harness:
///
/// * `add` counts real adapter executions in the shared `execs` counter, so
///   the test can prove a replayed result was *not* re-computed;
/// * `slow` parks until this instance's `gate` opens. Instance one's gate
///   never opens, so its worker thread can never write a late terminal
///   record into the journal after the "crash" — the kill is deterministic.
fn durable_container(name: &str, execs: &Arc<AtomicU64>, gate: &Arc<AtomicBool>) -> Everest {
    let e = Everest::with_handlers(name, 2);
    let execs = Arc::clone(execs);
    e.deploy(
        ServiceDescription::new("add", "adds")
            .input(Parameter::new("a", Schema::integer()))
            .input(Parameter::new("b", Schema::integer()))
            .output(Parameter::new("sum", Schema::integer())),
        NativeAdapter::from_fn(move |inputs, _| {
            execs.fetch_add(1, Ordering::SeqCst);
            let a = inputs.get("a").and_then(Value::as_i64).unwrap_or(0);
            let b = inputs.get("b").and_then(Value::as_i64).unwrap_or(0);
            Ok([("sum".to_string(), json!(a + b))].into_iter().collect())
        }),
    );
    let gate = Arc::clone(gate);
    e.deploy(
        ServiceDescription::new("slow", "parks until the gate opens")
            .input(Parameter::new("x", Schema::integer()))
            .output(Parameter::new("x", Schema::integer())),
        NativeAdapter::from_fn(move |inputs, _| {
            while !gate.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(2));
            }
            Ok([(
                "x".to_string(),
                inputs.get("x").cloned().unwrap_or(json!(0)),
            )]
            .into_iter()
            .collect())
        }),
    );
    e
}

#[test]
fn killed_container_recovers_jobs_from_its_journal() {
    use mathcloud_core::JobState;

    let dir = journal_dir("kill-restart");
    let journal = dir.join("jobs.jsonl");
    let execs = Arc::new(AtomicU64::new(0));

    // ---- Instance one: do real work, then "crash" mid-job. ----
    let gate1 = Arc::new(AtomicBool::new(false)); // never opens
    let e1 = durable_container("victim-1", &execs, &gate1);
    e1.attach_job_journal(&journal).unwrap();
    let server1 = mathcloud_everest::serve(e1.clone(), "127.0.0.1:0", None).unwrap();
    let base1 = server1.base_url();

    // A keyed submission runs to completion.
    let add1 = ServiceClient::connect(&format!("{base1}/services/add")).unwrap();
    let done = add1
        .submit_idempotent(&json!({"a": 20, "b": 22}), "key-add-42")
        .unwrap()
        .wait(Duration::from_secs(10))
        .unwrap();
    let add_id = done.id.as_str().to_string();
    assert_eq!(done.outputs.unwrap().get("sum").unwrap().as_i64(), Some(42));
    assert_eq!(execs.load(Ordering::SeqCst), 1);

    // A slow job reaches RUNNING, then the container dies under it.
    let slow1 = ServiceClient::connect(&format!("{base1}/services/slow")).unwrap();
    let slow_id = slow1
        .submit(&json!({"x": 7}))
        .unwrap()
        .representation()
        .id
        .as_str()
        .to_string();
    let deadline = Instant::now() + Duration::from_secs(10);
    while e1.representation("slow", &slow_id).unwrap().state != JobState::Running {
        assert!(Instant::now() < deadline, "slow job never started");
        std::thread::sleep(Duration::from_millis(2));
    }
    drop(server1);
    drop(e1); // the kill: nothing of instance one remains but the journal

    // ---- Instance two: restart from the same journal. ----
    let gate2 = Arc::new(AtomicBool::new(true)); // open: re-runs may finish
    let e2 = durable_container("victim-2", &execs, &gate2);
    let report = e2.attach_job_journal(&journal).unwrap();
    assert_eq!(report.replayed, 1, "the finished add job came back");
    assert_eq!(report.requeued, 1, "the interrupted slow job re-queued");
    assert_eq!(report.idem_keys, 1, "the Idempotency-Key mapping survived");
    let server2 = mathcloud_everest::serve(e2.clone(), "127.0.0.1:0", None).unwrap();
    let base2 = server2.base_url();

    // Terminal result served from the journal, without re-execution.
    let add2 = ServiceClient::connect(&format!("{base2}/services/add")).unwrap();
    let replayed = add2
        .job(&add_id)
        .unwrap()
        .wait(Duration::from_secs(5))
        .unwrap();
    assert_eq!(
        replayed.outputs.unwrap().get("sum").unwrap().as_i64(),
        Some(42)
    );
    assert_eq!(
        execs.load(Ordering::SeqCst),
        1,
        "the replayed result must not re-run the adapter"
    );

    // A keyed replay of the original submission maps to the same job —
    // idempotency survives the restart.
    let retried = add2
        .submit_idempotent(&json!({"a": 20, "b": 22}), "key-add-42")
        .unwrap();
    assert_eq!(retried.representation().id.as_str(), add_id);
    assert_eq!(execs.load(Ordering::SeqCst), 1);

    // The interrupted job re-runs to completion, and a client holding only
    // its pre-crash id resumes waiting (push-first wait over /events).
    let slow2 = ServiceClient::connect(&format!("{base2}/services/slow")).unwrap();
    let rerun = slow2
        .job(&slow_id)
        .unwrap()
        .wait(Duration::from_secs(10))
        .unwrap();
    assert_eq!(rerun.state, JobState::Done);
    assert_eq!(rerun.outputs.unwrap().get("x").unwrap().as_i64(), Some(7));

    // Fresh ids never collide with recovered ones.
    let fresh = add2.submit(&json!({"a": 1, "b": 1})).unwrap();
    assert_ne!(fresh.representation().id.as_str(), add_id);
    assert_ne!(fresh.representation().id.as_str(), slow_id);
    drop(server2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn idempotency_key_races_create_exactly_one_job() {
    let dir = journal_dir("idem-race");
    let execs = Arc::new(AtomicU64::new(0));
    let gate = Arc::new(AtomicBool::new(true));
    let e = durable_container("idem-race", &execs, &gate);
    e.attach_job_journal(&dir.join("jobs.jsonl")).unwrap();
    let server = mathcloud_everest::serve(e.clone(), "127.0.0.1:0", None).unwrap();
    let base = server.base_url();

    const RACERS: usize = 16;
    let ids: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..RACERS)
            .map(|_| {
                let url = format!("{base}/services/add");
                s.spawn(move || {
                    let svc = ServiceClient::connect(&url).unwrap();
                    svc.submit_idempotent(&json!({"a": 2, "b": 3}), "the-one-key")
                        .unwrap()
                        .representation()
                        .id
                        .as_str()
                        .to_string()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(
        ids.iter().all(|id| id == &ids[0]),
        "every racer got the same job id: {ids:?}"
    );
    assert_eq!(e.stats().submitted, 1, "exactly one JobRecord was created");
    let deduped = mathcloud_telemetry::metrics::global()
        .counter_value(
            "mc_jobs_deduplicated_total",
            &[("container", e.metrics_label()), ("service", "add")],
        )
        .unwrap_or(0);
    assert_eq!(deduped as usize, RACERS - 1);
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compaction_keeps_the_journal_small_and_recoverable() {
    use mathcloud_core::JobState;

    let dir = journal_dir("compaction");
    let journal = dir.join("jobs.jsonl");
    let execs = Arc::new(AtomicU64::new(0));
    let gate = Arc::new(AtomicBool::new(true));
    let e = durable_container("compactee", &execs, &gate);
    // Small threshold: ~1k jobs × 3 records each forces many compactions.
    e.attach_job_journal_with(&journal, 128).unwrap();

    const JOBS: usize = 1000;
    let mut kept = Vec::new();
    let mut peak = 0u64;
    for i in 0..JOBS {
        let rep = e
            .submit_sync(
                "add",
                &json!({"a": (i as i64), "b": 1}),
                None,
                Duration::from_secs(10),
            )
            .unwrap();
        assert!(rep.state.is_terminal(), "job {i} did not finish in time");
        peak = peak.max(std::fs::metadata(&journal).map(|m| m.len()).unwrap_or(0));
        // Delete most terminal jobs as we go; keep every 20th.
        if i % 20 == 0 {
            kept.push((rep.id.as_str().to_string(), i as i64 + 1));
        } else {
            assert!(e.delete_job("add", rep.id.as_str()));
        }
    }
    let store = e.job_store().unwrap();
    store.compact();
    let final_size = std::fs::metadata(&journal).unwrap().len();
    assert!(
        final_size < peak,
        "the final rewrite shrinks the journal: {final_size} vs peak {peak}"
    );
    // 1k jobs × 3 records each is ~400 KB of raw log; periodic compaction
    // must keep even the *peak* file size an order of magnitude below that.
    assert!(
        peak < 100_000,
        "compaction bounds journal growth: peak {peak} bytes"
    );
    // After the final compaction the file holds exactly the meta line plus
    // one consolidated record per kept job.
    let lines = std::fs::read_to_string(&journal)
        .unwrap()
        .lines()
        .filter(|l| !l.trim().is_empty())
        .count();
    assert_eq!(lines, kept.len() + 1);
    let last_seq = store.last_seq();
    assert!(
        last_seq >= (JOBS * 3) as u64,
        "sequence numbers are gapless-monotonic across compactions: {last_seq}"
    );
    drop(store);
    drop(e);

    // Recovery after compaction answers every kept terminal job.
    let e2 = durable_container("compactee-2", &execs, &gate);
    let report = e2.attach_job_journal_with(&journal, 128).unwrap();
    assert_eq!(report.replayed, kept.len());
    assert_eq!(report.requeued, 0);
    for (id, sum) in &kept {
        let rep = e2.representation("add", id).expect("kept job recovered");
        assert_eq!(rep.state, JobState::Done);
        assert_eq!(
            rep.outputs.unwrap().get("sum").unwrap().as_i64(),
            Some(*sum)
        );
    }
    // The rewrite preserved the sequence and id watermarks: resuming the
    // container appends after the old high-water mark, never inside it.
    let store2 = e2.job_store().unwrap();
    assert_eq!(store2.last_seq(), last_seq);
    let fresh = e2
        .submit_sync(
            "add",
            &json!({"a": 1, "b": 1}),
            None,
            Duration::from_secs(10),
        )
        .unwrap();
    let fresh_n: u64 = fresh
        .id
        .as_str()
        .strip_prefix("j-")
        .unwrap()
        .parse()
        .unwrap();
    assert!(
        fresh_n > JOBS as u64,
        "fresh ids sit past every recovered id"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn oversized_request_bodies_are_rejected_not_buffered_forever() {
    use std::io::{Read, Write};
    use std::net::TcpStream;

    let server = mathcloud_everest::serve(sum_container(), "127.0.0.1:0", None).unwrap();
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    // Claim a body over the 1 GiB limit.
    s.write_all(b"POST /services/add HTTP/1.1\r\nHost: x\r\nContent-Length: 99999999999\r\n\r\n")
        .unwrap();
    let mut buf = [0u8; 256];
    let n = s.read(&mut buf).unwrap();
    let text = String::from_utf8_lossy(&buf[..n]);
    // The edge rejects on the declared length alone, with the typed
    // payload-too-large status rather than a blanket 400.
    assert!(text.starts_with("HTTP/1.1 413"), "{text}");
}

#[test]
fn memoized_results_survive_a_kill_and_restart() {
    use mathcloud_core::JobState;

    let dir = journal_dir("memo-restart");
    let journal = dir.join("jobs.jsonl");
    let execs = Arc::new(AtomicU64::new(0));

    // ---- Instance one: memoize a result, then "crash". ----
    let gate1 = Arc::new(AtomicBool::new(true));
    let e1 = durable_container("memo-victim-1", &execs, &gate1);
    e1.set_result_memoization(true);
    e1.attach_job_journal(&journal).unwrap();

    let cold = e1
        .submit_full("add", &json!({"a": 20, "b": 22}), None, None, None)
        .unwrap();
    assert!(!cold.memo_hit);
    let done = e1
        .wait("add", cold.rep.id.as_str(), Duration::from_secs(10))
        .unwrap();
    assert_eq!(done.state, JobState::Done);
    assert_eq!(execs.load(Ordering::SeqCst), 1);

    // Sanity: a reordered respelling hits in-process before the crash.
    let warm = e1
        .submit_full("add", &json!({"b": 22.0, "a": 20}), None, None, None)
        .unwrap();
    assert!(warm.memo_hit);
    drop(e1); // the kill: nothing remains but the journal

    // ---- Instance two: the memo entry is rebuilt from the journal. ----
    let gate2 = Arc::new(AtomicBool::new(true));
    let e2 = durable_container("memo-victim-2", &execs, &gate2);
    e2.set_result_memoization(true);
    let report = e2.attach_job_journal(&journal).unwrap();
    assert_eq!(report.replayed, 1, "the Done job came back");
    assert_eq!(
        report.memo_keys, 1,
        "its memo key was rebuilt from the WAITING record"
    );

    // The identical submission — yet another spelling — is a hit on the
    // recovered record: same job, same outputs, no re-execution.
    let replayed = e2
        .submit_full("add", &json!({"b": 22, "a": 20.0}), None, None, None)
        .unwrap();
    assert!(replayed.memo_hit, "a memoized result survives the restart");
    assert_eq!(replayed.rep.id.as_str(), done.id.as_str());
    assert_eq!(replayed.rep.state, JobState::Done);
    assert_eq!(
        replayed
            .rep
            .outputs
            .as_ref()
            .and_then(|o| o.get("sum"))
            .and_then(Value::as_i64),
        Some(42)
    );
    assert_eq!(
        execs.load(Ordering::SeqCst),
        1,
        "a journal-replayed hit must not re-run the adapter"
    );

    // A semantically different submission is still a miss that executes.
    let other = e2
        .submit_full("add", &json!({"a": 20, "b": 23}), None, None, None)
        .unwrap();
    assert!(!other.memo_hit);
    e2.wait("add", other.rep.id.as_str(), Duration::from_secs(10))
        .unwrap();
    assert_eq!(execs.load(Ordering::SeqCst), 2);

    std::fs::remove_dir_all(&dir).ok();
}

/// Group commit writes a transition inside the jobs lock and syncs it
/// outside, so there is a window in which a DONE record is in the file but
/// not on disk. Two things must hold across it. Live: whoever is *shown* a
/// state — the `POST` reply, a polling reader, a `job.*` subscriber — is
/// shown it only after the covering sync. Crash: a submission answered with
/// its result waits for nothing before DONE — its WAITING and RUNNING records
/// ride on the DONE sync — so a journal cut back to what was durable before
/// that sync can fall anywhere in the job's three records. A cut after
/// WAITING or after RUNNING re-runs the job; a cut before WAITING loses a
/// job nobody was told about, and nothing else.
#[test]
fn nothing_is_shown_before_its_sync_and_a_lost_done_record_reruns_the_job() {
    use mathcloud_core::JobState;
    use mathcloud_events::KindFilter;

    const JOBS: u64 = 150;
    // JOBS watched by a reader and a subscriber, then JOBS more alone.
    const LAST: u64 = 2 * JOBS;
    let dir = journal_dir("write-sync-gap");
    let journal = dir.join("jobs.jsonl");
    let execs = Arc::new(AtomicU64::new(0));
    let gate = Arc::new(AtomicBool::new(true));
    let e = durable_container("gap-victim", &execs, &gate);
    e.attach_job_journal_with(&journal, usize::MAX).unwrap();
    let store = e.job_store().unwrap();
    // A fresh journal and one job at a time: j-k writes WAITING at position
    // 3k - 2, RUNNING at 3k - 1 and DONE at 3k.
    let number = |id: &str| id.strip_prefix("j-").unwrap().parse::<u64>().unwrap();
    let durable = || store.journal_stats().durable;
    let label = e.metrics_label().to_string();
    let events = mathcloud_events::global().subscribe(KindFilter::parse("job."), 1 << 16);
    // Submits j-k and checks the answer leaves only once DONE is durable.
    let answered = |k: u64| {
        let rep = e
            .submit_sync(
                "add",
                &json!({"a": (k as i64), "b": 1}),
                None,
                Duration::from_secs(10),
            )
            .unwrap();
        assert_eq!(number(rep.id.as_str()), k);
        assert_eq!(rep.state, JobState::Done);
        assert!(durable() >= 3 * k, "j-{k} acknowledged before its sync");
    };

    std::thread::scope(|scope| {
        // A reader that polls each job from before it exists until DONE.
        scope.spawn(|| {
            for k in 1..=JOBS {
                let id = format!("j-{k}");
                let deadline = Instant::now() + Duration::from_secs(30);
                loop {
                    assert!(Instant::now() < deadline, "{id} never finished");
                    let Some(rep) = e.representation("add", &id) else {
                        std::hint::spin_loop();
                        continue;
                    };
                    let on_disk = durable();
                    assert!(on_disk >= 3 * k - 2, "{id} visible before WAITING");
                    if rep.state == JobState::Done {
                        assert!(on_disk >= 3 * k, "{id} read as DONE at {on_disk}");
                        break;
                    }
                }
            }
        });
        // A push-mode watcher of this container's lifecycle events.
        scope.spawn(|| {
            let mut done = 0;
            while done < JOBS {
                let ev = events
                    .recv_timeout(Duration::from_secs(30))
                    .expect("lifecycle events keep coming");
                if ev.payload.get("container").and_then(Value::as_str) != Some(&label) {
                    continue;
                }
                let k = number(ev.payload.get("job").and_then(Value::as_str).unwrap());
                let on_disk = durable();
                match ev.kind.as_str() {
                    "job.done" => {
                        assert!(on_disk >= 3 * k, "job.done for j-{k} at {on_disk}");
                        done += 1;
                    }
                    _ => assert!(on_disk >= 3 * k - 2, "{} for j-{k}", ev.kind),
                }
            }
        });
        for k in 1..=JOBS {
            answered(k);
        }
    });
    assert_eq!(execs.load(Ordering::SeqCst), JOBS);
    let stats = store.journal_stats();
    assert_eq!(stats.records, 3 * JOBS);
    assert!(
        stats.syncs <= 2 * JOBS,
        "a reader can make a WAITING record wait for a sync of its own, no more: {}",
        stats.syncs
    );
    // Unread, an answered job waits for the one sync its DONE record takes,
    // which covers its WAITING and RUNNING records too.
    for k in JOBS + 1..=LAST {
        answered(k);
    }
    let syncs = store.journal_stats().syncs - stats.syncs;
    assert!(
        syncs <= JOBS + 2,
        "one sync per answered job, and the confirmer's: not {syncs} for {JOBS}"
    );
    drop(store);
    drop(e);

    // ---- The crash: the handler's batch for the last job never synced. ----
    let bytes = std::fs::read(&journal).unwrap();
    let line_starts: Vec<usize> = std::iter::once(0)
        .chain(
            bytes
                .iter()
                .enumerate()
                .filter(|(_, &b)| b == b'\n')
                .map(|(at, _)| at + 1),
        )
        .collect();
    // `line_starts` ends with the file length; the last three lines are the
    // last job's WAITING, RUNNING and DONE.
    let n = line_starts.len();
    for (what, cut) in [
        ("before WAITING", line_starts[n - 4]),
        ("after WAITING", line_starts[n - 3]),
        ("after RUNNING", line_starts[n - 2]),
    ] {
        let crashed = dir.join("crashed.jsonl");
        std::fs::write(&crashed, &bytes[..cut]).unwrap();
        let reruns = Arc::new(AtomicU64::new(0));
        let e2 = durable_container("gap-victim-2", &reruns, &gate);
        let report = e2.attach_job_journal(&crashed).unwrap();
        assert_eq!(report.replayed as u64, LAST - 1, "cut {what}");
        // Every job whose reply was sent is there, DONE.
        for k in 1..LAST {
            let rep = e2.representation("add", &format!("j-{k}"));
            assert_eq!(
                rep.map(|r| r.state),
                Some(JobState::Done),
                "cut {what}: j-{k}"
            );
        }
        if what == "before WAITING" {
            // The last job's reply never left: nothing of it comes back.
            assert_eq!(report.requeued, 0, "cut {what}");
            let server = mathcloud_everest::serve(e2.clone(), "127.0.0.1:0", None).unwrap();
            let url = format!("{}/services/add/jobs/j-{LAST}", server.base_url());
            let status = mathcloud_http::Client::new().get(&url).unwrap().status;
            assert_eq!(status.as_u16(), 404, "cut {what}");
            assert_eq!(reruns.load(Ordering::SeqCst), 0, "cut {what}");
            continue;
        }
        assert_eq!(report.requeued, 1, "cut {what}: the last job re-queues");
        let rep = e2
            .wait("add", &format!("j-{LAST}"), Duration::from_secs(10))
            .expect("the re-queued job finishes");
        assert_eq!(rep.state, JobState::Done);
        assert_eq!(
            rep.outputs.unwrap().get("sum").unwrap().as_i64(),
            Some(LAST as i64 + 1)
        );
        assert_eq!(
            reruns.load(Ordering::SeqCst),
            1,
            "cut {what}: exactly the job whose DONE was lost ran again"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
