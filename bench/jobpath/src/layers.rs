//! The staged replay: the workload's own requests pushed through each
//! layer's public functions in isolation, each call under a span.
//!
//! This is the surface later refactors must keep or re-benchmark against;
//! `bench/README.md` lists it. Everything is called from outside, on the
//! bytes the workload generated — no span lives inside the program yet.

use std::collections::HashSet;
use std::path::Path;
use std::time::{Duration, Instant};

use mathcloud_events::{Bus, KindFilter};
use mathcloud_everest::jobstore::{TransitionDetail, TransitionState};
use mathcloud_everest::{memo, Everest, FileStore, JobStore, DEFAULT_COMPACT_EVERY};
use mathcloud_http::wire::{self, Limits};
use mathcloud_http::{Method, Request, Response};
use mathcloud_json::{json, Value};
use mathcloud_telemetry::metrics;

use crate::gen::{Action, Op};
use crate::services::{self, REVERSE};
use crate::stats;
use crate::trace::{self, Span, Tracer};

/// Requests replayed through each layer.
const SAMPLES: usize = 500;
/// The replay stops early once the request-path stages have used this
/// much: the compute workload's jobs take 150 ms each.
const PATH_BUDGET: Duration = Duration::from_secs(3);

const WAIT: Duration = Duration::from_secs(30);

/// Per-layer metrics (name, value) and the spans behind them.
pub struct Replay {
    pub metrics: Vec<(&'static str, f64)>,
    pub spans: Vec<Span>,
}

fn p50_us(spans: &[Span], name: &str) -> f64 {
    stats::median_of(trace::durations_us(spans, name))
}

/// A container like the measured one, without a server in front.
fn container(journal: Option<&Path>) -> Result<Everest, String> {
    let e = Everest::with_handlers("jobpath-replay", services::HANDLERS);
    services::deploy(&e);
    e.set_result_memoization(true);
    if let Some(path) = journal {
        e.attach_job_journal(path)
            .map_err(|e| format!("replay journal: {e}"))?;
    }
    Ok(e)
}

/// Submit and wait to DONE, in process. Returns the terminal document.
fn job_inproc(
    e: &Everest,
    service: &str,
    body: &Value,
    tracer: &mut Tracer,
    parent: u32,
    names: Option<(&'static str, &'static str)>,
) -> Result<Value, String> {
    let t = Instant::now();
    let stage = tracer.alloc();
    let outcome = e
        .submit_full(service, body, None, None, None)
        .map_err(|r| format!("replay submit: {r}"))?;
    if let Some((_, submit_name)) = names {
        tracer.leaf(stage, parent, submit_name, t);
    }
    let rep = e
        .wait(service, outcome.rep.id.as_str(), WAIT)
        .ok_or("replay job did not settle")?;
    if let Some((job_name, _)) = names {
        tracer.close(stage, parent, parent, job_name, t, Instant::now());
    }
    Ok(rep.to_value())
}

/// Runs the staged replay over `ops` (the workload's timed stream).
/// `dir` is scratch space for the probes' own journals; `final_journal` is
/// the job journal the measured run left.
pub fn replay(
    ops: &[Op],
    dir: &Path,
    final_journal: &Path,
    epoch: Instant,
) -> Result<Replay, String> {
    let mut tracer = Tracer::new(true, epoch);
    let mut metrics_out: Vec<(&'static str, f64)> = Vec::new();

    let sample: Vec<(&Op, &str)> = ops
        .iter()
        .filter_map(|op| match &op.action {
            Action::Submit { body, .. } => Some((op, &**body)),
            Action::Fetch { .. } => None,
        })
        .take(SAMPLES)
        .collect();
    let journaled = container(Some(&dir.join("replay-jobs.jsonl")))?;
    let bare = container(None)?;
    let mut primed: HashSet<&str> = HashSet::new();
    // Outputs of the replayed jobs: what the store probes below write.
    let mut results: Vec<(&Op, Value, Value)> = Vec::new();

    let path_started = Instant::now();
    for (op, body) in &sample {
        if results.len() >= 3 && path_started.elapsed() > PATH_BUDGET {
            break;
        }
        let service = op.service;
        let mut request = Request::new(Method::Post, &format!("/services/{service}"));
        request.headers.set("Content-Type", "application/json");
        request.body = body.as_bytes().to_vec();
        let mut bytes = Vec::new();
        wire::write_request(&mut bytes, &request, "127.0.0.1:0").map_err(|e| e.to_string())?;

        let root = tracer.alloc();
        let root_started = Instant::now();

        let t = Instant::now();
        let parsed_request = wire::read_request_limited(&mut &bytes[..], &Limits::default())
            .map_err(|e| format!("wire read: {e}"))?
            .ok_or("wire read: empty")?;
        tracer.leaf(root, root, "stage.http.wire_read", t);

        let text = std::str::from_utf8(&parsed_request.body).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let value = mathcloud_json::parse(text).map_err(|e| format!("json parse: {e}"))?;
        tracer.leaf(root, root, "stage.json.parse", t);

        let description = journaled
            .description(service)
            .ok_or("service not deployed")?;
        let t = Instant::now();
        let inputs = description
            .validate_inputs(&value)
            .map_err(|e| format!("validate: {e}"))?;
        tracer.leaf(root, root, "stage.core.validate", t);

        let t = Instant::now();
        let key = memo::memo_key(service, &inputs, &|_| None);
        tracer.leaf(root, root, "stage.memo.key", t);
        std::hint::black_box(key);

        // A submission the workload expects to hit must find its result in
        // the replay containers too.
        if op.expects_hit() && primed.insert(body) {
            job_inproc(&journaled, service, &value, &mut tracer, root, None)?;
            job_inproc(&bare, service, &value, &mut tracer, root, None)?;
        }
        let document = job_inproc(
            &journaled,
            service,
            &value,
            &mut tracer,
            root,
            Some(("stage.container.job_inproc", "stage.container.submit")),
        )?;
        job_inproc(
            &bare,
            service,
            &value,
            &mut tracer,
            root,
            Some((
                "stage.container.job_inproc_nojournal",
                "stage.container.submit_nojournal",
            )),
        )?;

        let t = Instant::now();
        let serialized = document.to_string();
        tracer.leaf(root, root, "stage.json.serialize", t);
        std::hint::black_box(serialized);

        let response = Response::json(201, &document);
        let mut wire_out = Vec::with_capacity(response.body.len() + 256);
        let t = Instant::now();
        wire::write_response(&mut wire_out, &response).map_err(|e| e.to_string())?;
        tracer.leaf(root, root, "stage.http.wire_write", t);

        tracer.close(root, 0, root, "replay", root_started, Instant::now());
        results.push((op, value, document));
    }

    // --- everest.jobstore: the three appends of one job, on a journal of
    // its own, then open and compaction of the journal the run left.
    let store = JobStore::open(&dir.join("probe-jobs.jsonl"), DEFAULT_COMPACT_EVERY)
        .map_err(|e| format!("probe journal: {e}"))?;
    let probe_root = tracer.alloc();
    let probes_started = Instant::now();
    for (i, (op, inputs, document)) in results.iter().enumerate() {
        let job = format!("j-{}", i + 1);
        let inputs = inputs.as_object();
        let outputs = document.get("outputs").and_then(Value::as_object);
        for (state, detail) in [
            (
                mathcloud_core::JobState::Waiting,
                TransitionDetail {
                    memo_key: Some(
                        "0000000000000000000000000000000000000000000000000000000000000000",
                    ),
                    request_id: Some("0123456789abcdef"),
                    inputs,
                    ..Default::default()
                },
            ),
            (
                mathcloud_core::JobState::Running,
                TransitionDetail::default(),
            ),
            (
                mathcloud_core::JobState::Done,
                TransitionDetail {
                    outputs,
                    runtime_ms: Some(0),
                    ..Default::default()
                },
            ),
        ] {
            let t = Instant::now();
            store.append(op.service, &job, TransitionState::Job(state), detail);
            tracer.leaf(probe_root, probe_root, "stage.jobstore.append", t);
        }
    }
    let copy = dir.join("probe-final.jsonl");
    std::fs::copy(final_journal, &copy).map_err(|e| format!("copy journal: {e}"))?;
    let t = Instant::now();
    let reopened =
        JobStore::open(&copy, DEFAULT_COMPACT_EVERY).map_err(|e| format!("reopen: {e}"))?;
    tracer.leaf(probe_root, probe_root, "stage.jobstore.open", t);
    let t = Instant::now();
    reopened.compact();
    tracer.leaf(probe_root, probe_root, "stage.jobstore.compact", t);

    // --- events: publish with a journal attached, and publish → receipt.
    let bus = Bus::with_ring(mathcloud_events::DEFAULT_RING);
    bus.attach_journal(&dir.join("probe-events.jsonl"))
        .map_err(|e| format!("probe events journal: {e}"))?;
    let sub = bus.subscribe(KindFilter::parse("job."), mathcloud_events::DEFAULT_QUEUE);
    for (i, (op, _, _)) in results.iter().enumerate() {
        let payload = json!({
            "container": "jobpath#0",
            "service": (op.service),
            "job": (format!("j-{}", i + 1)),
        });
        let t = Instant::now();
        let deliver = tracer.alloc();
        bus.publish("job.done", Some("0123456789abcdef"), payload);
        tracer.leaf(deliver, probe_root, "stage.events.publish", t);
        if sub.recv_timeout(Duration::from_secs(1)).is_none() {
            return Err("probe event was not delivered".to_string());
        }
        tracer.close(
            deliver,
            probe_root,
            probe_root,
            "stage.events.deliver",
            t,
            Instant::now(),
        );
    }

    // --- everest.filestore: the output file where the service writes one,
    // the serialized outputs elsewhere.
    let files = FileStore::new();
    for (i, (op, inputs, document)) in results.iter().enumerate() {
        let data: Vec<u8> = match inputs.str_field("data") {
            Some(data) if op.service == REVERSE => data.bytes().rev().collect(),
            _ => document.to_string().into_bytes(),
        };
        let job = format!("j-{}", i + 1);
        let t = Instant::now();
        let id = files.put(op.service, &job, data);
        tracer.leaf(probe_root, probe_root, "stage.filestore.put", t);
        let t = Instant::now();
        let back = files.get(op.service, &job, &id);
        tracer.leaf(probe_root, probe_root, "stage.filestore.get", t);
        std::hint::black_box(back);
    }

    // --- telemetry: the string-keyed registry lookup every increment
    // pays, on a series of the probe's own, and one exposition render.
    const INCREMENTS: u32 = 200_000;
    let label = journaled.metrics_label().to_string();
    let t = Instant::now();
    for _ in 0..INCREMENTS {
        metrics::global()
            .counter(
                "mc_jobpath_probe_total",
                &[("container", &label), ("service", "double")],
            )
            .inc();
    }
    let counter_ns = t.elapsed().as_nanos() as f64 / f64::from(INCREMENTS);
    tracer.leaf(probe_root, probe_root, "stage.telemetry.counters", t);
    for _ in 0..5 {
        let t = Instant::now();
        std::hint::black_box(metrics::global().render_prometheus());
        tracer.leaf(probe_root, probe_root, "stage.telemetry.render", t);
    }
    tracer.close(
        probe_root,
        0,
        probe_root,
        "probes",
        probes_started,
        Instant::now(),
    );

    let spans = tracer.into_spans();
    for (metric, span) in [
        ("http.wire_read_us_p50", "stage.http.wire_read"),
        ("http.wire_write_us_p50", "stage.http.wire_write"),
        ("json.parse_us_p50", "stage.json.parse"),
        ("json.serialize_us_p50", "stage.json.serialize"),
        ("core.validate_us_p50", "stage.core.validate"),
        ("memo.key_us_p50", "stage.memo.key"),
        ("container.submit_us_p50", "stage.container.submit"),
        ("container.job_inproc_us_p50", "stage.container.job_inproc"),
        (
            "container.job_inproc_nojournal_us_p50",
            "stage.container.job_inproc_nojournal",
        ),
        ("jobstore.append_us_p50", "stage.jobstore.append"),
        ("events.publish_us_p50", "stage.events.publish"),
        ("events.deliver_us_p50", "stage.events.deliver"),
        ("filestore.put_us_p50", "stage.filestore.put"),
        ("filestore.get_us_p50", "stage.filestore.get"),
    ] {
        metrics_out.push((metric, p50_us(&spans, span)));
    }
    let appends = stats::sorted(trace::durations_us(&spans, "stage.jobstore.append"));
    metrics_out.push(("jobstore.append_us_p99", stats::percentile(&appends, 99.0)));
    metrics_out.push((
        "jobstore.open_ms",
        p50_us(&spans, "stage.jobstore.open") / 1e3,
    ));
    metrics_out.push((
        "jobstore.compact_ms",
        p50_us(&spans, "stage.jobstore.compact") / 1e3,
    ));
    metrics_out.push(("telemetry.counter_ns", counter_ns));
    metrics_out.push((
        "telemetry.render_ms",
        p50_us(&spans, "stage.telemetry.render") / 1e3,
    ));
    Ok(Replay {
        metrics: metrics_out,
        spans,
    })
}
