//! End-to-end telemetry: request-id propagation from client through the
//! container to adapters and spans, `/metrics` exposition of the job
//! lifecycle, and `/health` consistency — all over live HTTP.

use std::time::Duration;

use mathcloud_client::ServiceClient;
use mathcloud_core::{Parameter, ServiceDescription};
use mathcloud_everest::adapter::NativeAdapter;
use mathcloud_everest::Everest;
use mathcloud_http::Client;
use mathcloud_json::{json, Schema, Value};
use mathcloud_telemetry::{trace, Recorder, REQUEST_ID_HEADER};

fn telemetry_container(name: &str, service: &str) -> Everest {
    let e = Everest::with_handlers(name, 2);
    e.deploy(
        ServiceDescription::new(service, "doubles an integer")
            .input(Parameter::new("n", Schema::integer()))
            .output(Parameter::new("d", Schema::integer())),
        NativeAdapter::from_fn(|inputs, _| {
            let n = inputs.get("n").and_then(Value::as_i64).unwrap_or(0);
            Ok([("d".to_string(), json!(n * 2))].into_iter().collect())
        }),
    );
    e
}

/// The client's X-MC-Request-Id is echoed on the submission response and
/// recorded on the job, and the id shows up in the container's span events.
#[test]
fn request_id_round_trips_to_spans() {
    let e = telemetry_container("tel-rid", "double");
    let server = mathcloud_everest::serve(e, "127.0.0.1:0", None).expect("bind");
    let base = server.base_url();

    let rid = "itest-rid-00000001";
    let svc = ServiceClient::connect(&format!("{base}/services/double")).unwrap();
    let job = svc.submit_with_request_id(&json!({"n": 21}), rid).unwrap();
    assert_eq!(job.request_id(), rid, "server must echo the client's id");
    let rep = job.wait(Duration::from_secs(10)).unwrap();
    assert_eq!(rep.outputs.unwrap().get("d").unwrap().as_i64(), Some(42));

    // The job ran under the same id server-side: both the submission event
    // and the completed job.run span carry it in the global recorder.
    let events = Recorder::global().events_for(rid);
    assert!(
        events.iter().any(|ev| ev.name == "job.submitted"),
        "no job.submitted event for {rid}: {events:?}"
    );
    assert!(
        events
            .iter()
            .any(|ev| ev.name == "job.run" && ev.duration.is_some()),
        "no completed job.run span for {rid}: {events:?}"
    );

    // A raw HTTP request without an id gets one minted at the server edge.
    let resp = Client::new()
        .get(&format!("{base}/services/double"))
        .unwrap();
    let minted = resp.headers.get(REQUEST_ID_HEADER).expect("minted id");
    assert!(trace::is_valid_request_id(minted));
    assert_ne!(minted, rid);
}

/// `/metrics` exposes the job lifecycle: submissions, state transitions and
/// per-route HTTP counters all increment for a served job.
#[test]
fn metrics_expose_job_lifecycle() {
    let e = telemetry_container("tel-metrics", "double-m");
    let label = e.metrics_label().to_string();
    let server = mathcloud_everest::serve(e, "127.0.0.1:0", None).expect("bind");
    let base = server.base_url();

    let svc = ServiceClient::connect(&format!("{base}/services/double-m")).unwrap();
    for n in 0..3 {
        let rep = svc.call(&json!({"n": n}), Duration::from_secs(10)).unwrap();
        assert!(rep.outputs.is_some());
    }

    let resp = Client::new().get(&format!("{base}/metrics")).unwrap();
    assert_eq!(resp.status.as_u16(), 200);
    assert!(resp
        .headers
        .get("content-type")
        .is_some_and(|ct| ct.starts_with("text/plain")));
    let body = resp.body_string();

    let find = |line_start: &str| -> f64 {
        body.lines()
            .find(|l| l.starts_with(line_start))
            .unwrap_or_else(|| panic!("missing metric {line_start:?} in:\n{body}"))
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };

    let submitted = find(&format!(
        "mc_jobs_submitted_total{{container=\"{label}\",service=\"double-m\"}}"
    ));
    assert!(submitted >= 3.0, "submitted={submitted}");
    let to_running = find(&format!(
        "mc_job_transitions_total{{container=\"{label}\",from=\"WAITING\",to=\"RUNNING\"}}"
    ));
    assert!(to_running >= 3.0, "to_running={to_running}");
    let to_done = find(&format!(
        "mc_job_transitions_total{{container=\"{label}\",from=\"RUNNING\",to=\"DONE\"}}"
    ));
    assert!(to_done >= 3.0, "to_done={to_done}");

    // Latency histograms carry the same traffic: the POST route's count is
    // at least the number of submissions.
    assert!(
        body.contains("mc_http_request_seconds_count{method=\"POST\",route=\"/services/{name}\"}"),
        "missing POST latency histogram in:\n{body}"
    );
    assert!(
        body.contains("mc_job_run_seconds_bucket"),
        "missing per-adapter run-time histogram in:\n{body}"
    );
    // HTTP counters label by route template, not raw path.
    assert!(
        body.contains("route=\"/services/{name}\""),
        "raw paths leaked into labels:\n{body}"
    );
}

/// `GET /trace?request_id=…` reads the matching spans from the in-process
/// recorder as JSON: the first fetch returns the request's events, a second
/// fetch returns the same events, and other requests' events are there too.
#[test]
fn trace_endpoint_reads_spans_per_request() {
    let e = telemetry_container("tel-trace", "double-t");
    let server = mathcloud_everest::serve(e, "127.0.0.1:0", None).expect("bind");
    let base = server.base_url();

    let rid = "itest-trace-0000001";
    let other = "itest-trace-0000002";
    for id in [rid, other] {
        let svc = ServiceClient::connect(&format!("{base}/services/double-t")).unwrap();
        let job = svc.submit_with_request_id(&json!({"n": 3}), id).unwrap();
        job.wait(Duration::from_secs(10)).unwrap();
    }

    let client = Client::new();
    let fetch = |id: &str| -> Value {
        let resp = client
            .get(&format!("{base}/trace?request_id={id}"))
            .unwrap();
        assert_eq!(resp.status.as_u16(), 200);
        resp.body_json().unwrap()
    };

    let doc = fetch(rid);
    assert_eq!(doc["request_id"].as_str(), Some(rid));
    let events = doc["events"].as_array().expect("events array");
    let names: Vec<&str> = events.iter().filter_map(|ev| ev["name"].as_str()).collect();
    assert!(
        names.contains(&"job.submitted"),
        "missing submit: {names:?}"
    );
    assert!(names.contains(&"job.run"), "missing run span: {names:?}");
    // Completed spans carry their duration and structured fields.
    let run = events
        .iter()
        .find(|ev| ev["name"].as_str() == Some("job.run"))
        .unwrap();
    assert!(run["duration_seconds"].as_f64().is_some());
    assert!(run["ts_seconds"].as_f64().is_some());
    assert_eq!(run["fields"]["service"].as_str(), Some("double-t"));

    // Reading leaves the ring as it was: a second reader sees the same
    // events…
    let first = doc["events"].clone();
    assert_eq!(
        fetch(rid)["events"],
        first,
        "second fetch must match the first"
    );
    // …and the other request's events are there as well.
    let doc = fetch(other);
    assert!(
        doc["events"].as_array().is_some_and(|evs| !evs.is_empty()),
        "unrelated request's events must be served: {doc:?}"
    );

    // Malformed queries are rejected.
    let resp = client.get(&format!("{base}/trace")).unwrap();
    assert_eq!(resp.status.as_u16(), 400);
    let resp = client
        .get(&format!("{base}/trace?request_id=bad%20id"))
        .unwrap();
    assert_eq!(resp.status.as_u16(), 400);
}

/// `/health` reports job-state totals consistent with the traffic served.
#[test]
fn health_reports_consistent_totals() {
    let e = telemetry_container("tel-health", "double-h");
    let server = mathcloud_everest::serve(e, "127.0.0.1:0", None).expect("bind");
    let base = server.base_url();

    let svc = ServiceClient::connect(&format!("{base}/services/double-h")).unwrap();
    for n in 0..2 {
        svc.call(&json!({"n": n}), Duration::from_secs(10)).unwrap();
    }

    let resp = Client::new().get(&format!("{base}/health")).unwrap();
    assert_eq!(resp.status.as_u16(), 200);
    let doc = resp.body_json().unwrap();
    assert_eq!(doc["status"].as_str(), Some("ok"));
    assert_eq!(doc["container"].as_str(), Some("tel-health"));
    assert!(doc["uptime_seconds"].as_f64().is_some());

    let jobs = &doc["jobs"];
    let done = jobs["done"].as_i64().unwrap();
    let failed = jobs["failed"].as_i64().unwrap();
    let waiting = jobs["waiting"].as_i64().unwrap();
    let running = jobs["running"].as_i64().unwrap();
    let cancelled = jobs["cancelled"].as_i64().unwrap();
    assert_eq!(done, 2);
    assert_eq!(failed + waiting + running + cancelled, 0);

    // Totals agree with per-state counts for a quiesced container.
    let totals = &doc["totals"];
    assert_eq!(totals["submitted"].as_i64(), Some(2));
    assert_eq!(totals["completed"].as_i64(), Some(2));

    let pool = &doc["pool"];
    assert_eq!(pool["workers"].as_i64(), Some(2));
    assert_eq!(pool["queue_depth"].as_i64(), Some(0));
    assert!(pool["saturation"].as_f64().is_some());
}
