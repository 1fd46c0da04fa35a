//! End-to-end tests of the push pipeline: the `mathcloud-events` bus served
//! as `GET /events` SSE streams, `Last-Event-ID` resume from both the
//! in-memory ring and the journal, lag shedding under slow subscribers, the
//! push-first client wait, and the breaker/availability event sources.
//!
//! The bus, like the metrics registry, is process-wide — every test here
//! shares it with its siblings, so each uses a unique kind prefix (bus ids
//! from concurrent tests interleave; the captured publish ids, not
//! consecutive ranges, are what resumed streams are checked against).

use std::net::TcpListener;
use std::time::{Duration, Instant};

use mathcloud_catalogue::{router, Catalogue, ScrapeConfig};
use mathcloud_client::ServiceClient;
use mathcloud_core::{Parameter, ServiceDescription};
use mathcloud_events::KindFilter;
use mathcloud_everest::adapter::NativeAdapter;
use mathcloud_everest::Everest;
use mathcloud_http::sse::{self, SseItem};
use mathcloud_http::transport::BreakerRegistry;
use mathcloud_http::{BreakerConfig, Client, Url};
use mathcloud_json::{json, Schema, Value};

const STREAM_TIMEOUT: Duration = Duration::from_secs(10);
const CONNECT: Duration = Duration::from_secs(5);

/// Successful `GET`s recorded so far on the job-status route by the
/// process-wide registry — the server-side request volume a polling client
/// generates. Take a reading before and after a scenario and divide the
/// delta by completed jobs to get requests-per-job, the poll-vs-push
/// comparison asserted on below.
fn job_status_requests() -> u64 {
    mathcloud_telemetry::metrics::global()
        .counter_value(
            "mc_http_requests_total",
            &[
                ("route", "/services/{name}/jobs/{id}"),
                ("method", "GET"),
                ("status", "200"),
            ],
        )
        .unwrap_or(0)
}

/// A port that refuses connections: bind, record, drop.
fn dead_port() -> u16 {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.local_addr().unwrap().port()
}

/// Reads the stream until an event satisfying `pred` arrives.
fn next_event_where(
    stream: &mut sse::EventStream,
    deadline: Instant,
    mut pred: impl FnMut(&sse::SseEvent) -> bool,
) -> sse::SseEvent {
    while Instant::now() < deadline {
        match stream.next() {
            Ok(SseItem::Event(ev)) if pred(&ev) => return ev,
            Ok(SseItem::Event(_) | SseItem::Heartbeat) => {}
            Ok(SseItem::Closed) => panic!("stream closed while waiting for an event"),
            Err(e) => panic!("stream error while waiting for an event: {e}"),
        }
    }
    panic!("no matching event within {STREAM_TIMEOUT:?}");
}

#[test]
fn sse_stream_resumes_with_last_event_id_from_the_ring() {
    let server = mathcloud_everest::serve(Everest::new("sse-ring"), "127.0.0.1:0", None).unwrap();
    let base: Url = server.base_url().parse().unwrap();
    let bus = mathcloud_events::global();

    let mut ids: Vec<u64> = (0..3)
        .map(|n| bus.publish("itring.tick", None, json!({ "n": (n as i64) })))
        .collect();

    // Events published before the subscription need an explicit resume
    // point; everything after `ids[0] - 1` replays from the ring.
    let mut stream =
        sse::subscribe(&base, "itring.", Some(ids[0] - 1), CONNECT, STREAM_TIMEOUT).unwrap();
    let deadline = Instant::now() + STREAM_TIMEOUT;
    for want in &ids[..2] {
        let got = next_event_where(&mut stream, deadline, |e| e.kind.starts_with("itring."));
        assert_eq!(got.id, Some(*want));
    }

    // Simulate a dropped connection after the second event, publish more
    // while disconnected, then resume with the standard Last-Event-ID
    // contract: everything newer arrives exactly once, nothing replays.
    let last_seen = stream.last_id.expect("ids were delivered");
    assert_eq!(last_seen, ids[1]);
    drop(stream);
    for n in 3..5 {
        ids.push(bus.publish("itring.tick", None, json!({ "n": (n as i64) })));
    }

    let mut resumed =
        sse::subscribe(&base, "itring.", Some(last_seen), CONNECT, STREAM_TIMEOUT).unwrap();
    let deadline = Instant::now() + STREAM_TIMEOUT;
    for want in &ids[2..] {
        let got = next_event_where(&mut resumed, deadline, |e| e.kind.starts_with("itring."));
        assert_eq!(
            got.id,
            Some(*want),
            "resume must be gapless and duplicate-free"
        );
    }
}

#[test]
fn resume_is_served_from_the_journal_after_ring_eviction() {
    let dir = std::env::temp_dir().join(format!(
        "mc-sse-journal-{}-{}",
        std::process::id(),
        mathcloud_telemetry::next_request_id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let bus = mathcloud_events::global();
    bus.attach_journal(&dir.join("events.log")).unwrap();

    let marks: Vec<u64> = (0..4)
        .map(|n| bus.publish("itjournal.mark", None, json!({ "n": (n as i64) })))
        .collect();
    // Flood the ring far past its capacity: the marks are now only on disk.
    for _ in 0..(mathcloud_events::DEFAULT_RING + 64) {
        bus.publish("itjfill.noise", None, json!({}));
    }

    let server =
        mathcloud_everest::serve(Everest::new("sse-journal"), "127.0.0.1:0", None).unwrap();
    let base: Url = server.base_url().parse().unwrap();
    let mut stream = sse::subscribe(
        &base,
        "itjournal.",
        Some(marks[0] - 1),
        CONNECT,
        STREAM_TIMEOUT,
    )
    .unwrap();
    let deadline = Instant::now() + STREAM_TIMEOUT;
    for (i, want) in marks.iter().enumerate() {
        let got = next_event_where(&mut stream, deadline, |e| e.kind.starts_with("itjournal."));
        assert_eq!(got.id, Some(*want), "mark {i} must replay from the journal");
    }

    // After the journal backlog the stream is live: a fresh event follows.
    let live = bus.publish("itjournal.live", None, json!({}));
    let got = next_event_where(&mut stream, deadline, |e| e.kind.starts_with("itjournal."));
    assert_eq!(got.id, Some(live));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn push_call_observes_the_lifecycle_with_a_single_status_request() {
    let e = Everest::new("sse-life");
    e.deploy(
        ServiceDescription::new("pulse", "naps, then echoes its input")
            .input(Parameter::new("x", Schema::integer()))
            .output(Parameter::new("x", Schema::integer())),
        NativeAdapter::from_fn(|inputs, _| {
            // Outlast the container's 100 ms synchronous-completion window
            // so the wait actually happens over the event stream.
            std::thread::sleep(Duration::from_millis(250));
            let x = inputs.get("x").and_then(Value::as_i64).unwrap_or(0);
            Ok([("x".to_string(), json!(x))].into_iter().collect())
        }),
    );
    let server = mathcloud_everest::serve(e, "127.0.0.1:0", None).unwrap();
    let base: Url = server.base_url().parse().unwrap();

    // An independent observer, subscribed before the job exists.
    let mut stream = sse::subscribe(&base, "job.", None, CONNECT, STREAM_TIMEOUT).unwrap();

    let svc = ServiceClient::connect(&format!("{}/services/pulse", server.base_url())).unwrap();
    let before = job_status_requests();
    let rep = svc.call(&json!({"x": 7}), Duration::from_secs(30)).unwrap();
    let status_requests = job_status_requests() - before;
    assert_eq!(rep.outputs.expect("outputs").get("x"), Some(&json!(7)));
    assert_eq!(
        status_requests, 1,
        "a push wait needs exactly one status request — the final outputs fetch"
    );

    // The observer saw every transition of this job, in order, by push.
    let job = rep.id.as_str().to_string();
    let deadline = Instant::now() + STREAM_TIMEOUT;
    let mut seen: Vec<String> = Vec::new();
    while seen.last().map(String::as_str) != Some("job.done") {
        let ev = next_event_where(&mut stream, deadline, |e| e.kind.starts_with("job."));
        let env = ev.envelope().expect("well-formed envelope");
        if env.payload.get("service").and_then(Value::as_str) == Some("pulse")
            && env.payload.get("job").and_then(Value::as_str) == Some(job.as_str())
        {
            seen.push(env.kind);
        }
    }
    assert_eq!(seen, ["job.submitted", "job.running", "job.done"]);
}

#[test]
fn lagging_subscribers_shed_oldest_events_and_bump_the_lag_metric() {
    let bus = mathcloud_events::global();
    let before = mathcloud_telemetry::metrics::global()
        .counter_value("mc_events_lag_total", &[])
        .unwrap_or(0);

    let sub = bus.subscribe(KindFilter::parse("itlag."), 4);
    let ids: Vec<u64> = (0..12)
        .map(|n| bus.publish("itlag.burst", None, json!({ "n": (n as i64) })))
        .collect();

    assert_eq!(sub.lagged(), 8, "8 of 12 events exceed the queue capacity");
    let first = sub
        .recv_timeout(Duration::from_secs(1))
        .expect("queued event");
    assert_eq!(
        first.id, ids[8],
        "the oldest events are shed, the newest kept"
    );

    let after = mathcloud_telemetry::metrics::global()
        .counter_value("mc_events_lag_total", &[])
        .unwrap_or(0);
    assert!(
        after - before >= 8,
        "mc_events_lag_total must count the shed events ({before} -> {after})"
    );
}

#[test]
fn breaker_trips_and_availability_flips_publish_events_and_health_all_lists_states() {
    let bus = mathcloud_events::global();

    // Tripping a breaker publishes the transition.
    let breaker_sub = bus.subscribe(KindFilter::parse("breaker."), 64);
    let registry = BreakerRegistry::new(BreakerConfig {
        failure_threshold: 2,
        cooldown: Duration::from_secs(60),
    });
    let breaker = registry.breaker("itbreaker-authority:7");
    breaker.on_failure();
    breaker.on_failure();
    let deadline = Instant::now() + Duration::from_secs(5);
    let ev = loop {
        let ev = breaker_sub
            .recv_timeout(Duration::from_secs(1))
            .expect("breaker.state event");
        if ev.payload.get("authority").and_then(Value::as_str) == Some("itbreaker-authority:7") {
            break ev;
        }
        assert!(
            Instant::now() < deadline,
            "no event for the tripped breaker"
        );
    };
    assert_eq!(ev.kind, "breaker.state");
    assert_eq!(
        ev.payload.get("from").and_then(Value::as_str),
        Some("closed")
    );
    assert_eq!(
        ev.payload.get("state").and_then(Value::as_str),
        Some("open")
    );

    // An availability flip (up -> down) publishes too, and the probe's
    // breaker for the dead authority surfaces on GET /health/all.
    let avail_sub = bus.subscribe(KindFilter::parse("catalogue."), 64);
    let cat = Catalogue::with_scrape_config(ScrapeConfig {
        per_target_deadline: Duration::from_millis(300),
        max_workers: 2,
    });
    let dead = dead_port();
    let authority = format!("127.0.0.1:{dead}");
    cat.register(
        &format!("http://{authority}/services/ghost"),
        ServiceDescription::new("ghost", "gone"),
        &[],
    );
    let (up, down) = cat.ping_all();
    assert_eq!((up, down), (0, 1));
    let deadline = Instant::now() + Duration::from_secs(5);
    let ev = loop {
        let ev = avail_sub
            .recv_timeout(Duration::from_secs(1))
            .expect("catalogue.availability event");
        if ev.payload.get("service").and_then(Value::as_str) == Some("ghost") {
            break ev;
        }
        assert!(Instant::now() < deadline, "no availability event for ghost");
    };
    assert_eq!(ev.kind, "catalogue.availability");
    assert_eq!(ev.payload.get("available"), Some(&Value::Bool(false)));

    let server = mathcloud_http::Server::bind("127.0.0.1:0", router(cat)).unwrap();
    let resp = Client::new()
        .get(&format!("{}/health/all", server.base_url()))
        .unwrap();
    let body = resp.body_json().unwrap();
    let breakers = body.get("breakers").expect("health/all carries breakers");
    assert_eq!(
        breakers.get(&authority).and_then(Value::as_str),
        Some("closed"),
        "one failed probe must not trip the default breaker: {body}"
    );
}

/// Group commit on the bus: publishers write their journal records under the
/// bus lock and sync with it released, so eight of them share syncs instead
/// of queueing — and a subscriber must not be able to tell. Ids arrive
/// gapless and strictly increasing, never ahead of the sync that covers
/// them, and the journal holds them in id order.
#[test]
fn concurrent_journaled_publishers_deliver_in_id_order_after_the_covering_sync() {
    use mathcloud_events::Bus;

    const PUBLISHERS: usize = 8;
    const EACH: usize = 250;
    const TOTAL: u64 = (PUBLISHERS * EACH) as u64;
    let dir = std::env::temp_dir().join(format!(
        "mc-bus-group-commit-{}-{}",
        std::process::id(),
        mathcloud_telemetry::next_request_id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("events.log");
    // A bus of its own: ids start at 1 and equal journal positions.
    let bus = Bus::with_ring(64);
    bus.attach_journal(&journal).unwrap();
    let sub = bus.subscribe(KindFilter::parse("itgc."), PUBLISHERS * EACH);

    let seen = std::thread::scope(|scope| {
        let consumer = scope.spawn(|| {
            let mut seen: Vec<(u64, i64, i64)> = Vec::new();
            while (seen.len() as u64) < TOTAL {
                let ev = sub
                    .recv_timeout(STREAM_TIMEOUT)
                    .expect("every published event is delivered");
                let durable = bus.journal_stats().expect("journal attached").durable;
                assert!(
                    durable >= ev.id,
                    "event {} was delivered with only {durable} records on disk",
                    ev.id
                );
                let field = |name: &str| ev.payload.get(name).and_then(Value::as_i64).unwrap();
                seen.push((ev.id, field("t"), field("i")));
            }
            seen
        });
        for t in 0..PUBLISHERS {
            let bus = &bus;
            scope.spawn(move || {
                let mut last = 0;
                for i in 0..EACH {
                    let payload = json!({"t": (t as i64), "i": (i as i64)});
                    let id = bus.publish("itgc.tick", Some("rid"), payload);
                    assert!(id > last, "a publisher's own ids increase");
                    last = id;
                    let durable = bus.journal_stats().expect("journal attached").durable;
                    assert!(durable >= id, "publish returned before its sync");
                }
            });
        }
        consumer.join().expect("consumer panicked")
    });

    let ids: Vec<u64> = seen.iter().map(|(id, _, _)| *id).collect();
    assert_eq!(
        ids,
        (1..=TOTAL).collect::<Vec<u64>>(),
        "gapless, strictly increasing"
    );
    for t in 0..PUBLISHERS as i64 {
        let mine: Vec<i64> = seen
            .iter()
            .filter(|(_, thread, _)| *thread == t)
            .map(|(_, _, i)| *i)
            .collect();
        assert_eq!(
            mine,
            (0..EACH as i64).collect::<Vec<i64>>(),
            "publisher {t}"
        );
    }
    assert_eq!(sub.lagged(), 0);
    let on_disk: Vec<u64> = mathcloud_events::read_journal(&journal)
        .unwrap()
        .iter()
        .map(|e| e.id)
        .collect();
    assert_eq!(on_disk, ids, "journal order equals id order");
    let stats = bus.journal_stats().unwrap();
    assert_eq!((stats.records, stats.durable), (TOTAL, TOTAL));
    assert!(stats.syncs <= TOTAL, "never more than one sync per event");

    // A batch is one sync however long it is, and resume still works.
    let batch: Vec<(&str, Option<&str>, Value)> = (0..100)
        .map(|n| ("itgc.batch", None, json!({ "n": (n as i64) })))
        .collect();
    let last = bus.publish_batch(batch);
    assert_eq!(last, TOTAL + 100);
    let after = bus.journal_stats().unwrap();
    assert_eq!(after.syncs, stats.syncs + 1, "one sync for the whole batch");
    assert_eq!(after.durable, TOTAL + 100);
    let (backlog, _late) = bus.subscribe_from(Some(TOTAL - 2), KindFilter::parse("itgc."), 8);
    assert_eq!(
        backlog.iter().map(|e| e.id).collect::<Vec<u64>>(),
        (TOTAL - 1..=TOTAL + 100).collect::<Vec<u64>>(),
        "journal then ring, no gap and no duplicate"
    );
    std::fs::remove_dir_all(&dir).ok();
}
