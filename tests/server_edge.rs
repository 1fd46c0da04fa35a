//! Server-edge integration tests: SSE starvation, idle/read timeout split,
//! shutdown and drain under load, size caps, and connection shedding.
//!
//! These lock down the connection-core rebuild: streaming responses detach
//! to the elastic streamer set instead of pinning pool workers, shutdown
//! can never wedge behind a full handoff queue, dropping a server answers
//! every queued connection, and hostile inputs hit typed caps (`431`/`413`)
//! instead of unbounded reads.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mathcloud_bench::edge::{run_load, LoadOptions, SseHolders};
use mathcloud_http::{Client, Method, PathParams, Request, Response, Router, Server, ServerConfig};

/// A latch handlers can block on, so tests control exactly when requests
/// complete.
struct Gate {
    open: Mutex<bool>,
    arrived: AtomicUsize,
    changed: Condvar,
}

impl Gate {
    fn new() -> Arc<Gate> {
        Arc::new(Gate {
            open: Mutex::new(false),
            arrived: AtomicUsize::new(0),
            changed: Condvar::new(),
        })
    }

    /// Blocks the calling handler until [`Gate::release`].
    fn wait(&self) {
        self.arrived.fetch_add(1, Ordering::SeqCst);
        let mut open = self.open.lock().unwrap();
        while !*open {
            let (guard, _) = self
                .changed
                .wait_timeout(open, Duration::from_secs(10))
                .unwrap();
            open = guard;
        }
    }

    fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.changed.notify_all();
    }

    fn arrived(&self) -> usize {
        self.arrived.load(Ordering::SeqCst)
    }
}

fn gated_router(gate: &Arc<Gate>) -> Router {
    let mut router = Router::new();
    router.get("/ping", |_r, _p: &PathParams| Response::text(200, "pong"));
    let gate = Arc::clone(gate);
    router.get("/gated", move |_r, _p: &PathParams| {
        gate.wait();
        Response::text(200, "released")
    });
    router
}

/// The tentpole regression: `workers + 4` live SSE subscriptions must leave
/// every pool worker available — `/ping` keeps answering with zero errors.
/// Before the streamer set, `workers` subscribers pinned the whole pool and
/// this test never completed.
#[test]
fn sse_subscribers_do_not_starve_the_pool() {
    let workers = 4;
    let mut router = Router::new();
    router.get("/ping", |_r, _p: &PathParams| Response::text(200, "pong"));
    mathcloud_http::sse::mount_events(&mut router, mathcloud_events::global());
    let server = Server::bind_with_config(
        "127.0.0.1:0",
        router,
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let holders = SseHolders::start(&server.base_url(), workers + 4).expect("subscribe all");
    // A subscription has its headers before its stream has been handed to a
    // streamer thread: give the last hand-offs time to land.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.live_streamers() < workers + 4 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert!(
        server.live_streamers() >= workers + 4,
        "streams should occupy streamer threads, not pool workers"
    );
    let report = run_load(
        &server.base_url(),
        &LoadOptions {
            connections: workers * 2,
            requests_per_conn: 25,
            path: "/ping".to_string(),
        },
    );
    assert_eq!(report.errors, 0, "requests failed under SSE load");
    assert_eq!(report.requests, (workers * 2 * 25) as u64);

    // The streams are still live: a published event reaches subscribers.
    mathcloud_events::global().publish("edge.test", None, mathcloud_json::json!({"n": 1}));
    std::thread::sleep(Duration::from_millis(100));
    let events = holders.stop();
    assert!(events >= (workers + 4) as u64, "got {events} events");
}

/// The same property through the real container REST surface:
/// [`mathcloud_everest::rest::serve_with_config`] with a small pool keeps
/// answering `/health` while more subscribers than workers hold `/events`.
#[test]
fn container_survives_subscriber_overload() {
    let workers = 2;
    let server = mathcloud_everest::rest::serve_with_config(
        mathcloud_everest::Everest::new("edge-sse"),
        "127.0.0.1:0",
        None,
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let holders = SseHolders::start(&server.base_url(), workers + 4).expect("subscribe all");
    let client = Client::new();
    for _ in 0..10 {
        let resp = client
            .get(&format!("{}/health", server.base_url()))
            .expect("health under SSE load");
        assert_eq!(resp.status.as_u16(), 200);
    }
    holders.stop();
}

/// The idle/read timeout split: a quiet keep-alive connection is reclaimed
/// after the short idle timeout, while a request that is mid-flight at that
/// moment still completes under the longer read timeout.
#[test]
fn idle_keepalive_reclaimed_without_killing_inflight() {
    let gate = Gate::new();
    let server = Server::bind_with_config(
        "127.0.0.1:0",
        gated_router(&gate),
        ServerConfig {
            workers: 2,
            idle_timeout: Duration::from_millis(200),
            read_timeout: Duration::from_secs(10),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // In-flight request, held open well past the idle timeout.
    let inflight = {
        let base = server.base_url();
        std::thread::spawn(move || {
            let resp = Client::new().get(&format!("{base}/gated")).unwrap();
            assert_eq!(resp.body_string(), "released");
        })
    };
    while gate.arrived() == 0 {
        std::thread::sleep(Duration::from_millis(10));
    }

    // Idle connection: never sends a byte; must be closed near the idle
    // timeout, not the 10 s read timeout.
    let idle = TcpStream::connect(server.local_addr()).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let started = Instant::now();
    let n = (&idle).read(&mut [0u8; 1]).unwrap_or(0);
    assert_eq!(n, 0, "idle connection should be closed by the server");
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "idle reclaim took {:?}",
        started.elapsed()
    );

    // The in-flight request outlived the idle reclaim.
    gate.release();
    inflight.join().unwrap();
}

/// Regression for the shutdown hang: with the handoff queue full and the
/// acceptor blocked trying to enqueue one more connection,
/// [`Server::shutdown`] must still return promptly.
#[test]
fn shutdown_unblocks_full_handoff_queue() {
    let gate = Gate::new();
    let server = Server::bind_with_config(
        "127.0.0.1:0",
        gated_router(&gate),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // 1 in the worker + 4 queue slots + 2 more to wedge the old acceptor.
    let clients: Vec<_> = (0..7)
        .map(|_| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET /gated HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n")
                .unwrap();
            s
        })
        .collect();
    while gate.arrived() == 0 {
        std::thread::sleep(Duration::from_millis(10));
    }
    // Give the acceptor time to fill the queue and block on the overflow.
    std::thread::sleep(Duration::from_millis(200));

    let started = Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "shutdown blocked for {:?} behind a full queue",
        started.elapsed()
    );
    gate.release();
    drop(server);
    drop(clients);
}

/// Regression for lost responses on drop: every connection the acceptor
/// queued must still be answered during the graceful drain.
#[test]
fn drop_serves_queued_connections() {
    let gate = Gate::new();
    let server = Server::bind_with_config(
        "127.0.0.1:0",
        gated_router(&gate),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let base = server.base_url();

    // 1 active + 4 queued: exactly fills the worker and the handoff queue.
    let clients: Vec<_> = (0..5)
        .map(|_| {
            let base = base.clone();
            std::thread::spawn(move || {
                Client::new()
                    .get(&format!("{base}/gated"))
                    .map(|r| r.status.as_u16())
            })
        })
        .collect();
    while gate.arrived() == 0 {
        std::thread::sleep(Duration::from_millis(10));
    }
    // Wait until all five connections are tracked (active or queued).
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.active_connections() < 5 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.active_connections(), 5, "connections not enqueued");

    // Release the gate just after drop starts draining.
    let releaser = {
        let gate = Arc::clone(&gate);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            gate.release();
        })
    };
    drop(server); // graceful drain: queued connections must all be served
    releaser.join().unwrap();
    for c in clients {
        let status = c.join().unwrap().expect("queued request lost its response");
        assert_eq!(status, 200, "queued request answered with an error");
    }
}

/// Oversized header sections get `431`, oversized bodies `413`, and
/// at-the-cap requests still pass.
#[test]
fn size_caps_are_enforced_with_typed_statuses() {
    let mut router = Router::new();
    router.post("/echo", |r: &Request, _p: &PathParams| {
        Response::bytes(200, "application/octet-stream", r.body.clone())
    });
    let server = Server::bind_with_config(
        "127.0.0.1:0",
        router,
        ServerConfig {
            workers: 2,
            max_header_bytes: 1024,
            max_body_bytes: 2048,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let url: mathcloud_http::Url = format!("{}/echo", server.base_url()).parse().unwrap();
    let client = Client::new();

    // Body at the cap: accepted and echoed.
    let mut req = Request::new(Method::Post, "/echo");
    req.body = vec![7u8; 2048];
    let resp = client.send(&url, req).unwrap();
    assert_eq!(resp.status.as_u16(), 200);
    assert_eq!(resp.body.len(), 2048);

    // One byte past the cap: 413.
    let mut req = Request::new(Method::Post, "/echo");
    req.body = vec![7u8; 2049];
    let resp = client.send(&url, req).unwrap();
    assert_eq!(resp.status.as_u16(), 413);

    // Oversized header section: 431.
    let req = Request::new(Method::Post, "/echo").with_header("X-Big", &"h".repeat(4096));
    let resp = client.send(&url, req).unwrap();
    assert_eq!(resp.status.as_u16(), 431);
}

/// Past the connection cap the acceptor sheds with `503` and a
/// `Retry-After` hint instead of queueing unboundedly.
#[test]
fn connection_cap_sheds_with_retry_after() {
    let gate = Gate::new();
    let server = Server::bind_with_config(
        "127.0.0.1:0",
        gated_router(&gate),
        ServerConfig {
            workers: 1,
            max_connections: 2,
            retry_after_secs: 7,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Two gated connections occupy the entire cap.
    let held: Vec<_> = (0..2)
        .map(|_| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET /gated HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n")
                .unwrap();
            s
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.active_connections() < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.active_connections(), 2);

    // The third connection is shed immediately.
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut raw = String::new();
    let _ = s.read_to_string(&mut raw);
    assert!(raw.starts_with("HTTP/1.1 503"), "{raw}");
    assert!(raw.contains("Retry-After: 7"), "{raw}");

    gate.release();
    drop(held);
}
