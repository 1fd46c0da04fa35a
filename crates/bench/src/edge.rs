//! Closed-loop RPS/latency load harness for the server edge.
//!
//! Drives a [`mathcloud_http::Server`] with `connections` concurrent
//! keep-alive clients, each issuing a fixed number of requests and timing
//! every exchange, optionally while `sse_subscribers` long-lived
//! `GET /events` streams are held open. The point of the pairing: before
//! the streamer set existed, each subscriber pinned a pool worker forever,
//! so `workers` subscribers starved the pool and plain requests stopped
//! being answered at all. The `server_edge` integration tests drive it for
//! the starvation regression.
//!
//! Latencies are reported as p50/p99 over every successful exchange;
//! errors (connect failures, broken exchanges) are counted, never hidden —
//! `server_edge` fails on any.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mathcloud_http::sse::{self, EventStream, SseItem};
use mathcloud_http::{Client, Method, Request, Url};

/// One load scenario: how many clients, how hard, against which path.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Concurrent keep-alive connections.
    pub connections: usize,
    /// Requests each connection issues before closing.
    pub requests_per_conn: usize,
    /// Request path (e.g. `/ping`).
    pub path: String,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            connections: 16,
            requests_per_conn: 50,
            path: "/ping".to_string(),
        }
    }
}

/// What one [`run_load`] measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Concurrent connections driven.
    pub connections: usize,
    /// Successful exchanges.
    pub requests: u64,
    /// Failed connects or exchanges.
    pub errors: u64,
    /// Wall-clock for the whole scenario.
    pub elapsed: Duration,
    /// Successful requests per second.
    pub rps: f64,
    /// Median latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
}

/// Nearest-rank percentile over an unsorted sample, `p` in `[0, 100]`.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Runs one closed-loop scenario against `base` (e.g.
/// `http://127.0.0.1:8080`) and aggregates latencies across all
/// connections.
pub fn run_load(base: &str, opts: &LoadOptions) -> LoadReport {
    let started = Instant::now();
    let workers: Vec<JoinHandle<(Vec<f64>, u64)>> = (0..opts.connections)
        .map(|_| {
            let base = base.to_string();
            let path = opts.path.clone();
            let requests = opts.requests_per_conn;
            std::thread::spawn(move || drive_connection(&base, &path, requests))
        })
        .collect();
    let mut latencies = Vec::with_capacity(opts.connections * opts.requests_per_conn);
    let mut errors = 0u64;
    for w in workers {
        match w.join() {
            Ok((lats, errs)) => {
                latencies.extend(lats);
                errors += errs;
            }
            Err(_) => errors += opts.requests_per_conn as u64,
        }
    }
    let elapsed = started.elapsed();
    let requests = latencies.len() as u64;
    let rps = requests as f64 / elapsed.as_secs_f64().max(1e-9);
    let p50_ms = percentile(&mut latencies, 50.0);
    let p99_ms = percentile(&mut latencies, 99.0);
    LoadReport {
        connections: opts.connections,
        requests,
        errors,
        elapsed,
        rps,
        p50_ms,
        p99_ms,
    }
}

/// One closed-loop keep-alive connection: returns per-request latencies in
/// milliseconds and the error count. A broken connection reconnects and
/// keeps going so one reset does not void the scenario.
fn drive_connection(base: &str, path: &str, requests: usize) -> (Vec<f64>, u64) {
    let url: Url = match format!("{base}{path}").parse() {
        Ok(u) => u,
        Err(_) => return (Vec::new(), requests as u64),
    };
    let client = Client::new();
    let mut latencies = Vec::with_capacity(requests);
    let mut errors = 0u64;
    let mut conn = None;
    for _ in 0..requests {
        if conn.is_none() {
            match client.connect(&url) {
                Ok(c) => conn = Some(c),
                Err(_) => {
                    errors += 1;
                    continue;
                }
            }
        }
        let c = conn.as_mut().expect("connection present");
        let started = Instant::now();
        match c.send(Request::new(Method::Get, path)) {
            Ok(resp) if resp.status.as_u16() == 200 => {
                latencies.push(started.elapsed().as_secs_f64() * 1e3);
            }
            Ok(_) | Err(_) => {
                errors += 1;
                conn = None; // reconnect on the next iteration
            }
        }
    }
    (latencies, errors)
}

/// A set of held-open `GET /events` subscriptions, each drained on its own
/// thread until [`SseHolders::stop`].
///
/// Every subscription is fully established (response head parsed) before
/// `start` returns, so a load run that follows is guaranteed to contend
/// with live streams, not half-open sockets.
pub struct SseHolders {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<u64>>,
}

impl SseHolders {
    /// Opens `count` subscriptions against `base` and starts draining them.
    ///
    /// # Errors
    ///
    /// The first failed subscription aborts the whole set.
    pub fn start(base: &str, count: usize) -> Result<SseHolders, sse::SubscribeError> {
        let url: Url = base
            .parse()
            .map_err(|_| sse::SubscribeError::Unsupported(0))?;
        let mut streams = Vec::with_capacity(count);
        for _ in 0..count {
            streams.push(sse::subscribe(
                &url,
                "",
                None,
                Duration::from_secs(5),
                Duration::from_millis(100),
            )?);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let threads = streams
            .into_iter()
            .map(|stream| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || drain_stream(stream, &stop))
            })
            .collect();
        Ok(SseHolders { stop, threads })
    }

    /// Stops and joins every holder; returns the total events received
    /// across all subscriptions.
    pub fn stop(self) -> u64 {
        self.stop.store(true, Ordering::SeqCst);
        self.threads
            .into_iter()
            .map(|t| t.join().unwrap_or(0))
            .sum()
    }
}

/// Reads one subscription until told to stop; counts full events.
fn drain_stream(mut stream: EventStream, stop: &AtomicBool) -> u64 {
    let mut events = 0u64;
    while !stop.load(Ordering::SeqCst) {
        match stream.next() {
            Ok(SseItem::Event(_)) => events += 1,
            Ok(SseItem::Heartbeat) => {}
            Ok(SseItem::Closed) => break,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => break,
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathcloud_http::{PathParams, Response, Router, Server};

    #[test]
    fn percentile_is_nearest_rank() {
        let mut s = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&mut s, 50.0), 2.0);
        assert_eq!(percentile(&mut s, 99.0), 4.0);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
    }

    #[test]
    fn load_run_measures_a_live_server() {
        let mut router = Router::new();
        router.get("/ping", |_r, _p: &PathParams| Response::text(200, "pong"));
        let server = Server::bind("127.0.0.1:0", router).unwrap();
        let report = run_load(
            &server.base_url(),
            &LoadOptions {
                connections: 4,
                requests_per_conn: 10,
                path: "/ping".to_string(),
            },
        );
        assert_eq!(report.requests, 40);
        assert_eq!(report.errors, 0);
        assert!(report.rps > 0.0);
        assert!(report.p50_ms <= report.p99_ms);
    }
}
