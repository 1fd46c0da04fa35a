//! A blocking HTTP/1.1 server: an acceptor thread in front of two
//! [`WorkPool`]s.
//!
//! ```text
//! acceptor ──spawn──▶ worker pool (≤ workers) ──spawn──▶ streamer pool (≤ max_connections)
//! ```
//!
//! * **Acceptor** — accepts sockets, sheds load past the connection cap
//!   (`503` + `Retry-After`), and queues each connection on the worker pool,
//!   waiting (interruptibly) while `workers × 4` are already queued, so
//!   back-pressure is applied and shutdown can never deadlock behind it.
//! * **Worker pool** — up to `workers` threads (`mc-http-worker-N`) running
//!   the keep-alive request loop on per-thread reusable buffers (the
//!   private `conn` module). Idle keep-alive connections are bounded by a
//!   short *idle* timeout, in-flight reads by a longer *read* timeout, so a
//!   quiet peer is reclaimed quickly while a slow upload still completes.
//! * **Streamer pool** — streaming responses (Server-Sent Events) detach to
//!   a second, elastic pool (`mc-http-streamer-N`), so a long-lived
//!   `GET /events` subscriber returns its worker before the stream starts.
//!   Eight subscribers do not deadlock an eight-worker container.
//!
//! Connection accounting is exposed as `mc_http_connections{state=...}`
//! (queued / active / streaming) and `mc_http_conn_rejected_total`.
//!
//! A keep-alive request costs no registry lookup and no `setsockopt`: the
//! per-request instruments are resolved once per (route, method, status)
//! and kept by the worker thread, the connection gauges once per process,
//! and the socket's read timeout is armed once per connection.

use std::cell::RefCell;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mathcloud_telemetry::sync::{Condvar, Mutex};
use mathcloud_telemetry::{metrics, trace, WorkPool};

use crate::conn::{ConnBuffers, ConnReader, ConnWriter};
use crate::message::{Method, Response, StreamControl};
use crate::router::Router;
use crate::wire;

/// Default number of request-handling worker threads, mirroring the
/// container's "configurable pool of handler threads" (§3.1 of the paper).
const DEFAULT_WORKERS: usize = 8;

/// How long a request worker parks before retiring: past any lull between
/// the requests of one client session.
const WORKER_IDLE_TTL: Duration = Duration::from_secs(30);

/// The longest single wait on a socket read: how promptly an idle
/// keep-alive notices a drain.
const READ_SLICE: Duration = Duration::from_millis(250);

/// How the server edge is sized and bounded.
///
/// # Examples
///
/// ```
/// use mathcloud_http::ServerConfig;
/// use std::time::Duration;
///
/// let cfg = ServerConfig {
///     workers: 4,
///     idle_timeout: Duration::from_secs(2),
///     ..ServerConfig::default()
/// };
/// assert_eq!(cfg.workers, 4);
/// ```
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Request-handling pool threads.
    pub workers: usize,
    /// How long an idle keep-alive connection may wait for its next request
    /// before being reclaimed. Short: an idle peer costs a worker for at
    /// most this long.
    pub idle_timeout: Duration,
    /// Socket read timeout once a request has started arriving (slow
    /// uploads get this much per read).
    pub read_timeout: Duration,
    /// Total connections (queued + active + streaming) before the acceptor
    /// sheds new ones with `503` + `Retry-After`.
    pub max_connections: usize,
    /// Header-section cap; larger requests get `431`.
    pub max_header_bytes: usize,
    /// Body cap; larger requests get `413`.
    pub max_body_bytes: usize,
    /// How long [`Drop`] lets queued connections start and workers and
    /// streamers finish before discarding and detaching them.
    pub drain_grace: Duration,
    /// Seconds advertised in the `Retry-After` header of shed responses.
    pub retry_after_secs: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: DEFAULT_WORKERS,
            idle_timeout: Duration::from_secs(10),
            read_timeout: Duration::from_secs(30),
            max_connections: 1024,
            max_header_bytes: 64 * 1024,
            max_body_bytes: 1 << 30,
            drain_grace: Duration::from_secs(3),
            retry_after_secs: 1,
        }
    }
}

/// Shared state of one server's edge.
struct Edge {
    router: Router,
    config: ServerConfig,
    limits: wire::Limits,
    /// Connections currently tracked (queued + active + streaming).
    total: AtomicUsize,
    /// Set by [`Server::shutdown`]: stop accepting.
    stop: AtomicBool,
    /// Set by [`Drop`]: force `Connection: close` and cut idle waits short.
    draining: AtomicBool,
    /// Shutdown signal handed to every streaming response body.
    stream_control: StreamControl,
    /// The elastic streamer pool for detached streaming responses.
    streamers: WorkPool,
    /// Signalled when a worker takes a connection off the queue (and by
    /// [`Server::shutdown`]): what the acceptor waits on when the queue is
    /// at its bound.
    room: (Mutex<()>, Condvar),
}

impl Edge {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// The read timeout armed once on every connection: one slice of the
    /// idle and read timeouts, and never zero, which the socket refuses.
    fn read_slice(&self) -> Duration {
        READ_SLICE
            .min(self.config.idle_timeout)
            .min(self.config.read_timeout)
            .max(Duration::from_millis(1))
    }
}

/// Where a tracked connection is: its `mc_http_connections{state}` gauge.
#[derive(Clone, Copy)]
enum ConnState {
    Queued,
    Active,
    Streaming,
}

impl ConnState {
    fn gauge(self) -> &'static metrics::Gauge {
        static GAUGES: [OnceLock<metrics::Gauge>; 3] = [const { OnceLock::new() }; 3];
        let label = match self {
            ConnState::Queued => "queued",
            ConnState::Active => "active",
            ConnState::Streaming => "streaming",
        };
        GAUGES[self as usize]
            .get_or_init(|| metrics::global().gauge("mc_http_connections", &[("state", label)]))
    }
}

/// One tracked connection: moves from the acceptor through the worker pool
/// and possibly to the streamer pool; its gauges and the total count are
/// released on drop wherever it ends up.
struct Conn {
    stream: TcpStream,
    edge: Arc<Edge>,
    state: ConnState,
}

impl Conn {
    fn new(stream: TcpStream, edge: &Arc<Edge>) -> Conn {
        edge.total.fetch_add(1, Ordering::SeqCst);
        ConnState::Queued.gauge().add(1);
        Conn {
            stream,
            edge: Arc::clone(edge),
            state: ConnState::Queued,
        }
    }

    fn transition(&mut self, to: ConnState) {
        self.state.gauge().sub(1);
        to.gauge().add(1);
        self.state = to;
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        self.state.gauge().sub(1);
        self.edge.total.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The instruments one (route, method, status) reports into, resolved from
/// the registry on its first request and reused by every later one.
struct RequestMetrics {
    route: Box<str>,
    method: Method,
    status: u16,
    seconds: metrics::Histogram,
    request_bytes: metrics::Histogram,
    response_bytes: metrics::Histogram,
    requests: metrics::Counter,
}

/// How many (route, method, status) a worker keeps resolved; past it (a
/// peer inventing methods) requests are recorded through the registry.
const REQUEST_METRICS_CAP: usize = 64;

thread_local! {
    /// One worker thread's resolved request instruments.
    static REQUEST_METRICS: RefCell<Vec<RequestMetrics>> = const { RefCell::new(Vec::new()) };
}

impl RequestMetrics {
    fn resolve(route: &str, method: &Method, status: u16) -> RequestMetrics {
        let registry = metrics::global();
        // Body sizes quantify the data-transfer share of platform overhead
        // (§4): powers-of-4 buckets separate control-plane chatter from bulk
        // parameter/file traffic.
        let body_bytes = |direction| {
            registry.histogram_with(
                "mc_http_body_bytes",
                &[("route", route), ("direction", direction)],
                metrics::BODY_SIZE_BUCKETS,
            )
        };
        RequestMetrics {
            route: route.into(),
            method: method.clone(),
            status,
            seconds: registry.histogram(
                "mc_http_request_seconds",
                &[("route", route), ("method", method.as_str())],
            ),
            request_bytes: body_bytes("request"),
            response_bytes: body_bytes("response"),
            requests: registry.counter(
                "mc_http_requests_total",
                &[
                    ("route", route),
                    ("method", method.as_str()),
                    ("status", &status.to_string()),
                ],
            ),
        }
    }

    fn observe(&self, elapsed: Duration, request_bytes: usize, response_bytes: usize) {
        self.seconds.observe_duration(elapsed);
        self.request_bytes.observe(request_bytes as f64);
        self.response_bytes.observe(response_bytes as f64);
        self.requests.inc();
    }

    /// Records one answered request under its labels.
    fn record(
        route: &str,
        method: &Method,
        status: u16,
        elapsed: Duration,
        request_bytes: usize,
        response_bytes: usize,
    ) {
        REQUEST_METRICS.with_borrow_mut(|cache| {
            let found = cache
                .iter()
                .find(|m| m.status == status && m.method == *method && *m.route == *route);
            if let Some(m) = found {
                return m.observe(elapsed, request_bytes, response_bytes);
            }
            let m = RequestMetrics::resolve(route, method, status);
            m.observe(elapsed, request_bytes, response_bytes);
            if cache.len() < REQUEST_METRICS_CAP {
                cache.push(m);
            }
        });
    }
}

/// A running HTTP server.
///
/// Accepts connections on a background thread and handles each on the
/// worker pool; streaming responses detach to the streamer pool.
/// [`Server::shutdown`] stops the accept loop; dropping the server
/// additionally drains queued connections (every queued request is still
/// answered), winds down live streams, and joins workers under
/// [`ServerConfig::drain_grace`].
///
/// # Examples
///
/// ```
/// use mathcloud_http::{Client, Response, Router, Server};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut router = Router::new();
/// router.get("/ping", |_r, _p| Response::text(200, "pong"));
/// let server = Server::bind("127.0.0.1:0", router)?;
/// let resp = Client::new().get(&format!("http://{}/ping", server.local_addr()))?;
/// assert_eq!(resp.body_string(), "pong");
/// # server.shutdown();
/// # Ok(())
/// # }
/// ```
pub struct Server {
    addr: SocketAddr,
    edge: Arc<Edge>,
    /// The acceptor owns the worker pool and hands it back as it exits, so
    /// the pool is dropped — drained — on the thread dropping the server.
    accept_thread: Option<JoinHandle<WorkPool>>,
}

impl Server {
    /// Binds and starts serving with the default configuration.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (bind failure, exhausted ports).
    pub fn bind<A: ToSocketAddrs>(addr: A, router: Router) -> std::io::Result<Server> {
        Server::bind_with_config(addr, router, ServerConfig::default())
    }

    /// Binds and starts serving under an explicit [`ServerConfig`].
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers` is zero.
    pub fn bind_with_config<A: ToSocketAddrs>(
        addr: A,
        router: Router,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        assert!(config.workers > 0, "server needs at least one worker");
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let limits = wire::Limits {
            max_header_bytes: config.max_header_bytes,
            max_body_bytes: config.max_body_bytes,
        };
        // Streamers are bounded by the connection cap: every stream holds a
        // tracked connection anyway, so the cap can never be exceeded.
        let streamers = WorkPool::new(
            "mc-http-streamer",
            config.max_connections.max(1),
            Duration::from_secs(2),
        )
        .with_drain_grace(config.drain_grace);
        let workers = WorkPool::new("mc-http-worker", config.workers, WORKER_IDLE_TTL)
            .with_drain_grace(config.drain_grace);
        let edge = Arc::new(Edge {
            router,
            limits,
            total: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            stream_control: StreamControl::new(),
            streamers,
            room: (Mutex::new(()), Condvar::new()),
            config,
        });

        let accept_edge = Arc::clone(&edge);
        let accept_thread = std::thread::Builder::new()
            .name("mc-http-acceptor".to_string())
            .spawn(move || {
                accept_loop(&listener, &workers, &accept_edge);
                workers
            })
            .expect("spawn http acceptor");

        Ok(Server {
            addr,
            edge,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound socket address (useful with port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The base URL of this server.
    pub fn base_url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Connections currently tracked (queued, being handled, or streaming).
    pub fn active_connections(&self) -> usize {
        self.edge.total.load(Ordering::SeqCst)
    }

    /// Live streamer threads currently carrying detached streams.
    pub fn live_streamers(&self) -> usize {
        self.edge.streamers.live_workers()
    }

    /// Stops accepting connections and unblocks the acceptor — even when it
    /// is parked behind a full queue.
    ///
    /// In-flight requests finish on their workers; this only tears down the
    /// accept loop. Dropping the server performs the full graceful drain.
    pub fn shutdown(&self) {
        if self.edge.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the acceptor wherever it waits: for room in the queue, or in
        // accept(), which a no-op connection kicks.
        self.edge.room.1.notify_all();
        let _ = TcpStream::connect(self.addr);
    }
}

impl Drop for Server {
    /// Graceful drain: stop accepting, wind down live streams, then drop the
    /// worker pool, which answers every queued connection and joins its
    /// workers under the drain grace. Workers still mid-request past it are
    /// detached (they exit after their current exchange).
    fn drop(&mut self) {
        self.shutdown();
        self.edge.draining.store(true, Ordering::SeqCst);
        self.edge.stream_control.stop();
        if let Some(acceptor) = self.accept_thread.take() {
            // The worker pool comes back with the join and drains as it
            // drops; the streamer pool does the same, under the same grace,
            // when the last connection lets go of the edge.
            drop(acceptor.join());
        }
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

fn accept_loop(listener: &TcpListener, workers: &WorkPool, edge: &Arc<Edge>) {
    let bound = edge.config.workers * 4;
    for stream in listener.incoming() {
        if edge.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if edge.total.load(Ordering::SeqCst) >= edge.config.max_connections {
            shed(&stream, edge);
            continue;
        }
        let conn = Conn::new(stream, edge);
        // Interruptible hand-off: back-pressure is applied while the queue
        // is at its bound, but shutdown always unblocks the acceptor — a
        // full queue cannot wedge `Server::shutdown`. The timeout only
        // covers a wake-up lost between the check and the wait.
        let mut room = edge.room.0.lock();
        while workers.queued() >= bound && !edge.stop.load(Ordering::SeqCst) {
            edge.room.1.wait_for(&mut room, Duration::from_millis(50));
        }
        drop(room);
        if workers.queued() >= bound {
            shed(&conn.stream, edge);
            break;
        }
        let edge = Arc::clone(edge);
        workers.spawn(move || {
            edge.room.1.notify_one();
            serve_connection(conn, &edge);
        });
    }
}

/// Over-capacity (or shutting-down) shed: a best-effort `503` with
/// `Retry-After`, then close.
fn shed(stream: &TcpStream, edge: &Edge) {
    metrics::global()
        .counter("mc_http_conn_rejected_total", &[])
        .inc();
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let resp = Response::error(503, "server at connection capacity")
        .with_header("Retry-After", &edge.config.retry_after_secs.to_string())
        .with_header("Connection", "close");
    let mut w = std::io::BufWriter::new(stream);
    let _ = wire::write_response(&mut w, &resp);
    let _ = w.flush();
}

/// What one connection's request loop decided.
enum Outcome {
    /// Close the socket (clean end, error, timeout, or `Connection: close`).
    Close,
    /// A streaming response was dispatched: hand the connection to the
    /// streamer pool.
    Detach(crate::message::BodyStream),
}

thread_local! {
    /// One worker thread's reusable buffers, kept across the connections it
    /// serves.
    static BUFFERS: RefCell<ConnBuffers> = RefCell::new(ConnBuffers::new());
}

fn serve_connection(mut conn: Conn, edge: &Arc<Edge>) {
    conn.transition(ConnState::Active);
    let _ = conn.stream.set_nodelay(true);
    let _ = conn
        .stream
        .set_write_timeout(Some(edge.config.read_timeout));
    // Armed once: the reader sits out timed-out slices itself.
    if conn
        .stream
        .set_read_timeout(Some(edge.read_slice()))
        .is_err()
    {
        return;
    }
    let outcome = BUFFERS.with_borrow_mut(|bufs| {
        let (read_buf, write_buf) = bufs.split();
        let mut reader = ConnReader::new(&conn.stream, read_buf, edge.config.read_timeout);
        let mut writer = ConnWriter::new(&conn.stream, write_buf);
        request_loop(&mut reader, &mut writer, edge)
    });
    match outcome {
        Outcome::Close => {}
        Outcome::Detach(body) => {
            conn.transition(ConnState::Streaming);
            let control = edge.stream_control.clone();
            // Moving `conn` keeps its accounting alive for the stream's
            // lifetime; if the pool refused (shutdown), dropping it closes
            // the socket and releases the slot.
            let _ = edge.streamers.spawn(move || {
                let mut w = std::io::BufWriter::new(&conn.stream);
                let _ = body.run(&mut w, &control);
                let _ = w.flush();
            });
        }
    }
}

fn request_loop(
    reader: &mut ConnReader<'_>,
    writer: &mut ConnWriter<'_>,
    edge: &Arc<Edge>,
) -> Outcome {
    loop {
        match reader.await_request(edge.config.idle_timeout, || edge.draining()) {
            Ok(true) => {}
            Ok(false) | Err(_) => return Outcome::Close,
        }
        let mut req = match wire::read_request_limited(reader, &edge.limits) {
            Ok(Some(req)) => req,
            Ok(None) => return Outcome::Close, // clean close
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                // Protocol violation or cap breach: 400 / 413 / 431.
                let status = wire::violation_status(&e);
                let resp =
                    Response::error(status, &e.to_string()).with_header("Connection", "close");
                let _ = wire::write_response(writer, &resp);
                return Outcome::Close;
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Mid-request stall: best-effort 408, then close.
                let resp = Response::error(408, "request read timed out")
                    .with_header("Connection", "close");
                let _ = wire::write_response(writer, &resp);
                return Outcome::Close;
            }
            Err(_) => return Outcome::Close, // reset: drop silently
        };
        // The server edge is where request ids enter the platform: honor a
        // well-formed client-supplied X-MC-Request-Id, otherwise mint one.
        // Handlers see it on the request; the response always echoes it.
        let request_id = match req.headers.get(trace::REQUEST_ID_HEADER) {
            Some(rid) if trace::is_valid_request_id(rid) => rid.to_string(),
            _ => trace::next_request_id(),
        };
        req.headers.set(trace::REQUEST_ID_HEADER, &request_id);
        let keep = wire::keep_alive(&req) && !edge.draining();
        let request_bytes = req.body.len();
        let started = Instant::now();
        let (mut resp, route) = edge.router.dispatch_labeled(&mut req);
        RequestMetrics::record(
            route,
            &req.method,
            resp.status.as_u16(),
            started.elapsed(),
            request_bytes,
            resp.body.len(),
        );
        if resp.headers.get(trace::REQUEST_ID_HEADER).is_none() {
            resp.headers.set(trace::REQUEST_ID_HEADER, &request_id);
        }
        if let Some(body) = resp.stream.take() {
            // Streaming response (Server-Sent Events): write the headers
            // without a Content-Length and detach the connection to the
            // streamer pool — this worker goes straight back to its own.
            resp.headers.set("Connection", "close");
            resp.headers.set("Cache-Control", "no-store");
            if wire::write_stream_head(writer, &resp).is_err() {
                return Outcome::Close;
            }
            return Outcome::Detach(body);
        }
        if !keep {
            resp.headers.set("Connection", "close");
        }
        if wire::write_response(writer, &resp).is_err() {
            return Outcome::Close;
        }
        if !keep {
            return Outcome::Close;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::message::{Method, Request};
    use crate::router::PathParams;
    use mathcloud_json::json;

    fn demo_server() -> Server {
        let mut router = Router::new();
        router.get("/ping", |_r, _p: &PathParams| Response::text(200, "pong"));
        router.post("/echo", |r: &Request, _p: &PathParams| {
            Response::bytes(
                200,
                r.headers.get("content-type").unwrap_or("text/plain"),
                r.body.clone(),
            )
        });
        router.get("/json", |_r, _p: &PathParams| {
            Response::json(200, &json!({"ok": true}))
        });
        Server::bind("127.0.0.1:0", router).expect("bind")
    }

    #[test]
    fn serves_basic_requests() {
        let server = demo_server();
        let client = Client::new();
        let resp = client.get(&format!("{}/ping", server.base_url())).unwrap();
        assert_eq!(resp.status.as_u16(), 200);
        assert_eq!(resp.body_string(), "pong");
        let resp = client
            .get(&format!("{}/missing", server.base_url()))
            .unwrap();
        assert_eq!(resp.status.as_u16(), 404);
    }

    #[test]
    fn echoes_large_bodies() {
        let server = demo_server();
        let payload = "x".repeat(2 * 1024 * 1024);
        let req = Request::new(Method::Post, "/echo").with_text(&payload);
        let resp = Client::new()
            .send(&format!("{}/echo", server.base_url()).parse().unwrap(), req)
            .unwrap();
        assert_eq!(resp.body.len(), payload.len());
    }

    #[test]
    fn concurrent_clients_are_served() {
        let server = demo_server();
        let base = server.base_url();
        let handles: Vec<_> = (0..16)
            .map(|_| {
                let base = base.clone();
                std::thread::spawn(move || {
                    let resp = Client::new().get(&format!("{base}/json")).unwrap();
                    assert_eq!(resp.body_json().unwrap()["ok"].as_bool(), Some(true));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn keep_alive_reuses_one_connection() {
        let server = demo_server();
        let url: crate::Url = format!("{}/ping", server.base_url()).parse().unwrap();
        let client = Client::new();
        let mut conn = client.connect(&url).unwrap();
        for _ in 0..5 {
            let resp = conn.send(Request::new(Method::Get, "/ping")).unwrap();
            assert_eq!(resp.body_string(), "pong");
        }
    }

    #[test]
    fn pipelined_requests_are_all_answered() {
        use std::io::{Read, Write};
        let server = demo_server();
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        // Two requests in one write; both responses must come back.
        s.write_all(b"GET /ping HTTP/1.1\r\nHost: h\r\n\r\nGET /ping HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut buf = String::new();
        let _ = s.read_to_string(&mut buf);
        assert_eq!(buf.matches("HTTP/1.1 200").count(), 2, "{buf}");
        assert_eq!(buf.matches("pong").count(), 2, "{buf}");
    }

    #[test]
    fn shutdown_is_idempotent() {
        let server = demo_server();
        server.shutdown();
        server.shutdown();
    }

    #[test]
    fn malformed_request_gets_400() {
        use std::io::{Read, Write};
        let server = demo_server();
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        s.write_all(b"NOT A REQUEST\r\n\r\n").unwrap();
        let mut buf = String::new();
        let _ = s.read_to_string(&mut buf);
        assert!(buf.starts_with("HTTP/1.1 400"), "{buf}");
    }

    #[test]
    fn zero_timeouts_still_answer() {
        for config in [
            ServerConfig {
                idle_timeout: Duration::ZERO,
                ..ServerConfig::default()
            },
            ServerConfig {
                read_timeout: Duration::ZERO,
                ..ServerConfig::default()
            },
        ] {
            let mut router = Router::new();
            router.get("/ping", |_r, _p: &PathParams| Response::text(200, "pong"));
            let server = Server::bind_with_config("127.0.0.1:0", router, config.clone()).unwrap();
            let resp = Client::new()
                .get(&format!("{}/ping", server.base_url()))
                .unwrap_or_else(|e| panic!("{config:?}: {e}"));
            assert_eq!(resp.body_string(), "pong", "{config:?}");
        }
    }

    #[test]
    fn idle_keep_alive_connection_is_reclaimed() {
        use std::io::Read;
        let mut router = Router::new();
        router.get("/ping", |_r, _p: &PathParams| Response::text(200, "pong"));
        let server = Server::bind_with_config(
            "127.0.0.1:0",
            router,
            ServerConfig {
                workers: 1,
                idle_timeout: Duration::from_millis(100),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        // Never send a request: the server must close the socket after the
        // idle timeout instead of pinning the worker for a full 30 s.
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let started = Instant::now();
        let mut buf = [0u8; 1];
        let n = s.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "server should close the idle connection");
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "idle reclaim took {:?}",
            started.elapsed()
        );
    }
}
