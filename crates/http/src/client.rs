//! A blocking HTTP/1.1 client with a fault-tolerant transport.

use std::error::Error;
use std::fmt;
use std::io::{BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use mathcloud_json::Value;
use mathcloud_telemetry::rng::XorShift64;
use mathcloud_telemetry::sync::Mutex;

use crate::message::{Method, Request, Response};
use crate::transport::{self, BreakerConfig, BreakerRegistry, RetryPolicy};
use crate::url::{Url, UrlError};
use crate::wire;

/// Errors from client operations.
#[derive(Debug)]
pub enum ClientError {
    /// The URL could not be parsed.
    Url(UrlError),
    /// Connection or transfer failure.
    Io(std::io::Error),
    /// The authority's circuit breaker is open: the request was rejected
    /// without touching the network. `retry_in` is the remaining cooldown.
    CircuitOpen {
        authority: String,
        retry_in: Duration,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Url(e) => write!(f, "{e}"),
            ClientError::Io(e) => write!(f, "http i/o error: {e}"),
            ClientError::CircuitOpen {
                authority,
                retry_in,
            } => write!(
                f,
                "circuit breaker open for {authority}, retry in {retry_in:?}"
            ),
        }
    }
}

impl Error for ClientError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ClientError::Url(e) => Some(e),
            ClientError::Io(e) => Some(e),
            ClientError::CircuitOpen { .. } => None,
        }
    }
}

impl From<UrlError> for ClientError {
    fn from(e: UrlError) -> Self {
        ClientError::Url(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A blocking HTTP client.
///
/// Each call opens a fresh connection; use [`Client::connect`] to hold a
/// keep-alive [`Connection`] for request sequences (the workflow engine polls
/// job resources this way).
///
/// The transport is fault tolerant: connects are bounded by a dedicated
/// connect timeout across all resolved addresses, transport failures on
/// idempotent requests are retried per [`RetryPolicy`] with jittered
/// exponential backoff, and every authority is guarded by a circuit breaker
/// (see [`crate::transport`]). Clones share breaker state.
///
/// # Examples
///
/// ```no_run
/// use mathcloud_http::Client;
/// use mathcloud_json::json;
///
/// # fn main() -> Result<(), mathcloud_http::ClientError> {
/// let client = Client::new();
/// let resp = client.post_json("http://localhost:9000/services/sum", &json!({"a": 2, "b": 3}))?;
/// assert!(resp.status.is_success());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Client {
    timeout: Duration,
    connect_timeout: Duration,
    retry: RetryPolicy,
    breakers: Arc<BreakerRegistry>,
    rng: Arc<Mutex<XorShift64>>,
    /// Extra headers attached to every request (e.g. auth tokens).
    default_headers: Vec<(String, String)>,
}

impl Default for Client {
    fn default() -> Self {
        Client::new()
    }
}

impl Client {
    /// Creates a client with a 30-second I/O timeout, a 10-second connect
    /// timeout, the default [`RetryPolicy`] and the default
    /// [`BreakerConfig`].
    pub fn new() -> Self {
        Client {
            timeout: Duration::from_secs(30),
            connect_timeout: Duration::from_secs(10),
            retry: RetryPolicy::default(),
            breakers: Arc::new(BreakerRegistry::new(BreakerConfig::default())),
            rng: Arc::new(Mutex::new(XorShift64::fresh())),
            default_headers: Vec::new(),
        }
    }

    /// Sets the per-operation I/O timeout (builder style).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Sets the TCP connect timeout applied to every resolved address
    /// (builder style).
    pub fn with_connect_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = timeout;
        self
    }

    /// Sets the retry policy (builder style). Use
    /// [`RetryPolicy::disabled`] for deadline-bounded probes that must not
    /// multiply their budget.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Replaces the circuit-breaker configuration (builder style). Resets
    /// breaker state: the client gets a fresh registry no longer shared with
    /// previous clones.
    pub fn with_breaker_config(mut self, config: BreakerConfig) -> Self {
        self.breakers = Arc::new(BreakerRegistry::new(config));
        self
    }

    /// Reseeds the backoff-jitter PRNG (builder style) — tests use this to
    /// make retry schedules reproducible.
    pub fn with_rng_seed(mut self, seed: u64) -> Self {
        self.rng = Arc::new(Mutex::new(XorShift64::new(seed)));
        self
    }

    /// Attaches a header to every request sent by this client (builder
    /// style) — the security layer uses this for credentials.
    pub fn with_default_header(mut self, name: &str, value: &str) -> Self {
        self.default_headers
            .push((name.to_string(), value.to_string()));
        self
    }

    /// The circuit-breaker registry guarding this client's authorities.
    pub fn breakers(&self) -> &BreakerRegistry {
        &self.breakers
    }

    /// Sends `GET url`.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on bad URLs or transport failure; HTTP error statuses
    /// are returned as normal responses.
    pub fn get(&self, url: &str) -> Result<Response, ClientError> {
        let url: Url = url.parse()?;
        self.send(&url, Request::new(Method::Get, &url.target()))
    }

    /// Sends `DELETE url`.
    ///
    /// # Errors
    ///
    /// See [`Client::get`].
    pub fn delete(&self, url: &str) -> Result<Response, ClientError> {
        let url: Url = url.parse()?;
        self.send(&url, Request::new(Method::Delete, &url.target()))
    }

    /// Sends `POST url` with a JSON body.
    ///
    /// # Errors
    ///
    /// See [`Client::get`].
    pub fn post_json(&self, url: &str, body: &Value) -> Result<Response, ClientError> {
        let url: Url = url.parse()?;
        self.send(
            &url,
            Request::new(Method::Post, &url.target()).with_json(body),
        )
    }

    /// Sends `POST url` with an arbitrary body and content type.
    ///
    /// # Errors
    ///
    /// See [`Client::get`].
    pub fn post_bytes(
        &self,
        url: &str,
        content_type: &str,
        body: Vec<u8>,
    ) -> Result<Response, ClientError> {
        let url: Url = url.parse()?;
        let mut req = Request::new(Method::Post, &url.target());
        req.body = body;
        req.headers.set("Content-Type", content_type);
        self.send(&url, req)
    }

    /// Sends an explicit request to `url`'s authority, opening a fresh
    /// connection per attempt. Transport failures on idempotent requests are
    /// retried per the client's [`RetryPolicy`]; HTTP error statuses are
    /// successful exchanges and are never retried. Each attempt first asks
    /// the authority's circuit breaker for admission.
    ///
    /// # Errors
    ///
    /// See [`Client::get`]; additionally [`ClientError::CircuitOpen`] when
    /// the breaker rejects the call.
    pub fn send(&self, url: &Url, req: Request) -> Result<Response, ClientError> {
        let mut req = req;
        req.headers.set("Connection", "close");
        let authority = url.authority();
        let breaker = self.breakers.breaker(&authority);
        // A POST carrying an Idempotency-Key is contractually safe to
        // replay: the server answers a retry with the original job instead
        // of creating a second one, so it retries like an idempotent verb.
        let retryable = self.retry.applies_to(&req.method)
            || req.headers.contains(crate::message::IDEMPOTENCY_KEY_HEADER);
        let max_attempts = if retryable {
            self.retry.max_attempts.max(1)
        } else {
            1
        };
        let mut attempt = 1u32;
        loop {
            if let Err(retry_in) = breaker.admit() {
                return Err(ClientError::CircuitOpen {
                    authority,
                    retry_in,
                });
            }
            match self.attempt_send(url, req.clone()) {
                Ok(resp) => {
                    breaker.on_success();
                    return Ok(resp);
                }
                Err(err) => {
                    breaker.on_failure();
                    if attempt >= max_attempts {
                        return Err(err);
                    }
                    transport::record_retry(&authority);
                    let pause = {
                        let mut rng = self.rng.lock();
                        self.retry.backoff(attempt, &mut rng)
                    };
                    std::thread::sleep(pause);
                    attempt += 1;
                }
            }
        }
    }

    fn attempt_send(&self, url: &Url, req: Request) -> Result<Response, ClientError> {
        let mut conn = self.connect(url)?;
        conn.send(req)
    }

    /// Opens a keep-alive connection to `url`'s authority, trying every
    /// resolved address under the connect timeout.
    ///
    /// Requests sent directly on the returned [`Connection`] bypass retry and
    /// breaker accounting — the keep-alive path is used for poll loops that
    /// implement their own pacing.
    ///
    /// # Errors
    ///
    /// Connection failures surface as [`ClientError::Io`].
    pub fn connect(&self, url: &Url) -> Result<Connection, ClientError> {
        let addrs = (url.host(), url.port()).to_socket_addrs()?;
        let mut last_err: Option<std::io::Error> = None;
        let mut stream: Option<TcpStream> = None;
        for addr in addrs {
            match TcpStream::connect_timeout(&addr, self.connect_timeout) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        let stream = match stream {
            Some(s) => s,
            None => {
                return Err(ClientError::Io(last_err.unwrap_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::NotFound,
                        format!("no addresses resolved for {}", url.authority()),
                    )
                })))
            }
        };
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        stream.set_nodelay(true)?;
        Ok(Connection {
            host: url.authority(),
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            default_headers: self.default_headers.clone(),
        })
    }
}

/// A keep-alive connection to one server.
pub struct Connection {
    host: String,
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    default_headers: Vec<(String, String)>,
}

impl Connection {
    /// Sends one request and reads its response.
    ///
    /// # Errors
    ///
    /// Transport failures surface as [`ClientError::Io`].
    pub fn send(&mut self, mut req: Request) -> Result<Response, ClientError> {
        for (name, value) in &self.default_headers {
            if !req.headers.contains(name) {
                req.headers.set(name, value);
            }
        }
        wire::write_request(&mut self.writer, &req, &self.host)?;
        Ok(wire::read_response(&mut self.reader)?)
    }
}

impl fmt::Debug for Connection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Connection")
            .field("host", &self.host)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn bad_url_is_reported() {
        let err = Client::new().get("not a url").unwrap_err();
        assert!(matches!(err, ClientError::Url(_)));
        assert!(err.to_string().contains("invalid url"));
    }

    #[test]
    fn connection_refused_is_io_error() {
        // Port 1 on localhost is essentially never listening.
        let err = Client::new().get("http://127.0.0.1:1/x").unwrap_err();
        assert!(matches!(err, ClientError::Io(_)));
    }

    #[test]
    fn default_headers_are_attached() {
        use crate::router::PathParams;
        use crate::{Response, Router, Server};
        let mut router = Router::new();
        router.get("/h", |r: &Request, _p: &PathParams| {
            Response::text(200, r.headers.get("x-token").unwrap_or("none"))
        });
        let server = Server::bind("127.0.0.1:0", router).unwrap();
        let client = Client::new().with_default_header("X-Token", "secret");
        let resp = client.get(&format!("{}/h", server.base_url())).unwrap();
        assert_eq!(resp.body_string(), "secret");
    }

    /// Regression for the connect hang: a non-routable address must fail
    /// within the connect timeout, not the OS default (~2 minutes).
    #[test]
    fn connect_times_out_against_non_routable_address() {
        // TEST-NET-1 (RFC 5737) addresses are reserved and typically
        // black-holed; if the sandbox fast-fails them instead, the test
        // still passes — it only asserts an upper bound.
        let client = Client::new()
            .with_connect_timeout(Duration::from_millis(250))
            .with_timeout(Duration::from_millis(250))
            .with_retry_policy(RetryPolicy::disabled());
        let start = Instant::now();
        let err = client.get("http://192.0.2.1:81/x").unwrap_err();
        let elapsed = start.elapsed();
        assert!(matches!(err, ClientError::Io(_)), "got {err:?}");
        assert!(
            elapsed < Duration::from_secs(1),
            "connect took {elapsed:?}, timeout not applied"
        );
    }

    /// Counts connections to a socket that accepts and immediately drops, so
    /// every exchange is a transport failure.
    fn drop_server() -> (std::net::SocketAddr, std::sync::mpsc::Receiver<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                drop(conn);
                if tx.send(()).is_err() {
                    return;
                }
            }
        });
        (addr, rx)
    }

    #[test]
    fn idempotent_requests_are_retried_and_posts_are_not() {
        let (addr, hits) = drop_server();
        let client = Client::new()
            .with_retry_policy(RetryPolicy {
                max_attempts: 3,
                base_backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(10),
                jitter: 0.0,
                retry_non_idempotent: false,
            })
            .with_rng_seed(7)
            .with_timeout(Duration::from_millis(500));

        let err = client.get(&format!("http://{addr}/x")).unwrap_err();
        assert!(matches!(err, ClientError::Io(_)));
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(hits.try_iter().count(), 3, "GET should use all attempts");

        let err = client
            .post_json(&format!("http://{addr}/x"), &mathcloud_json::json!({}))
            .unwrap_err();
        assert!(matches!(err, ClientError::Io(_)));
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(hits.try_iter().count(), 1, "POST must not be retried");
    }

    #[test]
    fn keyed_posts_are_retried_like_idempotent_requests() {
        let (addr, hits) = drop_server();
        let client = Client::new()
            .with_retry_policy(RetryPolicy {
                max_attempts: 3,
                base_backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(10),
                jitter: 0.0,
                retry_non_idempotent: false,
            })
            .with_rng_seed(7)
            .with_timeout(Duration::from_millis(500));
        let url: Url = format!("http://{addr}/x").parse().unwrap();
        let req = Request::new(Method::Post, &url.target())
            .with_json(&mathcloud_json::json!({}))
            .with_header(crate::IDEMPOTENCY_KEY_HEADER, "k-1");
        let err = client.send(&url, req).unwrap_err();
        assert!(matches!(err, ClientError::Io(_)));
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(
            hits.try_iter().count(),
            3,
            "an Idempotency-Key makes the POST safely retryable"
        );
    }

    #[test]
    fn breaker_rejects_after_threshold_without_touching_network() {
        let client = Client::new()
            .with_retry_policy(RetryPolicy::disabled())
            .with_breaker_config(BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_secs(60),
            });
        let url = "http://127.0.0.1:1/x";
        assert!(matches!(client.get(url).unwrap_err(), ClientError::Io(_)));
        assert!(matches!(client.get(url).unwrap_err(), ClientError::Io(_)));
        // Third call is rejected by the breaker, fast and socket-free.
        let start = Instant::now();
        match client.get(url).unwrap_err() {
            ClientError::CircuitOpen {
                authority,
                retry_in,
            } => {
                assert_eq!(authority, "127.0.0.1:1");
                assert!(retry_in > Duration::from_secs(50));
            }
            other => panic!("expected CircuitOpen, got {other:?}"),
        }
        assert!(start.elapsed() < Duration::from_millis(100));
        assert_eq!(
            client.breakers().state_of("127.0.0.1:1"),
            Some(crate::transport::BreakerState::Open)
        );
    }
}
