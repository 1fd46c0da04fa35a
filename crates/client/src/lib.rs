//! High-level client for MathCloud computational web services.
//!
//! The paper ships Java, Python and command-line clients (§3.5); this crate
//! is the Rust equivalent plus the `mcli` binary. Because services implement
//! the unified REST API, one client type talks to *any* MathCloud service:
//!
//! ```no_run
//! use mathcloud_client::ServiceClient;
//! use mathcloud_json::json;
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let svc = ServiceClient::connect("http://localhost:9000/services/inverse")?;
//! println!("{}", svc.describe()?.description());
//! let job = svc.submit(&json!({"matrix": "2 0; 0 4"}))?;
//! let done = job.wait(Duration::from_secs(60))?;
//! println!("{}", done.outputs.unwrap().get("result").unwrap());
//! # Ok(())
//! # }
//! ```

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use mathcloud_core::{JobRepresentation, JobState, ServiceDescription};
use mathcloud_http::sse;
use mathcloud_http::{Client, Method, Request, Url, MEMO_HIT_HEADER};
use mathcloud_json::Value;
use mathcloud_security::cert::{Certificate, OpenIdToken};
use mathcloud_security::middleware::CLIENT_CERT_HEADER;
use mathcloud_telemetry::rng::{splitmix64, XorShift64};
use mathcloud_telemetry::{next_request_id, REQUEST_ID_HEADER};

/// Connect timeout for event-stream subscriptions.
const SSE_CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// First pause of the poll fallback's backoff schedule.
const POLL_BASE: Duration = Duration::from_millis(10);

/// Backoff cap: bounds how stale a poll-mode client's view can get once a
/// job is clearly long-running.
const POLL_CAP: Duration = Duration::from_millis(200);

/// Capped exponential backoff with xorshift jitter for the poll fallback.
///
/// The doubling schedule keeps short jobs cheap to detect while long jobs
/// settle at one request per [`POLL_CAP`]; the jitter (uniform in
/// `[pause/2, pause]`) decorrelates the synchronized poll herds that fixed
/// intervals produce when many clients watch jobs submitted together.
#[derive(Debug)]
struct PollBackoff {
    pause: Duration,
    rng: XorShift64,
}

impl PollBackoff {
    fn new() -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e37_79b9_7f4a_7c15);
        let pid = u64::from(std::process::id());
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        PollBackoff {
            pause: POLL_BASE,
            rng: XorShift64::new(splitmix64(
                nanos ^ (pid << 32) ^ n.wrapping_mul(0xa076_1d64_78bd_642f),
            )),
        }
    }

    fn next_pause(&mut self) -> Duration {
        let span = self.pause.as_micros() as u64;
        let jittered = span / 2 + self.rng.next_u64() % (span / 2 + 1);
        self.pause = (self.pause * 2).min(POLL_CAP);
        Duration::from_micros(jittered)
    }
}

/// Errors from client operations.
#[derive(Debug)]
pub enum ServiceError {
    /// Transport-level failure.
    Transport(String),
    /// The server returned an HTTP error status.
    Http {
        /// The status code.
        status: u16,
        /// The error payload or body text.
        message: String,
    },
    /// The server returned a payload the client cannot interpret.
    Protocol(String),
    /// The job finished in FAILED or CANCELLED state.
    JobFailed(String),
    /// The job did not finish within the wait deadline.
    Timeout,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Transport(m) => write!(f, "transport error: {m}"),
            ServiceError::Http { status, message } => write!(f, "http {status}: {message}"),
            ServiceError::Protocol(m) => write!(f, "protocol error: {m}"),
            ServiceError::JobFailed(m) => write!(f, "job failed: {m}"),
            ServiceError::Timeout => write!(f, "timed out waiting for the job"),
        }
    }
}

impl Error for ServiceError {}

fn http_error(resp: &mathcloud_http::Response) -> ServiceError {
    let message = resp
        .body_json()
        .ok()
        .and_then(|v| v.str_field("error").map(String::from))
        .unwrap_or_else(|| resp.body_string());
    ServiceError::Http {
        status: resp.status.as_u16(),
        message,
    }
}

/// A client bound to one computational web service.
#[derive(Debug, Clone)]
pub struct ServiceClient {
    client: Client,
    url: Url,
}

impl ServiceClient {
    /// Binds to a service URL (no network traffic yet).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Protocol`] when the URL does not parse.
    pub fn connect(url: &str) -> Result<Self, ServiceError> {
        let url: Url = url
            .parse()
            .map_err(|e| ServiceError::Protocol(format!("{e}")))?;
        Ok(ServiceClient {
            client: Client::new(),
            url,
        })
    }

    /// Attaches certificate credentials to every request (builder style).
    pub fn with_certificate(mut self, cert: &Certificate) -> Self {
        self.client = self
            .client
            .with_default_header(CLIENT_CERT_HEADER, &cert.encode());
        self
    }

    /// Attaches OpenID credentials to every request (builder style).
    pub fn with_openid(mut self, token: &OpenIdToken) -> Self {
        self.client = self
            .client
            .with_default_header("Authorization", &format!("OpenId {}", token.encode()));
        self
    }

    /// Overrides the transport retry policy (builder style) — idempotent
    /// requests such as description fetches and job polls are retried with
    /// backoff; submissions never are.
    pub fn with_retry_policy(mut self, policy: mathcloud_http::RetryPolicy) -> Self {
        self.client = self.client.with_retry_policy(policy);
        self
    }

    /// Bounds TCP connects to `timeout` (builder style) so unroutable hosts
    /// fail within the budget rather than the OS default.
    pub fn with_connect_timeout(mut self, timeout: std::time::Duration) -> Self {
        self.client = self.client.with_connect_timeout(timeout);
        self
    }

    /// Replaces the HTTP client (builder style) — deadlines, retry policy
    /// and breakers all at once, e.g. one client shared by many bindings.
    pub fn with_client(mut self, client: Client) -> Self {
        self.client = client;
        self
    }

    /// The bound service URL.
    pub fn url(&self) -> &Url {
        &self.url
    }

    /// Fetches the service description (introspection).
    ///
    /// # Errors
    ///
    /// [`ServiceError`] on transport, HTTP or payload problems.
    pub fn describe(&self) -> Result<ServiceDescription, ServiceError> {
        let resp = self
            .client
            .get(&self.url.to_string())
            .map_err(|e| ServiceError::Transport(e.to_string()))?;
        if !resp.status.is_success() {
            return Err(http_error(&resp));
        }
        let doc = resp
            .body_json()
            .map_err(|e| ServiceError::Protocol(e.to_string()))?;
        ServiceDescription::from_value(&doc).map_err(|e| ServiceError::Protocol(e.to_string()))
    }

    /// Submits a request, returning a handle on the created job.
    ///
    /// A fresh `X-MC-Request-Id` is generated for the submission so the job
    /// can be correlated with server-side spans; use
    /// [`ServiceClient::submit_with_request_id`] to supply your own.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] on rejection (validation, authorization) or
    /// transport failure.
    pub fn submit(&self, inputs: &Value) -> Result<JobHandle, ServiceError> {
        self.submit_with_request_id(inputs, &next_request_id())
    }

    /// Submits a request under an explicit request id.
    ///
    /// The id is sent as `X-MC-Request-Id` and threads through the container,
    /// job manager and adapters; the handle surfaces the id the server
    /// actually adopted (the echo from the response, normally identical).
    ///
    /// # Errors
    ///
    /// See [`ServiceClient::submit`].
    pub fn submit_with_request_id(
        &self,
        inputs: &Value,
        request_id: &str,
    ) -> Result<JobHandle, ServiceError> {
        self.submit_inner(inputs, request_id, None)
    }

    /// Submits a request under an `Idempotency-Key`: the server creates at
    /// most one job per `(service, key)` — a retried or replayed submission
    /// (including after a container restart, since the key is journaled
    /// with the job) returns a handle on the *original* job. The transport
    /// layer therefore retries a keyed submission like an idempotent
    /// request.
    ///
    /// # Errors
    ///
    /// See [`ServiceClient::submit`].
    pub fn submit_idempotent(&self, inputs: &Value, key: &str) -> Result<JobHandle, ServiceError> {
        self.submit_inner(inputs, &next_request_id(), Some(key))
    }

    fn submit_inner(
        &self,
        inputs: &Value,
        request_id: &str,
        idem_key: Option<&str>,
    ) -> Result<JobHandle, ServiceError> {
        let mut req = Request::new(Method::Post, &self.url.target()).with_json(inputs);
        req.headers.set(REQUEST_ID_HEADER, request_id);
        if let Some(key) = idem_key {
            req.headers.set(mathcloud_http::IDEMPOTENCY_KEY_HEADER, key);
        }
        let resp = self
            .client
            .send(&self.url, req)
            .map_err(|e| ServiceError::Transport(e.to_string()))?;
        if !resp.status.is_success() {
            return Err(http_error(&resp));
        }
        let request_id = resp
            .headers
            .get(REQUEST_ID_HEADER)
            .unwrap_or(request_id)
            .to_string();
        let rep = JobRepresentation::from_value(
            &resp
                .body_json()
                .map_err(|e| ServiceError::Protocol(e.to_string()))?,
        )
        .map_err(ServiceError::Protocol)?;
        Ok(JobHandle {
            client: self.client.clone(),
            base: self.url.clone(),
            rep,
            request_id,
            memo_hit: resp.headers.get(MEMO_HIT_HEADER).is_some(),
        })
    }

    /// Submits and waits for completion in one call.
    ///
    /// The event-stream subscription is opened *before* the submission, so a
    /// job's terminal `job.*` event cannot slip past between the submit
    /// response and a later subscription — the full lifecycle is observed by
    /// push, and the only status request is the final fetch of outputs.
    /// Against servers without `GET /events` the wait is
    /// [`JobHandle::wait_polling`].
    ///
    /// # Errors
    ///
    /// See [`ServiceClient::submit`] and [`JobHandle::wait`].
    pub fn call(
        &self,
        inputs: &Value,
        timeout: Duration,
    ) -> Result<JobRepresentation, ServiceError> {
        self.call_inner(inputs, &next_request_id(), None, timeout)
    }

    /// [`ServiceClient::call`] under an `Idempotency-Key`: submit-and-wait
    /// where the submission is safe to retry (and to repeat wholesale —
    /// calling this twice with the same key waits on the same job twice).
    /// `request_id` is the caller's own `X-MC-Request-Id`, when it is itself
    /// serving a request (a workflow block): the job and every poll carry it.
    ///
    /// # Errors
    ///
    /// See [`ServiceClient::call`].
    pub fn call_idempotent(
        &self,
        inputs: &Value,
        key: &str,
        request_id: Option<&str>,
        timeout: Duration,
    ) -> Result<JobRepresentation, ServiceError> {
        let request_id = request_id.map_or_else(next_request_id, str::to_string);
        self.call_inner(inputs, &request_id, Some(key), timeout)
    }

    fn call_inner(
        &self,
        inputs: &Value,
        request_id: &str,
        idem_key: Option<&str>,
        timeout: Duration,
    ) -> Result<JobRepresentation, ServiceError> {
        let stream = sse::subscribe(
            &self.url,
            "job.",
            None,
            SSE_CONNECT_TIMEOUT,
            sse::DEFAULT_HEARTBEAT,
        );
        let job = self.submit_inner(inputs, request_id, idem_key)?;
        match stream {
            Ok(stream) => job.wait_streamed(stream, timeout),
            Err(_) => job.wait_polling(timeout),
        }
    }

    /// Reattaches to an existing job by id — the durable-jobs counterpart
    /// of [`ServiceClient::submit`]: after a container restart, a client
    /// holding only a job id from before the crash gets a live
    /// [`JobHandle`] (and can [`JobHandle::wait`]) as long as the
    /// container's journal recovered the job.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Http`] with status 404 when the job is unknown;
    /// transport and payload errors as usual.
    pub fn job(&self, job_id: &str) -> Result<JobHandle, ServiceError> {
        let url = self
            .url
            .with_target(&format!("{}/jobs/{job_id}", self.url.target()));
        let resp = self
            .client
            .get(&url.to_string())
            .map_err(|e| ServiceError::Transport(e.to_string()))?;
        if !resp.status.is_success() {
            return Err(http_error(&resp));
        }
        let rep = JobRepresentation::from_value(
            &resp
                .body_json()
                .map_err(|e| ServiceError::Protocol(e.to_string()))?,
        )
        .map_err(ServiceError::Protocol)?;
        let request_id = resp
            .headers
            .get(REQUEST_ID_HEADER)
            .map(str::to_string)
            .unwrap_or_default();
        Ok(JobHandle {
            client: self.client.clone(),
            base: self.url.clone(),
            rep,
            request_id,
            memo_hit: false,
        })
    }
}

/// A handle on a submitted job.
#[derive(Debug, Clone)]
pub struct JobHandle {
    client: Client,
    base: Url,
    rep: JobRepresentation,
    request_id: String,
    memo_hit: bool,
}

impl JobHandle {
    /// The most recently fetched representation.
    pub fn representation(&self) -> &JobRepresentation {
        &self.rep
    }

    /// The request id this job was submitted under (as echoed by the
    /// server). Quote it when reporting problems: server-side spans and the
    /// `/metrics`-adjacent trace buffer are keyed by it.
    pub fn request_id(&self) -> &str {
        &self.request_id
    }

    /// Whether the submission was answered from the server's result memo
    /// cache (`X-MC-Memo-Hit`): the handle points at an existing job —
    /// usually already DONE — instead of a freshly created one. Always
    /// `false` for handles reattached via [`ServiceClient::job`].
    pub fn was_memo_hit(&self) -> bool {
        self.memo_hit
    }

    /// The job's absolute URL.
    pub fn job_url(&self) -> String {
        self.base.with_target(&self.rep.uri).to_string()
    }

    /// Re-fetches the job representation, under the request id the job was
    /// submitted with.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] on transport or payload problems.
    pub fn refresh(&mut self) -> Result<&JobRepresentation, ServiceError> {
        let url = self.base.with_target(&self.rep.uri);
        let mut req = Request::new(Method::Get, &url.target());
        if !self.request_id.is_empty() {
            req.headers.set(REQUEST_ID_HEADER, &self.request_id);
        }
        let resp = self
            .client
            .send(&url, req)
            .map_err(|e| ServiceError::Transport(e.to_string()))?;
        if !resp.status.is_success() {
            return Err(http_error(&resp));
        }
        self.rep = JobRepresentation::from_value(
            &resp
                .body_json()
                .map_err(|e| ServiceError::Protocol(e.to_string()))?,
        )
        .map_err(ServiceError::Protocol)?;
        Ok(&self.rep)
    }

    /// Waits until the job is DONE, failing on FAILED/CANCELLED/timeout.
    ///
    /// Push-first: subscribes to the container's `GET /events` stream and
    /// blocks on this job's terminal `job.*` event, so waiting out a long
    /// job costs a handful of requests instead of one per poll interval.
    /// When the server predates `/events`, or the stream drops twice, the
    /// wait falls back to [`JobHandle::wait_polling`]'s loop.
    ///
    /// # Errors
    ///
    /// [`ServiceError::JobFailed`] with the server's reason, or
    /// [`ServiceError::Timeout`].
    pub fn wait(mut self, timeout: Duration) -> Result<JobRepresentation, ServiceError> {
        let deadline = Instant::now() + timeout;
        if !self.rep.state.is_terminal() && sse::service_segment(&self.rep.uri).is_some() {
            if let Ok(stream) = sse::subscribe(
                &self.base,
                "job.",
                None,
                SSE_CONNECT_TIMEOUT,
                sse::DEFAULT_HEARTBEAT,
            ) {
                // The job may have turned terminal before the subscription
                // existed; one refresh closes that race. Anything happening
                // after this fetch reaches the already-open stream.
                self.refresh()?;
                return self
                    .wait_streamed(stream, deadline.saturating_duration_since(Instant::now()));
            }
        }
        self.wait_polling_until(deadline)
    }

    /// [`JobHandle::wait`] over an already-open `job.` event stream —
    /// typically one subscribed *before* the job was submitted (see
    /// [`ServiceClient::call`]), which closes the fast-job race without any
    /// extra status request.
    ///
    /// # Errors
    ///
    /// See [`JobHandle::wait`].
    pub fn wait_streamed(
        mut self,
        stream: sse::EventStream,
        timeout: Duration,
    ) -> Result<JobRepresentation, ServiceError> {
        let deadline = Instant::now() + timeout;
        if !self.rep.state.is_terminal() {
            if let Some(service) = sse::service_segment(&self.rep.uri).map(str::to_string) {
                match sse::watch_job_on(
                    &self.base,
                    stream,
                    &service,
                    self.rep.id.as_str(),
                    deadline,
                ) {
                    sse::WatchResult::Terminal(_) => {
                        // One status request fetches outputs (or the error);
                        // the poll loop below sees a terminal state and
                        // returns without sleeping.
                        self.refresh()?;
                    }
                    sse::WatchResult::TimedOut => return Err(ServiceError::Timeout),
                    sse::WatchResult::Dropped => {}
                }
            }
        }
        self.wait_polling_until(deadline)
    }

    /// Classic poll-only wait (the §2 client loop) — the forced-poll mode
    /// used against servers without `/events` and by benchmarks comparing
    /// poll and push request volume.
    ///
    /// # Errors
    ///
    /// See [`JobHandle::wait`].
    pub fn wait_polling(self, timeout: Duration) -> Result<JobRepresentation, ServiceError> {
        self.wait_polling_until(Instant::now() + timeout)
    }

    fn wait_polling_until(mut self, deadline: Instant) -> Result<JobRepresentation, ServiceError> {
        let mut backoff = PollBackoff::new();
        loop {
            match self.rep.state {
                JobState::Done => return Ok(self.rep),
                JobState::Failed => {
                    return Err(ServiceError::JobFailed(
                        self.rep.error.unwrap_or_else(|| "unknown reason".into()),
                    ))
                }
                JobState::Cancelled => {
                    return Err(ServiceError::JobFailed("job was cancelled".into()))
                }
                JobState::Waiting | JobState::Running => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(ServiceError::Timeout);
                    }
                    std::thread::sleep(backoff.next_pause().min(deadline - now));
                    self.refresh()?;
                }
            }
        }
    }

    /// Cancels the job (or deletes a finished job's data).
    ///
    /// # Errors
    ///
    /// [`ServiceError`] when the DELETE is rejected.
    pub fn cancel(&self) -> Result<(), ServiceError> {
        let resp = self
            .client
            .delete(&self.job_url())
            .map_err(|e| ServiceError::Transport(e.to_string()))?;
        if resp.status.is_success() {
            Ok(())
        } else {
            Err(http_error(&resp))
        }
    }

    /// Downloads a file output (an absolute URL from a DONE representation).
    ///
    /// # Errors
    ///
    /// [`ServiceError`] on transport or HTTP failure.
    pub fn download(&self, file_url: &str) -> Result<Vec<u8>, ServiceError> {
        let resp = self
            .client
            .get(file_url)
            .map_err(|e| ServiceError::Transport(e.to_string()))?;
        if !resp.status.is_success() {
            return Err(http_error(&resp));
        }
        Ok(resp.body)
    }
}

/// Lists the services deployed on a container.
///
/// # Errors
///
/// [`ServiceError`] on transport, HTTP or payload problems.
pub fn list_services(container_url: &str) -> Result<Vec<ServiceDescription>, ServiceError> {
    let client = Client::new();
    let url = format!("{}/services", container_url.trim_end_matches('/'));
    let resp = client
        .get(&url)
        .map_err(|e| ServiceError::Transport(e.to_string()))?;
    if !resp.status.is_success() {
        return Err(http_error(&resp));
    }
    let doc = resp
        .body_json()
        .map_err(|e| ServiceError::Protocol(e.to_string()))?;
    let arr = doc
        .as_array()
        .ok_or_else(|| ServiceError::Protocol("service list is not an array".into()))?;
    arr.iter()
        .map(|v| {
            ServiceDescription::from_value(v).map_err(|e| ServiceError::Protocol(e.to_string()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathcloud_core::Parameter;
    use mathcloud_everest::adapter::NativeAdapter;
    use mathcloud_everest::Everest;
    use mathcloud_json::{json, Schema};

    fn demo_server() -> (mathcloud_http::Server, String) {
        let e = Everest::new("demo");
        e.deploy(
            ServiceDescription::new("sum", "adds")
                .input(Parameter::new("a", Schema::integer()))
                .input(Parameter::new("b", Schema::integer()))
                .output(Parameter::new("total", Schema::integer())),
            NativeAdapter::from_fn(|inputs, _| {
                let a = inputs.get("a").and_then(Value::as_i64).unwrap_or(0);
                let b = inputs.get("b").and_then(Value::as_i64).unwrap_or(0);
                Ok([("total".to_string(), json!(a + b))].into_iter().collect())
            }),
        );
        e.deploy(
            ServiceDescription::new("slow", "sleeps then fails"),
            NativeAdapter::from_fn(|_, _| {
                std::thread::sleep(Duration::from_millis(50));
                Err("exhausted".into())
            }),
        );
        let server = mathcloud_everest::serve(e, "127.0.0.1:0", None).unwrap();
        let base = server.base_url();
        (server, base)
    }

    #[test]
    fn describe_submit_wait_round_trip() {
        let (_server, base) = demo_server();
        let svc = ServiceClient::connect(&format!("{base}/services/sum")).unwrap();
        let desc = svc.describe().unwrap();
        assert_eq!(desc.name(), "sum");
        let done = svc
            .call(&json!({"a": 4, "b": 38}), Duration::from_secs(5))
            .unwrap();
        assert_eq!(done.state, JobState::Done);
        assert_eq!(
            done.outputs.unwrap().get("total").unwrap().as_i64(),
            Some(42)
        );
    }

    #[test]
    fn failed_jobs_surface_the_server_reason() {
        let (_server, base) = demo_server();
        let svc = ServiceClient::connect(&format!("{base}/services/slow")).unwrap();
        let err = svc.call(&json!({}), Duration::from_secs(5)).unwrap_err();
        assert!(
            matches!(&err, ServiceError::JobFailed(m) if m.contains("exhausted")),
            "{err}"
        );
    }

    #[test]
    fn validation_errors_map_to_http_400() {
        let (_server, base) = demo_server();
        let svc = ServiceClient::connect(&format!("{base}/services/sum")).unwrap();
        let err = svc.submit(&json!({"a": "wrong"})).unwrap_err();
        assert!(
            matches!(err, ServiceError::Http { status: 400, .. }),
            "{err}"
        );
    }

    #[test]
    fn cancel_deletes_finished_jobs() {
        let (_server, base) = demo_server();
        let svc = ServiceClient::connect(&format!("{base}/services/sum")).unwrap();
        let job = svc.submit(&json!({"a": 1, "b": 1})).unwrap();
        let mut polled = job.clone();
        // Wait for completion, then DELETE the job resource.
        while !polled.refresh().unwrap().state.is_terminal() {
            std::thread::sleep(Duration::from_millis(5));
        }
        job.cancel().unwrap();
        let mut gone = job.clone();
        assert!(matches!(
            gone.refresh().unwrap_err(),
            ServiceError::Http { status: 404, .. }
        ));
    }

    #[test]
    fn list_services_enumerates_container() {
        let (_server, base) = demo_server();
        let services = list_services(&base).unwrap();
        let names: Vec<&str> = services.iter().map(|d| d.name()).collect();
        assert_eq!(names, ["sum", "slow"]);
    }

    #[test]
    fn connect_rejects_garbage_urls() {
        assert!(ServiceClient::connect("ftp://nope").is_err());
    }

    #[test]
    fn memo_hits_surface_on_the_handle() {
        let e = Everest::new("memo-demo");
        e.deploy(
            ServiceDescription::new("sum", "adds")
                .input(Parameter::new("a", Schema::integer()))
                .input(Parameter::new("b", Schema::integer()))
                .output(Parameter::new("total", Schema::integer())),
            NativeAdapter::from_fn(|inputs, _| {
                let a = inputs.get("a").and_then(Value::as_i64).unwrap_or(0);
                let b = inputs.get("b").and_then(Value::as_i64).unwrap_or(0);
                Ok([("total".to_string(), json!(a + b))].into_iter().collect())
            }),
        );
        e.set_result_memoization(true);
        let server = mathcloud_everest::serve(e, "127.0.0.1:0", None).unwrap();
        let base = server.base_url();
        let svc = ServiceClient::connect(&format!("{base}/services/sum")).unwrap();
        let first = svc.submit(&json!({"a": 20, "b": 22})).unwrap();
        assert!(!first.was_memo_hit(), "a cold submission is a miss");
        let mut settled = first.clone();
        while !settled.refresh().unwrap().state.is_terminal() {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Same semantics, different wire accidents: reordered keys and a
        // float spelling of the same integers.
        let repeat = svc.submit(&json!({"b": 22.0, "a": 20.0})).unwrap();
        assert!(repeat.was_memo_hit(), "identical resubmission hits");
        assert_eq!(
            repeat.representation().id.as_str(),
            first.representation().id.as_str(),
            "the hit reuses the original job"
        );
        assert_eq!(repeat.representation().state, JobState::Done);
    }

    #[test]
    fn request_ids_round_trip_through_the_server() {
        let (_server, base) = demo_server();
        let svc = ServiceClient::connect(&format!("{base}/services/sum")).unwrap();
        let job = svc
            .submit_with_request_id(&json!({"a": 1, "b": 2}), "client-rid-0042")
            .unwrap();
        assert_eq!(job.request_id(), "client-rid-0042");
        // Auto-generated ids are minted client-side and echoed unchanged.
        let job = svc.submit(&json!({"a": 1, "b": 2})).unwrap();
        assert_eq!(job.request_id().len(), 16);
        assert!(job.request_id().bytes().all(|b| b.is_ascii_hexdigit()));
    }
}
