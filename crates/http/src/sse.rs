//! Server-Sent Events over the blocking HTTP stack.
//!
//! The server side turns the process-wide [`mathcloud_events::Bus`] into a
//! `GET /events` endpoint: a [`Response::streaming`] body that replays
//! backlog after the client's `Last-Event-ID` (the ring, and behind it what
//! the journals hold once the ring has moved on), then relays live events,
//! with comment heartbeats so dead clients are detected and worker threads
//! reclaimed. The client side
//! is a minimal incremental `text/event-stream` reader used by
//! `mathcloud-client` (`ServiceClient::call`, `JobHandle::wait`, and through
//! them the workflow engine) to subscribe instead of polling.
//!
//! Wire format per event (one [`mathcloud_events::Envelope`] each):
//!
//! ```text
//! id: 42
//! event: job.done
//! data: {"id":42,"kind":"job.done","time_ms":...,"request_id":...,"payload":{...}}
//! ```

use std::io::{self, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use mathcloud_events::{Bus, Envelope, KindFilter};

use crate::message::{Method, Request, Response};
use crate::url::Url;
use crate::wire;

/// Default heartbeat interval for `GET /events` streams.
pub const DEFAULT_HEARTBEAT: Duration = Duration::from_secs(15);

/// Connect timeout for client-side subscriptions.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// Writes one envelope in SSE framing and flushes.
fn write_event(w: &mut dyn Write, ev: &Envelope) -> io::Result<()> {
    write!(w, "id: {}\nevent: {}\ndata: {ev}\n\n", ev.id, ev.kind)?;
    w.flush()
}

/// Builds the `GET /events` response over `bus`.
///
/// Query parameters:
///
/// * `kinds=job.,pool.` — comma-separated kind prefixes ([`KindFilter`]),
/// * `heartbeat_ms=...` — comment-heartbeat interval (default 15 s; the
///   heartbeat is how the server notices a vanished client and frees the
///   worker thread),
/// * `after=...` — resume point for clients that cannot set headers.
///
/// The standard `Last-Event-ID` request header takes precedence over
/// `after`; both mean "replay everything newer than this id".
pub fn events_response(req: &Request, bus: &'static Bus) -> Response {
    let filter = KindFilter::parse(&req.query("kinds").unwrap_or_default());
    let after: Option<u64> = req
        .headers
        .get("Last-Event-ID")
        .map(str::to_string)
        .or_else(|| req.query("after"))
        .and_then(|v| v.trim().parse().ok());
    let heartbeat = req
        .query("heartbeat_ms")
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(DEFAULT_HEARTBEAT, |ms| {
            Duration::from_millis(ms.clamp(10, 600_000))
        });

    // Attached before the 200 head goes out, since a client may act as soon
    // as it has it. Replay and live attachment happen atomically under the
    // bus lock: no event published in between can be missed or duplicated.
    let (backlog, sub) = bus.subscribe_from(after, filter, mathcloud_events::DEFAULT_QUEUE);
    Response::streaming(200, "text/event-stream", move |w, ctl| {
        for ev in &backlog {
            write_event(w, ev)?;
        }
        // Waits are sliced so a stopping server is observed within ~250 ms
        // even with a long heartbeat interval.
        let slice = heartbeat.min(Duration::from_millis(250));
        let mut quiet = Duration::ZERO;
        loop {
            if ctl.is_stopped() {
                return Ok(());
            }
            match sub.recv_timeout(slice) {
                Some(ev) => {
                    write_event(w, &ev)?;
                    quiet = Duration::ZERO;
                }
                None => {
                    quiet += slice;
                    if quiet >= heartbeat {
                        // Comment heartbeat: ignored by clients, but the
                        // write fails once the peer is gone, ending the
                        // stream and freeing the streamer thread.
                        w.write_all(b": hb\n\n")?;
                        w.flush()?;
                        quiet = Duration::ZERO;
                    }
                }
            }
        }
    })
}

/// One parsed item from an event stream.
#[derive(Debug, Clone, PartialEq)]
pub enum SseItem {
    /// A full event.
    Event(SseEvent),
    /// A comment heartbeat (connection alive, nothing new).
    Heartbeat,
    /// The server closed the stream.
    Closed,
}

/// A parsed SSE event.
#[derive(Debug, Clone, PartialEq)]
pub struct SseEvent {
    /// The `id:` field, when numeric.
    pub id: Option<u64>,
    /// The `event:` field (the envelope kind).
    pub kind: String,
    /// The `data:` field — the JSON-serialized envelope.
    pub data: String,
}

impl SseEvent {
    /// Decodes the `data:` field back into an [`Envelope`].
    pub fn envelope(&self) -> Option<Envelope> {
        Envelope::from_json(&mathcloud_json::parse(&self.data).ok()?)
    }
}

/// Why an SSE subscription could not be established.
#[derive(Debug)]
pub enum SubscribeError {
    /// The server answered, but not with an event stream — it predates
    /// `GET /events`. Callers fall back to polling.
    Unsupported(u16),
    /// Transport failure (callers also fall back, then retry).
    Io(io::Error),
}

impl std::fmt::Display for SubscribeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubscribeError::Unsupported(status) => {
                write!(f, "server does not stream events (HTTP {status})")
            }
            SubscribeError::Io(e) => write!(f, "event stream transport error: {e}"),
        }
    }
}

impl std::error::Error for SubscribeError {}

/// A live client-side event stream.
pub struct EventStream {
    reader: BufReader<TcpStream>,
    /// Highest event id seen, the value to resume with after a drop.
    pub last_id: Option<u64>,
}

/// Opens `GET /events` on `base`'s authority and returns the live stream.
///
/// `kinds` is the comma-separated prefix filter (empty = everything);
/// `last_event_id` resumes after a dropped connection. `read_timeout` bounds
/// every read — pick it larger than the server's heartbeat interval so a
/// healthy-but-quiet stream never times out.
///
/// # Errors
///
/// [`SubscribeError::Unsupported`] when the server predates `/events` (the
/// caller's cue to fall back to polling), [`SubscribeError::Io`] for
/// transport failures.
pub fn subscribe(
    base: &Url,
    kinds: &str,
    last_event_id: Option<u64>,
    connect_timeout: Duration,
    read_timeout: Duration,
) -> Result<EventStream, SubscribeError> {
    let stream = connect(base, connect_timeout).map_err(SubscribeError::Io)?;
    stream
        .set_read_timeout(Some(read_timeout))
        .map_err(SubscribeError::Io)?;
    stream.set_nodelay(true).map_err(SubscribeError::Io)?;

    let target = if kinds.is_empty() {
        "/events".to_string()
    } else {
        format!("/events?kinds={}", crate::url::percent_encode(kinds))
    };
    let mut req = Request::new(Method::Get, &target).with_header("Accept", "text/event-stream");
    if let Some(id) = last_event_id {
        req = req.with_header("Last-Event-ID", &id.to_string());
    }
    let mut writer = stream.try_clone().map_err(SubscribeError::Io)?;
    wire::write_request(&mut writer, &req, &base.authority()).map_err(SubscribeError::Io)?;

    let mut reader = BufReader::new(stream);
    let head = wire::read_response(&mut reader).map_err(SubscribeError::Io)?;
    let is_stream = head.status.as_u16() == 200
        && head
            .headers
            .get("content-type")
            .is_some_and(|ct| ct.starts_with("text/event-stream"));
    if !is_stream {
        return Err(SubscribeError::Unsupported(head.status.as_u16()));
    }
    Ok(EventStream {
        reader,
        last_id: last_event_id,
    })
}

fn connect(url: &Url, timeout: Duration) -> io::Result<TcpStream> {
    let addrs: Vec<_> = (url.host(), url.port()).to_socket_addrs()?.collect();
    let mut last = None;
    for addr in addrs {
        match TcpStream::connect_timeout(&addr, timeout) {
            Ok(s) => return Ok(s),
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no addresses resolved")))
}

impl EventStream {
    /// Adjusts the per-read timeout mid-stream (deadline slicing).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn set_read_timeout(&self, timeout: Duration) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(Some(timeout))
    }

    /// Blocks for the next item. A read timeout surfaces as an `Err` of kind
    /// `WouldBlock`/`TimedOut` — with a read timeout above the server's
    /// heartbeat interval that means the server is gone, not just quiet.
    ///
    /// # Errors
    ///
    /// Socket errors and read timeouts.
    pub fn next(&mut self) -> io::Result<SseItem> {
        let mut event = SseEvent {
            id: None,
            kind: String::new(),
            data: String::new(),
        };
        let mut saw_field = false;
        let mut saw_comment = false;
        loop {
            let Some(line) = wire::read_line(&mut self.reader, true)? else {
                return Ok(SseItem::Closed);
            };
            if line.is_empty() {
                if saw_field {
                    if let Some(id) = event.id {
                        self.last_id = Some(id);
                    }
                    return Ok(SseItem::Event(event));
                }
                if saw_comment {
                    return Ok(SseItem::Heartbeat);
                }
                continue;
            }
            if line.starts_with(':') {
                saw_comment = true;
                continue;
            }
            let (field, value) = match line.split_once(':') {
                Some((f, v)) => (f, v.strip_prefix(' ').unwrap_or(v)),
                None => (line.as_str(), ""),
            };
            match field {
                "id" => event.id = value.trim().parse().ok(),
                "event" => event.kind = value.to_string(),
                "data" => {
                    if !event.data.is_empty() {
                        event.data.push('\n');
                    }
                    event.data.push_str(value);
                }
                _ => {} // unknown fields are ignored per the SSE spec
            }
            saw_field = true;
        }
    }
}

impl std::fmt::Debug for EventStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventStream")
            .field("last_id", &self.last_id)
            .finish()
    }
}

/// The terminal state a job watch observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    Done,
    Failed,
    Cancelled,
}

/// How a job watch ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchResult {
    /// A terminal `job.*` event for the watched job arrived.
    Terminal(JobOutcome),
    /// The deadline passed with the job still running.
    TimedOut,
    /// The stream broke after being established (caller may resume with
    /// `Last-Event-ID` or fall back to polling).
    Dropped,
}

/// Watches an open `/events` stream for a terminal event of
/// `service`/`job_id`, resuming once across a dropped connection via
/// `Last-Event-ID`, until `deadline`. On [`WatchResult::Terminal`] the caller
/// fetches the final representation with a single status request.
///
/// Subscribing *before* submitting the job and handing the stream here
/// closes the race where a fast job publishes its terminal event between the
/// submit response and a later subscription — such an event would otherwise
/// be live-streamed to nobody, leaving the watcher blocked until `deadline`.
pub fn watch_job_on(
    base: &Url,
    mut stream: EventStream,
    service: &str,
    job_id: &str,
    deadline: std::time::Instant,
) -> WatchResult {
    let mut resumed = false;
    loop {
        let now = std::time::Instant::now();
        if now >= deadline {
            return WatchResult::TimedOut;
        }
        // Slice the socket timeout to the deadline, but never below the
        // heartbeat interval detection floor.
        let slice = (deadline - now).min(DEFAULT_HEARTBEAT + Duration::from_secs(5));
        if stream.set_read_timeout(slice).is_err() {
            return WatchResult::Dropped;
        }
        match stream.next() {
            Ok(SseItem::Event(ev)) => {
                let Some(env) = ev.envelope() else { continue };
                let outcome = match env.kind.as_str() {
                    "job.done" => JobOutcome::Done,
                    "job.failed" => JobOutcome::Failed,
                    "job.cancelled" => JobOutcome::Cancelled,
                    _ => continue,
                };
                let matches = env.payload.get("service").and_then(|v| v.as_str()) == Some(service)
                    && env.payload.get("job").and_then(|v| v.as_str()) == Some(job_id);
                if matches {
                    return WatchResult::Terminal(outcome);
                }
            }
            Ok(SseItem::Heartbeat) => {}
            Ok(SseItem::Closed) | Err(_) => {
                // One reconnect attempt with Last-Event-ID; a second drop
                // sends the caller to its poll fallback.
                if resumed {
                    return WatchResult::Dropped;
                }
                resumed = true;
                match subscribe(
                    base,
                    "job.",
                    stream.last_id,
                    CONNECT_TIMEOUT,
                    DEFAULT_HEARTBEAT,
                ) {
                    Ok(s) => stream = s,
                    Err(_) => return WatchResult::Dropped,
                }
            }
        }
    }
}

/// The `{name}` of a `/services/{name}/jobs/{id}` job URI — the service
/// segment the container's `job.*` event payloads carry, needed to filter a
/// watch down to one job.
pub fn service_segment(uri: &str) -> Option<&str> {
    let mut parts = uri.trim_start_matches('/').split('/');
    if parts.next() != Some("services") {
        return None;
    }
    parts.next().filter(|s| !s.is_empty())
}

/// Convenience: mounts `GET /events` over `bus` on a router.
pub fn mount_events(router: &mut crate::Router, bus: &'static Bus) {
    let bus: &'static Bus = bus;
    router.get("/events", move |req: &Request, _p: &crate::PathParams| {
        events_response(req, bus)
    });
}
