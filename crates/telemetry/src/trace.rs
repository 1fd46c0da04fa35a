//! Structured tracing: spans, events, a bounded ring-buffer recorder and
//! request-id propagation.
//!
//! Timestamps are monotonic `Duration`s since a process-wide anchor (first
//! telemetry touch), so recorded spans order correctly even if the wall clock
//! steps. Request ids are generated at the HTTP server edge (or supplied by
//! the client in the `X-MC-Request-Id` header) and threaded through
//! container → job manager → adapter → response, letting one logical request
//! be correlated across every component it crossed.

use crate::rng;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The header carrying the request id end to end.
pub const REQUEST_ID_HEADER: &str = "X-MC-Request-Id";

fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// Monotonic time since the process-wide anchor.
pub(crate) fn monotonic_now() -> Duration {
    anchor().elapsed()
}

/// Generate a fresh request id: 16 lowercase hex chars, unique per process
/// (counter-based) and distinct across processes (seeded from wall clock and
/// pid).
pub fn next_request_id() -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    static SEED: OnceLock<u64> = OnceLock::new();
    let seed = *SEED.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e37_79b9_7f4a_7c15);
        rng::splitmix64(nanos ^ ((std::process::id() as u64) << 32))
    });
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    format!("{:016x}", rng::splitmix64(seed.wrapping_add(n)))
}

/// Whether a client-supplied request id is safe to echo and record: 1–128
/// visible ASCII characters, no spaces, quotes or control bytes.
pub fn is_valid_request_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 128
        && id
            .bytes()
            .all(|b| (0x21..=0x7e).contains(&b) && b != b'"' && b != b'\\')
}

/// Event severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Debug,
    Info,
    Warn,
    Error,
}

impl Level {
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "DEBUG",
            Level::Info => "INFO",
            Level::Warn => "WARN",
            Level::Error => "ERROR",
        }
    }
}

/// One recorded occurrence: a log-like event, or the completion of a span
/// (in which case `duration` is set).
#[derive(Clone, Debug)]
pub struct Event {
    /// Monotonic timestamp since the process anchor.
    pub ts: Duration,
    pub level: Level,
    pub name: String,
    pub request_id: Option<String>,
    pub fields: Vec<(String, String)>,
    /// For span-completion events: how long the span ran.
    pub duration: Option<Duration>,
}

impl Event {
    /// Single-line rendering, for dumping the ring buffer to a terminal.
    pub fn render(&self) -> String {
        let mut s = format!(
            "[{:>12.6}] {:5} {}",
            self.ts.as_secs_f64(),
            self.level.as_str(),
            self.name
        );
        if let Some(rid) = &self.request_id {
            s.push_str(&format!(" rid={rid}"));
        }
        if let Some(d) = self.duration {
            s.push_str(&format!(" duration={:.6}s", d.as_secs_f64()));
        }
        for (k, v) in &self.fields {
            s.push_str(&format!(" {k}={v}"));
        }
        s
    }
}

/// Bounded ring buffer of [`Event`]s. When full, the oldest event is dropped:
/// recording is O(1) and the buffer never grows past its capacity, so leaving
/// tracing always-on costs a bounded amount of memory.
pub struct Recorder {
    buf: Mutex<VecDeque<Event>>,
    cap: usize,
}

impl Recorder {
    pub fn new(cap: usize) -> Self {
        Recorder {
            buf: Mutex::new(VecDeque::with_capacity(cap.min(4096))),
            cap: cap.max(1),
        }
    }

    /// The process-wide recorder (capacity 2048 events).
    pub fn global() -> &'static Recorder {
        static GLOBAL: OnceLock<Recorder> = OnceLock::new();
        GLOBAL.get_or_init(|| Recorder::new(2048))
    }

    pub fn record(&self, event: Event) {
        let mut buf = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        if buf.len() == self.cap {
            buf.pop_front();
        }
        buf.push_back(event);
    }

    /// Record a plain event at `level`.
    pub fn emit(
        &self,
        level: Level,
        name: &str,
        request_id: Option<&str>,
        fields: &[(&str, &str)],
    ) {
        self.record(Event {
            ts: monotonic_now(),
            level,
            name: name.to_string(),
            request_id: request_id.map(str::to_string),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            duration: None,
        });
    }

    /// Start a span; the completion event (with duration) is recorded when the
    /// returned guard is dropped or [`SpanGuard::finish`]ed.
    pub fn span(&self, name: &str, request_id: Option<&str>) -> SpanGuard<'_> {
        SpanGuard {
            recorder: self,
            name: name.to_string(),
            request_id: request_id.map(str::to_string),
            fields: Vec::new(),
            start: Instant::now(),
            start_ts: monotonic_now(),
            done: false,
        }
    }

    /// Snapshot of all buffered events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        let buf = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        buf.iter().cloned().collect()
    }

    /// Buffered events carrying the given request id, oldest first.
    pub fn events_for(&self, request_id: &str) -> Vec<Event> {
        self.events()
            .into_iter()
            .filter(|e| e.request_id.as_deref() == Some(request_id))
            .collect()
    }

    pub fn len(&self) -> usize {
        self.buf.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn clear(&self) {
        self.buf.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

/// An in-flight span. Records a completion event on drop.
pub struct SpanGuard<'a> {
    recorder: &'a Recorder,
    name: String,
    request_id: Option<String>,
    fields: Vec<(String, String)>,
    start: Instant,
    start_ts: Duration,
    done: bool,
}

impl SpanGuard<'_> {
    /// Attach a key/value field to the span's completion event.
    pub fn field(&mut self, key: &str, value: &str) {
        self.fields.push((key.to_string(), value.to_string()));
    }

    /// End the span now, returning its duration.
    pub fn finish(mut self) -> Duration {
        let d = self.start.elapsed();
        self.complete(d);
        d
    }

    fn complete(&mut self, duration: Duration) {
        if self.done {
            return;
        }
        self.done = true;
        self.recorder.record(Event {
            ts: self.start_ts,
            level: Level::Info,
            name: self.name.clone(),
            request_id: self.request_id.take(),
            fields: std::mem::take(&mut self.fields),
            duration: Some(duration),
        });
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let d = self.start.elapsed();
        self.complete(d);
    }
}

/// Record an info event on the global recorder.
pub fn info(name: &str, request_id: Option<&str>, fields: &[(&str, &str)]) {
    Recorder::global().emit(Level::Info, name, request_id, fields);
}

/// Record a warning event on the global recorder.
pub fn warn(name: &str, request_id: Option<&str>, fields: &[(&str, &str)]) {
    Recorder::global().emit(Level::Warn, name, request_id, fields);
}

/// Record an error event on the global recorder.
pub fn error(name: &str, request_id: Option<&str>, fields: &[(&str, &str)]) {
    Recorder::global().emit(Level::Error, name, request_id, fields);
}

/// Start a span on the global recorder.
pub fn span(name: &str, request_id: Option<&str>) -> SpanGuard<'static> {
    Recorder::global().span(name, request_id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_ids_are_unique_and_valid() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let id = next_request_id();
            assert_eq!(id.len(), 16);
            assert!(id.bytes().all(|b| b.is_ascii_hexdigit()));
            assert!(is_valid_request_id(&id));
            assert!(seen.insert(id));
        }
    }

    #[test]
    fn request_id_validation_rejects_junk() {
        assert!(!is_valid_request_id(""));
        assert!(!is_valid_request_id("has space"));
        assert!(!is_valid_request_id("tab\there"));
        assert!(!is_valid_request_id("quo\"te"));
        assert!(!is_valid_request_id(&"x".repeat(129)));
        assert!(is_valid_request_id("client-supplied-id-42"));
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let rec = Recorder::new(3);
        for i in 0..5 {
            rec.emit(Level::Info, &format!("e{i}"), None, &[]);
        }
        let names: Vec<String> = rec.events().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["e2", "e3", "e4"]);
        assert_eq!(rec.len(), 3);
    }

    #[test]
    fn spans_record_duration_and_request_id() {
        let rec = Recorder::new(16);
        {
            let mut span = rec.span("job.run", Some("rid-1"));
            span.field("service", "inverse");
            std::thread::sleep(Duration::from_millis(2));
        }
        let evs = rec.events_for("rid-1");
        assert_eq!(evs.len(), 1);
        let ev = &evs[0];
        assert_eq!(ev.name, "job.run");
        assert!(ev.duration.expect("span has duration") >= Duration::from_millis(1));
        assert_eq!(
            ev.fields,
            vec![("service".to_string(), "inverse".to_string())]
        );
        assert!(ev.render().contains("rid=rid-1"));
    }

    #[test]
    fn timestamps_are_monotonic() {
        let rec = Recorder::new(64);
        for i in 0..10 {
            rec.emit(Level::Debug, &format!("t{i}"), None, &[]);
        }
        let evs = rec.events();
        assert!(evs.windows(2).all(|w| w[0].ts <= w[1].ts));
    }

    #[test]
    fn finish_is_idempotent_with_drop() {
        let rec = Recorder::new(16);
        let span = rec.span("once", None);
        span.finish();
        assert_eq!(rec.len(), 1);
    }
}
