//! The MathCloud event bus: push, don't poll.
//!
//! The paper's REST model makes every client poll job status and the
//! catalogue poll every container — at scale that polling dominates the
//! request load. This crate is the substrate that replaces it: a
//! process-wide broadcast [`Bus`] carrying typed [`Envelope`]s
//! (monotonically increasing `id`, dotted `kind`, unix-millisecond `time`,
//! the originating `X-MC-Request-Id`, and a JSON payload) from the layers
//! that already know about lifecycle edges — job state transitions, pool
//! scaling, catalogue availability flips, workflow block transitions,
//! circuit-breaker state changes — to anything that wants to watch.
//!
//! Delivery is fan-out over per-subscriber **bounded queues**: a subscriber
//! that cannot keep up loses its *oldest* queued events (counted by the
//! `mc_events_lag_total` metric and per-subscription [`Subscription::lagged`])
//! rather than stalling publishers or growing without bound. A bounded
//! in-memory **replay ring** serves recent history to late subscribers.
//!
//! Publishing is two steps, **stage** and **release**. [`Bus::stage`] gives
//! an event its id and queues it, in id order, on behalf of a [`Source`] —
//! whoever makes it durable; [`Bus::release`] is that source saying
//! "everything I staged up to id N is on disk", and the bus then delivers
//! the longest confirmed prefix of the queue to ring and subscribers. So
//! nothing is shown before it is durable, delivery is in id order, and a
//! publisher that stalls between the two steps is covered by the next
//! release of the same source. The bus's own optional append-only fsync'd
//! **journal** ([`Bus::attach_journal`], behind [`Bus::publish`]) is one such
//! source; the container's job journal, whose records carry the ids of the
//! `job.*` events they cause, is another. Ids resume past both over a
//! restart, and [`Bus::subscribe_from`] replays backlog-after-`id` (the ring,
//! and behind it the journal and every attached [`History`]) and registers
//! for live delivery, which is exactly the contract `Last-Event-ID` resume
//! over Server-Sent Events needs.
//!
//! Everything is std-only, like the rest of the workspace.
//!
//! # Examples
//!
//! ```
//! use mathcloud_events::{Bus, KindFilter};
//! use mathcloud_json::json;
//! use std::time::Duration;
//!
//! let bus = Bus::with_ring(64);
//! let sub = bus.subscribe(KindFilter::parse("job."), 16);
//! bus.publish("job.done", Some("req-1"), json!({"job": "7"}));
//! bus.publish("breaker.state", None, json!({"state": "open"})); // filtered out
//! let ev = sub.recv_timeout(Duration::from_secs(1)).unwrap();
//! assert_eq!(ev.kind, "job.done");
//! assert_eq!(ev.request_id.as_deref(), Some("req-1"));
//! ```

pub mod jsonl;

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, SystemTime};

use mathcloud_json::{ser, Value};
use mathcloud_telemetry::metrics::{self, Counter};
use mathcloud_telemetry::sync::{Condvar, Mutex};

/// Ring capacity of the process-wide bus returned by [`global`].
pub const DEFAULT_RING: usize = 1024;

/// Default per-subscriber queue bound used by the SSE layer.
pub const DEFAULT_QUEUE: usize = 256;

fn describe_metrics() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let reg = metrics::global();
        reg.describe("mc_events_published_total", "events published, by kind");
        reg.describe(
            "mc_events_lag_total",
            "events dropped from lagging subscriber queues",
        );
        reg.describe("mc_events_subscribers", "live event-bus subscribers");
    });
}

/// One event on the bus.
///
/// `id` is assigned by the bus at publish time and increases monotonically
/// for the life of the journal (attaching a journal resumes numbering after
/// the last persisted id, so a restart never reuses ids).
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Monotonically increasing sequence number, 1-based.
    pub id: u64,
    /// Dotted event kind, e.g. `job.done`, `breaker.state`.
    pub kind: String,
    /// Publish time, unix milliseconds.
    pub time_ms: u64,
    /// The `X-MC-Request-Id` of the request that caused the event, when the
    /// publishing layer had one.
    pub request_id: Option<String>,
    /// Event-kind-specific JSON payload.
    pub payload: Value,
}

/// The envelope as a single-line JSON object — the journal record format and
/// the SSE `data:` field — written by reference: the payload is never cloned.
impl fmt::Display for Envelope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{\"id\":{},\"kind\":", self.id)?;
        ser::write_escaped(f, &self.kind)?;
        write!(f, ",\"time_ms\":{},\"request_id\":", self.time_ms)?;
        match &self.request_id {
            Some(r) => ser::write_escaped(f, r)?,
            None => f.write_str("null")?,
        }
        write!(f, ",\"payload\":{}}}", self.payload)
    }
}

impl Envelope {
    /// Parses an envelope from its [`fmt::Display`] form.
    ///
    /// Returns `None` when required fields are missing or mistyped — the
    /// journal reader uses this to skip a torn final record after a crash.
    pub fn from_json(v: &Value) -> Option<Envelope> {
        let id = v.get("id").and_then(Value::as_u64)?;
        let kind = v.get("kind").and_then(Value::as_str)?.to_string();
        let time_ms = v.get("time_ms").and_then(Value::as_u64)?;
        let request_id = v
            .get("request_id")
            .and_then(Value::as_str)
            .map(str::to_string);
        let payload = v.get("payload").cloned().unwrap_or(Value::Null);
        Some(Envelope {
            id,
            kind,
            time_ms,
            request_id,
            payload,
        })
    }
}

/// A set of dotted-kind prefixes, the `?kinds=job.,pool.` filter of the SSE
/// endpoint. An empty filter matches everything.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KindFilter {
    prefixes: Vec<String>,
}

impl KindFilter {
    /// The match-everything filter.
    pub fn all() -> KindFilter {
        KindFilter::default()
    }

    /// Parses a comma-separated prefix list; empty segments are ignored, so
    /// `""` parses to [`KindFilter::all`].
    pub fn parse(spec: &str) -> KindFilter {
        KindFilter {
            prefixes: spec
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect(),
        }
    }

    /// Whether `kind` passes the filter.
    pub fn matches(&self, kind: &str) -> bool {
        self.prefixes.is_empty() || self.prefixes.iter().any(|p| kind.starts_with(p.as_str()))
    }
}

/// Subscriber state shared between the bus (producer side) and the
/// [`Subscription`] handle (consumer side).
struct SubShared {
    queue: Mutex<VecDeque<Arc<Envelope>>>,
    ready: Condvar,
    capacity: usize,
    filter: KindFilter,
    closed: AtomicBool,
    lagged: AtomicU64,
}

/// A live subscription: a bounded queue the bus pushes matching events into.
///
/// Dropping the subscription detaches it from the bus.
pub struct Subscription {
    shared: Arc<SubShared>,
}

impl Subscription {
    /// Blocks up to `timeout` for the next event; `None` on timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Arc<Envelope>> {
        let deadline = std::time::Instant::now() + timeout;
        let mut q = self.shared.queue.lock();
        loop {
            if let Some(ev) = q.pop_front() {
                return Some(ev);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            self.shared.ready.wait_for(&mut q, deadline - now);
        }
    }

    /// The next event if one is already queued.
    pub fn try_recv(&self) -> Option<Arc<Envelope>> {
        self.shared.queue.lock().pop_front()
    }

    /// How many events this subscriber has lost to its queue bound.
    pub fn lagged(&self) -> u64 {
        self.shared.lagged.load(Ordering::Relaxed)
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::Relaxed);
        // Publishers prune closed subscribers lazily; the gauge is corrected
        // there too, but decrement eagerly so idle buses stay accurate.
        metrics::global()
            .gauge("mc_events_subscribers", &[])
            .add(-1);
    }
}

/// Reads every well-formed envelope from a journal file, oldest first.
///
/// Torn or corrupt lines (a crash mid-append) are skipped, not fatal.
///
/// # Errors
///
/// Propagates I/O errors opening or reading the file; a missing file is an
/// empty journal.
pub fn read_journal(path: &Path) -> io::Result<Vec<Envelope>> {
    let mut envelopes = Vec::new();
    jsonl::read_values(path, |v| envelopes.extend(Envelope::from_json(&v)))?;
    Ok(envelopes)
}

/// Who makes staged events durable: a journal, as seen from the bus. Each
/// source has a watermark — the highest id it has confirmed — that only
/// [`Bus::release`] moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Source(usize);

impl Source {
    /// What [`Bus::publish`] stages for on a bus without a journal: nothing
    /// will make these events durable, so they wait only for their turn.
    const SETTLED: Source = Source(0);
}

/// Someone who can still answer for events the ring has let go of — the
/// container answers for `job.*` from its job journal, which is why the
/// events journal need not hold them.
pub trait History: Send + Sync {
    /// The events it knows with `after < id < before`, in any order.
    fn events_between(&self, after: u64, before: u64) -> Vec<Envelope>;
}

/// Unix time in milliseconds, as envelopes and journal records are stamped.
pub fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

struct Inner {
    next_id: u64,
    ring: VecDeque<Arc<Envelope>>,
    ring_cap: usize,
    subs: Vec<Arc<SubShared>>,
    journal: Option<Arc<jsonl::Appender>>,
    /// The source [`Bus::publish`] stages for: the attached journal, or
    /// [`Source::SETTLED`] without one.
    own: Source,
    /// Per [`Source`], the highest id it has confirmed.
    confirmed: Vec<u64>,
    /// Staged events, in id order: each waits for its source to confirm its
    /// id, and for every event ahead of it.
    pending: VecDeque<(Arc<Envelope>, Source)>,
    histories: Vec<Weak<dyn History>>,
    /// `mc_events_published_total{kind}` handles, so a publish does not pay
    /// a registry lookup.
    published: HashMap<String, Counter>,
}

impl Inner {
    fn new_source(&mut self) -> Source {
        self.confirmed.push(0);
        Source(self.confirmed.len() - 1)
    }

    fn count_published(&mut self, kind: &str) {
        if let Some(counter) = self.published.get(kind) {
            counter.inc();
            return;
        }
        let counter = metrics::global().counter("mc_events_published_total", &[("kind", kind)]);
        counter.inc();
        self.published.insert(kind.to_string(), counter);
    }

    /// Gives each event the next id and queues it for `source`; `staged`
    /// sees every envelope in id order. Returns the last id assigned.
    fn stage<'a>(
        &mut self,
        source: Source,
        time_ms: u64,
        events: impl IntoIterator<Item = (&'a str, Option<&'a str>, Value)>,
        mut staged: impl FnMut(&Envelope),
    ) -> u64 {
        for (kind, request_id, payload) in events {
            self.next_id += 1;
            let ev = Arc::new(Envelope {
                id: self.next_id,
                kind: kind.to_string(),
                time_ms,
                request_id: request_id.map(str::to_string),
                payload,
            });
            staged(&ev);
            self.count_published(kind);
            self.pending.push_back((ev, source));
        }
        self.next_id
    }

    /// Raises `source`'s watermark to `through`, then moves the longest
    /// confirmed prefix of the queue onto the ring and into the matching
    /// subscriber queues, in id order.
    fn release(&mut self, source: Source, through: u64, lag: &Counter) {
        let confirmed = &mut self.confirmed[source.0];
        *confirmed = (*confirmed).max(through);
        let mut pruned = false;
        while self
            .pending
            .front()
            .is_some_and(|(ev, source)| ev.id <= self.confirmed[source.0])
        {
            let (ev, _) = self.pending.pop_front().expect("front just seen");
            if self.ring.len() == self.ring_cap {
                self.ring.pop_front();
            }
            self.ring.push_back(Arc::clone(&ev));
            for sub in &self.subs {
                if sub.closed.load(Ordering::Relaxed) {
                    pruned = true;
                    continue;
                }
                if !sub.filter.matches(&ev.kind) {
                    continue;
                }
                let mut q = sub.queue.lock();
                if q.len() == sub.capacity {
                    // Lagging subscriber: shed its oldest event so delivery
                    // stays bounded and recent events win.
                    q.pop_front();
                    sub.lagged.fetch_add(1, Ordering::Relaxed);
                    lag.inc();
                }
                q.push_back(Arc::clone(&ev));
                drop(q);
                sub.ready.notify_all();
            }
        }
        if pruned {
            self.subs.retain(|s| !s.closed.load(Ordering::Relaxed));
        }
    }
}

/// A broadcast bus with a replay ring and an optional journal.
///
/// Most code uses the process-wide [`global`] bus; tests construct their own
/// with [`Bus::with_ring`] to simulate restarts and tune ring sizes.
pub struct Bus {
    inner: Mutex<Inner>,
    lag: Counter,
    journal_errors: Counter,
}

impl Bus {
    /// A fresh bus whose replay ring holds at most `ring_cap` events.
    pub fn with_ring(ring_cap: usize) -> Bus {
        describe_metrics();
        Bus {
            inner: Mutex::new(Inner {
                next_id: 0,
                ring: VecDeque::new(),
                ring_cap: ring_cap.max(1),
                subs: Vec::new(),
                journal: None,
                own: Source::SETTLED,
                confirmed: vec![u64::MAX],
                pending: VecDeque::new(),
                histories: Vec::new(),
                published: HashMap::new(),
            }),
            lag: metrics::global().counter("mc_events_lag_total", &[]),
            journal_errors: metrics::global().counter("mc_events_journal_errors_total", &[]),
        }
    }

    /// Attaches an append-only journal for what [`Bus::publish`] publishes.
    ///
    /// Id numbering resumes after the highest id the journal holds, and
    /// `Last-Event-ID` resume reads it for what the ring no longer has, so
    /// both keep working across a restart.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors opening or reading the file.
    pub fn attach_journal(&self, path: &Path) -> io::Result<()> {
        let last = read_journal(path)?.last().map_or(0, |ev| ev.id);
        // `Appender::open` repairs a torn (newline-less) tail so the first
        // post-recovery publish cannot concatenate onto the fragment.
        let journal = Arc::new(jsonl::Appender::open(path, "events")?);
        let mut inner = self.inner.lock();
        let source = inner.new_source();
        let replaced = std::mem::replace(&mut inner.own, source);
        if let Some(old) = inner.journal.replace(journal) {
            // Whatever a publisher is still syncing belongs to the journal
            // being replaced; settle it so no later sync is taken to cover it.
            if let Err(e) = old.sync_to(old.stats().records) {
                self.journal_error(None, &e);
            }
            inner.release(replaced, u64::MAX, &self.lag);
        }
        inner.next_id = inner.next_id.max(last);
        Ok(())
    }

    /// What the attached journal has written and synced so far.
    pub fn journal_stats(&self) -> Option<jsonl::JournalStats> {
        self.inner.lock().journal.as_ref().map(|j| j.stats())
    }

    /// A new durability source, with nothing confirmed yet.
    pub fn source(&self) -> Source {
        self.inner.lock().new_source()
    }

    /// Stages `(kind, request_id, payload)` events for `source`: they get
    /// consecutive ids — the last is returned, [`Bus::last_id`] for none —
    /// and join the queue, but reach no ring and no subscriber until
    /// `source` has confirmed them ([`Bus::release`]) and everything staged
    /// before them has been delivered. O(1) per event, no I/O: callers stage
    /// inside the critical section that decides the event, so id order is
    /// the order things happened in.
    pub fn stage<'a>(
        &self,
        source: Source,
        events: impl IntoIterator<Item = (&'a str, Option<&'a str>, Value)>,
    ) -> u64 {
        let time_ms = now_ms();
        self.inner.lock().stage(source, time_ms, events, |_| {})
    }

    /// `source` confirms every event it staged with an id up to `through` —
    /// the record that makes the last of them true is on disk, hence those
    /// before it — and the longest confirmed prefix of the queue is
    /// delivered. A watermark, not a flag per event: a publisher that never
    /// comes back for its own event is covered by the next one that does.
    pub fn release(&self, source: Source, through: u64) {
        self.inner.lock().release(source, through, &self.lag);
    }

    /// Never lets an id at or below `id` be assigned: some other log already
    /// names it. The container calls this with the highest event id its job
    /// journal holds.
    pub fn resume_after(&self, id: u64) {
        let mut inner = self.inner.lock();
        inner.next_id = inner.next_id.max(id);
    }

    /// Publishes an event, returning its assigned id.
    ///
    /// The event is journaled (when a journal is attached), pushed onto the
    /// replay ring, and fanned out to every matching subscriber; the call
    /// returns once all of that has happened. A journal write failure is
    /// reported as a metric and a trace event, never a panic: losing
    /// durability must not take down the container.
    pub fn publish(&self, kind: &str, request_id: Option<&str>, payload: Value) -> u64 {
        self.publish_batch([(kind, request_id, payload)])
    }

    /// Publishes `(kind, request_id, payload)` events as one batch with
    /// consecutive ids and a single journal sync, returning the last id
    /// (or [`Bus::last_id`] for an empty batch).
    ///
    /// Stage and release with the bus's own journal as the source: records
    /// are written under the bus lock as the events are staged (journal
    /// order = id order), the sync happens with the lock released, so
    /// concurrent publishers share one `fsync`, and whoever comes back from
    /// a sync first releases everything up to its own last event.
    pub fn publish_batch<'a>(
        &self,
        events: impl IntoIterator<Item = (&'a str, Option<&'a str>, Value)>,
    ) -> u64 {
        let time_ms = now_ms();
        let mut inner = self.inner.lock();
        let (own, journal, before) = (inner.own, inner.journal.clone(), inner.next_id);
        let mut written = 0;
        let last = inner.stage(own, time_ms, events, |ev| {
            if let Some(j) = &journal {
                match j.write(ev.to_string()) {
                    Ok(pos) => written = pos,
                    Err(e) => self.journal_error(ev.request_id.as_deref(), &e),
                }
            }
        });
        if last == before {
            return last;
        }
        if let Some(j) = journal.filter(|_| written > 0) {
            drop(inner);
            if let Err(e) = j.sync_to(written) {
                self.journal_error(None, &e);
            }
            inner = self.inner.lock();
        }
        inner.release(own, last, &self.lag);
        last
    }

    fn journal_error(&self, request_id: Option<&str>, e: &io::Error) {
        self.journal_errors.inc();
        mathcloud_telemetry::trace::warn(
            "events.journal_error",
            request_id,
            &[("error", &e.to_string())],
        );
    }

    /// Registers someone to ask for events older than the ring, for as long
    /// as the `Weak` is alive.
    pub fn attach_history(&self, history: Weak<dyn History>) {
        let mut inner = self.inner.lock();
        inner.histories.retain(|h| h.strong_count() > 0);
        inner.histories.push(history);
    }

    /// Subscribes for live events matching `filter`, with a queue bound of
    /// `capacity` events.
    pub fn subscribe(&self, filter: KindFilter, capacity: usize) -> Subscription {
        self.subscribe_from(None, filter, capacity).1
    }

    /// Replays backlog and subscribes in one atomic step.
    ///
    /// With `after_id = Some(n)` the returned backlog holds every retained
    /// event with id > n that passes the filter, in id order: the ring, and
    /// before it — when the ring no longer reaches back to n — what the
    /// journal and the attached [`History`]s hold (for `job.*` that is each
    /// surviving job's latest event, not every one it ever had). No event
    /// published between the replay and the live attachment can be missed
    /// or duplicated: ring replay and attachment happen under the bus lock,
    /// and the older part is read afterwards, bounded by what was already
    /// delivered then.
    pub fn subscribe_from(
        &self,
        after_id: Option<u64>,
        filter: KindFilter,
        capacity: usize,
    ) -> (Vec<Arc<Envelope>>, Subscription) {
        let shared = Arc::new(SubShared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            filter,
            closed: AtomicBool::new(false),
            lagged: AtomicU64::new(0),
        });
        let filter = &shared.filter;
        let mut inner = self.inner.lock();
        let mut backlog = Vec::new();
        let mut older = None;
        if let Some(after) = after_id {
            // Everything delivered from `end` on is on the ring; what is
            // still queued reaches the subscriber live.
            let ring_first = inner.ring.front().map_or(u64::MAX, |ev| ev.id);
            let queue_first = inner.pending.front().map_or(u64::MAX, |(ev, _)| ev.id);
            let end = ring_first.min(queue_first).min(inner.next_id + 1);
            if after + 1 < end {
                older = Some((after, end, inner.journal.clone(), inner.histories.clone()));
            }
            backlog.extend(
                inner
                    .ring
                    .iter()
                    .filter(|ev| ev.id > after && filter.matches(&ev.kind))
                    .cloned(),
            );
        }
        inner.subs.push(Arc::clone(&shared));
        drop(inner);
        metrics::global().gauge("mc_events_subscribers", &[]).add(1);
        if let Some((after, end, journal, histories)) = older {
            let mut old = journal
                .and_then(|j| read_journal(j.path()).ok())
                .unwrap_or_default();
            for history in histories.iter().filter_map(Weak::upgrade) {
                old.extend(history.events_between(after, end));
            }
            old.retain(|ev| ev.id > after && ev.id < end && filter.matches(&ev.kind));
            old.sort_by_key(|ev| ev.id);
            backlog.splice(0..0, old.into_iter().map(Arc::new));
        }
        (backlog, Subscription { shared })
    }

    /// The id of the most recently published event (0 before the first).
    pub fn last_id(&self) -> u64 {
        self.inner.lock().next_id
    }
}

impl std::fmt::Debug for Bus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Bus")
            .field("next_id", &inner.next_id)
            .field("ring_len", &inner.ring.len())
            .field("subscribers", &inner.subs.len())
            .field("journal", &inner.journal.as_ref().map(|j| j.path()))
            .finish()
    }
}

/// The process-wide bus every MathCloud layer publishes to.
///
/// One container per process is the deployment model, so "process-wide" and
/// "container-wide" coincide; in multi-container test processes, events from
/// all containers share this bus and consumers filter by payload.
pub fn global() -> &'static Bus {
    static BUS: OnceLock<Bus> = OnceLock::new();
    BUS.get_or_init(|| Bus::with_ring(DEFAULT_RING))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathcloud_json::json;
    use std::fs::OpenOptions;
    use std::io::Write;

    fn collect(sub: &Subscription) -> Vec<String> {
        let mut kinds = Vec::new();
        while let Some(ev) = sub.try_recv() {
            kinds.push(ev.kind.clone());
        }
        kinds
    }

    #[test]
    fn publish_assigns_monotonic_ids_and_fans_out() {
        let bus = Bus::with_ring(8);
        let a = bus.subscribe(KindFilter::all(), 8);
        let b = bus.subscribe(KindFilter::parse("job."), 8);
        assert_eq!(bus.publish("job.submitted", Some("r1"), json!({})), 1);
        assert_eq!(bus.publish("pool.scale", None, json!({})), 2);
        assert_eq!(bus.publish("job.done", Some("r1"), json!({})), 3);
        assert_eq!(collect(&a), vec!["job.submitted", "pool.scale", "job.done"]);
        assert_eq!(collect(&b), vec!["job.submitted", "job.done"]);
        assert_eq!(bus.last_id(), 3);
    }

    #[test]
    fn kind_filter_prefix_semantics() {
        let f = KindFilter::parse("job.,pool.");
        assert!(f.matches("job.done"));
        assert!(f.matches("pool.scale"));
        assert!(!f.matches("workflow.block.done"));
        assert!(KindFilter::parse("").matches("anything"));
        assert!(KindFilter::parse(" , ,").matches("anything"));
    }

    #[test]
    fn lagging_subscriber_sheds_oldest_and_counts() {
        let bus = Bus::with_ring(32);
        let sub = bus.subscribe(KindFilter::all(), 3);
        for i in 0..7 {
            bus.publish("t.lag", None, json!({ "i": i }));
        }
        assert_eq!(sub.lagged(), 4);
        let got: Vec<i64> = std::iter::from_fn(|| sub.try_recv())
            .map(|e| e.payload.get("i").and_then(Value::as_i64).unwrap())
            .collect();
        assert_eq!(got, vec![4, 5, 6], "newest events win");
    }

    #[test]
    fn subscribe_from_replays_ring_without_gaps() {
        let bus = Bus::with_ring(16);
        for i in 0..5 {
            bus.publish("t.ring", None, json!({ "i": i }));
        }
        let (backlog, sub) = bus.subscribe_from(Some(2), KindFilter::all(), 8);
        assert_eq!(backlog.iter().map(|e| e.id).collect::<Vec<_>>(), [3, 4, 5]);
        bus.publish("t.ring", None, json!({"i": 5}));
        assert_eq!(sub.try_recv().unwrap().id, 6, "live events follow replay");
    }

    #[test]
    fn ring_eviction_bounds_replay() {
        let bus = Bus::with_ring(4);
        for _ in 0..10 {
            bus.publish("t.evict", None, Value::Null);
        }
        let (backlog, _sub) = bus.subscribe_from(Some(0), KindFilter::all(), 8);
        // No journal: only the ring's tail is retained.
        assert_eq!(
            backlog.iter().map(|e| e.id).collect::<Vec<_>>(),
            [7, 8, 9, 10]
        );
    }

    #[test]
    fn journal_survives_restart_and_resumes_ids() {
        let dir = std::env::temp_dir().join(format!(
            "mc-events-test-{}-{}",
            std::process::id(),
            mathcloud_telemetry::next_request_id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");

        let bus = Bus::with_ring(4);
        bus.attach_journal(&path).unwrap();
        for i in 0..6 {
            bus.publish("t.jrnl", Some("req"), json!({ "i": i }));
        }
        drop(bus);

        // "Restart": a fresh bus over the same journal.
        let bus = Bus::with_ring(4);
        bus.attach_journal(&path).unwrap();
        assert_eq!(bus.last_id(), 6, "id numbering resumes after the journal");
        assert_eq!(bus.publish("t.jrnl", None, Value::Null), 7);

        // Resume from before the ring window: served from the journal.
        let (backlog, _sub) = bus.subscribe_from(Some(1), KindFilter::all(), 8);
        assert_eq!(
            backlog.iter().map(|e| e.id).collect::<Vec<_>>(),
            [2, 3, 4, 5, 6, 7]
        );
        assert_eq!(backlog[0].payload.get("i").and_then(Value::as_i64), Some(1));
        assert_eq!(backlog[0].request_id.as_deref(), Some("req"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_journal_lines_are_skipped() {
        let dir = std::env::temp_dir().join(format!(
            "mc-events-torn-{}-{}",
            std::process::id(),
            mathcloud_telemetry::next_request_id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let bus = Bus::with_ring(8);
        bus.attach_journal(&path).unwrap();
        bus.publish("t.torn", None, json!({"ok": true}));
        drop(bus);
        // Simulate a crash mid-append.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"id\": 2, \"kind\": \"t.torn\", \"time_")
            .unwrap();
        drop(f);

        let evs = read_journal(&path).unwrap();
        assert_eq!(evs.len(), 1);
        let bus = Bus::with_ring(8);
        bus.attach_journal(&path).unwrap();
        assert_eq!(bus.last_id(), 1);
        // An event published after recovery must survive the *next*
        // recovery: attach_journal newline-terminates the torn fragment, so
        // the new record is not concatenated onto it.
        assert_eq!(bus.publish("t.torn", None, json!({"post": true})), 2);
        drop(bus);
        let evs = read_journal(&path).unwrap();
        assert_eq!(
            evs.iter().map(|e| e.id).collect::<Vec<_>>(),
            [1, 2],
            "the post-recovery event survived reopen"
        );
        let bus = Bus::with_ring(8);
        bus.attach_journal(&path).unwrap();
        assert_eq!(bus.last_id(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn envelope_json_round_trips() {
        let ev = Envelope {
            id: 42,
            kind: "job.done".into(),
            time_ms: 1_700_000_000_000,
            request_id: Some("abc".into()),
            payload: json!({"service": "add", "job": "7"}),
        };
        let line = ev.to_string();
        assert_eq!(
            line,
            r#"{"id":42,"kind":"job.done","time_ms":1700000000000,"request_id":"abc","payload":{"service":"add","job":"7"}}"#
        );
        let parsed = |line: &str| Envelope::from_json(&mathcloud_json::parse(line).unwrap());
        assert_eq!(parsed(&line).unwrap(), ev);
        let anon = Envelope {
            request_id: None,
            kind: "t.\"quoted\"\n".into(),
            ..ev
        };
        assert_eq!(parsed(&anon.to_string()).unwrap(), anon);
        assert!(Envelope::from_json(&json!({"kind": "x"})).is_none());
    }

    #[test]
    fn staged_events_wait_for_their_source_and_for_their_turn() {
        let bus = Bus::with_ring(8);
        let sub = bus.subscribe(KindFilter::all(), 8);
        let (a, b) = (bus.source(), bus.source());
        let ids = |sub: &Subscription| -> Vec<u64> {
            std::iter::from_fn(|| sub.try_recv())
                .map(|e| e.id)
                .collect()
        };
        assert_eq!(bus.stage(a, [("t.a", None, Value::Null)]), 1);
        assert_eq!(bus.stage(b, [("t.b", None, Value::Null)]), 2);
        assert_eq!(bus.stage(a, [("t.a", None, Value::Null)]), 3);
        assert_eq!(bus.stage(Source::SETTLED, [("t.s", None, Value::Null)]), 4);
        assert_eq!(bus.last_id(), 4);
        // Confirmed, but behind an event that is not: order is id order.
        bus.release(b, 2);
        assert_eq!(ids(&sub), [] as [u64; 0]);
        let (backlog, _late) = bus.subscribe_from(Some(0), KindFilter::all(), 8);
        assert!(backlog.is_empty(), "nor is a staged event replayed");
        // One release of a source covers everything it staged before: the
        // publisher of event 1 never came back, the publisher of 3 did.
        bus.release(a, 3);
        assert_eq!(ids(&sub), [1, 2, 3, 4]);
        // A source confirms only its own events, whatever id it names.
        bus.stage(a, [("t.a", None, Value::Null)]);
        bus.release(b, u64::MAX);
        assert_eq!(ids(&sub), [] as [u64; 0]);
        bus.release(a, 5);
        assert_eq!(ids(&sub), [5]);
    }

    #[test]
    fn publishing_shares_the_queue_with_staged_events() {
        let bus = Bus::with_ring(8);
        let sub = bus.subscribe(KindFilter::all(), 8);
        let journal = bus.source();
        bus.stage(journal, [("t.staged", None, Value::Null)]);
        // Published behind a staged event: it has its id, and waits.
        assert_eq!(bus.publish("t.pub", None, Value::Null), 2);
        assert_eq!(bus.publish_batch([]), 2, "an empty batch releases nothing");
        assert!(sub.try_recv().is_none());
        bus.release(journal, 1);
        assert_eq!(collect(&sub), vec!["t.staged", "t.pub"]);
    }

    #[test]
    fn resume_older_than_the_ring_merges_journal_and_histories_in_id_order() {
        struct Evens;
        impl History for Evens {
            fn events_between(&self, after: u64, before: u64) -> Vec<Envelope> {
                (1..=20u64)
                    .rev()
                    .filter(|id| id % 2 == 0 && *id > after && *id < before)
                    .map(|id| Envelope {
                        id,
                        kind: "h.even".into(),
                        time_ms: 0,
                        request_id: None,
                        payload: Value::Null,
                    })
                    .collect()
            }
        }
        let dir = std::env::temp_dir().join(format!(
            "mc-events-history-{}-{}",
            std::process::id(),
            mathcloud_telemetry::next_request_id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let bus = Bus::with_ring(2);
        bus.attach_journal(&dir.join("journal.jsonl")).unwrap();
        let evens: Arc<dyn History> = Arc::new(Evens);
        bus.attach_history(Arc::downgrade(&evens));
        // Odd ids through the journal, even ones staged for a source that
        // keeps them in a log of its own.
        let other = bus.source();
        for _ in 0..4 {
            bus.publish("j.odd", None, Value::Null);
            let id = bus.stage(other, [("h.even", None, Value::Null)]);
            bus.release(other, id);
        }
        let resumed = |after, kinds| -> Vec<u64> {
            let (backlog, _sub) = bus.subscribe_from(Some(after), KindFilter::parse(kinds), 8);
            backlog.iter().map(|e| e.id).collect()
        };
        assert_eq!(resumed(1, ""), [2, 3, 4, 5, 6, 7, 8], "ring holds 7 and 8");
        assert_eq!(resumed(3, "h."), [4, 6, 8]);
        assert_eq!(resumed(6, ""), [7, 8], "the ring alone: nobody is asked");
        drop(evens);
        assert_eq!(resumed(1, ""), [3, 5, 7, 8], "a dead history is not asked");
        bus.attach_history(Weak::<Evens>::new());
        assert_eq!(bus.inner.lock().histories.len(), 1, "and goes at the next");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dropped_subscriptions_are_pruned() {
        let bus = Bus::with_ring(8);
        let sub = bus.subscribe(KindFilter::all(), 8);
        drop(sub);
        bus.publish("t.prune", None, Value::Null);
        assert_eq!(bus.inner.lock().subs.len(), 0);
    }

    #[test]
    fn recv_timeout_blocks_until_publish() {
        let bus = Arc::new(Bus::with_ring(8));
        let sub = bus.subscribe(KindFilter::all(), 8);
        let pub_bus = Arc::clone(&bus);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            pub_bus.publish("t.wake", None, Value::Null);
        });
        let ev = sub.recv_timeout(Duration::from_secs(5)).expect("woken");
        assert_eq!(ev.kind, "t.wake");
        t.join().unwrap();
        assert!(sub.recv_timeout(Duration::from_millis(10)).is_none());
    }
}
