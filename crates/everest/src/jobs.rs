//! The job table: every job record of one container, and the one place a job
//! changes state.
//!
//! A job walks `WAITING → RUNNING → DONE | FAILED` (Table 1 of the paper),
//! may be `CANCELLED` while live, and a terminal record may be `DELETED`.
//! [`JobTable::transition`] is the only way along those edges: under the one
//! table lock it checks the edge against [`legal`], stages the `job.*` event
//! on the bus, writes the journal record that carries the event's id, applies
//! it, ranks terminal records and counts. The [`Pending`] it returns keeps
//! the transition from everyone until the one sync of the job journal that
//! covers the record — then the staged event is released; reads honour the
//! same barrier through [`Snapshot`].
//!
//! One rule for every `job.*` event: it is released only once the record that
//! names its id is on disk. `RUNNING` records, and [`Pending::defer`]red
//! `WAITING` ones, have no holder waiting. When the adapter is quick, the
//! job's terminal record — or another job's — is synced microseconds later
//! and covers them; when it is not, the container's confirmer thread
//! ([`JobTable::confirm_unwaited`]) syncs them after [`CONFIRM_GRACE`], so a
//! long job holds back its events, and what other sources staged behind
//! them, for no longer than that.
//!
//! Staging is the one place a lock is taken while another is held: table →
//! bus, for O(1) work and no I/O, so event ids, journal order and in-memory
//! history agree. Nothing ever takes them the other way round.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use mathcloud_core::{uri, JobId, JobRepresentation, JobState};
use mathcloud_events::{now_ms, Source};
use mathcloud_json::value::Object;
use mathcloud_json::Value;
use mathcloud_telemetry::sync::{Condvar, Mutex};
use mathcloud_telemetry::{metrics, Counter, Histogram};

use crate::container::Shared;
use crate::jobstore::{JobStore, RecoveredJob, TransitionDetail, TransitionState};
use crate::retention;

/// `(service, job id)`.
pub(crate) type JobKey = (String, String);

/// How long a record nobody waits for — `RUNNING`, a deferred `WAITING`,
/// recovery's `meta` line — may wait for somebody else's sync before the
/// confirmer thread syncs it. Long next to an instant job, whose terminal
/// record follows within microseconds even when its handler loses the CPU in
/// between; short next to a job worth watching.
const CONFIRM_GRACE: Duration = Duration::from_millis(25);

/// Every legal edge of the job state machine, `None` being "no record".
const EDGES: [(Option<JobState>, TransitionState); 9] = {
    use JobState::{Cancelled, Done, Failed, Running, Waiting};
    use TransitionState::{Deleted, Job};
    [
        (None, Job(Waiting)),
        (Some(Waiting), Job(Running)),
        (Some(Running), Job(Done)),
        (Some(Running), Job(Failed)),
        (Some(Waiting), Job(Cancelled)),
        (Some(Running), Job(Cancelled)),
        (Some(Done), Deleted),
        (Some(Failed), Deleted),
        (Some(Cancelled), Deleted),
    ]
};

/// The index in [`EDGES`] of the edge `from → to`; `None` when there is none.
fn legal(from: Option<JobState>, to: TransitionState) -> Option<usize> {
    EDGES.iter().position(|edge| *edge == (from, to))
}

/// The `job.*` event announcing that a job reached `state`.
pub(crate) fn event_kind(state: JobState) -> &'static str {
    match state {
        JobState::Waiting => "job.submitted",
        JobState::Running => "job.running",
        JobState::Done => "job.done",
        JobState::Failed => "job.failed",
        JobState::Cancelled => "job.cancelled",
    }
}

/// The payload of a `job.*` event. `replayed` marks a transition recovery
/// republishes from the job journal rather than one happening now.
pub(crate) fn job_event_payload(
    container: &str,
    service: &str,
    job_id: &str,
    error: Option<&str>,
    replayed: bool,
) -> Value {
    let mut payload = Object::new();
    payload.insert("container".into(), Value::from(container));
    payload.insert("service".into(), Value::from(service));
    payload.insert("job".into(), Value::from(job_id));
    if let Some(e) = error {
        payload.insert("error".into(), Value::from(e));
    }
    if replayed {
        payload.insert("replayed".into(), Value::from(true));
    }
    Value::Object(payload)
}

/// Aggregate container statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ContainerStats {
    /// Jobs accepted so far.
    pub submitted: usize,
    /// Jobs that completed successfully.
    pub completed: usize,
    /// Jobs that failed.
    pub failed: usize,
    /// Jobs cancelled by clients.
    pub cancelled: usize,
}

struct JobRecord {
    state: JobState,
    outputs: Option<Object>,
    error: Option<String>,
    cancel: Arc<AtomicBool>,
    /// Shared with the handler thread that runs the job.
    inputs: Arc<Object>,
    runtime_ms: Option<u64>,
    /// `X-MC-Request-Id` of the submission that created the job.
    request_id: Option<String>,
    submitted_at: Instant,
    /// Unix milliseconds of the submission and of the latest transition;
    /// both the last journal record's time for a recovered job.
    submitted_ms: u64,
    changed_ms: u64,
    /// Key into [`Inner::terminal`] once the job is terminal.
    rank: Option<u64>,
    /// Journal position of the job's last record (0 without a journal, or
    /// when recovered from one): what a [`Snapshot`] of the job waits for.
    journal_pos: u64,
}

impl JobRecord {
    fn waiting(request_id: Option<String>, time_ms: u64) -> Self {
        JobRecord {
            state: JobState::Waiting,
            outputs: None,
            error: None,
            cancel: Arc::new(AtomicBool::new(false)),
            inputs: Arc::default(),
            runtime_ms: None,
            request_id,
            submitted_at: Instant::now(),
            submitted_ms: time_ms,
            changed_ms: time_ms,
            rank: None,
            journal_pos: 0,
        }
    }
}

#[derive(Default)]
struct Inner {
    records: HashMap<JobKey, JobRecord>,
    /// The records with a `rank`: terminal ones, in the order they settled.
    terminal: BTreeMap<u64, JobKey>,
    next_rank: u64,
    stats: ContainerStats,
    /// `(journal position, last event id it names)` of the latest record
    /// nobody waits for: what [`JobTable::confirm_unwaited`] sees to disk.
    unwaited: (u64, u64),
    /// No `Everest` handle is left: the confirmer thread may go.
    closed: bool,
}

impl Inner {
    fn rank(&mut self, key: &JobKey) -> u64 {
        self.next_rank += 1;
        self.terminal.insert(self.next_rank, key.clone());
        self.next_rank
    }
}

/// A transition applied, written and staged, but not yet durable or
/// announced. Dropping it is what waits for the disk and releases the event:
/// however its holder leaves, the bus is never left with an event nobody will
/// confirm.
#[must_use = "a transition is neither durable nor announced until settled"]
pub(crate) struct Pending<'t> {
    table: &'t JobTable,
    key: JobKey,
    to: TransitionState,
    /// Journal position to wait for; 0 for a record nobody waits for.
    pos: u64,
    /// The id of the staged event that wait confirms; 0 when it confirms
    /// none: a tombstone, or a record nobody waits for.
    ev: u64,
    /// On the `RUNNING` edge: the job's inputs, cancellation flag and
    /// request id, what the handler running it needs.
    pub(crate) run: Option<(Arc<Object>, Arc<AtomicBool>, Option<String>)>,
}

impl Drop for Pending<'_> {
    /// The one sync a transition waits for. It covers every record of this
    /// journal written before it, so releasing through `ev` also releases
    /// whatever an earlier, slower holder has not come back for.
    fn drop(&mut self) {
        self.table.sync_to(self.pos);
        if self.ev > 0 {
            mathcloud_events::global().release(self.table.source, self.ev);
        }
    }
}

impl Pending<'_> {
    /// Makes the transition durable and announces it ([`Drop`]), then — in
    /// this order — wakes [`JobTable::wait`]ers (so a subscriber that reacts
    /// to the event always finds the record in place) and applies the
    /// retention cap. A deletion frees the job's keys and files instead.
    pub(crate) fn settle(mut self, shared: &Shared) {
        let (key, to) = (std::mem::take(&mut self.key), self.to);
        drop(self);
        let TransitionState::Job(state) = to else {
            return shared.forget(&key);
        };
        if state.is_terminal() {
            shared.jobs.job_done.notify_all();
            retention::enforce(shared);
        }
    }

    /// Leaves the record, as a `RUNNING` one, to whoever syncs next or the
    /// confirmer, so [`Pending::settle`] does not wait: for a `WAITING` record
    /// whose submitter waits for a later one. Returns the position to sync to
    /// before showing it.
    pub(crate) fn defer(&mut self) -> u64 {
        let pos = self.pos;
        if pos > 0 {
            let mut inner = self.table.inner.lock();
            inner.unwaited = inner.unwaited.max((pos, self.ev));
            self.table.unconfirmed.notify_one();
            (self.pos, self.ev) = (0, 0);
        }
        pos
    }
}

/// A job's state as of some instant, which may be ahead of the disk. The
/// representation comes out only through [`Snapshot::durable`].
pub(crate) struct Snapshot {
    rep: JobRepresentation,
    pos: u64,
}

impl Snapshot {
    pub(crate) fn state(&self) -> JobState {
        self.rep.state
    }

    /// Waits — with no lock held — for the sync covering the job's last
    /// record, so the representation never shows a state a crash could lose.
    pub(crate) fn durable(self, jobs: &JobTable) -> JobRepresentation {
        jobs.sync_to(self.pos);
        self.rep
    }
}

/// All job records of one container. See the module documentation.
pub(crate) struct JobTable {
    /// The container's metrics label, stamped on every `job.*` event.
    label: String,
    inner: Mutex<Inner>,
    /// Signalled after every terminal transition.
    job_done: Condvar,
    /// The durable job journal, once armed; unset keeps jobs in memory only.
    store: OnceLock<Arc<JobStore>>,
    /// Maximum terminal records retained; `usize::MAX` keeps everything.
    pub(crate) retention: AtomicUsize,
    /// `mc_job_transitions_total{from,to}` per [`EDGES`] entry, but deletions.
    transitions: [Option<Counter>; EDGES.len()],
    wait_seconds: Histogram,
    evicted: Counter,
    /// Signalled when a record nobody waits for has been written, and when
    /// the table closes.
    unconfirmed: Condvar,
    /// The job journal as the bus sees it: what this table's staged events
    /// wait for. Its own, so two containers in one process release only
    /// their own events.
    source: Source,
}

impl Drop for JobTable {
    /// Nobody is left to confirm what this table staged: one last sync of
    /// its journal, and the bus is rid of it.
    fn drop(&mut self) {
        if let Some(store) = self.store.get() {
            store.sync_to(store.journal_stats().records);
        }
        mathcloud_events::global().release(self.source, u64::MAX);
    }
}

impl JobTable {
    pub(crate) fn new(label: &str) -> Self {
        let reg = metrics::global();
        reg.describe(
            "mc_job_wait_seconds",
            "time jobs spend queued (WAITING to RUNNING)",
        );
        reg.describe("mc_job_transitions_total", "job state transitions");
        reg.describe(
            "mc_jobs_evicted_total",
            "terminal job records evicted by the retention cap",
        );
        let container = ("container", label);
        JobTable {
            label: label.to_string(),
            inner: Mutex::default(),
            job_done: Condvar::new(),
            store: OnceLock::new(),
            retention: AtomicUsize::new(usize::MAX),
            transitions: EDGES.map(|(from, to)| match to {
                TransitionState::Job(to) => Some(reg.counter(
                    "mc_job_transitions_total",
                    &[
                        container,
                        ("from", from.map_or("SUBMITTED", JobState::as_str)),
                        ("to", to.as_str()),
                    ],
                )),
                TransitionState::Deleted => None,
            }),
            wait_seconds: reg.histogram("mc_job_wait_seconds", &[container]),
            evicted: reg.counter("mc_jobs_evicted_total", &[container]),
            unconfirmed: Condvar::new(),
            source: mathcloud_events::global().source(),
        }
    }

    /// Takes a job along the edge to `to`. `detail` is what the edge brings
    /// along and its journal record carries, but for `object`, which moves
    /// into the record: the inputs on `→ WAITING`, the outputs on `→ DONE`.
    /// `None`, with record, journal and counters untouched, when the job's
    /// state has no such edge: a worker reaching a job cancelled while
    /// queued, a result arriving for a job cancelled while running.
    pub(crate) fn transition(
        &self,
        service: &str,
        job: &str,
        to: TransitionState,
        detail: TransitionDetail<'_>,
        object: Option<Object>,
    ) -> Option<Pending<'_>> {
        let key = (service.to_string(), job.to_string());
        self.transition_locked(&mut self.inner.lock(), key, to, detail, object)
    }

    /// The `DELETE` verb: cancels a live job, deletes a terminal one's
    /// record. Which of the two is decided under the lock that applies it.
    pub(crate) fn delete(&self, service: &str, job: &str) -> Option<Pending<'_>> {
        let key = (service.to_string(), job.to_string());
        let mut inner = self.inner.lock();
        let to = if inner.records.get(&key)?.state.is_terminal() {
            TransitionState::Deleted
        } else {
            TransitionState::Job(JobState::Cancelled)
        };
        self.transition_locked(&mut inner, key, to, TransitionDetail::default(), None)
    }

    fn transition_locked(
        &self,
        inner: &mut Inner,
        key: JobKey,
        to: TransitionState,
        detail: TransitionDetail<'_>,
        object: Option<Object>,
    ) -> Option<Pending<'_>> {
        let source = inner.records.get(&key);
        let edge_ix = legal(source.map(|r| r.state), to)?;
        let request_id = source.map_or(detail.request_id, |r| r.request_id.as_deref());
        // A refused edge has returned by now: every id taken here is staged,
        // named by the record written below and released once that is on disk.
        let ev = match to {
            TransitionState::Job(state) => {
                let payload = job_event_payload(&self.label, &key.0, &key.1, detail.error, false);
                let event = [(event_kind(state), request_id, payload)];
                Some(mathcloud_events::global().stage(self.source, event))
            }
            TransitionState::Deleted => None,
        };
        let carries = |state| {
            object
                .as_ref()
                .filter(|_| to == TransitionState::Job(state))
        };
        let detail = TransitionDetail {
            ev,
            inputs: carries(JobState::Waiting),
            outputs: carries(JobState::Done),
            ..detail
        };
        // Written inside the critical section that applies the transition,
        // so per-job record order on disk matches in-memory history exactly.
        let pos = self
            .store
            .get()
            .map_or(0, |store| store.write(&key.0, &key.1, to, detail));
        let mut pending = Pending {
            table: self,
            key: key.clone(),
            to,
            pos,
            ev: ev.unwrap_or(0),
            run: None,
        };
        if let Some(counter) = &self.transitions[edge_ix] {
            counter.inc();
        }
        let TransitionState::Job(state) = to else {
            let record = inner.records.remove(&key).expect("the edge has a source");
            let rank = record.rank.expect("terminal records are ranked");
            inner.terminal.remove(&rank);
            return Some(pending);
        };
        let rank = state.is_terminal().then(|| inner.rank(&key));
        let now = now_ms();
        let record = inner
            .records
            .entry(key)
            .or_insert_with(|| JobRecord::waiting(detail.request_id.map(str::to_string), now));
        record.state = state;
        record.rank = rank;
        record.changed_ms = now;
        if state.is_terminal() {
            // Nothing runs a settled job again; a handler still running it
            // holds its own clone.
            record.inputs = Arc::default();
        }
        // Only a state without a result has an edge to another state.
        record.error = detail.error.map(str::to_string);
        record.runtime_ms = detail.runtime_ms;
        match state {
            JobState::Waiting => {
                record.inputs = Arc::new(object.unwrap_or_default());
                inner.stats.submitted += 1;
            }
            JobState::Running => {
                self.wait_seconds
                    .observe_duration(record.submitted_at.elapsed());
                let (inputs, cancel) = (&record.inputs, &record.cancel);
                let request_id = record.request_id.clone();
                pending.run = Some((Arc::clone(inputs), Arc::clone(cancel), request_id));
                // Written, never waited on: recovery treats WAITING and RUNNING
                // alike, and these bytes ride on the terminal record's sync —
                // whoever waits for that, or the confirmer, releases the event.
                // A read still waits for WAITING: the barrier stays there.
                if pos > 0 {
                    (pending.pos, pending.ev) = (0, 0);
                    inner.unwaited = (pos, ev.unwrap_or(0));
                    self.unconfirmed.notify_one();
                    return Some(pending);
                }
            }
            JobState::Done => {
                record.outputs = object;
                inner.stats.completed += 1;
            }
            JobState::Failed => inner.stats.failed += 1,
            JobState::Cancelled => {
                record.cancel.store(true, Ordering::Relaxed);
                inner.stats.cancelled += 1;
            }
        }
        record.journal_pos = pending.pos;
        Some(pending)
    }

    /// Evicts the oldest-settled terminal records down to the retention cap,
    /// one `DELETED` edge each, in O(evicted). Live jobs are never touched.
    pub(crate) fn evict_excess(&self) -> Vec<Pending<'_>> {
        let cap = self.retention.load(Ordering::Relaxed);
        let mut evicted = Vec::new();
        if cap == usize::MAX {
            return evicted;
        }
        let mut inner = self.inner.lock();
        while inner.terminal.len() > cap {
            let (_, oldest) = inner.terminal.first_key_value().expect("over the cap");
            let oldest = oldest.clone();
            let (to, detail) = (TransitionState::Deleted, TransitionDetail::default());
            evicted.extend(self.transition_locked(&mut inner, oldest, to, detail, None));
        }
        self.evicted.add(evicted.len() as u64);
        evicted
    }

    /// Replays a journal's net state and arms `store` to journal what
    /// happens next, under one hold of the lock so no transition slips in
    /// between. A job that already has a record keeps it; interrupted jobs
    /// come back `WAITING`. Returns the jobs admitted, states adjusted,
    /// inputs and outputs moved into the records — or `AlreadyExists`, with
    /// nothing admitted, when a journal is already armed.
    pub(crate) fn recover(
        &self,
        store: Arc<JobStore>,
        mut recovered: Vec<RecoveredJob>,
    ) -> io::Result<Vec<RecoveredJob>> {
        let mut inner = self.inner.lock();
        self.store
            .set(store)
            .map_err(|_| io::Error::new(io::ErrorKind::AlreadyExists, "job journal armed"))?;
        recovered.retain_mut(|r| {
            let key = (r.service.clone(), r.job.clone());
            if inner.records.contains_key(&key) {
                return false;
            }
            if !r.state.is_terminal() {
                r.state = JobState::Waiting;
            }
            let record = JobRecord {
                state: r.state,
                outputs: r.outputs.take(),
                error: r.error.clone(),
                runtime_ms: r.runtime_ms,
                rank: r.state.is_terminal().then(|| inner.rank(&key)),
                inputs: Arc::new(std::mem::take(&mut r.inputs)),
                ..JobRecord::waiting(r.request_id.clone(), r.time_ms)
            };
            inner.records.insert(key, record);
            true
        });
        Ok(recovered)
    }

    /// Recovery's announcements, as one batch, behind the `meta` line that
    /// names their ids — no record does. Recovery does not wait for the line
    /// (on a journal just copied or restored, its sync flushes the whole
    /// file): the confirmer does, and then the events go out.
    pub(crate) fn republish<'a>(
        &self,
        events: impl IntoIterator<Item = (&'a str, Option<&'a str>, Value)>,
    ) {
        let bus = mathcloud_events::global();
        let mut inner = self.inner.lock();
        let last = bus.stage(self.source, events);
        let written = self.store.get().map_or(0, |s| s.write_watermark(last));
        if written > 0 {
            inner.unwaited = (written, last);
            self.unconfirmed.notify_one();
        } else {
            drop(inner);
            bus.release(self.source, last);
        }
    }

    /// One round of the confirmer thread: waits for a record nobody waits for
    /// past position `seen`, gives whoever syncs this journal next
    /// [`CONFIRM_GRACE`] to cover it, then sees to it itself and releases the
    /// events it names. Returns the position dealt with; `None` once the
    /// table has closed with nothing left to see to.
    pub(crate) fn confirm_unwaited(&self, seen: u64) -> Option<u64> {
        let mut inner = self.inner.lock();
        while inner.unwaited.0 == seen {
            if inner.closed {
                return None;
            }
            self.unconfirmed.wait(&mut inner);
        }
        let (pos, ev) = inner.unwaited;
        drop(inner);
        std::thread::sleep(CONFIRM_GRACE);
        self.sync_to(pos);
        mathcloud_events::global().release(self.source, ev);
        Some(pos)
    }

    /// Lets the confirmer thread go once it has nothing left to see to.
    pub(crate) fn close(&self) {
        self.inner.lock().closed = true;
        self.unconfirmed.notify_all();
    }

    /// The armed journal, if any.
    pub(crate) fn store(&self) -> Option<&Arc<JobStore>> {
        self.store.get()
    }

    /// The durability barrier: returns once the journal record at `pos` is
    /// on disk. Called with no lock held, so concurrent callers share one
    /// `fsync`; an atomic compare when `pos` is already durable.
    pub(crate) fn sync_to(&self, pos: u64) {
        if let Some(store) = self.store.get() {
            store.sync_to(pos);
        }
    }

    /// The job as it is in memory right now.
    pub(crate) fn snapshot(&self, service: &str, job: &str) -> Option<Snapshot> {
        let inner = self.inner.lock();
        let record = inner.records.get(&(service.to_string(), job.to_string()))?;
        let mut rep =
            JobRepresentation::new(JobId::new(job), &uri::job(service, job), record.state);
        rep.outputs = record.outputs.clone();
        rep.error = record.error.clone();
        rep.runtime_ms = record.runtime_ms;
        Some(Snapshot {
            rep,
            pos: record.journal_pos,
        })
    }

    /// Blocks until the job is terminal or `timeout` elapses; returns the
    /// terminal representation, or `None` on timeout / unknown job.
    pub(crate) fn wait(
        &self,
        service: &str,
        job: &str,
        timeout: Duration,
    ) -> Option<JobRepresentation> {
        let key = (service.to_string(), job.to_string());
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock();
        while !inner.records.get(&key)?.state.is_terminal() {
            let left = deadline.checked_duration_since(Instant::now())?;
            self.job_done.wait_for(&mut inner, left);
        }
        drop(inner);
        Some(self.snapshot(service, job)?.durable(self))
    }

    /// Cumulative counters.
    pub(crate) fn stats(&self) -> ContainerStats {
        self.inner.lock().stats
    }

    /// Cumulative counters, and how many records are in each state now.
    pub(crate) fn census(&self) -> (ContainerStats, HashMap<JobState, usize>) {
        let inner = self.inner.lock();
        let mut by_state = HashMap::new();
        for record in inner.records.values() {
            *by_state.entry(record.state).or_default() += 1;
        }
        (inner.stats, by_state)
    }

    /// The trace of one request: for each retained job submitted under
    /// `request_id`, in submission order, its `job.submitted`, its `job.run`
    /// once it has run, and the event of its current state past `WAITING`.
    /// Timestamps are Unix seconds. One scan under the lock, like
    /// [`JobTable::census`].
    pub(crate) fn trace(&self, request_id: &str) -> Vec<Object> {
        let inner = self.inner.lock();
        let mut jobs: Vec<_> = (inner.records.iter())
            .filter(|(_, r)| r.request_id.as_deref() == Some(request_id))
            .collect();
        // Ids number submissions: `j-9` goes before `j-10`.
        jobs.sort_by(|((_, a), ra), ((_, b), rb)| {
            (ra.submitted_ms, a.len(), a).cmp(&(rb.submitted_ms, b.len(), b))
        });
        let mut events = Vec::new();
        for ((service, job), record) in jobs {
            let mut fields = Object::new();
            fields.insert("service".into(), Value::from(service.as_str()));
            fields.insert("job".into(), Value::from(job.as_str()));
            let entry = |name: &str, ms: u64, fields: &Object| {
                let mut entry = Object::new();
                entry.insert("name".into(), Value::from(name));
                entry.insert("ts_seconds".into(), Value::from(ms as f64 / 1e3));
                entry.insert("fields".into(), Value::Object(fields.clone()));
                entry
            };
            events.push(entry("job.submitted", record.submitted_ms, &fields));
            if let Some(ms) = record.runtime_ms {
                let mut run = entry("job.run", record.changed_ms.saturating_sub(ms), &fields);
                run.insert("duration_seconds".into(), Value::from(ms as f64 / 1e3));
                events.push(run);
            }
            if record.state != JobState::Waiting {
                if let Some(error) = &record.error {
                    fields.insert("error".into(), Value::from(error.as_str()));
                }
                events.push(entry(event_kind(record.state), record.changed_ms, &fields));
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathcloud_json::json;

    const STATES: [JobState; 5] = [
        JobState::Waiting,
        JobState::Running,
        JobState::Done,
        JobState::Failed,
        JobState::Cancelled,
    ];

    /// `table` armed with a journal in a scratch directory, returned.
    fn arm(table: &JobTable, tag: &str) -> (Arc<JobStore>, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "mc-jobs-{tag}-{}-{}",
            std::process::id(),
            mathcloud_telemetry::next_request_id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let store = Arc::new(JobStore::open(&dir.join("jobs.jsonl"), usize::MAX).unwrap());
        table.recover(Arc::clone(&store), Vec::new()).unwrap();
        (store, dir)
    }

    /// A table journaling to a scratch file.
    fn journaled_table(tag: &str) -> (JobTable, std::path::PathBuf) {
        let table = JobTable::new(tag);
        let (_, dir) = arm(&table, tag);
        (table, dir)
    }

    /// The `(id, kind, job)` of the next `want` events labelled `tag`. The
    /// bus is shared with every test of this binary: events of others are
    /// skipped, and may hold these back for a while.
    fn events_of(
        sub: &mathcloud_events::Subscription,
        tag: &str,
        want: usize,
    ) -> Vec<(u64, String, String)> {
        let mut got = Vec::new();
        while got.len() < want {
            let ev = sub
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|| panic!("{} of {want} events for {tag}", got.len()));
            let field = |name| ev.payload.get(name).and_then(Value::as_str).unwrap();
            if field("container") == tag {
                got.push((ev.id, ev.kind.clone(), field("job").to_string()));
            }
        }
        got
    }

    /// Takes `job` along an edge that ends in `to`, whatever it starts from.
    fn step<'t>(table: &'t JobTable, job: &str, to: TransitionState) -> Option<Pending<'t>> {
        let object = |v: Value| v.as_object().cloned();
        let (detail, object) = match to {
            TransitionState::Job(JobState::Waiting) => (
                TransitionDetail {
                    request_id: Some("rid"),
                    ..Default::default()
                },
                object(json!({"a": 1})),
            ),
            TransitionState::Job(JobState::Done) => (
                TransitionDetail {
                    runtime_ms: Some(3),
                    ..Default::default()
                },
                object(json!({"r": 2})),
            ),
            TransitionState::Job(JobState::Failed) => (
                TransitionDetail {
                    error: Some("boom"),
                    runtime_ms: Some(3),
                    ..Default::default()
                },
                None,
            ),
            _ => Default::default(),
        };
        table.transition("svc", job, to, detail, object)
    }

    /// Walks a fresh job to `state` along legal edges.
    fn drive(table: &JobTable, job: &str, state: JobState) {
        let mut path = vec![JobState::Waiting];
        match state {
            JobState::Waiting => {}
            JobState::Cancelled => path.push(state),
            JobState::Running => path.push(state),
            JobState::Done | JobState::Failed => path.extend([JobState::Running, state]),
        }
        for state in path {
            drop(step(table, job, TransitionState::Job(state)).expect("legal step"));
        }
    }

    #[test]
    fn transition_accepts_exactly_the_legal_edges_and_a_refusal_changes_nothing() {
        use JobState::{Cancelled, Done, Failed, Running, Waiting};
        let (table, dir) = journaled_table("edges");
        let store = Arc::clone(table.store().unwrap());
        let bus = mathcloud_events::global();
        let announced = bus.subscribe(mathcloud_events::KindFilter::parse("job."), 1 << 10);
        let froms = std::iter::once(None).chain(STATES.map(Some));
        let tos = STATES
            .map(TransitionState::Job)
            .into_iter()
            .chain([TransitionState::Deleted]);
        let mut accepted = 0;
        for (n, (from, to)) in froms
            .flat_map(|from| tos.clone().map(move |to| (from, to)))
            .enumerate()
        {
            let expected = matches!(
                (from, to),
                (None, TransitionState::Job(Waiting))
                    | (Some(Waiting), TransitionState::Job(Running | Cancelled))
                    | (
                        Some(Running),
                        TransitionState::Job(Done | Failed | Cancelled)
                    )
                    | (Some(Done | Failed | Cancelled), TransitionState::Deleted)
            );
            assert_eq!(legal(from, to).is_some(), expected, "{from:?} -> {to:?}");
            let job = format!("j-{n}");
            if let Some(from) = from {
                drive(&table, &job, from);
            }
            let before = (
                table.snapshot("svc", &job).map(|s| (s.rep, s.pos)),
                store.journal_stats().records,
                table.stats(),
                table.inner.lock().terminal.len(),
            );
            let outcome = step(&table, &job, to);
            assert_eq!(outcome.is_some(), expected, "{from:?} -> {to:?}");
            let after = (
                table.snapshot("svc", &job).map(|s| (s.rep, s.pos)),
                store.journal_stats().records,
                table.stats(),
                table.inner.lock().terminal.len(),
            );
            match outcome {
                None => assert_eq!(before, after, "refused {from:?} -> {to:?}"),
                Some(pending) => {
                    accepted += 1;
                    assert_eq!(after.1, before.1 + 1, "one record per accepted edge");
                    let now = after.0.as_ref().map(|(rep, _)| rep.state);
                    match to {
                        TransitionState::Job(state) => assert_eq!(now, Some(state)),
                        TransitionState::Deleted => assert_eq!(now, None),
                    }
                    drop(pending);
                }
            }
        }
        assert_eq!(accepted, EDGES.len());
        // No transition above was settled, and yet: every record that is not
        // a tombstone names an event, every such event has arrived — in id
        // order — and a refusal took no id.
        let mut named: Vec<u64> = Vec::new();
        mathcloud_events::jsonl::read_values(store.path(), |v| {
            named.extend(v.get("ev").and_then(Value::as_u64));
        })
        .unwrap();
        assert_eq!(named.len() as u64, store.journal_stats().records - 3);
        assert_eq!(store.last_ev(), *named.last().unwrap());
        let arrived = events_of(&announced, "edges", named.len());
        let ids: Vec<u64> = arrived.iter().map(|(id, _, _)| *id).collect();
        assert_eq!(ids, named);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_held_transition_holds_back_what_follows_it_until_its_journal_syncs_past_it() {
        let (a, dir_a) = journaled_table("held-a");
        let (b, dir_b) = journaled_table("held-b");
        let bus = mathcloud_events::global();
        let sub = bus.subscribe(mathcloud_events::KindFilter::parse("job."), 1 << 10);
        let waiting = TransitionState::Job(JobState::Waiting);
        let first = step(&a, "j-1", waiting).unwrap();
        let second = step(&a, "j-2", waiting).unwrap();
        let other = step(&b, "j-1", waiting).unwrap();
        // The other journal confirms its own event and no one else's.
        drop(other);
        assert_eq!(a.store().unwrap().journal_stats().durable, 0);
        assert!(std::iter::from_fn(|| sub.try_recv()).all(|ev| {
            let container = ev.payload.get("container").and_then(Value::as_str);
            container != Some("held-a") && container != Some("held-b")
        }));
        // The later transition's sync covers the earlier record too: its
        // holder never came back, and nothing waits for it.
        drop(second);
        let arrived = events_of(&sub, "held-a", 2);
        assert_eq!(arrived[0].2, "j-1");
        assert_eq!(arrived[1].2, "j-2");
        let theirs = events_of(&sub, "held-b", 1);
        assert!(theirs[0].0 > arrived[1].0, "each in its turn");
        drop(first);
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn job_running_goes_out_once_a_sync_or_the_confirmer_has_covered_its_record() {
        let (table, dir) = journaled_table("confirm");
        let store = Arc::clone(table.store().unwrap());
        let bus = mathcloud_events::global();
        let sub = bus.subscribe(mathcloud_events::KindFilter::parse("job."), 1 << 10);
        // A job whose adapter takes its time: nobody syncs past RUNNING.
        drive(&table, "j-1", JobState::Running);
        assert_eq!(events_of(&sub, "confirm", 1)[0].1, "job.submitted");
        let durable = store.journal_stats().durable;
        assert_eq!(durable, 1, "RUNNING is written, not synced");
        assert!(std::iter::from_fn(|| sub.try_recv()).all(|ev| ev
            .payload
            .get("container")
            .and_then(Value::as_str)
            != Some("confirm")));
        // The confirmer's round: the record first, then the event.
        assert_eq!(table.confirm_unwaited(0), Some(2));
        assert_eq!(store.journal_stats().durable, 2);
        assert_eq!(events_of(&sub, "confirm", 1)[0].1, "job.running");
        // A quick job: the terminal record's sync covers RUNNING, and the
        // confirmer finds nothing left to do.
        let syncs = store.journal_stats().syncs;
        drive(&table, "j-2", JobState::Done);
        let kinds: Vec<String> = events_of(&sub, "confirm", 3)
            .into_iter()
            .map(|(_, kind, _)| kind)
            .collect();
        assert_eq!(kinds, ["job.submitted", "job.running", "job.done"]);
        assert_eq!(table.confirm_unwaited(2), Some(4));
        assert_eq!(store.journal_stats().syncs, syncs + 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retention_order_survives_a_delete_from_the_middle_of_the_rank() {
        let (table, dir) = journaled_table("rank");
        for n in 1..=5 {
            drive(&table, &format!("j-{n}"), JobState::Done);
        }
        let deleted = table.delete("svc", "j-3").expect("terminal jobs delete");
        assert_eq!(deleted.to, TransitionState::Deleted);
        assert!(table.evict_excess().is_empty(), "no cap, no eviction");

        table.retention.store(2, Ordering::Relaxed);
        let evicted: Vec<String> = table
            .evict_excess()
            .into_iter()
            .map(|tombstone| tombstone.key.1.clone())
            .collect();
        assert_eq!(evicted, ["j-1", "j-2"], "oldest-settled first");
        for (job, kept) in [("j-1", false), ("j-2", false), ("j-3", false)]
            .into_iter()
            .chain([("j-4", true), ("j-5", true)])
        {
            assert_eq!(table.snapshot("svc", job).is_some(), kept, "{job}");
        }
        // A live job is never evicted, however tight the cap.
        drive(&table, "j-6", JobState::Running);
        table.retention.store(1, Ordering::Relaxed);
        let evicted: Vec<String> = table
            .evict_excess()
            .into_iter()
            .map(|tombstone| tombstone.key.1.clone())
            .collect();
        assert_eq!(evicted, ["j-4"]);
        assert!(table.snapshot("svc", "j-6").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inputs_live_while_the_job_can_run_and_go_when_it_settles() {
        let (table, dir) = journaled_table("inputs");
        let inputs = |job: &str| {
            let key = ("svc".to_string(), job.to_string());
            (*table.inner.lock().records[&key].inputs).clone()
        };
        let submitted = json!({"a": 1}).as_object().cloned().unwrap();
        for (n, state) in STATES.into_iter().enumerate() {
            let job = format!("j-{n}");
            drive(&table, &job, state);
            let kept = if state.is_terminal() {
                Object::new()
            } else {
                submitted.clone()
            };
            assert_eq!(inputs(&job), kept, "{state:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_trace_lists_the_requests_jobs_in_submission_order() {
        let table = JobTable::new("trace");
        drive(&table, "j-9", JobState::Done);
        drive(&table, "j-10", JobState::Failed);
        drive(&table, "j-11", JobState::Waiting);
        let other = TransitionDetail {
            request_id: Some("other"),
            ..Default::default()
        };
        drop(table.transition(
            "svc",
            "j-12",
            TransitionState::Job(JobState::Waiting),
            other,
            None,
        ));
        let trace: Vec<_> = table.trace("rid").into_iter().map(Value::Object).collect();
        let seen: Vec<_> = (trace.iter())
            .map(|e| format!("{} {}", e["name"].as_str().unwrap(), e["fields"]["job"]))
            .collect();
        let want = [
            "job.submitted \"j-9\"",
            "job.run \"j-9\"",
            "job.done \"j-9\"",
            "job.submitted \"j-10\"",
            "job.run \"j-10\"",
            "job.failed \"j-10\"",
            "job.submitted \"j-11\"",
        ];
        assert_eq!(seen, want);
        assert_eq!(trace[5]["fields"]["error"].as_str(), Some("boom"));
        assert_eq!(trace[4]["duration_seconds"].as_f64(), Some(0.003));
        assert!(trace.iter().all(|e| e["ts_seconds"].as_f64() > Some(1e9)));
        assert_eq!(table.trace("other").len(), 1);
    }

    #[test]
    fn the_running_record_is_written_but_never_waited_on() {
        let (table, dir) = journaled_table("running");
        let store = Arc::clone(table.store().unwrap());
        let submitted = step(&table, "j-1", TransitionState::Job(JobState::Waiting)).unwrap();
        assert_eq!(submitted.pos, 1);
        let running = step(&table, "j-1", TransitionState::Job(JobState::Running)).unwrap();
        assert_eq!(store.journal_stats().records, 2, "RUNNING is journaled");
        assert_eq!(running.pos, 0, "RUNNING waits for nothing");
        let (_, _, request_id) = running.run.as_ref().expect("the worker gets its inputs");
        assert_eq!(request_id.as_deref(), Some("rid"));
        assert_eq!(
            table.snapshot("svc", "j-1").unwrap().pos,
            1,
            "but a read waits for WAITING"
        );
        let done = step(&table, "j-1", TransitionState::Job(JobState::Done)).unwrap();
        assert_eq!(done.pos, 3, "the terminal sync covers both");
        assert_eq!(table.snapshot("svc", "j-1").unwrap().pos, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_deferred_record_is_neither_synced_nor_released_until_someone_syncs_past_it() {
        // A container's table, armed by hand: no confirmer thread runs.
        let e = crate::Everest::new("deferred");
        let shared = &e.shared;
        let (table, label) = (&shared.jobs, shared.label.as_str());
        let (store, dir) = arm(table, "deferred");
        let bus = mathcloud_events::global();
        let sub = bus.subscribe(mathcloud_events::KindFilter::parse("job."), 1 << 10);
        let waiting = TransitionState::Job(JobState::Waiting);
        let quiet = |sub: &mathcloud_events::Subscription| {
            std::iter::from_fn(|| sub.try_recv())
                .all(|ev| ev.payload.get("container").and_then(Value::as_str) != Some(label))
        };

        // Deferred: written, not synced, not announced — and still readable
        // only through a barrier at its own record.
        let syncs = store.journal_stats().syncs;
        assert_eq!(step(table, "j-1", waiting).unwrap().defer(), 1);
        assert_eq!(step(table, "j-2", waiting).unwrap().defer(), 2);
        assert_eq!(store.journal_stats().records, 2);
        assert_eq!(store.journal_stats().syncs, syncs, "defer does not sync");
        assert_eq!(store.journal_stats().durable, 0);
        assert_eq!(table.snapshot("svc", "j-2").unwrap().pos, 2);
        assert!(quiet(&sub), "nor does it release");

        // The next sync anyone takes releases both, in id order.
        drop(step(table, "j-3", waiting).unwrap());
        let arrived = events_of(&sub, label, 3);
        let jobs: Vec<&str> = arrived.iter().map(|(_, _, job)| job.as_str()).collect();
        assert_eq!(jobs, ["j-1", "j-2", "j-3"]);
        assert!(arrived.windows(2).all(|w| w[0].0 < w[1].0));

        // With nobody syncing, the confirmer's round does it.
        assert_eq!(step(table, "j-4", waiting).unwrap().defer(), 4);
        assert_eq!(step(table, "j-5", waiting).unwrap().defer(), 5);
        assert!(quiet(&sub));
        assert_eq!(table.confirm_unwaited(0), Some(5));
        assert_eq!(store.journal_stats().durable, 5);
        let arrived = events_of(&sub, label, 2);
        assert_eq!(
            (arrived[0].2.as_str(), arrived[1].2.as_str()),
            ("j-4", "j-5")
        );
        assert!(arrived[0].0 < arrived[1].0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
