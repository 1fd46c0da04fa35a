//! The durable job store: a write-ahead journal for the container's job
//! state machine.
//!
//! Every [`crate::Everest`] job transition (`WAITING → RUNNING →
//! DONE/FAILED/CANCELLED`, plus a `DELETED` tombstone when a terminal job's
//! record is removed) is appended as a single-line JSON record to an fsync'd
//! per-container journal, following the `mathcloud-events` JSON-lines
//! conventions ([`mathcloud_events::jsonl`]): one document per line,
//! `sync_data` before the transition is acknowledged, and recovery that
//! skips torn or corrupt lines instead of failing. Writing and syncing are
//! separate steps ([`JobStore::write`], [`JobStore::sync_to`]): the container
//! writes inside the critical section that applies a transition and syncs
//! after leaving it, so concurrent transitions share one `fsync`
//! ([`jsonl::Appender`]'s group commit). [`JobStore::append`] does both.
//!
//! This is also the only durable log of `job.*` events: a record carries the
//! bus id of the event it causes (`"ev"`), so the sync that makes the record
//! durable is the one the event waits for, ids never go backwards over a
//! restart ([`JobStore::last_ev`]), and a `Last-Event-ID` older than the
//! bus's ring is answered from the fold.
//!
//! The store folds records as they are appended, so it always holds the
//! journal's net state: one [`RecoveredJob`] per live or terminal job, with
//! tombstoned jobs removed. **Compaction** rewrites the journal from that
//! fold once enough records have accumulated — the rewritten file holds a
//! `meta` line (sequence, job-id and event-id watermarks, so ids stay
//! monotonic even when every record naming them is gone) plus one consolidated record
//! per surviving job, ordered by original sequence number.
//!
//! On container start, [`crate::Everest::attach_job_journal`] replays the
//! fold: terminal jobs answer `GET /jobs/{id}` immediately without
//! re-execution, interrupted (WAITING/RUNNING) jobs are re-queued through
//! the handler pool, and journaled `Idempotency-Key` mappings are restored
//! so a retried submission can never double-run a job — even across a
//! restart.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use mathcloud_core::JobState;
use mathcloud_events::{jsonl, now_ms};
use mathcloud_json::value::Object;
use mathcloud_json::{ser, Value};
use mathcloud_telemetry::sync::Mutex;
use mathcloud_telemetry::{metrics, trace, Counter, Gauge};

/// Default number of appended records between compactions.
pub const DEFAULT_COMPACT_EVERY: usize = 1024;

/// What a journal record says happened to a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionState {
    /// The job reached this state-machine state.
    Job(JobState),
    /// Tombstone: a `DELETE` removed the terminal job's record and files.
    Deleted,
}

impl TransitionState {
    /// The wire token stored in the journal's `state` field.
    pub fn as_str(self) -> &'static str {
        match self {
            TransitionState::Job(s) => s.as_str(),
            TransitionState::Deleted => "DELETED",
        }
    }

    fn parse(s: &str) -> Option<TransitionState> {
        if s == "DELETED" {
            return Some(TransitionState::Deleted);
        }
        s.parse().ok().map(TransitionState::Job)
    }
}

/// One journal record, borrowed from its parsed line: sequence number,
/// service, job, what happened, and the optional fields. `None` when a
/// required field is missing or mistyped — how recovery skips a torn final
/// record, mirroring the events-journal torn-tail rule.
fn parse_record(v: &Value) -> Option<(u64, &str, &str, TransitionState, TransitionDetail<'_>)> {
    let text = |key: &str| v.get(key).and_then(Value::as_str);
    let number = |key: &str| v.get(key).and_then(Value::as_u64);
    Some((
        number("seq")?,
        text("service")?,
        text("job")?,
        TransitionState::parse(text("state")?)?,
        TransitionDetail {
            ev: number("ev"),
            idem_key: text("idem_key"),
            memo_key: text("memo_key"),
            request_id: text("request_id"),
            inputs: v.get("inputs").and_then(Value::as_object),
            outputs: v.get("outputs").and_then(Value::as_object),
            error: text("error"),
            runtime_ms: number("runtime_ms"),
        },
    ))
}

/// The journal's net knowledge of one job: every record folded, last state
/// wins, submission fields retained from the `WAITING` record.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredJob {
    /// The service the job belongs to.
    pub service: String,
    /// The job id.
    pub job: String,
    /// The last journaled state.
    pub state: JobState,
    /// The submission's `Idempotency-Key`, if any.
    pub idem_key: Option<String>,
    /// The submission's canonical memo key, if any.
    pub memo_key: Option<String>,
    /// The submission's request id, if any.
    pub request_id: Option<String>,
    /// Validated inputs (what re-execution needs); empty once the job is
    /// terminal.
    pub inputs: Object,
    /// Outputs, when the job finished.
    pub outputs: Option<Object>,
    /// Error text, when the job failed.
    pub error: Option<String>,
    /// Adapter runtime, on terminal jobs.
    pub runtime_ms: Option<u64>,
    /// The last record's sequence number (orders consolidated rewrites).
    seq: u64,
    /// The bus id of the event the last record caused (0: it names none),
    /// and when that was.
    ev: u64,
    time_ms: u64,
}

struct StoreInner {
    /// Last assigned sequence number.
    seq: u64,
    /// Highest event id any record or `meta` line has named.
    ev: u64,
    /// Records appended since the last compaction (or open).
    appended: usize,
    /// The folded journal: net state per (service, job).
    folded: HashMap<(String, String), RecoveredJob>,
    /// Highest numeric suffix seen in any `j-<n>` id, including deleted
    /// jobs — the id re-seed watermark, persisted via the `meta` line.
    max_job: u64,
}

impl StoreInner {
    /// Folds one record in, all but `d.inputs`: returns the job's entry while
    /// it is live, for the caller to put the inputs in — by copy from a
    /// borrowed detail, by move from a parsed line. A terminal record drops
    /// them: nothing runs a settled job again.
    fn fold(
        &mut self,
        seq: u64,
        service: &str,
        job: &str,
        state: TransitionState,
        d: &TransitionDetail<'_>,
        time_ms: u64,
    ) -> Option<&mut RecoveredJob> {
        self.seq = self.seq.max(seq);
        self.ev = self.ev.max(d.ev.unwrap_or(0));
        if let Some(n) = job_number(job) {
            self.max_job = self.max_job.max(n);
        }
        let key = (service.to_string(), job.to_string());
        match state {
            TransitionState::Deleted => {
                self.folded.remove(&key);
                None
            }
            TransitionState::Job(state) => {
                let entry = self.folded.entry(key).or_insert_with(|| RecoveredJob {
                    service: service.to_string(),
                    job: job.to_string(),
                    state,
                    idem_key: None,
                    memo_key: None,
                    request_id: None,
                    inputs: Object::new(),
                    outputs: None,
                    error: None,
                    runtime_ms: None,
                    seq,
                    ev: 0,
                    time_ms,
                });
                entry.state = state;
                entry.seq = seq;
                (entry.ev, entry.time_ms) = (d.ev.unwrap_or(0), time_ms);
                if let Some(k) = d.idem_key {
                    entry.idem_key = Some(k.to_string());
                }
                if let Some(k) = d.memo_key {
                    entry.memo_key = Some(k.to_string());
                }
                if let Some(r) = d.request_id {
                    entry.request_id = Some(r.to_string());
                }
                if let Some(o) = d.outputs {
                    entry.outputs = Some(o.clone());
                }
                if let Some(e) = d.error {
                    entry.error = Some(e.to_string());
                }
                if let Some(ms) = d.runtime_ms {
                    entry.runtime_ms = Some(ms);
                }
                if !state.is_terminal() {
                    return Some(entry);
                }
                entry.inputs = Object::new();
                None
            }
        }
    }
}

/// The numeric suffix of a `j-<n>` job id.
fn job_number(job: &str) -> Option<u64> {
    job.strip_prefix("j-").and_then(|n| n.parse().ok())
}

fn meta_line(inner: &StoreInner) -> String {
    format!(
        "{{\"meta\":true,\"seq\":{},\"max_job\":{},\"ev\":{}}}",
        inner.seq, inner.max_job, inner.ev
    )
}

/// One journal record as its single-line JSON form, serialized by reference:
/// inputs and outputs can be tens of kilobytes and are never cloned here.
fn record_line(
    seq: u64,
    service: &str,
    job: &str,
    state: TransitionState,
    d: &TransitionDetail<'_>,
    time_ms: u64,
) -> String {
    // Writing to a `String` cannot fail.
    let text = |out: &mut String, key: &str, value: Option<&str>| {
        if let Some(v) = value {
            let _ = write!(out, ",\"{key}\":");
            let _ = ser::write_escaped(out, v);
        }
    };
    let mut out = format!("{{\"seq\":{seq}");
    text(&mut out, "service", Some(service));
    text(&mut out, "job", Some(job));
    let _ = write!(out, ",\"state\":\"{}\"", state.as_str());
    if let Some(ev) = d.ev {
        let _ = write!(out, ",\"ev\":{ev}");
    }
    text(&mut out, "idem_key", d.idem_key);
    text(&mut out, "memo_key", d.memo_key);
    text(&mut out, "request_id", d.request_id);
    if let Some(i) = d.inputs {
        let _ = write!(out, ",\"inputs\":{i}");
    }
    if let Some(o) = d.outputs {
        let _ = write!(out, ",\"outputs\":{o}");
    }
    text(&mut out, "error", d.error);
    if let Some(ms) = d.runtime_ms {
        let _ = write!(out, ",\"runtime_ms\":{ms}");
    }
    let _ = write!(out, ",\"time_ms\":{time_ms}}}");
    out
}

/// The write-ahead job journal for one container.
///
/// All methods are thread-safe; writes are serialized on an internal lock
/// so record order on disk matches the order calls were made in.
pub struct JobStore {
    journal: jsonl::Appender,
    compact_every: usize,
    inner: Mutex<StoreInner>,
    appends: Counter,
    compactions: Counter,
    bytes: Gauge,
}

impl std::fmt::Debug for JobStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("JobStore")
            .field("path", &self.journal.path())
            .field("seq", &inner.seq)
            .field("jobs", &inner.folded.len())
            .field("appended", &inner.appended)
            .finish()
    }
}

impl JobStore {
    /// Opens (or creates) the journal at `path` and replays it, one line at
    /// a time.
    ///
    /// Torn or corrupt lines are skipped per the events-journal rule; the
    /// sequence counter and the `j-<n>` and event-id watermarks resume past
    /// everything recovered (including the `meta` lines a compaction or a
    /// recovery wrote), so a restart never reuses a sequence number, a job
    /// id or an event id. Records without `ev` — every record written before
    /// the job journal carried event ids — open like any other.
    ///
    /// Compaction rewrites the journal after every `compact_every` appended
    /// records (clamped to at least 1).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors opening or reading the file.
    pub fn open(path: &Path, compact_every: usize) -> io::Result<JobStore> {
        describe_metrics();
        let mut inner = StoreInner {
            seq: 0,
            ev: 0,
            appended: 0,
            folded: HashMap::new(),
            max_job: 0,
        };
        jsonl::read_values(path, |mut v| {
            if v.get("meta").and_then(Value::as_bool) == Some(true) {
                let mark = |key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0);
                inner.seq = inner.seq.max(mark("seq"));
                inner.max_job = inner.max_job.max(mark("max_job"));
                inner.ev = inner.ev.max(mark("ev"));
                return;
            }
            // The line owns its inputs: a live job's move into the fold.
            let inputs = v.as_object_mut().and_then(|line| line.remove("inputs"));
            if let Some((seq, service, job, state, detail)) = parse_record(&v) {
                let time_ms = v.get("time_ms").and_then(Value::as_u64).unwrap_or(0);
                let live = inner.fold(seq, service, job, state, &detail, time_ms);
                if let (Some(live), Some(Value::Object(inputs))) = (live, inputs) {
                    live.inputs = inputs;
                }
            }
        })?;
        let reg = metrics::global();
        let store = JobStore {
            // Opening repairs a torn (newline-less) tail left by a crash
            // mid-append, so the first post-recovery append cannot
            // concatenate onto the fragment and corrupt an acknowledged
            // record.
            journal: jsonl::Appender::open(path, "jobs")?,
            compact_every: compact_every.max(1),
            inner: Mutex::new(inner),
            appends: reg.counter("mc_job_journal_appends_total", &[]),
            compactions: reg.counter("mc_job_journal_compactions_total", &[]),
            bytes: reg.gauge("mc_job_journal_bytes", &[]),
        };
        store.measure();
        Ok(store)
    }

    /// Sets `mc_job_journal_bytes` to the file's size.
    fn measure(&self) {
        if let Ok(meta) = std::fs::metadata(self.journal.path()) {
            self.bytes.set(meta.len() as i64);
        }
    }

    /// The journal path.
    pub fn path(&self) -> &Path {
        self.journal.path()
    }

    /// The journal's net state, one entry per surviving job, ordered by job
    /// number (submission order for ids this container minted).
    pub fn recovered(&self) -> Vec<RecoveredJob> {
        let inner = self.inner.lock();
        let mut jobs: Vec<RecoveredJob> = inner.folded.values().cloned().collect();
        jobs.sort_by_key(|j| (job_number(&j.job).unwrap_or(u64::MAX), j.seq));
        jobs
    }

    /// The highest `j-<n>` suffix the journal has ever referenced —
    /// the watermark [`crate::Everest::attach_job_journal`] re-seeds its id
    /// counter past.
    pub fn max_job_number(&self) -> u64 {
        self.inner.lock().max_job
    }

    /// The last assigned sequence number.
    pub fn last_seq(&self) -> u64 {
        self.inner.lock().seq
    }

    /// The highest event id the journal has ever named: the bus must resume
    /// above it.
    pub fn last_ev(&self) -> u64 {
        self.inner.lock().ev
    }

    /// Writes a `meta` line saying event ids up to `ev` are taken, though no
    /// record names them (recovery's replayed events), and returns its log
    /// position, 0 if it could not be written.
    pub(crate) fn write_watermark(&self, ev: u64) -> u64 {
        let mut inner = self.inner.lock();
        inner.ev = inner.ev.max(ev);
        self.journal.write(meta_line(&inner)).unwrap_or_else(|e| {
            journal_error("append", &e);
            0
        })
    }

    /// Calls `each(id, time_ms, job)` for every surviving job whose latest
    /// transition was announced by an event with `after < id < before`.
    pub(crate) fn announced_between(
        &self,
        after: u64,
        before: u64,
        mut each: impl FnMut(u64, u64, &RecoveredJob),
    ) {
        let inner = self.inner.lock();
        for j in inner.folded.values() {
            if j.ev > after && j.ev < before {
                each(j.ev, j.time_ms, j);
            }
        }
    }

    /// What the journal file has written and synced so far.
    pub fn journal_stats(&self) -> jsonl::JournalStats {
        self.journal.stats()
    }

    /// Appends one transition and returns once it is durable: [`write`]
    /// followed by [`sync_to`]. Returns the assigned sequence number.
    ///
    /// [`write`]: JobStore::write
    /// [`sync_to`]: JobStore::sync_to
    pub fn append(
        &self,
        service: &str,
        job: &str,
        state: TransitionState,
        detail: TransitionDetail<'_>,
    ) -> u64 {
        let (seq, pos) = self.write_record(service, job, state, detail);
        self.sync_to(pos);
        seq
    }

    /// Writes one transition **without** waiting for the disk: assigns its
    /// sequence number, folds it into the net state, compacts when the
    /// threshold is reached, and returns the record's log position. The
    /// transition must not be acknowledged, published or otherwise shown to
    /// anyone before [`JobStore::sync_to`] has returned for that position.
    ///
    /// A journal I/O failure is reported as a metric and a trace event,
    /// never a panic or an error: losing durability must not take down the
    /// container (the same contract as the events journal).
    pub fn write(
        &self,
        service: &str,
        job: &str,
        state: TransitionState,
        detail: TransitionDetail<'_>,
    ) -> u64 {
        self.write_record(service, job, state, detail).1
    }

    /// Returns once every record up to log position `pos` is on disk. One
    /// `fsync` serves all callers waiting at the same time; a position that
    /// is already durable costs an atomic load.
    pub fn sync_to(&self, pos: u64) {
        if let Err(e) = self.journal.sync_to(pos) {
            journal_error("sync", &e);
        }
    }

    /// Returns `(sequence number, log position)` of the written record.
    fn write_record(
        &self,
        service: &str,
        job: &str,
        state: TransitionState,
        detail: TransitionDetail<'_>,
    ) -> (u64, u64) {
        let mut inner = self.inner.lock();
        let (seq, time_ms) = (inner.seq + 1, now_ms());
        let line = record_line(seq, service, job, state, &detail, time_ms);
        let pos = match self.journal.write(line) {
            Ok(pos) => {
                self.appends.inc();
                pos
            }
            Err(e) => {
                journal_error("append", &e);
                0
            }
        };
        let live = inner.fold(seq, service, job, state, &detail, time_ms);
        if let (Some(live), Some(inputs)) = (live, detail.inputs) {
            live.inputs = inputs.clone();
        }
        inner.appended += 1;
        if inner.appended >= self.compact_every {
            self.compact_locked(&mut inner);
        }
        (seq, pos)
    }

    /// Forces a compaction now (tests and shutdown paths).
    pub fn compact(&self) {
        let mut inner = self.inner.lock();
        self.compact_locked(&mut inner);
    }

    /// Rewrites the journal to the `meta` line plus one consolidated record
    /// per surviving job, ordered by last sequence so a recovery fold of the
    /// rewrite equals this fold. [`jsonl::Appender::rewrite`] makes the swap
    /// atomic and durable with two syncs — the file and its directory —
    /// however many records survive; they are serialized straight from the
    /// fold, by reference. Only live jobs carry inputs, so the rewrite is
    /// their inputs plus a few hundred bytes per settled job.
    fn compact_locked(&self, inner: &mut StoreInner) {
        let mut jobs: Vec<&RecoveredJob> = inner.folded.values().collect();
        jobs.sort_by_key(|j| j.seq);
        let rewritten = self.journal.rewrite(|out| {
            writeln!(out, "{}", meta_line(inner))?;
            for j in &jobs {
                let detail = TransitionDetail {
                    ev: (j.ev > 0).then_some(j.ev),
                    idem_key: j.idem_key.as_deref(),
                    memo_key: j.memo_key.as_deref(),
                    request_id: j.request_id.as_deref(),
                    inputs: (!j.state.is_terminal()).then_some(&j.inputs),
                    outputs: j.outputs.as_ref(),
                    error: j.error.as_deref(),
                    runtime_ms: j.runtime_ms,
                };
                let state = TransitionState::Job(j.state);
                let line = record_line(j.seq, &j.service, &j.job, state, &detail, j.time_ms);
                writeln!(out, "{line}")?;
            }
            Ok(())
        });
        if let Err(e) = rewritten {
            journal_error("compact", &e);
            return;
        }
        inner.appended = 0;
        self.compactions.inc();
        self.measure();
    }
}

/// Optional fields of one appended transition (borrowed, so hot paths do
/// not clone inputs and outputs just to journal them).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TransitionDetail<'a> {
    /// The bus id of the `job.*` event announcing the transition.
    pub ev: Option<u64>,
    /// The submission's `Idempotency-Key`.
    pub idem_key: Option<&'a str>,
    /// The submission's canonical memo key (see [`crate::memo`]).
    pub memo_key: Option<&'a str>,
    /// The submission's request id.
    pub request_id: Option<&'a str>,
    /// Validated inputs (`WAITING` records).
    pub inputs: Option<&'a Object>,
    /// Outputs (`DONE` records).
    pub outputs: Option<&'a Object>,
    /// Error text (`FAILED` records).
    pub error: Option<&'a str>,
    /// Adapter runtime (terminal records).
    pub runtime_ms: Option<u64>,
}

fn journal_error(op: &str, e: &io::Error) {
    metrics::global()
        .counter("mc_job_journal_errors_total", &[])
        .inc();
    trace::warn(
        "jobstore.journal_error",
        None,
        &[("op", op), ("error", &e.to_string())],
    );
}

fn describe_metrics() {
    use std::sync::OnceLock;
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let reg = metrics::global();
        reg.describe(
            "mc_job_journal_appends_total",
            "job transitions durably appended to the journal",
        );
        reg.describe(
            "mc_job_journal_compactions_total",
            "job-journal compaction rewrites",
        );
        reg.describe(
            "mc_job_journal_errors_total",
            "job-journal I/O failures (durability lost, container alive)",
        );
        reg.describe(
            "mc_job_journal_bytes",
            "job-journal size at open and after the last compaction",
        );
        reg.describe(
            "mc_jobs_deduplicated_total",
            "submissions answered from the Idempotency-Key map",
        );
        reg.describe(
            "mc_jobs_recovered_total",
            "jobs recovered from the journal on container start, by outcome",
        );
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathcloud_json::json;
    use std::fs::OpenOptions;
    use std::path::PathBuf;

    fn tmp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mc-jobstore-{tag}-{}-{}",
            std::process::id(),
            mathcloud_telemetry::next_request_id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("jobs.jsonl")
    }

    fn inputs() -> Object {
        json!({"a": 1}).as_object().unwrap().clone()
    }

    #[test]
    fn records_round_trip_through_json() {
        let (ins, outs) = (inputs(), json!({"total": 3}).as_object().unwrap().clone());
        let done = TransitionDetail {
            ev: Some(77),
            idem_key: Some("k1"),
            memo_key: Some("ab12"),
            request_id: Some("rid"),
            inputs: Some(&ins),
            outputs: Some(&outs),
            error: None,
            runtime_ms: Some(12),
        };
        let tomb = TransitionDetail {
            request_id: Some("rid"),
            runtime_ms: Some(12),
            ..Default::default()
        };
        for (state, detail) in [
            (TransitionState::Job(JobState::Done), done),
            (TransitionState::Deleted, tomb),
        ] {
            let line = record_line(9, "sum", "j-4", state, &detail, 1_700_000_000_000);
            let parsed = mathcloud_json::parse(&line).unwrap();
            assert_eq!(
                parse_record(&parsed),
                Some((9, "sum", "j-4", state, detail)),
                "{line}"
            );
        }
        assert!(parse_record(&json!({"seq": 1})).is_none());
        assert!(
            parse_record(&json!({"seq": 1, "service": "s", "job": "j-1", "state": "NOPE"}))
                .is_none()
        );
    }

    #[test]
    fn append_folds_and_recovery_replays_the_net_state() {
        let path = tmp_path("fold");
        let store = JobStore::open(&path, 1024).unwrap();
        let ins = inputs();
        store.append(
            "sum",
            "j-1",
            TransitionState::Job(JobState::Waiting),
            TransitionDetail {
                idem_key: Some("key-a"),
                memo_key: Some("feed"),
                inputs: Some(&ins),
                ..Default::default()
            },
        );
        store.append(
            "sum",
            "j-1",
            TransitionState::Job(JobState::Running),
            TransitionDetail::default(),
        );
        let outs = json!({"total": 2}).as_object().unwrap().clone();
        store.append(
            "sum",
            "j-1",
            TransitionState::Job(JobState::Done),
            TransitionDetail {
                outputs: Some(&outs),
                runtime_ms: Some(7),
                ..Default::default()
            },
        );
        store.append(
            "sum",
            "j-2",
            TransitionState::Job(JobState::Waiting),
            TransitionDetail {
                inputs: Some(&ins),
                ..Default::default()
            },
        );
        drop(store);

        let store = JobStore::open(&path, 1024).unwrap();
        let jobs = store.recovered();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].job, "j-1");
        assert_eq!(jobs[0].state, JobState::Done);
        assert_eq!(jobs[0].idem_key.as_deref(), Some("key-a"));
        assert_eq!(
            jobs[0].memo_key.as_deref(),
            Some("feed"),
            "memo key survives the fold across later transitions"
        );
        assert_eq!(jobs[0].outputs, Some(outs));
        assert_eq!(jobs[0].runtime_ms, Some(7));
        assert!(jobs[0].inputs.is_empty(), "a settled job carries no inputs");
        assert_eq!(jobs[1].job, "j-2");
        assert_eq!(jobs[1].state, JobState::Waiting);
        assert_eq!(jobs[1].inputs, ins, "a live one keeps its own");
        assert_eq!(store.max_job_number(), 2);
        assert_eq!(store.last_seq(), 4, "sequence resumes past the journal");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn deleted_jobs_are_dropped_but_their_ids_stay_reserved() {
        let path = tmp_path("tomb");
        let store = JobStore::open(&path, 1024).unwrap();
        let ins = inputs();
        store.append(
            "sum",
            "j-7",
            TransitionState::Job(JobState::Done),
            TransitionDetail {
                inputs: Some(&ins),
                ..Default::default()
            },
        );
        store.append(
            "sum",
            "j-7",
            TransitionState::Deleted,
            TransitionDetail::default(),
        );
        store.compact();
        drop(store);
        let store = JobStore::open(&path, 1024).unwrap();
        assert!(store.recovered().is_empty(), "tombstoned job is gone");
        assert_eq!(
            store.max_job_number(),
            7,
            "the meta line keeps the id watermark after compaction"
        );
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn event_ids_are_folded_and_their_high_water_mark_outlives_every_record() {
        let path = tmp_path("ev");
        let store = JobStore::open(&path, usize::MAX).unwrap();
        let announce = |job: &str, state, ev| {
            let detail = TransitionDetail {
                ev,
                ..Default::default()
            };
            store.append("sum", job, TransitionState::Job(state), detail);
        };
        announce("j-1", JobState::Waiting, Some(5));
        announce("j-1", JobState::Running, Some(6));
        announce("j-1", JobState::Done, Some(9));
        announce("j-2", JobState::Waiting, Some(7));
        announce("j-3", JobState::Waiting, None);
        let announced = |store: &JobStore, after, before| {
            let mut seen = Vec::new();
            store.announced_between(after, before, |ev, time_ms, j| {
                assert!(time_ms > 0);
                seen.push((ev, j.job.clone(), j.state));
            });
            seen.sort_by_key(|(ev, _, _)| *ev);
            seen
        };
        let both = vec![
            (7, "j-2".to_string(), JobState::Waiting),
            (9, "j-1".to_string(), JobState::Done),
        ];
        assert_eq!(
            announced(&store, 0, u64::MAX),
            both,
            "the latest event of each"
        );
        assert_eq!(announced(&store, 7, u64::MAX), both[1..]);
        assert_eq!(announced(&store, 0, 9), both[..1]);
        assert_eq!(store.last_ev(), 9);
        // Ids no record names: a `meta` line speaks for them.
        store.write_watermark(20);
        assert_eq!(store.last_ev(), 20);
        store.append("sum", "j-1", TransitionState::Deleted, Default::default());
        for reopen_after_compaction in [false, true] {
            if reopen_after_compaction {
                store.compact();
            }
            let reopened = JobStore::open(&path, usize::MAX).unwrap();
            assert_eq!(reopened.last_ev(), 20);
            assert_eq!(announced(&reopened, 0, u64::MAX), both[..1]);
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn compaction_shrinks_the_file_and_preserves_the_fold() {
        let path = tmp_path("compact");
        let store = JobStore::open(&path, usize::MAX).unwrap();
        let ins = inputs();
        let outs = json!({"total": 1}).as_object().unwrap().clone();
        for i in 1..=50u64 {
            let job = format!("j-{i}");
            store.append(
                "sum",
                &job,
                TransitionState::Job(JobState::Waiting),
                TransitionDetail {
                    inputs: Some(&ins),
                    ..Default::default()
                },
            );
            store.append(
                "sum",
                &job,
                TransitionState::Job(JobState::Running),
                TransitionDetail::default(),
            );
            store.append(
                "sum",
                &job,
                TransitionState::Job(JobState::Done),
                TransitionDetail {
                    outputs: Some(&outs),
                    runtime_ms: Some(1),
                    ..Default::default()
                },
            );
        }
        let before = std::fs::metadata(&path).unwrap().len();
        let fold_before = store.recovered();
        store.compact();
        let after = std::fs::metadata(&path).unwrap().len();
        assert!(
            after < before / 2,
            "3 records/job should consolidate to 1: {after} vs {before}"
        );
        drop(store);
        let store = JobStore::open(&path, usize::MAX).unwrap();
        assert_eq!(store.recovered(), fold_before);
        assert_eq!(store.last_seq(), 150);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn compaction_syncs_the_file_and_the_directory_whatever_survives() {
        let path = tmp_path("dirsync");
        let store = JobStore::open(&path, usize::MAX).unwrap();
        let ins = inputs();
        for i in 1..=300u64 {
            // Unsynced on purpose: the compaction's own syncs cover them.
            store.write(
                "sum",
                &format!("j-{i}"),
                TransitionState::Job(JobState::Waiting),
                TransitionDetail {
                    inputs: Some(&ins),
                    ..Default::default()
                },
            );
        }
        let before = store.journal_stats();
        assert_eq!((before.records, before.durable, before.syncs), (300, 0, 0));
        store.compact();
        let after = store.journal_stats();
        assert_eq!(
            after.syncs, 2,
            "one sync for the rewritten file, one for its directory — without \
             the second the rename itself can be lost in a crash, and with it \
             every append acknowledged after the compaction"
        );
        assert_eq!(after.durable, 300, "the rewrite made the backlog durable");
        // Post-compaction appends go to the file the directory now names.
        store.append(
            "sum",
            "j-301",
            TransitionState::Job(JobState::Waiting),
            TransitionDetail {
                inputs: Some(&ins),
                ..Default::default()
            },
        );
        assert_eq!(store.journal_stats().syncs, 3, "a lone append: one sync");
        drop(store);
        let store = JobStore::open(&path, usize::MAX).unwrap();
        assert_eq!(store.recovered().len(), 301);
        assert_eq!(store.last_seq(), 301);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn the_size_gauge_reads_the_file_from_open_on() {
        let path = tmp_path("gauge");
        let store = JobStore::open(&path, usize::MAX).unwrap();
        let ins = inputs();
        for n in 1..=7 {
            let detail = TransitionDetail {
                inputs: Some(&ins),
                ..Default::default()
            };
            let waiting = TransitionState::Job(JobState::Waiting);
            store.append("sum", &format!("j-{n}"), waiting, detail);
        }
        drop(store);
        let len = std::fs::metadata(&path).unwrap().len() as i64;
        // The gauge is process-wide and other tests of this binary open
        // journals too: one of a few reopens must read this file's size.
        let read_back = (0..50).any(|_| {
            let _store = JobStore::open(&path, usize::MAX).unwrap();
            metrics::global().gauge_value("mc_job_journal_bytes", &[]) == Some(len)
        });
        assert!(
            read_back,
            "mc_job_journal_bytes never read {len} after a reopen"
        );
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn records_serialized_by_reference_match_the_value_form_byte_for_byte() {
        // The journal format is what `Value::to_string` made of an object
        // with these keys in this order; journals written that way must
        // keep opening, and new records must look the same.
        let ins = json!({"a": 1, "s": "q\"\n"}).as_object().unwrap().clone();
        let outs = json!({"total": [1, 2.5, null]})
            .as_object()
            .unwrap()
            .clone();
        let full = record_line(
            9,
            "sum",
            "j-4",
            TransitionState::Job(JobState::Done),
            &TransitionDetail {
                ev: None,
                idem_key: Some("k\\1"),
                memo_key: Some("ab12"),
                request_id: Some("rid"),
                inputs: Some(&ins),
                outputs: Some(&outs),
                error: Some("bo\"om"),
                runtime_ms: Some(12),
            },
            1_700_000_000_000,
        );
        let expected = json!({
            "seq": 9, "service": "sum", "job": "j-4", "state": "DONE",
            "idem_key": "k\\1", "memo_key": "ab12", "request_id": "rid",
            "inputs": (Value::Object(ins)), "outputs": (Value::Object(outs)),
            "error": "bo\"om", "runtime_ms": 12, "time_ms": 1_700_000_000_000i64
        });
        assert_eq!(full, expected.to_string());
        let bare = record_line(
            10,
            "sum",
            "j-4",
            TransitionState::Deleted,
            &TransitionDetail::default(),
            5,
        );
        assert_eq!(
            bare,
            json!({"seq": 10, "service": "sum", "job": "j-4", "state": "DELETED", "time_ms": 5})
                .to_string()
        );
    }

    /// The three records of one 64 KiB job, with fixed sequence numbers and
    /// times: what `tests/fixtures/record_lines_64k.jsonl` holds.
    fn payload_record_lines() -> String {
        const ALPHABET: &[u8; 64] =
            b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_";
        let mut rng = mathcloud_telemetry::XorShift64::new(0x6a6f_7572_6e61_6c21);
        // Clean runs of ~1 KiB with something to escape between them.
        let data: String = (0..64 * 1024)
            .map(|i| match (i % 1021, i % 4) {
                (0, 0) => '"',
                (0, 1) => '\\',
                (0, 2) => '\n',
                (0, _) => '\u{1b}',
                (510, _) => 'é',
                _ => ALPHABET[rng.index(64)] as char,
            })
            .collect();
        let ins: Object = [
            ("data".to_string(), Value::from(data)),
            ("n".to_string(), Value::from(3)),
            ("scale".to_string(), Value::from(2.0)),
        ]
        .into_iter()
        .collect();
        let outs = json!({"file": "mc-file:f-17", "bytes": 65536, "note": "é\t\"ok\""})
            .as_object()
            .unwrap()
            .clone();
        let waiting = TransitionDetail {
            ev: Some(121),
            idem_key: Some("idem \"k\"\\1"),
            memo_key: Some("83643635b7a6f72774f7c5d0611d96efa408f1a13d39f88aab0c667fe09c56a1"),
            request_id: Some("rid-64k"),
            inputs: Some(&ins),
            ..Default::default()
        };
        let running = TransitionDetail {
            ev: Some(122),
            ..Default::default()
        };
        let done = TransitionDetail {
            ev: Some(123),
            outputs: Some(&outs),
            runtime_ms: Some(3),
            ..Default::default()
        };
        let failed = TransitionDetail {
            ev: Some(9_007_199_254_740_993),
            error: Some("adapter said: \"no\"\n\u{7}"),
            runtime_ms: Some(0),
            ..Default::default()
        };
        let t = 1_790_345_604_030;
        [
            record_line(
                41,
                "reverse",
                "j-7",
                TransitionState::Job(JobState::Waiting),
                &waiting,
                t,
            ),
            record_line(
                42,
                "reverse",
                "j-7",
                TransitionState::Job(JobState::Running),
                &running,
                t + 1,
            ),
            record_line(
                43,
                "reverse",
                "j-7",
                TransitionState::Job(JobState::Done),
                &done,
                t + 4,
            ),
            record_line(
                44,
                "reverse",
                "j-8",
                TransitionState::Job(JobState::Failed),
                &failed,
                t + 5,
            ),
        ]
        .map(|line| line + "\n")
        .concat()
    }

    #[test]
    fn payload_records_match_the_fixture_byte_for_byte() {
        // Journals outlive upgrades, so the bytes may not move. The fixture
        // was written by this very function on the parent of the PR that made
        // the JSON writer generic and its escaper copy runs, and regenerated
        // once, on purpose, when records began to carry `ev`: with the four
        // `,"ev":N` removed it is the older file, byte for byte.
        let fixture = include_str!("../tests/fixtures/record_lines_64k.jsonl");
        let lines = payload_record_lines();
        assert_eq!(lines.len(), fixture.len());
        for (n, (got, expected)) in lines.lines().zip(fixture.lines()).enumerate() {
            assert!(got == expected, "record {n} differs from the fixture");
        }
        // And the old lines read back as the records they were written from.
        let waiting = mathcloud_json::parse(fixture.lines().next().unwrap()).unwrap();
        let (seq, service, job, state, detail) = parse_record(&waiting).unwrap();
        assert_eq!((seq, service, job), (41, "reverse", "j-7"));
        assert_eq!(state, TransitionState::Job(JobState::Waiting));
        assert_eq!(detail.idem_key, Some("idem \"k\"\\1"));
        assert_eq!(detail.ev, Some(121));
        let failed = mathcloud_json::parse(fixture.lines().last().unwrap()).unwrap();
        let last_ev = parse_record(&failed).unwrap().4.ev;
        assert_eq!(last_ev, Some(9_007_199_254_740_993), "past 2^53, exactly");
        let data = detail
            .inputs
            .unwrap()
            .get("data")
            .unwrap()
            .as_str()
            .unwrap();
        assert_eq!(data.chars().count(), 64 * 1024);
    }

    #[test]
    fn torn_tail_is_skipped_on_recovery() {
        use std::io::Write;
        let path = tmp_path("torn");
        let store = JobStore::open(&path, 1024).unwrap();
        let ins = inputs();
        store.append(
            "sum",
            "j-1",
            TransitionState::Job(JobState::Waiting),
            TransitionDetail {
                inputs: Some(&ins),
                ..Default::default()
            },
        );
        drop(store);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"seq\": 2, \"service\": \"sum\", \"jo")
            .unwrap();
        drop(f);
        let store = JobStore::open(&path, 1024).unwrap();
        assert_eq!(store.recovered().len(), 1);
        assert_eq!(store.last_seq(), 1);
        // The next append overwrites nothing and keeps sequence monotonic.
        let seq = store.append(
            "sum",
            "j-1",
            TransitionState::Job(JobState::Running),
            TransitionDetail::default(),
        );
        assert_eq!(seq, 2);
        drop(store);
        // The append after recovery must itself survive the next recovery:
        // the torn fragment was newline-terminated on open, so the new
        // record sits on its own line instead of being glued to it.
        let store = JobStore::open(&path, 1024).unwrap();
        let jobs = store.recovered();
        assert_eq!(jobs.len(), 1);
        assert_eq!(
            jobs[0].state,
            JobState::Running,
            "the post-recovery transition survived its own recovery"
        );
        assert_eq!(store.last_seq(), 2);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn complete_record_missing_only_its_newline_survives_an_append() {
        let path = tmp_path("no-newline");
        let store = JobStore::open(&path, 1024).unwrap();
        let ins = inputs();
        store.append(
            "sum",
            "j-1",
            TransitionState::Job(JobState::Waiting),
            TransitionDetail {
                inputs: Some(&ins),
                ..Default::default()
            },
        );
        store.append(
            "sum",
            "j-2",
            TransitionState::Job(JobState::Waiting),
            TransitionDetail {
                inputs: Some(&ins),
                ..Default::default()
            },
        );
        drop(store);
        // Chop exactly the trailing newline: the final record is complete
        // and replays, but an unrepaired append would destroy it.
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.last(), Some(&b'\n'));
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();

        let store = JobStore::open(&path, 1024).unwrap();
        assert_eq!(store.recovered().len(), 2, "complete tail record replays");
        store.append(
            "sum",
            "j-2",
            TransitionState::Job(JobState::Running),
            TransitionDetail::default(),
        );
        drop(store);
        let store = JobStore::open(&path, 1024).unwrap();
        let jobs = store.recovered();
        assert_eq!(jobs.len(), 2, "neither record was destroyed");
        assert_eq!(jobs[1].job, "j-2");
        assert_eq!(jobs[1].state, JobState::Running);
        assert_eq!(store.last_seq(), 3);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
