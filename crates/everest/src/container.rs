//! The container core: Service Manager + Job Manager.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use mathcloud_core::{uri, JobId, JobRepresentation, JobState, ServiceDescription};
use mathcloud_json::value::Object;
use mathcloud_json::Value;
use mathcloud_security::{AccessPolicy, Identity};
use mathcloud_telemetry::sync::{Condvar, Mutex, RwLock};
use mathcloud_telemetry::{
    metrics, trace, AutoscaleConfig, Gauge, Histogram, PoolController, PoolStatus, ScalableTarget,
};

use crate::adapter::{Adapter, AdapterContext};
use crate::filestore::FileStore;
use crate::jobstore::{JobStore, TransitionDetail, TransitionState, DEFAULT_COMPACT_EVERY};
use crate::memo;

/// Default number of job handler threads ("a configurable pool of handler
/// threads", §3.1).
const DEFAULT_HANDLERS: usize = 4;

/// Publishes a `job.*` lifecycle event on the process-wide bus. These are
/// what `GET /events` subscribers (push-mode clients, the workflow engine)
/// watch instead of polling job status.
fn publish_job_event(
    kind: &str,
    container: &str,
    service: &str,
    job_id: &str,
    request_id: Option<&str>,
    error: Option<&str>,
) {
    let payload = job_event_payload(container, service, job_id, error, false);
    mathcloud_events::global().publish(kind, request_id, payload);
}

/// The payload of a `job.*` event. Recovery sets the `replayed` flag to mark
/// transitions that are being republished from the job journal rather than
/// happening for the first time.
fn job_event_payload(
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

/// The authenticated originator of a request, as established by the security
/// middleware.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Caller {
    /// The (possibly delegated) user identity.
    pub identity: Identity,
    /// When the call is made by a trusted service on the user's behalf, the
    /// service certificate DN.
    pub proxy_dn: Option<String>,
}

impl Caller {
    /// An unauthenticated caller.
    pub fn anonymous() -> Self {
        Caller {
            identity: Identity::Anonymous,
            proxy_dn: None,
        }
    }

    /// A directly-authenticated caller.
    pub fn direct(identity: Identity) -> Self {
        Caller {
            identity,
            proxy_dn: None,
        }
    }

    /// A delegated call by `proxy_dn` on behalf of `identity`.
    pub fn proxied(identity: Identity, proxy_dn: &str) -> Self {
        Caller {
            identity,
            proxy_dn: Some(proxy_dn.to_string()),
        }
    }
}

/// Why a submission (or access) was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitRejection {
    /// No deployed service has that name.
    NoSuchService(String),
    /// The caller failed the service's access policy.
    AccessDenied(String),
    /// Inputs failed validation against the service description.
    InvalidInputs(Vec<String>),
}

impl SubmitRejection {
    /// The HTTP status this rejection maps to.
    pub fn status(&self) -> u16 {
        match self {
            SubmitRejection::NoSuchService(_) => 404,
            SubmitRejection::AccessDenied(_) => 403,
            SubmitRejection::InvalidInputs(_) => 400,
        }
    }
}

impl fmt::Display for SubmitRejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitRejection::NoSuchService(name) => write!(f, "no such service: {name}"),
            SubmitRejection::AccessDenied(why) => write!(f, "access denied: {why}"),
            SubmitRejection::InvalidInputs(errs) => {
                write!(f, "invalid inputs: {}", errs.join("; "))
            }
        }
    }
}

impl std::error::Error for SubmitRejection {}

struct ServiceEntry {
    description: ServiceDescription,
    adapter: Arc<dyn Adapter>,
    policy: AccessPolicy,
}

struct JobRecord {
    state: JobState,
    outputs: Option<Object>,
    error: Option<String>,
    cancel: Arc<AtomicBool>,
    inputs: Object,
    runtime_ms: Option<u64>,
    /// Request id of the submission that created the job, for end-to-end
    /// correlation (`X-MC-Request-Id`).
    request_id: Option<String>,
    submitted_at: Instant,
    /// Monotonic rank assigned when the job reached a terminal state;
    /// `None` while live. Terminal-retention eviction removes the lowest
    /// ranks (oldest-settled) first.
    terminal_seq: Option<u64>,
    /// Journal position of the job's last record (0 without a journal, or
    /// when recovered from one): written inside the `jobs` critical section,
    /// synced outside it. Whatever hands this job's state to anyone passes
    /// [`Shared::sync_to`] for it first. The RUNNING record never moves it:
    /// recovery treats WAITING and RUNNING alike, and its bytes ride on the
    /// terminal record's sync.
    journal_pos: u64,
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

/// Pre-registered instrument handles for one container instance, labelled so
/// several containers in one process (a test farm, a PaaS host) stay
/// distinguishable in the process-wide registry.
struct ContainerMetrics {
    label: String,
    queue_depth: Gauge,
    busy_workers: Gauge,
    pool_workers: Gauge,
    wait_seconds: Histogram,
}

impl ContainerMetrics {
    fn new(name: &str) -> Self {
        static INSTANCE: AtomicU64 = AtomicU64::new(0);
        let label = format!("{name}#{}", INSTANCE.fetch_add(1, Ordering::Relaxed));
        let reg = metrics::global();
        reg.describe(
            "mc_pool_queue_depth",
            "jobs waiting in the handler-pool queue",
        );
        reg.describe(
            "mc_pool_busy_workers",
            "handler threads currently running a job",
        );
        reg.describe("mc_pool_workers", "size of the handler thread pool");
        reg.describe(
            "mc_job_wait_seconds",
            "time jobs spend queued (WAITING to RUNNING)",
        );
        reg.describe(
            "mc_job_run_seconds",
            "adapter execution time (RUNNING to terminal)",
        );
        reg.describe("mc_job_transitions_total", "job state transitions");
        reg.describe("mc_jobs_submitted_total", "jobs accepted per service");
        reg.describe(
            "mc_jobs_evicted_total",
            "terminal job records evicted by the retention cap",
        );
        reg.describe(
            "mc_cache_hits_total",
            "submissions answered from the result memo cache (completed or coalesced)",
        );
        reg.describe(
            "mc_cache_misses_total",
            "memoized submissions that required a fresh execution",
        );
        let l: &[(&str, &str)] = &[("container", &label)];
        ContainerMetrics {
            queue_depth: reg.gauge("mc_pool_queue_depth", l),
            busy_workers: reg.gauge("mc_pool_busy_workers", l),
            pool_workers: reg.gauge("mc_pool_workers", l),
            wait_seconds: reg.histogram("mc_job_wait_seconds", l),
            label: label.clone(),
        }
    }

    fn transition(&self, from: &str, to: &str) {
        metrics::global()
            .counter(
                "mc_job_transitions_total",
                &[("container", &self.label), ("from", from), ("to", to)],
            )
            .inc();
    }

    fn run_seconds(&self, adapter: &str) -> Histogram {
        metrics::global().histogram(
            "mc_job_run_seconds",
            &[("container", &self.label), ("adapter", adapter)],
        )
    }
}

/// The handler-pool job queue: a std-only MPMC queue whose depth doubles as
/// the `mc_pool_queue_depth` gauge. Workers block on [`JobQueue::pop`]; the
/// queue reports closed once every [`JobSender`] (i.e. every `Everest`
/// clone) is gone, which is what lets handler threads exit.
///
/// The pool behind the queue is dynamically resizable: growth spawns fresh
/// worker threads, shrinkage enqueues poison pills (the `retiring` counter)
/// that the next idle worker consumes and exits on. A busy worker always
/// finishes its current job before it can see a pill, so scale-down never
/// aborts in-flight work.
struct JobQueue {
    state: Mutex<JobQueueState>,
    ready: Condvar,
}

struct JobQueueState {
    items: VecDeque<(String, String)>,
    senders: usize,
    /// Desired pool size. Live worker threads = `workers + retiring`: each
    /// pending retirement is a thread that has not consumed its pill yet.
    workers: usize,
    /// Outstanding poison pills.
    retiring: usize,
}

/// What a worker got back from [`JobQueue::pop`].
enum Popped {
    Job((String, String)),
    /// A poison pill: this worker should exit.
    Retire,
    /// Every sender is gone: no more jobs can ever arrive.
    Closed,
}

impl JobQueue {
    fn push(&self, item: (String, String), depth: &Gauge) {
        let mut st = self.state.lock();
        st.items.push_back(item);
        depth.set(st.items.len() as i64);
        drop(st);
        self.ready.notify_one();
    }

    fn pop(&self, depth: &Gauge) -> Popped {
        let mut st = self.state.lock();
        loop {
            // Pills take priority over jobs: a resize decision already
            // accounted for the queued work staying with the surviving
            // workers, and consuming pills eagerly keeps the live thread
            // count converging on the desired size.
            if st.retiring > 0 {
                st.retiring -= 1;
                return Popped::Retire;
            }
            if let Some(item) = st.items.pop_front() {
                depth.set(st.items.len() as i64);
                return Popped::Job(item);
            }
            if st.senders == 0 {
                return Popped::Closed;
            }
            self.ready.wait(&mut st);
        }
    }
}

/// Owning handle to the job queue; cloning tracks sender counts so workers
/// wake up and exit when the last container handle is dropped.
struct JobSender(Arc<JobQueue>);

impl Clone for JobSender {
    fn clone(&self) -> Self {
        self.0.state.lock().senders += 1;
        JobSender(Arc::clone(&self.0))
    }
}

impl Drop for JobSender {
    fn drop(&mut self) {
        let mut st = self.0.state.lock();
        st.senders -= 1;
        let last = st.senders == 0;
        drop(st);
        if last {
            self.0.ready.notify_all();
        }
    }
}

struct Shared {
    name: String,
    services: RwLock<Vec<Arc<ServiceEntry>>>,
    jobs: Mutex<HashMap<(String, String), JobRecord>>,
    job_done: Condvar,
    files: Arc<FileStore>,
    next_job: AtomicU64,
    stats: Mutex<ContainerStats>,
    metrics: ContainerMetrics,
    started: Instant,
    /// The durable job journal, when [`Everest::attach_job_journal`] armed
    /// one. Unset keeps the container fully in-memory (the default).
    store: OnceLock<Arc<JobStore>>,
    /// `(service, Idempotency-Key) → job id`: retried keyed submissions are
    /// answered from here instead of creating a second job. Rebuilt from
    /// the journal on recovery. `None` is a reservation — a racing
    /// submission won the key and is creating (and fsync-journaling) its
    /// job *outside* this lock; losers wait on [`Shared::idem_filled`] for
    /// the id. Lock order: `idem` before `jobs` before the store, always;
    /// the lock is never held across a journal sync.
    idem: Mutex<HashMap<(String, String), Option<String>>>,
    /// Signalled when a reservation in [`Shared::idem`] is filled with its
    /// job id.
    idem_filled: Condvar,
    /// Result memoization switch (see [`Everest::set_result_memoization`]).
    /// Off by default: memoization changes submission semantics (a repeat
    /// of a completed request returns the *same* job), so it is opt-in.
    memo_enabled: AtomicBool,
    /// Canonical memo key (see [`crate::memo`]) → job id. A `Some` entry
    /// points at the job that computed (or is computing) the key's result;
    /// `None` is a reservation exactly like [`Shared::idem`]'s — the
    /// winning submission is creating its job outside the lock, and racing
    /// identical submissions wait on [`Shared::memo_filled`] so N storms
    /// coalesce onto one execution. Lock order: `idem` before `memo`
    /// before `jobs` before the store; never held across a journal sync.
    memo: Mutex<HashMap<String, Option<String>>>,
    /// Signalled when a reservation in [`Shared::memo`] is filled.
    memo_filled: Condvar,
    /// Maximum terminal job records retained; `usize::MAX` (the default)
    /// keeps everything. See [`Everest::set_terminal_retention`].
    retention: AtomicUsize,
    /// Source of [`JobRecord::terminal_seq`] ranks.
    next_terminal: AtomicU64,
}

impl Shared {
    /// Writes one transition to the job journal, if armed, and returns its
    /// position for [`Shared::sync_to`]. Called inside the `jobs` critical
    /// section that applied the in-memory transition, so per-job record
    /// order on disk matches in-memory history exactly.
    fn journal(
        &self,
        service: &str,
        job_id: &str,
        state: TransitionState,
        detail: TransitionDetail<'_>,
    ) -> u64 {
        self.store
            .get()
            .map_or(0, |store| store.write(service, job_id, state, detail))
    }

    /// The durability barrier: returns once the journal record at `pos` is
    /// on disk. Called with no lock held, so concurrent callers share one
    /// `fsync`; an atomic compare when already durable.
    fn sync_to(&self, pos: u64) {
        if let Some(store) = self.store.get() {
            store.sync_to(pos);
        }
    }
}

/// What [`Everest::attach_job_journal`] recovered from the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Interrupted (WAITING/RUNNING) jobs re-queued for execution.
    pub requeued: usize,
    /// Terminal jobs whose results were replayed into memory.
    pub replayed: usize,
    /// `Idempotency-Key` mappings restored.
    pub idem_keys: usize,
    /// Result-memoization keys restored: completed jobs whose repeats will
    /// hit the cache again, plus re-queued live jobs repeats will coalesce
    /// onto.
    pub memo_keys: usize,
}

/// The full outcome of one submission, as the REST layer needs it.
#[derive(Debug, Clone)]
pub struct SubmitOutcome {
    /// The job answering the submission.
    pub rep: JobRepresentation,
    /// The submission repeated an `Idempotency-Key` and was answered with
    /// the original job (`X-MC-Deduplicated`).
    pub deduplicated: bool,
    /// The submission was answered from the result memo cache — either a
    /// completed job with the same canonical inputs, or an in-flight one it
    /// coalesced onto (`X-MC-Memo-Hit`).
    pub memo_hit: bool,
}

/// A point-in-time health report, served as `GET /health` on every container.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthReport {
    /// Seconds since the container was created.
    pub uptime_seconds: f64,
    /// Live job records currently in each state.
    pub waiting: usize,
    pub running: usize,
    pub done: usize,
    pub failed: usize,
    pub cancelled: usize,
    /// Cumulative counters since start.
    pub stats: ContainerStats,
    /// Handler-pool size.
    pub pool_workers: usize,
    /// Handler threads currently executing a job.
    pub busy_workers: usize,
    /// Jobs queued behind the pool.
    pub queue_depth: usize,
}

impl HealthReport {
    /// Pool saturation in `[0, 1]`: busy workers over pool size.
    ///
    /// A zero-worker pool reports 0.0 — `/health` serializes this value to
    /// JSON, which has no representation for the infinity that
    /// [`PoolStatus::saturation`] uses to mean "no workers, pending work".
    /// The autoscaler reads `PoolStatus`, not this report, so the clamp never
    /// masks a scale-up signal. (An `Everest` pool also can't actually reach
    /// zero: [`Everest::resize_pool`] clamps to one worker.)
    pub fn saturation(&self) -> f64 {
        if self.pool_workers == 0 {
            0.0
        } else {
            self.busy_workers as f64 / self.pool_workers as f64
        }
    }
}

/// The Everest service container. Cheap to clone (shared state).
#[derive(Clone)]
pub struct Everest {
    shared: Arc<Shared>,
    queue: JobSender,
}

impl fmt::Debug for Everest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Everest")
            .field("name", &self.shared.name)
            .field("services", &self.shared.services.read().len())
            .finish()
    }
}

impl Everest {
    /// Creates a container with the default handler-pool size.
    pub fn new(name: &str) -> Self {
        Everest::with_handlers(name, DEFAULT_HANDLERS)
    }

    /// Creates a container with an explicit handler-pool size.
    ///
    /// # Panics
    ///
    /// Panics if `handlers` is zero.
    pub fn with_handlers(name: &str, handlers: usize) -> Self {
        assert!(
            handlers > 0,
            "the job manager needs at least one handler thread"
        );
        let container_metrics = ContainerMetrics::new(name);
        container_metrics.pool_workers.set(handlers as i64);
        let shared = Arc::new(Shared {
            name: name.to_string(),
            services: RwLock::new(Vec::new()),
            jobs: Mutex::new(HashMap::new()),
            job_done: Condvar::new(),
            files: Arc::new(FileStore::new()),
            next_job: AtomicU64::new(1),
            stats: Mutex::new(ContainerStats::default()),
            metrics: container_metrics,
            started: Instant::now(),
            store: OnceLock::new(),
            idem: Mutex::new(HashMap::new()),
            idem_filled: Condvar::new(),
            memo_enabled: AtomicBool::new(false),
            memo: Mutex::new(HashMap::new()),
            memo_filled: Condvar::new(),
            retention: AtomicUsize::new(usize::MAX),
            next_terminal: AtomicU64::new(1),
        });
        let queue = Arc::new(JobQueue {
            state: Mutex::new(JobQueueState {
                items: VecDeque::new(),
                senders: 1,
                workers: handlers,
                retiring: 0,
            }),
            ready: Condvar::new(),
        });
        for _ in 0..handlers {
            spawn_worker(Arc::clone(&shared), Arc::clone(&queue));
        }
        Everest {
            shared,
            queue: JobSender(queue),
        }
    }

    /// The container name.
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// The container's file store.
    pub fn files(&self) -> &Arc<FileStore> {
        &self.shared.files
    }

    /// Deploys a service with a public (empty) access policy.
    pub fn deploy<A: Adapter + 'static>(&self, description: ServiceDescription, adapter: A) {
        self.deploy_with_policy(description, adapter, AccessPolicy::new());
    }

    /// Deploys a service with an explicit access policy. Redeploying a name
    /// replaces the previous service.
    pub fn deploy_with_policy<A: Adapter + 'static>(
        &self,
        description: ServiceDescription,
        adapter: A,
        policy: AccessPolicy,
    ) {
        self.deploy_with_policy_boxed(description, Box::new(adapter), policy);
    }

    /// [`Everest::deploy_with_policy`] for already-boxed adapters (the
    /// configuration loader and the PaaS layer build adapters dynamically).
    pub fn deploy_with_policy_boxed(
        &self,
        description: ServiceDescription,
        adapter: Box<dyn Adapter>,
        policy: AccessPolicy,
    ) {
        let entry = Arc::new(ServiceEntry {
            description,
            adapter: Arc::from(adapter),
            policy,
        });
        let mut services = self.shared.services.write();
        if let Some(slot) = services
            .iter_mut()
            .find(|e| e.description.name() == entry.description.name())
        {
            *slot = entry;
        } else {
            services.push(entry);
        }
    }

    /// Replaces the access policy of a deployed service without touching its
    /// adapter or description. Returns `false` for unknown services.
    pub fn replace_policy(&self, name: &str, policy: AccessPolicy) -> bool {
        let mut services = self.shared.services.write();
        if let Some(slot) = services.iter_mut().find(|e| e.description.name() == name) {
            *slot = Arc::new(ServiceEntry {
                description: slot.description.clone(),
                adapter: Arc::clone(&slot.adapter),
                policy,
            });
            true
        } else {
            false
        }
    }

    /// Removes a deployed service. Existing jobs keep their records.
    pub fn undeploy(&self, name: &str) -> bool {
        let mut services = self.shared.services.write();
        let before = services.len();
        services.retain(|e| e.description.name() != name);
        services.len() != before
    }

    /// Lists deployed service descriptions in deployment order.
    pub fn list_services(&self) -> Vec<ServiceDescription> {
        self.shared
            .services
            .read()
            .iter()
            .map(|e| e.description.clone())
            .collect()
    }

    /// The description of one service.
    pub fn description(&self, name: &str) -> Option<ServiceDescription> {
        self.find(name).map(|e| e.description.clone())
    }

    fn find(&self, name: &str) -> Option<Arc<ServiceEntry>> {
        self.shared
            .services
            .read()
            .iter()
            .find(|e| e.description.name() == name)
            .cloned()
    }

    /// Checks the caller against a service's access policy.
    ///
    /// # Errors
    ///
    /// [`SubmitRejection::AccessDenied`] or `NoSuchService`.
    pub fn authorize(&self, service: &str, caller: &Caller) -> Result<(), SubmitRejection> {
        let entry = self
            .find(service)
            .ok_or_else(|| SubmitRejection::NoSuchService(service.to_string()))?;
        let decision = match &caller.proxy_dn {
            Some(proxy) => entry.policy.decide_proxied(proxy, &caller.identity),
            None => entry.policy.decide(&caller.identity),
        };
        if decision.is_allowed() {
            Ok(())
        } else {
            Err(SubmitRejection::AccessDenied(format!(
                "{} may not access service {service}",
                caller.identity
            )))
        }
    }

    /// Submits a request: authorization, validation, job creation. Returns
    /// the initial (WAITING) job representation immediately.
    ///
    /// # Errors
    ///
    /// [`SubmitRejection`] describing the failure; maps to an HTTP status
    /// via [`SubmitRejection::status`].
    pub fn submit(
        &self,
        service: &str,
        body: &Value,
        caller: Option<&Caller>,
    ) -> Result<JobRepresentation, SubmitRejection> {
        self.submit_traced(service, body, caller, None)
    }

    /// [`Everest::submit`] carrying the originating request id
    /// (`X-MC-Request-Id`), so the job's spans and events correlate with the
    /// HTTP request that created it.
    ///
    /// # Errors
    ///
    /// See [`Everest::submit`].
    pub fn submit_traced(
        &self,
        service: &str,
        body: &Value,
        caller: Option<&Caller>,
        request_id: Option<&str>,
    ) -> Result<JobRepresentation, SubmitRejection> {
        self.submit_idempotent(service, body, caller, request_id, None)
            .map(|(rep, _)| rep)
    }

    /// [`Everest::submit_traced`] with an optional `Idempotency-Key`.
    ///
    /// A keyed submission is created at most once per `(service, key)`:
    /// retries — including replays of the same POST after a network failure
    /// or a container restart, because the key is journaled with the job —
    /// are answered with the original job's representation. The boolean in
    /// the result is `true` when the submission was deduplicated.
    ///
    /// # Errors
    ///
    /// See [`Everest::submit`]. Authorization and input validation run
    /// before the key lookup, so a rejected request is rejected
    /// consistently whether or not its key is already mapped.
    pub fn submit_idempotent(
        &self,
        service: &str,
        body: &Value,
        caller: Option<&Caller>,
        request_id: Option<&str>,
        idem_key: Option<&str>,
    ) -> Result<(JobRepresentation, bool), SubmitRejection> {
        self.submit_full(service, body, caller, request_id, idem_key)
            .map(|o| (o.rep, o.deduplicated))
    }

    /// [`Everest::submit_idempotent`] returning the full [`SubmitOutcome`],
    /// including whether the submission was answered from the result memo
    /// cache (see [`Everest::set_result_memoization`]).
    ///
    /// # Errors
    ///
    /// See [`Everest::submit_idempotent`].
    pub fn submit_full(
        &self,
        service: &str,
        body: &Value,
        caller: Option<&Caller>,
        request_id: Option<&str>,
        idem_key: Option<&str>,
    ) -> Result<SubmitOutcome, SubmitRejection> {
        let anonymous = Caller::anonymous();
        let caller = caller.unwrap_or(&anonymous);
        self.authorize(service, caller)?;
        let entry = self
            .find(service)
            .ok_or_else(|| SubmitRejection::NoSuchService(service.to_string()))?;
        let inputs = entry
            .description
            .validate_inputs(body)
            .map_err(|e| match e {
                mathcloud_core::DescriptionError::InvalidInputs(errs) => {
                    SubmitRejection::InvalidInputs(errs)
                }
                other => SubmitRejection::InvalidInputs(vec![other.to_string()]),
            })?;

        let Some(key) = idem_key else {
            let (rep, memo_hit) = self.create_or_memoize(service, inputs, request_id, None);
            return Ok(SubmitOutcome {
                rep,
                deduplicated: false,
                memo_hit,
            });
        };
        // Exactly one of N racing submissions with the same key creates the
        // job, but the journal sync must NOT happen under the
        // idem lock — that would serialize every keyed submission on the
        // container (all services, all distinct keys) behind one disk
        // sync. The winner inserts a reservation and releases the lock;
        // racers on the same key wait for the reservation to be filled,
        // while distinct keys proceed untouched.
        let map_key = (service.to_string(), key.to_string());
        let mut idem = self.shared.idem.lock();
        loop {
            match idem.get(&map_key) {
                Some(Some(existing)) => {
                    let existing = existing.clone();
                    if let Some((rep, pos)) = self.snapshot(service, &existing) {
                        drop(idem);
                        self.shared.sync_to(pos);
                        metrics::global()
                            .counter(
                                "mc_jobs_deduplicated_total",
                                &[
                                    ("container", &self.shared.metrics.label),
                                    ("service", service),
                                ],
                            )
                            .inc();
                        trace::info(
                            "job.deduplicated",
                            request_id,
                            &[("service", service), ("job", &existing), ("key", key)],
                        );
                        return Ok(SubmitOutcome {
                            rep,
                            deduplicated: true,
                            memo_hit: false,
                        });
                    }
                    // The mapped job's record was deleted: the key is free
                    // again.
                    idem.remove(&map_key);
                    break;
                }
                Some(None) => {
                    // A racing submission holds the reservation and is
                    // journaling its job; wait for it to publish the id.
                    self.shared.idem_filled.wait(&mut idem);
                }
                None => break,
            }
        }
        idem.insert(map_key.clone(), None);
        drop(idem);
        // The memo layer may answer with an existing job instead of
        // creating one; the key then maps to that job, so retries of this
        // keyed POST keep deduplicating onto the memoized result.
        let (rep, memo_hit) = self.create_or_memoize(service, inputs, request_id, Some(key));
        self.shared
            .idem
            .lock()
            .insert(map_key, Some(rep.id.as_str().to_string()));
        self.shared.idem_filled.notify_all();
        Ok(SubmitOutcome {
            rep,
            deduplicated: false,
            memo_hit,
        })
    }

    /// Creates a job — unless result memoization is on and the canonical
    /// memo key of `(service, inputs)` already maps to a usable job.
    ///
    /// A key mapped to a **completed** (`DONE`) job answers instantly with
    /// that job; a key mapped to a still-live job *coalesces* — the caller
    /// gets the in-flight job and waits on it like any other client, so N
    /// concurrent identical submissions run the kernel once. A key mapped
    /// to a failed, cancelled, or since-evicted job is stale: it is
    /// dropped and the submission re-executes (errors are never memoized,
    /// and a hit can never resurrect an evicted record). The `None`
    /// reservation protocol mirrors the idempotency map: no journal sync
    /// ever happens under the memo lock.
    ///
    /// Returns the representation and whether it was a memo hit.
    fn create_or_memoize(
        &self,
        service: &str,
        inputs: Object,
        request_id: Option<&str>,
        idem_key: Option<&str>,
    ) -> (JobRepresentation, bool) {
        if !self.shared.memo_enabled.load(Ordering::Relaxed) {
            return (
                self.create_job(service, inputs, request_id, idem_key, None),
                false,
            );
        }
        let files = Arc::clone(&self.shared.files);
        let resolve = move |id: &str| files.hash_of(id);
        let key = memo::memo_key(service, &inputs, &resolve);
        let m = &self.shared.metrics;
        let mut memo = self.shared.memo.lock();
        loop {
            match memo.get(&key) {
                Some(Some(job_id)) => {
                    let job_id = job_id.clone();
                    match self.snapshot(service, &job_id) {
                        Some((rep, pos))
                            if rep.state == JobState::Done || !rep.state.is_terminal() =>
                        {
                            drop(memo);
                            self.shared.sync_to(pos);
                            let coalesced = rep.state != JobState::Done;
                            metrics::global()
                                .counter(
                                    "mc_cache_hits_total",
                                    &[("container", &m.label), ("service", service)],
                                )
                                .inc();
                            trace::info(
                                "job.memo_hit",
                                request_id,
                                &[
                                    ("service", service),
                                    ("job", &job_id),
                                    ("key", &key),
                                    ("coalesced", if coalesced { "true" } else { "false" }),
                                ],
                            );
                            return (rep, true);
                        }
                        // Failed or cancelled results are never served from
                        // the cache, and an evicted/deleted job frees its
                        // key: fall through to a fresh execution.
                        _ => {
                            memo.remove(&key);
                            break;
                        }
                    }
                }
                Some(None) => {
                    // A racing identical submission holds the reservation
                    // and is creating (and journaling) the job; coalesce
                    // onto it once the id is published.
                    self.shared.memo_filled.wait(&mut memo);
                }
                None => break,
            }
        }
        memo.insert(key.clone(), None);
        drop(memo);
        metrics::global()
            .counter(
                "mc_cache_misses_total",
                &[("container", &m.label), ("service", service)],
            )
            .inc();
        let rep = self.create_job(service, inputs, request_id, idem_key, Some(&key));
        self.shared
            .memo
            .lock()
            .insert(key, Some(rep.id.as_str().to_string()));
        self.shared.memo_filled.notify_all();
        (rep, false)
    }

    /// Creates and enqueues a job whose inputs already validated. The
    /// WAITING record is written inside the same critical section that
    /// makes the job visible and synced right after it, before the job is
    /// announced, queued or returned — so no acknowledged job can be
    /// missing from the journal.
    fn create_job(
        &self,
        service: &str,
        inputs: Object,
        request_id: Option<&str>,
        idem_key: Option<&str>,
        memo_key: Option<&str>,
    ) -> JobRepresentation {
        let job_id = format!("j-{}", self.shared.next_job.fetch_add(1, Ordering::Relaxed));
        let journal_pos = {
            let mut jobs = self.shared.jobs.lock();
            let journal_pos = self.shared.journal(
                service,
                &job_id,
                TransitionState::Job(JobState::Waiting),
                TransitionDetail {
                    idem_key,
                    memo_key,
                    request_id,
                    inputs: Some(&inputs),
                    ..Default::default()
                },
            );
            jobs.insert(
                (service.to_string(), job_id.clone()),
                JobRecord {
                    state: JobState::Waiting,
                    outputs: None,
                    error: None,
                    cancel: Arc::new(AtomicBool::new(false)),
                    inputs,
                    runtime_ms: None,
                    request_id: request_id.map(str::to_string),
                    submitted_at: Instant::now(),
                    terminal_seq: None,
                    journal_pos,
                },
            );
            journal_pos
        };
        self.shared.sync_to(journal_pos);
        self.shared.stats.lock().submitted += 1;
        let m = &self.shared.metrics;
        metrics::global()
            .counter(
                "mc_jobs_submitted_total",
                &[("container", &m.label), ("service", service)],
            )
            .inc();
        m.transition("SUBMITTED", "WAITING");
        trace::info(
            "job.submitted",
            request_id,
            &[("service", service), ("job", &job_id)],
        );
        publish_job_event(
            "job.submitted",
            &m.label,
            service,
            &job_id,
            request_id,
            None,
        );
        // Built here, not read back: once queued the job can run, finish and
        // even be evicted under a tight retention cap before we look again.
        let rep = JobRepresentation::new(
            JobId::new(&job_id),
            &uri::job(service, &job_id),
            JobState::Waiting,
        );
        self.queue
            .0
            .push((service.to_string(), job_id), &m.queue_depth);
        rep
    }

    /// Submit-and-wait: the synchronous mode of §2. If the job finishes
    /// within `sync_wait` the returned representation is already terminal.
    ///
    /// # Errors
    ///
    /// See [`Everest::submit`].
    pub fn submit_sync(
        &self,
        service: &str,
        body: &Value,
        caller: Option<&Caller>,
        sync_wait: Duration,
    ) -> Result<JobRepresentation, SubmitRejection> {
        let rep = self.submit(service, body, caller)?;
        Ok(self
            .wait(service, rep.id.as_str(), sync_wait)
            .unwrap_or(rep))
    }

    /// The current representation of a job. Never shows a state whose
    /// journal record could still be lost in a crash: it waits for the sync
    /// covering the job's last record first.
    pub fn representation(&self, service: &str, job_id: &str) -> Option<JobRepresentation> {
        let (rep, pos) = self.snapshot(service, job_id)?;
        self.shared.sync_to(pos);
        Some(rep)
    }

    /// [`Everest::representation`] without the barrier, plus the position to
    /// pass it: for callers that hold the `idem` or `memo` lock and must
    /// release it before waiting for the disk.
    fn snapshot(&self, service: &str, job_id: &str) -> Option<(JobRepresentation, u64)> {
        let jobs = self.shared.jobs.lock();
        let record = jobs.get(&(service.to_string(), job_id.to_string()))?;
        let mut rep =
            JobRepresentation::new(JobId::new(job_id), &uri::job(service, job_id), record.state);
        rep.outputs = record.outputs.clone();
        rep.error = record.error.clone();
        rep.runtime_ms = record.runtime_ms;
        Some((rep, record.journal_pos))
    }

    /// Blocks until the job is terminal or `timeout` elapses; returns the
    /// terminal representation, or `None` on timeout / unknown job.
    pub fn wait(
        &self,
        service: &str,
        job_id: &str,
        timeout: Duration,
    ) -> Option<JobRepresentation> {
        let key = (service.to_string(), job_id.to_string());
        let deadline = Instant::now() + timeout;
        let mut jobs = self.shared.jobs.lock();
        loop {
            match jobs.get(&key) {
                None => return None,
                Some(r) if r.state.is_terminal() => break,
                Some(_) => {}
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            self.shared.job_done.wait_for(&mut jobs, deadline - now);
        }
        drop(jobs);
        self.representation(service, job_id)
    }

    /// The `DELETE` verb on a job resource: cancels a live job, or deletes a
    /// terminal job's record and files.
    ///
    /// Returns `false` for unknown jobs.
    pub fn delete_job(&self, service: &str, job_id: &str) -> bool {
        let key = (service.to_string(), job_id.to_string());
        let mut jobs = self.shared.jobs.lock();
        match jobs.get_mut(&key) {
            None => false,
            Some(record) if record.state.is_terminal() => {
                jobs.remove(&key);
                let tombstone = self.shared.journal(
                    service,
                    job_id,
                    TransitionState::Deleted,
                    TransitionDetail::default(),
                );
                drop(jobs);
                self.shared.sync_to(tombstone);
                // The deleted job's Idempotency-Key (if any) is free again;
                // taken after the jobs lock is released to respect the
                // idem-before-jobs lock order. Reservations (None) belong
                // to in-flight submissions and are kept.
                self.shared
                    .idem
                    .lock()
                    .retain(|_, v| v.as_deref() != Some(job_id));
                // Likewise its memo key: a later identical submission must
                // re-execute, not resurrect the deleted record. The job's
                // files drop one blob reference each; the bytes are freed
                // only if no other job still points at them.
                self.shared
                    .memo
                    .lock()
                    .retain(|_, v| v.as_deref() != Some(job_id));
                self.shared.files.remove_job(service, job_id);
                true
            }
            Some(record) => {
                record.cancel.store(true, Ordering::Relaxed);
                let from = if record.state == JobState::Running {
                    "RUNNING"
                } else {
                    "WAITING"
                };
                let rid = record.request_id.clone();
                record.state = JobState::Cancelled;
                record.terminal_seq =
                    Some(self.shared.next_terminal.fetch_add(1, Ordering::Relaxed));
                record.journal_pos = self.shared.journal(
                    service,
                    job_id,
                    TransitionState::Job(JobState::Cancelled),
                    TransitionDetail {
                        runtime_ms: record.runtime_ms,
                        ..Default::default()
                    },
                );
                let cancelled = record.journal_pos;
                self.shared.stats.lock().cancelled += 1;
                self.shared.metrics.transition(from, "CANCELLED");
                trace::info(
                    "job.cancelled",
                    rid.as_deref(),
                    &[("service", service), ("job", job_id)],
                );
                drop(jobs);
                self.shared.sync_to(cancelled);
                publish_job_event(
                    "job.cancelled",
                    &self.shared.metrics.label,
                    service,
                    job_id,
                    rid.as_deref(),
                    None,
                );
                self.shared.job_done.notify_all();
                enforce_retention(&self.shared);
                true
            }
        }
    }

    /// Reads a job's file resource.
    pub fn file(&self, service: &str, job_id: &str, file_id: &str) -> Option<Vec<u8>> {
        self.shared.files.get(service, job_id, file_id)
    }

    /// Stores a file under a job (used by the REST layer for uploads).
    pub fn put_file(&self, service: &str, job_id: &str, data: Vec<u8>) -> String {
        self.shared.files.put(service, job_id, data)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> ContainerStats {
        *self.shared.stats.lock()
    }

    /// The request id recorded with a job at submission, if any.
    pub fn job_request_id(&self, service: &str, job_id: &str) -> Option<String> {
        let jobs = self.shared.jobs.lock();
        jobs.get(&(service.to_string(), job_id.to_string()))?
            .request_id
            .clone()
    }

    /// The label under which this container's instruments are registered in
    /// the process-wide metrics registry (`container="<name>#<n>"`).
    pub fn metrics_label(&self) -> &str {
        &self.shared.metrics.label
    }

    /// The desired handler-pool size. Live threads converge on this: after a
    /// shrink, retiring workers may briefly linger until they finish their
    /// current job and consume their poison pill.
    pub fn pool_workers(&self) -> usize {
        self.queue.0.state.lock().workers
    }

    /// Resizes the handler pool toward `workers` (clamped to at least one),
    /// returning the size applied. Growth spawns worker threads immediately
    /// (cancelling pending retirements first); shrinkage enqueues poison
    /// pills, so retiring workers finish their current job before exiting —
    /// in-flight jobs are never aborted by a resize.
    pub fn resize_pool(&self, workers: usize) -> usize {
        let workers = workers.max(1);
        let queue = &self.queue.0;
        let mut st = queue.state.lock();
        let current = st.workers;
        if workers > current {
            // Un-retire before spawning: a cancelled pill revives a thread
            // that already exists, which is cheaper than racing a fresh
            // spawn against it.
            let mut to_spawn = workers - current;
            let cancelled = to_spawn.min(st.retiring);
            st.retiring -= cancelled;
            to_spawn -= cancelled;
            st.workers = workers;
            self.shared.metrics.pool_workers.set(workers as i64);
            drop(st);
            for _ in 0..to_spawn {
                spawn_worker(Arc::clone(&self.shared), Arc::clone(queue));
            }
        } else if workers < current {
            st.retiring += current - workers;
            st.workers = workers;
            self.shared.metrics.pool_workers.set(workers as i64);
            drop(st);
            // Wake every idle worker: each pill must find a consumer.
            queue.ready.notify_all();
        }
        workers
    }

    /// Builds an autoscaling controller over this container's handler pool,
    /// labelled with [`Everest::metrics_label`]. Drive it manually with
    /// [`PoolController::tick`] or hand it to [`PoolController::spawn`]; note
    /// the controller holds a clone of the container, keeping its job queue
    /// open for as long as the controller lives.
    ///
    /// # Panics
    ///
    /// Panics when `config` is invalid ([`AutoscaleConfig::validate`]).
    pub fn autoscaler(&self, config: AutoscaleConfig) -> PoolController {
        let label = self.metrics_label().to_string();
        PoolController::new(self.metrics_label(), Arc::new(self.clone()), config).on_scale(
            move |ev| {
                let mut payload = Object::new();
                payload.insert("pool".into(), Value::from(label.as_str()));
                payload.insert("direction".into(), Value::from(ev.direction.as_str()));
                payload.insert("from".into(), Value::from(ev.from as i64));
                payload.insert("to".into(), Value::from(ev.to as i64));
                payload.insert(
                    "queue_depth".into(),
                    Value::from(ev.status.queue_depth as i64),
                );
                mathcloud_events::global().publish("pool.scale", None, Value::Object(payload));
            },
        )
    }

    /// A point-in-time health report: uptime, live job-state totals,
    /// cumulative stats and handler-pool load.
    pub fn health(&self) -> HealthReport {
        let (mut waiting, mut running, mut done, mut failed, mut cancelled) = (0, 0, 0, 0, 0);
        {
            let jobs = self.shared.jobs.lock();
            for record in jobs.values() {
                match record.state {
                    JobState::Waiting => waiting += 1,
                    JobState::Running => running += 1,
                    JobState::Done => done += 1,
                    JobState::Failed => failed += 1,
                    JobState::Cancelled => cancelled += 1,
                }
            }
        }
        let m = &self.shared.metrics;
        HealthReport {
            uptime_seconds: self.shared.started.elapsed().as_secs_f64(),
            waiting,
            running,
            done,
            failed,
            cancelled,
            stats: self.stats(),
            pool_workers: m.pool_workers.get().max(0) as usize,
            busy_workers: m.busy_workers.get().max(0) as usize,
            queue_depth: m.queue_depth.get().max(0) as usize,
        }
    }

    /// Arms the durable job journal at `path` with the default compaction
    /// threshold and recovers everything it holds. See
    /// [`Everest::attach_job_journal_with`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors opening or reading the journal.
    pub fn attach_job_journal(&self, path: &Path) -> io::Result<RecoveryReport> {
        self.attach_job_journal_with(path, DEFAULT_COMPACT_EVERY)
    }

    /// Arms the durable job journal at `path`: every subsequent job
    /// transition is appended, and fsync'd before it is acknowledged, and
    /// the journal's existing contents are recovered first —
    ///
    /// * the `j-<n>` id counter re-seeds past every id the journal has ever
    ///   referenced, so restarts never reuse an id;
    /// * journaled `Idempotency-Key` mappings are restored, so a keyed POST
    ///   retried across the restart still deduplicates;
    /// * terminal jobs are replayed into memory — `GET /jobs/{id}` answers
    ///   immediately, without re-execution;
    /// * interrupted (WAITING/RUNNING) jobs are re-queued through the
    ///   handler pool and run again from their journaled inputs;
    /// * every recovered transition republishes its `job.*` event with a
    ///   `"replayed": true` payload flag, so push-mode waiters resume (one
    ///   batch, one events-journal sync, however many jobs).
    ///
    /// Call this after deploying services but before serving traffic
    /// (re-queued jobs whose service is not yet deployed fail with
    /// "undeployed" rather than re-running).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors opening or reading the journal, and refuses a
    /// second journal on the same container. Recovery itself never fails:
    /// torn or corrupt journal lines are skipped.
    pub fn attach_job_journal_with(
        &self,
        path: &Path,
        compact_every: usize,
    ) -> io::Result<RecoveryReport> {
        let already_armed = || io::Error::new(io::ErrorKind::AlreadyExists, "job journal armed");
        if self.shared.store.get().is_some() {
            return Err(already_armed());
        }
        let store = Arc::new(JobStore::open(path, compact_every)?);
        self.shared
            .next_job
            .fetch_max(store.max_job_number() + 1, Ordering::Relaxed);
        let recovered = store.recovered();
        let mut report = RecoveryReport::default();
        let mut to_requeue: Vec<(String, String)> = Vec::new();
        let mut replayed: Vec<(&'static str, Option<&str>, Value)> = Vec::new();
        let label = self.shared.metrics.label.as_str();
        {
            let mut idem = self.shared.idem.lock();
            // Lock order: idem before memo before jobs (see `Shared::memo`).
            let mut memo = self.shared.memo.lock();
            let mut jobs = self.shared.jobs.lock();
            for r in &recovered {
                let key = (r.service.clone(), r.job.clone());
                // A live in-memory record wins over the journal: attaching
                // to a warm container must not clobber current state.
                if jobs.contains_key(&key) {
                    continue;
                }
                if let Some(k) = &r.idem_key {
                    idem.insert((r.service.clone(), k.clone()), Some(r.job.clone()));
                    report.idem_keys += 1;
                }
                if let Some(mk) = &r.memo_key {
                    // Completed results are restored unconditionally (a
                    // DONE job beats any requeued one holding the key);
                    // interrupted jobs reclaim their key only if nothing
                    // else holds it, so their re-execution coalesces
                    // identical submissions again. Failed and cancelled
                    // jobs never map — errors are not memoized.
                    if r.state == JobState::Done {
                        memo.insert(mk.clone(), Some(r.job.clone()));
                        report.memo_keys += 1;
                    } else if !r.state.is_terminal() && !memo.contains_key(mk) {
                        memo.insert(mk.clone(), Some(r.job.clone()));
                        report.memo_keys += 1;
                    }
                }
                let terminal = r.state.is_terminal();
                let state = if terminal { r.state } else { JobState::Waiting };
                jobs.insert(
                    key.clone(),
                    JobRecord {
                        state,
                        outputs: r.outputs.clone(),
                        error: r.error.clone(),
                        cancel: Arc::new(AtomicBool::new(false)),
                        inputs: r.inputs.clone(),
                        runtime_ms: r.runtime_ms,
                        request_id: r.request_id.clone(),
                        submitted_at: Instant::now(),
                        terminal_seq: terminal
                            .then(|| self.shared.next_terminal.fetch_add(1, Ordering::Relaxed)),
                        journal_pos: 0,
                    },
                );
                let kind = match state {
                    JobState::Done => "job.done",
                    JobState::Failed => "job.failed",
                    JobState::Cancelled => "job.cancelled",
                    _ => "job.submitted",
                };
                replayed.push((
                    kind,
                    r.request_id.as_deref(),
                    job_event_payload(label, &r.service, &r.job, r.error.as_deref(), true),
                ));
                if terminal {
                    report.replayed += 1;
                } else {
                    to_requeue.push(key);
                    report.requeued += 1;
                }
            }
            // Arm the journal while the jobs lock is still held, so no
            // transition can slip between replay and journaling.
            self.shared
                .store
                .set(Arc::clone(&store))
                .map_err(|_| already_armed())?;
        }
        let m = &self.shared.metrics;
        mathcloud_events::global().publish_batch(replayed);
        for (service, job) in to_requeue {
            self.queue.0.push((service, job), &m.queue_depth);
        }
        let reg = metrics::global();
        let l = &[("container", m.label.as_str())];
        reg.counter("mc_jobs_recovered_total", &[l[0], ("outcome", "replayed")])
            .add(report.replayed as u64);
        reg.counter("mc_jobs_recovered_total", &[l[0], ("outcome", "requeued")])
            .add(report.requeued as u64);
        trace::info(
            "jobstore.recovered",
            None,
            &[
                ("container", &self.shared.name),
                ("replayed", &report.replayed.to_string()),
                ("requeued", &report.requeued.to_string()),
                ("idem_keys", &report.idem_keys.to_string()),
                ("memo_keys", &report.memo_keys.to_string()),
            ],
        );
        // A replayed history can itself exceed the retention cap.
        enforce_retention(&self.shared);
        Ok(report)
    }

    /// The durable job store, when one is armed.
    pub fn job_store(&self) -> Option<Arc<JobStore>> {
        self.shared.store.get().cloned()
    }

    /// Bounds how many terminal (DONE/FAILED/CANCELLED) job records the
    /// container retains; the default is unlimited.
    ///
    /// Without a bound, a long-running container accumulates terminal
    /// records, their `Idempotency-Key` mappings, and — with a journal
    /// armed — journal records carrying full inputs and outputs, all of
    /// which replay into memory on every restart. With a cap of `n`
    /// (clamped to at least 1), settling a job past the cap evicts the
    /// oldest-settled terminal jobs: `GET /jobs/{id}` stops answering for
    /// them, their keys become reusable, and their journal records get
    /// `DELETED` tombstones so compaction reclaims the space. Live jobs
    /// are never evicted. The cap is enforced immediately and on every
    /// subsequent terminal transition.
    pub fn set_terminal_retention(&self, cap: usize) {
        self.shared.retention.store(cap.max(1), Ordering::Relaxed);
        enforce_retention(&self.shared);
    }

    /// Switches result memoization on or off (default: off).
    ///
    /// With memoization on, a submission whose canonical `(service,
    /// inputs)` memo key (see [`crate::memo`]) matches an already-completed
    /// job is answered with that job — `DONE`, instantly, without running
    /// the adapter — and concurrent identical submissions coalesce onto one
    /// execution. Only successful results are memoized; failures,
    /// cancellations, deletions and retention evictions all free their
    /// keys. Memo keys ride the job journal, so hits survive a restart
    /// when a journal is attached.
    ///
    /// Memoization assumes service adapters are *pure* — same inputs, same
    /// outputs — which is why it is opt-in per container.
    pub fn set_result_memoization(&self, enabled: bool) {
        self.shared.memo_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether result memoization is on.
    pub fn memoization_enabled(&self) -> bool {
        self.shared.memo_enabled.load(Ordering::Relaxed)
    }
}

impl ScalableTarget for Everest {
    fn pool_status(&self) -> PoolStatus {
        let st = self.queue.0.state.lock();
        let workers = st.workers;
        let queue_depth = st.items.len();
        drop(st);
        PoolStatus {
            workers,
            busy: self.shared.metrics.busy_workers.get().max(0) as usize,
            queue_depth,
        }
    }

    fn scale_to(&self, workers: usize) -> usize {
        self.resize_pool(workers)
    }
}

/// Spawns one handler thread. The thread serves jobs until it consumes a
/// poison pill (pool shrink) or the queue closes (every container handle
/// dropped).
fn spawn_worker(shared: Arc<Shared>, queue: Arc<JobQueue>) {
    std::thread::spawn(move || loop {
        match queue.pop(&shared.metrics.queue_depth) {
            Popped::Job((service, job)) => {
                shared.metrics.busy_workers.add(1);
                run_job(&shared, &service, &job);
                shared.metrics.busy_workers.sub(1);
            }
            Popped::Retire | Popped::Closed => break,
        }
    });
}

/// Evicts the oldest-settled terminal jobs down to the configured retention
/// cap: their records leave memory, their journal gets a `DELETED`
/// tombstone (so the next compaction reclaims the space), their
/// `Idempotency-Key` mappings and files are freed. Live (WAITING/RUNNING)
/// jobs are never touched. A no-op at the default unlimited cap.
fn enforce_retention(shared: &Shared) {
    let cap = shared.retention.load(Ordering::Relaxed);
    if cap == usize::MAX {
        return;
    }
    let mut evicted: Vec<(String, String)> = Vec::new();
    let mut tombstones = 0;
    {
        let mut jobs = shared.jobs.lock();
        let mut terminal: Vec<(u64, (String, String))> = jobs
            .iter()
            .filter_map(|(k, r)| r.terminal_seq.map(|ts| (ts, k.clone())))
            .collect();
        if terminal.len() <= cap {
            return;
        }
        terminal.sort_unstable();
        let excess = terminal.len() - cap;
        for (_, key) in terminal.into_iter().take(excess) {
            jobs.remove(&key);
            tombstones = shared.journal(
                &key.0,
                &key.1,
                TransitionState::Deleted,
                TransitionDetail::default(),
            );
            evicted.push(key);
        }
    }
    // One sync for the whole batch of tombstones, with the lock released.
    shared.sync_to(tombstones);
    // Outside the jobs lock (same discipline as delete_job): free the
    // evicted jobs' keys — reservations (None) belong to in-flight
    // submissions and are kept — and their files.
    shared.idem.lock().retain(|(svc, _), v| {
        !evicted
            .iter()
            .any(|(es, ej)| es == svc && v.as_deref() == Some(ej))
    });
    // Memo keys of evicted jobs are freed too — the next identical
    // submission is a miss that re-executes (a hit must never point at a
    // record that no longer exists).
    shared
        .memo
        .lock()
        .retain(|_, v| !evicted.iter().any(|(_, ej)| v.as_deref() == Some(ej)));
    for (service, job) in &evicted {
        shared.files.remove_job(service, job);
    }
    metrics::global()
        .counter(
            "mc_jobs_evicted_total",
            &[("container", &shared.metrics.label)],
        )
        .add(evicted.len() as u64);
    trace::info(
        "job.retention_evicted",
        None,
        &[
            ("container", &shared.name),
            ("evicted", &evicted.len().to_string()),
        ],
    );
}

fn run_job(shared: &Arc<Shared>, service: &str, job_id: &str) {
    let key = (service.to_string(), job_id.to_string());
    // Snapshot what we need, flipping the job to RUNNING.
    let (inputs, cancel, request_id) = {
        let mut jobs = shared.jobs.lock();
        match jobs.get_mut(&key) {
            None => return,                                    // deleted before starting
            Some(r) if r.state != JobState::Waiting => return, // cancelled while queued
            Some(r) => {
                r.state = JobState::Running;
                // Written, never waited on: see `JobRecord::journal_pos`.
                shared.journal(
                    service,
                    job_id,
                    TransitionState::Job(JobState::Running),
                    TransitionDetail::default(),
                );
                shared
                    .metrics
                    .wait_seconds
                    .observe_duration(r.submitted_at.elapsed());
                (
                    r.inputs.clone(),
                    Arc::clone(&r.cancel),
                    r.request_id.clone(),
                )
            }
        }
    };
    shared.metrics.transition("WAITING", "RUNNING");
    publish_job_event(
        "job.running",
        &shared.metrics.label,
        service,
        job_id,
        request_id.as_deref(),
        None,
    );
    let adapter = {
        let services = shared.services.read();
        services
            .iter()
            .find(|e| e.description.name() == service)
            .map(|e| Arc::clone(&e.adapter))
    };
    let adapter_kind = adapter.as_ref().map_or("none", |a| a.kind());
    let mut span = trace::span("job.run", request_id.as_deref());
    span.field("service", service);
    span.field("job", job_id);
    span.field("adapter", adapter_kind);
    let started = Instant::now();
    let result = match adapter {
        Some(adapter) => {
            let ctx = AdapterContext::new(service, job_id, Arc::clone(&shared.files), cancel)
                .with_request_id(request_id.as_deref());
            // A buggy adapter must fail its own job, not kill the handler
            // thread serving every other job.
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                adapter.execute(&inputs, &ctx)
            }))
            .unwrap_or_else(|panic| {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "adapter panicked".to_string());
                trace::error(
                    "adapter.panic",
                    request_id.as_deref(),
                    &[("service", service), ("job", job_id), ("panic", &msg)],
                );
                Err(format!("adapter panicked: {msg}"))
            })
        }
        None => Err(format!("service {service} was undeployed")),
    };
    let elapsed = started.elapsed();
    let runtime_ms = elapsed.as_millis() as u64;
    shared
        .metrics
        .run_seconds(adapter_kind)
        .observe_duration(elapsed);
    span.field("outcome", if result.is_ok() { "done" } else { "failed" });
    drop(span);

    let mut jobs = shared.jobs.lock();
    let mut terminal: Option<(&'static str, Option<String>)> = None;
    let mut journal_pos = 0;
    if let Some(record) = jobs.get_mut(&key) {
        record.runtime_ms = Some(runtime_ms);
        if record.state == JobState::Running {
            record.terminal_seq = Some(shared.next_terminal.fetch_add(1, Ordering::Relaxed));
            match result {
                Ok(outputs) => {
                    record.state = JobState::Done;
                    record.outputs = Some(outputs);
                    record.journal_pos = shared.journal(
                        service,
                        job_id,
                        TransitionState::Job(JobState::Done),
                        TransitionDetail {
                            outputs: record.outputs.as_ref(),
                            runtime_ms: Some(runtime_ms),
                            ..Default::default()
                        },
                    );
                    shared.stats.lock().completed += 1;
                    shared.metrics.transition("RUNNING", "DONE");
                    terminal = Some(("job.done", None));
                }
                Err(error) => {
                    record.state = JobState::Failed;
                    trace::error(
                        "job.failed",
                        request_id.as_deref(),
                        &[("service", service), ("job", job_id), ("error", &error)],
                    );
                    record.error = Some(error.clone());
                    record.journal_pos = shared.journal(
                        service,
                        job_id,
                        TransitionState::Job(JobState::Failed),
                        TransitionDetail {
                            error: Some(&error),
                            runtime_ms: Some(runtime_ms),
                            ..Default::default()
                        },
                    );
                    shared.stats.lock().failed += 1;
                    shared.metrics.transition("RUNNING", "FAILED");
                    terminal = Some(("job.failed", Some(error)));
                }
            }
        }
        // Cancelled while running: keep the CANCELLED state, drop results.
        journal_pos = record.journal_pos;
    }
    drop(jobs);
    // Nobody is told before the terminal record (and the RUNNING record
    // riding with it) is on disk. Publish before the condvar wake-up so a
    // subscriber that reacts to the event always finds the record in place.
    shared.sync_to(journal_pos);
    let settled = terminal.is_some();
    if let Some((kind, error)) = terminal {
        publish_job_event(
            kind,
            &shared.metrics.label,
            service,
            job_id,
            request_id.as_deref(),
            error.as_deref(),
        );
    }
    shared.job_done.notify_all();
    if settled {
        enforce_retention(shared);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::NativeAdapter;
    use mathcloud_core::Parameter;
    use mathcloud_json::{json, Schema};

    fn sum_container() -> Everest {
        let e = Everest::with_handlers("test", 2);
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
        e
    }

    #[test]
    fn submit_runs_job_to_done() {
        let e = sum_container();
        let rep = e.submit("sum", &json!({"a": 20, "b": 22}), None).unwrap();
        assert_eq!(rep.state, JobState::Waiting);
        let done = e
            .wait("sum", rep.id.as_str(), Duration::from_secs(5))
            .unwrap();
        assert_eq!(done.state, JobState::Done);
        assert_eq!(
            done.outputs.unwrap().get("total").unwrap().as_i64(),
            Some(42)
        );
        assert!(done.runtime_ms.is_some());
        assert_eq!(done.uri, format!("/services/sum/jobs/{}", done.id));
    }

    #[test]
    fn submit_sync_returns_terminal_state_for_fast_jobs() {
        let e = sum_container();
        let rep = e
            .submit_sync(
                "sum",
                &json!({"a": 1, "b": 2}),
                None,
                Duration::from_secs(5),
            )
            .unwrap();
        assert_eq!(rep.state, JobState::Done);
    }

    #[test]
    fn a_second_job_journal_is_refused() {
        let dir = std::env::temp_dir().join(format!(
            "mc-container-journal-{}-{}",
            std::process::id(),
            mathcloud_telemetry::next_request_id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let e = sum_container();
        e.attach_job_journal(&dir.join("jobs.jsonl")).unwrap();
        let err = e.attach_job_journal(&dir.join("other.jsonl")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        assert!(!dir.join("other.jsonl").exists(), "refused before opening");
        // The first journal is still the one in use.
        let rep = e.submit("sum", &json!({"a": 1, "b": 2}), None).unwrap();
        e.wait("sum", rep.id.as_str(), Duration::from_secs(5))
            .unwrap();
        assert_eq!(e.job_store().unwrap().journal_stats().records, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalid_inputs_are_rejected_with_400() {
        let e = sum_container();
        let err = e.submit("sum", &json!({"a": "x"}), None).unwrap_err();
        assert!(matches!(err, SubmitRejection::InvalidInputs(_)));
        assert_eq!(err.status(), 400);
        let err = e.submit("nope", &json!({}), None).unwrap_err();
        assert_eq!(err.status(), 404);
    }

    #[test]
    fn failing_adapter_yields_failed_job() {
        let e = Everest::new("t");
        e.deploy(
            ServiceDescription::new("bad", "always fails"),
            NativeAdapter::from_fn(|_, _| Err("no luck".into())),
        );
        let rep = e.submit("bad", &json!({}), None).unwrap();
        let done = e
            .wait("bad", rep.id.as_str(), Duration::from_secs(5))
            .unwrap();
        assert_eq!(done.state, JobState::Failed);
        assert_eq!(done.error.as_deref(), Some("no luck"));
        assert_eq!(e.stats().failed, 1);
    }

    #[test]
    fn delete_cancels_then_deletes() {
        let e = Everest::with_handlers("t", 1);
        e.deploy(
            ServiceDescription::new("slow", "sleeps"),
            NativeAdapter::from_fn(|_, ctx| {
                while !ctx.is_cancelled() {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err("cancelled".into())
            }),
        );
        let rep = e.submit("slow", &json!({}), None).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        assert!(e.delete_job("slow", rep.id.as_str()), "cancel");
        let st = e
            .wait("slow", rep.id.as_str(), Duration::from_secs(5))
            .unwrap();
        assert_eq!(st.state, JobState::Cancelled);
        assert!(e.delete_job("slow", rep.id.as_str()), "delete record");
        assert!(e.representation("slow", rep.id.as_str()).is_none());
        assert!(!e.delete_job("slow", rep.id.as_str()), "already gone");
    }

    #[test]
    fn policies_are_enforced_per_service() {
        let e = Everest::new("t");
        let mut policy = AccessPolicy::new();
        policy.allow(Identity::openid("https://id/alice"));
        policy.trust_proxy("CN=wms");
        e.deploy_with_policy(
            ServiceDescription::new("private", "restricted"),
            NativeAdapter::from_fn(|_, _| Ok(Object::new())),
            policy,
        );
        let alice = Caller::direct(Identity::openid("https://id/alice"));
        let bob = Caller::direct(Identity::openid("https://id/bob"));
        assert!(e.submit("private", &json!({}), Some(&alice)).is_ok());
        let err = e.submit("private", &json!({}), Some(&bob)).unwrap_err();
        assert_eq!(err.status(), 403);
        // Delegation through a trusted proxy works for allowed users only.
        let via_wms = Caller::proxied(Identity::openid("https://id/alice"), "CN=wms");
        assert!(e.submit("private", &json!({}), Some(&via_wms)).is_ok());
        let bob_via_wms = Caller::proxied(Identity::openid("https://id/bob"), "CN=wms");
        assert!(e.submit("private", &json!({}), Some(&bob_via_wms)).is_err());
        let via_rogue = Caller::proxied(Identity::openid("https://id/alice"), "CN=rogue");
        assert!(e.submit("private", &json!({}), Some(&via_rogue)).is_err());
    }

    #[test]
    fn redeploy_replaces_and_undeploy_removes() {
        let e = sum_container();
        assert_eq!(e.list_services().len(), 1);
        e.deploy(
            ServiceDescription::new("sum", "v2").output(Parameter::new("x", Schema::any())),
            NativeAdapter::from_fn(|_, _| Ok(Object::new())),
        );
        assert_eq!(e.list_services().len(), 1);
        assert_eq!(e.description("sum").unwrap().description(), "v2");
        assert!(e.undeploy("sum"));
        assert!(!e.undeploy("sum"));
        assert!(e.list_services().is_empty());
    }

    /// A service whose jobs park until the test releases them, for pinning
    /// workers at a known busy count.
    fn gated_container(workers: usize) -> (Everest, Arc<AtomicBool>) {
        let gate = Arc::new(AtomicBool::new(false));
        let e = Everest::with_handlers("t-gated", workers);
        let g = Arc::clone(&gate);
        e.deploy(
            ServiceDescription::new("hold", "waits for the gate"),
            NativeAdapter::from_fn(move |_, ctx| {
                while !g.load(Ordering::Relaxed) && !ctx.is_cancelled() {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(Object::new())
            }),
        );
        (e, gate)
    }

    #[test]
    fn resize_pool_grows_and_shrinks_desired_size() {
        let e = Everest::with_handlers("t-resize", 2);
        assert_eq!(e.pool_workers(), 2);
        assert_eq!(e.resize_pool(5), 5);
        assert_eq!(e.pool_workers(), 5);
        assert_eq!(e.health().pool_workers, 5, "gauge tracks the resize");
        assert_eq!(e.resize_pool(1), 1);
        assert_eq!(e.pool_workers(), 1);
        // Clamped: a pool never drops to zero workers.
        assert_eq!(e.resize_pool(0), 1);
        assert_eq!(e.pool_workers(), 1);
    }

    #[test]
    fn grown_pool_actually_runs_jobs_concurrently() {
        let e = Everest::with_handlers("t-grow", 1);
        e.deploy(
            ServiceDescription::new("sleep", "naps").input(Parameter::new("ms", Schema::integer())),
            NativeAdapter::from_fn(|inputs, _| {
                let ms = inputs.get("ms").and_then(Value::as_i64).unwrap_or(0) as u64;
                std::thread::sleep(Duration::from_millis(ms));
                Ok(Object::new())
            }),
        );
        e.resize_pool(4);
        let t0 = Instant::now();
        let reps: Vec<_> = (0..4)
            .map(|_| e.submit("sleep", &json!({"ms": 100}), None).unwrap())
            .collect();
        for rep in &reps {
            assert_eq!(
                e.wait("sleep", rep.id.as_str(), Duration::from_secs(5))
                    .unwrap()
                    .state,
                JobState::Done
            );
        }
        // 4 × 100 ms on the grown 4-worker pool: ~100 ms, not ~400 as the
        // original single worker would take.
        assert!(
            t0.elapsed() < Duration::from_millis(350),
            "{:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn shrink_lets_running_jobs_finish() {
        let (e, gate) = gated_container(3);
        let reps: Vec<_> = (0..3)
            .map(|_| e.submit("hold", &json!({}), None).unwrap())
            .collect();
        // Wait until all three workers picked up their job.
        let deadline = Instant::now() + Duration::from_secs(5);
        while e.health().busy_workers < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(e.health().busy_workers, 3);
        // Shrink under the running jobs: pills queue behind the in-flight
        // work, nothing is aborted.
        assert_eq!(e.resize_pool(1), 1);
        gate.store(true, Ordering::Relaxed);
        for rep in &reps {
            let done = e
                .wait("hold", rep.id.as_str(), Duration::from_secs(5))
                .expect("job survived the shrink");
            assert_eq!(done.state, JobState::Done);
        }
        assert_eq!(e.pool_workers(), 1);
        // The surviving worker still serves new jobs.
        let rep = e.submit("hold", &json!({}), None).unwrap();
        assert_eq!(
            e.wait("hold", rep.id.as_str(), Duration::from_secs(5))
                .unwrap()
                .state,
            JobState::Done
        );
    }

    #[test]
    fn pool_status_reports_live_load() {
        let (e, gate) = gated_container(2);
        let idle = e.pool_status();
        assert_eq!(idle.workers, 2);
        assert_eq!(idle.busy, 0);
        assert_eq!(idle.queue_depth, 0);
        assert_eq!(idle.saturation(), 0.0);

        for _ in 0..3 {
            e.submit("hold", &json!({}), None).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while e.pool_status().busy < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let loaded = e.pool_status();
        assert_eq!(loaded.busy, 2, "both workers pinned");
        assert_eq!(loaded.queue_depth, 1, "third job queued");
        assert_eq!(loaded.saturation(), 1.0);
        gate.store(true, Ordering::Relaxed);
    }

    #[test]
    fn health_saturation_is_finite_for_zero_worker_pools() {
        // /health serializes saturation to JSON, so the zero-worker edge
        // clamps to 0.0 instead of the infinity PoolStatus reports.
        let report = HealthReport {
            uptime_seconds: 0.0,
            waiting: 2,
            running: 0,
            done: 0,
            failed: 0,
            cancelled: 0,
            stats: ContainerStats::default(),
            pool_workers: 0,
            busy_workers: 0,
            queue_depth: 2,
        };
        assert_eq!(report.saturation(), 0.0);
        assert!(report.saturation().is_finite());
        // The autoscaler's view of the same state is "infinitely hot".
        let status = PoolStatus {
            workers: 0,
            busy: 0,
            queue_depth: 2,
        };
        assert!(status.saturation().is_infinite());
        // And the normal case divides through.
        let half = HealthReport {
            pool_workers: 4,
            busy_workers: 2,
            ..report
        };
        assert_eq!(half.saturation(), 0.5);
    }

    #[test]
    fn terminal_retention_evicts_oldest_and_tombstones_the_journal() {
        let dir = std::env::temp_dir().join(format!(
            "mc-retention-{}-{}",
            std::process::id(),
            mathcloud_telemetry::next_request_id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("jobs.jsonl");

        let e = sum_container();
        e.attach_job_journal(&journal).unwrap();
        e.set_terminal_retention(3);
        let mut ids = Vec::new();
        for i in 0..8i64 {
            let (rep, deduped) = e
                .submit_idempotent(
                    "sum",
                    &json!({"a": i, "b": 1}),
                    None,
                    None,
                    Some(&format!("key-{i}")),
                )
                .unwrap();
            let done = e
                .wait("sum", rep.id.as_str(), Duration::from_secs(5))
                .unwrap();
            assert!(done.state.is_terminal());
            assert!(!deduped);
            ids.push(rep.id.as_str().to_string());
        }
        // Workers enforce the cap after each terminal transition; this call
        // enforces synchronously so the assertions below are race-free.
        e.set_terminal_retention(3);

        for id in &ids[..5] {
            assert!(
                e.representation("sum", id).is_none(),
                "evicted job {id} still answers"
            );
        }
        for (i, id) in ids[5..].iter().enumerate() {
            let rep = e.representation("sum", id).expect("retained job answers");
            assert_eq!(rep.state, JobState::Done);
            assert_eq!(
                rep.outputs.unwrap().get("total").unwrap().as_i64(),
                Some(i as i64 + 5 + 1)
            );
        }
        // A retained key still deduplicates; an evicted key is free again.
        let (rep, deduped) = e
            .submit_idempotent("sum", &json!({"a": 7, "b": 1}), None, None, Some("key-7"))
            .unwrap();
        assert!(deduped);
        assert_eq!(rep.id.as_str(), ids[7]);
        let (rep, deduped) = e
            .submit_idempotent("sum", &json!({"a": 0, "b": 1}), None, None, Some("key-0"))
            .unwrap();
        assert!(!deduped, "the evicted key maps to no record");
        assert_ne!(rep.id.as_str(), ids[0]);
        e.wait("sum", rep.id.as_str(), Duration::from_secs(5))
            .unwrap();
        // Enforce synchronously again: the worker settling key-0's job may
        // not have journaled its eviction tombstone yet.
        e.set_terminal_retention(3);
        drop(e);

        // The tombstones hold across a restart: recovery replays only what
        // retention kept (the 3 survivors may have rolled forward by the
        // key-0 resubmission settling above).
        let e2 = sum_container();
        e2.set_terminal_retention(3);
        let report = e2.attach_job_journal(&journal).unwrap();
        assert_eq!(report.replayed, 3, "evicted jobs are not resurrected");
        assert_eq!(report.requeued, 0);
        assert!(e2.representation("sum", &ids[0]).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_jobs_respect_handler_pool() {
        let e = Everest::with_handlers("t", 4);
        e.deploy(
            ServiceDescription::new("sleep", "naps").input(Parameter::new("ms", Schema::integer())),
            NativeAdapter::from_fn(|inputs, _| {
                let ms = inputs.get("ms").and_then(Value::as_i64).unwrap_or(0) as u64;
                std::thread::sleep(Duration::from_millis(ms));
                Ok(Object::new())
            }),
        );
        let t0 = Instant::now();
        let reps: Vec<_> = (0..4)
            .map(|_| e.submit("sleep", &json!({"ms": 100}), None).unwrap())
            .collect();
        for rep in &reps {
            assert_eq!(
                e.wait("sleep", rep.id.as_str(), Duration::from_secs(5))
                    .unwrap()
                    .state,
                JobState::Done
            );
        }
        // 4 jobs × 100 ms on 4 handlers should take ~100 ms, not ~400.
        assert!(
            t0.elapsed() < Duration::from_millis(350),
            "{:?}",
            t0.elapsed()
        );
        assert_eq!(e.stats().completed, 4);
    }
}
