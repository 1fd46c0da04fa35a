//! The container core: the Service Manager, and the job resource as the REST
//! layer sees it. Submission lives in `submit.rs`, the handler pool in
//! `run.rs`, journal recovery in `recover.rs`, the retention cap in
//! `retention.rs`; all of them change job state only through the job table
//! of `jobs.rs`.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mathcloud_core::{JobRepresentation, JobState, ServiceDescription};
use mathcloud_security::{AccessPolicy, Identity};
use mathcloud_telemetry::sync::RwLock;
use mathcloud_telemetry::{metrics, Counter, Histogram};

use crate::adapter::Adapter;
use crate::filestore::FileStore;
use crate::jobs::JobTable;
use crate::run::JobSender;
use crate::singleflight::SingleFlight;

pub use crate::jobs::ContainerStats;
pub use crate::recover::RecoveryReport;
pub use crate::submit::SubmitOutcome;

/// Default number of job handler threads ("a configurable pool of handler
/// threads", §3.1).
const DEFAULT_HANDLERS: usize = 4;

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

/// One deployed service, with its instrument handles (looked up at deploy,
/// not per job).
#[derive(Clone)]
pub(crate) struct ServiceEntry {
    pub(crate) description: ServiceDescription,
    pub(crate) adapter: Arc<dyn Adapter>,
    policy: AccessPolicy,
    pub(crate) submitted: Counter,
    pub(crate) deduplicated: Counter,
    pub(crate) cache_hits: Counter,
    pub(crate) cache_misses: Counter,
    pub(crate) run_seconds: Histogram,
}

/// `mc_job_run_seconds{container,adapter}`: adapter execution time.
pub(crate) fn run_seconds(label: &str, adapter: &str) -> Histogram {
    metrics::global().histogram(
        "mc_job_run_seconds",
        &[("container", label), ("adapter", adapter)],
    )
}

/// What every handle to one container shares. Each lock in here belongs to
/// the type that wraps it, and the only nesting is a [`SingleFlight`] probe
/// looking a job up in the [`JobTable`].
pub(crate) struct Shared {
    pub(crate) name: String,
    /// `<name>#<n>`: labels this container's instruments, so several
    /// containers in one process stay apart in the process-wide registry.
    pub(crate) label: String,
    pub(crate) services: RwLock<Vec<Arc<ServiceEntry>>>,
    pub(crate) jobs: JobTable,
    pub(crate) files: Arc<FileStore>,
    pub(crate) next_job: AtomicU64,
    started: Instant,
    /// `(service, Idempotency-Key)` → the job that answers retries of it.
    pub(crate) idem: SingleFlight<(String, String)>,
    /// See [`Everest::set_result_memoization`].
    pub(crate) memo_enabled: AtomicBool,
    /// Canonical memo key (see [`crate::memo`]) → the job that computed, or
    /// is computing, its result.
    pub(crate) memo: SingleFlight<String>,
}

impl Shared {
    pub(crate) fn find(&self, name: &str) -> Option<Arc<ServiceEntry>> {
        self.services
            .read()
            .iter()
            .find(|e| e.description.name() == name)
            .cloned()
    }
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
    /// A zero-worker pool reports 0.0 rather than dividing by zero: `/health`
    /// serializes this value to JSON, which has no infinity or NaN. (An
    /// `Everest` pool also can't actually reach zero:
    /// [`Everest::with_handlers`] refuses one.)
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
    pub(crate) shared: Arc<Shared>,
    pub(crate) pool: Arc<JobSender>,
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
        static INSTANCE: AtomicU64 = AtomicU64::new(0);
        let label = format!("{name}#{}", INSTANCE.fetch_add(1, Ordering::Relaxed));
        let reg = metrics::global();
        reg.describe(
            "mc_job_run_seconds",
            "adapter execution time (RUNNING to terminal)",
        );
        reg.describe("mc_jobs_submitted_total", "jobs accepted per service");
        reg.describe(
            "mc_cache_hits_total",
            "submissions answered from the result memo cache (completed or coalesced)",
        );
        reg.describe(
            "mc_cache_misses_total",
            "memoized submissions that required a fresh execution",
        );
        let shared = Arc::new(Shared {
            name: name.to_string(),
            services: RwLock::new(Vec::new()),
            jobs: JobTable::new(&label),
            files: Arc::new(FileStore::new()),
            next_job: AtomicU64::new(1),
            label,
            started: Instant::now(),
            idem: SingleFlight::new(),
            memo_enabled: AtomicBool::new(false),
            memo: SingleFlight::new(),
        });
        let pool = JobSender::new(&shared, handlers);
        Everest { shared, pool }
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
        let reg = metrics::global();
        let label = self.shared.label.as_str();
        let labels = [("container", label), ("service", description.name())];
        let entry = Arc::new(ServiceEntry {
            submitted: reg.counter("mc_jobs_submitted_total", &labels),
            deduplicated: reg.counter("mc_jobs_deduplicated_total", &labels),
            cache_hits: reg.counter("mc_cache_hits_total", &labels),
            cache_misses: reg.counter("mc_cache_misses_total", &labels),
            run_seconds: run_seconds(label, adapter.kind()),
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
                policy,
                ..ServiceEntry::clone(slot)
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
        self.shared.find(name).map(|e| e.description.clone())
    }

    /// Checks the caller against a service's access policy.
    ///
    /// # Errors
    ///
    /// [`SubmitRejection::AccessDenied`] or `NoSuchService`.
    pub fn authorize(&self, service: &str, caller: &Caller) -> Result<(), SubmitRejection> {
        self.admit(service, caller).map(drop)
    }

    /// The deployed service, if `caller` passes its access policy: the one
    /// lookup a submission makes.
    pub(crate) fn admit(
        &self,
        service: &str,
        caller: &Caller,
    ) -> Result<Arc<ServiceEntry>, SubmitRejection> {
        let entry = self
            .shared
            .find(service)
            .ok_or_else(|| SubmitRejection::NoSuchService(service.to_string()))?;
        let decision = match &caller.proxy_dn {
            Some(proxy) => entry.policy.decide_proxied(proxy, &caller.identity),
            None => entry.policy.decide(&caller.identity),
        };
        if decision.is_allowed() {
            Ok(entry)
        } else {
            Err(SubmitRejection::AccessDenied(format!(
                "{} may not access service {service}",
                caller.identity
            )))
        }
    }

    /// The current representation of a job. Never shows a state whose
    /// journal record could still be lost in a crash: it waits for the sync
    /// covering the job's last record first.
    pub fn representation(&self, service: &str, job_id: &str) -> Option<JobRepresentation> {
        let jobs = &self.shared.jobs;
        Some(jobs.snapshot(service, job_id)?.durable(jobs))
    }

    /// Blocks until the job is terminal or `timeout` elapses; returns the
    /// terminal representation, or `None` on timeout / unknown job.
    pub fn wait(
        &self,
        service: &str,
        job_id: &str,
        timeout: Duration,
    ) -> Option<JobRepresentation> {
        self.shared.jobs.wait(service, job_id, timeout)
    }

    /// The `DELETE` verb on a job resource: cancels a live job, or deletes a
    /// terminal job's record, keys and files.
    ///
    /// Returns `false` for unknown jobs.
    pub fn delete_job(&self, service: &str, job_id: &str) -> bool {
        let deleted = self.shared.jobs.delete(service, job_id);
        deleted
            .map(|pending| pending.settle(&self.shared))
            .is_some()
    }

    /// Reads a job's file resource.
    pub fn file(&self, service: &str, job_id: &str, file_id: &str) -> Option<Vec<u8>> {
        self.shared.files.get(service, job_id, file_id)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> ContainerStats {
        self.shared.jobs.stats()
    }

    /// The label under which this container's instruments are registered in
    /// the process-wide metrics registry (`container="<name>#<n>"`).
    pub fn metrics_label(&self) -> &str {
        &self.shared.label
    }

    /// A point-in-time health report: uptime, live job-state totals,
    /// cumulative stats and handler-pool load.
    pub fn health(&self) -> HealthReport {
        let (stats, by_state) = self.shared.jobs.census();
        let count = |state| by_state.get(&state).copied().unwrap_or(0);
        let pool = self.pool_status();
        HealthReport {
            uptime_seconds: self.shared.started.elapsed().as_secs_f64(),
            waiting: count(JobState::Waiting),
            running: count(JobState::Running),
            done: count(JobState::Done),
            failed: count(JobState::Failed),
            cancelled: count(JobState::Cancelled),
            stats,
            pool_workers: pool.workers,
            busy_workers: pool.busy,
            queue_depth: pool.queue_depth,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::adapter::NativeAdapter;
    use mathcloud_core::Parameter;
    use mathcloud_json::value::Object;
    use mathcloud_json::{json, Schema, Value};

    pub(crate) fn sum_container() -> Everest {
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
        let rep = e
            .submit_and_wait("slow", json!({}), None, None, None, None)
            .unwrap()
            .rep;
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
        assert!(e
            .submit_and_wait("private", json!({}), Some(&alice), None, None, None)
            .is_ok());
        let err = e
            .submit_and_wait("private", json!({}), Some(&bob), None, None, None)
            .unwrap_err();
        assert_eq!(err.status(), 403);
        // Delegation through a trusted proxy works for allowed users only.
        let via_wms = Caller::proxied(Identity::openid("https://id/alice"), "CN=wms");
        assert!(e
            .submit_and_wait("private", json!({}), Some(&via_wms), None, None, None)
            .is_ok());
        let bob_via_wms = Caller::proxied(Identity::openid("https://id/bob"), "CN=wms");
        assert!(e
            .submit_and_wait("private", json!({}), Some(&bob_via_wms), None, None, None)
            .is_err());
        let via_rogue = Caller::proxied(Identity::openid("https://id/alice"), "CN=rogue");
        assert!(e
            .submit_and_wait("private", json!({}), Some(&via_rogue), None, None, None)
            .is_err());
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

    #[test]
    fn health_saturation_is_finite_for_zero_worker_pools() {
        // /health serializes saturation to JSON, so the zero-worker edge
        // clamps to 0.0 instead of dividing by zero.
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
        // And the normal case divides through.
        let half = HealthReport {
            pool_workers: 4,
            busy_workers: 2,
            ..report
        };
        assert_eq!(half.saturation(), 0.5);
    }
}
