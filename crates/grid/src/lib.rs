//! A gLite-like grid middleware, simulated on top of [`mathcloud_cluster`].
//!
//! The paper's Grid adapter "performs translation of service request into a
//! grid job submitted to the European Grid Infrastructure, which is based on
//! gLite middleware" (§3.1). This crate provides the pieces that adapter
//! needs:
//!
//! * [`ProxyCredential`] — time-limited, VO-scoped user proxies,
//! * [`ComputingElement`] — a site batch system exported to one or more
//!   virtual organizations,
//! * [`ResourceBroker`] — the workload management system: matchmaking over
//!   CEs, ranking by free capacity, job submission/monitoring/cancellation.
//!
//! # Examples
//!
//! ```
//! use mathcloud_cluster::BatchSystem;
//! use mathcloud_grid::{ComputingElement, GridJobSpec, ProxyCredential, ResourceBroker};
//! use std::time::Duration;
//!
//! let ce = ComputingElement::new(
//!     "ce.example.org",
//!     &["mathcloud-vo"],
//!     BatchSystem::builder("site").node("wn-0", 4).build(),
//! );
//! let broker = ResourceBroker::new(vec![ce]);
//! let proxy = ProxyCredential::issue("CN=alice", "mathcloud-vo", Duration::from_secs(600));
//! let id = broker
//!     .submit(&proxy, GridJobSpec::new("hello", 1, |_| Ok("done".into())))
//!     .unwrap();
//! let st = broker.wait(id, Duration::from_secs(5)).unwrap();
//! assert_eq!(st.output.as_deref(), Some("done"));
//! ```

use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use mathcloud_cluster::{BatchSystem, JobContext, JobSpec, JobState as ClusterState};

/// A time-limited grid proxy credential, scoped to one virtual organization.
///
/// Stands in for a gLite VOMS proxy: the trust mechanics are simulated (see
/// DESIGN.md), the authorization semantics — expiry and VO membership — are
/// real.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProxyCredential {
    /// The user's distinguished name.
    pub user_dn: String,
    /// The virtual organization the proxy is valid for.
    pub vo: String,
    /// Expiry (Unix seconds).
    pub expires: u64,
}

impl ProxyCredential {
    /// Issues a proxy valid for `ttl` from now.
    pub fn issue(user_dn: &str, vo: &str, ttl: Duration) -> Self {
        let now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or_default()
            .as_secs();
        ProxyCredential {
            user_dn: user_dn.to_string(),
            vo: vo.to_string(),
            expires: now + ttl.as_secs(),
        }
    }

    /// Returns `true` while the proxy has not expired.
    pub fn is_valid(&self) -> bool {
        let now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or_default()
            .as_secs();
        now < self.expires
    }
}

/// A grid site: one batch system exported to a set of VOs.
#[derive(Clone)]
pub struct ComputingElement {
    name: String,
    vos: Vec<String>,
    cluster: BatchSystem,
}

impl ComputingElement {
    /// Creates a CE.
    pub fn new(name: &str, vos: &[&str], cluster: BatchSystem) -> Self {
        ComputingElement {
            name: name.to_string(),
            vos: vos.iter().map(|v| v.to_string()).collect(),
            cluster,
        }
    }

    /// The CE host name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns `true` if this CE accepts jobs from `vo`.
    pub fn supports_vo(&self, vo: &str) -> bool {
        self.vos.iter().any(|v| v == vo)
    }

    /// Free cores right now (the broker's ranking expression).
    pub fn free_cores(&self) -> usize {
        let stats = self.cluster.stats();
        stats.total_cores.saturating_sub(stats.busy_cores)
    }
}

impl fmt::Debug for ComputingElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ComputingElement")
            .field("name", &self.name)
            .field("vos", &self.vos)
            .field("free_cores", &self.free_cores())
            .finish()
    }
}

/// The work function of a grid job.
pub type GridTask = Box<dyn FnOnce(&JobContext) -> Result<String, String> + Send + 'static>;

/// A grid job submission.
pub struct GridJobSpec {
    name: String,
    cores: usize,
    task: GridTask,
}

impl GridJobSpec {
    /// Creates a grid job requesting `cores` cores on one site.
    pub fn new<F>(name: &str, cores: usize, task: F) -> Self
    where
        F: FnOnce(&JobContext) -> Result<String, String> + Send + 'static,
    {
        GridJobSpec {
            name: name.to_string(),
            cores,
            task: Box::new(task),
        }
    }
}

impl fmt::Debug for GridJobSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GridJobSpec")
            .field("name", &self.name)
            .field("cores", &self.cores)
            .finish()
    }
}

/// A grid job handle: which CE it landed on plus the site-local id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridJobId {
    ce_index: usize,
    local: mathcloud_cluster::JobId,
}

/// Grid-level job states (the gLite job state machine, condensed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridJobState {
    /// Matched to a CE, waiting in the site queue.
    Scheduled,
    /// Executing (staging counts as running, as in gLite accounting).
    Running,
    /// Finished successfully.
    Done,
    /// Failed at the site.
    Aborted,
    /// Cancelled by the user.
    Cancelled,
}

impl GridJobState {
    /// Returns `true` for states that will never change again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            GridJobState::Done | GridJobState::Aborted | GridJobState::Cancelled
        )
    }
}

/// A point-in-time view of a grid job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridJobStatus {
    /// Grid-level state.
    pub state: GridJobState,
    /// The CE the job was matched to.
    pub ce: String,
    /// Job output (when `Done`).
    pub output: Option<String>,
    /// Failure reason (when `Aborted`).
    pub error: Option<String>,
}

/// Errors from broker submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrokerError {
    /// The proxy has expired.
    ProxyExpired,
    /// No CE supports the requested VO.
    NoSiteForVo(String),
    /// CEs support the VO but none has a large-enough node.
    NoMatchingResources {
        /// Cores requested.
        requested: usize,
    },
}

impl fmt::Display for BrokerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BrokerError::ProxyExpired => write!(f, "proxy credential expired"),
            BrokerError::NoSiteForVo(vo) => write!(f, "no computing element supports vo {vo:?}"),
            BrokerError::NoMatchingResources { requested } => {
                write!(f, "no computing element can run a {requested}-core job")
            }
        }
    }
}

impl Error for BrokerError {}

/// The workload management system: matchmaking + submission.
#[derive(Clone)]
pub struct ResourceBroker {
    ces: Arc<Vec<ComputingElement>>,
}

impl ResourceBroker {
    /// Creates a broker over a set of computing elements.
    ///
    /// # Panics
    ///
    /// Panics if `ces` is empty.
    pub fn new(ces: Vec<ComputingElement>) -> Self {
        assert!(
            !ces.is_empty(),
            "a broker needs at least one computing element"
        );
        ResourceBroker { ces: Arc::new(ces) }
    }

    /// Submits a job: validates the proxy, matches CEs by VO and capacity,
    /// ranks by free cores and submits to the best site.
    ///
    /// # Errors
    ///
    /// [`BrokerError`] when the proxy is invalid or no site matches.
    pub fn submit(
        &self,
        proxy: &ProxyCredential,
        spec: GridJobSpec,
    ) -> Result<GridJobId, BrokerError> {
        if !proxy.is_valid() {
            return Err(BrokerError::ProxyExpired);
        }
        let mut candidates: Vec<usize> = (0..self.ces.len())
            .filter(|&i| self.ces[i].supports_vo(&proxy.vo))
            .collect();
        if candidates.is_empty() {
            return Err(BrokerError::NoSiteForVo(proxy.vo.clone()));
        }
        // Rank: most free cores first (gLite's default Rank expression uses
        // free slots).
        candidates.sort_by_key(|&i| std::cmp::Reverse(self.ces[i].free_cores()));

        // Matchmaking picks the best-ranked site; the job is bound to it
        // (gLite does not silently resubmit elsewhere — failures surface to
        // the user, who may resubmit).
        let chosen = candidates[0];
        let task = spec.task;
        let wrapped = move |ctx: &JobContext| {
            if ctx.should_stop() {
                return Err("cancelled before start".to_string());
            }
            task(ctx)
        };
        match self.ces[chosen]
            .cluster
            .try_qsub(JobSpec::new(&spec.name, spec.cores, wrapped))
        {
            Ok(local) => Ok(GridJobId {
                ce_index: chosen,
                local,
            }),
            Err(_) => Err(BrokerError::NoMatchingResources {
                requested: spec.cores,
            }),
        }
    }

    /// Queries a grid job.
    pub fn status(&self, id: GridJobId) -> Option<GridJobStatus> {
        let ce = self.ces.get(id.ce_index)?;
        let st = ce.cluster.qstat(id.local)?;
        Some(GridJobStatus {
            state: map_state(st.state),
            ce: ce.name().to_string(),
            output: st.output,
            error: st.error,
        })
    }

    /// Cancels a grid job.
    pub fn cancel(&self, id: GridJobId) -> bool {
        self.ces
            .get(id.ce_index)
            .map(|ce| ce.cluster.qdel(id.local))
            .unwrap_or(false)
    }

    /// Blocks until the job reaches a terminal state or `timeout` elapses.
    ///
    /// Returns `None` both when the job is unknown (never submitted, or its
    /// record was removed) **and** when the timeout elapses with the job
    /// still non-terminal — callers that loop on `wait` must distinguish the
    /// two via [`ResourceBroker::status`] or they will spin forever on a
    /// vanished job.
    pub fn wait(&self, id: GridJobId, timeout: Duration) -> Option<GridJobStatus> {
        let ce = self.ces.get(id.ce_index)?;
        let st = ce.cluster.wait(id.local, timeout)?;
        Some(GridJobStatus {
            state: map_state(st.state),
            ce: ce.name().to_string(),
            output: st.output,
            error: st.error,
        })
    }
}

impl fmt::Debug for ResourceBroker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResourceBroker")
            .field("ces", &self.ces.len())
            .finish()
    }
}

fn map_state(s: ClusterState) -> GridJobState {
    match s {
        ClusterState::Queued => GridJobState::Scheduled,
        ClusterState::Running => GridJobState::Running,
        ClusterState::Completed => GridJobState::Done,
        ClusterState::Exited => GridJobState::Aborted,
        ClusterState::Cancelled => GridJobState::Cancelled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(name: &str, vos: &[&str], cores: usize) -> ComputingElement {
        ComputingElement::new(
            name,
            vos,
            BatchSystem::builder(name).node("wn", cores).build(),
        )
    }

    fn proxy(vo: &str) -> ProxyCredential {
        ProxyCredential::issue("CN=alice", vo, Duration::from_secs(600))
    }

    #[test]
    fn submits_to_supported_vo_only() {
        let broker = ResourceBroker::new(vec![site("ce1", &["bio-vo"], 2)]);
        let err = broker
            .submit(
                &proxy("math-vo"),
                GridJobSpec::new("j", 1, |_| Ok(String::new())),
            )
            .unwrap_err();
        assert_eq!(err, BrokerError::NoSiteForVo("math-vo".into()));
        assert!(broker
            .submit(
                &proxy("bio-vo"),
                GridJobSpec::new("j", 1, |_| Ok(String::new()))
            )
            .is_ok());
    }

    #[test]
    fn expired_proxy_is_rejected() {
        let broker = ResourceBroker::new(vec![site("ce1", &["vo"], 2)]);
        let mut p = proxy("vo");
        p.expires = 0;
        let err = broker
            .submit(&p, GridJobSpec::new("j", 1, |_| Ok(String::new())))
            .unwrap_err();
        assert_eq!(err, BrokerError::ProxyExpired);
    }

    #[test]
    fn ranking_prefers_the_freest_site() {
        let busy = site("busy-ce", &["vo"], 2);
        // Occupy the busy site.
        let _blocker = busy.cluster.qsub(JobSpec::new("blocker", 2, |_| {
            std::thread::sleep(Duration::from_millis(200));
            Ok(String::new())
        }));
        std::thread::sleep(Duration::from_millis(30));
        let free = site("free-ce", &["vo"], 2);
        let broker = ResourceBroker::new(vec![busy, free]);
        let id = broker
            .submit(
                &proxy("vo"),
                GridJobSpec::new("j", 1, |_| Ok(String::new())),
            )
            .unwrap();
        let st = broker.wait(id, Duration::from_secs(5)).unwrap();
        assert_eq!(st.ce, "free-ce");
        assert_eq!(st.state, GridJobState::Done);
    }

    /// `wait` returning `None` is ambiguous by design: timeout on a live job
    /// versus a job the broker has no record of. Callers tell them apart
    /// with `status` — this pins the contract the Everest adapters rely on.
    #[test]
    fn wait_none_is_disambiguated_by_status() {
        let broker = ResourceBroker::new(vec![site("ce", &["vo"], 1)]);
        let id = broker
            .submit(
                &proxy("vo"),
                GridJobSpec::new("slow", 1, |_| {
                    std::thread::sleep(Duration::from_millis(200));
                    Ok(String::new())
                }),
            )
            .unwrap();
        // Timeout on a live job: wait is None but the record still exists.
        assert!(broker.wait(id, Duration::from_millis(10)).is_none());
        assert!(broker.status(id).is_some());
        assert!(broker.wait(id, Duration::from_secs(5)).is_some());

        // A broker that never saw the job: both are None.
        let stranger = ResourceBroker::new(vec![site("other", &["vo"], 1)]);
        assert!(stranger.status(id).is_none());
        assert!(stranger.wait(id, Duration::from_millis(10)).is_none());
    }

    #[test]
    fn failures_map_to_aborted() {
        let broker = ResourceBroker::new(vec![site("ce", &["vo"], 1)]);
        let id = broker
            .submit(
                &proxy("vo"),
                GridJobSpec::new("j", 1, |_| Err("segfault".into())),
            )
            .unwrap();
        let st = broker.wait(id, Duration::from_secs(5)).unwrap();
        assert_eq!(st.state, GridJobState::Aborted);
        assert_eq!(st.error.as_deref(), Some("segfault"));
    }

    #[test]
    fn oversized_requests_fail_matchmaking() {
        let broker = ResourceBroker::new(vec![site("ce", &["vo"], 2)]);
        let err = broker
            .submit(
                &proxy("vo"),
                GridJobSpec::new("wide", 16, |_| Ok(String::new())),
            )
            .unwrap_err();
        assert_eq!(err, BrokerError::NoMatchingResources { requested: 16 });
    }

    #[test]
    fn cancellation_reaches_the_site() {
        let broker = ResourceBroker::new(vec![site("ce", &["vo"], 1)]);
        let id = broker
            .submit(
                &proxy("vo"),
                GridJobSpec::new("loop", 1, |ctx| {
                    while !ctx.should_stop() {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err("stopped".into())
                }),
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(30));
        assert!(broker.cancel(id));
        let st = broker.wait(id, Duration::from_secs(5)).unwrap();
        assert_eq!(st.state, GridJobState::Cancelled);
    }

    #[test]
    fn status_of_unknown_job_is_none() {
        let broker = ResourceBroker::new(vec![site("ce", &["vo"], 1)]);
        // A handle pointing at a CE index this broker does not have.
        let foreign = GridJobId {
            ce_index: 9,
            local: {
                let c = BatchSystem::builder("x").node("n", 1).build();
                c.qsub(JobSpec::new("j", 1, |_| Ok(String::new())))
            },
        };
        assert!(broker.status(foreign).is_none());
        assert!(!broker.cancel(foreign));
    }
}
