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
//!   CEs and ranking by free capacity.
//!
//! A grid job is a batch job the broker placed: [`ResourceBroker::submit`]
//! takes a cluster [`JobSpec`] and returns the CE it landed on with the
//! site-local [`JobId`]. Monitoring and cancelling go to that site's own
//! batch system, as they do on a cluster.
//!
//! # Examples
//!
//! ```
//! use mathcloud_cluster::{BatchSystem, JobSpec};
//! use mathcloud_grid::{ComputingElement, ProxyCredential, ResourceBroker};
//! use std::time::Duration;
//!
//! let ce = ComputingElement::new(
//!     "ce.example.org",
//!     &["mathcloud-vo"],
//!     BatchSystem::builder("site").node("wn-0", 4).build(),
//! );
//! let broker = ResourceBroker::new(vec![ce]);
//! let proxy = ProxyCredential::issue("CN=alice", "mathcloud-vo", Duration::from_secs(600));
//! let (site, id) = broker
//!     .submit(&proxy, JobSpec::new("hello", 1, |_| Ok("done".into())))
//!     .unwrap();
//! assert_eq!(site.name(), "ce.example.org");
//! let st = site.batch_system().wait(id, Duration::from_secs(5)).unwrap();
//! assert_eq!(st.output.as_deref(), Some("done"));
//! ```

use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use mathcloud_cluster::{BatchSystem, JobId, JobSpec, SubmitError};

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

    /// The site's batch system, where jobs placed here are monitored and
    /// cancelled.
    pub fn batch_system(&self) -> &BatchSystem {
        &self.cluster
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

/// The workload management system: matchmaking + placement.
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

    /// Places a job: validates the proxy, matches CEs by VO and capacity,
    /// ranks by free cores and submits to the best site's batch system.
    ///
    /// Returns the CE the job landed on and the job's id in that CE's
    /// [`ComputingElement::batch_system`], where it is monitored (`wait`,
    /// `qstat`) and cancelled (`qdel`) from then on.
    ///
    /// # Errors
    ///
    /// [`BrokerError`] when the proxy is invalid or no site matches.
    pub fn submit(
        &self,
        proxy: &ProxyCredential,
        spec: JobSpec,
    ) -> Result<(&ComputingElement, JobId), BrokerError> {
        if !proxy.is_valid() {
            return Err(BrokerError::ProxyExpired);
        }
        // Rank: most free cores first (gLite's default Rank expression uses
        // free slots). Matchmaking picks the best-ranked site and binds the
        // job to it (gLite does not silently resubmit elsewhere — failures
        // surface to the user, who may resubmit).
        let ce = self
            .ces
            .iter()
            .filter(|ce| ce.supports_vo(&proxy.vo))
            .min_by_key(|ce| std::cmp::Reverse(ce.free_cores()))
            .ok_or_else(|| BrokerError::NoSiteForVo(proxy.vo.clone()))?;
        let id = ce.cluster.try_qsub(spec).map_err(|e| {
            let requested = match e {
                SubmitError::NeverRunnable { requested, .. } => requested,
                SubmitError::ZeroCores => 0,
            };
            BrokerError::NoMatchingResources { requested }
        })?;
        Ok((ce, id))
    }
}

impl fmt::Debug for ResourceBroker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResourceBroker")
            .field("ces", &self.ces.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathcloud_cluster::JobState;

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

    fn noop(name: &str, cores: usize) -> JobSpec {
        JobSpec::new(name, cores, |_| Ok(String::new()))
    }

    #[test]
    fn submits_to_supported_vo_only() {
        let broker = ResourceBroker::new(vec![site("ce1", &["bio-vo"], 2)]);
        let err = broker.submit(&proxy("math-vo"), noop("j", 1)).unwrap_err();
        assert_eq!(err, BrokerError::NoSiteForVo("math-vo".into()));
        assert!(broker.submit(&proxy("bio-vo"), noop("j", 1)).is_ok());
    }

    #[test]
    fn expired_proxy_is_rejected() {
        let broker = ResourceBroker::new(vec![site("ce1", &["vo"], 2)]);
        let mut p = proxy("vo");
        p.expires = 0;
        let err = broker.submit(&p, noop("j", 1)).unwrap_err();
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
        let (ce, id) = broker.submit(&proxy("vo"), noop("j", 1)).unwrap();
        assert_eq!(ce.name(), "free-ce");
        let st = ce.batch_system().wait(id, Duration::from_secs(5)).unwrap();
        assert_eq!(st.state, JobState::Completed);
    }

    #[test]
    fn failures_surface_as_exited() {
        let broker = ResourceBroker::new(vec![site("ce", &["vo"], 1)]);
        let (ce, id) = broker
            .submit(
                &proxy("vo"),
                JobSpec::new("j", 1, |_| Err("segfault".into())),
            )
            .unwrap();
        let st = ce.batch_system().wait(id, Duration::from_secs(5)).unwrap();
        assert_eq!(st.state, JobState::Exited);
        assert_eq!(st.error.as_deref(), Some("segfault"));
    }

    #[test]
    fn oversized_requests_fail_matchmaking() {
        let broker = ResourceBroker::new(vec![site("ce", &["vo"], 2)]);
        let err = broker.submit(&proxy("vo"), noop("wide", 16)).unwrap_err();
        assert_eq!(err, BrokerError::NoMatchingResources { requested: 16 });
    }

    #[test]
    fn cancellation_reaches_the_site() {
        let broker = ResourceBroker::new(vec![site("ce", &["vo"], 1)]);
        let (ce, id) = broker
            .submit(
                &proxy("vo"),
                JobSpec::new("loop", 1, |ctx| {
                    while !ctx.should_stop() {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err("stopped".into())
                }),
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(30));
        assert!(ce.batch_system().qdel(id));
        let st = ce.batch_system().wait(id, Duration::from_secs(5)).unwrap();
        assert_eq!(st.state, JobState::Cancelled);
    }
}
