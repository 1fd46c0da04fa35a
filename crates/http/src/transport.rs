//! Fault-tolerance policy for the HTTP client: retries with jittered
//! exponential backoff and per-authority circuit breakers.
//!
//! The availability monitor and the catalogue federation sweep (§3.2 of the
//! paper) probe many containers over unreliable networks; a transport that
//! blocks for the OS connect default or hammers a dead host on every request
//! turns one bad container into a platform-wide stall. This module provides
//! the two policy pieces [`crate::Client`] composes with its connect/IO
//! deadlines:
//!
//! * [`RetryPolicy`] — an attempt cap with capped exponential backoff and
//!   deterministic (seedable) jitter from the in-repo xorshift PRNG. By
//!   default only idempotent `GET`/`DELETE`/`HEAD` requests are retried, and
//!   only on transport errors — HTTP error statuses are application answers,
//!   not transport failures.
//! * [`CircuitBreaker`] / [`BreakerRegistry`] — one breaker per authority
//!   (`host:port`). `Closed` → `Open` after N *consecutive* transport
//!   failures; while open, calls fail fast without touching the socket.
//!   After a cooldown one half-open probe is admitted: success closes the
//!   breaker, failure re-opens it.
//!
//! Both pieces are observable: `mc_http_retries_total` and
//! `mc_http_breaker_rejections_total` counters and the
//! `mc_http_breaker_state` gauge (0 = closed, 1 = open, 2 = half-open), all
//! labelled by authority, and one `breaker.state` bus event per breaker
//! transition, naming the authority and both states.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use mathcloud_telemetry::metrics;
use mathcloud_telemetry::rng::XorShift64;
use mathcloud_telemetry::sync::Mutex;

use crate::message::Method;

fn describe_metrics() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let reg = metrics::global();
        reg.describe(
            "mc_http_retries_total",
            "idempotent requests re-sent after a transport failure",
        );
        reg.describe(
            "mc_http_breaker_state",
            "circuit-breaker state per authority: 0 closed, 1 open, 2 half-open",
        );
        reg.describe(
            "mc_http_breaker_rejections_total",
            "requests rejected fast because the authority's breaker was open",
        );
    });
}

/// Record one retry against `authority` (called by the client's send loop).
pub(crate) fn record_retry(authority: &str) {
    describe_metrics();
    metrics::global()
        .counter("mc_http_retries_total", &[("authority", authority)])
        .inc();
}

/// When and how often a failed request is re-sent.
///
/// The backoff before retry `n` (1-based) is `base_backoff * 2^(n-1)`,
/// capped at `max_backoff`, then multiplied by a jitter factor drawn
/// uniformly from `[1 - jitter, 1]` — so a fleet of clients with different
/// PRNG states spreads its retries instead of thundering in lockstep, while
/// a seeded schedule stays fully deterministic (see [`RetryPolicy::schedule`]).
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 = never retry).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff.
    pub max_backoff: Duration,
    /// Fraction of the backoff randomly shaved off, in `[0, 1]`.
    pub jitter: f64,
    /// Also retry `POST`/`PUT`/`PATCH`. Off by default: re-sending a
    /// non-idempotent request can duplicate a job submission.
    pub retry_non_idempotent: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            jitter: 0.5,
            retry_non_idempotent: false,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (probe sweeps use this: the per-target
    /// deadline is the whole budget).
    pub fn disabled() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Whether this policy retries requests with the given method.
    pub fn applies_to(&self, method: &Method) -> bool {
        self.retry_non_idempotent || matches!(method, Method::Get | Method::Delete | Method::Head)
    }

    /// The jittered backoff before retry `retry` (1-based), drawing the
    /// jitter from `rng`.
    pub fn backoff(&self, retry: u32, rng: &mut XorShift64) -> Duration {
        let exp = retry.saturating_sub(1).min(20);
        let nominal = self.base_backoff.as_secs_f64() * (1u64 << exp) as f64;
        let capped = nominal.min(self.max_backoff.as_secs_f64());
        let jitter = self.jitter.clamp(0.0, 1.0);
        let factor = 1.0 - jitter * rng.unit_f64();
        Duration::from_secs_f64(capped * factor)
    }

    /// The full backoff schedule (one entry per possible retry) for a given
    /// PRNG seed. Deterministic: the same policy and seed always produce the
    /// same schedule, which is what the regression tests pin down.
    pub fn schedule(&self, seed: u64) -> Vec<Duration> {
        let mut rng = XorShift64::new(seed);
        (1..self.max_attempts)
            .map(|retry| self.backoff(retry, &mut rng))
            .collect()
    }
}

/// When a breaker trips and how long it stays open.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive transport failures that open the breaker.
    pub failure_threshold: u32,
    /// How long an open breaker rejects calls before admitting a half-open
    /// probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            cooldown: Duration::from_secs(5),
        }
    }
}

/// Circuit-breaker states (the classic three-state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every call is admitted.
    Closed,
    /// Tripped: calls are rejected until the cooldown elapses.
    Open,
    /// One probe is in flight; its outcome closes or re-opens the breaker.
    HalfOpen,
}

impl BreakerState {
    /// The value exported on the `mc_http_breaker_state` gauge.
    pub fn as_gauge(self) -> i64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

struct BreakerCore {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
    /// A half-open probe is in flight; further calls are rejected until it
    /// reports back.
    probing: bool,
}

/// The breaker guarding one authority. Obtained from a [`BreakerRegistry`];
/// shared by every clone of the owning client.
pub struct CircuitBreaker {
    authority: String,
    config: BreakerConfig,
    core: Mutex<BreakerCore>,
}

impl CircuitBreaker {
    fn new(authority: &str, config: BreakerConfig) -> Self {
        CircuitBreaker {
            authority: authority.to_string(),
            config,
            core: Mutex::new(BreakerCore {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: None,
                probing: false,
            }),
        }
    }

    fn set_gauge(&self, state: BreakerState) {
        describe_metrics();
        metrics::global()
            .gauge("mc_http_breaker_state", &[("authority", &self.authority)])
            .set(state.as_gauge());
    }

    /// Announces a state transition on the event bus (`breaker.state`).
    fn publish_transition(&self, from: BreakerState, to: BreakerState) {
        mathcloud_events::global().publish(
            "breaker.state",
            None,
            mathcloud_json::json!({
                "authority": (self.authority.as_str()),
                "from": (from.as_str()),
                "state": (to.as_str()),
            }),
        );
    }

    /// Asks the breaker whether a call may proceed.
    ///
    /// # Errors
    ///
    /// The remaining cooldown when the breaker is open (zero when rejected
    /// because a half-open probe is already in flight).
    pub fn admit(&self) -> Result<(), Duration> {
        let mut core = self.core.lock();
        match core.state {
            BreakerState::Closed => Ok(()),
            BreakerState::Open => {
                let elapsed = core
                    .opened_at
                    .map(|t| t.elapsed())
                    .unwrap_or(self.config.cooldown);
                if elapsed >= self.config.cooldown {
                    core.state = BreakerState::HalfOpen;
                    core.probing = true;
                    drop(core);
                    self.set_gauge(BreakerState::HalfOpen);
                    self.publish_transition(BreakerState::Open, BreakerState::HalfOpen);
                    Ok(())
                } else {
                    drop(core);
                    self.reject();
                    Err(self.config.cooldown - elapsed)
                }
            }
            BreakerState::HalfOpen => {
                if core.probing {
                    drop(core);
                    self.reject();
                    Err(Duration::ZERO)
                } else {
                    core.probing = true;
                    Ok(())
                }
            }
        }
    }

    fn reject(&self) {
        describe_metrics();
        metrics::global()
            .counter(
                "mc_http_breaker_rejections_total",
                &[("authority", &self.authority)],
            )
            .inc();
    }

    /// Reports a successful exchange: closes the breaker and resets the
    /// failure streak.
    pub fn on_success(&self) {
        let mut core = self.core.lock();
        let was = core.state;
        core.state = BreakerState::Closed;
        core.consecutive_failures = 0;
        core.opened_at = None;
        core.probing = false;
        drop(core);
        if was != BreakerState::Closed {
            self.set_gauge(BreakerState::Closed);
            self.publish_transition(was, BreakerState::Closed);
        }
    }

    /// Reports a transport failure: trips the breaker after the configured
    /// streak, and re-opens immediately from half-open.
    pub fn on_failure(&self) {
        let mut core = self.core.lock();
        core.probing = false;
        core.consecutive_failures = core.consecutive_failures.saturating_add(1);
        let trip = match core.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => core.consecutive_failures >= self.config.failure_threshold,
            BreakerState::Open => false,
        };
        if trip {
            let was = core.state;
            core.state = BreakerState::Open;
            core.opened_at = Some(Instant::now());
            drop(core);
            self.set_gauge(BreakerState::Open);
            self.publish_transition(was, BreakerState::Open);
        }
    }

    /// The current state.
    pub fn state(&self) -> BreakerState {
        self.core.lock().state
    }
}

impl fmt::Debug for CircuitBreaker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CircuitBreaker")
            .field("authority", &self.authority)
            .field("state", &self.state())
            .finish()
    }
}

/// One [`CircuitBreaker`] per authority, created on first use. A client and
/// all its clones share one registry, so breaker state survives across
/// requests and availability sweeps.
pub struct BreakerRegistry {
    config: BreakerConfig,
    map: Mutex<HashMap<String, Arc<CircuitBreaker>>>,
}

impl BreakerRegistry {
    pub fn new(config: BreakerConfig) -> Self {
        BreakerRegistry {
            config,
            map: Mutex::new(HashMap::new()),
        }
    }

    /// The breaker for `authority`, created closed on first sight.
    pub fn breaker(&self, authority: &str) -> Arc<CircuitBreaker> {
        let mut map = self.map.lock();
        map.entry(authority.to_string())
            .or_insert_with(|| Arc::new(CircuitBreaker::new(authority, self.config.clone())))
            .clone()
    }

    /// The state of `authority`'s breaker, if one exists yet.
    pub fn state_of(&self, authority: &str) -> Option<BreakerState> {
        self.map.lock().get(authority).map(|b| b.state())
    }

    /// A sorted snapshot of every known authority and its breaker state —
    /// the raw material of the `GET /health/all` breakers column.
    pub fn states(&self) -> Vec<(String, BreakerState)> {
        let mut out: Vec<(String, BreakerState)> = self
            .map
            .lock()
            .iter()
            .map(|(a, b)| (a.clone(), b.state()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

impl fmt::Debug for BreakerRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BreakerRegistry")
            .field("authorities", &self.map.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_for_a_seed() {
        let policy = RetryPolicy {
            max_attempts: 6,
            ..RetryPolicy::default()
        };
        assert_eq!(policy.schedule(42), policy.schedule(42));
        assert_ne!(
            policy.schedule(42),
            policy.schedule(43),
            "different seeds should jitter differently"
        );
        assert_eq!(policy.schedule(42).len(), 5, "one backoff per retry");
        assert!(RetryPolicy::disabled().schedule(1).is_empty());
    }

    #[test]
    fn backoff_grows_exponentially_within_jitter_bounds() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_secs(1),
            jitter: 0.5,
            retry_non_idempotent: false,
        };
        for seed in [1u64, 7, 99] {
            for (i, pause) in policy.schedule(seed).iter().enumerate() {
                let nominal = 0.1 * (1u64 << i) as f64;
                let capped = nominal.min(1.0);
                let secs = pause.as_secs_f64();
                assert!(
                    secs <= capped + 1e-9 && secs >= capped * 0.5 - 1e-9,
                    "retry {} out of bounds: {secs}s vs nominal {capped}s",
                    i + 1
                );
            }
        }
        // Zero jitter reproduces the exact exponential series.
        let exact = RetryPolicy {
            jitter: 0.0,
            ..policy
        };
        assert_eq!(
            exact.schedule(5),
            vec![
                Duration::from_millis(100),
                Duration::from_millis(200),
                Duration::from_millis(400),
                Duration::from_millis(800),
                Duration::from_secs(1),
                Duration::from_secs(1),
                Duration::from_secs(1),
            ]
        );
    }

    #[test]
    fn retries_cover_idempotent_methods_only_by_default() {
        let policy = RetryPolicy::default();
        assert!(policy.applies_to(&Method::Get));
        assert!(policy.applies_to(&Method::Delete));
        assert!(policy.applies_to(&Method::Head));
        assert!(!policy.applies_to(&Method::Post));
        assert!(!policy.applies_to(&Method::Put));
        let eager = RetryPolicy {
            retry_non_idempotent: true,
            ..policy
        };
        assert!(eager.applies_to(&Method::Post));
    }

    #[test]
    fn breaker_opens_after_consecutive_failures_and_rejects() {
        let b = CircuitBreaker::new(
            "unit-open:1",
            BreakerConfig {
                failure_threshold: 3,
                cooldown: Duration::from_secs(60),
            },
        );
        for _ in 0..2 {
            assert!(b.admit().is_ok());
            b.on_failure();
            assert_eq!(b.state(), BreakerState::Closed);
        }
        assert!(b.admit().is_ok());
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        let remaining = b.admit().unwrap_err();
        assert!(remaining > Duration::from_secs(50));
        assert_eq!(
            metrics::global().gauge_value("mc_http_breaker_state", &[("authority", "unit-open:1")]),
            Some(1)
        );
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let b = CircuitBreaker::new(
            "unit-streak:1",
            BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_secs(60),
            },
        );
        b.on_failure();
        b.on_success();
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Closed, "streak was interrupted");
    }

    #[test]
    fn half_open_probe_closes_or_reopens() {
        let cfg = BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_millis(20),
        };
        // Failure path: the probe fails, the breaker re-opens.
        let b = CircuitBreaker::new("unit-half:1", cfg.clone());
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.admit().is_err(), "cooldown not elapsed");
        std::thread::sleep(Duration::from_millis(30));
        assert!(b.admit().is_ok(), "half-open probe admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(
            b.admit().is_err(),
            "only one probe in flight during half-open"
        );
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);

        // Success path: the probe closes the breaker.
        std::thread::sleep(Duration::from_millis(30));
        assert!(b.admit().is_ok());
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admit().is_ok());
        assert_eq!(
            metrics::global().gauge_value("mc_http_breaker_state", &[("authority", "unit-half:1")]),
            Some(0)
        );
    }

    #[test]
    fn registry_hands_out_one_breaker_per_authority() {
        let reg = BreakerRegistry::new(BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_secs(60),
        });
        assert!(reg.state_of("a:1").is_none(), "no breaker before first use");
        let b1 = reg.breaker("a:1");
        let b2 = reg.breaker("a:1");
        assert!(Arc::ptr_eq(&b1, &b2));
        b1.on_failure();
        assert_eq!(reg.state_of("a:1"), Some(BreakerState::Open));
        assert_eq!(reg.breaker("b:1").state(), BreakerState::Closed);
    }
}
