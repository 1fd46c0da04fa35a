//! Observability substrate for the MathCloud platform.
//!
//! The paper's evaluation (§4) hinges on measuring platform overhead, and its
//! catalogue (§3.2) already monitors service availability — but the seed
//! reproduction had no way to observe a *running* container. This crate is the
//! missing substrate: a process-wide [`MetricsRegistry`] with lock-cheap
//! atomic counters, gauges and fixed-bucket histograms; structured tracing
//! ([`Span`]/[`Event`]) with monotonic timestamps, a bounded ring-buffer
//! [`Recorder`], and request-id propagation via the `X-MC-Request-Id` header;
//! and Prometheus-style text exposition for `GET /metrics`.
//!
//! Everything here is std-only — no external crates — so the whole workspace
//! builds with zero registry access. The [`sync`] module provides
//! poison-recovering `Mutex`/`RwLock`/`Condvar` wrappers with a
//! `parking_lot`-style API (guards returned directly, no `Result`), used
//! throughout the platform in place of the former `parking_lot` dependency.
//! The [`rng`] module hosts the small xorshift PRNG used for trace sampling,
//! randomized tests and benchmark data generation.
//!
//! # Quick tour
//!
//! ```
//! use mathcloud_telemetry::metrics;
//! use std::time::Duration;
//!
//! let reqs = metrics::global().counter("demo_requests_total", &[("route", "/jobs")]);
//! reqs.inc();
//!
//! let lat = metrics::global().histogram("demo_latency_seconds", &[]);
//! lat.observe_duration(Duration::from_millis(3));
//!
//! let text = metrics::global().render_prometheus();
//! assert!(text.contains("demo_requests_total{route=\"/jobs\"} 1"));
//! ```

pub mod expose;
pub mod metrics;
pub mod rng;
pub mod sync;
pub mod trace;
pub mod workpool;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry};
pub use rng::XorShift64;
pub use trace::{next_request_id, Event, Level, Recorder, SpanGuard, REQUEST_ID_HEADER};
pub use workpool::{PoolStatus, WorkPool};

/// Seconds elapsed since the process-wide monotonic anchor was first touched.
///
/// Used for container uptime reporting; the anchor is initialized lazily on
/// first use of any telemetry facility.
pub fn uptime() -> std::time::Duration {
    trace::monotonic_now()
}
