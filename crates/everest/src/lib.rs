//! Everest — the MathCloud service container (§3.1, Fig 1 of the paper).
//!
//! Everest turns computational applications into RESTful web services with
//! the unified interface of `mathcloud-core`. The architecture mirrors
//! Fig 1:
//!
//! * a **Service Manager** holding deployed service configurations,
//! * a **Job Manager** converting requests into asynchronous jobs served by
//!   a configurable pool of handler threads,
//! * pluggable **adapters** executing the actual work:
//!   [`adapter::NativeAdapter`] (the Java adapter analogue, deployed in code),
//!   [`adapter::CommandAdapter`] (run a program),
//!   [`adapter::ClusterAdapter`] (submit to a TORQUE-like batch system),
//!   [`adapter::GridAdapter`] (a gLite-like broker places the job on a site,
//!   whose batch system runs it); the last three also deploy from a
//!   configuration file alone ([`config`]),
//! * a per-job **file store** for large parameters,
//! * a **REST resource layer** exposing Table 1 of the paper plus an
//!   auto-generated web UI,
//! * per-service **security policies** enforced on submission.
//!
//! # Examples
//!
//! ```
//! use mathcloud_core::{Parameter, ServiceDescription};
//! use mathcloud_everest::{adapter::NativeAdapter, Everest};
//! use mathcloud_json::{json, Schema};
//!
//! let everest = Everest::new("demo");
//! everest.deploy(
//!     ServiceDescription::new("sum", "Adds two integers")
//!         .input(Parameter::new("a", Schema::integer()))
//!         .input(Parameter::new("b", Schema::integer()))
//!         .output(Parameter::new("total", Schema::integer())),
//!     NativeAdapter::from_fn(|inputs, _ctx| {
//!         let a = inputs.get("a").and_then(|v| v.as_i64()).unwrap_or(0);
//!         let b = inputs.get("b").and_then(|v| v.as_i64()).unwrap_or(0);
//!         Ok([("total".to_string(), json!(a + b))].into_iter().collect())
//!     }),
//! );
//!
//! // The one submission call: the body moves into the job; with a `wait`
//! // the answer holds until the job settles (caller, request id and
//! // idempotency key are all optional).
//! let wait = Some(std::time::Duration::from_secs(5));
//! let outcome = everest
//!     .submit_and_wait("sum", json!({"a": 2, "b": 3}), None, None, None, wait)
//!     .unwrap();
//! assert_eq!(outcome.rep.outputs.unwrap().get("total").unwrap().as_i64(), Some(5));
//! ```

pub mod adapter;
pub mod config;
pub mod container;
pub mod filestore;
mod jobs;
pub mod jobstore;
pub mod memo;
pub mod paas;
mod recover;
pub mod rest;
mod retention;
mod run;
mod singleflight;
mod submit;
pub mod webui;

pub use adapter::{Adapter, AdapterContext};
pub use config::{load_config, AdapterRegistry, ConfigError};
pub use container::{
    Caller, Everest, HealthReport, RecoveryReport, SubmitOutcome, SubmitRejection,
};
pub use filestore::FileStore;
pub use jobstore::{JobStore, RecoveredJob, DEFAULT_COMPACT_EVERY};
pub use paas::Paas;
pub use rest::serve;
