//! The MathCloud unified computational web service interface.
//!
//! This crate is the paper's primary contribution rendered as a library: a
//! REST API under which *every* computational service looks the same
//! (Table 1 of the paper):
//!
//! | Resource | GET | POST | DELETE |
//! |----------|-----|------|--------|
//! | Service  | service description | submit request (create job) | — |
//! | Job      | job status & results | — | cancel job / delete job data |
//! | File     | file data | — | — |
//!
//! The crate defines:
//!
//! * [`ServiceDescription`] and [`Parameter`] — introspection documents with
//!   JSON Schema parameter types,
//! * [`JobState`] and [`JobRepresentation`] — the asynchronous job lifecycle,
//! * [`FileRef`] — `mc-file:` references for large data parameters,
//! * [`uri`] — the hierarchical resource URI layout,
//! * input validation ([`ServiceDescription::accept_inputs`]) shared by the
//!   container and clients.
//!
//! Everything serializes to/from `mathcloud_json::Value`, the platform's only
//! wire format.

pub mod description;
pub mod file;
pub mod job;
pub mod uri;

pub use description::{DescriptionError, Parameter, ServiceDescription};
pub use file::FileRef;
pub use job::{JobId, JobRepresentation, JobState};

/// The protocol version advertised in service descriptions.
pub const PROTOCOL_VERSION: &str = "mathcloud/1.0";
