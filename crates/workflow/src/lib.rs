//! The MathCloud workflow management system (§3.3, Fig 2 of the paper).
//!
//! Workflows are directed acyclic graphs whose vertices are *blocks* — input
//! and output ports of the composite service, remote computational services,
//! and custom script actions — and whose edges define typed data flow. The
//! crate provides:
//!
//! * [`model`] — the workflow document model with its JSON format (the
//!   editor's "download as JSON, edit, upload" feature),
//! * [`script`] — **mcscript**, the small expression language replacing the
//!   paper's JavaScript/Python custom actions (lexer → parser → name resolution → evaluator),
//! * [`mod@validate`] — structural, port-type and script validation, exactly
//!   the checks the graphical editor performs while wiring blocks, made once
//!   at publish, which also compiles the workflow into the plan a run walks
//!   (each script parsed, each block's wiring and consumer counts),
//! * [`engine`] — a parallel runtime that walks that plan, executing ready
//!   blocks concurrently and publishing each block's state as a
//!   `workflow.block.*` event (the editor's coloring feature),
//! * [`wms`] — the workflow management service: stores workflows and
//!   publishes each as a new composite service in an Everest container.
//!
//! # Examples
//!
//! A workflow computing `(a + b)` via a remote service, doubled by a script
//! block, is built in [`model::Workflow`]'s docs; see `tests/` for complete
//! engine runs against live containers.

pub mod engine;
pub mod model;
pub mod script;
pub mod validate;
pub mod wms;

pub use engine::{Engine, EngineError, HttpCaller, ServiceCaller};
pub use model::{Block, BlockKind, Edge, PortRef, Workflow, WorkflowError};
pub use script::{run_script, ScriptError};
pub use validate::{
    validate, DescriptionSource, HttpDescriptions, ValidatedWorkflow, ValidationIssue,
};
pub use wms::WorkflowService;
