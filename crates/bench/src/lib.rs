//! Experiment harness shared by the benches, the `repro` binary and the
//! examples.
//!
//! Everything the paper's evaluation needs is here:
//!
//! * [`matrix`] — the exact-matrix computational services (invert, multiply,
//!   …) and the distributed Schur-complement workflow of the Table 2
//!   experiment,
//! * [`dw`] — a pool of remote transportation-solver services plus a
//!   [`mathcloud_opt::SubproblemSolver`] that dispatches pricing problems to
//!   them (the paper's distributed AMPL/Dantzig–Wolfe application),
//! * [`xrayservices`] — scattering/fit services for the X-ray workflow,
//! * [`edge`] — the closed-loop RPS/latency load driver the server-edge
//!   integration tests use,
//! * [`harness`] — the dependency-free measurement harness the `benches/`
//!   targets run on (criterion-shaped API, offline-friendly).

pub mod dw;
pub mod edge;
pub mod harness;
pub mod matrix;
pub mod xrayservices;

/// Formats a duration in seconds with 3 decimals for report tables.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}
