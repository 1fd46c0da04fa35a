//! Remote solver services for Dantzig–Wolfe decomposition.
//!
//! "A special service has been developed that implements dispatching of
//! optimization tasks to a pool of solver services … Independent problems
//! are solved in parallel thus increasing overall performance in accordance
//! with the number of available services" (§4). This module deploys
//! transportation-LP solver services and a [`SubproblemSolver`] that
//! round-robins pricing problems across the pool.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use mathcloud_core::{Parameter, ServiceDescription};
use mathcloud_everest::adapter::NativeAdapter;
use mathcloud_everest::Everest;
use mathcloud_exact::Rational;
use mathcloud_http::Server;
use mathcloud_json::value::Object;
use mathcloud_json::{Schema, Value};
use mathcloud_opt::transport::{MultiCommodityProblem, TransportationProblem};
use mathcloud_opt::{LpOutcome, SubproblemSolver};

fn rationals_to_value(xs: &[Rational]) -> Value {
    Value::Array(xs.iter().map(|x| Value::from(x.to_string())).collect())
}

fn value_to_rationals(v: &Value) -> Result<Vec<Rational>, String> {
    v.as_array()
        .ok_or("expected an array of rationals")?
        .iter()
        .map(|x| {
            x.as_str()
                .ok_or_else(|| "rational entries must be strings".to_string())?
                .parse::<Rational>()
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// Serializes a cost matrix into the wire form used by the solver service.
pub fn costs_to_value(costs: &[Vec<Rational>]) -> Value {
    Value::Array(costs.iter().map(|row| rationals_to_value(row)).collect())
}

fn value_to_costs(v: &Value) -> Result<Vec<Vec<Rational>>, String> {
    v.as_array()
        .ok_or("expected a cost matrix")?
        .iter()
        .map(value_to_rationals)
        .collect()
}

/// An artificial per-call delay, simulating the queueing + network latency a
/// real heterogeneous solver pool exhibits (lets benches show the
/// service-count scaling the paper reports even for small LPs).
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverLatency(pub Duration);

/// Deploys an `lp-transport` solver service: inputs are the subproblem data
/// (supplies, demands, costs), output is the optimal flow.
pub fn deploy_transport_solver(everest: &Everest, latency: SolverLatency) {
    everest.deploy(
        ServiceDescription::new(
            "lp-transport",
            "Exact transportation LP solver (two-phase simplex over rationals)",
        )
        .input(Parameter::new(
            "supplies",
            Schema::array_of(Schema::string()),
        ))
        .input(Parameter::new(
            "demands",
            Schema::array_of(Schema::string()),
        ))
        .input(Parameter::new(
            "costs",
            Schema::array_of(Schema::array_of(Schema::string())),
        ))
        .output(Parameter::new("flow", Schema::array_of(Schema::string())))
        .output(Parameter::new("objective", Schema::string()))
        .tag("optimization")
        .tag("solver"),
        NativeAdapter::from_fn(move |inputs: &Object, _| {
            if !latency.0.is_zero() {
                std::thread::sleep(latency.0);
            }
            let supplies = value_to_rationals(inputs.get("supplies").ok_or("missing supplies")?)?;
            let demands = value_to_rationals(inputs.get("demands").ok_or("missing demands")?)?;
            let costs = value_to_costs(inputs.get("costs").ok_or("missing costs")?)?;
            let problem = TransportationProblem {
                supplies,
                demands,
                costs,
            };
            match mathcloud_opt::solve(&problem.to_lp()) {
                LpOutcome::Optimal(sol) => Ok([
                    ("flow".to_string(), rationals_to_value(&sol.values)),
                    (
                        "objective".to_string(),
                        Value::from(sol.objective.to_string()),
                    ),
                ]
                .into_iter()
                .collect()),
                other => Err(format!("subproblem not optimal: {other:?}")),
            }
        }),
    );
}

/// Starts a pool of solver-service containers.
///
/// # Panics
///
/// Panics on socket errors.
pub fn spawn_solver_pool(count: usize, latency: SolverLatency) -> Vec<Server> {
    (0..count)
        .map(|i| {
            // One handler per solver: each service processes one job at a
            // time, so speedup tracks the *number of services*, as in §4.
            let everest = Everest::with_handlers(&format!("solver-{i}"), 1);
            deploy_transport_solver(&everest, latency);
            mathcloud_everest::serve(everest, "127.0.0.1:0", None).expect("bind solver container")
        })
        .collect()
}

/// Dispatches pricing subproblems to remote MathCloud solver services,
/// round-robin over the pool. With `DwOptions::parallel` the engine issues
/// one HTTP call per commodity concurrently, so wall-clock time scales with
/// `ceil(k / pool)` — the paper's "in accordance with the number of
/// available services".
pub struct RemoteSolverPool {
    problem: MultiCommodityProblem,
    urls: Vec<String>,
    cursor: AtomicUsize,
}

impl RemoteSolverPool {
    /// Creates a pool dispatcher over solver base URLs.
    ///
    /// # Panics
    ///
    /// Panics when `bases` is empty.
    pub fn new(problem: MultiCommodityProblem, bases: &[String]) -> Self {
        assert!(!bases.is_empty(), "need at least one solver service");
        RemoteSolverPool {
            problem,
            urls: bases
                .iter()
                .map(|b| format!("{b}/services/lp-transport"))
                .collect(),
            cursor: AtomicUsize::new(0),
        }
    }
}

impl SubproblemSolver for RemoteSolverPool {
    fn solve_subproblem(
        &self,
        commodity: usize,
        costs: &[Vec<Rational>],
    ) -> Result<Vec<Rational>, String> {
        let url = &self.urls[self.cursor.fetch_add(1, Ordering::Relaxed) % self.urls.len()];
        let sub = &self.problem.commodities[commodity];
        let request = Value::Object(
            [
                ("supplies".to_string(), rationals_to_value(&sub.supplies)),
                ("demands".to_string(), rationals_to_value(&sub.demands)),
                ("costs".to_string(), costs_to_value(costs)),
            ]
            .into_iter()
            .collect(),
        );
        let client = mathcloud_client::ServiceClient::connect(url).map_err(|e| e.to_string())?;
        let rep = client
            .call(&request, Duration::from_secs(600))
            .map_err(|e| e.to_string())?;
        let outputs = rep.outputs.ok_or("solver returned no outputs")?;
        value_to_rationals(outputs.get("flow").ok_or("solver returned no flow")?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathcloud_opt::{solve_dantzig_wolfe, DwOptions};

    #[test]
    fn remote_pool_matches_local_dw_and_direct_lp() {
        let mc = MultiCommodityProblem::random(2, 2, 2, 77);
        let servers = spawn_solver_pool(2, SolverLatency::default());
        let bases: Vec<String> = servers.iter().map(Server::base_url).collect();
        let pool = RemoteSolverPool::new(mc.clone(), &bases);
        let remote = solve_dantzig_wolfe(&mc, &pool, &DwOptions::default()).unwrap();
        let direct = mathcloud_opt::solve(&mc.to_lp()).optimal().unwrap();
        assert_eq!(remote.objective, direct.objective);
    }

    #[test]
    fn solver_service_rejects_malformed_requests() {
        let everest = Everest::new("t");
        deploy_transport_solver(&everest, SolverLatency::default());
        let rep = everest
            .submit_and_wait(
                "lp-transport",
                mathcloud_json::json!({
                    "supplies": ["1"],
                    "demands": ["not-a-number"],
                    "costs": [["1"]],
                }),
                None,
                None,
                None,
                Some(Duration::from_secs(10)),
            )
            .unwrap()
            .rep;
        assert_eq!(rep.state, mathcloud_core::JobState::Failed);
    }
}
