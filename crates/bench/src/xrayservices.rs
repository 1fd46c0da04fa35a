//! X-ray analysis services: scattering on the grid, fitting on the cluster.
//!
//! Mirrors the paper's second application: "parallel calculations of
//! scattering curves for individual nanostructures (performed by a grid
//! application) with subsequent solution of optimization problems (performed
//! by … solvers running on a cluster)" (§4).

use std::time::Duration;

use mathcloud_cluster::BatchSystem;
use mathcloud_core::{Parameter, ServiceDescription};
use mathcloud_everest::adapter::{ClusterAdapter, GridAdapter};
use mathcloud_everest::Everest;
use mathcloud_grid::{ComputingElement, ProxyCredential, ResourceBroker};
use mathcloud_http::Server;
use mathcloud_json::value::Object;
use mathcloud_json::{Schema, Value};
use mathcloud_xray::{debye_curve, fit_mixture, Nanostructure, QGrid, StructureKind};

fn f64s_to_value(xs: &[f64]) -> Value {
    Value::Array(xs.iter().map(|&x| Value::from(x)).collect())
}

fn value_to_f64s(v: &Value) -> Result<Vec<f64>, String> {
    v.as_array()
        .ok_or("expected an array of numbers")?
        .iter()
        .map(|x| x.as_f64().ok_or_else(|| "expected a number".to_string()))
        .collect()
}

/// Parses a structure description object into a [`StructureKind`].
pub fn parse_kind(v: &Value) -> Result<StructureKind, String> {
    let kind = v.str_field("kind").ok_or("structure missing kind")?;
    let num = |name: &str| {
        v.get(name)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("structure missing {name}"))
    };
    Ok(match kind {
        "toroid" => StructureKind::Toroid {
            major_r: num("major_r")?,
            minor_r: num("minor_r")?,
        },
        "tube" => StructureKind::Tube {
            radius: num("radius")?,
            length: num("length")?,
        },
        "sphere" => StructureKind::Sphere {
            radius: num("radius")?,
        },
        "flake" => StructureKind::Flake { side: num("side")? },
        other => return Err(format!("unknown structure kind {other:?}")),
    })
}

/// Deploys the X-ray services onto a container:
///
/// * `xray-scatter` — Debye curve of one structure, executed through the
///   **grid adapter** (as in the paper),
/// * `xray-fit` — non-negative mixture fit, executed through the **cluster
///   adapter**.
pub fn deploy_xray_services(everest: &Everest) {
    // Grid substrate for scattering.
    let ce = ComputingElement::new(
        "xray-ce",
        &["xray-vo"],
        BatchSystem::builder("xray-grid-site")
            .nodes("wn", 2, 4)
            .build(),
    );
    let broker = ResourceBroker::new(vec![ce]);
    let proxy = ProxyCredential::issue("CN=xray-app", "xray-vo", Duration::from_secs(3600));
    everest.deploy(
        ServiceDescription::new(
            "xray-scatter",
            "Debye scattering curve of one nanostructure (grid-executed)",
        )
        .input(Parameter::new("structure", Schema::object()))
        .input(Parameter::new("q_points", Schema::integer().minimum(2.0)))
        .output(Parameter::new("curve", Schema::array_of(Schema::number())))
        .tag("xray")
        .tag("physics"),
        GridAdapter::new(broker, proxy, 1, |inputs: &Object, _ctx| {
            let kind = parse_kind(inputs.get("structure").ok_or("missing structure")?)?;
            let n = inputs.get("q_points").and_then(Value::as_i64).unwrap_or(96) as usize;
            let grid = QGrid::paper_range(n.max(2));
            let curve = debye_curve(&Nanostructure::build(kind), &grid);
            Ok([("curve".to_string(), f64s_to_value(&curve))]
                .into_iter()
                .collect())
        }),
    );

    // Cluster substrate for fitting.
    let cluster = BatchSystem::builder("xray-cluster")
        .nodes("node", 2, 2)
        .build();
    everest.deploy(
        ServiceDescription::new(
            "xray-fit",
            "Non-negative mixture fit of a diffractogram (cluster-executed)",
        )
        .input(Parameter::new(
            "observed",
            Schema::array_of(Schema::number()),
        ))
        .input(Parameter::new(
            "basis",
            Schema::array_of(Schema::array_of(Schema::number())),
        ))
        .output(Parameter::new(
            "fractions",
            Schema::array_of(Schema::number()),
        ))
        .output(Parameter::new("residual", Schema::number()))
        .tag("xray")
        .tag("optimization"),
        ClusterAdapter::new(cluster, 1, |inputs: &Object, _ctx| {
            let observed = value_to_f64s(inputs.get("observed").ok_or("missing observed")?)?;
            let basis: Result<Vec<Vec<f64>>, String> = inputs
                .get("basis")
                .and_then(Value::as_array)
                .ok_or("missing basis")?
                .iter()
                .map(value_to_f64s)
                .collect();
            let basis = basis?;
            if basis.is_empty() {
                return Err("basis must contain at least one curve".into());
            }
            let fit = fit_mixture(&basis, &observed, 500);
            Ok([
                ("fractions".to_string(), f64s_to_value(&fit.fractions())),
                ("residual".to_string(), Value::from(fit.residual)),
            ]
            .into_iter()
            .collect())
        }),
    );
}

/// Starts a container exposing the X-ray services.
///
/// # Panics
///
/// Panics on socket errors.
pub fn spawn_xray_server() -> Server {
    let everest = Everest::with_handlers("xray-node", 4);
    deploy_xray_services(&everest);
    mathcloud_everest::serve(everest, "127.0.0.1:0", None).expect("bind xray container")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathcloud_json::json;

    #[test]
    fn scatter_service_runs_via_grid_adapter() {
        let e = Everest::new("t");
        deploy_xray_services(&e);
        let rep = e
            .submit_and_wait(
                "xray-scatter",
                json!({"structure": {"kind": "sphere", "radius": 0.8}, "q_points": 16}),
                None,
                None,
                None,
                Some(Duration::from_secs(30)),
            )
            .unwrap()
            .rep;
        let outputs = rep.outputs.expect("done");
        assert_eq!(outputs.get("curve").unwrap().as_array().unwrap().len(), 16);
    }

    #[test]
    fn fit_service_runs_via_cluster_adapter() {
        let e = Everest::new("t");
        deploy_xray_services(&e);
        let rep = e
            .submit_and_wait(
                "xray-fit",
                json!({
                    "observed": [2.0, 0.0],
                    "basis": [[1.0, 0.0], [0.0, 1.0]],
                }),
                None,
                None,
                None,
                Some(Duration::from_secs(30)),
            )
            .unwrap()
            .rep;
        let outputs = rep.outputs.expect("done");
        let fractions = outputs.get("fractions").unwrap().as_array().unwrap();
        assert!(fractions[0].as_f64().unwrap() > 0.99);
    }

    #[test]
    fn bad_structure_kind_fails_the_job() {
        let e = Everest::new("t");
        deploy_xray_services(&e);
        let rep = e
            .submit_and_wait(
                "xray-scatter",
                json!({"structure": {"kind": "dodecahedron"}, "q_points": 8}),
                None,
                None,
                None,
                Some(Duration::from_secs(30)),
            )
            .unwrap()
            .rep;
        assert_eq!(rep.state, mathcloud_core::JobState::Failed);
    }
}
