//! Fig 2 reproduction: typed DAG workflows over live services — dynamic
//! port discovery, type checking at wiring time, per-block state during
//! execution, and publication of workflows as composite services (which can
//! then appear inside *other* workflows, the paper's sub-workflow feature).

use std::sync::Arc;

use mathcloud_core::{Parameter, ServiceDescription};
use mathcloud_everest::adapter::NativeAdapter;
use mathcloud_everest::Everest;
use mathcloud_json::value::Object;
use mathcloud_json::{json, Schema, Value};
use mathcloud_workflow::{
    validate, Block, BlockKind, Engine, HttpCaller, HttpDescriptions, Workflow, WorkflowService,
};

fn math_server() -> (mathcloud_http::Server, String) {
    let e = Everest::with_handlers("math", 4);
    e.deploy(
        ServiceDescription::new("add", "adds")
            .input(Parameter::new("a", Schema::integer()))
            .input(Parameter::new("b", Schema::integer()))
            .output(Parameter::new("sum", Schema::integer())),
        NativeAdapter::from_fn(|inputs, _| {
            let a = inputs.get("a").and_then(Value::as_i64).unwrap_or(0);
            let b = inputs.get("b").and_then(Value::as_i64).unwrap_or(0);
            Ok([("sum".to_string(), json!(a + b))].into_iter().collect())
        }),
    );
    e.deploy(
        ServiceDescription::new("mul", "multiplies")
            .input(Parameter::new("a", Schema::integer()))
            .input(Parameter::new("b", Schema::integer()))
            .output(Parameter::new("product", Schema::integer())),
        NativeAdapter::from_fn(|inputs, _| {
            let a = inputs.get("a").and_then(Value::as_i64).unwrap_or(0);
            let b = inputs.get("b").and_then(Value::as_i64).unwrap_or(0);
            Ok([("product".to_string(), json!(a * b))]
                .into_iter()
                .collect())
        }),
    );
    let server = mathcloud_everest::serve(e, "127.0.0.1:0", None).unwrap();
    let base = server.base_url();
    (server, base)
}

/// (a + b) * (a + b), with the two adds fanned out in parallel.
fn squared_sum_workflow(base: &str) -> Workflow {
    Workflow::new(
        "squared-sum",
        "computes (a+b)^2 via two adds and a multiply",
    )
    .input("a", Schema::integer())
    .input("b", Schema::integer())
    .service("add1", &format!("{base}/services/add"))
    .service("add2", &format!("{base}/services/add"))
    .service("product", &format!("{base}/services/mul"))
    .output("result", Schema::integer())
    .wire(("a", "value"), ("add1", "a"))
    .wire(("b", "value"), ("add1", "b"))
    .wire(("a", "value"), ("add2", "a"))
    .wire(("b", "value"), ("add2", "b"))
    .wire(("add1", "sum"), ("product", "a"))
    .wire(("add2", "sum"), ("product", "b"))
    .wire(("product", "product"), ("result", "value"))
}

#[test]
fn ports_are_discovered_from_live_service_descriptions() {
    let (_s, base) = math_server();
    let wf = squared_sum_workflow(&base);
    let validated =
        validate(&wf, &HttpDescriptions::new()).expect("descriptions fetched over http");
    assert_eq!(validated.services["add1"].name(), "add");
    assert_eq!(validated.services["product"].inputs().len(), 2);
}

#[test]
fn workflow_executes_against_live_services() {
    let (_s, base) = math_server();
    let wf = squared_sum_workflow(&base);
    let validated = validate(&wf, &HttpDescriptions::new()).unwrap();
    let engine = Engine::with_caller(validated, HttpCaller::default());
    let inputs: Object = [("a".to_string(), json!(3)), ("b".to_string(), json!(4))]
        .into_iter()
        .collect();
    let outputs = engine.run(&inputs, None).unwrap();
    assert_eq!(outputs.get("result"), Some(&json!(49)));
}

#[test]
fn type_mismatches_are_rejected_when_wiring() {
    let (_s, base) = math_server();
    let wf = Workflow::new("bad", "")
        .input("text", Schema::string())
        .service("add", &format!("{base}/services/add"))
        .input("b", Schema::integer())
        .output("r", Schema::integer())
        .wire(("text", "value"), ("add", "a")) // string -> integer port
        .wire(("b", "value"), ("add", "b"))
        .wire(("add", "sum"), ("r", "value"));
    let errs = validate(&wf, &HttpDescriptions::new()).unwrap_err();
    assert!(
        errs.iter().any(|e| e.to_string().contains("type mismatch")),
        "{errs:?}"
    );
}

#[test]
fn published_workflow_is_a_service_usable_in_other_workflows() {
    let (_s, base) = math_server();

    // Publish (a+b)^2 as a composite service on a WMS container.
    let wms_container = Everest::with_handlers("wms", 4);
    let wms = WorkflowService::with_backends(wms_container, HttpDescriptions::new(), || {
        Arc::new(HttpCaller::default())
    });
    wms.publish(&squared_sum_workflow(&base)).unwrap();
    let wms_server =
        mathcloud_everest::serve(wms.container().clone(), "127.0.0.1:0", None).unwrap();
    let wms_base = wms_server.base_url();

    // "dividing complex workflow into several simpler sub-workflows by
    // supporting publishing and composing of workflows as services":
    // a second workflow that uses the composite as an ordinary service.
    let outer = Workflow::new("outer", "squared-sum plus one")
        .input("x", Schema::integer())
        .input("y", Schema::integer())
        .block(Block {
            id: "one".into(),
            kind: BlockKind::Constant { value: json!(1) },
        })
        .service("sq", &format!("{wms_base}/services/squared-sum"))
        .service("plus", &format!("{base}/services/add"))
        .output("out", Schema::integer())
        .wire(("x", "value"), ("sq", "a"))
        .wire(("y", "value"), ("sq", "b"))
        .wire(("sq", "result"), ("plus", "a"))
        .wire(("one", "value"), ("plus", "b"))
        .wire(("plus", "sum"), ("out", "value"));
    let validated = validate(&outer, &HttpDescriptions::new()).unwrap();
    let engine = Engine::with_caller(validated, HttpCaller::default());
    let inputs: Object = [("x".to_string(), json!(2)), ("y".to_string(), json!(3))]
        .into_iter()
        .collect();
    let outputs = engine.run(&inputs, None).unwrap();
    assert_eq!(outputs.get("out"), Some(&json!(26)), "(2+3)^2 + 1");
}

#[test]
fn script_blocks_post_process_service_results() {
    let (_s, base) = math_server();
    let wf = Workflow::new("fmt", "adds then formats a report line")
        .input("a", Schema::integer())
        .input("b", Schema::integer())
        .service("add", &format!("{base}/services/add"))
        .block(Block {
            id: "report".into(),
            kind: BlockKind::Script {
                code: r#"line = "sum=" + s + if(s > 10, " (big)", " (small)");"#.into(),
                inputs: vec![("s".into(), Schema::integer())],
                outputs: vec![("line".into(), Schema::string())],
            },
        })
        .output("text", Schema::string())
        .wire(("a", "value"), ("add", "a"))
        .wire(("b", "value"), ("add", "b"))
        .wire(("add", "sum"), ("report", "s"))
        .wire(("report", "line"), ("text", "value"));
    let validated = validate(&wf, &HttpDescriptions::new()).unwrap();
    let engine = Engine::with_caller(validated, HttpCaller::default());
    let inputs: Object = [("a".to_string(), json!(30)), ("b".to_string(), json!(12))]
        .into_iter()
        .collect();
    let outputs = engine.run(&inputs, None).unwrap();
    assert_eq!(outputs.get("text").unwrap().as_str(), Some("sum=42 (big)"));
}

#[test]
fn json_round_trip_preserves_executability() {
    // "it is possible to download workflow in JSON format, edit it manually
    // and upload back to WMS".
    let (_s, base) = math_server();
    let wf = squared_sum_workflow(&base);
    let text = wf.to_value().to_pretty_string();
    let parsed = Workflow::from_value(&mathcloud_json::parse(&text).unwrap()).unwrap();
    assert_eq!(parsed, wf);
    let validated = validate(&parsed, &HttpDescriptions::new()).unwrap();
    let engine = Engine::with_caller(validated, HttpCaller::default());
    let inputs: Object = [("a".to_string(), json!(1)), ("b".to_string(), json!(1))]
        .into_iter()
        .collect();
    assert_eq!(
        engine.run(&inputs, None).unwrap().get("result"),
        Some(&json!(4))
    );
}
