//! The workflow management service (WMS).
//!
//! "The WMS performs storage, deployment and execution of workflows created
//! with the described editor. In accordance with the service-oriented
//! approach the WMS deploys each saved workflow as a new service" (§3.3).
//!
//! [`WorkflowService`] keeps a store of workflow documents and publishes each
//! one into an Everest container as a *composite service*: the service's
//! inputs/outputs are the workflow's Input/Output blocks, and executing a job
//! runs the workflow engine. Because the WMS rides on Everest, it is itself a
//! RESTful web service — extra routes expose workflow upload/download (the
//! "download workflow in JSON format, edit it manually and upload back"
//! feature).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use mathcloud_core::{Parameter, ServiceDescription};
use mathcloud_everest::adapter::NativeAdapter;
use mathcloud_everest::Everest;
use mathcloud_http::{PathParams, Request, Response, Router};
use mathcloud_json::value::Object;
use mathcloud_json::Value;
use mathcloud_telemetry::sync::RwLock;

use crate::engine::{Engine, ServiceCaller};
use crate::model::{BlockKind, Workflow};
use crate::validate::{validate, DescriptionSource, ValidatedWorkflow};

/// The workflow management service.
#[derive(Clone)]
pub struct WorkflowService {
    everest: Everest,
    store: Arc<RwLock<HashMap<String, Workflow>>>,
    caller_factory: Arc<dyn Fn() -> Arc<dyn ServiceCaller> + Send + Sync>,
    descriptions: Arc<dyn DescriptionSource + Send + Sync>,
}

impl fmt::Debug for WorkflowService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkflowService")
            .field("workflows", &self.store.read().len())
            .finish()
    }
}

impl WorkflowService {
    /// Creates a WMS deploying composite services into `everest`, resolving
    /// service descriptions and calling services over HTTP.
    pub fn new(everest: Everest) -> Self {
        WorkflowService::with_backends(everest, crate::validate::HttpDescriptions::new(), || {
            Arc::new(crate::engine::HttpCaller::default())
        })
    }

    /// Creates a WMS with custom description and caller backends (tests,
    /// in-process execution).
    pub fn with_backends<D, F>(everest: Everest, descriptions: D, caller_factory: F) -> Self
    where
        D: DescriptionSource + Send + Sync + 'static,
        F: Fn() -> Arc<dyn ServiceCaller> + Send + Sync + 'static,
    {
        WorkflowService {
            everest,
            store: Arc::new(RwLock::new(HashMap::new())),
            caller_factory: Arc::new(caller_factory),
            descriptions: Arc::new(descriptions),
        }
    }

    /// The underlying container.
    pub fn container(&self) -> &Everest {
        &self.everest
    }

    /// Validates and publishes a workflow as a composite service named after
    /// the workflow. Returns the composite service name.
    ///
    /// # Errors
    ///
    /// The validation issues, pre-rendered as strings.
    pub fn publish(&self, workflow: &Workflow) -> Result<String, Vec<String>> {
        let validated = validate(workflow, self.descriptions.as_ref()).map_err(|issues| {
            issues
                .into_iter()
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
        })?;
        let description = composite_description(&validated);
        let engine = Engine::with_caller(validated, (self.caller_factory)());
        self.everest.deploy(
            description,
            NativeAdapter::from_fn(move |inputs: &Object, ctx| {
                // The composite job's request id rides along into every
                // constituent block and downstream service call.
                engine
                    .run(inputs, ctx.request_id())
                    .map_err(|e| e.to_string())
            }),
        );
        self.store
            .write()
            .insert(workflow.name.clone(), workflow.clone());
        Ok(workflow.name.clone())
    }

    /// Fetches a stored workflow document.
    pub fn get(&self, name: &str) -> Option<Workflow> {
        self.store.read().get(name).cloned()
    }

    /// Lists stored workflow names.
    pub fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = self.store.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Removes a workflow and undeploys its composite service.
    pub fn remove(&self, name: &str) -> bool {
        let removed = self.store.write().remove(name).is_some();
        if removed {
            self.everest.undeploy(name);
        }
        removed
    }

    /// Adds the WMS's own REST routes to a router:
    ///
    /// * `GET /workflows` — names,
    /// * `GET /workflows/{name}` — the JSON document (editor download),
    /// * `PUT /workflows/{name}` — upload/replace and republish,
    /// * `DELETE /workflows/{name}` — remove.
    pub fn mount(&self, router: &mut Router) {
        let wms = self.clone();
        router.get("/workflows", move |_req, _p| {
            let names: Vec<Value> = wms.list().into_iter().map(Value::from).collect();
            Response::json(200, &Value::Array(names))
        });

        let wms = self.clone();
        router.get("/workflows/{name}", move |_req, p: &PathParams| {
            let name = p.get("name").expect("route has {name}");
            match wms.get(name) {
                Some(wf) => Response::json(200, &wf.to_value()),
                None => Response::error(404, "no such workflow"),
            }
        });

        let wms = self.clone();
        router.put("/workflows/{name}", move |req: &Request, p: &PathParams| {
            let name = p.get("name").expect("route has {name}");
            let doc = match req.body_json() {
                Ok(v) => v,
                Err(e) => return Response::error(400, &format!("bad json: {e}")),
            };
            let mut wf = match Workflow::from_value(&doc) {
                Ok(wf) => wf,
                Err(e) => return Response::error(400, &e.to_string()),
            };
            wf.name = name.to_string();
            match wms.publish(&wf) {
                Ok(service) => {
                    let uri = mathcloud_core::uri::service(&service);
                    Response::json(
                        201,
                        &mathcloud_json::json!({ "service": service, "uri": uri }),
                    )
                }
                Err(issues) => {
                    let items: Vec<Value> = issues.into_iter().map(Value::from).collect();
                    Response::json(400, &mathcloud_json::json!({ "errors": items }))
                }
            }
        });

        let wms = self.clone();
        router.delete("/workflows/{name}", move |_req, p: &PathParams| {
            let name = p.get("name").expect("route has {name}");
            if wms.remove(name) {
                Response::empty(204)
            } else {
                Response::error(404, "no such workflow")
            }
        });
    }
}

/// Derives the composite service description from a validated workflow:
/// Input blocks become service inputs, Output blocks become outputs.
fn composite_description(validated: &ValidatedWorkflow) -> ServiceDescription {
    let wf = &validated.workflow;
    let mut desc = ServiceDescription::new(&wf.name, &wf.description)
        .tag("workflow")
        .tag("composite");
    for b in &wf.blocks {
        match &b.kind {
            BlockKind::Input { schema } => {
                desc = desc.input(Parameter::new(&b.id, schema.clone()));
            }
            BlockKind::Output { schema } => {
                desc = desc.output(Parameter::new(&b.id, schema.clone()));
            }
            _ => {}
        }
    }
    desc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Block;
    use mathcloud_json::{json, Schema};
    use std::time::Duration;

    struct MockCaller;

    impl ServiceCaller for MockCaller {
        fn call(&self, url: &str, inputs: Object, _: Option<&str>) -> Result<Object, String> {
            match url {
                "mock://inc" => {
                    let x = inputs.get("x").and_then(Value::as_i64).unwrap_or(0);
                    Ok([("y".to_string(), json!(x + 1))].into_iter().collect())
                }
                other => Err(format!("unknown mock {other}")),
            }
        }
    }

    fn descriptions() -> HashMap<String, ServiceDescription> {
        let inc = ServiceDescription::new("inc", "")
            .input(Parameter::new("x", Schema::integer()))
            .output(Parameter::new("y", Schema::integer()));
        [("mock://inc".to_string(), inc)].into_iter().collect()
    }

    fn wms() -> WorkflowService {
        let everest = Everest::new("wms-host");
        WorkflowService::with_backends(everest, descriptions(), || Arc::new(MockCaller))
    }

    fn inc_twice() -> Workflow {
        Workflow::new("inc-twice", "increments twice")
            .input("n", Schema::integer())
            .service("first", "mock://inc")
            .service("second", "mock://inc")
            .output("result", Schema::integer())
            .wire(("n", "value"), ("first", "x"))
            .wire(("first", "y"), ("second", "x"))
            .wire(("second", "y"), ("result", "value"))
    }

    #[test]
    fn published_workflow_becomes_a_composite_service() {
        let wms = wms();
        let name = wms.publish(&inc_twice()).unwrap();
        assert_eq!(name, "inc-twice");

        // The composite service advertises the workflow's ports.
        let desc = wms.container().description("inc-twice").unwrap();
        assert_eq!(desc.inputs()[0].name(), "n");
        assert_eq!(desc.outputs()[0].name(), "result");
        assert!(desc.tags().contains(&"composite".to_string()));

        // Executing the composite service runs the DAG.
        let rep = wms
            .container()
            .submit_and_wait(
                "inc-twice",
                json!({"n": 40}),
                None,
                None,
                None,
                Some(Duration::from_secs(5)),
            )
            .unwrap()
            .rep;
        assert_eq!(
            rep.outputs.unwrap().get("result").unwrap().as_i64(),
            Some(42)
        );
    }

    #[test]
    fn invalid_workflows_are_rejected_at_publish() {
        let wms = wms();
        let broken = Workflow::new("broken", "")
            .input("n", Schema::integer())
            .service("first", "mock://inc")
            .output("r", Schema::integer())
            // first.x is never wired.
            .wire(("first", "y"), ("r", "value"));
        let errs = wms.publish(&broken).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("first.x")), "{errs:?}");
        assert!(wms.container().description("broken").is_none());
    }

    /// `n` → a `Script` block `twice` running `code` (input `n`, output
    /// `m`) → `r`.
    fn script_workflow(name: &str, code: &str) -> Workflow {
        Workflow::new(name, "")
            .input("n", Schema::integer())
            .block(Block {
                id: "twice".into(),
                kind: BlockKind::Script {
                    code: code.into(),
                    inputs: vec![("n".into(), Schema::integer())],
                    outputs: vec![("m".into(), Schema::integer())],
                },
            })
            .output("r", Schema::integer())
            .wire(("n", "value"), ("twice", "n"))
            .wire(("twice", "m"), ("r", "value"))
    }

    #[test]
    fn a_script_that_does_not_parse_is_refused_at_publish() {
        let broken = script_workflow("bad-script", "let k = 2;\nm = n * ;");
        let wms = wms();
        let errs = wms.publish(&broken).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.contains("block \"twice\"") && e.contains("line 2")),
            "{errs:?}"
        );
        assert!(wms.container().description("bad-script").is_none());
    }

    #[test]
    fn a_script_that_reads_an_unbound_name_is_refused_at_publish() {
        let wms = wms();
        let errs = wms
            .publish(&script_workflow("unbound", "let k = 2;\nm = n * j;"))
            .unwrap_err();
        assert_eq!(errs.len(), 1, "{errs:?}");
        let text = "block \"twice\": script error at line 2: unknown variable \"j\"";
        assert_eq!(errs[0], text);
        assert!(wms.container().description("unbound").is_none());
    }

    #[test]
    fn a_script_that_leaves_an_output_unassigned_is_refused_at_publish() {
        let wms = wms();
        let errs = wms
            .publish(&script_workflow("unassigned", "let m = n * 2;"))
            .unwrap_err();
        assert_eq!(errs, ["block \"twice\": output \"m\" is never assigned"]);
        assert!(wms.container().description("unassigned").is_none());
    }

    #[test]
    fn a_script_that_reads_an_output_it_assigned_is_published_and_runs() {
        let wms = wms();
        let code = "m = n + 1;\nlet k = m;\nm = m * k;";
        wms.publish(&script_workflow("reassigned", code)).unwrap();
        let rep = wms
            .container()
            .submit_and_wait(
                "reassigned",
                json!({"n": 4}),
                None,
                None,
                None,
                Some(Duration::from_secs(5)),
            )
            .unwrap()
            .rep;
        assert_eq!(rep.outputs.unwrap().get("r"), Some(&json!(25)));
    }

    #[test]
    fn store_listing_and_removal() {
        let wms = wms();
        wms.publish(&inc_twice()).unwrap();
        assert_eq!(wms.list(), ["inc-twice"]);
        assert!(wms.get("inc-twice").is_some());
        assert!(wms.remove("inc-twice"));
        assert!(wms.list().is_empty());
        assert!(wms.container().description("inc-twice").is_none());
        assert!(!wms.remove("inc-twice"));
    }

    #[test]
    fn rest_upload_download_round_trip() {
        let wms = wms();
        let mut router = Router::new();
        wms.mount(&mut router);
        let server = mathcloud_http::Server::bind("127.0.0.1:0", router).unwrap();
        let base = server.base_url();
        let client = mathcloud_http::Client::new();

        // Upload (publish) via PUT.
        let url: mathcloud_http::Url = format!("{base}/workflows/inc-twice").parse().unwrap();
        let req = mathcloud_http::Request::new(mathcloud_http::Method::Put, "/workflows/inc-twice")
            .with_json(&inc_twice().to_value());
        let resp = client.send(&url, req).unwrap();
        assert_eq!(resp.status.as_u16(), 201, "{}", resp.body_string());

        // Download, compare.
        let doc = client
            .get(&format!("{base}/workflows/inc-twice"))
            .unwrap()
            .body_json()
            .unwrap();
        assert_eq!(Workflow::from_value(&doc).unwrap(), inc_twice());

        // Listing + delete.
        let list = client
            .get(&format!("{base}/workflows"))
            .unwrap()
            .body_json()
            .unwrap();
        assert_eq!(list[0].as_str(), Some("inc-twice"));
        assert_eq!(
            client
                .delete(&format!("{base}/workflows/inc-twice"))
                .unwrap()
                .status
                .as_u16(),
            204
        );
        assert_eq!(
            client
                .get(&format!("{base}/workflows/inc-twice"))
                .unwrap()
                .status
                .as_u16(),
            404
        );
    }

    #[test]
    fn rest_upload_of_invalid_workflow_reports_errors() {
        let wms = wms();
        let mut router = Router::new();
        wms.mount(&mut router);
        let server = mathcloud_http::Server::bind("127.0.0.1:0", router).unwrap();
        let base = server.base_url();
        let client = mathcloud_http::Client::new();
        let broken = Workflow::new("x", "")
            .service("s", "mock://missing")
            .to_value();
        let url: mathcloud_http::Url = format!("{base}/workflows/x").parse().unwrap();
        let req = mathcloud_http::Request::new(mathcloud_http::Method::Put, "/workflows/x")
            .with_json(&broken);
        let resp = client.send(&url, req).unwrap();
        assert_eq!(resp.status.as_u16(), 400);
        assert!(resp.body_json().unwrap()["errors"].as_array().is_some());
    }
}
