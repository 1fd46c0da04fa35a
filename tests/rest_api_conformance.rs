//! Table 1 conformance: the unified REST API of computational web services,
//! exercised over live HTTP exactly as the paper defines it.
//!
//! | Resource | GET | POST | DELETE |
//! |----------|-----|------|--------|
//! | Service  | description | submit (create job) | — |
//! | Job      | status & results | — | cancel / delete data |
//! | File     | file data | — | — |

use std::time::Duration;

use mathcloud_core::{Parameter, ServiceDescription};
use mathcloud_everest::adapter::NativeAdapter;
use mathcloud_everest::Everest;
use mathcloud_http::{Client, Method, Request};
use mathcloud_json::{json, Schema, Value};

fn conformance_server() -> (mathcloud_http::Server, String) {
    let e = Everest::with_handlers("conformance", 2);
    e.deploy(
        ServiceDescription::new("inc", "increments")
            .input(Parameter::new("x", Schema::integer()))
            .output(Parameter::new("y", Schema::integer())),
        NativeAdapter::from_fn(|inputs, _| {
            let x = inputs.get("x").and_then(Value::as_i64).unwrap_or(0);
            Ok([("y".to_string(), json!(x + 1))].into_iter().collect())
        }),
    );
    e.deploy(
        ServiceDescription::new("slow", "cancellable sleeper"),
        NativeAdapter::from_fn(|_, ctx| {
            while !ctx.is_cancelled() {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err("cancelled".into())
        }),
    );
    e.deploy(
        ServiceDescription::new("filer", "produces a file output")
            .input(Parameter::new("data", Schema::string()))
            .output(Parameter::new("file", Schema::string().format("mc-file"))),
        NativeAdapter::from_fn(|inputs, ctx| {
            let data = inputs.get("data").and_then(Value::as_str).unwrap_or("");
            Ok(
                [("file".to_string(), ctx.store_file(data.as_bytes().to_vec()))]
                    .into_iter()
                    .collect(),
            )
        }),
    );
    let server = mathcloud_everest::serve(e, "127.0.0.1:0", None).unwrap();
    let base = server.base_url();
    (server, base)
}

#[test]
fn service_resource_get_returns_description() {
    let (_s, base) = conformance_server();
    let resp = Client::new().get(&format!("{base}/services/inc")).unwrap();
    assert_eq!(resp.status.as_u16(), 200);
    let doc = resp.body_json().unwrap();
    assert_eq!(doc["name"].as_str(), Some("inc"));
    assert!(
        doc["inputs"]["x"].is_object(),
        "parameters described with JSON Schema"
    );
    assert_eq!(
        doc["protocol"].as_str(),
        Some(mathcloud_core::PROTOCOL_VERSION)
    );
}

#[test]
fn service_resource_post_creates_subordinate_job() {
    let (_s, base) = conformance_server();
    let resp = Client::new()
        .post_json(&format!("{base}/services/inc"), &json!({"x": 1}))
        .unwrap();
    assert_eq!(resp.status.as_u16(), 201);
    let rep = resp.body_json().unwrap();
    // "the service creates a new subordinate job resource and returns to the
    // client identifier and current representation of the job resource"
    assert!(rep["id"].as_str().is_some());
    let uri = rep["uri"].as_str().unwrap();
    assert!(uri.starts_with("/services/inc/jobs/"), "{uri}");
    assert_eq!(resp.headers.get("location"), Some(uri));
}

#[test]
fn synchronous_mode_returns_done_inline() {
    let (_s, base) = conformance_server();
    // "if the job result can be immediately returned … it is transmitted
    // inside the returned job resource representation along with the
    // indication of DONE state"
    let rep = Client::new()
        .post_json(&format!("{base}/services/inc"), &json!({"x": 41}))
        .unwrap()
        .body_json()
        .unwrap();
    assert_eq!(rep["state"].as_str(), Some("DONE"));
    assert_eq!(rep["outputs"]["y"].as_i64(), Some(42));
}

#[test]
fn asynchronous_mode_reports_progress_states() {
    let (_s, base) = conformance_server();
    let rep = Client::new()
        .post_json(&format!("{base}/services/slow"), &json!({}))
        .unwrap()
        .body_json()
        .unwrap();
    // Long request: WAITING or RUNNING, with the job URI for follow-up.
    let state = rep["state"].as_str().unwrap();
    assert!(state == "WAITING" || state == "RUNNING", "{state}");
    let uri = rep["uri"].as_str().unwrap();
    let polled = Client::new()
        .get(&format!("{base}{uri}"))
        .unwrap()
        .body_json()
        .unwrap();
    assert!(matches!(
        polled["state"].as_str(),
        Some("WAITING") | Some("RUNNING")
    ));
    // Cleanup: cancel.
    assert_eq!(
        Client::new()
            .delete(&format!("{base}{uri}"))
            .unwrap()
            .status
            .as_u16(),
        204
    );
}

#[test]
fn job_resource_delete_cancels_then_deletes() {
    let (_s, base) = conformance_server();
    let client = Client::new();
    let rep = client
        .post_json(&format!("{base}/services/slow"), &json!({}))
        .unwrap()
        .body_json()
        .unwrap();
    let uri = rep["uri"].as_str().unwrap().to_string();
    // First DELETE cancels the running job.
    assert_eq!(
        client
            .delete(&format!("{base}{uri}"))
            .unwrap()
            .status
            .as_u16(),
        204
    );
    let polled = client
        .get(&format!("{base}{uri}"))
        .unwrap()
        .body_json()
        .unwrap();
    assert_eq!(polled["state"].as_str(), Some("CANCELLED"));
    // Second DELETE destroys the job resource…
    assert_eq!(
        client
            .delete(&format!("{base}{uri}"))
            .unwrap()
            .status
            .as_u16(),
        204
    );
    // …after which it is gone.
    assert_eq!(
        client.get(&format!("{base}{uri}")).unwrap().status.as_u16(),
        404
    );
}

#[test]
fn file_resources_are_subordinate_to_jobs() {
    let (_s, base) = conformance_server();
    let client = Client::new();
    let rep = client
        .post_json(
            &format!("{base}/services/filer"),
            &json!({"data": "payload bytes"}),
        )
        .unwrap()
        .body_json()
        .unwrap();
    assert_eq!(rep["state"].as_str(), Some("DONE"));
    let file_url = rep["outputs"]["file"].as_str().unwrap().to_string();
    assert!(file_url.contains("/files/"), "{file_url}");

    // GET file returns the data.
    let file = client.get(&file_url).unwrap();
    assert_eq!(file.status.as_u16(), 200);
    assert_eq!(file.body, b"payload bytes");

    // DELETE on the (terminal) job destroys subordinate file resources too.
    let job_uri = rep["uri"].as_str().unwrap();
    assert_eq!(
        client
            .delete(&format!("{base}{job_uri}"))
            .unwrap()
            .status
            .as_u16(),
        204
    );
    assert_eq!(client.get(&file_url).unwrap().status.as_u16(), 404);
}

#[test]
fn remote_file_refs_are_staged_as_inputs() {
    // "Some of these values may contain identifiers of file resources" —
    // pass one service's file output URL as another service's input.
    let (_s1, base1) = conformance_server();
    let client = Client::new();
    let rep = client
        .post_json(
            &format!("{base1}/services/filer"),
            &json!({"data": "matrix rows"}),
        )
        .unwrap()
        .body_json()
        .unwrap();
    let file_url = rep["outputs"]["file"].as_str().unwrap().to_string();

    // A consumer container whose adapter stages the referenced file.
    let e = Everest::new("consumer");
    e.deploy(
        ServiceDescription::new("consume", "reads a file parameter")
            .input(Parameter::new("source", Schema::string()))
            .output(Parameter::new("length", Schema::integer())),
        NativeAdapter::from_fn(|inputs, ctx| {
            let data = ctx.read_data(inputs.get("source").unwrap())?;
            Ok([("length".to_string(), json!(data.len()))]
                .into_iter()
                .collect())
        }),
    );
    let s2 = mathcloud_everest::serve(e, "127.0.0.1:0", None).unwrap();
    let rep = client
        .post_json(
            &format!("{}/services/consume", s2.base_url()),
            &json!({"source": file_url}),
        )
        .unwrap()
        .body_json()
        .unwrap();
    assert_eq!(rep["state"].as_str(), Some("DONE"));
    assert_eq!(
        rep["outputs"]["length"].as_i64(),
        Some("matrix rows".len() as i64)
    );
}

#[test]
fn wrong_methods_get_405() {
    let (_s, base) = conformance_server();
    let client = Client::new();
    // DELETE on a service resource is not part of the interface.
    assert_eq!(
        client
            .delete(&format!("{base}/services/inc"))
            .unwrap()
            .status
            .as_u16(),
        405
    );
    // PUT on a job resource is not part of the interface.
    let rep = client
        .post_json(&format!("{base}/services/inc"), &json!({"x": 0}))
        .unwrap()
        .body_json()
        .unwrap();
    let uri = rep["uri"].as_str().unwrap();
    let url: mathcloud_http::Url = format!("{base}{uri}").parse().unwrap();
    let resp = client
        .send(&url, Request::new(Method::Put, &url.target()))
        .unwrap();
    assert_eq!(resp.status.as_u16(), 405);
}

/// Request bodies are UTF-8 JSON. Two bodies that differ only in a byte that
/// is not UTF-8 were once both decoded to U+FFFD: the first job ran on
/// altered input and the second was answered from the memo with the first
/// job. Each is now a 400 naming the offset of the bad byte.
#[test]
fn bodies_that_are_not_utf8_are_400_and_share_no_memo_entry() {
    let e = Everest::with_handlers("utf8-bodies", 1);
    e.deploy(
        ServiceDescription::new("echo", "returns its string")
            .input(Parameter::new("s", Schema::string()))
            .output(Parameter::new("s", Schema::string())),
        NativeAdapter::from_fn(|inputs, _| {
            let s = inputs.get("s").cloned().unwrap_or(Value::Null);
            Ok([("s".to_string(), s)].into_iter().collect())
        }),
    );
    e.set_result_memoization(true);
    let server = mathcloud_everest::serve(e, "127.0.0.1:0", None).unwrap();
    let url = format!("{}/services/echo", server.base_url());
    let client = Client::new();
    for body in [&b"{\"s\":\"a\xFFb\"}"[..], &b"{\"s\":\"a\xFEb\"}"[..]] {
        let resp = client
            .post_bytes(&url, "application/json", body.to_vec())
            .unwrap();
        assert_eq!(resp.status.as_u16(), 400, "{}", resp.body_string());
        assert_eq!(resp.headers.get(mathcloud_http::MEMO_HIT_HEADER), None);
        let error = resp.body_json().unwrap()["error"]
            .as_str()
            .unwrap()
            .to_string();
        assert!(
            error.contains("invalid utf-8") && error.contains("byte offset 7"),
            "{error}"
        );
    }
    // The same service still runs a well-formed body.
    let resp = client.post_json(&url, &json!({"s": "a\u{FFFD}b"})).unwrap();
    assert_eq!(resp.status.as_u16(), 201, "{}", resp.body_string());
}
