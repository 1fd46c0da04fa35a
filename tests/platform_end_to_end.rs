//! The whole platform in one scenario, following the paper's §4 experience
//! report: publish computational services, discover them through the
//! catalogue, compose them in a workflow published as a composite service,
//! and run the distributed matrix-inversion application end to end —
//! verifying the error-free property exactly.

use std::sync::Arc;
use std::time::Duration;

use mathcloud_bench::matrix::{schur_workflow, spawn_matrix_farm};
use mathcloud_catalogue::Catalogue;
use mathcloud_client::ServiceClient;
use mathcloud_everest::Everest;
use mathcloud_exact::{hilbert, Matrix};
use mathcloud_json::{json, Value};
use mathcloud_workflow::{HttpCaller, HttpDescriptions, WorkflowService};

#[test]
fn discover_compose_execute() {
    // 1. A farm of matrix-service containers (the provider side).
    let servers = spawn_matrix_farm(4, 4);
    let bases: Vec<String> = servers.iter().map(|s| s.base_url()).collect();

    // 2. Discovery: publish every container's inverter in the catalogue and
    //    find them by full-text search.
    let catalogue = Catalogue::new();
    for base in &bases {
        catalogue
            .publish(
                &format!("{base}/services/mat-invert"),
                &["linear-algebra", "exact"],
            )
            .expect("publish");
    }
    let hits = catalogue.search("error-free inversion", None);
    assert_eq!(hits.len(), 4, "all four inverters indexed: {hits:?}");
    assert!(hits[0].snippet.contains("<b>"), "query terms highlighted");

    // 3. Composition: the Schur workflow published as a composite service.
    let wms_container = Everest::with_handlers("wms", 2);
    let wms = WorkflowService::with_backends(wms_container, HttpDescriptions::new(), || {
        Arc::new(HttpCaller::default())
    });
    let workflow = schur_workflow(&bases);
    let service_name = wms
        .publish(&workflow)
        .expect("workflow validates and deploys");
    let wms_server =
        mathcloud_everest::serve(wms.container().clone(), "127.0.0.1:0", None).unwrap();

    // 4. Execution through the composite service's *ordinary* REST API.
    let n = 10;
    let h = hilbert(n);
    let svc = ServiceClient::connect(&format!(
        "{}/services/{service_name}",
        wms_server.base_url()
    ))
    .unwrap();
    // The composite advertises the workflow's Input blocks as parameters.
    let desc = svc.describe().unwrap();
    let mut names: Vec<&str> = desc.inputs().iter().map(|p| p.name()).collect();
    names.sort_unstable();
    assert_eq!(names, ["k", "matrix"]);

    let rep = svc
        .call(
            &json!({"matrix": (h.to_text()), "k": (n / 2)}),
            Duration::from_secs(120),
        )
        .expect("distributed inversion job");
    let outputs = rep.outputs.expect("DONE outputs");
    let inverse =
        Matrix::from_text(outputs.get("inverse").and_then(Value::as_str).unwrap()).unwrap();

    // 5. Error-free: the product is *exactly* the identity.
    assert_eq!(&h * &inverse, Matrix::identity(n));

    // 6. The catalogue notices a dead container.
    drop(servers);
    std::thread::sleep(Duration::from_millis(50));
    let (up, down) = catalogue.ping_all();
    assert_eq!(up, 0);
    assert_eq!(down, 4);
    assert!(catalogue
        .search("inversion", None)
        .iter()
        .all(|r| !r.entry.available));
}

#[test]
fn catalogue_rest_interface_round_trip() {
    let servers = spawn_matrix_farm(1, 2);
    let base = servers[0].base_url();

    let catalogue = Catalogue::new();
    let cat_server =
        mathcloud_http::Server::bind("127.0.0.1:0", mathcloud_catalogue::router(catalogue))
            .unwrap();
    let cat_base = cat_server.base_url();
    let client = mathcloud_http::Client::new();

    // Publish over HTTP.
    let resp = client
        .post_json(
            &format!("{cat_base}/publish"),
            &json!({"url": (format!("{base}/services/mat-mul")), "tags": ["algebra"]}),
        )
        .unwrap();
    assert_eq!(resp.status.as_u16(), 201, "{}", resp.body_string());
    let id = resp.body_json().unwrap()["id"].as_i64().unwrap();

    // Search over HTTP.
    let results = client
        .get(&format!("{cat_base}/search?q=product&tag=algebra"))
        .unwrap()
        .body_json()
        .unwrap();
    assert_eq!(results[0]["name"].as_str(), Some("mat-mul"));

    // Tag over HTTP, then find by the new tag.
    let url: mathcloud_http::Url = format!("{cat_base}/entries/{id}/tags").parse().unwrap();
    let resp = client
        .send(
            &url,
            mathcloud_http::Request::new(mathcloud_http::Method::Post, &url.target())
                .with_json(&json!({"tags": ["favourite"]})),
        )
        .unwrap();
    assert_eq!(resp.status.as_u16(), 204);
    let results = client
        .get(&format!("{cat_base}/search?q=favourite"))
        .unwrap()
        .body_json()
        .unwrap();
    assert_eq!(results.as_array().unwrap().len(), 1);

    // Ping over HTTP.
    let ping = client
        .post_bytes(
            &format!("{cat_base}/ping"),
            "application/json",
            b"{}".to_vec(),
        )
        .unwrap()
        .body_json()
        .unwrap();
    assert_eq!(ping["available"].as_i64(), Some(1));
}

#[test]
fn wms_rest_upload_executes_via_composite_service() {
    let servers = spawn_matrix_farm(2, 2);
    let bases: Vec<String> = servers.iter().map(|s| s.base_url()).collect();

    let wms_container = Everest::with_handlers("wms", 2);
    let wms = WorkflowService::with_backends(wms_container, HttpDescriptions::new(), || {
        Arc::new(HttpCaller::default())
    });
    let mut router = mathcloud_everest::rest::router(wms.container().clone(), None);
    wms.mount(&mut router);
    let server = mathcloud_http::Server::bind("127.0.0.1:0", router).unwrap();
    let base = server.base_url();
    let client = mathcloud_http::Client::new();

    // Upload the workflow document over the WMS REST API.
    let workflow = schur_workflow(&bases);
    let url: mathcloud_http::Url = format!("{base}/workflows/schur-inverse").parse().unwrap();
    let resp = client
        .send(
            &url,
            mathcloud_http::Request::new(mathcloud_http::Method::Put, &url.target())
                .with_json(&workflow.to_value()),
        )
        .unwrap();
    assert_eq!(resp.status.as_u16(), 201, "{}", resp.body_string());
    let service_uri = resp.body_json().unwrap()["uri"]
        .as_str()
        .unwrap()
        .to_string();

    // The same server now exposes the composite service; invert through it.
    let n = 8;
    let h = hilbert(n);
    let rep = client
        .post_json(
            &format!("{base}{service_uri}"),
            &json!({"matrix": (h.to_text()), "k": (n / 2)}),
        )
        .unwrap()
        .body_json()
        .unwrap();
    let job_uri = rep["uri"].as_str().unwrap().to_string();
    // Poll until terminal.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    let final_rep = loop {
        let rep = client
            .get(&format!("{base}{job_uri}"))
            .unwrap()
            .body_json()
            .unwrap();
        match rep["state"].as_str() {
            Some("DONE") => break rep,
            Some("FAILED") => panic!("workflow failed: {rep}"),
            _ => {
                assert!(std::time::Instant::now() < deadline, "timed out");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    let inverse = Matrix::from_text(final_rep["outputs"]["inverse"].as_str().unwrap()).unwrap();
    assert_eq!(&h * &inverse, Matrix::identity(n));
}
