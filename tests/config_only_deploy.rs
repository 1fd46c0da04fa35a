//! The paper's service-creation claim: "it usually takes from tens of
//! minutes to a couple of hours to produce a new service … In many cases
//! service development reduces to writing a service configuration file."
//!
//! These tests deploy services from pure JSON configuration — no code — and
//! verify they behave identically to hand-written deployments.

use std::time::Duration;

use mathcloud_client::ServiceClient;
use mathcloud_cluster::BatchSystem;
use mathcloud_everest::{load_config, AdapterRegistry, Everest};
use mathcloud_json::{json, parse, Value};

#[test]
fn a_unix_tool_becomes_a_service_from_config_alone() {
    let everest = Everest::new("cfg");
    let config = parse(
        r#"{
            "services": [
                {
                    "name": "sort-lines",
                    "description": "Sorts input lines with sort(1)",
                    "inputs":  { "text": {"type": "string"} },
                    "outputs": { "sorted": {"type": "string"} },
                    "adapter": {
                        "type": "command",
                        "program": "/usr/bin/sort",
                        "args": [],
                        "stdin": "text",
                        "stdout": "sorted"
                    },
                    "tags": ["text"]
                },
                {
                    "name": "checksum",
                    "description": "SHA-256 of the input via sha256sum(1)",
                    "inputs":  { "data": {"type": "string"} },
                    "outputs": { "digest": {"type": "string"} },
                    "adapter": {
                        "type": "command",
                        "program": "/usr/bin/sha256sum",
                        "args": [],
                        "stdin": "data",
                        "stdout": "digest"
                    }
                }
            ]
        }"#,
    )
    .unwrap();
    let deployed = load_config(&everest, &config, &AdapterRegistry::new()).unwrap();
    assert_eq!(deployed, ["sort-lines", "checksum"]);

    let server = mathcloud_everest::serve(everest, "127.0.0.1:0", None).unwrap();
    let base = server.base_url();

    let sort = ServiceClient::connect(&format!("{base}/services/sort-lines")).unwrap();
    let rep = sort
        .call(
            &json!({"text": "pear\napple\nmango"}),
            Duration::from_secs(10),
        )
        .unwrap();
    assert_eq!(
        rep.outputs.unwrap().get("sorted").unwrap().as_str(),
        Some("apple\nmango\npear")
    );

    // The config-deployed checksum service agrees with our in-repo SHA-256.
    let checksum = ServiceClient::connect(&format!("{base}/services/checksum")).unwrap();
    let rep = checksum
        .call(&json!({"data": "abc"}), Duration::from_secs(10))
        .unwrap();
    let line = rep
        .outputs
        .unwrap()
        .get("digest")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let expected = mathcloud_security::sha256::to_hex(&mathcloud_security::sha256::digest(b"abc"));
    assert!(line.starts_with(&expected), "{line} !~ {expected}");
}

#[test]
fn cluster_backed_services_reference_registered_resources() {
    let everest = Everest::new("cfg");
    let cluster = BatchSystem::builder("site").nodes("n", 2, 2).build();
    let registry = AdapterRegistry::new()
        .cluster("site-a", cluster.clone())
        .task("stats", |inputs, _| {
            let values: Vec<i64> = inputs
                .get("values")
                .and_then(Value::as_array)
                .map(|a| a.iter().filter_map(Value::as_i64).collect())
                .unwrap_or_default();
            if values.is_empty() {
                return Err("no values".into());
            }
            let sum: i64 = values.iter().sum();
            Ok([
                ("sum".to_string(), json!(sum)),
                ("count".to_string(), json!(values.len())),
            ]
            .into_iter()
            .collect())
        });
    let config = parse(
        r#"{
            "services": [{
                "name": "stats",
                "description": "summary statistics on the cluster",
                "inputs":  { "values": {"type": "array", "items": {"type": "integer"}} },
                "outputs": { "sum": {"type": "integer"}, "count": {"type": "integer"} },
                "adapter": {"type": "cluster", "cluster": "site-a", "cores": 1, "task": "stats"}
            }]
        }"#,
    )
    .unwrap();
    load_config(&everest, &config, &registry).unwrap();

    let rep = everest
        .submit_and_wait(
            "stats",
            json!({"values": [3, 4, 5]}),
            None,
            None,
            None,
            Some(Duration::from_secs(10)),
        )
        .unwrap()
        .rep;
    let outputs = rep.outputs.expect("done");
    assert_eq!(outputs.get("sum").unwrap().as_i64(), Some(12));
    assert_eq!(outputs.get("count").unwrap().as_i64(), Some(3));
    // The job really went through the batch system.
    assert_eq!(cluster.stats().finished_jobs, 1);
}

#[test]
fn config_policies_guard_config_deployed_services() {
    use mathcloud_everest::Caller;
    use mathcloud_security::Identity;

    let everest = Everest::new("cfg");
    let config = parse(
        r#"{
            "services": [{
                "name": "vip",
                "description": "restricted",
                "adapter": {"type": "command", "program": "/bin/true", "args": []},
                "allow": ["openid:https://id/alice"],
                "proxies": ["CN=wms"]
            }]
        }"#,
    )
    .unwrap();
    load_config(&everest, &config, &AdapterRegistry::new()).unwrap();
    let alice = Caller::direct(Identity::openid("https://id/alice"));
    let bob = Caller::direct(Identity::openid("https://id/bob"));
    assert!(everest.authorize("vip", &alice).is_ok());
    assert!(everest.authorize("vip", &bob).is_err());
    let alice_via_wms = Caller::proxied(Identity::openid("https://id/alice"), "CN=wms");
    assert!(everest.authorize("vip", &alice_via_wms).is_ok());
}
