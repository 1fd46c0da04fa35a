//! The paper's service-creation claim: "it usually takes from tens of
//! minutes to a couple of hours to produce a new service … In many cases
//! service development reduces to writing a service configuration file."
//!
//! These tests deploy services from pure JSON configuration — no code — and
//! verify they behave identically to hand-written deployments.

use std::sync::mpsc;
use std::time::Duration;

use mathcloud_client::ServiceClient;
use mathcloud_cluster::{BatchSystem, JobContext, JobState};
use mathcloud_everest::{load_config, AdapterRegistry, Everest};
use mathcloud_grid::{ComputingElement, ProxyCredential, ResourceBroker};
use mathcloud_json::value::Object;
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

/// The summary task behind the `stats` services.
fn stats(inputs: &Object, _: &JobContext) -> Result<Object, String> {
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
}

/// A registry holding a cluster `site-a` and a broker `egi` over one CE, a
/// cluster or (with `grid`) a grid adapter entry running `task` on them, and
/// the batch system that entry's jobs run on.
fn batch_backed(task: &str, grid: bool) -> (AdapterRegistry, Value, BatchSystem) {
    let cluster = BatchSystem::builder("site").nodes("n", 2, 2).build();
    let ce_site = BatchSystem::builder("ce-site").nodes("wn", 2, 2).build();
    let ce = ComputingElement::new("ce.egi.eu", &["vo"], ce_site.clone());
    let proxy = ProxyCredential::issue("CN=alice", "vo", Duration::from_secs(600));
    let registry = AdapterRegistry::new()
        .cluster("site-a", cluster.clone())
        .broker("egi", ResourceBroker::new(vec![ce]), proxy);
    if grid {
        let adapter = json!({"type": "grid", "broker": "egi", "task": task});
        (registry, adapter, ce_site)
    } else {
        let adapter = json!({"type": "cluster", "cluster": "site-a", "cores": 1, "task": task});
        (registry, adapter, cluster)
    }
}

#[test]
fn cluster_backed_services_reference_registered_resources() {
    for grid in [false, true] {
        let everest = Everest::new("cfg");
        let (registry, adapter, site) = batch_backed("stats", grid);
        let registry = registry.task("stats", stats);
        let config = json!({
            "services": [{
                "name": "stats",
                "description": "summary statistics on a batch system",
                "inputs":  { "values": {"type": "array", "items": {"type": "integer"}} },
                "outputs": { "sum": {"type": "integer"}, "count": {"type": "integer"} },
                "adapter": (adapter)
            }]
        });
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
        assert_eq!(site.stats().finished_jobs, 1);
    }
}

/// `DELETE` on a running job's resource reaches the batch system the job was
/// placed on, for a cluster and for a grid entry alike.
#[test]
fn a_cancel_reaches_the_placed_batch_system() {
    for grid in [false, true] {
        let (registry, adapter, site) = batch_backed("spin", grid);
        let (started, running) = mpsc::channel();
        let registry = registry.task("spin", move |_, ctx| {
            started.send(ctx.id()).unwrap();
            while !ctx.should_stop() {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err("stopped".into())
        });
        let everest = Everest::new("cfg");
        let config = json!({
            "services": [{"name": "spin", "description": "runs until stopped", "adapter": (adapter)}]
        });
        load_config(&everest, &config, &registry).unwrap();
        let server = mathcloud_everest::serve(everest, "127.0.0.1:0", None).unwrap();
        let url = format!("{}/services/spin", server.base_url());

        let job = ServiceClient::connect(&url)
            .unwrap()
            .submit(&json!({}))
            .unwrap();
        let id = running
            .recv_timeout(Duration::from_secs(5))
            .expect("RUNNING");
        job.cancel().unwrap();
        let st = site
            .wait(id, Duration::from_secs(5))
            .expect("terminal within 5 s");
        assert_eq!(st.state, JobState::Cancelled, "grid: {grid}");
    }
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
