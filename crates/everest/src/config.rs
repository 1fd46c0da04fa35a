//! Declarative (config-only) service deployment.
//!
//! "Note that the all adapters, except Java, support converting of existing
//! applications to services by writing only a service configuration file,
//! i.e., without writing a code" (§3.1). This module parses that
//! configuration format and deploys the described services.
//!
//! A configuration document looks like:
//!
//! ```json
//! {
//!   "services": [
//!     {
//!       "name": "word-count",
//!       "description": "counts words with wc",
//!       "inputs":  { "text": {"type": "string"} },
//!       "outputs": { "count": {"type": "string"} },
//!       "adapter": {
//!         "type": "command",
//!         "program": "/usr/bin/wc",
//!         "args": ["-w"],
//!         "stdin": "text",
//!         "stdout": "count"
//!       },
//!       "allow": ["cert:CN=alice"],
//!       "proxies": ["CN=wms"],
//!       "tags": ["text"]
//!     }
//!   ]
//! }
//! ```
//!
//! `"services"` is the only top-level key: [`load_config`] refuses any other
//! one, and names the container call that replaces each setting.
//!
//! The adapter types are the three §3.1 publishes from configuration alone:
//! `"command"`, `"cluster"` and `"grid"`. Cluster and grid adapters reference
//! named resources registered in an [`AdapterRegistry`] — a batch system or a
//! broker with its proxy, and the task to run — because those are
//! process-level objects and cannot come from JSON. The Java-adapter analogue,
//! [`crate::adapter::NativeAdapter`], needs code, so it is deployed in code.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use mathcloud_cluster::{BatchSystem, JobContext};
use mathcloud_core::ServiceDescription;
use mathcloud_grid::{ProxyCredential, ResourceBroker};
use mathcloud_json::value::Object;
use mathcloud_json::Value;
use mathcloud_security::{AccessPolicy, Identity};

use crate::adapter::{ClusterAdapter, CommandAdapter, ComputeFn, GridAdapter};
use crate::container::Everest;

/// Errors from configuration parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid container configuration: {}", self.0)
    }
}

impl Error for ConfigError {}

fn err(msg: impl Into<String>) -> ConfigError {
    ConfigError(msg.into())
}

/// Named process-level resources that configuration entries may reference.
#[derive(Default)]
pub struct AdapterRegistry {
    clusters: HashMap<String, BatchSystem>,
    brokers: HashMap<String, (ResourceBroker, ProxyCredential)>,
    tasks: HashMap<String, ComputeFn>,
}

impl AdapterRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        AdapterRegistry::default()
    }

    /// Registers a batch system under a name.
    pub fn cluster(mut self, name: &str, cluster: BatchSystem) -> Self {
        self.clusters.insert(name.to_string(), cluster);
        self
    }

    /// Registers a grid broker (with its submitting proxy) under a name.
    pub fn broker(mut self, name: &str, broker: ResourceBroker, proxy: ProxyCredential) -> Self {
        self.brokers.insert(name.to_string(), (broker, proxy));
        self
    }

    /// Registers a compute task for cluster/grid adapters.
    pub fn task<F>(mut self, name: &str, f: F) -> Self
    where
        F: Fn(&Object, &JobContext) -> Result<Object, String> + Send + Sync + 'static,
    {
        self.tasks.insert(name.to_string(), Arc::new(f));
        self
    }
}

impl fmt::Debug for AdapterRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdapterRegistry")
            .field("clusters", &self.clusters.len())
            .field("brokers", &self.brokers.len())
            .field("tasks", &self.tasks.len())
            .finish()
    }
}

/// Parses a configuration document and deploys every service it describes.
///
/// Returns the deployed service names, in document order. The document is
/// `{"services": [...]}` and nothing else; container settings are calls on
/// the container, made before serving traffic:
///
/// 1. result memoization — [`Everest::set_result_memoization`] — and
///    terminal-record retention — [`Everest::set_terminal_retention`] —
///    after this call, so they apply to what recovery replays;
/// 2. the job journal — [`Everest::attach_job_journal`] or
///    [`Everest::attach_job_journal_with`] — after them, whose recovery
///    re-queues interrupted jobs onto the services deployed here;
/// 3. the handler pool — sized when the container is built, by
///    [`Everest::with_handlers`], so before this call;
/// 4. the server edge — [`crate::rest::serve_with_config`].
///
/// # Errors
///
/// [`ConfigError`] naming the offending top-level key when the document is
/// not an object or holds anything but `"services"` (nothing deploys), or
/// naming the offending entry; earlier valid entries are still deployed.
pub fn load_config(
    everest: &Everest,
    config: &Value,
    registry: &AdapterRegistry,
) -> Result<Vec<String>, ConfigError> {
    let doc = config
        .as_object()
        .ok_or_else(|| err("the document must be an object with a \"services\" key"))?;
    if let Some(key) = doc.keys().find(|k| k.as_str() != "services") {
        return Err(err(format!(
            "unknown top-level key {key:?}: a document holds \"services\" only"
        )));
    }
    let services = config
        .get("services")
        .and_then(Value::as_array)
        .ok_or_else(|| err("missing top-level \"services\" array"))?;
    let mut deployed = Vec::new();
    for (i, entry) in services.iter().enumerate() {
        let name = entry
            .str_field("name")
            .ok_or_else(|| err(format!("service #{i}: missing name")))?;
        let description = ServiceDescription::from_value(entry)
            .map_err(|e| err(format!("service {name:?}: {e}")))?;
        let policy = build_policy(entry);
        let adapter_doc = entry
            .get("adapter")
            .ok_or_else(|| err(format!("service {name:?}: missing adapter")))?;
        deploy_with_adapter(everest, description, policy, adapter_doc, registry)
            .map_err(|e| err(format!("service {name:?}: {}", e.0)))?;
        deployed.push(name.to_string());
    }
    Ok(deployed)
}

fn build_policy(entry: &Value) -> AccessPolicy {
    let mut policy = AccessPolicy::new();
    if let Some(allow) = entry.get("allow").and_then(Value::as_array) {
        for id in allow.iter().filter_map(Value::as_str) {
            policy.allow(Identity::decode(id));
        }
    }
    if let Some(deny) = entry.get("deny").and_then(Value::as_array) {
        for id in deny.iter().filter_map(Value::as_str) {
            policy.deny(Identity::decode(id));
        }
    }
    if let Some(proxies) = entry.get("proxies").and_then(Value::as_array) {
        for dn in proxies.iter().filter_map(Value::as_str) {
            policy.trust_proxy(dn);
        }
    }
    policy
}

/// Builds a service (description + adapter) from one configuration entry,
/// using `name` as the service name and ignoring any policy fields. The
/// PaaS layer uses this to deploy uploaded configurations into tenant
/// namespaces with its own ownership policies.
///
/// # Errors
///
/// [`ConfigError`] naming the offending field.
pub fn build_policyless_service(
    name: &str,
    entry: &Value,
    registry: &AdapterRegistry,
) -> Result<(ServiceDescription, Box<dyn crate::adapter::Adapter>), ConfigError> {
    let description =
        ServiceDescription::from_value_named(entry, name).map_err(|e| err(e.to_string()))?;
    let adapter_doc = entry.get("adapter").ok_or_else(|| err("missing adapter"))?;
    let adapter = build_adapter(adapter_doc, registry)?;
    Ok((description, adapter))
}

fn deploy_with_adapter(
    everest: &Everest,
    description: ServiceDescription,
    policy: AccessPolicy,
    adapter_doc: &Value,
    registry: &AdapterRegistry,
) -> Result<(), ConfigError> {
    let adapter = build_adapter(adapter_doc, registry)?;
    everest.deploy_with_policy_boxed(description, adapter, policy);
    Ok(())
}

fn build_adapter(
    adapter_doc: &Value,
    registry: &AdapterRegistry,
) -> Result<Box<dyn crate::adapter::Adapter>, ConfigError> {
    let kind = adapter_doc
        .str_field("type")
        .ok_or_else(|| err("adapter missing type"))?;
    match kind {
        "command" => {
            let program = adapter_doc
                .str_field("program")
                .ok_or_else(|| err("command adapter missing program"))?;
            let args: Vec<String> = adapter_doc
                .get("args")
                .and_then(Value::as_array)
                .map(|a| {
                    a.iter()
                        .filter_map(Value::as_str)
                        .map(String::from)
                        .collect()
                })
                .unwrap_or_default();
            let arg_refs: Vec<&str> = args.iter().map(String::as_str).collect();
            let mut adapter = CommandAdapter::new(program, &arg_refs);
            if let Some(stdin) = adapter_doc.str_field("stdin") {
                adapter = adapter.stdin_from(stdin);
            }
            if let Some(stdout) = adapter_doc.str_field("stdout") {
                adapter = adapter.stdout_to(stdout);
            }
            if let Some(ms) = adapter_doc.int_field("timeout_ms") {
                adapter = adapter.timeout(Duration::from_millis(ms.max(0) as u64));
            }
            Ok(Box::new(adapter))
        }
        "cluster" => {
            let cluster_name = adapter_doc
                .str_field("cluster")
                .ok_or_else(|| err("cluster adapter missing cluster"))?;
            let cluster = registry
                .clusters
                .get(cluster_name)
                .ok_or_else(|| err(format!("unknown cluster {cluster_name:?}")))?
                .clone();
            let task = resolve_task(adapter_doc, registry)?;
            let cores = adapter_doc.int_field("cores").unwrap_or(1).max(1) as usize;
            let mut adapter = ClusterAdapter::new(cluster, cores, move |o, c| task(o, c));
            if let Some(ms) = adapter_doc.int_field("walltime_ms") {
                adapter = adapter.walltime(Duration::from_millis(ms.max(0) as u64));
            }
            Ok(Box::new(adapter))
        }
        "grid" => {
            let broker_name = adapter_doc
                .str_field("broker")
                .ok_or_else(|| err("grid adapter missing broker"))?;
            let (broker, proxy) = registry
                .brokers
                .get(broker_name)
                .ok_or_else(|| err(format!("unknown broker {broker_name:?}")))?
                .clone();
            let task = resolve_task(adapter_doc, registry)?;
            let cores = adapter_doc.int_field("cores").unwrap_or(1).max(1) as usize;
            let adapter = GridAdapter::new(broker, proxy, cores, move |o, c| task(o, c));
            Ok(Box::new(adapter))
        }
        other => Err(err(format!("unknown adapter type {other:?}"))),
    }
}

fn resolve_task(adapter_doc: &Value, registry: &AdapterRegistry) -> Result<ComputeFn, ConfigError> {
    let task_name = adapter_doc
        .str_field("task")
        .ok_or_else(|| err("adapter missing task"))?;
    registry
        .tasks
        .get(task_name)
        .cloned()
        .ok_or_else(|| err(format!("unknown task {task_name:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathcloud_json::json;
    use std::time::Duration;

    #[test]
    fn command_service_deploys_from_pure_config() {
        let everest = Everest::new("cfg");
        let config = json!({
            "services": [{
                "name": "word-count",
                "description": "counts words",
                "inputs": {"text": {"type": "string"}},
                "outputs": {"count": {"type": "string"}},
                "adapter": {
                    "type": "command",
                    "program": "/usr/bin/wc",
                    "args": ["-w"],
                    "stdin": "text",
                    "stdout": "count"
                },
                "tags": ["text", "unix"]
            }]
        });
        let deployed = load_config(&everest, &config, &AdapterRegistry::new()).unwrap();
        assert_eq!(deployed, ["word-count"]);
        let rep = everest
            .submit_and_wait(
                "word-count",
                json!({"text": "one two three"}),
                None,
                None,
                None,
                Some(Duration::from_secs(5)),
            )
            .unwrap()
            .rep;
        let outputs = rep.outputs.expect("job done");
        assert_eq!(outputs.get("count").unwrap().as_str(), Some("3"));
        assert_eq!(
            everest.description("word-count").unwrap().tags(),
            ["text", "unix"]
        );
    }

    #[test]
    fn a_config_entry_is_served_as_the_description_it_parses_to() {
        let entry = json!({
            "name": "pad",
            "description": "pads text",
            "inputs": {
                "text": {"type": "string", "maxLength": 64},
                "width": {"type": "integer", "minimum": 0, "default": 8, "optional": true}
            },
            "outputs": {"padded": {"type": "string"}},
            "adapter": {"type": "command", "program": "/bin/cat", "stdin": "text", "stdout": "padded"},
            "tags": ["text", "format"]
        });
        let everest = Everest::new("cfg");
        let config = json!({ "services": [(entry.clone())] });
        load_config(&everest, &config, &AdapterRegistry::new()).unwrap();
        let server = crate::rest::serve(everest, "127.0.0.1:0", None).unwrap();
        let mut served = mathcloud_http::Client::new()
            .get(&format!("{}/services/pad", server.base_url()))
            .unwrap()
            .body_json()
            .unwrap();
        let parsed = ServiceDescription::from_value(&entry).unwrap();
        assert!(parsed.input_named("width").unwrap().is_optional());
        assert_eq!(parsed.tags(), ["text", "format"]);
        let uri = served.as_object_mut().unwrap().remove("uri");
        assert_eq!(uri, Some(json!("/services/pad")));
        assert_eq!(served, parsed.to_value());
        assert_eq!(ServiceDescription::from_value(&served).unwrap(), parsed);
    }

    #[test]
    fn cluster_service_uses_registered_resources() {
        let everest = Everest::new("cfg");
        let cluster = mathcloud_cluster::BatchSystem::builder("site")
            .node("n", 2)
            .build();
        let registry =
            AdapterRegistry::new()
                .cluster("site-a", cluster)
                .task("square", |inputs, _| {
                    let n = inputs.get("n").and_then(Value::as_i64).unwrap_or(0);
                    Ok([("sq".to_string(), json!(n * n))].into_iter().collect())
                });
        let config = json!({
            "services": [{
                "name": "square",
                "description": "squares on the cluster",
                "inputs": {"n": {"type": "integer"}},
                "outputs": {"sq": {"type": "integer"}},
                "adapter": {"type": "cluster", "cluster": "site-a", "cores": 1, "task": "square"}
            }]
        });
        load_config(&everest, &config, &registry).unwrap();
        let rep = everest
            .submit_and_wait(
                "square",
                json!({"n": 6}),
                None,
                None,
                None,
                Some(Duration::from_secs(5)),
            )
            .unwrap()
            .rep;
        assert_eq!(rep.outputs.unwrap().get("sq").unwrap().as_i64(), Some(36));
    }

    #[test]
    fn policies_come_from_config() {
        let everest = Everest::new("cfg");
        let config = json!({
            "services": [{
                "name": "restricted",
                "description": "",
                "adapter": {"type": "command", "program": "/bin/true", "args": []},
                "allow": ["cert:CN=alice"],
                "deny": ["openid:https://id/mallory"]
            }]
        });
        load_config(&everest, &config, &AdapterRegistry::new()).unwrap();
        use crate::container::Caller;
        let alice = Caller::direct(Identity::certificate("CN=alice"));
        let bob = Caller::direct(Identity::certificate("CN=bob"));
        assert!(everest.authorize("restricted", &alice).is_ok());
        assert!(everest.authorize("restricted", &bob).is_err());
    }

    #[test]
    fn bad_configs_are_rejected_with_context() {
        let everest = Everest::new("cfg");
        let reg = AdapterRegistry::new();
        for (config, needle) in [
            (json!({}), "services"),
            (json!({"services": [{}]}), "missing name"),
            (json!({"services": [{"name": "x"}]}), "missing adapter"),
            (
                json!({"services": [{"name": "x", "adapter": {"type": "warp"}}]}),
                "unknown adapter type",
            ),
            (
                json!({"services": [{"name": "x", "adapter": {"type": "native", "task": "t"}}]}),
                "service \"x\": unknown adapter type \"native\"",
            ),
            (
                json!({"services": [{"name": "x", "adapter": {"type": "cluster", "cluster": "c", "task": "t"}}]}),
                "unknown cluster",
            ),
            (
                json!({"services": [{"name": "x", "inputs": {"p": {"type": "odd"}}, "adapter": {"type": "command", "program": "/bin/true"}}]}),
                "parameter",
            ),
        ] {
            let e = load_config(&everest, &config, &reg).unwrap_err();
            assert!(e.to_string().contains(needle), "{e} !~ {needle}");
        }
    }

    #[test]
    fn keys_other_than_services_are_refused_before_any_deploy() {
        let everest = Everest::new("cfg");
        let reg = AdapterRegistry::new();
        let noop = json!([{
            "name": "noop",
            "description": "",
            "adapter": {"type": "command", "program": "/bin/true", "args": []}
        }]);
        for (config, needle) in [
            (
                json!({"services": (noop.clone()), "journal": {"path": "/tmp/x"}}),
                "\"journal\"",
            ),
            (
                json!({"services": (noop.clone()), "pool": {"min_workers": 2}}),
                "\"pool\"",
            ),
            (
                json!({"services": (noop.clone()), "memo": {"enabled": true}}),
                "\"memo\"",
            ),
            (
                json!({"services": (noop.clone()), "server": {"workers": 4}}),
                "\"server\"",
            ),
            (json!({"servics": (noop.clone())}), "\"servics\""),
            (noop, "\"services\""),
        ] {
            let e = load_config(&everest, &config, &reg).unwrap_err();
            assert!(e.to_string().contains(needle), "{e} !~ {needle}");
            assert!(everest.list_services().is_empty(), "{config}");
        }
    }
}
