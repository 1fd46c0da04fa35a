//! Workflow validation: the checks the graphical editor performs.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use mathcloud_core::ServiceDescription;
use mathcloud_json::Schema;

use crate::model::{BlockKind, Workflow};
use crate::script::check_syntax;

/// Supplies service descriptions for `Service` blocks.
///
/// The editor "dynamically retrieves service description and extracts
/// information about the number, types and names of input and output
/// parameters" — over HTTP in production ([`HttpDescriptions`]), from a map
/// in tests.
pub trait DescriptionSource {
    /// Fetches the description of the service at `url`.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the description cannot be obtained.
    fn describe(&self, url: &str) -> Result<ServiceDescription, String>;
}

impl DescriptionSource for HashMap<String, ServiceDescription> {
    fn describe(&self, url: &str) -> Result<ServiceDescription, String> {
        self.get(url)
            .cloned()
            .ok_or_else(|| format!("unknown service {url:?}"))
    }
}

/// Fetches descriptions over the unified REST API.
#[derive(Debug)]
pub struct HttpDescriptions {
    client: mathcloud_http::Client,
}

impl Default for HttpDescriptions {
    fn default() -> Self {
        HttpDescriptions::new()
    }
}

impl HttpDescriptions {
    /// Creates a fetcher with default client settings. Description documents
    /// are small and static, so fetches get a tight deadline rather than the
    /// general-purpose 30 s budget.
    pub fn new() -> Self {
        HttpDescriptions {
            client: mathcloud_http::Client::new()
                .with_timeout(std::time::Duration::from_secs(5))
                .with_connect_timeout(std::time::Duration::from_secs(5)),
        }
    }
}

impl DescriptionSource for HttpDescriptions {
    fn describe(&self, url: &str) -> Result<ServiceDescription, String> {
        let resp = self.client.get(url).map_err(|e| e.to_string())?;
        if !resp.status.is_success() {
            return Err(format!("{} from {url}", resp.status));
        }
        let doc = resp.body_json().map_err(|e| e.to_string())?;
        ServiceDescription::from_value(&doc).map_err(|e| e.to_string())
    }
}

/// One validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationIssue(pub String);

impl fmt::Display for ValidationIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for ValidationIssue {}

/// A workflow that passed validation, with resolved service descriptions and
/// a topological execution order.
#[derive(Debug, Clone)]
pub struct ValidatedWorkflow {
    /// The workflow document.
    pub workflow: Workflow,
    /// Resolved descriptions of `Service` blocks, keyed by block id.
    pub services: HashMap<String, ServiceDescription>,
    /// Block ids in a valid execution order.
    pub topo_order: Vec<String>,
}

fn issue(issues: &mut Vec<ValidationIssue>, text: impl Into<String>) {
    issues.push(ValidationIssue(text.into()));
}

/// Validates a workflow, resolving service ports through `source`.
///
/// Checks performed (all collected, not first-failure):
/// * block ids are unique and non-empty,
/// * service descriptions resolve,
/// * script code lexes and parses,
/// * edges reference existing blocks and ports with the right direction,
/// * every input port has at most one incoming edge,
/// * required service/script inputs are wired (or defaulted),
/// * every output block is wired,
/// * the graph is acyclic.
///
/// # Errors
///
/// All discovered issues.
pub fn validate(
    workflow: &Workflow,
    source: &dyn DescriptionSource,
) -> Result<ValidatedWorkflow, Vec<ValidationIssue>> {
    let mut issues = Vec::new();

    // Unique, non-empty ids.
    let mut seen = std::collections::HashSet::new();
    for b in &workflow.blocks {
        if b.id.is_empty() {
            issue(&mut issues, "block with empty id");
        }
        if !seen.insert(b.id.clone()) {
            issue(&mut issues, format!("duplicate block id {:?}", b.id));
        }
    }

    // Resolve service descriptions; parse scripts.
    let mut services = HashMap::new();
    for b in &workflow.blocks {
        match &b.kind {
            BlockKind::Service { url } => match source.describe(url) {
                Ok(d) => {
                    services.insert(b.id.clone(), d);
                }
                Err(e) => issue(&mut issues, format!("block {:?}: {e}", b.id)),
            },
            BlockKind::Script { code, .. } => {
                if let Err(e) = check_syntax(code) {
                    issue(&mut issues, format!("block {:?}: {e}", b.id));
                }
            }
            _ => {}
        }
    }

    // Port tables.
    let out_schema = |block_id: &str, port: &str| -> Option<Schema> {
        let b = workflow.find(block_id)?;
        match &b.kind {
            BlockKind::Service { .. } => services
                .get(block_id)?
                .output_named(port)
                .map(|p| p.schema().clone()),
            _ => b
                .declared_outputs()
                .into_iter()
                .find(|(n, _)| n == port)
                .map(|(_, s)| s),
        }
    };
    let in_schema = |block_id: &str, port: &str| -> Option<Schema> {
        let b = workflow.find(block_id)?;
        match &b.kind {
            BlockKind::Service { .. } => services
                .get(block_id)?
                .input_named(port)
                .map(|p| p.schema().clone()),
            _ => b
                .declared_inputs()
                .into_iter()
                .find(|(n, _)| n == port)
                .map(|(_, s)| s),
        }
    };

    // Edges.
    let mut incoming: HashMap<(String, String), usize> = HashMap::new();
    for e in &workflow.edges {
        if workflow.find(&e.from.block).is_none() {
            issue(
                &mut issues,
                format!("edge from unknown block {:?}", e.from.block),
            );
            continue;
        }
        if workflow.find(&e.to.block).is_none() {
            issue(
                &mut issues,
                format!("edge to unknown block {:?}", e.to.block),
            );
            continue;
        }
        let from_schema = out_schema(&e.from.block, &e.from.port);
        if from_schema.is_none() {
            issue(&mut issues, format!("{} is not an output port", e.from));
        }
        let to_schema = in_schema(&e.to.block, &e.to.port);
        if to_schema.is_none() {
            issue(&mut issues, format!("{} is not an input port", e.to));
        }
        if let (Some(from), Some(to)) = (from_schema, to_schema) {
            // "The compatibility of data types is checked during connecting
            // the ports" — types only, not formats/semantics (§3.3).
            if !to.accepts_type_of(&from) {
                issue(
                    &mut issues,
                    format!(
                        "type mismatch on {} -> {}: {:?} does not accept {:?}",
                        e.from,
                        e.to,
                        to.types.iter().map(|t| t.keyword()).collect::<Vec<_>>(),
                        from.types.iter().map(|t| t.keyword()).collect::<Vec<_>>()
                    ),
                );
            }
        }
        *incoming
            .entry((e.to.block.clone(), e.to.port.clone()))
            .or_insert(0) += 1;
    }

    // Single writer per input port.
    for ((block, port), count) in &incoming {
        if *count > 1 {
            issue(
                &mut issues,
                format!("input port {block}.{port} has {count} incoming edges"),
            );
        }
    }

    // Required inputs wired.
    for b in &workflow.blocks {
        let required: Vec<String> = match &b.kind {
            BlockKind::Service { .. } => match services.get(&b.id) {
                Some(d) => d
                    .inputs()
                    .iter()
                    .filter(|p| !p.is_optional())
                    .map(|p| p.name().to_string())
                    .collect(),
                None => continue,
            },
            BlockKind::Script { inputs, .. } => inputs.iter().map(|(n, _)| n.clone()).collect(),
            BlockKind::Output { .. } => vec!["value".to_string()],
            _ => Vec::new(),
        };
        for port in required {
            if !incoming.contains_key(&(b.id.clone(), port.clone())) {
                issue(
                    &mut issues,
                    format!("required input {}.{port} is not connected", b.id),
                );
            }
        }
    }

    // Topological order (Kahn's algorithm).
    let mut indeg: HashMap<&str, usize> =
        workflow.blocks.iter().map(|b| (b.id.as_str(), 0)).collect();
    let mut succ: HashMap<&str, Vec<&str>> = HashMap::new();
    for e in &workflow.edges {
        if workflow.find(&e.from.block).is_some() && workflow.find(&e.to.block).is_some() {
            succ.entry(e.from.block.as_str())
                .or_default()
                .push(e.to.block.as_str());
            *indeg.entry(e.to.block.as_str()).or_default() += 1;
        }
    }
    // Deduplicate ids (duplicate-id workflows are already invalid, but the
    // cycle check must not panic on them).
    let mut ready: Vec<&str> = indeg
        .iter()
        .filter(|(_, &d)| d == 0)
        .map(|(&id, _)| id)
        .collect();
    ready.sort_by_key(|id| workflow.blocks.iter().position(|b| b.id == *id));
    let mut topo = Vec::new();
    while let Some(id) = ready.pop() {
        topo.push(id.to_string());
        for &next in succ.get(id).map(Vec::as_slice).unwrap_or(&[]) {
            let d = indeg.get_mut(next).expect("successor exists");
            let was = *d;
            *d = d.saturating_sub(1);
            if was == 1 {
                ready.push(next);
            }
        }
    }
    if topo.len() != indeg.len() {
        issue(&mut issues, "workflow graph contains a cycle");
    }

    if issues.is_empty() {
        Ok(ValidatedWorkflow {
            workflow: workflow.clone(),
            services,
            topo_order: topo,
        })
    } else {
        Err(issues)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Block, BlockKind};
    use mathcloud_core::Parameter;

    fn sum_description() -> ServiceDescription {
        ServiceDescription::new("sum", "adds")
            .input(Parameter::new("a", Schema::integer()))
            .input(Parameter::new("b", Schema::integer()))
            .input(Parameter::new("comment", Schema::string()).optional())
            .output(Parameter::new("total", Schema::integer()))
    }

    fn source() -> HashMap<String, ServiceDescription> {
        [("http://h:1/services/sum".to_string(), sum_description())]
            .into_iter()
            .collect()
    }

    fn valid_workflow() -> Workflow {
        Workflow::new("w", "")
            .input("x", Schema::integer())
            .input("y", Schema::integer())
            .service("add", "http://h:1/services/sum")
            .output("result", Schema::integer())
            .wire(("x", "value"), ("add", "a"))
            .wire(("y", "value"), ("add", "b"))
            .wire(("add", "total"), ("result", "value"))
    }

    #[test]
    fn valid_workflow_passes_and_orders_blocks() {
        let v = validate(&valid_workflow(), &source()).unwrap();
        let pos = |id: &str| {
            v.topo_order
                .iter()
                .position(|b| b == id)
                .unwrap_or(usize::MAX)
        };
        assert!(pos("x") < pos("add"));
        assert!(pos("y") < pos("add"));
        assert!(pos("add") < pos("result"));
        assert!(v.services.contains_key("add"));
    }

    #[test]
    fn type_mismatches_are_caught() {
        let wf = Workflow::new("w", "")
            .input("x", Schema::string())
            .service("add", "http://h:1/services/sum")
            .input("y", Schema::integer())
            .output("r", Schema::integer())
            .wire(("x", "value"), ("add", "a")) // string -> integer
            .wire(("y", "value"), ("add", "b"))
            .wire(("add", "total"), ("r", "value"));
        let errs = validate(&wf, &source()).unwrap_err();
        assert!(
            errs.iter().any(|e| e.0.contains("type mismatch")),
            "{errs:?}"
        );
    }

    #[test]
    fn missing_required_inputs_are_caught() {
        let wf = Workflow::new("w", "")
            .input("x", Schema::integer())
            .service("add", "http://h:1/services/sum")
            .output("r", Schema::integer())
            .wire(("x", "value"), ("add", "a"))
            .wire(("add", "total"), ("r", "value"));
        let errs = validate(&wf, &source()).unwrap_err();
        assert!(
            errs.iter().any(|e| e.0.contains("add.b is not connected")),
            "{errs:?}"
        );
        // The optional "comment" input is fine unwired.
        assert!(!errs.iter().any(|e| e.0.contains("comment")));
    }

    #[test]
    fn cycles_are_caught() {
        let wf = Workflow::new("w", "")
            .block(Block {
                id: "s1".into(),
                kind: BlockKind::Script {
                    code: "o = i;".into(),
                    inputs: vec![("i".into(), Schema::any())],
                    outputs: vec![("o".into(), Schema::any())],
                },
            })
            .block(Block {
                id: "s2".into(),
                kind: BlockKind::Script {
                    code: "o = i;".into(),
                    inputs: vec![("i".into(), Schema::any())],
                    outputs: vec![("o".into(), Schema::any())],
                },
            })
            .wire(("s1", "o"), ("s2", "i"))
            .wire(("s2", "o"), ("s1", "i"));
        let errs = validate(&wf, &HashMap::new()).unwrap_err();
        assert!(errs.iter().any(|e| e.0.contains("cycle")), "{errs:?}");
    }

    #[test]
    fn structural_errors_are_collected_together() {
        let wf = Workflow::new("w", "")
            .input("x", Schema::integer())
            .input("x", Schema::integer()) // duplicate
            .service("s", "http://unknown/svc") // unresolvable
            .output("r", Schema::integer()) // unwired output
            .wire(("ghost", "value"), ("r", "value")) // unknown source
            .wire(("x", "nope"), ("r", "value")); // bad port
        let errs = validate(&wf, &source()).unwrap_err();
        let text = errs
            .iter()
            .map(|e| e.0.clone())
            .collect::<Vec<_>>()
            .join("\n");
        for needle in [
            "duplicate block id",
            "unknown service",
            "edge from unknown block",
            "not an output port",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn script_syntax_errors_name_the_block_and_the_line() {
        let script = |id: &str, code: &str| Block {
            id: id.into(),
            kind: BlockKind::Script {
                code: code.into(),
                inputs: Vec::new(),
                outputs: vec![("o".into(), Schema::any())],
            },
        };
        let wf = Workflow::new("w", "")
            .block(script("good", "o = 1;"))
            .block(script("lexes", "o = 1;\n\no = @;"))
            .block(script("parses", "o = (1;"));
        let errs = validate(&wf, &HashMap::new()).unwrap_err();
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(errs[0]
            .0
            .starts_with("block \"lexes\": script error at line 3"));
        assert!(errs[1]
            .0
            .starts_with("block \"parses\": script error at line 1"));
    }

    #[test]
    fn double_wired_input_port_is_rejected() {
        let wf = valid_workflow().wire(("y", "value"), ("add", "a"));
        let errs = validate(&wf, &source()).unwrap_err();
        assert!(
            errs.iter().any(|e| e.0.contains("2 incoming edges")),
            "{errs:?}"
        );
    }

    #[test]
    fn integer_flows_into_number_ports() {
        let desc = ServiceDescription::new("f", "")
            .input(Parameter::new("x", Schema::number()))
            .output(Parameter::new("y", Schema::number()));
        let src: HashMap<String, ServiceDescription> =
            [("http://h:1/services/f".to_string(), desc)]
                .into_iter()
                .collect();
        let wf = Workflow::new("w", "")
            .input("i", Schema::integer())
            .service("f", "http://h:1/services/f")
            .output("o", Schema::number())
            .wire(("i", "value"), ("f", "x"))
            .wire(("f", "y"), ("o", "value"));
        assert!(validate(&wf, &src).is_ok());
    }
}
