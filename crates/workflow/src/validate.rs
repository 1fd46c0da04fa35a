//! Workflow validation: the checks the graphical editor performs, made once,
//! at publish, and the plan a run walks, compiled in the same pass.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use mathcloud_core::ServiceDescription;
use mathcloud_json::Schema;
use mathcloud_telemetry::metrics::{self, Histogram};

use crate::model::{BlockKind, Workflow};
use crate::script::Program;

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

/// A workflow that passed validation, compiled into the plan its runs walk.
#[derive(Debug, Clone)]
pub struct ValidatedWorkflow {
    /// The workflow document.
    pub workflow: Workflow,
    /// Resolved descriptions of `Service` blocks, keyed by block id.
    pub services: HashMap<String, ServiceDescription>,
    /// One step per block, at the block's position in `workflow.blocks`.
    pub(crate) plan: Vec<Step>,
}

/// How a run executes one block, fixed when its workflow is validated.
#[derive(Clone)]
pub(crate) struct Step {
    /// A `Script` block's compiled program.
    pub(crate) program: Option<Program>,
    /// Each input port, with the position of the block feeding it and that
    /// block's output port.
    pub(crate) wiring: Vec<(String, usize, String)>,
    /// The positions of the blocks this one feeds, once per edge.
    pub(crate) successors: Vec<usize>,
    /// How many consumers take each output port: its edges, and for an
    /// `Output` block's value the run's result.
    pub(crate) readers: HashMap<String, usize>,
    /// `mc_workflow_block_seconds` for the block's kind.
    pub(crate) seconds: Histogram,
}

/// A step shows its wiring. The rest follows from the wiring or from the
/// block's code, or is a metrics handle, which has no `Debug`.
impl fmt::Debug for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(&self.wiring).finish()
    }
}

/// Validates a workflow, resolving service ports through `source`, and
/// compiles it into the plan [`crate::Engine::run`] walks: each script
/// parsed once, each block's wiring, successors and consumer counts.
///
/// Checks performed (all collected, not first-failure):
/// * block ids are unique and non-empty,
/// * service descriptions resolve,
/// * script code lexes and parses, reads no name that neither a declared
///   input nor an earlier statement binds, and assigns every declared output,
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
    let blocks = &workflow.blocks;

    // Unique, non-empty ids, and each block's position.
    let mut pos = HashMap::new();
    for (i, b) in blocks.iter().enumerate() {
        if b.id.is_empty() {
            issues.push("block with empty id".into());
        }
        if pos.insert(b.id.as_str(), i).is_some() {
            issues.push(format!("duplicate block id {:?}", b.id));
        }
    }

    // Resolve service descriptions, fetching each URL once; compile scripts.
    let mut fetched = HashMap::new();
    let mut services = HashMap::new();
    let mut plan = Vec::with_capacity(blocks.len());
    for b in blocks {
        let (mut program, mut readers) = (None, HashMap::new());
        let kind = match &b.kind {
            BlockKind::Service { url } => {
                match fetched
                    .entry(url.as_str())
                    .or_insert_with(|| source.describe(url))
                {
                    Ok(d) => drop(services.insert(b.id.clone(), d.clone())),
                    Err(e) => issues.push(format!("block {:?}: {e}", b.id)),
                }
                "service"
            }
            BlockKind::Script {
                code,
                inputs,
                outputs,
            } => {
                match Program::compile(code, inputs.iter().map(|(n, _)| n.as_str())) {
                    Ok(p) => {
                        for (name, _) in outputs.iter().filter(|(n, _)| !p.assigns(n)) {
                            let text = format!("output {name:?} is never assigned");
                            issues.push(format!("block {:?}: {text}", b.id));
                        }
                        program = Some(p);
                    }
                    Err(e) => issues.push(format!("block {:?}: {e}", b.id)),
                }
                "script"
            }
            BlockKind::Input { .. } => "input",
            BlockKind::Constant { .. } => "constant",
            BlockKind::Output { .. } => {
                readers.insert("value".to_string(), 1);
                "output"
            }
        };
        plan.push(Step {
            program,
            wiring: Vec::new(),
            successors: Vec::new(),
            readers,
            seconds: metrics::global().histogram("mc_workflow_block_seconds", &[("kind", kind)]),
        });
    }

    // A port's schema: an output port's, or with `input` an input port's.
    let schema = |i: usize, port: &str, input: bool| -> Option<Schema> {
        let b = &blocks[i];
        if let BlockKind::Service { .. } = b.kind {
            let d = services.get(&b.id)?;
            let p = if input {
                d.input_named(port)
            } else {
                d.output_named(port)
            };
            return p.map(|p| p.schema().clone());
        }
        let declared = if input {
            b.declared_inputs()
        } else {
            b.declared_outputs()
        };
        declared
            .into_iter()
            .find(|(n, _)| n == port)
            .map(|(_, s)| s)
    };

    // Edges.
    for e in &workflow.edges {
        let Some(&from) = pos.get(e.from.block.as_str()) else {
            issues.push(format!("edge from unknown block {:?}", e.from.block));
            continue;
        };
        let Some(&to) = pos.get(e.to.block.as_str()) else {
            issues.push(format!("edge to unknown block {:?}", e.to.block));
            continue;
        };
        let from_schema = schema(from, &e.from.port, false);
        if from_schema.is_none() {
            issues.push(format!("{} is not an output port", e.from));
        }
        let to_schema = schema(to, &e.to.port, true);
        if to_schema.is_none() {
            issues.push(format!("{} is not an input port", e.to));
        }
        if let (Some(from), Some(to)) = (from_schema, to_schema) {
            // "The compatibility of data types is checked during connecting
            // the ports" — types only, not formats/semantics (§3.3).
            if !to.accepts_type_of(&from) {
                issues.push(format!(
                    "type mismatch on {} -> {}: {:?} does not accept {:?}",
                    e.from,
                    e.to,
                    to.types.iter().map(|t| t.keyword()).collect::<Vec<_>>(),
                    from.types.iter().map(|t| t.keyword()).collect::<Vec<_>>()
                ));
            }
        }
        plan[to]
            .wiring
            .push((e.to.port.clone(), from, e.from.port.clone()));
        plan[from].successors.push(to);
        *plan[from].readers.entry(e.from.port.clone()).or_default() += 1;
    }

    // One writer per input port, and every required input wired.
    for (b, step) in blocks.iter().zip(&plan) {
        let writers = |port: &str| step.wiring.iter().filter(|(p, ..)| p == port).count();
        for (k, (port, ..)) in step.wiring.iter().enumerate() {
            let count = writers(port);
            if count > 1 && !step.wiring[..k].iter().any(|(p, ..)| p == port) {
                issues.push(format!(
                    "input port {}.{port} has {count} incoming edges",
                    b.id
                ));
            }
        }
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
        for port in required.iter().filter(|port| writers(port) == 0) {
            issues.push(format!("required input {}.{port} is not connected", b.id));
        }
    }

    // The cycle check: Kahn's algorithm reaches every block of a DAG.
    let mut indeg: Vec<usize> = plan.iter().map(|s| s.wiring.len()).collect();
    let mut ready: Vec<usize> = (0..plan.len()).filter(|&i| indeg[i] == 0).collect();
    let mut reached = 0;
    while let Some(i) = ready.pop() {
        reached += 1;
        for &next in &plan[i].successors {
            indeg[next] -= 1;
            if indeg[next] == 0 {
                ready.push(next);
            }
        }
    }
    if reached != plan.len() {
        issues.push("workflow graph contains a cycle".into());
    }

    if issues.is_empty() {
        Ok(ValidatedWorkflow {
            workflow: workflow.clone(),
            services,
            plan,
        })
    } else {
        Err(issues.into_iter().map(ValidationIssue).collect())
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
        // Blocks x, y, add, result at positions 0 to 3.
        let v = validate(&valid_workflow(), &source()).unwrap();
        let wiring = |i: usize| {
            let step = &v.plan[i];
            let ports = step
                .wiring
                .iter()
                .map(|(p, from, fp)| (p.as_str(), *from, fp.as_str()));
            ports.collect::<Vec<_>>()
        };
        assert_eq!(wiring(2), [("a", 0, "value"), ("b", 1, "value")]);
        assert_eq!(wiring(3), [("value", 2, "total")]);
        let successors: Vec<_> = v.plan.iter().map(|s| s.successors.clone()).collect();
        assert_eq!(successors, [vec![2], vec![2], vec![3], vec![]]);
        assert_eq!(v.plan[0].readers["value"], 1);
        assert_eq!(v.plan[2].readers["total"], 1);
        assert_eq!(
            v.plan[3].readers["value"], 1,
            "the run's result reads an output"
        );
        assert!(v.services.contains_key("add"));
    }

    #[test]
    fn each_service_url_is_fetched_once() {
        struct Counting(std::cell::Cell<usize>);
        impl DescriptionSource for Counting {
            fn describe(&self, url: &str) -> Result<ServiceDescription, String> {
                self.0.set(self.0.get() + 1);
                source().describe(url)
            }
        }
        let wf = Workflow::new("w", "")
            .input("x", Schema::integer())
            .service("add1", "http://h:1/services/sum")
            .service("add2", "http://h:1/services/sum")
            .output("r", Schema::integer())
            .wire(("x", "value"), ("add1", "a"))
            .wire(("x", "value"), ("add1", "b"))
            .wire(("add1", "total"), ("add2", "a"))
            .wire(("x", "value"), ("add2", "b"))
            .wire(("add2", "total"), ("r", "value"));
        let counting = Counting(Default::default());
        let v = validate(&wf, &counting).unwrap();
        assert_eq!(counting.0.get(), 1, "two blocks on one URL");
        assert!(v.services.contains_key("add1") && v.services.contains_key("add2"));
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
