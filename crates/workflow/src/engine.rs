//! The workflow execution engine.
//!
//! Executes a validated workflow, running every data-ready block
//! concurrently (the source of the paper's Table 2 speedups) and exposing
//! live per-block state — the information the graphical editor renders by
//! "painting each workflow block in the color corresponding to its current
//! state" (§3.3).

use std::collections::HashMap;
use std::fmt;
use std::sync::mpsc;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use mathcloud_client::{ServiceClient, ServiceError};
use mathcloud_http::Client;
use mathcloud_json::value::Object;
use mathcloud_json::Value;
use mathcloud_telemetry::sync::{Mutex, RwLock};
use mathcloud_telemetry::{metrics, trace, WorkPool};

use crate::model::BlockKind;
use crate::script::run_script;
use crate::validate::ValidatedWorkflow;

/// Live state of one block during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockRun {
    /// Waiting for upstream data.
    Waiting,
    /// Executing.
    Running,
    /// Finished successfully.
    Done,
    /// Finished with an error.
    Failed,
}

/// An engine failure.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A workflow input value was not provided.
    MissingInput(String),
    /// A block failed; the workflow is aborted.
    BlockFailed {
        /// The failing block id.
        block: String,
        /// The failure reason.
        reason: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::MissingInput(name) => write!(f, "missing workflow input {name:?}"),
            EngineError::BlockFailed { block, reason } => {
                write!(f, "block {block:?} failed: {reason}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Publishes a `workflow.block.*` transition on the process-wide event bus,
/// mirroring what the graphical editor paints: the colour change of one
/// block. Subscribers get pushed transitions instead of polling
/// [`RunHandle::block_states`].
fn publish_block_event(
    kind: &str,
    workflow: &str,
    block: &str,
    request_id: Option<&str>,
    error: Option<&str>,
) {
    let mut payload = Object::new();
    payload.insert("workflow".into(), Value::from(workflow));
    payload.insert("block".into(), Value::from(block));
    if let Some(e) = error {
        payload.insert("error".into(), Value::from(e));
    }
    mathcloud_events::global().publish(kind, request_id, Value::Object(payload));
}

/// Invokes remote computational services for `Service` blocks.
pub trait ServiceCaller: Send + Sync {
    /// Submits `inputs` to the service at `url` and blocks until the job is
    /// terminal, returning its outputs.
    ///
    /// # Errors
    ///
    /// A human-readable reason on submission or job failure.
    fn call(&self, url: &str, inputs: &Object) -> Result<Object, String>;

    /// [`ServiceCaller::call`] carrying the workflow run's originating
    /// request id, so one `X-MC-Request-Id` correlates the whole fan-out:
    /// workflow submission → every block → every downstream service job.
    ///
    /// The default discards the id and delegates to `call`, keeping existing
    /// implementations valid; callers that can propagate it (like
    /// [`HttpCaller`]) override this instead.
    ///
    /// # Errors
    ///
    /// See [`ServiceCaller::call`].
    fn call_traced(
        &self,
        url: &str,
        inputs: &Object,
        request_id: Option<&str>,
    ) -> Result<Object, String> {
        let _ = request_id;
        self.call(url, inputs)
    }
}

/// The production caller: [`ServiceClient::call_idempotent`] — subscribe to
/// the container's `GET /events` stream, submit under a fresh
/// `Idempotency-Key` (so the transport may retry the `POST`: a replayed
/// submission is answered with the original job), wait for the job's
/// terminal `job.*` event and fetch the outputs with one status request;
/// the poll loop of §2 of the paper when the server predates `/events` or
/// the stream drops.
#[derive(Debug, Clone, Default)]
pub struct HttpCaller {
    client: Client,
}

/// The deadline the client API asks for; no job is expected to outlast it.
const JOB_DEADLINE: Duration = Duration::from_secs(7 * 24 * 3600);

impl HttpCaller {
    /// Replaces the HTTP client (builder style) — e.g. to tighten deadlines
    /// or the retry policy for a particular deployment.
    pub fn with_client(mut self, client: Client) -> Self {
        self.client = client;
        self
    }
}

impl ServiceCaller for HttpCaller {
    fn call(&self, url: &str, inputs: &Object) -> Result<Object, String> {
        self.call_traced(url, inputs, None)
    }

    /// The block's request id rides on the submission and on every poll, so
    /// the downstream container records its job under the same id instead of
    /// minting a fresh one at its server edge.
    fn call_traced(
        &self,
        url: &str,
        inputs: &Object,
        request_id: Option<&str>,
    ) -> Result<Object, String> {
        ServiceClient::connect(url)
            .map_err(|e| e.to_string())?
            .with_client(self.client.clone())
            .call_idempotent(
                &Value::Object(inputs.clone()),
                &trace::next_request_id(),
                request_id,
                JOB_DEADLINE,
            )
            .map(|rep| rep.outputs.unwrap_or_default())
            .map_err(|e| match e {
                ServiceError::JobFailed(reason) => reason,
                other => other.to_string(),
            })
    }
}

/// The pool every run and every `Service`/`Script` block in this process
/// runs on (threads `mc-wf-N`, retiring after two idle seconds). It has no
/// cap: a composite service calling a composite service holds one thread per
/// level of nesting while it waits, so any bound is a deadlock at some depth.
fn pool() -> &'static WorkPool {
    static POOL: OnceLock<WorkPool> = OnceLock::new();
    POOL.get_or_init(|| WorkPool::new("mc-wf", usize::MAX, Duration::from_secs(2)))
}

/// A handle on a running workflow instance.
///
/// The editor polls [`RunHandle::block_states`] to color blocks; callers get
/// the result from [`RunHandle::wait`].
pub struct RunHandle {
    states: Arc<RwLock<HashMap<String, BlockRun>>>,
    result: mpsc::Receiver<Result<Object, EngineError>>,
}

impl RunHandle {
    /// Snapshot of every block's state.
    pub fn block_states(&self) -> HashMap<String, BlockRun> {
        self.states.read().clone()
    }

    /// State of one block.
    pub fn block_state(&self, id: &str) -> Option<BlockRun> {
        self.states.read().get(id).copied()
    }

    /// Blocks until the run finishes.
    ///
    /// # Errors
    ///
    /// [`EngineError`] if any block failed.
    pub fn wait(self) -> Result<Object, EngineError> {
        self.result.recv().unwrap_or(Err(EngineError::BlockFailed {
            block: "<engine>".into(),
            reason: "engine thread disappeared".into(),
        }))
    }
}

impl fmt::Debug for RunHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunHandle").finish()
    }
}

/// The workflow engine: a validated workflow plus a service caller.
pub struct Engine {
    validated: Arc<ValidatedWorkflow>,
    caller: Arc<dyn ServiceCaller>,
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("workflow", &self.validated.workflow.name)
            .finish()
    }
}

impl Engine {
    /// Creates an engine with the production HTTP caller.
    pub fn new(validated: ValidatedWorkflow) -> Self {
        Engine::with_caller(validated, HttpCaller::default())
    }

    /// Creates an engine with a custom caller (tests, in-process calls).
    pub fn with_caller<C: ServiceCaller + 'static>(
        validated: ValidatedWorkflow,
        caller: C,
    ) -> Self {
        Engine {
            validated: Arc::new(validated),
            caller: Arc::new(caller),
        }
    }

    /// Runs the workflow to completion.
    ///
    /// # Errors
    ///
    /// [`EngineError`] when inputs are missing or a block fails.
    pub fn run(&self, inputs: &Object) -> Result<Object, EngineError> {
        self.start(inputs)?.wait()
    }

    /// [`Engine::run`] tagged with the originating request id, which flows
    /// into every block span and downstream service call.
    ///
    /// # Errors
    ///
    /// [`EngineError`] when inputs are missing or a block fails.
    pub fn run_traced(
        &self,
        inputs: &Object,
        request_id: Option<&str>,
    ) -> Result<Object, EngineError> {
        self.start_traced(inputs, request_id)?.wait()
    }

    /// Starts an asynchronous run.
    ///
    /// # Errors
    ///
    /// [`EngineError::MissingInput`] when a workflow input is not supplied.
    pub fn start(&self, inputs: &Object) -> Result<RunHandle, EngineError> {
        self.start_traced(inputs, None)
    }

    /// [`Engine::start`] tagged with the originating request id.
    ///
    /// # Errors
    ///
    /// [`EngineError::MissingInput`] when a workflow input is not supplied.
    pub fn start_traced(
        &self,
        inputs: &Object,
        request_id: Option<&str>,
    ) -> Result<RunHandle, EngineError> {
        // Check inputs up front.
        for id in self.validated.workflow.input_ids() {
            if inputs.get(id).is_none() {
                return Err(EngineError::MissingInput(id.to_string()));
            }
        }
        let states: Arc<RwLock<HashMap<String, BlockRun>>> = Arc::new(RwLock::new(
            self.validated
                .workflow
                .blocks
                .iter()
                .map(|b| (b.id.clone(), BlockRun::Waiting))
                .collect(),
        ));
        let (result_tx, result_rx) = mpsc::channel();
        let validated = Arc::clone(&self.validated);
        let caller = Arc::clone(&self.caller);
        let run_states = Arc::clone(&states);
        let inputs = inputs.clone();
        let request_id = request_id.map(str::to_string);
        pool().spawn(move || {
            let outcome = execute(
                &validated,
                &caller,
                &run_states,
                &inputs,
                request_id.as_deref(),
            );
            let _ = result_tx.send(outcome);
        });
        Ok(RunHandle {
            states,
            result: result_rx,
        })
    }
}

/// Values produced so far, keyed by `(block, port)`.
type PortValues = HashMap<(String, String), Value>;
/// Port values produced by one block.
type Produced = Vec<((String, String), Value)>;
/// One block's completion message: its id plus produced port values.
type BlockDone = (String, Result<Produced, String>);

fn execute(
    validated: &Arc<ValidatedWorkflow>,
    caller: &Arc<dyn ServiceCaller>,
    states: &Arc<RwLock<HashMap<String, BlockRun>>>,
    request_inputs: &Object,
    request_id: Option<&str>,
) -> Result<Object, EngineError> {
    let wf = &validated.workflow;
    // Port values produced so far.
    let values: Arc<Mutex<PortValues>> = Arc::new(Mutex::new(HashMap::new()));
    // Remaining unsatisfied incoming edges per block.
    let mut indeg: HashMap<String, usize> = wf.blocks.iter().map(|b| (b.id.clone(), 0)).collect();
    for e in &wf.edges {
        *indeg.get_mut(&e.to.block).expect("validated edge") += 1;
    }

    let (done_tx, done_rx) = mpsc::channel::<BlockDone>();
    let mut failed: Option<EngineError> = None;

    // `Service` and `Script` blocks run on the pool; the rest only move a
    // value from one map to another and are evaluated right here.
    let spawn_block = |id: &str, done_tx: &mpsc::Sender<BlockDone>| {
        states.write().insert(id.to_string(), BlockRun::Running);
        publish_block_event("workflow.block.running", &wf.name, id, request_id, None);
        let kind = &wf.find(id).expect("validated block").kind;
        if !matches!(kind, BlockKind::Service { .. } | BlockKind::Script { .. }) {
            let result = run_block(validated, caller, &values, request_inputs, request_id, id);
            let _ = done_tx.send((id.to_string(), result));
            return;
        }
        let id = id.to_string();
        let validated = Arc::clone(validated);
        let caller = Arc::clone(caller);
        let values = Arc::clone(&values);
        let request_inputs = request_inputs.clone();
        let request_id = request_id.map(str::to_string);
        let done_tx = done_tx.clone();
        pool().spawn(move || {
            let result = run_block(
                &validated,
                &caller,
                &values,
                &request_inputs,
                request_id.as_deref(),
                &id,
            );
            let _ = done_tx.send((id, result));
        });
    };

    // Kick off source blocks, then keep exactly one counter: blocks spawned
    // but not yet reported. After a failure no new blocks start, so the
    // in-flight set drains naturally and the loop exits.
    let mut inflight = 0usize;
    let ready: Vec<String> = wf
        .blocks
        .iter()
        .filter(|b| indeg[&b.id] == 0)
        .map(|b| b.id.clone())
        .collect();
    for id in ready {
        spawn_block(&id, &done_tx);
        inflight += 1;
    }

    while inflight > 0 {
        let (id, outcome) = done_rx.recv().expect("this thread holds a sender");
        inflight -= 1;
        match outcome {
            Ok(produced) => {
                states.write().insert(id.clone(), BlockRun::Done);
                publish_block_event("workflow.block.done", &wf.name, &id, request_id, None);
                {
                    let mut vals = values.lock();
                    for (port, value) in produced {
                        vals.insert(port, value);
                    }
                }
                // Unlock successors.
                for e in &wf.edges {
                    if e.from.block == id {
                        let d = indeg.get_mut(&e.to.block).expect("validated edge");
                        *d -= 1;
                        if *d == 0 && failed.is_none() {
                            spawn_block(&e.to.block, &done_tx);
                            inflight += 1;
                        }
                    }
                }
            }
            Err(reason) => {
                states.write().insert(id.clone(), BlockRun::Failed);
                publish_block_event(
                    "workflow.block.failed",
                    &wf.name,
                    &id,
                    request_id,
                    Some(&reason),
                );
                if failed.is_none() {
                    failed = Some(EngineError::BlockFailed { block: id, reason });
                }
            }
        }
    }

    if let Some(e) = failed {
        return Err(e);
    }

    // Collect output block values.
    let vals = values.lock();
    let mut outputs = Object::new();
    for b in &wf.blocks {
        if matches!(b.kind, BlockKind::Output { .. }) {
            let v = vals
                .get(&(b.id.clone(), "value".to_string()))
                .cloned()
                .unwrap_or(Value::Null);
            outputs.insert(b.id.clone(), v);
        }
    }
    Ok(outputs)
}

fn run_block(
    validated: &ValidatedWorkflow,
    caller: &Arc<dyn ServiceCaller>,
    values: &Arc<Mutex<PortValues>>,
    request_inputs: &Object,
    request_id: Option<&str>,
    id: &str,
) -> Result<Produced, String> {
    let wf = &validated.workflow;
    let block = wf.find(id).expect("validated block");

    // Gather this block's input-port values from incoming edges.
    let mut port_inputs = Object::new();
    {
        let vals = values.lock();
        for e in &wf.edges {
            if e.to.block == id {
                let v = vals
                    .get(&(e.from.block.clone(), e.from.port.clone()))
                    .cloned()
                    .ok_or_else(|| format!("internal: value for {} missing", e.from))?;
                port_inputs.insert(e.to.port.clone(), v);
            }
        }
    }

    let kind_label = match &block.kind {
        BlockKind::Input { .. } => "input",
        BlockKind::Constant { .. } => "constant",
        BlockKind::Output { .. } => "output",
        BlockKind::Script { .. } => "script",
        BlockKind::Service { .. } => "service",
    };
    let mut span = trace::span("workflow.block", request_id);
    span.field("block", id);
    span.field("kind", kind_label);
    let started = std::time::Instant::now();

    let out = |port: &str, v: Value| ((id.to_string(), port.to_string()), v);
    let result = (move || match &block.kind {
        BlockKind::Input { schema } => {
            let v = request_inputs
                .get(id)
                .cloned()
                .ok_or_else(|| format!("missing workflow input {id:?}"))?;
            if let Err(errs) = schema.validate(&v) {
                return Err(format!("input {id:?}: {}", errs[0]));
            }
            Ok(vec![out("value", v)])
        }
        BlockKind::Constant { value } => Ok(vec![out("value", value.clone())]),
        BlockKind::Output { .. } => {
            let v = port_inputs
                .get("value")
                .cloned()
                .ok_or_else(|| "output block received no value".to_string())?;
            Ok(vec![out("value", v)])
        }
        BlockKind::Script { code, outputs, .. } => {
            let produced = run_script(code, &port_inputs).map_err(|e| e.to_string())?;
            let mut result = Vec::new();
            for (name, _) in outputs {
                let v = produced
                    .get(name)
                    .cloned()
                    .ok_or_else(|| format!("script did not assign output {name:?}"))?;
                result.push(out(name, v));
            }
            Ok(result)
        }
        BlockKind::Service { url } => {
            // Fill declared optional defaults the description provides.
            let description = validated.services.get(id).expect("validated service");
            let body = Value::Object(port_inputs);
            let effective = description
                .validate_inputs(&body)
                .map_err(|e| e.to_string())?;
            let outputs = caller.call_traced(url, &effective, request_id)?;
            Ok(outputs.into_iter().map(|(name, v)| out(&name, v)).collect())
        }
    })();
    metrics::global()
        .histogram("mc_workflow_block_seconds", &[("kind", kind_label)])
        .observe_duration(started.elapsed());
    span.field("outcome", if result.is_ok() { "done" } else { "failed" });
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Block, Workflow};
    use crate::validate::validate;
    use mathcloud_core::{Parameter, ServiceDescription};
    use mathcloud_json::{json, Schema};

    /// An in-process caller with controllable behaviour.
    struct MockCaller;

    impl ServiceCaller for MockCaller {
        fn call(&self, url: &str, inputs: &Object) -> Result<Object, String> {
            match url {
                "mock://sum" => {
                    let a = inputs.get("a").and_then(Value::as_i64).unwrap_or(0);
                    let b = inputs.get("b").and_then(Value::as_i64).unwrap_or(0);
                    Ok([("total".to_string(), json!(a + b))].into_iter().collect())
                }
                "mock://slow-double" => {
                    std::thread::sleep(Duration::from_millis(60));
                    let x = inputs.get("x").and_then(Value::as_i64).unwrap_or(0);
                    Ok([("y".to_string(), json!(x * 2))].into_iter().collect())
                }
                "mock://fail" => Err("deliberate failure".to_string()),
                other => Err(format!("unknown mock {other}")),
            }
        }
    }

    fn descriptions() -> HashMap<String, ServiceDescription> {
        let sum = ServiceDescription::new("sum", "")
            .input(Parameter::new("a", Schema::integer()))
            .input(Parameter::new("b", Schema::integer()))
            .output(Parameter::new("total", Schema::integer()));
        let double = ServiceDescription::new("double", "")
            .input(Parameter::new("x", Schema::integer()))
            .output(Parameter::new("y", Schema::integer()));
        let fail = ServiceDescription::new("fail", "")
            .input(Parameter::new("x", Schema::any()))
            .output(Parameter::new("y", Schema::any()));
        [
            ("mock://sum".to_string(), sum),
            ("mock://slow-double".to_string(), double),
            ("mock://fail".to_string(), fail),
        ]
        .into_iter()
        .collect()
    }

    fn engine(wf: &Workflow) -> Engine {
        let v = validate(wf, &descriptions()).expect("workflow should validate");
        Engine::with_caller(v, MockCaller)
    }

    #[test]
    fn linear_workflow_produces_outputs() {
        let wf = Workflow::new("w", "")
            .input("a", Schema::integer())
            .input("b", Schema::integer())
            .service("add", "mock://sum")
            .output("sum", Schema::integer())
            .wire(("a", "value"), ("add", "a"))
            .wire(("b", "value"), ("add", "b"))
            .wire(("add", "total"), ("sum", "value"));
        let inputs: Object = [("a".to_string(), json!(19)), ("b".to_string(), json!(23))]
            .into_iter()
            .collect();
        let outputs = engine(&wf).run(&inputs).unwrap();
        assert_eq!(outputs.get("sum"), Some(&json!(42)));
    }

    #[test]
    fn independent_branches_run_in_parallel() {
        // Two slow services in parallel should take ~1x the latency, not 2x.
        let wf = Workflow::new("w", "")
            .input("x", Schema::integer())
            .service("d1", "mock://slow-double")
            .service("d2", "mock://slow-double")
            .block(Block {
                id: "merge".into(),
                kind: BlockKind::Script {
                    code: "sum = a + b;".into(),
                    inputs: vec![
                        ("a".into(), Schema::integer()),
                        ("b".into(), Schema::integer()),
                    ],
                    outputs: vec![("sum".into(), Schema::integer())],
                },
            })
            .output("r", Schema::integer())
            .wire(("x", "value"), ("d1", "x"))
            .wire(("x", "value"), ("d2", "x"))
            .wire(("d1", "y"), ("merge", "a"))
            .wire(("d2", "y"), ("merge", "b"))
            .wire(("merge", "sum"), ("r", "value"));
        let inputs: Object = [("x".to_string(), json!(5))].into_iter().collect();
        let t0 = std::time::Instant::now();
        let outputs = engine(&wf).run(&inputs).unwrap();
        let elapsed = t0.elapsed();
        assert_eq!(outputs.get("r"), Some(&json!(20)));
        assert!(
            elapsed < Duration::from_millis(115),
            "not parallel: {elapsed:?}"
        );
    }

    #[test]
    fn block_states_are_observable() {
        let wf = Workflow::new("w", "")
            .input("x", Schema::integer())
            .service("d1", "mock://slow-double")
            .output("r", Schema::integer())
            .wire(("x", "value"), ("d1", "x"))
            .wire(("d1", "y"), ("r", "value"));
        let inputs: Object = [("x".to_string(), json!(1))].into_iter().collect();
        let handle = engine(&wf).start(&inputs).unwrap();
        // While the slow service runs, its block should be RUNNING.
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(handle.block_state("d1"), Some(BlockRun::Running));
        let outputs = handle.wait().unwrap();
        assert_eq!(outputs.get("r"), Some(&json!(2)));
    }

    #[test]
    fn failures_abort_with_block_attribution() {
        let wf = Workflow::new("w", "")
            .input("x", Schema::integer())
            .service("boom", "mock://fail")
            .output("r", Schema::any())
            .wire(("x", "value"), ("boom", "x"))
            .wire(("boom", "y"), ("r", "value"));
        let inputs: Object = [("x".to_string(), json!(1))].into_iter().collect();
        let err = engine(&wf).run(&inputs).unwrap_err();
        match err {
            EngineError::BlockFailed { block, reason } => {
                assert_eq!(block, "boom");
                assert!(reason.contains("deliberate failure"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn missing_inputs_fail_before_starting() {
        let wf = Workflow::new("w", "")
            .input("x", Schema::integer())
            .output("r", Schema::integer())
            .wire(("x", "value"), ("r", "value"));
        let err = engine(&wf).run(&Object::new()).unwrap_err();
        assert_eq!(err, EngineError::MissingInput("x".into()));
    }

    #[test]
    fn input_values_are_validated_against_schemas() {
        let wf = Workflow::new("w", "")
            .input("x", Schema::integer())
            .output("r", Schema::integer())
            .wire(("x", "value"), ("r", "value"));
        let inputs: Object = [("x".to_string(), json!("not a number"))]
            .into_iter()
            .collect();
        let err = engine(&wf).run(&inputs).unwrap_err();
        assert!(matches!(err, EngineError::BlockFailed { .. }));
    }

    #[test]
    fn run_traced_hands_the_request_id_to_every_service_call() {
        /// Records the request id each `call_traced` receives, then answers
        /// like [`MockCaller`].
        #[derive(Clone)]
        struct RecordingCaller {
            seen: Arc<Mutex<Vec<Option<String>>>>,
        }

        impl ServiceCaller for RecordingCaller {
            fn call(&self, url: &str, inputs: &Object) -> Result<Object, String> {
                self.call_traced(url, inputs, None)
            }

            fn call_traced(
                &self,
                url: &str,
                inputs: &Object,
                request_id: Option<&str>,
            ) -> Result<Object, String> {
                self.seen.lock().push(request_id.map(String::from));
                MockCaller.call(url, inputs)
            }
        }

        let wf = Workflow::new("w", "")
            .input("a", Schema::integer())
            .input("b", Schema::integer())
            .service("add", "mock://sum")
            .output("sum", Schema::integer())
            .wire(("a", "value"), ("add", "a"))
            .wire(("b", "value"), ("add", "b"))
            .wire(("add", "total"), ("sum", "value"));
        let v = validate(&wf, &descriptions()).unwrap();
        let caller = RecordingCaller {
            seen: Arc::new(Mutex::new(Vec::new())),
        };
        let engine = Engine::with_caller(v, caller.clone());
        let inputs: Object = [("a".to_string(), json!(1)), ("b".to_string(), json!(2))]
            .into_iter()
            .collect();

        engine.run_traced(&inputs, Some("wf-rid-7")).unwrap();
        assert_eq!(caller.seen.lock().as_slice(), &[Some("wf-rid-7".into())]);

        // Untraced runs still reach the caller, with no id attached.
        engine.run(&inputs).unwrap();
        assert_eq!(caller.seen.lock().last(), Some(&None));
    }

    #[test]
    fn http_caller_attaches_request_id_to_submit_and_poll() {
        use mathcloud_core::{JobId, JobRepresentation, JobState};
        use mathcloud_http::{PathParams, Request, Response, Router, Server};

        // A one-job service: submission returns WAITING, the first poll
        // returns DONE. Both handlers record the request id they were given.
        let seen: Arc<Mutex<Vec<Option<String>>>> = Arc::new(Mutex::new(Vec::new()));
        let mut router = Router::new();
        let record = Arc::clone(&seen);
        router.post("/services/sum/jobs", move |r: &Request, _p: &PathParams| {
            record
                .lock()
                .push(r.headers.get(trace::REQUEST_ID_HEADER).map(String::from));
            let rep = JobRepresentation::new(
                JobId::new("j1"),
                "/services/sum/jobs/j1",
                JobState::Waiting,
            );
            Response::json(202, &rep.to_value())
        });
        let record = Arc::clone(&seen);
        router.get(
            "/services/sum/jobs/j1",
            move |r: &Request, _p: &PathParams| {
                record
                    .lock()
                    .push(r.headers.get(trace::REQUEST_ID_HEADER).map(String::from));
                let mut rep = JobRepresentation::new(
                    JobId::new("j1"),
                    "/services/sum/jobs/j1",
                    JobState::Done,
                );
                rep.outputs = Some([("total".to_string(), json!(42))].into_iter().collect());
                Response::json(200, &rep.to_value())
            },
        );
        let server = Server::bind("127.0.0.1:0", router).expect("bind");

        let caller = HttpCaller::default();
        let inputs: Object = [("a".to_string(), json!(40)), ("b".to_string(), json!(2))]
            .into_iter()
            .collect();
        let url = format!("{}/services/sum/jobs", server.base_url());
        let outputs = caller
            .call_traced(&url, &inputs, Some("rid-wf-42"))
            .unwrap();
        assert_eq!(outputs.get("total"), Some(&json!(42)));

        // The server edge mints a fresh id when none arrives, so equality
        // with ours proves the header crossed the wire on both requests.
        let seen = seen.lock().clone();
        assert_eq!(seen.len(), 2, "one submit + one poll, got {seen:?}");
        for rid in &seen {
            assert_eq!(rid.as_deref(), Some("rid-wf-42"));
        }
    }

    #[test]
    fn constants_and_scripts_work_without_services() {
        let wf = Workflow::new("w", "")
            .block(Block {
                id: "k".into(),
                kind: BlockKind::Constant { value: json!(10) },
            })
            .input("x", Schema::integer())
            .block(Block {
                id: "calc".into(),
                kind: BlockKind::Script {
                    code: "y = x * k;".into(),
                    inputs: vec![
                        ("x".into(), Schema::integer()),
                        ("k".into(), Schema::integer()),
                    ],
                    outputs: vec![("y".into(), Schema::integer())],
                },
            })
            .output("r", Schema::integer())
            .wire(("x", "value"), ("calc", "x"))
            .wire(("k", "value"), ("calc", "k"))
            .wire(("calc", "y"), ("r", "value"));
        let inputs: Object = [("x".to_string(), json!(4))].into_iter().collect();
        let outputs = engine(&wf).run(&inputs).unwrap();
        assert_eq!(outputs.get("r"), Some(&json!(40)));
    }
}
