//! The workflow execution engine.
//!
//! [`Engine::run`] walks the plan that [`crate::validate()`] compiled once,
//! at publish, on the calling thread, running every data-ready block
//! concurrently (the source of the paper's Table 2 speedups): each
//! `Service` and `Script` block on a thread of its own (`mc-wf-block`)
//! inside one [`std::thread::scope`], joined before the run returns. A
//! `Script` block runs its parsed program; nothing on a run's path lexes or
//! parses. The state of each block — what the graphical editor paints "in
//! the color corresponding to its current state" (§3.3) — goes out as
//! `workflow.block.*` events on the process-wide bus (`GET /events`).
//!
//! The calling thread owns every port value. It takes each output port's
//! consumer count from the plan, hands a copy to every consumer but the
//! last and moves the value to the last, so a value is copied once, at its
//! `Input` block.

use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::thread::{Builder, Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

use mathcloud_client::{ServiceClient, ServiceError};
use mathcloud_http::Client;
use mathcloud_json::value::Object;
use mathcloud_json::Value;
use mathcloud_telemetry::trace;

use crate::model::BlockKind;
use crate::validate::ValidatedWorkflow;

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
/// block. These events are the only record of block state.
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
    /// terminal, returning its outputs. `request_id` is the workflow run's
    /// originating request id, so one `X-MC-Request-Id` correlates the whole
    /// fan-out: workflow submission → every block → every downstream job.
    ///
    /// # Errors
    ///
    /// A human-readable reason on submission or job failure.
    fn call(&self, url: &str, inputs: Object, request_id: Option<&str>) -> Result<Object, String>;
}

/// A shared caller calls through: the WMS hands every composite service the
/// `Arc<dyn ServiceCaller>` its factory made.
impl<C: ServiceCaller + ?Sized> ServiceCaller for Arc<C> {
    fn call(&self, url: &str, inputs: Object, request_id: Option<&str>) -> Result<Object, String> {
        (**self).call(url, inputs, request_id)
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

/// The block's request id rides on the submission and on every poll, so the
/// downstream container records its job under the same id instead of minting
/// a fresh one at its server edge.
impl ServiceCaller for HttpCaller {
    fn call(&self, url: &str, inputs: Object, request_id: Option<&str>) -> Result<Object, String> {
        ServiceClient::connect(url)
            .map_err(|e| e.to_string())?
            .with_client(self.client.clone())
            .call_idempotent(
                &Value::Object(inputs),
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

/// The workflow engine: a validated workflow plus a service caller.
pub struct Engine {
    validated: ValidatedWorkflow,
    caller: Box<dyn ServiceCaller>,
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
            validated,
            caller: Box::new(caller),
        }
    }

    /// Runs the workflow to completion on this thread and the block threads
    /// it starts, none of which outlives the call. `request_id`, the
    /// originating request's id, rides on every `workflow.block.*` event and
    /// downstream service call.
    ///
    /// # Errors
    ///
    /// [`EngineError`] when inputs are missing or a block fails — a block
    /// that panics fails with a reason naming the panic.
    pub fn run(&self, inputs: &Object, request_id: Option<&str>) -> Result<Object, EngineError> {
        let wf = &self.validated.workflow;
        for id in wf.input_ids() {
            if inputs.get(id).is_none() {
                return Err(EngineError::MissingInput(id.to_string()));
            }
        }
        let plan = &self.validated.plan;
        let (done, reports) = mpsc::channel();
        let mut run = Run {
            engine: self,
            inputs,
            request_id,
            waiting: plan.iter().map(|step| step.wiring.len()).collect(),
            ports: plan.iter().map(|_| HashMap::new()).collect(),
            done,
        };
        std::thread::scope(|scope| run.drive(scope, &reports))
    }
}

/// One block's report: the block's position and the values it produced, by
/// port.
type Report = (usize, Result<Object, String>);

/// The state of one run, owned by the thread that called [`Engine::run`].
/// Blocks are named by their position in the plan.
struct Run<'e> {
    engine: &'e Engine,
    inputs: &'e Object,
    request_id: Option<&'e str>,
    /// Inputs not yet arrived, per block.
    waiting: Vec<usize>,
    /// The values each finished block produced that someone still reads,
    /// by port, each with the consumers not yet handed it.
    ports: Vec<HashMap<&'e str, (Value, usize)>>,
    done: mpsc::Sender<Report>,
}

impl<'e> Run<'e> {
    /// Starts the source blocks, then each block whose last input arrives,
    /// until every started block has reported. After a failure no new block
    /// starts, so the started ones drain and the loop ends.
    fn drive<'s>(
        &mut self,
        scope: &'s Scope<'s, 'e>,
        reports: &mpsc::Receiver<Report>,
    ) -> Result<Object, EngineError> {
        let engine = self.engine;
        let (wf, plan) = (&engine.validated.workflow, &engine.validated.plan);
        let mut threads = Vec::new();
        let mut inflight = 0usize;
        for i in (0..plan.len()).filter(|&i| plan[i].wiring.is_empty()) {
            threads.extend(self.start(scope, i));
            inflight += 1;
        }
        let mut failed = None;
        while inflight > 0 {
            let (i, outcome) = reports.recv().expect("the run holds a sender");
            inflight -= 1;
            let id = wf.blocks[i].id.as_str();
            match outcome {
                Ok(mut produced) => {
                    publish_block_event("workflow.block.done", &wf.name, id, self.request_id, None);
                    self.ports[i] = (plan[i].readers.iter())
                        .filter_map(|(port, &n)| Some((port.as_str(), (produced.remove(port)?, n))))
                        .collect();
                    for &next in &plan[i].successors {
                        self.waiting[next] -= 1;
                        if self.waiting[next] == 0 && failed.is_none() {
                            threads.extend(self.start(scope, next));
                            inflight += 1;
                        }
                    }
                }
                Err(reason) => {
                    publish_block_event(
                        "workflow.block.failed",
                        &wf.name,
                        id,
                        self.request_id,
                        Some(&reason),
                    );
                    failed.get_or_insert(EngineError::BlockFailed {
                        block: id.to_string(),
                        reason,
                    });
                }
            }
        }
        for thread in threads {
            let _ = thread.join(); // reported already; a panic was caught
        }
        if let Some(e) = failed {
            return Err(e);
        }
        let mut outputs = Object::new();
        for (i, b) in wf.blocks.iter().enumerate() {
            if matches!(b.kind, BlockKind::Output { .. }) {
                let v = self.ports[i]
                    .remove("value")
                    .map_or(Value::Null, |(v, _)| v);
                outputs.insert(b.id.clone(), v);
            }
        }
        Ok(outputs)
    }

    /// Starts block `i`: a `Service` or `Script` block on a thread of its
    /// own, which it returns; any other block here, at once. Either way,
    /// exactly one report follows.
    fn start<'s>(
        &mut self,
        scope: &'s Scope<'s, 'e>,
        i: usize,
    ) -> Option<ScopedJoinHandle<'s, ()>> {
        let (engine, inputs, request_id) = (self.engine, self.inputs, self.request_id);
        let wf = &engine.validated.workflow;
        publish_block_event(
            "workflow.block.running",
            &wf.name,
            &wf.blocks[i].id,
            request_id,
            None,
        );
        let port_inputs = match self.gather(i) {
            Ok(port_inputs) => port_inputs,
            Err(reason) => {
                let _ = self.done.send((i, Err(reason)));
                return None;
            }
        };
        if !matches!(
            wf.blocks[i].kind,
            BlockKind::Service { .. } | BlockKind::Script { .. }
        ) {
            let result = engine.run_block(i, port_inputs, inputs, request_id);
            let _ = self.done.send((i, result));
            return None;
        }
        let done = self.done.clone();
        let block_thread =
            Builder::new()
                .name("mc-wf-block".into())
                .spawn_scoped(scope, move || {
                    // A panicking caller or script fails its block, not the run.
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        engine.run_block(i, port_inputs, inputs, request_id)
                    }))
                    .unwrap_or_else(|panic| {
                        let msg = panic
                            .downcast_ref::<&str>()
                            .map(|s| (*s).to_string())
                            .or_else(|| panic.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "block panicked".to_string());
                        Err(format!("block panicked: {msg}"))
                    });
                    let _ = done.send((i, result));
                });
        Some(block_thread.expect("spawn workflow block thread"))
    }

    /// Takes block `i`'s input-port values along its wiring: a copy for
    /// every consumer of a port but the last, the value itself for the last.
    fn gather(&mut self, i: usize) -> Result<Object, String> {
        let validated = &self.engine.validated;
        let mut port_inputs = Object::new();
        for (port, from, from_port) in &validated.plan[i].wiring {
            let produced = &mut self.ports[*from];
            let Some((v, left)) = produced.get_mut(from_port.as_str()) else {
                let from = &validated.workflow.blocks[*from].id;
                return Err(format!("internal: value for {from}.{from_port} missing"));
            };
            *left -= 1;
            let v = match *left {
                0 => produced.remove(from_port.as_str()).expect("present").0,
                _ => v.clone(),
            };
            port_inputs.insert(port.clone(), v);
        }
        Ok(port_inputs)
    }
}

impl Engine {
    /// Runs block `i` on its gathered `port_inputs`, returning its outputs
    /// by port. `request_inputs` are the composite job's inputs.
    fn run_block(
        &self,
        i: usize,
        port_inputs: Object,
        request_inputs: &Object,
        request_id: Option<&str>,
    ) -> Result<Object, String> {
        let (block, step) = (&self.validated.workflow.blocks[i], &self.validated.plan[i]);
        let id = block.id.as_str();
        let started = Instant::now();
        let value = |v: Value| -> Object { [("value".to_string(), v)].into_iter().collect() };

        let result = (move || match &block.kind {
            BlockKind::Input { schema } => {
                let v = request_inputs
                    .get(id)
                    .cloned()
                    .ok_or_else(|| format!("missing workflow input {id:?}"))?;
                if let Err(errs) = schema.validate(&v) {
                    return Err(format!("input {id:?}: {}", errs[0]));
                }
                Ok(value(v))
            }
            BlockKind::Constant { value: v } => Ok(value(v.clone())),
            BlockKind::Output { .. } => match port_inputs.get("value") {
                Some(_) => Ok(port_inputs),
                None => Err("output block received no value".to_string()),
            },
            BlockKind::Script { .. } => {
                let program = step.program.as_ref().expect("compiled at validation");
                program.run(port_inputs).map_err(|e| e.to_string())
            }
            BlockKind::Service { url } => {
                // Fill declared optional defaults the description provides.
                let effective = self.validated.services[id]
                    .accept_inputs(Value::Object(port_inputs))
                    .map_err(|e| e.to_string())?;
                self.caller.call(url, effective, request_id)
            }
        })();
        step.seconds.observe_duration(started.elapsed());
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Block, Workflow};
    use crate::validate::validate;
    use mathcloud_core::{Parameter, ServiceDescription};
    use mathcloud_events::KindFilter;
    use mathcloud_json::{json, Schema};
    use mathcloud_telemetry::sync::Mutex;

    /// An in-process caller with controllable behaviour.
    struct MockCaller;

    impl ServiceCaller for MockCaller {
        fn call(&self, url: &str, inputs: Object, _: Option<&str>) -> Result<Object, String> {
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
        let outputs = engine(&wf).run(&inputs, None).unwrap();
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
        let outputs = engine(&wf).run(&inputs, None).unwrap();
        let elapsed = t0.elapsed();
        assert_eq!(outputs.get("r"), Some(&json!(20)));
        assert!(
            elapsed < Duration::from_millis(115),
            "not parallel: {elapsed:?}"
        );
    }

    #[test]
    fn block_states_are_pushed_as_events() {
        /// Doubles `x` once the test opens the gate.
        struct Gated(Mutex<mpsc::Receiver<()>>);

        impl ServiceCaller for Gated {
            fn call(&self, _: &str, inputs: Object, _: Option<&str>) -> Result<Object, String> {
                self.0.lock().recv().map_err(|e| e.to_string())?;
                let x = inputs.get("x").and_then(Value::as_i64).unwrap_or(0);
                Ok([("y".to_string(), json!(x * 2))].into_iter().collect())
            }
        }

        const RID: &str = "block-states-pushed";
        let wf = Workflow::new("w", "")
            .input("x", Schema::integer())
            .service("d1", "mock://slow-double")
            .output("r", Schema::integer())
            .wire(("x", "value"), ("d1", "x"))
            .wire(("d1", "y"), ("r", "value"));
        let (open, gate) = mpsc::channel();
        let engine = Engine::with_caller(
            validate(&wf, &descriptions()).unwrap(),
            Gated(Mutex::new(gate)),
        );
        let events =
            mathcloud_events::global().subscribe(KindFilter::parse("workflow.block."), 1 << 10);
        // The kind of the next event of this run about block `d1`.
        let next_for_d1 = || loop {
            let ev = events
                .recv_timeout(Duration::from_secs(5))
                .expect("an event");
            let block = ev.payload.get("block").and_then(Value::as_str);
            if ev.request_id.as_deref() == Some(RID) && block == Some("d1") {
                return ev.kind.clone();
            }
        };
        let inputs: Object = [("x".to_string(), json!(1))].into_iter().collect();
        std::thread::scope(|scope| {
            let run = scope.spawn(|| engine.run(&inputs, Some(RID)));
            // The caller cannot return before this event is seen.
            assert_eq!(next_for_d1(), "workflow.block.running");
            open.send(()).unwrap();
            assert_eq!(next_for_d1(), "workflow.block.done");
            let outputs = run.join().unwrap().unwrap();
            assert_eq!(outputs.get("r"), Some(&json!(2)));
        });
    }

    #[test]
    fn a_panicking_block_fails_the_run_naming_it() {
        struct Panicking;

        impl ServiceCaller for Panicking {
            fn call(&self, _: &str, _: Object, _: Option<&str>) -> Result<Object, String> {
                panic!("the caller broke")
            }
        }

        let wf = Workflow::new("w", "")
            .input("x", Schema::integer())
            .service("boom", "mock://fail")
            .output("r", Schema::any())
            .wire(("x", "value"), ("boom", "x"))
            .wire(("boom", "y"), ("r", "value"));
        let engine = Engine::with_caller(validate(&wf, &descriptions()).unwrap(), Panicking);
        let inputs: Object = [("x".to_string(), json!(1))].into_iter().collect();
        // On a thread of its own, so a run that never ends fails the test
        // instead of hanging it.
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(engine.run(&inputs, None)));
        let outcome = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the run ends within 5 s");
        match outcome {
            Err(EngineError::BlockFailed { block, reason }) => {
                assert_eq!(block, "boom");
                assert!(reason.contains("panicked"), "{reason}");
                assert!(reason.contains("the caller broke"), "{reason}");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
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
        let err = engine(&wf).run(&inputs, None).unwrap_err();
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
        let err = engine(&wf).run(&Object::new(), None).unwrap_err();
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
        let err = engine(&wf).run(&inputs, None).unwrap_err();
        assert!(matches!(err, EngineError::BlockFailed { .. }));
    }

    #[test]
    fn run_hands_the_request_id_to_every_service_call() {
        /// Records the request id each `call` receives, then answers like
        /// [`MockCaller`].
        #[derive(Clone)]
        struct RecordingCaller {
            seen: Arc<Mutex<Vec<Option<String>>>>,
        }

        impl ServiceCaller for RecordingCaller {
            fn call(
                &self,
                url: &str,
                inputs: Object,
                request_id: Option<&str>,
            ) -> Result<Object, String> {
                self.seen.lock().push(request_id.map(String::from));
                MockCaller.call(url, inputs, None)
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

        engine.run(&inputs, Some("wf-rid-7")).unwrap();
        assert_eq!(caller.seen.lock().as_slice(), &[Some("wf-rid-7".into())]);

        // Runs without an id still reach the caller, with none attached.
        engine.run(&inputs, None).unwrap();
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
        let outputs = caller.call(&url, inputs, Some("rid-wf-42")).unwrap();
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
        let outputs = engine(&wf).run(&inputs, None).unwrap();
        assert_eq!(outputs.get("r"), Some(&json!(40)));
    }
}
