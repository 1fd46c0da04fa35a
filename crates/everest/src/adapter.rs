//! Pluggable adapters: the components that actually execute service requests.

use std::fmt;
use std::process::Stdio;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mathcloud_cluster::{BatchSystem, JobContext, JobId, JobSpec, JobState};
use mathcloud_core::FileRef;
use mathcloud_grid::{ProxyCredential, ResourceBroker};
use mathcloud_http::Client;
use mathcloud_json::value::Object;
use mathcloud_json::Value;

use crate::filestore::FileStore;

/// Runtime services an adapter may use during job execution.
pub struct AdapterContext {
    service: String,
    job: String,
    files: Arc<FileStore>,
    cancelled: Arc<AtomicBool>,
    client: Client,
    request_id: Option<String>,
}

impl AdapterContext {
    pub(crate) fn new(
        service: &str,
        job: &str,
        files: Arc<FileStore>,
        cancelled: Arc<AtomicBool>,
    ) -> Self {
        AdapterContext {
            service: service.to_string(),
            job: job.to_string(),
            files,
            cancelled,
            client: Client::new(),
            request_id: None,
        }
    }

    /// Attach the originating request id; outbound calls made through the
    /// context's HTTP client then carry `X-MC-Request-Id` downstream.
    pub(crate) fn with_request_id(mut self, request_id: Option<String>) -> Self {
        if let Some(rid) = &request_id {
            self.client = self
                .client
                .with_default_header(mathcloud_telemetry::REQUEST_ID_HEADER, rid);
        }
        self.request_id = request_id;
        self
    }

    /// The request id that accompanied the job's submission, if any.
    pub fn request_id(&self) -> Option<&str> {
        self.request_id.as_deref()
    }

    /// The service this job belongs to.
    pub fn service(&self) -> &str {
        &self.service
    }

    /// The job id.
    pub fn job(&self) -> &str {
        &self.job
    }

    /// Returns `true` once the client has cancelled the job; long-running
    /// adapters should poll this.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Resolves a parameter value to bytes, staging data as needed:
    ///
    /// * `mc-file:<id>` — read from this job's file store,
    /// * `http://…` — fetched over HTTP (remote input staging, the
    ///   improvement the paper credits to Opal2),
    /// * any other string — the inline value itself.
    ///
    /// # Errors
    ///
    /// Describes the failing reference on staging errors.
    pub fn read_data(&self, value: &Value) -> Result<Vec<u8>, String> {
        match FileRef::detect(value) {
            Some(FileRef::Local(id)) => self
                .files
                .get(&self.service, &self.job, &id)
                .ok_or_else(|| format!("no such file: mc-file:{id}")),
            Some(FileRef::Remote(url)) => {
                let resp = self
                    .client
                    .get(&url)
                    .map_err(|e| format!("failed to stage {url}: {e}"))?;
                if !resp.status.is_success() {
                    return Err(format!("failed to stage {url}: {}", resp.status));
                }
                Ok(resp.body)
            }
            None => match value.as_str() {
                Some(s) => Ok(s.as_bytes().to_vec()),
                None => Ok(value.to_string().into_bytes()),
            },
        }
    }

    /// Stores result bytes as a job file, returning the `mc-file:` reference
    /// to put in an output parameter.
    pub fn store_file(&self, data: Vec<u8>) -> Value {
        let id = self.files.put(&self.service, &self.job, data);
        FileRef::local(&id).to_value()
    }
}

impl fmt::Debug for AdapterContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdapterContext")
            .field("service", &self.service)
            .field("job", &self.job)
            .finish()
    }
}

/// A request processor: converts validated inputs into outputs.
///
/// Implementations must be thread-safe; the Job Manager invokes them from
/// its handler pool.
pub trait Adapter: Send + Sync {
    /// Executes one job.
    ///
    /// # Errors
    ///
    /// A human-readable failure reason, surfaced in the job's `error` field.
    fn execute(&self, inputs: &Object, ctx: &AdapterContext) -> Result<Object, String>;

    /// A short kind label for diagnostics (`"command"`, `"native"`, …).
    fn kind(&self) -> &'static str {
        "custom"
    }
}

/// The function type wrapped by [`NativeAdapter`].
pub type NativeFn = Box<dyn Fn(&Object, &AdapterContext) -> Result<Object, String> + Send + Sync>;

/// The Java-adapter analogue: invokes an in-process function.
///
/// # Examples
///
/// ```
/// use mathcloud_everest::adapter::{Adapter, NativeAdapter};
/// use mathcloud_json::json;
///
/// let a = NativeAdapter::from_fn(|inputs, _ctx| {
///     let x = inputs.get("x").and_then(|v| v.as_i64()).unwrap_or(0);
///     Ok([("y".to_string(), json!(x * 2))].into_iter().collect())
/// });
/// assert_eq!(a.kind(), "native");
/// ```
pub struct NativeAdapter {
    f: NativeFn,
}

impl NativeAdapter {
    /// Wraps a function as an adapter.
    pub fn from_fn<F>(f: F) -> Self
    where
        F: Fn(&Object, &AdapterContext) -> Result<Object, String> + Send + Sync + 'static,
    {
        NativeAdapter { f: Box::new(f) }
    }
}

impl Adapter for NativeAdapter {
    fn execute(&self, inputs: &Object, ctx: &AdapterContext) -> Result<Object, String> {
        (self.f)(inputs, ctx)
    }

    fn kind(&self) -> &'static str {
        "native"
    }
}

impl fmt::Debug for NativeAdapter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("NativeAdapter")
    }
}

/// Runs an external program, mapping service parameters to command-line
/// arguments, stdin and stdout — the paper's config-only publication path.
///
/// Argument templates may reference inputs as `{name}`; the template `{name}`
/// is replaced by the parameter's string form. The process's stdout becomes
/// the output parameter named by `stdout_output`; a parameter named by
/// `stdin_input` (if set) is staged and piped to stdin.
#[derive(Debug, Clone)]
pub struct CommandAdapter {
    program: String,
    args: Vec<String>,
    stdin_input: Option<String>,
    stdout_output: String,
    timeout: Option<Duration>,
}

impl CommandAdapter {
    /// Creates an adapter running `program` with argument templates `args`.
    pub fn new(program: &str, args: &[&str]) -> Self {
        CommandAdapter {
            program: program.to_string(),
            args: args.iter().map(|a| a.to_string()).collect(),
            stdin_input: None,
            stdout_output: "stdout".to_string(),
            timeout: None,
        }
    }

    /// Pipes the named input parameter to the program's stdin (builder
    /// style).
    pub fn stdin_from(mut self, input: &str) -> Self {
        self.stdin_input = Some(input.to_string());
        self
    }

    /// Names the output parameter receiving stdout (builder style); default
    /// `"stdout"`.
    pub fn stdout_to(mut self, output: &str) -> Self {
        self.stdout_output = output.to_string();
        self
    }

    /// Kills the process after `limit` (builder style).
    pub fn timeout(mut self, limit: Duration) -> Self {
        self.timeout = Some(limit);
        self
    }

    fn render_arg(template: &str, inputs: &Object) -> String {
        let mut out = template.to_string();
        for (name, value) in inputs.iter() {
            let pattern = format!("{{{name}}}");
            if out.contains(&pattern) {
                let rendered = match value.as_str() {
                    Some(s) => s.to_string(),
                    None => value.to_string(),
                };
                out = out.replace(&pattern, &rendered);
            }
        }
        out
    }
}

impl Adapter for CommandAdapter {
    fn execute(&self, inputs: &Object, ctx: &AdapterContext) -> Result<Object, String> {
        use std::io::Write;

        let args: Vec<String> = self
            .args
            .iter()
            .map(|a| Self::render_arg(a, inputs))
            .collect();
        let mut cmd = std::process::Command::new(&self.program);
        cmd.args(&args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("failed to start {:?}: {e}", self.program))?;

        if let Some(param) = &self.stdin_input {
            let data = match inputs.get(param) {
                Some(v) => ctx.read_data(v)?,
                None => Vec::new(),
            };
            if let Some(mut stdin) = child.stdin.take() {
                stdin
                    .write_all(&data)
                    .map_err(|e| format!("failed to write stdin: {e}"))?;
            }
        } else {
            drop(child.stdin.take());
        }

        // Poll for completion so cancellation and timeouts can kill the
        // process, as TORQUE would on qdel.
        let started = std::time::Instant::now();
        loop {
            match child.try_wait().map_err(|e| format!("wait failed: {e}"))? {
                Some(_status) => break,
                None => {
                    let timed_out = self.timeout.is_some_and(|t| started.elapsed() > t);
                    if ctx.is_cancelled() || timed_out {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(if timed_out {
                            "command timed out".to_string()
                        } else {
                            "cancelled".to_string()
                        });
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
        let output = child
            .wait_with_output()
            .map_err(|e| format!("failed to collect output: {e}"))?;
        if !output.status.success() {
            let stderr = String::from_utf8_lossy(&output.stderr);
            return Err(format!(
                "command exited with {}: {}",
                output.status,
                stderr.trim()
            ));
        }
        let stdout = String::from_utf8_lossy(&output.stdout)
            .trim_end()
            .to_string();
        let mut outputs = Object::new();
        outputs.insert(self.stdout_output.clone(), Value::from(stdout));
        Ok(outputs)
    }

    fn kind(&self) -> &'static str {
        "command"
    }
}

/// The task function used by cluster and grid adapters.
pub type ComputeFn = Arc<dyn Fn(&Object, &JobContext) -> Result<Object, String> + Send + Sync>;

/// Runs `task` as one batch job: `place` submits the job and names the batch
/// system it landed on, which is waited on with a client cancel passed on as
/// `qdel`; the job's output is parsed back into outputs.
fn run_batch_job<'a>(
    task: &ComputeFn,
    cores: usize,
    walltime: Option<Duration>,
    inputs: &Object,
    ctx: &AdapterContext,
    place: impl FnOnce(JobSpec) -> Result<(&'a BatchSystem, JobId), String>,
) -> Result<Object, String> {
    let task = Arc::clone(task);
    let inputs = inputs.clone();
    let name = format!("{}-{}", ctx.service(), ctx.job());
    let mut spec = JobSpec::new(&name, cores, move |jctx| {
        let outputs = task(&inputs, jctx)?;
        Ok(Value::Object(outputs).to_string())
    });
    if let Some(w) = walltime {
        spec = spec.walltime(w);
    }
    let (site, id) = place(spec)?;
    loop {
        if let Some(st) = site.wait(id, Duration::from_millis(50)) {
            return match st.state {
                JobState::Completed => {
                    let text = st.output.unwrap_or_default();
                    let v = mathcloud_json::parse(&text)
                        .map_err(|e| format!("bad adapter output: {e}"))?;
                    v.as_object()
                        .cloned()
                        .ok_or_else(|| "adapter output must be an object".to_string())
                }
                JobState::Cancelled => Err("cancelled".to_string()),
                _ => Err(st.error.unwrap_or_else(|| "batch job failed".to_string())),
            };
        }
        // `wait` returns `None` both on timeout and for unknown jobs; if
        // the record vanished, looping again would spin forever.
        if site.qstat(id).is_none() {
            return Err(format!("batch job {id} disappeared from the queue"));
        }
        if ctx.is_cancelled() {
            site.qdel(id);
        }
    }
}

/// Translates service requests into batch jobs on a TORQUE-like cluster.
pub struct ClusterAdapter {
    cluster: BatchSystem,
    cores: usize,
    walltime: Option<Duration>,
    task: ComputeFn,
}

impl ClusterAdapter {
    /// Creates an adapter submitting `cores`-core jobs running `task`.
    pub fn new<F>(cluster: BatchSystem, cores: usize, task: F) -> Self
    where
        F: Fn(&Object, &JobContext) -> Result<Object, String> + Send + Sync + 'static,
    {
        ClusterAdapter {
            cluster,
            cores,
            walltime: None,
            task: Arc::new(task),
        }
    }

    /// Sets the batch walltime limit (builder style).
    pub fn walltime(mut self, limit: Duration) -> Self {
        self.walltime = Some(limit);
        self
    }
}

impl Adapter for ClusterAdapter {
    fn execute(&self, inputs: &Object, ctx: &AdapterContext) -> Result<Object, String> {
        run_batch_job(&self.task, self.cores, self.walltime, inputs, ctx, |spec| {
            let id = self
                .cluster
                .try_qsub(spec)
                .map_err(|e| format!("cluster rejected job: {e}"))?;
            Ok((&self.cluster, id))
        })
    }

    fn kind(&self) -> &'static str {
        "cluster"
    }
}

impl fmt::Debug for ClusterAdapter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterAdapter")
            .field("cores", &self.cores)
            .finish()
    }
}

/// Translates service requests into grid jobs: a gLite-like broker places
/// each one on a site, whose batch system then runs it.
pub struct GridAdapter {
    broker: ResourceBroker,
    proxy: ProxyCredential,
    cores: usize,
    task: ComputeFn,
}

impl GridAdapter {
    /// Creates an adapter submitting through `broker` under `proxy`.
    pub fn new<F>(broker: ResourceBroker, proxy: ProxyCredential, cores: usize, task: F) -> Self
    where
        F: Fn(&Object, &JobContext) -> Result<Object, String> + Send + Sync + 'static,
    {
        GridAdapter {
            broker,
            proxy,
            cores,
            task: Arc::new(task),
        }
    }
}

impl Adapter for GridAdapter {
    fn execute(&self, inputs: &Object, ctx: &AdapterContext) -> Result<Object, String> {
        run_batch_job(&self.task, self.cores, None, inputs, ctx, |spec| {
            let (ce, id) = self
                .broker
                .submit(&self.proxy, spec)
                .map_err(|e| format!("grid submission failed: {e}"))?;
            Ok((ce.batch_system(), id))
        })
    }

    fn kind(&self) -> &'static str {
        "grid"
    }
}

impl fmt::Debug for GridAdapter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GridAdapter")
            .field("cores", &self.cores)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathcloud_json::json;

    fn ctx() -> AdapterContext {
        AdapterContext::new(
            "svc",
            "j-1",
            Arc::new(FileStore::new()),
            Arc::new(AtomicBool::new(false)),
        )
    }

    fn obj(pairs: &[(&str, Value)]) -> Object {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    #[test]
    fn native_adapter_runs_function() {
        let a = NativeAdapter::from_fn(|inputs, _| {
            let x = inputs.get("x").and_then(Value::as_i64).unwrap_or(0);
            Ok(obj(&[("y", json!(x + 1))]))
        });
        let out = a.execute(&obj(&[("x", json!(41))]), &ctx()).unwrap();
        assert_eq!(out.get("y").unwrap().as_i64(), Some(42));
    }

    #[test]
    fn command_adapter_substitutes_args_and_captures_stdout() {
        let a = CommandAdapter::new("/bin/echo", &["{greeting}", "{name}"]).stdout_to("line");
        let out = a
            .execute(
                &obj(&[("greeting", json!("hello")), ("name", json!("world"))]),
                &ctx(),
            )
            .unwrap();
        assert_eq!(out.get("line").unwrap().as_str(), Some("hello world"));
    }

    #[test]
    fn command_adapter_pipes_stdin() {
        let a = CommandAdapter::new("/bin/cat", &[])
            .stdin_from("data")
            .stdout_to("copy");
        let out = a
            .execute(&obj(&[("data", json!("matrix rows"))]), &ctx())
            .unwrap();
        assert_eq!(out.get("copy").unwrap().as_str(), Some("matrix rows"));
    }

    #[test]
    fn command_adapter_reports_failures() {
        let a = CommandAdapter::new("/bin/false", &[]);
        let err = a.execute(&Object::new(), &ctx()).unwrap_err();
        assert!(err.contains("exited with"), "{err}");
        let a = CommandAdapter::new("/no/such/binary", &[]);
        assert!(a.execute(&Object::new(), &ctx()).is_err());
    }

    #[test]
    fn command_adapter_timeout_kills_process() {
        let a = CommandAdapter::new("/bin/sleep", &["5"]).timeout(Duration::from_millis(60));
        let t0 = std::time::Instant::now();
        let err = a.execute(&Object::new(), &ctx()).unwrap_err();
        assert!(err.contains("timed out"), "{err}");
        assert!(t0.elapsed() < Duration::from_secs(3));
    }

    #[test]
    fn context_resolves_local_files_and_inline_values() {
        let files = Arc::new(FileStore::new());
        let id = files.put("svc", "j-1", b"stored".to_vec());
        let ctx = AdapterContext::new("svc", "j-1", files, Arc::new(AtomicBool::new(false)));
        assert_eq!(
            ctx.read_data(&json!(format!("mc-file:{id}"))).unwrap(),
            b"stored"
        );
        assert_eq!(ctx.read_data(&json!("inline")).unwrap(), b"inline");
        assert_eq!(ctx.read_data(&json!(5)).unwrap(), b"5");
        assert!(ctx.read_data(&json!("mc-file:nope")).is_err());
    }

    #[test]
    fn context_store_file_round_trips() {
        let files = Arc::new(FileStore::new());
        let ctx = AdapterContext::new(
            "svc",
            "j-1",
            Arc::clone(&files),
            Arc::new(AtomicBool::new(false)),
        );
        let reference = ctx.store_file(b"large result".to_vec());
        assert_eq!(ctx.read_data(&reference).unwrap(), b"large result");
    }

    #[test]
    fn cluster_adapter_runs_via_batch_system() {
        let cluster = mathcloud_cluster::BatchSystem::builder("c")
            .node("n", 2)
            .build();
        let a = ClusterAdapter::new(cluster, 1, |inputs, _| {
            let n = inputs.get("n").and_then(Value::as_i64).unwrap_or(0);
            Ok([("sq".to_string(), json!(n * n))].into_iter().collect())
        });
        let out = a.execute(&obj(&[("n", json!(7))]), &ctx()).unwrap();
        assert_eq!(out.get("sq").unwrap().as_i64(), Some(49));
        assert_eq!(a.kind(), "cluster");
    }

    #[test]
    fn grid_adapter_runs_via_broker() {
        let ce = mathcloud_grid::ComputingElement::new(
            "ce",
            &["vo"],
            mathcloud_cluster::BatchSystem::builder("site")
                .node("wn", 2)
                .build(),
        );
        let broker = mathcloud_grid::ResourceBroker::new(vec![ce]);
        let proxy = mathcloud_grid::ProxyCredential::issue("CN=a", "vo", Duration::from_secs(600));
        let a = GridAdapter::new(broker, proxy, 1, |inputs, _| {
            let n = inputs.get("n").and_then(Value::as_i64).unwrap_or(0);
            Ok([("neg".to_string(), json!(-n))].into_iter().collect())
        });
        let out = a.execute(&obj(&[("n", json!(9))]), &ctx()).unwrap();
        assert_eq!(out.get("neg").unwrap().as_i64(), Some(-9));
    }

    #[test]
    fn grid_adapter_surfaces_broker_errors() {
        let ce = mathcloud_grid::ComputingElement::new(
            "ce",
            &["other-vo"],
            mathcloud_cluster::BatchSystem::builder("site")
                .node("wn", 2)
                .build(),
        );
        let broker = mathcloud_grid::ResourceBroker::new(vec![ce]);
        let proxy = mathcloud_grid::ProxyCredential::issue("CN=a", "vo", Duration::from_secs(600));
        let a = GridAdapter::new(broker, proxy, 1, |_, _| Ok(Object::new()));
        let err = a.execute(&Object::new(), &ctx()).unwrap_err();
        assert!(err.contains("grid submission failed"), "{err}");
    }
}
