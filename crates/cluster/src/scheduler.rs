//! The batch system: nodes, queue, FIFO + backfill scheduler.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mathcloud_telemetry::sync::{Condvar, Mutex};

/// A batch job identifier (monotonically increasing, like TORQUE sequence
/// numbers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Batch job states, mirroring TORQUE's `Q`/`R`/`C`/`E` plus cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Queued, waiting for resources.
    Queued,
    /// Executing on a node.
    Running,
    /// Finished successfully.
    Completed,
    /// Finished with an error (including walltime kills).
    Exited,
    /// Removed by `qdel` before completion.
    Cancelled,
}

impl JobState {
    /// Returns `true` for states that will never change again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Exited | JobState::Cancelled
        )
    }
}

/// Cooperative execution context handed to job closures.
#[derive(Debug, Clone)]
pub struct JobContext {
    stop: Arc<AtomicBool>,
}

impl JobContext {
    /// Returns `true` once the job has been cancelled or exceeded its
    /// walltime; long-running loops should poll this.
    pub fn should_stop(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }
}

/// The work function of a batch job.
pub type JobTask = Box<dyn FnOnce(&JobContext) -> Result<String, String> + Send + 'static>;

/// A batch job submission.
pub struct JobSpec {
    name: String,
    cores: usize,
    walltime: Option<Duration>,
    task: JobTask,
}

impl JobSpec {
    /// Creates a job requesting `cores` cores.
    pub fn new<F>(name: &str, cores: usize, task: F) -> Self
    where
        F: FnOnce(&JobContext) -> Result<String, String> + Send + 'static,
    {
        JobSpec {
            name: name.to_string(),
            cores,
            walltime: None,
            task: Box::new(task),
        }
    }

    /// Sets a walltime limit (builder style).
    pub fn walltime(mut self, limit: Duration) -> Self {
        self.walltime = Some(limit);
        self
    }
}

impl fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobSpec")
            .field("name", &self.name)
            .field("cores", &self.cores)
            .field("walltime", &self.walltime)
            .finish()
    }
}

/// A point-in-time view of a job (`qstat` output).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// The job id.
    pub id: JobId,
    /// The submitted name.
    pub name: String,
    /// Current state.
    pub state: JobState,
    /// Node the job ran on (set once scheduled).
    pub node: Option<String>,
    /// Job stdout-equivalent (set when `Completed`).
    pub output: Option<String>,
    /// Failure reason (set when `Exited`).
    pub error: Option<String>,
    /// Wall-clock run time, once finished.
    pub runtime: Option<Duration>,
}

/// Errors from job submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// No node in the cluster has enough cores for this job, ever.
    NeverRunnable {
        /// Cores requested.
        requested: usize,
        /// Largest node size.
        largest_node: usize,
    },
    /// Zero cores requested.
    ZeroCores,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::NeverRunnable {
                requested,
                largest_node,
            } => write!(
                f,
                "job requests {requested} cores but the largest node has {largest_node}"
            ),
            SubmitError::ZeroCores => write!(f, "job requests zero cores"),
        }
    }
}

impl Error for SubmitError {}

/// Aggregate cluster statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterStats {
    /// Total cores across all nodes.
    pub total_cores: usize,
    /// Cores currently allocated to running jobs.
    pub busy_cores: usize,
    /// Jobs waiting in the queue.
    pub queued_jobs: usize,
    /// Jobs currently running.
    pub running_jobs: usize,
    /// Jobs that reached a terminal state.
    pub finished_jobs: usize,
}

struct Node {
    name: String,
    cores: usize,
    used: usize,
}

struct JobRecord {
    name: String,
    cores: usize,
    walltime: Option<Duration>,
    state: JobState,
    node: Option<String>,
    output: Option<String>,
    error: Option<String>,
    started: Option<Instant>,
    runtime: Option<Duration>,
    stop: Arc<AtomicBool>,
    task: Option<JobTask>,
}

struct State {
    nodes: Vec<Node>,
    queue: Vec<JobId>,
    jobs: HashMap<JobId, JobRecord>,
    next_id: u64,
    finished: usize,
}

/// Builder for [`BatchSystem`].
#[derive(Debug)]
pub struct BatchSystemBuilder {
    name: String,
    nodes: Vec<(String, usize)>,
}

impl BatchSystemBuilder {
    /// Adds a node with `cores` cores.
    pub fn node(mut self, name: &str, cores: usize) -> Self {
        self.nodes.push((name.to_string(), cores));
        self
    }

    /// Adds `count` identical nodes named `prefix-<i>`.
    pub fn nodes(mut self, prefix: &str, count: usize, cores: usize) -> Self {
        for i in 0..count {
            self.nodes.push((format!("{prefix}-{i}"), cores));
        }
        self
    }

    /// Builds the batch system.
    ///
    /// # Panics
    ///
    /// Panics if no nodes were added.
    pub fn build(self) -> BatchSystem {
        assert!(!self.nodes.is_empty(), "a cluster needs at least one node");
        BatchSystem {
            inner: Arc::new(Inner {
                name: self.name,
                state: Mutex::new(State {
                    nodes: self
                        .nodes
                        .into_iter()
                        .map(|(name, cores)| Node {
                            name,
                            cores,
                            used: 0,
                        })
                        .collect(),
                    queue: Vec::new(),
                    jobs: HashMap::new(),
                    next_id: 1,
                    finished: 0,
                }),
                changed: Condvar::new(),
            }),
        }
    }
}

struct Inner {
    name: String,
    state: Mutex<State>,
    changed: Condvar,
}

/// The batch resource manager. Cheap to clone (shared state).
#[derive(Clone)]
pub struct BatchSystem {
    inner: Arc<Inner>,
}

impl fmt::Debug for BatchSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("BatchSystem")
            .field("name", &self.inner.name)
            .field("stats", &stats)
            .finish()
    }
}

impl BatchSystem {
    /// Starts building a cluster.
    pub fn builder(name: &str) -> BatchSystemBuilder {
        BatchSystemBuilder {
            name: name.to_string(),
            nodes: Vec::new(),
        }
    }

    /// The cluster name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Submits a job (the `qsub` verb), returning its id immediately.
    ///
    /// # Panics
    ///
    /// Panics when the job can never run; use [`BatchSystem::try_qsub`] to
    /// handle that case.
    pub fn qsub(&self, spec: JobSpec) -> JobId {
        self.try_qsub(spec).expect("job cannot run on this cluster")
    }

    /// Submits a job, validating it against the cluster shape.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] when the request can never be satisfied.
    pub fn try_qsub(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        if spec.cores == 0 {
            return Err(SubmitError::ZeroCores);
        }
        let mut state = self.inner.state.lock();
        let largest = state.nodes.iter().map(|n| n.cores).max().unwrap_or(0);
        if spec.cores > largest {
            return Err(SubmitError::NeverRunnable {
                requested: spec.cores,
                largest_node: largest,
            });
        }
        let id = JobId(state.next_id);
        state.next_id += 1;
        state.jobs.insert(
            id,
            JobRecord {
                name: spec.name,
                cores: spec.cores,
                walltime: spec.walltime,
                state: JobState::Queued,
                node: None,
                output: None,
                error: None,
                started: None,
                runtime: None,
                stop: Arc::new(AtomicBool::new(false)),
                task: Some(spec.task),
            },
        );
        state.queue.push(id);
        self.schedule_locked(&mut state);
        drop(state);
        self.inner.changed.notify_all();
        Ok(id)
    }

    /// Queries a job (the `qstat` verb).
    pub fn qstat(&self, id: JobId) -> Option<JobStatus> {
        let state = self.inner.state.lock();
        state.jobs.get(&id).map(|r| snapshot(id, r))
    }

    /// Cancels a job (the `qdel` verb). Queued jobs are removed immediately;
    /// running jobs get their stop flag raised and report `Cancelled` once
    /// the task observes it.
    ///
    /// Returns `false` for unknown or already-terminal jobs.
    pub fn qdel(&self, id: JobId) -> bool {
        let mut state = self.inner.state.lock();
        let Some(record) = state.jobs.get_mut(&id) else {
            return false;
        };
        match record.state {
            JobState::Queued => {
                record.state = JobState::Cancelled;
                record.task = None;
                state.finished += 1;
                state.queue.retain(|&q| q != id);
                drop(state);
                self.inner.changed.notify_all();
                true
            }
            JobState::Running => {
                record.stop.store(true, Ordering::Relaxed);
                record.state = JobState::Cancelled;
                // Core release happens when the worker thread finishes.
                true
            }
            _ => false,
        }
    }

    /// Blocks until the job reaches a terminal state or `timeout` elapses.
    ///
    /// Returns the final status, or `None` on timeout / unknown id.
    pub fn wait(&self, id: JobId, timeout: Duration) -> Option<JobStatus> {
        let deadline = Instant::now() + timeout;
        let mut state = self.inner.state.lock();
        loop {
            match state.jobs.get(&id) {
                None => return None,
                Some(r) if r.state.is_terminal() => return Some(snapshot(id, r)),
                Some(_) => {}
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            self.inner.changed.wait_for(&mut state, deadline - now);
        }
    }

    /// Aggregate statistics (`pbsnodes`-style view).
    pub fn stats(&self) -> ClusterStats {
        let state = self.inner.state.lock();
        ClusterStats {
            total_cores: state.nodes.iter().map(|n| n.cores).sum(),
            busy_cores: state.nodes.iter().map(|n| n.used).sum(),
            queued_jobs: state.queue.len(),
            running_jobs: state
                .jobs
                .values()
                .filter(|r| r.state == JobState::Running)
                .count(),
            finished_jobs: state.finished,
        }
    }

    /// FIFO + backfill pass: start the queue head if it fits; otherwise let
    /// later jobs that do fit jump ahead (classic EASY-backfill compromise
    /// between utilization and ordering).
    fn schedule_locked(&self, state: &mut State) {
        let mut i = 0;
        let mut head_blocked = false;
        while i < state.queue.len() {
            let id = state.queue[i];
            let cores = state.jobs[&id].cores;
            let node_idx = state.nodes.iter().position(|n| n.cores - n.used >= cores);
            match node_idx {
                Some(idx) => {
                    state.nodes[idx].used += cores;
                    let node_name = state.nodes[idx].name.clone();
                    state.queue.remove(i);
                    let record = state.jobs.get_mut(&id).expect("queued job exists");
                    record.state = JobState::Running;
                    record.node = Some(node_name);
                    record.started = Some(Instant::now());
                    let task = record.task.take().expect("queued job has a task");
                    let ctx = JobContext {
                        stop: Arc::clone(&record.stop),
                    };
                    let walltime = record.walltime;
                    self.spawn_worker(id, cores, idx, task, ctx, walltime);
                }
                None => {
                    if !head_blocked {
                        head_blocked = true;
                    }
                    i += 1;
                }
            }
        }
    }

    fn spawn_worker(
        &self,
        id: JobId,
        cores: usize,
        node_idx: usize,
        task: JobTask,
        ctx: JobContext,
        walltime: Option<Duration>,
    ) {
        let system = self.clone();
        // Walltime watchdog: parked on the condvar the job's own completion
        // signals, so it lives no longer than the job; raises the stop flag
        // and marks the job walltime-killed when the limit passes first.
        if let Some(limit) = walltime {
            let stop = Arc::clone(&ctx.stop);
            let watchdog_system = self.clone();
            std::thread::spawn(move || {
                let deadline = Instant::now() + limit;
                let inner = &watchdog_system.inner;
                let mut state = inner.state.lock();
                while let Some(JobState::Running) = state.jobs.get(&id).map(|r| r.state) {
                    let now = Instant::now();
                    if now >= deadline {
                        stop.store(true, Ordering::Relaxed);
                        let r = state.jobs.get_mut(&id).expect("checked above");
                        r.state = JobState::Exited;
                        r.error = Some("walltime exceeded".to_string());
                        return;
                    }
                    inner.changed.wait_for(&mut state, deadline - now);
                }
            });
        }
        std::thread::spawn(move || {
            let started = Instant::now();
            let result = (task)(&ctx);
            let mut state = system.inner.state.lock();
            {
                let record = state.jobs.get_mut(&id).expect("running job exists");
                record.runtime = Some(started.elapsed());
                match record.state {
                    JobState::Cancelled | JobState::Exited => {
                        // qdel or the walltime watchdog already decided the
                        // outcome; keep it.
                    }
                    _ => match result {
                        Ok(output) => {
                            record.state = JobState::Completed;
                            record.output = Some(output);
                        }
                        Err(error) => {
                            record.state = JobState::Exited;
                            record.error = Some(error);
                        }
                    },
                }
            }
            state.finished += 1;
            state.nodes[node_idx].used -= cores;
            system.schedule_locked(&mut state);
            drop(state);
            system.inner.changed.notify_all();
        });
    }
}

fn snapshot(id: JobId, r: &JobRecord) -> JobStatus {
    JobStatus {
        id,
        name: r.name.clone(),
        state: r.state,
        node: r.node.clone(),
        output: r.output.clone(),
        error: r.error.clone(),
        runtime: r.runtime,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn small_cluster() -> BatchSystem {
        BatchSystem::builder("test")
            .node("n1", 2)
            .node("n2", 2)
            .build()
    }

    #[test]
    fn jobs_run_and_return_output() {
        let c = small_cluster();
        let id = c.qsub(JobSpec::new("ok", 1, |_| Ok("42".into())));
        let st = c.wait(id, Duration::from_secs(5)).unwrap();
        assert_eq!(st.state, JobState::Completed);
        assert_eq!(st.output.as_deref(), Some("42"));
        assert!(st.node.is_some());
        assert!(st.runtime.is_some());
    }

    #[test]
    fn failing_jobs_exit_with_error() {
        let c = small_cluster();
        let id = c.qsub(JobSpec::new("bad", 1, |_| Err("boom".into())));
        let st = c.wait(id, Duration::from_secs(5)).unwrap();
        assert_eq!(st.state, JobState::Exited);
        assert_eq!(st.error.as_deref(), Some("boom"));
    }

    #[test]
    fn oversized_jobs_are_rejected_at_submit() {
        let c = small_cluster();
        let err = c
            .try_qsub(JobSpec::new("huge", 3, |_| Ok(String::new())))
            .unwrap_err();
        assert_eq!(
            err,
            SubmitError::NeverRunnable {
                requested: 3,
                largest_node: 2
            }
        );
        let err = c
            .try_qsub(JobSpec::new("zero", 0, |_| Ok(String::new())))
            .unwrap_err();
        assert_eq!(err, SubmitError::ZeroCores);
    }

    #[test]
    fn core_accounting_limits_concurrency() {
        let c = BatchSystem::builder("tiny").node("n1", 2).build();
        let concurrent = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let ids: Vec<JobId> = (0..6)
            .map(|i| {
                let concurrent = Arc::clone(&concurrent);
                let peak = Arc::clone(&peak);
                c.qsub(JobSpec::new(&format!("j{i}"), 1, move |_| {
                    let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(30));
                    concurrent.fetch_sub(1, Ordering::SeqCst);
                    Ok(String::new())
                }))
            })
            .collect();
        for id in ids {
            assert_eq!(
                c.wait(id, Duration::from_secs(10)).unwrap().state,
                JobState::Completed
            );
        }
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "peak={}",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn backfill_lets_small_jobs_pass_a_blocked_head() {
        let c = BatchSystem::builder("bf").node("n1", 2).build();
        // Occupy both cores.
        let blocker = c.qsub(JobSpec::new("blocker", 2, |_| {
            std::thread::sleep(Duration::from_millis(100));
            Ok(String::new())
        }));
        std::thread::sleep(Duration::from_millis(20));
        // Head of queue needs 2 cores (can't run yet); a later 1-core job
        // also can't start since 0 cores are free — but once the blocker
        // finishes, both should run. Backfill correctness is observable when
        // one core frees up: submit a 2-core then a 1-core job while one
        // core stays busy.
        let long = c.qsub(JobSpec::new("long-1core", 1, |_| {
            std::thread::sleep(Duration::from_millis(150));
            Ok(String::new())
        }));
        let wide = c.qsub(JobSpec::new("wide-2core", 2, |_| Ok(String::new())));
        let small = c.qsub(JobSpec::new("small-1core", 1, |_| Ok("backfilled".into())));
        // After the blocker completes: long(1) starts, wide(2) blocked,
        // small(1) backfills into the remaining core.
        let small_st = c.wait(small, Duration::from_secs(5)).unwrap();
        assert_eq!(small_st.state, JobState::Completed);
        let wide_st = c.qstat(wide).unwrap();
        assert_ne!(
            wide_st.state,
            JobState::Completed,
            "wide should still be waiting on cores"
        );
        for id in [blocker, long, wide] {
            assert_eq!(
                c.wait(id, Duration::from_secs(10)).unwrap().state,
                JobState::Completed
            );
        }
    }

    #[test]
    fn qdel_cancels_queued_and_running_jobs() {
        let c = BatchSystem::builder("c").node("n1", 1).build();
        let running = c.qsub(JobSpec::new("running", 1, |ctx| {
            while !ctx.should_stop() {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err("stopped".into())
        }));
        std::thread::sleep(Duration::from_millis(20));
        let queued = c.qsub(JobSpec::new("queued", 1, |_| Ok(String::new())));
        assert!(c.qdel(queued));
        assert_eq!(c.qstat(queued).unwrap().state, JobState::Cancelled);
        assert!(c.qdel(running));
        let st = c.wait(running, Duration::from_secs(5)).unwrap();
        assert_eq!(st.state, JobState::Cancelled);
        assert!(!c.qdel(running), "terminal jobs cannot be cancelled again");
        assert!(!c.qdel(JobId(9999)));
    }

    #[test]
    fn walltime_exceeded_jobs_are_killed() {
        let c = BatchSystem::builder("c").node("n1", 1).build();
        let id = c.qsub(
            JobSpec::new("looper", 1, |ctx| {
                while !ctx.should_stop() {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok("stopped politely".into())
            })
            .walltime(Duration::from_millis(50)),
        );
        let st = c.wait(id, Duration::from_secs(5)).unwrap();
        assert_eq!(st.state, JobState::Exited);
        assert_eq!(st.error.as_deref(), Some("walltime exceeded"));
    }

    #[test]
    fn stats_reflect_cluster_activity() {
        let c = small_cluster();
        assert_eq!(c.stats().total_cores, 4);
        assert_eq!(c.stats().busy_cores, 0);
        let id = c.qsub(JobSpec::new("busy", 2, |_| {
            std::thread::sleep(Duration::from_millis(80));
            Ok(String::new())
        }));
        std::thread::sleep(Duration::from_millis(20));
        let mid = c.stats();
        assert_eq!(mid.busy_cores, 2);
        assert_eq!(mid.running_jobs, 1);
        c.wait(id, Duration::from_secs(5)).unwrap();
        let end = c.stats();
        assert_eq!(end.busy_cores, 0);
        assert_eq!(end.finished_jobs, 1);
    }

    #[test]
    fn wait_times_out_and_handles_unknown_ids() {
        let c = small_cluster();
        assert!(c.wait(JobId(777), Duration::from_millis(20)).is_none());
        let id = c.qsub(JobSpec::new("slow", 1, |_| {
            std::thread::sleep(Duration::from_millis(200));
            Ok(String::new())
        }));
        assert!(c.wait(id, Duration::from_millis(10)).is_none(), "too early");
        assert!(c.wait(id, Duration::from_secs(5)).is_some());
    }

    #[test]
    fn fifo_order_without_contention() {
        let c = BatchSystem::builder("c").node("n1", 1).build();
        let order = Arc::new(Mutex::new(Vec::new()));
        let ids: Vec<JobId> = (0..5)
            .map(|i| {
                let order = Arc::clone(&order);
                c.qsub(JobSpec::new(&format!("j{i}"), 1, move |_| {
                    order.lock().push(i);
                    Ok(String::new())
                }))
            })
            .collect();
        for id in ids {
            c.wait(id, Duration::from_secs(5)).unwrap();
        }
        assert_eq!(*order.lock(), vec![0, 1, 2, 3, 4]);
    }
}
