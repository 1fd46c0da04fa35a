//! The Job Manager's handler pool: the [`WorkPool`] jobs wait in and run on,
//! and the task that takes one `WAITING → RUNNING → DONE | FAILED`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mathcloud_core::JobState;
use mathcloud_telemetry::{metrics, Gauge, PoolStatus, WorkPool};

use crate::adapter::AdapterContext;
use crate::container::{run_seconds, Everest, Shared};
use crate::jobs::JobKey;
use crate::jobstore::{TransitionDetail, TransitionState};

/// How long a handler parks before retiring; far past any gap between the
/// jobs of one campaign, so a job after a pause never waits for a thread to
/// start.
const HANDLER_IDLE_TTL: Duration = Duration::from_secs(60);

/// The handle every `Everest` clone shares: the handler pool (`handlers`
/// lazily started threads named `mc-job-<label>-N`) and the two
/// `mc_pool_*{container}` gauges that follow its load (`mc_pool_workers` is
/// set once, when it is built). Dropping the last one closes
/// the job table, so its confirmer thread leaves, and then drops the pool.
pub(crate) struct JobSender {
    handlers: WorkPool,
    shared: Arc<Shared>,
    depth: Gauge,
    busy_workers: Gauge,
}

impl Drop for JobSender {
    fn drop(&mut self) {
        self.shared.jobs.close();
    }
}

impl JobSender {
    pub(crate) fn new(shared: &Arc<Shared>, handlers: usize) -> Arc<JobSender> {
        let reg = metrics::global();
        reg.describe(
            "mc_pool_queue_depth",
            "jobs waiting in the handler-pool queue",
        );
        reg.describe(
            "mc_pool_busy_workers",
            "handler threads currently running a job",
        );
        reg.describe("mc_pool_workers", "size of the handler thread pool");
        let container = [("container", shared.label.as_str())];
        reg.gauge("mc_pool_workers", &container)
            .set(handlers as i64);
        Arc::new(JobSender {
            handlers: WorkPool::new(
                &format!("mc-job-{}", shared.label),
                handlers,
                HANDLER_IDLE_TTL,
            ),
            shared: Arc::clone(shared),
            depth: reg.gauge("mc_pool_queue_depth", &container),
            busy_workers: reg.gauge("mc_pool_busy_workers", &container),
        })
    }

    /// Hands a `WAITING` job to the pool.
    pub(crate) fn push(&self, (service, job): JobKey) {
        let shared = Arc::clone(&self.shared);
        let (depth, busy) = (self.depth.clone(), self.busy_workers.clone());
        self.depth.add(1);
        self.handlers.spawn(move || {
            depth.sub(1);
            busy.add(1);
            run_job(&shared, &service, &job);
            busy.sub(1);
        });
    }
}

impl Everest {
    /// The handler-pool size, fixed when the container is built
    /// ([`Everest::with_handlers`]): live handler threads never exceed it.
    pub fn pool_workers(&self) -> usize {
        self.pool_status().workers
    }

    /// The handler pool's load right now: its size, the handlers inside a
    /// job and the jobs queued behind them.
    pub fn pool_status(&self) -> PoolStatus {
        self.pool.handlers.status()
    }
}

/// Spawns the thread that sees to disk the records nobody waits for — a
/// `RUNNING` record while its job runs, recovery's `meta` line
/// ([`crate::jobs::JobTable::confirm_unwaited`]); it leaves when the last
/// `Everest` clone closes the job table ([`JobSender`]).
pub(crate) fn spawn_confirmer(shared: Arc<Shared>) {
    std::thread::Builder::new()
        .name("mc-confirmer".to_string())
        .spawn(move || {
            let mut seen = 0;
            while let Some(pos) = shared.jobs.confirm_unwaited(seen) {
                seen = pos;
            }
        })
        .expect("spawn journal confirmer");
}

fn run_job(shared: &Arc<Shared>, service: &str, job_id: &str) {
    let (jobs, to) = (&shared.jobs, TransitionState::Job(JobState::Running));
    let Some(mut running) = jobs.transition(service, job_id, to, Default::default(), None) else {
        return; // deleted before starting, or cancelled while queued
    };
    let (inputs, cancel, request_id) = running.run.take().expect("the RUNNING edge carries it");
    running.settle(shared);
    let entry = shared.find(service);
    let started = Instant::now();
    let result = match &entry {
        Some(entry) => {
            let ctx = AdapterContext::new(service, job_id, Arc::clone(&shared.files), cancel)
                .with_request_id(request_id);
            // A buggy adapter must fail its own job, not kill the handler
            // thread serving every other job.
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                entry.adapter.execute(&inputs, &ctx)
            }))
            .unwrap_or_else(|panic| {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "adapter panicked".to_string());
                Err(format!("adapter panicked: {msg}"))
            })
        }
        None => Err(format!("service {service} was undeployed")),
    };
    let elapsed = started.elapsed();
    let runtime_ms = elapsed.as_millis() as u64;
    entry
        .map_or_else(
            || run_seconds(&shared.label, "none"),
            |e| e.run_seconds.clone(),
        )
        .observe_duration(elapsed);

    let (state, outputs, error) = match result {
        Ok(outputs) => (JobState::Done, Some(outputs), None),
        Err(error) => (JobState::Failed, None, Some(error)),
    };
    let detail = TransitionDetail {
        error: error.as_deref(),
        runtime_ms: Some(runtime_ms),
        ..Default::default()
    };
    let to = TransitionState::Job(state);
    // `None`: cancelled while running. The CANCELLED state stays, the
    // result is dropped.
    if let Some(finished) = shared.jobs.transition(service, job_id, to, detail, outputs) {
        finished.settle(shared);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::NativeAdapter;
    use mathcloud_core::{Parameter, ServiceDescription};
    use mathcloud_json::value::Object;
    use mathcloud_json::{json, Schema, Value};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    /// A service whose jobs park until the test releases them, for pinning
    /// workers at a known busy count.
    fn gated_container(workers: usize) -> (Everest, Arc<AtomicBool>) {
        let gate = Arc::new(AtomicBool::new(false));
        let e = Everest::with_handlers("t-gated", workers);
        let g = Arc::clone(&gate);
        e.deploy(
            ServiceDescription::new("hold", "waits for the gate"),
            NativeAdapter::from_fn(move |_, ctx| {
                while !g.load(Ordering::Relaxed) && !ctx.is_cancelled() {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(Object::new())
            }),
        );
        (e, gate)
    }

    #[test]
    fn pool_status_reports_live_load() {
        let (e, gate) = gated_container(2);
        let idle = e.pool_status();
        assert_eq!(idle.workers, 2);
        assert_eq!(idle.busy, 0, "unsaturated: no handler busy");
        assert_eq!(idle.queue_depth, 0);

        for _ in 0..3 {
            e.submit_and_wait("hold", json!({}), None, None, None, None)
                .unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while e.pool_status().busy < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let loaded = e.pool_status();
        assert_eq!(loaded.busy, 2, "both workers pinned");
        assert_eq!(loaded.queue_depth, 1, "third job queued");
        assert_eq!(loaded.busy, loaded.workers, "saturated: every handler busy");
        gate.store(true, Ordering::Relaxed);
    }

    #[test]
    fn concurrent_jobs_respect_handler_pool() {
        let e = Everest::with_handlers("t", 4);
        e.deploy(
            ServiceDescription::new("sleep", "naps").input(Parameter::new("ms", Schema::integer())),
            NativeAdapter::from_fn(|inputs, _| {
                let ms = inputs.get("ms").and_then(Value::as_i64).unwrap_or(0) as u64;
                std::thread::sleep(Duration::from_millis(ms));
                Ok(Object::new())
            }),
        );
        let t0 = Instant::now();
        let reps: Vec<_> = (0..4)
            .map(|_| {
                e.submit_and_wait("sleep", json!({"ms": 100}), None, None, None, None)
                    .unwrap()
                    .rep
            })
            .collect();
        for rep in &reps {
            assert_eq!(
                e.wait("sleep", rep.id.as_str(), Duration::from_secs(5))
                    .unwrap()
                    .state,
                JobState::Done
            );
        }
        // 4 jobs × 100 ms on 4 handlers should take ~100 ms, not ~400.
        assert!(
            t0.elapsed() < Duration::from_millis(350),
            "{:?}",
            t0.elapsed()
        );
        assert_eq!(e.stats().completed, 4);
    }
}
