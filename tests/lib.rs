//! Integration-test package; see the `tests/` targets.
//!
//! The [`loadgen`] module is the shared deterministic load-test harness used
//! by the `pool_autoscaling` target.

pub mod loadgen {
    //! A deterministic load-test harness for pool autoscaling.
    //!
    //! Real-clock load tests make scaling decisions a function of scheduler
    //! noise. Here job *durations* are virtual: an adapter holds its worker
    //! until a [`MockClock`] reaches a deadline, and the test advances that
    //! clock one tick at a time, sampling the autoscaler in between. The
    //! sequence of pool sizes is then a deterministic function of the
    //! scripted load, while `mc_job_wait_seconds` still accumulates real
    //! wall time (paced uniformly by [`LoadGen::pacing`]) so latency
    //! quantiles remain comparable across scenarios.

    use std::sync::{Arc, Condvar, Mutex};
    use std::time::Duration;

    use mathcloud_core::{Parameter, ServiceDescription};
    use mathcloud_everest::adapter::NativeAdapter;
    use mathcloud_everest::Everest;
    use mathcloud_json::{json, Schema, Value};
    use mathcloud_telemetry::{PoolController, ScaleEvent};

    /// Virtual time: a monotonically increasing tick counter that blocked
    /// jobs wait on.
    pub struct MockClock {
        now: Mutex<u64>,
        changed: Condvar,
    }

    impl MockClock {
        pub fn new() -> Arc<MockClock> {
            Arc::new(MockClock {
                now: Mutex::new(0),
                changed: Condvar::new(),
            })
        }

        /// The current virtual tick.
        pub fn now(&self) -> u64 {
            *self.now.lock().unwrap_or_else(|e| e.into_inner())
        }

        /// Advances virtual time by one tick and wakes every waiter.
        pub fn advance(&self) -> u64 {
            let mut now = self.now.lock().unwrap_or_else(|e| e.into_inner());
            *now += 1;
            self.changed.notify_all();
            *now
        }

        /// Blocks until virtual time reaches `deadline`.
        pub fn wait_until(&self, deadline: u64) {
            let mut now = self.now.lock().unwrap_or_else(|e| e.into_inner());
            while *now < deadline {
                now = self.changed.wait(now).unwrap_or_else(|e| e.into_inner());
            }
        }
    }

    /// Name of the service [`deploy_clocked_service`] publishes.
    pub const SERVICE: &str = "work";

    /// Successful `GET`s recorded so far on the job-status route by the
    /// process-wide registry — the server-side request volume a polling
    /// client generates. Take a reading before and after a scenario and
    /// divide the delta by completed jobs to get requests-per-job, the
    /// poll-vs-push comparison `events_streaming` asserts on.
    pub fn job_status_requests() -> u64 {
        mathcloud_telemetry::metrics::global()
            .counter_value(
                "mc_http_requests_total",
                &[
                    ("route", "/services/{name}/jobs/{id}"),
                    ("method", "GET"),
                    ("status", "200"),
                ],
            )
            .unwrap_or(0)
    }

    /// Deploys a service whose adapter occupies a handler thread for the
    /// job's `ticks` input worth of virtual time — compute time under the
    /// mock clock instead of `thread::sleep`.
    pub fn deploy_clocked_service(e: &Everest, clock: &Arc<MockClock>) {
        let clock = Arc::clone(clock);
        e.deploy(
            ServiceDescription::new(SERVICE, "holds a handler for `ticks` virtual ticks")
                .input(Parameter::new("ticks", Schema::integer()))
                .output(Parameter::new("finished_at", Schema::integer())),
            NativeAdapter::from_fn(move |inputs, _ctx| {
                let ticks = inputs
                    .get("ticks")
                    .and_then(Value::as_i64)
                    .unwrap_or(1)
                    .max(0) as u64;
                let deadline = clock.now() + ticks;
                clock.wait_until(deadline);
                Ok([("finished_at".to_string(), json!(deadline as i64))]
                    .into_iter()
                    .collect())
            }),
        );
    }

    /// Scripted load generation plus the tick driver.
    ///
    /// Open-loop load is a [`LoadGen::burst`] (submit everything up front,
    /// then drive ticks); closed-loop patterns compose [`LoadGen::submit`]
    /// with [`LoadGen::step`] to keep a fixed number of jobs outstanding.
    pub struct LoadGen {
        clock: Arc<MockClock>,
        jobs: Vec<String>,
        /// Wall-clock pause before each autoscaler sample, long enough for
        /// workers to pick up work and park on the clock. Every virtual tick
        /// costs the same wall time, which is what keeps the real-time
        /// `mc_job_wait_seconds` histograms comparable across scenarios.
        pub pacing: Duration,
    }

    impl LoadGen {
        pub fn new(clock: &Arc<MockClock>) -> LoadGen {
            LoadGen {
                clock: Arc::clone(clock),
                jobs: Vec::new(),
                pacing: Duration::from_millis(15),
            }
        }

        /// Submits one job occupying a worker for `ticks` virtual ticks.
        pub fn submit(&mut self, e: &Everest, ticks: u64) {
            let rep = e
                .submit(SERVICE, &json!({"ticks": (ticks as i64)}), None)
                .expect("submit load job");
            self.jobs.push(rep.id.as_str().to_string());
        }

        /// Open-loop burst: `n` jobs of `ticks` virtual ticks each, all
        /// queued at once.
        pub fn burst(&mut self, e: &Everest, n: usize, ticks: u64) {
            for _ in 0..n {
                self.submit(e, ticks);
            }
        }

        /// Number of submitted jobs not yet terminal.
        pub fn outstanding(&self, e: &Everest) -> usize {
            self.jobs
                .iter()
                .filter(|id| {
                    e.representation(SERVICE, id)
                        .is_none_or(|rep| !rep.state.is_terminal())
                })
                .count()
        }

        /// One virtual tick: settle for [`LoadGen::pacing`] so workers reach
        /// their parked state, sample the autoscaler (when given one), then
        /// advance the clock to release finished jobs.
        pub fn step(&self, controller: Option<&mut PoolController>) -> Option<ScaleEvent> {
            std::thread::sleep(self.pacing);
            let event = controller.and_then(PoolController::tick);
            self.clock.advance();
            event
        }

        /// Drives ticks until every submitted job is terminal, returning the
        /// tick count.
        ///
        /// # Panics
        ///
        /// Panics when the load has not drained within `max_ticks`.
        pub fn drain(
            &self,
            e: &Everest,
            mut controller: Option<&mut PoolController>,
            max_ticks: u64,
        ) -> u64 {
            for tick in 1..=max_ticks {
                self.step(controller.as_deref_mut());
                if self.outstanding(e) == 0 {
                    return tick;
                }
            }
            panic!(
                "{} jobs still outstanding after {max_ticks} ticks",
                self.outstanding(e)
            );
        }
    }
}
