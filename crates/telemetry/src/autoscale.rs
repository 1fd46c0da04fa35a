//! Adaptive handler-pool autoscaling.
//!
//! PR 1 gave every container the signals (`mc_pool_queue_depth`,
//! `mc_pool_busy_workers`, `mc_job_wait_seconds`); this module closes the
//! loop: a [`PoolController`] samples a [`ScalableTarget`] on a configurable
//! tick and grows or shrinks its worker pool between `min_workers` and
//! `max_workers` with hysteresis — scale up on *sustained* queue depth or
//! saturation above the high watermark, scale down only after several
//! consecutive idle ticks. Decisions are observable as the
//! `mc_pool_scale_events` counter (labelled by pool and direction) and
//! `pool.scale` trace events.
//!
//! The controller is deliberately split from any particular pool: the Everest
//! container's handler pool and the batch system's elastic core set both
//! implement [`ScalableTarget`]. Ticks can be driven manually
//! ([`PoolController::tick`] — what the deterministic load tests do) or by a
//! background thread ([`PoolController::spawn`]).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::metrics::{self, Counter};
use crate::trace;

/// A point-in-time load sample of a worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStatus {
    /// Current pool size (desired workers; retiring workers excluded).
    pub workers: usize,
    /// Workers currently executing a job.
    pub busy: usize,
    /// Jobs queued behind the pool.
    pub queue_depth: usize,
}

impl PoolStatus {
    /// Pool saturation: busy workers over pool size.
    ///
    /// A zero-worker pool with pending work is infinitely saturated (any
    /// watermark comparison triggers a scale-up); a zero-worker pool with
    /// nothing to do reports 0.0. This avoids the NaN/division-by-zero trap
    /// while keeping "empty and idle" distinguishable from "empty and
    /// drowning".
    pub fn saturation(&self) -> f64 {
        if self.workers == 0 {
            if self.busy > 0 || self.queue_depth > 0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            self.busy as f64 / self.workers as f64
        }
    }
}

/// A pool the controller can observe and resize.
pub trait ScalableTarget: Send + Sync {
    /// Samples the pool's current load.
    fn pool_status(&self) -> PoolStatus;

    /// Resizes the pool toward `workers`, returning the size actually
    /// applied (implementations may clamp, e.g. to in-flight work).
    fn scale_to(&self, workers: usize) -> usize;
}

/// Controller knobs. See the field docs for watermark semantics; defaults are
/// conservative enough for interactive services.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscaleConfig {
    /// The pool never shrinks below this (also the initial size configs use).
    pub min_workers: usize,
    /// The pool never grows above this. `min_workers == max_workers` turns
    /// the controller into a no-op.
    pub max_workers: usize,
    /// Saturation at or above this counts the tick as *hot*.
    pub high_watermark: f64,
    /// Saturation at or below this (with an empty queue) counts the tick as
    /// *idle*. Between the watermarks the controller holds steady.
    pub low_watermark: f64,
    /// Queue depth at or above this counts the tick as hot regardless of
    /// saturation.
    pub queue_high: usize,
    /// Consecutive hot ticks required before scaling up (burst debounce).
    pub sustain_ticks: usize,
    /// Consecutive idle ticks required before scaling down (drain debounce).
    pub idle_ticks: usize,
    /// Workers added per scale-up step.
    pub step_up: usize,
    /// Workers removed per scale-down step.
    pub step_down: usize,
    /// Sampling interval for the background driver ([`PoolController::spawn`]).
    pub tick: Duration,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            min_workers: 1,
            max_workers: 8,
            high_watermark: 0.9,
            low_watermark: 0.5,
            queue_high: 2,
            sustain_ticks: 2,
            idle_ticks: 3,
            step_up: 2,
            step_down: 1,
            tick: Duration::from_millis(100),
        }
    }
}

impl AutoscaleConfig {
    /// Validates the knobs, returning a human-readable complaint.
    ///
    /// # Errors
    ///
    /// A message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.min_workers == 0 {
            return Err("min_workers must be at least 1".into());
        }
        if self.max_workers < self.min_workers {
            return Err(format!(
                "max_workers ({}) must be >= min_workers ({})",
                self.max_workers, self.min_workers
            ));
        }
        for (name, v) in [
            ("high_watermark", self.high_watermark),
            ("low_watermark", self.low_watermark),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} must be within [0, 1], got {v}"));
            }
        }
        if self.low_watermark > self.high_watermark {
            return Err(format!(
                "low_watermark ({}) must be <= high_watermark ({})",
                self.low_watermark, self.high_watermark
            ));
        }
        if self.sustain_ticks == 0 || self.idle_ticks == 0 {
            return Err("sustain_ticks and idle_ticks must be at least 1".into());
        }
        if self.step_up == 0 || self.step_down == 0 {
            return Err("step_up and step_down must be at least 1".into());
        }
        Ok(())
    }
}

/// Which way a scaling decision moved the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDirection {
    Up,
    Down,
}

impl ScaleDirection {
    pub fn as_str(self) -> &'static str {
        match self {
            ScaleDirection::Up => "up",
            ScaleDirection::Down => "down",
        }
    }
}

/// One applied scaling decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleEvent {
    pub direction: ScaleDirection,
    /// Pool size before the decision.
    pub from: usize,
    /// Pool size the target actually applied.
    pub to: usize,
    /// The load sample that triggered the decision.
    pub status: PoolStatus,
}

/// The autoscaling controller for one pool.
pub struct PoolController {
    label: String,
    target: Arc<dyn ScalableTarget>,
    config: AutoscaleConfig,
    hot_run: usize,
    idle_run: usize,
    ups: Counter,
    downs: Counter,
    observer: Option<Box<dyn Fn(&ScaleEvent) + Send + Sync>>,
}

impl PoolController {
    /// Creates a controller over `target`; `label` becomes the `pool` label
    /// on `mc_pool_scale_events` and the `pool.scale` trace events.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid ([`AutoscaleConfig::validate`]).
    pub fn new(label: &str, target: Arc<dyn ScalableTarget>, config: AutoscaleConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid autoscale config for pool {label:?}: {e}");
        }
        let reg = metrics::global();
        reg.describe(
            "mc_pool_scale_events",
            "autoscaler decisions applied, by pool and direction",
        );
        PoolController {
            label: label.to_string(),
            ups: reg.counter(
                "mc_pool_scale_events",
                &[("pool", label), ("direction", "up")],
            ),
            downs: reg.counter(
                "mc_pool_scale_events",
                &[("pool", label), ("direction", "down")],
            ),
            target: Arc::clone(&target),
            config,
            hot_run: 0,
            idle_run: 0,
            observer: None,
        }
    }

    /// Registers a callback invoked after every applied scaling decision —
    /// both manual [`PoolController::tick`]s and the background driver.
    ///
    /// This crate sits below the event bus in the dependency graph, so
    /// publication of `pool.scale` events is injected here by the layer that
    /// owns the pool (the Everest container) rather than hard-wired.
    #[must_use]
    pub fn on_scale(mut self, observer: impl Fn(&ScaleEvent) + Send + Sync + 'static) -> Self {
        self.observer = Some(Box::new(observer));
        self
    }

    /// The pool label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The controller's knobs.
    pub fn config(&self) -> &AutoscaleConfig {
        &self.config
    }

    /// `true` when `min_workers == max_workers`: every tick is a no-op.
    pub fn is_noop(&self) -> bool {
        self.config.min_workers == self.config.max_workers
    }

    /// Samples the target once and applies at most one scaling step.
    ///
    /// This is the whole control loop; calling it manually (as the load-test
    /// harness does) makes scaling decisions deterministic functions of the
    /// scripted load.
    pub fn tick(&mut self) -> Option<ScaleEvent> {
        if self.is_noop() {
            return None;
        }
        let status = self.target.pool_status();
        let saturation = status.saturation();
        let hot = status.queue_depth >= self.config.queue_high
            || saturation >= self.config.high_watermark;
        let idle = status.queue_depth == 0 && saturation <= self.config.low_watermark;
        if hot {
            self.hot_run += 1;
            self.idle_run = 0;
        } else if idle {
            self.idle_run += 1;
            self.hot_run = 0;
        } else {
            self.hot_run = 0;
            self.idle_run = 0;
        }

        if hot
            && self.hot_run >= self.config.sustain_ticks
            && status.workers < self.config.max_workers
        {
            let goal = (status.workers + self.config.step_up).min(self.config.max_workers);
            self.hot_run = 0;
            return Some(self.apply(ScaleDirection::Up, status, goal));
        }
        if idle
            && self.idle_run >= self.config.idle_ticks
            && status.workers > self.config.min_workers
        {
            // Never shrink below in-flight jobs (or below one worker): a
            // retiring worker finishes its job either way, but the controller
            // should not *ask* for less capacity than is already committed.
            let goal = status
                .workers
                .saturating_sub(self.config.step_down)
                .max(self.config.min_workers)
                .max(status.busy)
                .max(1);
            if goal < status.workers {
                self.idle_run = 0;
                return Some(self.apply(ScaleDirection::Down, status, goal));
            }
            // Clamping ate the whole step: stay put, keep the idle run so a
            // later tick (with fewer in-flight jobs) can retry immediately.
        }
        None
    }

    fn apply(&self, direction: ScaleDirection, status: PoolStatus, goal: usize) -> ScaleEvent {
        let to = self.target.scale_to(goal);
        match direction {
            ScaleDirection::Up => self.ups.inc(),
            ScaleDirection::Down => self.downs.inc(),
        }
        trace::info(
            "pool.scale",
            None,
            &[
                ("pool", &self.label),
                ("direction", direction.as_str()),
                ("from", &status.workers.to_string()),
                ("to", &to.to_string()),
                ("queue_depth", &status.queue_depth.to_string()),
                ("saturation", &format!("{:.3}", status.saturation())),
            ],
        );
        let event = ScaleEvent {
            direction,
            from: status.workers,
            to,
            status,
        };
        if let Some(observer) = &self.observer {
            observer(&event);
        }
        event
    }

    /// Moves the controller onto a background thread ticking every
    /// `config.tick`. The returned handle stops the loop on drop.
    pub fn spawn(mut self) -> AutoscaleHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let tick = self.config.tick;
        let thread = std::thread::spawn(move || {
            while !stop_flag.load(Ordering::Relaxed) {
                self.tick();
                std::thread::sleep(tick);
            }
        });
        AutoscaleHandle {
            stop,
            thread: Some(thread),
        }
    }
}

impl std::fmt::Debug for PoolController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolController")
            .field("label", &self.label)
            .field("config", &self.config)
            .finish()
    }
}

/// Handle on a background autoscaling loop; stops it on drop.
pub struct AutoscaleHandle {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl AutoscaleHandle {
    /// Stops the loop and waits for the thread to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for AutoscaleHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for AutoscaleHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AutoscaleHandle")
            .field("running", &self.thread.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Mutex;

    /// A target whose load is set by the test and whose size follows
    /// `scale_to` exactly.
    struct FakeTarget {
        state: Mutex<PoolStatus>,
    }

    impl FakeTarget {
        fn new(workers: usize) -> Arc<Self> {
            Arc::new(FakeTarget {
                state: Mutex::new(PoolStatus {
                    workers,
                    busy: 0,
                    queue_depth: 0,
                }),
            })
        }

        fn load(&self, busy: usize, queue_depth: usize) {
            let mut st = self.state.lock();
            st.busy = busy;
            st.queue_depth = queue_depth;
        }

        fn workers(&self) -> usize {
            self.state.lock().workers
        }
    }

    impl ScalableTarget for FakeTarget {
        fn pool_status(&self) -> PoolStatus {
            *self.state.lock()
        }

        fn scale_to(&self, workers: usize) -> usize {
            self.state.lock().workers = workers;
            workers
        }
    }

    fn config(min: usize, max: usize) -> AutoscaleConfig {
        AutoscaleConfig {
            min_workers: min,
            max_workers: max,
            sustain_ticks: 2,
            idle_ticks: 2,
            step_up: 2,
            step_down: 2,
            ..AutoscaleConfig::default()
        }
    }

    #[test]
    fn sustained_queue_scales_up_with_debounce() {
        let t = FakeTarget::new(2);
        let mut c = PoolController::new(
            "t-up",
            Arc::clone(&t) as Arc<dyn ScalableTarget>,
            config(2, 8),
        );
        t.load(2, 5); // saturated with a deep queue
        assert!(
            c.tick().is_none(),
            "first hot tick must not scale (debounce)"
        );
        let ev = c.tick().expect("second sustained hot tick scales up");
        assert_eq!(ev.direction, ScaleDirection::Up);
        assert_eq!((ev.from, ev.to), (2, 4));
        assert_eq!(t.workers(), 4);
        // The counter recorded the decision.
        assert_eq!(
            metrics::global().counter_value(
                "mc_pool_scale_events",
                &[("pool", "t-up"), ("direction", "up")]
            ),
            Some(1)
        );
    }

    #[test]
    fn saturation_watermark_alone_triggers_scale_up() {
        let t = FakeTarget::new(4);
        let mut c = PoolController::new(
            "t-sat",
            Arc::clone(&t) as Arc<dyn ScalableTarget>,
            config(1, 8),
        );
        t.load(4, 0); // all busy, nothing queued: saturation 1.0 >= 0.9
        c.tick();
        let ev = c.tick().expect("watermark scale-up");
        assert_eq!(ev.to, 6);
    }

    #[test]
    fn idle_ticks_scale_down_and_clamp_to_min() {
        let t = FakeTarget::new(6);
        let mut c = PoolController::new(
            "t-down",
            Arc::clone(&t) as Arc<dyn ScalableTarget>,
            config(2, 8),
        );
        t.load(0, 0);
        assert!(c.tick().is_none());
        let ev = c.tick().expect("second idle tick scales down");
        assert_eq!(ev.direction, ScaleDirection::Down);
        assert_eq!(ev.to, 4);
        c.tick();
        assert_eq!(c.tick().expect("keeps shrinking").to, 2);
        // At the floor: no further decisions.
        c.tick();
        assert!(c.tick().is_none(), "must not shrink below min_workers");
        assert_eq!(t.workers(), 2);
    }

    #[test]
    fn scale_down_never_drops_below_in_flight_jobs() {
        let t = FakeTarget::new(6);
        let mut c = PoolController::new(
            "t-clamp",
            Arc::clone(&t) as Arc<dyn ScalableTarget>,
            AutoscaleConfig {
                min_workers: 1,
                max_workers: 8,
                idle_ticks: 1,
                step_down: 5,
                ..AutoscaleConfig::default()
            },
        );
        // 3 of 6 busy, empty queue: saturation 0.5 <= low watermark, idle.
        t.load(3, 0);
        let ev = c.tick().expect("idle tick scales down");
        assert_eq!(ev.to, 3, "clamped to in-flight jobs, not min_workers");
        assert_eq!(t.workers(), 3);
        // Fully committed pool: clamping eats the whole step, no event.
        t.load(3, 0);
        assert!(c.tick().is_none());
        assert_eq!(t.workers(), 3);
    }

    #[test]
    fn fixed_size_pool_is_a_noop_controller() {
        let t = FakeTarget::new(3);
        let mut c = PoolController::new(
            "t-noop",
            Arc::clone(&t) as Arc<dyn ScalableTarget>,
            config(3, 3),
        );
        assert!(c.is_noop());
        t.load(3, 100); // drowning
        for _ in 0..10 {
            assert!(c.tick().is_none());
        }
        t.load(0, 0); // bone idle
        for _ in 0..10 {
            assert!(c.tick().is_none());
        }
        assert_eq!(t.workers(), 3, "no-op controller never touches the pool");
    }

    #[test]
    fn mixed_load_resets_both_runs() {
        let t = FakeTarget::new(4);
        let mut c = PoolController::new(
            "t-mix",
            Arc::clone(&t) as Arc<dyn ScalableTarget>,
            config(1, 8),
        );
        t.load(4, 4);
        c.tick(); // hot #1
        t.load(3, 0); // between watermarks: neither hot nor idle
        assert!(c.tick().is_none());
        t.load(4, 4);
        assert!(c.tick().is_none(), "hot run restarted from zero");
        assert!(c.tick().is_some());
    }

    #[test]
    fn zero_worker_pool_saturation_and_scale_up() {
        let empty_idle = PoolStatus {
            workers: 0,
            busy: 0,
            queue_depth: 0,
        };
        assert_eq!(empty_idle.saturation(), 0.0);
        let empty_drowning = PoolStatus {
            workers: 0,
            busy: 0,
            queue_depth: 3,
        };
        assert!(empty_drowning.saturation().is_infinite());

        let t = FakeTarget::new(0);
        let mut c = PoolController::new(
            "t-zero",
            Arc::clone(&t) as Arc<dyn ScalableTarget>,
            AutoscaleConfig {
                min_workers: 1,
                max_workers: 4,
                sustain_ticks: 1,
                ..AutoscaleConfig::default()
            },
        );
        t.load(0, 1); // one queued job, nobody to serve it
        let ev = c.tick().expect("zero-worker pool with work scales up");
        assert_eq!(ev.direction, ScaleDirection::Up);
        assert!(ev.to >= 1);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        for (cfg, needle) in [
            (
                AutoscaleConfig {
                    min_workers: 0,
                    ..AutoscaleConfig::default()
                },
                "min_workers",
            ),
            (
                AutoscaleConfig {
                    min_workers: 4,
                    max_workers: 2,
                    ..AutoscaleConfig::default()
                },
                "max_workers",
            ),
            (
                AutoscaleConfig {
                    high_watermark: 1.5,
                    ..AutoscaleConfig::default()
                },
                "high_watermark",
            ),
            (
                AutoscaleConfig {
                    low_watermark: 0.95,
                    ..AutoscaleConfig::default()
                },
                "low_watermark",
            ),
            (
                AutoscaleConfig {
                    sustain_ticks: 0,
                    ..AutoscaleConfig::default()
                },
                "sustain_ticks",
            ),
            (
                AutoscaleConfig {
                    step_up: 0,
                    ..AutoscaleConfig::default()
                },
                "step_up",
            ),
        ] {
            let e = cfg.validate().unwrap_err();
            assert!(e.contains(needle), "{e} !~ {needle}");
        }
        assert!(AutoscaleConfig::default().validate().is_ok());
    }

    #[test]
    fn background_driver_scales_without_manual_ticks() {
        let t = FakeTarget::new(1);
        let c = PoolController::new(
            "t-bg",
            Arc::clone(&t) as Arc<dyn ScalableTarget>,
            AutoscaleConfig {
                min_workers: 1,
                max_workers: 4,
                sustain_ticks: 1,
                tick: Duration::from_millis(5),
                ..AutoscaleConfig::default()
            },
        );
        t.load(1, 10);
        let handle = c.spawn();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while t.workers() < 4 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        handle.stop();
        assert_eq!(t.workers(), 4, "background loop reached max_workers");
    }
}
