//! The platform's one worker pool: an elastic, lazily-spawned pool for
//! detached `'static` tasks.
//!
//! Everything in the serving path that runs "this, on some thread" runs it
//! here: the Job Manager's handlers, the HTTP edge's request workers and its
//! streamer set, the workflow engine's runs and blocks. A submitted task
//! wakes a parked worker or, when every parked worker is spoken for, starts
//! one (up to the `max_workers` watermark). Workers idle past `idle_ttl`
//! retire; workers above a lowered watermark retire after their current
//! task, so a shrink never aborts one. [`WorkPool::status`] is the one load
//! sample (`busy` is counted around the task itself).
//!
//! Dropping the pool has one rule for every caller: stop accepting, let
//! queued tasks *start* until the drain grace has passed, discard what is
//! still queued then, and join every worker that is not mid-task by then
//! (a straggler holds the shared state and exits when its task returns).
//! A pool dropped from inside one of its own tasks does not wait for that
//! task.
//!
//! The exact kernels keep their own pool (`crates/exact/src/parallel.rs`):
//! barriered regions over borrowed `&mut` data, with the caller helping to
//! drain, in a crate with no dependencies — a different contract.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::sync::{Condvar, Mutex};

type Task = Box<dyn FnOnce() + Send + 'static>;

/// A point-in-time load sample of a worker pool ([`WorkPool::status`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStatus {
    /// Current pool size (desired workers; retiring workers excluded).
    pub workers: usize,
    /// Workers currently executing a job.
    pub busy: usize,
    /// Jobs queued behind the pool.
    pub queue_depth: usize,
}

struct State {
    tasks: VecDeque<Task>,
    /// Handles of workers; finished ones are reaped on the next start.
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Workers currently in their run loop.
    live: usize,
    /// Workers parked on the condvar waiting for a task.
    idle: usize,
    /// Workers inside a task.
    busy: usize,
    /// Retire watermark: workers above this count exit after their task.
    max_workers: usize,
    /// Workers ever started; numbers the thread names.
    started: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signals queued work, shutdown and shrink to parked workers.
    work: Condvar,
    /// Signals a worker leaving to a dropping owner.
    left: Condvar,
    name: String,
    idle_ttl: Duration,
}

/// An elastic pool executing detached `'static` tasks on named worker
/// threads.
///
/// # Examples
///
/// ```
/// use mathcloud_telemetry::workpool::WorkPool;
/// use std::sync::mpsc;
///
/// let pool = WorkPool::new("demo", 4, std::time::Duration::from_millis(50));
/// let (tx, rx) = mpsc::channel();
/// assert!(pool.spawn(move || tx.send(42).unwrap()));
/// assert_eq!(rx.recv().unwrap(), 42);
/// ```
pub struct WorkPool {
    shared: Arc<Shared>,
    /// How long `Drop` lets queued tasks start and running ones finish.
    drain_grace: Duration,
}

impl WorkPool {
    /// Creates an empty pool growing on demand up to `max_workers`; workers
    /// idle past `idle_ttl` retire. Threads are named `<name>-<n>`.
    pub fn new(name: &str, max_workers: usize, idle_ttl: Duration) -> WorkPool {
        WorkPool {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    tasks: VecDeque::new(),
                    handles: Vec::new(),
                    live: 0,
                    idle: 0,
                    busy: 0,
                    max_workers,
                    started: 0,
                    shutdown: false,
                }),
                work: Condvar::new(),
                left: Condvar::new(),
                name: name.to_string(),
                idle_ttl,
            }),
            drain_grace: Duration::from_secs(1),
        }
    }

    /// Sets the drain grace of [`Drop`] (builder style).
    pub fn with_drain_grace(mut self, grace: Duration) -> WorkPool {
        self.drain_grace = grace;
        self
    }

    /// Queues `task`, waking a parked worker or — when the queue is longer
    /// than the parked workers can take — starting one, up to the watermark.
    /// Returns `false` (dropping the task) once the pool is being dropped.
    pub fn spawn(&self, task: impl FnOnce() + Send + 'static) -> bool {
        let mut s = self.shared.state.lock();
        if s.shutdown {
            return false;
        }
        s.tasks.push_back(Box::new(task));
        if s.tasks.len() > s.idle && s.live < s.max_workers {
            self.start_worker(&mut s);
        }
        drop(s);
        self.shared.work.notify_one();
        true
    }

    fn start_worker(&self, s: &mut State) {
        // A finished thread needs no join to be released; dropping its
        // handle keeps churn from accumulating them.
        s.handles.retain(|h| !h.is_finished());
        let shared = Arc::clone(&self.shared);
        let handle = std::thread::Builder::new()
            .name(format!("{}-{}", shared.name, s.started))
            .spawn(move || worker_loop(&shared))
            .expect("spawn workpool worker");
        s.handles.push(handle);
        s.started += 1;
        s.live += 1;
    }

    /// The pool's load right now: the watermark, workers inside a task, and
    /// tasks not yet picked up.
    pub fn status(&self) -> PoolStatus {
        let s = self.shared.state.lock();
        PoolStatus {
            workers: s.max_workers,
            busy: s.busy,
            queue_depth: s.tasks.len(),
        }
    }

    /// Workers currently alive (parked or mid-task).
    pub fn live_workers(&self) -> usize {
        self.shared.state.lock().live
    }

    /// Tasks queued but not yet picked up.
    pub fn queued(&self) -> usize {
        self.shared.state.lock().tasks.len()
    }

    /// Sets the watermark. Raising it starts workers for the backlog at
    /// once; lowering it retires surplus workers as they finish their task
    /// (parked ones immediately).
    pub fn resize(&self, max_workers: usize) {
        let mut s = self.shared.state.lock();
        s.max_workers = max_workers;
        let backlog = s.tasks.len().saturating_sub(s.idle);
        for _ in 0..backlog.min(max_workers.saturating_sub(s.live)) {
            self.start_worker(&mut s);
        }
        drop(s);
        self.shared.work.notify_all();
    }
}

fn worker_loop(shared: &Shared) {
    let mut s = shared.state.lock();
    while s.live <= s.max_workers && !(s.shutdown && s.tasks.is_empty()) {
        if let Some(task) = s.tasks.pop_front() {
            s.busy += 1;
            drop(s);
            // A panicking task must not take the worker (and the pool's
            // counts) with it; the panic hook has already reported it.
            let _ = catch_unwind(AssertUnwindSafe(task));
            s = shared.state.lock();
            s.busy -= 1;
            continue;
        }
        s.idle += 1;
        let expired = shared.work.wait_for(&mut s, shared.idle_ttl).timed_out();
        s.idle -= 1;
        // Idle-retire: nothing arrived for a full TTL and nothing is queued
        // now — this worker is surplus capacity.
        if expired && s.tasks.is_empty() {
            break;
        }
    }
    s.live -= 1;
    shared.left.notify_all();
}

impl Drop for WorkPool {
    fn drop(&mut self) {
        let deadline = Instant::now() + self.drain_grace;
        let me = std::thread::current().id();
        let mut s = self.shared.state.lock();
        s.shutdown = true;
        self.shared.work.notify_all();
        // Dropped by one of its own tasks (the last holder of whatever owns
        // the pool): that worker cannot leave while it is in here.
        let own = usize::from(s.handles.iter().any(|h| h.thread().id() == me));
        while s.live > own {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            self.shared.left.wait_for(&mut s, deadline - now);
        }
        let all_left = s.live == own;
        let (handles, discarded) = (std::mem::take(&mut s.handles), std::mem::take(&mut s.tasks));
        drop(s);
        // Outside the lock: what a task captured may do anything when dropped.
        drop(discarded);
        for handle in handles {
            if handle.thread().id() != me && (all_left || handle.is_finished()) {
                let _ = handle.join();
            }
        }
    }
}

impl std::fmt::Debug for WorkPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkPool")
            .field("name", &self.shared.name)
            .field("live", &self.live_workers())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    const LONG: Duration = Duration::from_secs(60);
    const WAIT: Duration = Duration::from_secs(5);

    /// A latch tasks park on until the test opens it.
    #[derive(Default)]
    struct Gate {
        open: Mutex<bool>,
        changed: Condvar,
    }

    impl Gate {
        fn wait(&self) {
            let mut open = self.open.lock();
            while !*open {
                self.changed.wait(&mut open);
            }
        }

        fn open(&self) {
            *self.open.lock() = true;
            self.changed.notify_all();
        }
    }

    /// Queues `n` tasks that report on `started` and then park on `gate`.
    fn hold(pool: &WorkPool, n: usize, gate: &Arc<Gate>, started: &mpsc::Sender<()>) {
        for _ in 0..n {
            let (gate, started) = (Arc::clone(gate), started.clone());
            assert!(pool.spawn(move || {
                started.send(()).unwrap();
                gate.wait();
            }));
        }
    }

    fn until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + WAIT;
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn tasks_run_and_results_arrive() {
        let pool = WorkPool::new("wp-test", 4, Duration::from_millis(100));
        let (tx, rx) = mpsc::channel();
        for i in 0..16 {
            let tx = tx.clone();
            assert!(pool.spawn(move || tx.send(i).unwrap()));
            assert!(pool.live_workers() <= 4, "bounded by the watermark");
        }
        let mut got: Vec<i32> = (0..16).map(|_| rx.recv().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn status_is_exact_under_a_gate() {
        let pool = WorkPool::new("wp-status", 3, LONG);
        assert_eq!(
            pool.status(),
            PoolStatus {
                workers: 3,
                busy: 0,
                queue_depth: 0
            }
        );
        let gate = Arc::new(Gate::default());
        let (tx, rx) = mpsc::channel();
        hold(&pool, 5, &gate, &tx);
        for _ in 0..3 {
            rx.recv_timeout(WAIT).unwrap();
        }
        // Three inside a task, none queued behind a parked worker.
        assert_eq!(
            pool.status(),
            PoolStatus {
                workers: 3,
                busy: 3,
                queue_depth: 2
            }
        );
        assert_eq!((pool.live_workers(), pool.queued()), (3, 2));
        gate.open();
        until("the pool to go idle", || {
            pool.status()
                == PoolStatus {
                    workers: 3,
                    busy: 0,
                    queue_depth: 0,
                }
        });
    }

    #[test]
    fn a_burst_past_the_parked_workers_starts_new_ones() {
        let pool = WorkPool::new("wp-burst", 4, LONG);
        let (tx, rx) = mpsc::channel();
        pool.spawn(move || tx.send(()).unwrap());
        rx.recv_timeout(WAIT).unwrap();
        until("the first worker to park", || pool.status().busy == 0);
        // One parked worker, three tasks at once: all three run together.
        let gate = Arc::new(Gate::default());
        let (tx, rx) = mpsc::channel();
        hold(&pool, 3, &gate, &tx);
        for _ in 0..3 {
            rx.recv_timeout(WAIT).unwrap();
        }
        assert_eq!(pool.status().busy, 3);
        gate.open();
    }

    #[test]
    fn resize_up_runs_an_existing_backlog_concurrently() {
        let pool = WorkPool::new("wp-up", 1, LONG);
        let gate = Arc::new(Gate::default());
        let (tx, rx) = mpsc::channel();
        hold(&pool, 4, &gate, &tx);
        rx.recv_timeout(WAIT).unwrap();
        assert_eq!(
            pool.status(),
            PoolStatus {
                workers: 1,
                busy: 1,
                queue_depth: 3
            }
        );
        pool.resize(4);
        // No further spawn: the resize itself staffs the backlog.
        for _ in 0..3 {
            rx.recv_timeout(WAIT).unwrap();
        }
        assert_eq!(
            pool.status(),
            PoolStatus {
                workers: 4,
                busy: 4,
                queue_depth: 0
            }
        );
        gate.open();
    }

    #[test]
    fn resize_down_lets_running_tasks_finish_and_parks_no_more_than_the_new_size() {
        let pool = WorkPool::new("wp-down", 3, LONG);
        let gate = Arc::new(Gate::default());
        let (tx, rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel();
        for _ in 0..3 {
            let (gate, tx, done_tx) = (Arc::clone(&gate), tx.clone(), done_tx.clone());
            pool.spawn(move || {
                tx.send(()).unwrap();
                gate.wait();
                done_tx.send(()).unwrap();
            });
        }
        for _ in 0..3 {
            rx.recv_timeout(WAIT).unwrap();
        }
        pool.resize(1);
        assert_eq!(pool.status().busy, 3, "a shrink aborts nothing");
        gate.open();
        for _ in 0..3 {
            done_rx.recv_timeout(WAIT).unwrap();
        }
        until("the surplus workers to leave", || pool.live_workers() == 1);
        // The survivor still serves.
        let (tx, rx) = mpsc::channel();
        pool.spawn(move || tx.send(()).unwrap());
        rx.recv_timeout(WAIT).unwrap();
        assert_eq!(pool.live_workers(), 1);
    }

    #[test]
    fn idle_workers_retire_after_ttl() {
        let pool = WorkPool::new("wp-retire", 4, Duration::from_millis(30));
        let (tx, rx) = mpsc::channel();
        pool.spawn(move || tx.send(()).unwrap());
        rx.recv().unwrap();
        until("the idle worker to retire", || pool.live_workers() == 0);
    }

    #[test]
    fn a_panicking_task_costs_no_worker() {
        let pool = WorkPool::new("wp-panic", 1, LONG);
        pool.spawn(|| panic!("task panic (expected by this test)"));
        let (tx, rx) = mpsc::channel();
        pool.spawn(move || tx.send(()).unwrap());
        rx.recv_timeout(WAIT).unwrap();
        until("the count to settle", || pool.status().busy == 0);
        assert_eq!(pool.live_workers(), 1);
    }

    #[test]
    fn drop_starts_queued_tasks_within_the_grace() {
        let pool = WorkPool::new("wp-drain", 1, LONG);
        let gate = Arc::new(Gate::default());
        let (tx, rx) = mpsc::channel();
        hold(&pool, 1, &gate, &tx);
        rx.recv_timeout(WAIT).unwrap();
        let (ran_tx, ran_rx) = mpsc::channel();
        for i in 0..4 {
            let ran_tx = ran_tx.clone();
            pool.spawn(move || ran_tx.send(i).unwrap());
        }
        let shared = Arc::clone(&pool.shared);
        let opener = std::thread::spawn(move || {
            until("the drop to begin", || shared.state.lock().shutdown);
            gate.open();
        });
        drop(pool);
        opener.join().unwrap();
        // Every queued task ran, in order, before `drop` returned.
        assert_eq!(ran_rx.try_iter().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn drop_discards_what_is_still_queued_after_the_grace() {
        let pool = WorkPool::new("wp-discard", 1, LONG).with_drain_grace(Duration::from_millis(50));
        let gate = Arc::new(Gate::default());
        let (tx, rx) = mpsc::channel();
        hold(&pool, 1, &gate, &tx);
        rx.recv_timeout(WAIT).unwrap();
        let (ran_tx, ran_rx) = mpsc::channel();
        pool.spawn(move || ran_tx.send(()).unwrap());
        let shared = Arc::clone(&pool.shared);
        let started = Instant::now();
        drop(pool);
        assert!(started.elapsed() >= Duration::from_millis(50));
        assert!(
            started.elapsed() < WAIT,
            "drop waits for the grace, not the task"
        );
        assert!(shared.state.lock().tasks.is_empty());
        // The straggler finishes on its own and finds nothing to run.
        gate.open();
        until("the straggler to leave", || shared.state.lock().live == 0);
        assert!(ran_rx.try_recv().is_err(), "a discarded task ran");
    }

    #[test]
    fn spawn_is_refused_once_the_drop_began() {
        let pool = WorkPool::new("wp-shut", 2, LONG);
        let gate = Arc::new(Gate::default());
        let (tx, rx) = mpsc::channel();
        hold(&pool, 1, &gate, &tx);
        rx.recv_timeout(WAIT).unwrap();
        // `Drop` only needs `&mut`: run it on a second owner of the same
        // shared state so this thread can still call `spawn` meanwhile.
        let late = WorkPool {
            shared: Arc::clone(&pool.shared),
            drain_grace: Duration::ZERO,
        };
        let dropper = std::thread::spawn(move || drop(pool));
        until("the drop to begin", || late.shared.state.lock().shutdown);
        assert!(!late.spawn(|| unreachable!("refused tasks never run")));
        gate.open();
        dropper.join().unwrap();
    }

    #[test]
    fn dropping_the_last_handle_from_inside_a_task_returns() {
        let pool = Arc::new(WorkPool::new("wp-self", 2, LONG).with_drain_grace(LONG));
        let (tx, rx) = mpsc::channel();
        let inner = Arc::clone(&pool);
        let gate = Arc::new(Gate::default());
        let held = Arc::clone(&gate);
        pool.spawn(move || {
            held.wait();
            drop(inner); // the last handle: `WorkPool::drop` runs on this worker
            tx.send(()).unwrap();
        });
        drop(pool);
        gate.open();
        // A drop that waited for its own thread would sit out the 60 s grace.
        rx.recv_timeout(WAIT)
            .expect("drop waited for its own thread");
    }

    #[test]
    fn dropping_an_idle_pool_joins_its_parked_workers_at_once() {
        let pool = WorkPool::new("wp-drop", 8, LONG);
        let gate = Arc::new(Gate::default());
        let (tx, rx) = mpsc::channel();
        hold(&pool, 8, &gate, &tx);
        for _ in 0..8 {
            rx.recv_timeout(WAIT).unwrap();
        }
        gate.open();
        until("all eight to park", || pool.status().busy == 0);
        assert_eq!(pool.live_workers(), 8);
        let shared = Arc::clone(&pool.shared);
        let started = Instant::now();
        drop(pool);
        let took = started.elapsed();
        assert!(took < Duration::from_millis(50), "drop took {took:?}");
        assert_eq!(shared.state.lock().live, 0);
    }
}
