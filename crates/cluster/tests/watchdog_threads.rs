//! A finished batch job takes its walltime watchdog with it: the watchdog
//! parks on the scheduler's completion condvar instead of sleeping out the
//! whole limit. Alone in its test binary, so the process's thread count is
//! this test's alone.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use mathcloud_cluster::{BatchSystem, JobSpec, JobState};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn short_jobs_under_a_long_walltime_leave_no_thread_behind() {
    let cluster = BatchSystem::builder("wd").node("n1", 8).build();
    let baseline = threads();
    let ids: Vec<_> = (0..64)
        .map(|i| {
            cluster.qsub(
                JobSpec::new("short", 1, move |_| Ok(i.to_string()))
                    .walltime(Duration::from_secs(3600)),
            )
        })
        .collect();
    for id in ids {
        let done = cluster.wait(id, Duration::from_secs(10)).unwrap();
        assert_eq!(done.state, JobState::Completed);
    }
    // A watchdog wakes on its job's completion; give the exits a moment.
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() > baseline && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(threads(), baseline, "watchdogs outlived their jobs");
}
