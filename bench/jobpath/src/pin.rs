//! Core placement: the whole process — container and load generator — on
//! one core.
//!
//! Left to the scheduler on the seed box's two virtual cores, the threads
//! of two request/reply pairs land together or apart differently from
//! second to second, and a wake-up that crosses cores costs several times
//! one that does not: throughput of the short workloads swung between
//! 35 k and 74 k jobs/s from one 0.7 s round to the next of the same run.
//! Confined to one core the same rounds top out within 2 % of each other
//! (and reach about the two-core average, so little is given up). The
//! price is that contention between cores is not exercised; the README
//! says so.
//!
//! The standard library has no affinity call, so the main thread pins
//! itself by running `taskset -pc <core> <tid>` before any other thread
//! exists; every later thread inherits the placement. Without `taskset`
//! the run proceeds unpinned and says so in its header line.

use std::process::{Command, Stdio};

/// Parses a `Cpus_allowed_list` value such as `0-1,4`.
fn parse_cpu_list(list: &str) -> Vec<usize> {
    list.trim()
        .split(',')
        .filter_map(|part| {
            let (lo, hi) = part.split_once('-').unwrap_or((part, part));
            Some(lo.trim().parse().ok()?..=hi.trim().parse().ok()?)
        })
        .flatten()
        .collect()
}

/// Pins the calling thread, and so every thread spawned after the call, to
/// the last core the process may run on — the first usually takes the
/// machine's interrupts and housekeeping (on the seed box, the network
/// card's; pinned there the fsync-bound workloads ran 15–25 % slower and
/// less evenly). Returns that core, or `None` when pinning was not possible.
pub fn confine_to_one_core() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let cpu = *parse_cpu_list(list).last()?;
    // `/proc/thread-self` links to `<pid>/task/<tid>`.
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    let tid = link.file_name()?.to_str()?;
    Command::new("taskset")
        .args(["-pc", &cpu.to_string(), tid])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
        .then_some(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1\n"), [0, 1]);
        assert_eq!(parse_cpu_list("0-2,4, 7-8"), [0, 1, 2, 4, 7, 8]);
        assert_eq!(parse_cpu_list("3"), [3]);
        assert_eq!(parse_cpu_list(""), Vec::<usize>::new());
    }
}
