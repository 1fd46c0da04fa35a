//! Process-level cost from `/proc/self`.
//!
//! Server and load generator share this process, so the figures cover
//! both; they exist so that a fall in throughput is only called a cost
//! when the cores were in fact busy.

use std::fs;

/// `sysconf(_SC_CLK_TCK)` on every Linux this runs on.
const TICKS_PER_SECOND: f64 = 100.0;

/// CPU seconds (user + system) the whole process has used.
pub fn cpu_seconds() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_ticks(&s))
        .map_or(0.0, |ticks| ticks as f64 / TICKS_PER_SECOND)
}

/// utime + stime from a `/proc/<pid>/stat` line. The command name may hold
/// spaces and parentheses, so fields are counted from the last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace();
    // After the command: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Context switches (voluntary + involuntary) of the threads alive now.
/// A thread that has exited takes its count with it, which is why client
/// threads report [`thread_ctx_switches`] before they end.
pub fn live_ctx_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .map(|s| status_ctx_switches(&s))
        .sum()
}

/// Context switches of the calling thread.
pub fn thread_ctx_switches() -> u64 {
    fs::read_to_string("/proc/thread-self/status").map_or(0, |s| status_ctx_switches(&s))
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

fn status_ctx_switches(status: &str) -> u64 {
    status_field(status, "voluntary_ctxt_switches").unwrap_or(0)
        + status_field(status, "nonvoluntary_ctxt_switches").unwrap_or(0)
}

/// Resident set size in MiB.
pub fn rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, "VmRSS"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let stat = "42 (job (path) x) S 1 42 42 0 -1 4194304 500 0 0 0 \
                    250 75 0 0 20 0 5 0 100 1000000 300 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(325));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn status_fields_parse() {
        let status = "Name:\tjobpath\nVmRSS:\t   20480 kB\n\
                      voluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(status_field(status, "VmRSS"), Some(20480));
        assert_eq!(status_ctx_switches(status), 15);
        assert_eq!(status_ctx_switches(""), 0);
    }
}
