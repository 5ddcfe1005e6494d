//! Outside-in accounting from `/proc`: process CPU and peak RSS, and
//! per-thread-group CPU seconds and context switches.
//!
//! Threads are grouped by name prefix. A thread that exits vanishes
//! from `/proc/self/task`, so short-lived threads (the benchmark's
//! callers) sample `/proc/thread-self` themselves before they exit and
//! hand the delta in.

use std::fs;

/// Clock ticks per second of `/proc` CPU fields (USER_HZ, 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// The thread groups the benchmark attributes, by name prefix. Caller
/// threads are named `pb-caller-<i>`.
pub const GROUPS: [(&str, &str); 5] = [
    ("reactor", "memkv-reactor"),
    ("srv_loop", "memkv-srv-loop"),
    ("srv_wkr", "memkv-srv-wkr"),
    ("io_engine", "memfs-io"),
    ("callers", "pb-caller"),
];

/// CPU and scheduling counters of one thread or group.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// Voluntary context switches (blocking waits).
    pub vcsw: u64,
    /// Involuntary context switches (preemptions).
    pub ivcsw: u64,
}

impl Usage {
    fn minus(self, earlier: Usage) -> Usage {
        Usage {
            cpu_s: self.cpu_s - earlier.cpu_s,
            vcsw: self.vcsw.saturating_sub(earlier.vcsw),
            ivcsw: self.ivcsw.saturating_sub(earlier.ivcsw),
        }
    }

    /// Add `other` into `self`.
    pub fn add(&mut self, other: Usage) {
        self.cpu_s += other.cpu_s;
        self.vcsw += other.vcsw;
        self.ivcsw += other.ivcsw;
    }
}

/// Field `n` (`n >= 3`, numbered as in proc(5)) of a `stat` line; the
/// command name in field 2 may hold spaces, so count after its `)`.
fn stat_field(stat: &str, n: usize) -> Option<u64> {
    stat[stat.rfind(')')? + 2..]
        .split_whitespace()
        .nth(n - 3)?
        .parse()
        .ok()
}

/// utime + stime in seconds from a `stat` line (fields 14 and 15).
fn stat_cpu_s(stat: &str) -> Option<f64> {
    Some((stat_field(stat, 14)? + stat_field(stat, 15)?) as f64 / TICKS_PER_S)
}

fn status_field(status: &str, name: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Usage of the task whose `/proc` directory is `dir`.
fn task_usage(dir: &str) -> Option<Usage> {
    let stat = fs::read_to_string(format!("{dir}/stat")).ok()?;
    let status = fs::read_to_string(format!("{dir}/status")).ok()?;
    Some(Usage {
        cpu_s: stat_cpu_s(&stat)?,
        vcsw: status_field(&status, "voluntary_ctxt_switches")?,
        ivcsw: status_field(&status, "nonvoluntary_ctxt_switches")?,
    })
}

/// The calling thread's own usage (`/proc/thread-self`).
pub fn thread_self() -> Usage {
    task_usage("/proc/thread-self").unwrap_or_default()
}

/// Whole-process CPU seconds, exited threads included.
pub fn process_cpu_s() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| stat_cpu_s(&s))
        .unwrap_or(0.0)
}

/// Whole-process minor page faults (`stat` field 10): fresh pages the
/// process touched, most of them memory the allocator newly mapped.
pub fn process_minor_faults() -> u64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| stat_field(&s, 10))
        .unwrap_or(0)
}

/// Peak resident set size (VmHWM) in MiB.
pub fn rss_peak_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, "VmHWM"))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// One reading of every live thread: (tid, name, usage).
#[derive(Debug, Clone, Default)]
pub struct TaskSample(Vec<(u64, String, Usage)>);

impl TaskSample {
    /// Read `/proc/self/task/*`.
    pub fn take() -> TaskSample {
        let mut out = Vec::new();
        if let Ok(entries) = fs::read_dir("/proc/self/task") {
            for e in entries.flatten() {
                let Some(tid) = e.file_name().to_str().and_then(|s| s.parse().ok()) else {
                    continue;
                };
                let dir = format!("/proc/self/task/{tid}");
                let name = fs::read_to_string(format!("{dir}/comm")).unwrap_or_default();
                if let Some(u) = task_usage(&dir) {
                    out.push((tid, name.trim_end().to_string(), u));
                }
            }
        }
        TaskSample(out)
    }

    /// Per-group usage accrued between `earlier` and `self`, over the
    /// threads alive at `self` (threads born in between count from 0).
    pub fn groups_since(&self, earlier: &TaskSample) -> Vec<(&'static str, Usage, usize)> {
        GROUPS
            .iter()
            .map(|&(group, prefix)| {
                let mut total = Usage::default();
                let mut threads = 0;
                for (tid, _, now) in self.0.iter().filter(|(_, n, _)| n.starts_with(prefix)) {
                    let before = earlier
                        .0
                        .iter()
                        .find(|(t, _, _)| t == tid)
                        .map_or(Usage::default(), |(_, _, u)| *u);
                    total.add(now.minus(before));
                    threads += 1;
                }
                (group, total, threads)
            })
            .collect()
    }
}

/// Usage accrued by the calling thread since `start` (for threads that
/// exit before the next [`TaskSample`]).
pub fn thread_since(start: Usage) -> Usage {
    thread_self().minus(start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_spaces_in_the_name() {
        let line = "123 (a b) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0";
        assert_eq!(stat_cpu_s(line), Some(3.0));
        assert_eq!(stat_field(line, 10), Some(7));
    }

    #[test]
    fn reads_this_thread_and_process() {
        assert!(process_cpu_s() >= 0.0);
        assert!(process_minor_faults() > 0);
        assert!(rss_peak_mib() > 0.0);
        let sample = TaskSample::take();
        assert!(!sample.0.is_empty());
        let u = thread_self();
        assert!(u.vcsw + u.ivcsw > 0 || u.cpu_s >= 0.0);
    }
}
