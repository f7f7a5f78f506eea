//! Linux `/proc` readers: per-thread CPU and run-queue time, page
//! faults, peak RSS, steal ticks and the host description. Every layer
//! the benchmark attributes time to is observed from here or by timing
//! calls into it — the program itself is not instrumented.

use std::collections::BTreeMap;
use std::fs;

/// One thread's `schedstat`: nanoseconds on a CPU, nanoseconds
/// runnable but waiting for one, and timeslices run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStat {
    pub cpu_ns: u64,
    pub runq_ns: u64,
    pub slices: u64,
}

impl SchedStat {
    /// `self - earlier`, saturating (a thread's counters never go
    /// backwards, but a recycled tid could).
    #[must_use]
    pub fn since(self, earlier: SchedStat) -> SchedStat {
        SchedStat {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            runq_ns: self.runq_ns.saturating_sub(earlier.runq_ns),
            slices: self.slices.saturating_sub(earlier.slices),
        }
    }
}

/// Parses the three fields of a `/proc/.../schedstat` line.
#[must_use]
pub fn parse_schedstat(text: &str) -> Option<SchedStat> {
    let mut it = text.split_ascii_whitespace().map(str::parse::<u64>);
    Some(SchedStat {
        cpu_ns: it.next()?.ok()?,
        runq_ns: it.next()?.ok()?,
        slices: it.next()?.ok()?,
    })
}

/// The calling thread's `schedstat`.
#[must_use]
pub fn thread_self() -> SchedStat {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| parse_schedstat(&s))
        .unwrap_or_default()
}

/// `schedstat` of every thread of this process, keyed by tid, with its
/// `comm` name.
#[must_use]
pub fn all_threads() -> BTreeMap<u32, (String, SchedStat)> {
    let mut out = BTreeMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let path = entry.path();
        let comm = fs::read_to_string(path.join("comm")).unwrap_or_default();
        let stat = fs::read_to_string(path.join("schedstat"))
            .ok()
            .and_then(|s| parse_schedstat(&s));
        if let Some(stat) = stat {
            out.insert(tid, (comm.trim_end().to_string(), stat));
        }
    }
    out
}

/// Per-thread deltas between two [`all_threads`] snapshots, summed by
/// thread-name prefix class. Threads absent from `before` count from
/// zero.
#[must_use]
pub fn delta_by_prefix(
    before: &BTreeMap<u32, (String, SchedStat)>,
    after: &BTreeMap<u32, (String, SchedStat)>,
    prefix: &str,
) -> SchedStat {
    let mut sum = SchedStat::default();
    for (tid, (name, stat)) in after {
        if !name.starts_with(prefix) {
            continue;
        }
        let base = before.get(tid).map(|(_, s)| *s).unwrap_or_default();
        let d = stat.since(base);
        sum.cpu_ns += d.cpu_ns;
        sum.runq_ns += d.runq_ns;
        sum.slices += d.slices;
    }
    sum
}

/// The `steal` column of the aggregate `cpu` line of `/proc/stat`, in
/// clock ticks.
#[must_use]
pub fn parse_steal_ticks(proc_stat: &str) -> Option<u64> {
    let line = proc_stat.lines().find(|l| l.starts_with("cpu "))?;
    // cpu user nice system idle iowait irq softirq steal ...
    line.split_ascii_whitespace().nth(8)?.parse().ok()
}

/// Host steal ticks so far.
#[must_use]
pub fn steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_steal_ticks(&s))
        .unwrap_or(0)
}

/// Minor page faults from a `/proc/<pid>/stat` line (field 10). The
/// command name may contain spaces and parentheses, so fields are
/// counted from the last `)`.
#[must_use]
pub fn parse_minflt(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // rest starts at field 3 (state); minflt is field 10.
    rest.split_ascii_whitespace().nth(7)?.parse().ok()
}

/// This process's minor page faults so far.
#[must_use]
pub fn minflt() -> u64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_minflt(&s))
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) of this process in KiB.
#[must_use]
pub fn peak_rss_kib() -> u64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_ascii_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// `(nproc, cpu model, kernel release)` of the host.
#[must_use]
pub fn host() -> (usize, String, String) {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let model = fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            (k.trim() == "model name").then(|| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    (nproc, model, kernel)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_parses_and_subtracts() {
        let a = parse_schedstat("1500 200 7\n").expect("three fields");
        assert_eq!(
            a,
            SchedStat {
                cpu_ns: 1500,
                runq_ns: 200,
                slices: 7
            }
        );
        let b = parse_schedstat("4000 250 9").expect("three fields");
        assert_eq!(
            b.since(a),
            SchedStat {
                cpu_ns: 2500,
                runq_ns: 50,
                slices: 2
            }
        );
        assert_eq!(a.since(b).cpu_ns, 0, "saturates");
        assert!(parse_schedstat("12 x 3").is_none());
        assert!(parse_schedstat("12 3").is_none());
    }

    #[test]
    fn steal_is_the_eighth_cpu_column() {
        let stat = "cpu  100 2 30 4000 5 6 7 88 0 0\ncpu0 50 1 15 2000 2 3 3 44 0 0\n";
        assert_eq!(parse_steal_ticks(stat), Some(88));
        assert_eq!(parse_steal_ticks("cpu0 1 2 3\n"), None);
        assert_eq!(parse_steal_ticks("cpu  1 2 3\n"), None);
    }

    #[test]
    fn minflt_survives_odd_command_names() {
        let stat = "4242 (we ird) name)) S 1 4242 4242 0 -1 4194560 1234 0 5 0 10 3";
        assert_eq!(parse_minflt(stat), Some(1234));
        assert_eq!(parse_minflt("no paren"), None);
    }

    #[test]
    fn prefix_deltas_count_new_threads_from_zero() {
        let s = |cpu, runq| SchedStat {
            cpu_ns: cpu,
            runq_ns: runq,
            slices: 1,
        };
        let before = BTreeMap::from([(1, ("tango-net-shard".to_string(), s(100, 10)))]);
        let after = BTreeMap::from([
            (1, ("tango-net-shard".to_string(), s(300, 15))),
            (2, ("tango-net-shard".to_string(), s(50, 5))),
            (3, ("tango-net-accep".to_string(), s(999, 9))),
        ]);
        let d = delta_by_prefix(&before, &after, "tango-net-shard");
        assert_eq!((d.cpu_ns, d.runq_ns), (250, 10));
    }

    #[test]
    fn live_readers_see_this_process() {
        assert!(peak_rss_kib() > 0);
        assert!(minflt() > 0);
        assert!(!all_threads().is_empty());
        let t = thread_self();
        assert!(t.cpu_ns > 0);
    }
}
