//! Process figures read from `/proc/self`: per-thread CPU time, thread
//! count and resident memory; and the host's steal time from `/proc/stat`.

use std::collections::HashMap;

use std::path::Path;

/// Kernel clock ticks per second of the `stat` file's `utime`/`stime`
/// fields (`USER_HZ`, fixed at 100 by the Linux user-space ABI).
const TICKS_PER_S: f64 = 100.0;

/// CPU time of every live thread: `tid → (name, cpu seconds)`.
pub type ThreadCpu = HashMap<u64, (String, f64)>;

/// CPU seconds used so far by the calling thread.
#[must_use]
pub fn own_cpu_s() -> f64 {
    task_cpu_s(Path::new("/proc/thread-self"))
}

/// CPU seconds of the task whose `/proc` directory is `dir`: the
/// nanosecond `schedstat` run time where the kernel keeps it, else `stat`'s
/// `utime + stime`, which only moves in 10 ms ticks.
fn task_cpu_s(dir: &Path) -> f64 {
    let read = |file: &str| std::fs::read_to_string(dir.join(file)).unwrap_or_default();
    if let Some(ns) =
        read("schedstat").split_whitespace().next().and_then(|f| f.parse::<f64>().ok())
    {
        return ns / 1e9;
    }
    // `pid (comm) state ...`: comm may contain spaces, so split after the
    // last ')'; utime and stime are fields 14 and 15 overall.
    let stat = read("stat");
    let fields: Vec<&str> =
        stat.rsplit_once(')').map_or("", |(_, rest)| rest).split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / TICKS_PER_S
}

/// Samples the CPU time of every thread of this process.
#[must_use]
pub fn thread_cpu() -> ThreadCpu {
    let mut out = HashMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse::<u64>().ok()) else {
            continue;
        };
        let path = entry.path();
        let name = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        out.insert(tid, (name.trim_end().to_string(), task_cpu_s(&path)));
    }
    out
}

/// CPU seconds spent between two samples by the threads whose name
/// satisfies `pick` (threads born in between count from zero).
#[must_use]
pub fn cpu_between(before: &ThreadCpu, after: &ThreadCpu, pick: impl Fn(&str) -> bool) -> f64 {
    after
        .iter()
        .filter(|(_, (name, _))| pick(name))
        .map(|(tid, (_, end))| end - before.get(tid).map_or(0.0, |(_, start)| *start))
        .sum()
}

/// The host's CPU time so far, in clock ticks summed over its CPUs:
/// `(steal, total)` from the `cpu` line of `/proc/stat`.
#[must_use]
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .find_map(|line| line.strip_prefix("cpu "))
        .map(|rest| rest.split_whitespace().filter_map(|f| f.parse().ok()).collect())
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal guest guest_nice; the
    // guest times are already counted in user and nice.
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().take(8).sum())
}

/// The share of host CPU time stolen between two [`host_ticks`] samples.
#[must_use]
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// Number of live threads of this process.
#[must_use]
pub fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, Iterator::count)
}

/// A `/proc/self/status` memory field (`VmHWM`, `VmRSS`) in MiB.
#[must_use]
pub fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sees_named_threads_and_memory() {
        let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let t = std::thread::Builder::new()
            .name("probe-thread".into())
            .spawn(move || {
                ready_tx.send(()).unwrap();
                rx.recv().ok()
            })
            .unwrap();
        ready_rx.recv().unwrap();
        let cpu = thread_cpu();
        assert!(cpu.values().any(|(name, _)| name == "probe-thread"));
        assert!(thread_count() >= 2);
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 50 {
            std::hint::black_box(0u64);
        }
        assert!(own_cpu_s() > 0.0);
        tx.send(()).unwrap();
        t.join().unwrap();
        assert!(status_mb("VmRSS") > 0.0);
        assert!(status_mb("VmHWM") >= status_mb("VmRSS") * 0.5);
        let (steal, total) = host_ticks();
        assert!(total > 0 && steal <= total);
    }
}
