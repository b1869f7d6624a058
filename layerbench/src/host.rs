//! Host metadata printed with every result, and procfs readings of
//! memory and CPU time. These are host-clock reads by the benchmark,
//! never on a simulated path.

use std::fs;

use bypassd_bench::hostinfo;

/// `cpu=... cores=... date=... rev=...`, the first line of every run.
pub fn describe() -> String {
    format!(
        "cpu=\"{}\" cores={} date={} rev={}",
        hostinfo::cpu_model(),
        hostinfo::cores(),
        hostinfo::run_date(),
        git_revision().unwrap_or_else(|| "unknown".to_string())
    )
}

/// The checked-out commit, read from `.git` in the working directory;
/// `None` in an export without one.
fn git_revision() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(format!(".git/{name}")) {
        return Some(rev.trim().to_string());
    }
    fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(name).map(|rev| rev.trim().to_string()))
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// CPU time the calling thread has run, in ns (0 where procfs lacks it).
pub fn thread_cpu_ns() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// User plus system CPU seconds of the whole process, threads that have
/// exited included, at the kernel's 10 ms tick resolution.
pub fn process_cpu_s() -> f64 {
    const TICKS_PER_S: f64 = 100.0; // USER_HZ on Linux
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / TICKS_PER_S
}
