//! Process and host facts read from `/proc`: peak RSS, CPU time, the
//! filesystem a path lives on, and the environment record every result
//! carries.

use std::path::Path;

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// one) in MiB, or `None` when `/proc` does not report it.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User + system CPU seconds process `pid` (`"self"` for this one) has
/// used, over all its threads.
pub fn cpu_seconds(pid: &str) -> f64 {
    // Fields 14 and 15 of /proc/<pid>/stat, in clock ticks (USER_HZ = 100
    // on Linux). The command name (field 2) may hold spaces, so count
    // from the closing parenthesis.
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    let Some(rest) = stat.rsplit(')').next() else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // `rest` starts at field 3, so fields 14 and 15 sit at 11 and 12.
    (ticks(11) + ticks(12)) / 100.0
}

/// The filesystem type of the mount that holds `path` (longest matching
/// mount point in `/proc/mounts`).
pub fn fs_type(path: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(path) else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let mut it = line.split_whitespace();
        let (Some(_dev), Some(point), Some(kind)) = (it.next(), it.next(), it.next()) else {
            continue;
        };
        if abs.starts_with(point) && best.as_ref().is_none_or(|(len, _)| point.len() > *len) {
            best = Some((point.len(), kind.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

/// Whether `path` is RAM-backed.
pub fn is_ram_backed(path: &Path) -> bool {
    matches!(fs_type(path).as_str(), "tmpfs" | "ramfs")
}

/// The environment record printed with every result.
pub fn environment(seed: u64) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    vec![
        ("nproc", nproc.to_string()),
        ("kernel", kernel),
        ("commit", commit()),
        ("seed", seed.to_string()),
    ]
}

/// The commit under test: `git rev-parse HEAD` when the checkout is a
/// repository, else `unknown`.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}
