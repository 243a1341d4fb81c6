//! Host-speed probe: a fixed piece of benchmark-owned work, timed between
//! the operations a run measures, that tells how fast the shared host is
//! running at the time.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts,
//! by up to 2× for minutes at a time, as neighbours load its caches and
//! memory. A run's median cannot average that drift away, because the
//! whole run sits inside one period. The probe runs the same two loops on
//! every run: random read-modify-writes over a 64 MiB table (bound by the
//! shared last-level cache and memory, which neighbours contend for, as
//! they do for the pipeline's working set) and floating-point passes over
//! a 32 KiB array (bound by the core). Their times over the reference
//! times below give the host factor: the geometric mean of the two
//! ratios, above 1 on a slow host. An operation's wall time divided by
//! the mean factor of the probes just before and after it is its wall
//! time at reference host speed. The probe shares no code with the
//! program, so a change to the program moves only the operation's time,
//! never the factor. It runs in a child process (`e2ebench --probe`), so
//! its table never counts toward the run's `peak_rss_mb`.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Entries of the memory probe's table (64 MiB of `f64`).
const MEM_ENTRIES: usize = 1 << 23;
/// Random accesses the memory probe makes.
const MEM_ACCESSES: u32 = 5_000_000;
/// Entries of the core probe's array (32 KiB of `f64`).
const CORE_ENTRIES: usize = 4096;
/// Passes the core probe makes over its array.
const CORE_PASSES: u32 = 40_000;

/// Memory probe time that defines factor 1, taken on the reference host:
/// a 2-core x86-64 VM with a 105 MiB shared last-level cache.
const REF_MEM_S: f64 = 0.15;
/// Core probe time that defines factor 1, on the same host.
const REF_CORE_S: f64 = 0.15;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn memory_probe_s() -> f64 {
    // Written in full before the clock starts, so no page fault is timed.
    let mut table = vec![1.0f64; MEM_ENTRIES];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0f64;
    let t = Instant::now();
    for _ in 0..MEM_ACCESSES {
        let i = (xorshift(&mut x) as usize) & (MEM_ENTRIES - 1);
        if let Some(e) = table.get_mut(i) {
            acc += *e;
            *e += 1e-3 * acc.fract();
        }
    }
    let s = t.elapsed().as_secs_f64();
    black_box((acc, &table));
    s
}

fn core_probe_s() -> f64 {
    let mut v = vec![1.0f64; CORE_ENTRIES];
    let t = Instant::now();
    for pass in 0..CORE_PASSES {
        let bump = f64::from(pass) * 1e-12;
        for (k, e) in v.iter_mut().enumerate() {
            *e = *e * 0.999_999 + k as f64 * 1e-9 + bump;
        }
        black_box(&v);
    }
    t.elapsed().as_secs_f64()
}

/// Probe the host once in this process: its factor against the
/// reference host. `e2ebench --probe` prints it.
pub fn measure() -> f64 {
    let mem = memory_probe_s() / REF_MEM_S;
    let core = core_probe_s() / REF_CORE_S;
    (mem * core).sqrt()
}

/// Probe the host once in a child process and wait for it to end.
#[cfg(not(test))]
pub fn host_factor() -> Result<f64, String> {
    use std::process::{Command, Stdio};
    let exe = std::env::current_exe().map_err(|e| format!("probe: no executable path: {e}"))?;
    let out = Command::new(exe)
        .arg("--probe")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("probe: cannot run: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(f) if out.status.success() && f.is_finite() && f > 0.0 => Ok(f),
        _ => Err(format!("probe failed ({}): '{}'", out.status, text.trim())),
    }
}

/// Unit tests run inside the test harness, which has no `--probe` mode:
/// they probe in-process.
#[cfg(test)]
pub fn host_factor() -> Result<f64, String> {
    Ok(measure())
}

/// The median host factor of `n` probes in a row.
pub fn median_factor(n: usize) -> Result<f64, String> {
    let factors = (0..n)
        .map(|_| host_factor())
        .collect::<Result<Vec<_>, _>>()?;
    median(&factors).ok_or_else(|| "too few host probes".into())
}

/// Probes taken between a run's timed operations.
pub struct HostClock {
    factors: Vec<f64>,
}

impl HostClock {
    /// Probe once before the first operation.
    pub fn start() -> Result<HostClock, String> {
        Ok(HostClock {
            factors: vec![host_factor()?],
        })
    }

    /// Probe again after an operation that took `wall_s`, and return its
    /// time at reference host speed: `wall_s` over the mean factor of the
    /// probes before and after it.
    pub fn normalise(&mut self, wall_s: f64) -> Result<f64, String> {
        let after = host_factor()?;
        Ok(self.scale(wall_s, after))
    }

    fn scale(&mut self, wall_s: f64, after: f64) -> f64 {
        let before = self.factors.last().copied().unwrap_or(after);
        self.factors.push(after);
        wall_s / ((before + after) / 2.0)
    }

    /// The median of every factor probed so far.
    pub fn median(&self) -> Option<f64> {
        median(&self.factors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_factor_is_positive_and_finite() {
        let f = measure();
        assert!(f.is_finite() && f > 0.0, "factor {f}");
    }

    #[test]
    fn normalising_divides_by_the_mean_of_the_neighbouring_probes() {
        let mut clock = HostClock { factors: vec![2.0] };
        assert_eq!(clock.scale(3.0, 1.0), 2.0);
        assert_eq!(clock.median(), None, "two probes are too few for a median");
        assert_eq!(clock.scale(6.0, 3.0), 3.0);
        assert_eq!(clock.median(), Some(2.0));
    }
}
