//! End-to-end benchmark of DataSculpt.
//!
//! ```text
//! e2ebench --workload <agnews-sc|serve-open> --seed N --seconds S
//!          --trace <0|1> [--cli PATH] [--work-dir DIR]
//! ```
//!
//! Untraced runs (`--trace 0`) report the end-to-end metrics; a traced
//! run (`--trace 1`) reports the per-layer metrics. Every run checks its
//! outputs. The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! `e2ebench --probe` runs one host-speed probe and prints its factor
//! (see `probe`). See `README.md` beside this crate for the workloads and
//! metrics.

mod pipeline;
mod probe;
mod serve;
mod stats;
mod sys;

use std::path::PathBuf;
use std::process::ExitCode;

/// One benchmark invocation, parsed from the command line.
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// The workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the timed part runs, in seconds.
    pub seconds: f64,
    /// Traced (per-layer) run instead of an untraced (end-to-end) one.
    pub trace: bool,
    /// The release CLI binary (serve-open spawns its daemon).
    pub cli: PathBuf,
    /// Scratch directory for daemon state; removed again at the end.
    pub work_dir: PathBuf,
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (pipeline repetitions, serve jobs, session
    /// audits). Only [`Report::settle`] counts them.
    pub attempted: u64,
    /// Attempted operations with at least one missed output check; never
    /// more than `attempted`.
    pub failed: u64,
    /// Why each failure counted, for the log.
    pub problems: Vec<String>,
    /// `(name, value, unit)` in output order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Facts about the run that are not metrics (sample counts, digests,
    /// environment), printed before the result line.
    pub record: Vec<(String, String)>,
}

/// The output checks of one operation. Any number of misses make that
/// one operation fail once.
#[derive(Default)]
pub struct Checks(Vec<String>);

impl Checks {
    /// Check a condition on the operation's outputs.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.0.push(why());
        }
    }

    /// Record a miss that needs no condition.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.0.push(why.into());
    }

    /// Whether every check so far held.
    pub fn passed(&self) -> bool {
        self.0.is_empty()
    }
}

impl Report {
    /// Record a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Record a non-metric fact.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.record.push((key.to_string(), value.to_string()));
    }

    /// Count one attempted operation, failed if any of its checks missed.
    pub fn settle(&mut self, checks: Checks) {
        self.attempted += 1;
        if !checks.passed() {
            self.failed += 1;
            self.problems.extend(checks.0);
        }
    }

    /// Operations whose outputs passed every check, over operations
    /// attempted.
    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

/// The end-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_norm_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("cost_nanousd", "nUSD"),
    ("end_metric", "ratio"),
    ("success_rate", "ratio"),
    ("goodput_norm_jobs_per_s", "1/s"),
];

/// The per-layer metrics every traced run reports, with their units.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("data.load_s", "s"),
    ("core.setup_s", "s"),
    ("core.select_s", "s"),
    ("core.prompt_s", "s"),
    ("core.generate_s", "s"),
    ("core.integrate_s", "s"),
    ("core.lf_accept_ratio", "ratio"),
    ("core.parse_failures", "count"),
    ("text.tfidf_s", "s"),
    ("labelmodel.fit_s", "s"),
    ("labelmodel.votes", "count"),
    ("endmodel.fit_s", "s"),
    ("endmodel.row_epochs", "count"),
    ("llm.calls", "count"),
    ("llm.tokens", "count"),
    ("llm.errors", "count"),
    ("exec.cpu_per_wall", "ratio"),
    ("store.records", "count"),
    ("store.bytes", "bytes"),
    ("serve.job_p50_ms", "ms"),
    ("serve.job_tail_ms", "ms"),
    ("serve.job_busy_p50_ms", "ms"),
    ("serve.job_busy_tail_ms", "ms"),
    ("serve.job_wait_p50_ms", "ms"),
    ("serve.job_wait_tail_ms", "ms"),
    ("serve.status_p50_ms", "ms"),
    ("serve.status_tail_ms", "ms"),
    ("serve.sent", "count"),
    ("serve.completed", "count"),
    ("serve.rejected", "count"),
    ("serve.paused", "count"),
    ("serve.failed", "count"),
    ("serve.overdraft_tenants", "count"),
    ("serve.max_overdraft_nanousd", "nUSD"),
    ("serve.gen_late_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.coverage_pct", "%"),
    ("host.speed_factor", "ratio"),
];

/// Whether `metrics` are exactly the catalogue `want`, each once, with
/// the catalogue's unit.
fn matches_catalogue(metrics: &[(&str, f64, &str)], want: &[(&str, &str)]) -> Result<(), String> {
    let mut got: Vec<(&str, &str)> = metrics.iter().map(|(n, _, u)| (*n, *u)).collect();
    let mut want = want.to_vec();
    got.sort_unstable();
    want.sort_unstable();
    if got == want {
        Ok(())
    } else {
        let missing: Vec<_> = want.iter().filter(|m| !got.contains(m)).collect();
        let extra: Vec<_> = got.iter().filter(|m| !want.contains(m)).collect();
        Err(format!(
            "metric set mismatch: missing {missing:?}, unexpected {extra:?}"
        ))
    }
}

const USAGE: &str = "usage: e2ebench --workload <agnews-sc|serve-open> \
--seed N --seconds S --trace <0|1> [--cli PATH] [--work-dir DIR]";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut cli = PathBuf::from("target/release/datasculpt");
    let mut work_dir = PathBuf::from(".bench_run");
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = || format!("flag {flag} has an unparseable value '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--cli" => cli = PathBuf::from(value),
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
        cli,
        work_dir,
    })
}

/// A metric value as JSON: integers without a fraction, everything else
/// with all the digits `f64` holds.
fn json_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw == ["--probe"] {
        println!("{}", probe::measure());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(m) => {
            eprintln!("error: {m}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    for (k, v) in sys::environment(args.seed) {
        report.note(k, v);
    }
    let outcome = match args.workload.as_str() {
        "agnews-sc" => pipeline::run(&pipeline::AGNEWS_SC, &args, &mut report),
        "serve-open" => serve::run(&args, &mut report),
        other => {
            eprintln!("error: unknown workload '{other}'\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(m) = outcome {
        eprintln!("error: {m}");
        return ExitCode::FAILURE;
    }
    if args.trace {
        match probe::median_factor(stats::MIN_MEDIAN_SAMPLES) {
            Ok(f) => report.metric("host.speed_factor", f, "ratio"),
            Err(m) => {
                eprintln!("error: {m}");
                return ExitCode::FAILURE;
            }
        }
    }
    if report.attempted == 0 {
        eprintln!("error: the run attempted no operation");
        return ExitCode::FAILURE;
    }
    let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if let Err(m) = matches_catalogue(&report.metrics, catalogue) {
        eprintln!("error: {m}");
        return ExitCode::FAILURE;
    }
    if let Some((name, _, _)) = report.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("error: metric {name} is not a finite number");
        return ExitCode::FAILURE;
    }

    let mode = if args.trace { "traced" } else { "untraced" };
    println!("e2ebench {} seed={} {mode}", args.workload, args.seed);
    for (k, v) in &report.record {
        println!("  {k:<28} {v}");
    }
    for p in &report.problems {
        println!("  FAILED: {p}");
    }
    for (name, value, unit) in &report.metrics {
        println!("  {name:<28} {} {unit}", json_number(*value));
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(name),
                json_number(*value),
                json_string(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_benchmark_command_line_parses() {
        let a = args(&[
            "--workload",
            "agnews-sc",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, "agnews-sc");
        assert_eq!(a.seed, 7);
        assert!(a.trace);
        assert!(args(&["--workload", "x", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&["--bogus", "1"]).is_err());
    }

    #[test]
    fn benchmark_json_lists_exactly_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).unwrap();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for workload in ["agnews-sc", "serve-open"] {
            assert!(json.contains(&format!("{{\"name\": \"{workload}\"")));
        }
        let names = json.matches("\"name\":").count();
        assert_eq!(names, 2 + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn an_operation_with_two_missed_checks_fails_once() {
        let mut report = Report::default();
        let mut checks = Checks::default();
        checks.check(false, || "cost differs".into());
        checks.check(false, || "digest differs".into());
        checks.check(true, || unreachable!());
        report.settle(checks);
        report.settle(Checks::default());
        assert_eq!((report.attempted, report.failed), (2, 1));
        assert_eq!(report.problems.len(), 2);
        assert_eq!(report.success_rate(), 0.5);
        assert_eq!(Report::default().success_rate(), 0.0);
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_number(3.0), "3");
        assert_eq!(json_number(0.123456789012), "0.123456789012");
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
    }
}
