//! The `serve-open` workload: the serve daemon under an open-loop
//! arrival schedule.
//!
//! The release CLI starts the daemon (`serve start`, Unix socket, two
//! slots). One client process holds two connections. On the first it
//! sends one submit per tenant when the schedule says, without waiting
//! for the reply (a reader thread collects the replies in order). On the
//! second it polls single-job `status` at a fixed rate. The open-loop
//! session ends with a full `status` listing and `drain`. Its wall time
//! is fixed by the arrival schedule, so it yields latencies, not
//! `wall_norm_s`.
//!
//! An untraced run then times closed bursts on a second, long-lived
//! daemon: each burst is a fixed backlog of the same mix written at
//! once, and `wall_norm_s` is the median time from a burst's first
//! submit until the poller has seen all of its jobs settled, at
//! reference host speed.
//!
//! Jobs are mostly tiny Youtube/SMS Base jobs plus a Zipfian tail of
//! larger SC/KATE jobs. Budgets are zero, shoestring or ample. Each
//! tenant submits one job, so no job's outcome or cost depends on when
//! it arrived; an in-process `Service` over the distinct job specs gives
//! the expected outcome of every job.

use crate::pipeline::StageClock;
use crate::probe::HostClock;
use crate::stats::{median, tail};
use crate::{sys, Args, Checks, Report};
use datasculpt::obs::schema::{parse_object, JsonValue};
use datasculpt::prelude::*;
use datasculpt::serve::job::{JobSpec, JobStatus};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Execution slots of the daemon.
const SLOTS: &str = "2";

/// Offered load in jobs per second: a quarter to a half of what the
/// daemon completes with a standing backlog of this job mix on a 2-core
/// host, depending on the host's speed at the time.
const RATE_PER_S: f64 = 30.0;

/// Share of `--seconds` over which open-loop jobs arrive; the rest is
/// for the closed bursts.
const ARRIVAL_SHARE: f64 = 0.3;

/// Closed bursts per untraced run; `wall_norm_s` is the median of their
/// drain times.
const BURSTS: usize = 7;
const _: () = assert!(BURSTS >= crate::stats::MIN_MEDIAN_SAMPLES);

/// Blocks of the mix in each burst's backlog.
const BURST_BLOCKS: usize = 8;

/// The poller's fixed period.
const POLL_PERIOD: Duration = Duration::from_millis(2);

/// A run whose generator sent any submit later than this is invalid.
const GEN_LATE_BOUND_MS: f64 = 50.0;

/// Throwaway daemon start-ups per run; `setup_s` is the median of these
/// and of the open-loop session's and the bursts' own.
const SETUP_SPAWNS: usize = 13;
const _: () = assert!(SETUP_SPAWNS + 1 >= crate::stats::MIN_MEDIAN_SAMPLES);

/// A budget no job in the mix can exhaust (one thousand dollars).
const AMPLE: u128 = 1_000_000_000_000;

/// Too little for even one iteration: admitted, billed once, paused.
const SHOESTRING: u128 = 1_000;

/// Distinct pipeline seeds per job class, so specs repeat across tenants
/// and the daemon's dataset cache sees both misses and hits.
const SEED_POOL: u64 = 4;

/// One kind of job in the mix.
#[derive(Clone, Copy)]
struct Class {
    dataset: &'static str,
    config: &'static str,
    scale: &'static str,
    queries: u64,
}

const fn class(
    dataset: &'static str,
    config: &'static str,
    scale: &'static str,
    queries: u64,
) -> Class {
    Class {
        dataset,
        config,
        scale,
        queries,
    }
}

/// Every aligned block of 32 jobs holds exactly this mix (the seed only
/// orders it within the block): 25 tiny Base jobs with Zipfian query
/// counts, then a Zipfian tail of larger SC and KATE jobs.
const MIX: [Class; 32] = [
    class("youtube", "base", "0.1", 1),
    class("youtube", "base", "0.1", 1),
    class("youtube", "base", "0.1", 1),
    class("youtube", "base", "0.1", 1),
    class("youtube", "base", "0.1", 1),
    class("youtube", "base", "0.1", 1),
    class("youtube", "base", "0.1", 2),
    class("youtube", "base", "0.1", 2),
    class("youtube", "base", "0.1", 2),
    class("youtube", "base", "0.1", 3),
    class("youtube", "base", "0.1", 3),
    class("youtube", "base", "0.1", 4),
    class("youtube", "base", "0.1", 5),
    class("sms", "base", "0.1", 1),
    class("sms", "base", "0.1", 1),
    class("sms", "base", "0.1", 1),
    class("sms", "base", "0.1", 1),
    class("sms", "base", "0.1", 1),
    class("sms", "base", "0.1", 2),
    class("sms", "base", "0.1", 2),
    class("sms", "base", "0.1", 2),
    class("sms", "base", "0.1", 3),
    class("sms", "base", "0.1", 3),
    class("sms", "base", "0.1", 4),
    class("sms", "base", "0.1", 5),
    class("youtube", "sc", "0.2", 5),
    class("youtube", "sc", "0.2", 5),
    class("youtube", "sc", "0.2", 5),
    class("sms", "kate", "0.2", 5),
    class("sms", "kate", "0.2", 5),
    class("agnews", "sc", "0.02", 5),
    class("imdb", "kate", "0.05", 5),
];

/// What a job asks for; equal specs with equal budgets must end equal.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Spec {
    dataset: &'static str,
    config: &'static str,
    scale: &'static str,
    queries: u64,
    seed: u64,
    budget: u128,
}

impl Spec {
    fn request(&self, tenant: String) -> JobRequest {
        JobRequest {
            tenant,
            dataset: self.dataset.into(),
            config: self.config.into(),
            model: "gpt-3.5".into(),
            seed: self.seed,
            scale_bits: self.scale.parse::<f64>().unwrap_or(1.0).to_bits(),
            queries: self.queries,
            budget_nanousd: self.budget,
        }
    }

    fn submit_line(&self, tenant: &str) -> String {
        format!(
            "{{\"op\":\"submit\",\"tenant\":\"{tenant}\",\"dataset\":\"{}\",\"config\":\"{}\",\
             \"model\":\"gpt-3.5\",\"seed\":{},\"scale\":\"{}\",\"queries\":{},\
             \"budget_nanousd\":{}}}",
            self.dataset, self.config, self.seed, self.scale, self.queries, self.budget
        )
    }

    fn job_spec(&self) -> JobSpec {
        let r = self.request(String::new());
        JobSpec {
            id: 0,
            tenant: r.tenant,
            dataset: r.dataset,
            config: r.config,
            model: r.model,
            seed: r.seed,
            scale_bits: r.scale_bits,
            queries: r.queries,
        }
    }
}

/// One scheduled submit.
struct Job {
    tenant: String,
    spec: Spec,
    due: Duration,
}

/// SplitMix64: the workload's only randomness, fully set by the seed.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        // Modulo bias is irrelevant at these sizes.
        self.next() % n.max(1)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The budget of the `i`-th tenant of a block before the shuffle: one
/// zero-budget and one shoestring tenant in every 16.
fn budget(i: usize) -> u128 {
    match i % 16 {
        0 => 0,
        1 => SHOESTRING,
        _ => AMPLE,
    }
}
const _: () = assert!(MIX.len().is_multiple_of(16));

/// `blocks` aligned blocks of specs. Each block holds every class of
/// `MIX` once and its share of zero and shoestring budgets; `rng` orders
/// the classes and places the budgets within the block. The `k`-th job
/// of each class runs pipeline seed `1 + k mod SEED_POOL`, so every
/// workload seed submits the same multiset of pipeline runs; only which
/// of them get the zero and shoestring budgets follows the seed.
fn mixed_specs(rng: &mut SplitMix, blocks: usize) -> Vec<Spec> {
    let mut seen: BTreeMap<(&str, &str, &str, u64), u64> = BTreeMap::new();
    let mut out = Vec::with_capacity(blocks * MIX.len());
    for _ in 0..blocks {
        let mut classes = MIX;
        rng.shuffle(&mut classes);
        let mut budgets: [u128; MIX.len()] = std::array::from_fn(budget);
        rng.shuffle(&mut budgets);
        for (c, budget) in classes.into_iter().zip(budgets) {
            let k = seen
                .entry((c.dataset, c.config, c.scale, c.queries))
                .or_default();
            *k += 1;
            out.push(Spec {
                dataset: c.dataset,
                config: c.config,
                scale: c.scale,
                queries: c.queries,
                seed: 1 + *k % SEED_POOL,
                budget,
            });
        }
    }
    out
}

/// The open-loop schedule for one run: whole blocks of the mix, evenly
/// spaced arrivals with a seeded jitter of a quarter gap.
fn schedule(seed: u64, seconds: f64) -> Vec<Job> {
    let wanted = RATE_PER_S * seconds * ARRIVAL_SHARE;
    let blocks = ((wanted / MIX.len() as f64).ceil() as usize).max(1);
    let mut rng = SplitMix(seed ^ 0x5e7e_0be0_0da7_a5c0);
    let gap = 1.0 / RATE_PER_S;
    mixed_specs(&mut rng, blocks)
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            let jitter = (rng.unit() - 0.5) * 0.5;
            Job {
                tenant: format!("t{i:05}"),
                spec,
                due: Duration::from_secs_f64((i as f64 + 0.5 + jitter) * gap),
            }
        })
        .collect()
}

/// The closed bursts of one run: `BURSTS` backlogs of `BURST_BLOCKS`
/// blocks of the mix each, all due at once.
fn bursts(seed: u64) -> Vec<Vec<Job>> {
    let mut rng = SplitMix(seed ^ 0xb0a5_7b0a_57b0_a57b);
    (0..BURSTS)
        .map(|b| {
            mixed_specs(&mut rng, BURST_BLOCKS)
                .into_iter()
                .enumerate()
                .map(|(i, spec)| Job {
                    tenant: format!("b{b}-{i:04}"),
                    spec,
                    due: Duration::ZERO,
                })
                .collect()
        })
        .collect()
}

/// A job's final status, as the daemon reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Outcome {
    state: String,
    cost_nanousd: u128,
    iterations: u128,
    digest: String,
}

type Fields = BTreeMap<String, JsonValue>;

fn fields(line: &str) -> Option<Fields> {
    parse_object(line.trim_end())
        .ok()
        .map(|v| v.into_iter().collect())
}

fn uint(f: &Fields, key: &str) -> Option<u128> {
    match f.get(key) {
        Some(JsonValue::UInt(n)) => Some(*n),
        _ => None,
    }
}

fn text<'a>(f: &'a Fields, key: &str) -> Option<&'a str> {
    match f.get(key) {
        Some(JsonValue::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn ok(f: &Fields) -> bool {
    matches!(f.get("ok"), Some(JsonValue::Bool(true)))
}

fn outcome(f: &Fields) -> Option<Outcome> {
    Some(Outcome {
        state: text(f, "state")?.to_string(),
        cost_nanousd: uint(f, "cost_nanousd")?,
        iterations: uint(f, "iterations")?,
        digest: text(f, "digest")?.to_string(),
    })
}

/// States after which the client stops polling a job. `paused` is final
/// here: no budget top-up ever arrives.
fn settled(state: &str) -> bool {
    matches!(
        state,
        "completed" | "failed" | "cancelled" | "rejected" | "paused"
    )
}

/// A running daemon, killed and reaped if dropped before `drain`.
struct Daemon {
    child: Child,
    socket: PathBuf,
    state: PathBuf,
    started: Instant,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.child.kill().ok();
        }
        self.child.wait().ok();
    }
}

/// One line-oriented client connection.
struct Conn {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Conn {
    fn open(socket: &Path) -> std::io::Result<Conn> {
        let writer = UnixStream::connect(socket)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    fn recv(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(line)
    }

    fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        self.recv()
    }
}

/// Start a daemon in `dir` and wait until it answers `ping`; returns it
/// with the seconds that took.
fn spawn(cli: &Path, dir: &Path, trace: Option<&Path>) -> Result<(Daemon, f64), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let socket = dir.join("serve.sock");
    let state = dir.join("state");
    let mut cmd = Command::new(cli);
    cmd.arg("serve")
        .arg("start")
        .arg("--socket")
        .arg(&socket)
        .arg("--state")
        .arg(&state)
        .arg("--slots")
        .arg(SLOTS)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(path) = trace {
        cmd.arg("--trace").arg(path);
    }
    let started = Instant::now();
    let child = cmd
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", cli.display()))?;
    let mut daemon = Daemon {
        child,
        socket,
        state,
        started,
    };
    loop {
        if let Ok(mut conn) = Conn::open(&daemon.socket) {
            if conn
                .request("{\"op\":\"ping\"}")
                .ok()
                .and_then(|l| fields(&l))
                .is_some_and(|f| ok(&f))
            {
                return Ok((daemon, started.elapsed().as_secs_f64()));
            }
        }
        if let Ok(Some(status)) = daemon.child.try_wait() {
            return Err(format!("daemon exited before answering ping: {status}"));
        }
        if started.elapsed() > Duration::from_secs(30) {
            return Err("daemon did not answer ping within 30 s".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Send `drain` and wait for the daemon to exit; returns the drain reply.
fn drain(daemon: Daemon, conn: &mut Conn) -> Result<Fields, String> {
    let reply = conn
        .request("{\"op\":\"drain\"}")
        .map_err(|e| format!("drain failed: {e}"))?;
    wait_exit(daemon)?;
    fields(&reply).ok_or_else(|| format!("unparseable drain reply {reply:?}"))
}

/// Wait for a drained daemon to exit.
fn wait_exit(mut daemon: Daemon) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match daemon.child.try_wait() {
            Ok(Some(_)) => break,
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(2)),
            _ => return Err("daemon did not exit after drain".into()),
        }
    }
    Ok(())
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// What one open-loop session observed.
#[derive(Default)]
struct Session {
    setup_s: f64,
    /// Per job: the id the daemon assigned.
    ids: Vec<Option<u64>>,
    /// Per job: its settled status and the latency until the poller saw it.
    settled: Vec<Option<(Outcome, f64)>>,
    status_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// From the first due submit until the last job settled.
    wall_s: f64,
    peak_rss_mb: f64,
    cpu_per_wall: f64,
    /// The daemon's full `status` listing after the last job settled.
    listing: BTreeMap<u64, Outcome>,
    drained: Fields,
    state_dir: PathBuf,
    problems: Vec<String>,
}

/// A submit's reply, as the reader thread records it.
#[derive(Clone, Copy, PartialEq)]
enum Reply {
    Pending,
    Job(u64),
    Refused,
}

/// Run the schedule once against a fresh daemon in `dir`.
fn session(args: &Args, jobs: &[Job], dir: &Path, trace: Option<&Path>) -> Result<Session, String> {
    let (mut daemon, setup_s) = spawn(&args.cli, dir, trace)?;
    let mut out = Session {
        setup_s,
        ids: vec![None; jobs.len()],
        settled: vec![None; jobs.len()],
        state_dir: daemon.state.clone(),
        ..Session::default()
    };
    let Conn {
        mut writer,
        mut reader,
    } = Conn::open(&daemon.socket).map_err(|e| format!("connect: {e}"))?;
    let mut poll = Conn::open(&daemon.socket).map_err(|e| format!("connect: {e}"))?;
    let replies = Mutex::new(vec![Reply::Pending; jobs.len()]);
    let hard_stop = Duration::from_secs_f64(args.seconds * 3.0 + 60.0);
    let t0 = Instant::now() + Duration::from_millis(20);

    let (late_ms, reply_problems) = std::thread::scope(|s| {
        let generator = s.spawn(move || {
            let mut late = Vec::with_capacity(jobs.len());
            for job in jobs {
                let due = t0 + job.due;
                sleep_until(due);
                late.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                let line = job.spec.submit_line(&job.tenant) + "\n";
                if writer.write_all(line.as_bytes()).is_err() {
                    break;
                }
            }
            late
        });
        let replies = &replies;
        let reader = s.spawn(move || {
            let mut problems = Vec::new();
            for i in 0..jobs.len() {
                let mut line = String::new();
                if matches!(reader.read_line(&mut line), Ok(0) | Err(_)) {
                    problems.push(format!("submit replies stopped at job {i}"));
                    break;
                }
                let id = fields(&line).filter(ok).and_then(|f| uint(&f, "job"));
                let reply = match id.and_then(|id| u64::try_from(id).ok()) {
                    Some(id) => Reply::Job(id),
                    None => {
                        problems.push(format!("submit {i} refused: {}", line.trim_end()));
                        Reply::Refused
                    }
                };
                if let Ok(mut r) = replies.lock() {
                    r[i] = reply;
                }
            }
            problems
        });

        // The poller: one single-job status per tick, round-robin over the
        // jobs not yet settled, each timed from its tick's due time.
        let mut outstanding: VecDeque<usize> = VecDeque::new();
        let mut known = 0usize;
        let mut last_id: Option<u64> = None;
        let mut remaining = jobs.len();
        let mut tick = t0;
        while remaining > 0 && t0.elapsed() < hard_stop {
            let due = tick;
            tick += POLL_PERIOD;
            sleep_until(due);
            if let Ok(r) = replies.lock() {
                while known < r.len() && r[known] != Reply::Pending {
                    match r[known] {
                        Reply::Job(id) => {
                            out.ids[known] = Some(id);
                            outstanding.push_back(known);
                        }
                        _ => remaining -= 1,
                    }
                    known += 1;
                }
            }
            let target = outstanding.pop_front();
            let Some(id) = target.and_then(|i| out.ids[i]).or(last_id) else {
                continue;
            };
            let reply = poll.request(&format!("{{\"op\":\"status\",\"job\":{id}}}"));
            let seen = Instant::now();
            out.status_ms
                .push(seen.saturating_duration_since(due).as_secs_f64() * 1e3);
            let Ok(reply) = reply else {
                out.problems.push("status poll failed".into());
                break;
            };
            last_id = Some(id);
            let Some(i) = target else { continue };
            match fields(&reply).filter(ok).and_then(|f| outcome(&f)) {
                Some(o) if settled(&o.state) => {
                    let submit_due = t0 + jobs[i].due;
                    let ms = seen.saturating_duration_since(submit_due).as_secs_f64() * 1e3;
                    out.settled[i] = Some((o, ms));
                    remaining -= 1;
                }
                Some(_) => outstanding.push_back(i),
                None => {
                    out.problems
                        .push(format!("bad status reply {}", reply.trim_end()));
                    outstanding.push_back(i);
                }
            }
        }
        out.wall_s = t0.elapsed().as_secs_f64();
        if remaining > 0 {
            out.problems.push(format!(
                "{remaining} jobs never settled before the hard stop"
            ));
            // Unblocks the generator and the reader.
            daemon.child.kill().ok();
        }
        let late = generator.join().unwrap_or_default();
        let problems = reader.join().unwrap_or_default();
        (late, problems)
    });
    out.late_ms = late_ms;
    out.problems.extend(reply_problems);

    let pid = daemon.child.id();
    out.peak_rss_mb = sys::peak_rss_mb(&pid.to_string()).unwrap_or(0.0);
    out.cpu_per_wall = sys::cpu_seconds(&pid.to_string()) / daemon.started.elapsed().as_secs_f64();
    let header = poll
        .request("{\"op\":\"status\"}")
        .map_err(|e| format!("status listing failed: {e}"))?;
    let count = fields(&header).and_then(|f| uint(&f, "jobs")).unwrap_or(0);
    for _ in 0..count {
        let line = poll
            .recv()
            .map_err(|e| format!("status listing cut short: {e}"))?;
        let f = fields(&line).ok_or_else(|| format!("bad listing line {line:?}"))?;
        if let (Some(id), Some(o)) = (uint(&f, "job"), outcome(&f)) {
            out.listing.insert(id as u64, o);
        }
    }
    out.drained = drain(daemon, &mut poll)?;
    Ok(out)
}

fn outcome_of(s: &JobStatus) -> Outcome {
    Outcome {
        state: s.state.to_string(),
        cost_nanousd: s.cost_nanousd,
        iterations: u128::from(s.iterations),
        digest: format!("{:016x}", s.digest),
    }
}

/// The expected outcome of every distinct spec, from an in-process
/// `Service` that runs each once (one tenant per spec).
fn reference<'a>(
    specs: impl Iterator<Item = &'a Spec>,
    dir: &Path,
) -> Result<BTreeMap<Spec, Outcome>, String> {
    let distinct: BTreeSet<&Spec> = specs.collect();
    let mut service = Service::open(
        dir,
        ServeConfig {
            slots: 2,
            checkpoint_every: 1,
        },
    )
    .map_err(|e| format!("reference service: {e}"))?;
    let mut ids = Vec::new();
    for (k, spec) in distinct.into_iter().enumerate() {
        let status = service
            .submit(spec.request(format!("ref{k:05}")))
            .map_err(|e| format!("reference submit: {e}"))?;
        ids.push((spec.clone(), status.spec.id));
    }
    service
        .drain()
        .map_err(|e| format!("reference drain: {e}"))?;
    let mut out = BTreeMap::new();
    for (spec, id) in ids {
        let s = service.status(id).ok_or("reference job vanished")?;
        out.insert(spec, outcome_of(s));
    }
    Ok(out)
}

/// A stopped daemon's durable registry, reopened in-process.
struct Registry {
    /// Per job id: its final status.
    jobs: BTreeMap<u64, Outcome>,
    /// Per tenant: what its account has spent.
    spent: BTreeMap<String, u128>,
    /// The sum of every job's cost.
    global: u128,
}

fn reopen(state_dir: &Path) -> Result<Registry, String> {
    let svc = Service::open(state_dir, ServeConfig::default())
        .map_err(|e| format!("cannot reopen daemon state: {e}"))?;
    let mut reg = Registry {
        jobs: BTreeMap::new(),
        spent: BTreeMap::new(),
        global: 0,
    };
    for j in svc.jobs() {
        reg.global += j.cost_nanousd;
        let tenant = &j.spec.tenant;
        reg.spent
            .insert(tenant.clone(), svc.tenant_account(tenant).spent_nanousd());
        reg.jobs.insert(j.spec.id, outcome_of(j));
    }
    Ok(reg)
}

/// Whether a drain report shows that `drain` itself ran no round.
fn idle(drained: &Fields) -> bool {
    [
        "admitted",
        "rejected",
        "completed",
        "paused",
        "cancelled",
        "failed",
    ]
    .iter()
    .all(|k| uint(drained, k) == Some(0))
}

/// The registry-wide audit: the tenants' spend sums to the global spend.
fn audit_spend(audit: &mut Checks, registry: &Result<Registry, String>) {
    match registry {
        Err(e) => audit.fail(e.clone()),
        Ok(reg) => {
            let tenant_sum: u128 = reg.spent.values().sum();
            audit.check(tenant_sum == reg.global, || {
                format!("tenant spend {tenant_sum} != global spend {}", reg.global)
            });
        }
    }
}

/// One job's checks: it settled as the reference did, and its tenant's
/// account spent exactly the job's cost.
fn check_job(
    job: &Job,
    got: Option<&Outcome>,
    expected: &BTreeMap<Spec, Outcome>,
    registry: &Result<Registry, String>,
) -> Checks {
    let mut checks = Checks::default();
    let Some(got) = got else {
        checks.fail(format!("job {} never settled", job.tenant));
        return checks;
    };
    let want = expected.get(&job.spec);
    checks.check(want == Some(got), || {
        format!(
            "job {} ({:?}): got {got:?}, expected {want:?}",
            job.tenant, job.spec
        )
    });
    let spent = registry
        .as_ref()
        .ok()
        .and_then(|r| r.spent.get(&job.tenant).copied());
    checks.check(spent == Some(got.cost_nanousd), || {
        format!(
            "tenant {} spent {spent:?}, its job cost {}",
            job.tenant, got.cost_nanousd
        )
    });
    checks
}

/// Check an open-loop session against the reference and its own daemon's
/// records: one operation per job, and one for the session as a whole.
fn check(report: &mut Report, jobs: &[Job], s: &Session, expected: &BTreeMap<Spec, Outcome>) {
    let registry = reopen(&s.state_dir);
    let mut tally: BTreeMap<String, u64> = BTreeMap::new();
    for (i, job) in jobs.iter().enumerate() {
        let got = s.settled[i].as_ref().map(|(o, _)| o);
        let mut checks = check_job(job, got, expected, &registry);
        if let Some(got) = got {
            *tally.entry(got.state.clone()).or_default() += 1;
            let listed = s.ids[i].and_then(|id| s.listing.get(&id));
            checks.check(listed == Some(got), || {
                format!(
                    "job {}: listing says {listed:?}, poller saw {got:?}",
                    job.tenant
                )
            });
        }
        report.settle(checks);
    }

    let mut audit = Checks::default();
    for p in &s.problems {
        audit.fail(p.clone());
    }
    let mut listed: BTreeMap<String, u64> = BTreeMap::new();
    for o in s.listing.values() {
        *listed.entry(o.state.clone()).or_default() += 1;
    }
    audit.check(listed == tally, || {
        format!("client tally {tally:?} != daemon listing {listed:?}")
    });
    // Everything settled before `drain`, so drain itself had no work left.
    audit.check(ok(&s.drained) && idle(&s.drained), || {
        format!("drain reported leftover work: {:?}", s.drained)
    });
    audit_spend(&mut audit, &registry);
    report.settle(audit);
}

/// What the closed bursts observed, all on one daemon.
struct Bursts {
    setup_s: f64,
    /// Per burst: from its first submit until the poller saw its last job
    /// settled.
    drain_s: Vec<f64>,
    /// Per burst: `drain_s` at reference host speed (see `probe`).
    norm_drain_s: Vec<f64>,
    /// Median host factor of the probes between the bursts.
    host_factor: f64,
    /// Per burst, per job: the id the daemon assigned.
    ids: Vec<Vec<Option<u64>>>,
    drained: Fields,
    state_dir: PathBuf,
    problems: Vec<String>,
}

/// Run the closed bursts one after another on one daemon in `dir`. Each
/// burst's submits are written at once; the burst ends when the poller,
/// walking the burst's jobs in order, has seen every one settled. The
/// host is probed before the first burst and after each one, while the
/// daemon is idle. The run ends with `drain`, which then finds no work.
fn bursts_on_one_daemon(args: &Args, backlogs: &[Vec<Job>], dir: &Path) -> Result<Bursts, String> {
    let (daemon, setup_s) = spawn(&args.cli, dir, None)?;
    let mut out = Bursts {
        setup_s,
        drain_s: Vec::with_capacity(backlogs.len()),
        norm_drain_s: Vec::with_capacity(backlogs.len()),
        host_factor: 0.0,
        ids: Vec::with_capacity(backlogs.len()),
        drained: Fields::new(),
        state_dir: daemon.state.clone(),
        problems: Vec::new(),
    };
    let mut conn = Conn::open(&daemon.socket).map_err(|e| format!("connect: {e}"))?;
    let mut poll = Conn::open(&daemon.socket).map_err(|e| format!("connect: {e}"))?;
    let hard_stop = Duration::from_secs_f64(args.seconds * 3.0 + 60.0);
    let mut host = HostClock::start()?;
    for backlog in backlogs {
        let mut lines = String::new();
        for job in backlog {
            lines.push_str(&job.spec.submit_line(&job.tenant));
            lines.push('\n');
        }
        let t = Instant::now();
        conn.writer
            .write_all(lines.as_bytes())
            .map_err(|e| format!("burst submit: {e}"))?;
        let mut ids = Vec::with_capacity(backlog.len());
        for job in backlog {
            let line = conn
                .recv()
                .map_err(|e| format!("burst replies cut short: {e}"))?;
            let id = fields(&line).filter(ok).and_then(|f| uint(&f, "job"));
            let id = id.and_then(|id| u64::try_from(id).ok());
            if id.is_none() {
                out.problems.push(format!(
                    "submit {} refused: {}",
                    job.tenant,
                    line.trim_end()
                ));
            }
            ids.push(id);
        }
        for &id in ids.iter().flatten() {
            loop {
                let reply = poll
                    .request(&format!("{{\"op\":\"status\",\"job\":{id}}}"))
                    .map_err(|e| format!("burst status poll: {e}"))?;
                match fields(&reply).filter(ok).and_then(|f| outcome(&f)) {
                    Some(o) if settled(&o.state) => break,
                    Some(_) if t.elapsed() < hard_stop => std::thread::sleep(POLL_PERIOD),
                    Some(_) => return Err(format!("burst job {id} never settled")),
                    None => {
                        out.problems
                            .push(format!("bad status reply {}", reply.trim_end()));
                        break;
                    }
                }
            }
        }
        let drain_s = t.elapsed().as_secs_f64();
        out.drain_s.push(drain_s);
        out.norm_drain_s.push(host.normalise(drain_s)?);
        out.ids.push(ids);
    }
    out.host_factor = host.median().ok_or("too few host probes")?;
    out.drained = drain(daemon, &mut conn)?;
    Ok(out)
}

/// Check the bursts: one operation per job, and one for the bursts'
/// daemon as a whole. Returns, per burst, the jobs that settled as the
/// reference did.
fn check_bursts(
    report: &mut Report,
    backlogs: &[Vec<Job>],
    b: &Bursts,
    expected: &BTreeMap<Spec, Outcome>,
) -> Vec<usize> {
    let registry = reopen(&b.state_dir);
    let mut good = Vec::with_capacity(backlogs.len());
    for (backlog, ids) in backlogs.iter().zip(&b.ids) {
        let mut n = 0;
        for (job, id) in backlog.iter().zip(ids) {
            let got = registry
                .as_ref()
                .ok()
                .zip(*id)
                .and_then(|(r, id)| r.jobs.get(&id));
            let checks = check_job(job, got, expected, &registry);
            n += usize::from(checks.passed());
            report.settle(checks);
        }
        good.push(n);
    }

    let mut audit = Checks::default();
    for p in &b.problems {
        audit.fail(p.clone());
    }
    // Every burst settled before `drain`, so drain itself had no work left.
    audit.check(ok(&b.drained) && idle(&b.drained), || {
        format!("drain reported leftover work: {:?}", b.drained)
    });
    audit_spend(&mut audit, &registry);
    report.settle(audit);
    good
}

/// The per-layer serve metrics on a workload where the daemon never runs.
pub fn idle_serve_layers(report: &mut Report) {
    for (name, unit) in [
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
    ] {
        report.metric(name, 0.0, unit);
    }
}

/// Records and bytes of every framed log under the daemon's state dir.
fn store_size(dir: &Path) -> (u64, u64) {
    let mut records = 0u64;
    let mut bytes = 0u64;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if let Ok(data) = std::fs::read(&path) {
                bytes += data.len() as u64;
                records += datasculpt::store::framing::scan_records(&data)
                    .records
                    .len() as u64;
            }
        }
    }
    (records, bytes)
}

fn job_latencies(s: &Session) -> Vec<f64> {
    s.settled.iter().flatten().map(|(_, ms)| *ms).collect()
}

/// Run the serve-open workload.
pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let root = args.work_dir.join(format!("serve-{}", std::process::id()));
    std::fs::create_dir_all(&root).map_err(|e| format!("cannot create {}: {e}", root.display()))?;
    let result = run_in(args, report, &root);
    std::fs::remove_dir_all(&root).ok();
    // Leave no empty work dir behind either.
    std::fs::remove_dir(&args.work_dir).ok();
    result
}

fn run_in(args: &Args, report: &mut Report, root: &Path) -> Result<(), String> {
    let jobs = schedule(args.seed, args.seconds);
    let ram = sys::is_ram_backed(root);
    report.note("workload", "serve-open");
    report.note(
        "input",
        format!(
            "{} jobs, one per tenant, open loop at {RATE_PER_S}/s, {SLOTS} slots, poll every {} ms",
            jobs.len(),
            POLL_PERIOD.as_millis()
        ),
    );
    report.note("state_dir_fs", sys::fs_type(root));
    report.note("state_dir_ram_backed", ram);
    if !ram {
        report.note(
            "FLAG",
            "serve state is on a disk-backed filesystem: latencies include its fsync cost",
        );
        eprintln!(
            "warning: serve state dir is not RAM-backed ({})",
            sys::fs_type(root)
        );
    }

    let mut setups = Vec::new();
    for k in 0..SETUP_SPAWNS {
        let dir = root.join(format!("setup-{k}"));
        let (daemon, secs) = spawn(&args.cli, &dir, None)?;
        setups.push(secs);
        let mut conn = Conn::open(&daemon.socket).map_err(|e| format!("connect: {e}"))?;
        drain(daemon, &mut conn)?;
    }

    let main = session(args, &jobs, &root.join("main"), None)?;
    setups.push(main.setup_s);
    // End-to-end timing comes from closed bursts, so only untraced runs
    // need them.
    let backlogs = if args.trace {
        Vec::new()
    } else {
        bursts(args.seed)
    };
    let all_specs = jobs
        .iter()
        .chain(backlogs.iter().flatten())
        .map(|j| &j.spec);
    let expected = reference(all_specs, &root.join("reference"))?;
    std::fs::remove_dir_all(root.join("reference")).ok();
    check(report, &jobs, &main, &expected);

    let latencies = job_latencies(&main);
    let count = |state: &str| {
        main.settled
            .iter()
            .flatten()
            .filter(|(o, _)| o.state == state)
            .count()
    };
    let late_max = main.late_ms.iter().copied().fold(0.0, f64::max);
    report.note("run_valid", late_max <= GEN_LATE_BOUND_MS);
    if late_max > GEN_LATE_BOUND_MS {
        report.note(
            "INVALID",
            format!("generator fell {late_max:.1} ms behind (bound {GEN_LATE_BOUND_MS} ms)"),
        );
        eprintln!("warning: serve-open run invalid: generator {late_max:.1} ms late");
    }
    report.note("gen_late_p50_ms", median(&main.late_ms).unwrap_or(0.0));
    report.note("gen_late_max_ms", late_max);
    report.note("distinct_specs", expected.len());
    let job_tail = tail(&latencies).ok_or("too few jobs for a tail")?;
    let untraced_p50 = median(&latencies).ok_or("too few jobs")?;
    report.note("job_p50_ms", untraced_p50);
    report.note(
        "job_tail_ms",
        format!(
            "{} (p{:.2} of {} jobs)",
            job_tail.value, job_tail.percentile, job_tail.samples
        ),
    );
    let status_tail = tail(&main.status_ms).ok_or("too few status polls for a tail")?;
    report.note(
        "status_tail",
        format!(
            "p{:.2} of {} polls",
            status_tail.percentile, status_tail.samples
        ),
    );

    if !args.trace {
        let total_cost: u128 = main
            .settled
            .iter()
            .flatten()
            .map(|(o, _)| o.cost_nanousd)
            .sum();
        let run = bursts_on_one_daemon(args, &backlogs, &root.join("bursts"))?;
        setups.push(run.setup_s);
        let good = check_bursts(report, &backlogs, &run, &expected);
        let drain_s = &run.drain_s;
        let goodput: Vec<f64> = good
            .iter()
            .zip(&run.norm_drain_s)
            .map(|(&n, s)| n as f64 / s)
            .collect();
        report.note(
            "bursts",
            format!(
                "{BURSTS} x {} jobs, drain_s {drain_s:?}",
                BURST_BLOCKS * MIX.len()
            ),
        );
        report.note("open_loop_wall_s", main.wall_s);
        report.note("wall_s", median(drain_s).ok_or("too few bursts")?);
        report.note("host_factor", run.host_factor);
        report.metric(
            "wall_norm_s",
            median(&run.norm_drain_s).ok_or("too few bursts")?,
            "s",
        );
        let setup = median(&setups).ok_or("too few set-ups")?;
        report.note("raw_setup_s", setup);
        // Most start-ups ran before the first probe: scale their median by
        // the run's median host factor.
        report.metric("setup_s", setup / run.host_factor, "s");
        report.metric("peak_rss_mb", main.peak_rss_mb, "MiB");
        report.metric("cost_nanousd", total_cost as f64, "nUSD");
        report.metric(
            "end_metric",
            count("completed") as f64 / jobs.len() as f64,
            "ratio",
        );
        report.metric("success_rate", report.success_rate(), "ratio");
        report.metric(
            "goodput_norm_jobs_per_s",
            median(&goodput).ok_or("too few bursts")?,
            "1/s",
        );
        return Ok(());
    }

    // Traced: the same schedule again against a daemon writing a trace.
    let trace_path = root.join("serve-trace.jsonl");
    let traced = session(args, &jobs, &root.join("traced"), Some(&trace_path))?;
    check(report, &jobs, &traced, &expected);
    let busy = job_busy_ms(&trace_path)?;
    let mut busy_ms = Vec::new();
    let mut wait_ms = Vec::new();
    let mut latency_sum = 0.0;
    let mut spans = Checks::default();
    for (i, got) in traced.settled.iter().enumerate() {
        let (Some((o, ms)), Some(id)) = (got, traced.ids[i]) else {
            continue;
        };
        if o.state != "completed" {
            continue;
        }
        let Some(&b) = busy.get(&id) else {
            spans.fail(format!(
                "job {id} completed without a job span in the trace"
            ));
            continue;
        };
        busy_ms.push(b);
        wait_ms.push((ms - b).max(0.0));
        latency_sum += ms;
    }
    // The trace itself is one more operation: every completed job has
    // its span.
    report.settle(spans);
    let traced_p50 = median(&job_latencies(&traced)).ok_or("too few traced jobs")?;

    layer_replay(report, &jobs, &expected)?;
    report.metric("exec.cpu_per_wall", main.cpu_per_wall, "ratio");
    let (records, bytes) = store_size(&main.state_dir);
    report.metric("store.records", records as f64, "count");
    report.metric("store.bytes", bytes as f64, "bytes");
    let p50 = |v: &[f64]| median(v).ok_or("too few samples for a median");
    let tail_of = |v: &[f64]| tail(v).map(|t| t.value).ok_or("too few samples for a tail");
    report.metric("serve.job_p50_ms", untraced_p50, "ms");
    report.metric("serve.job_tail_ms", job_tail.value, "ms");
    report.metric("serve.job_busy_p50_ms", p50(&busy_ms)?, "ms");
    report.metric("serve.job_busy_tail_ms", tail_of(&busy_ms)?, "ms");
    report.metric("serve.job_wait_p50_ms", p50(&wait_ms)?, "ms");
    report.metric("serve.job_wait_tail_ms", tail_of(&wait_ms)?, "ms");
    report.metric("serve.status_p50_ms", p50(&main.status_ms)?, "ms");
    report.metric("serve.status_tail_ms", status_tail.value, "ms");
    report.metric("serve.sent", main.late_ms.len() as f64, "count");
    report.metric("serve.completed", count("completed") as f64, "count");
    report.metric("serve.rejected", count("rejected") as f64, "count");
    report.metric("serve.paused", count("paused") as f64, "count");
    report.metric("serve.failed", count("failed") as f64, "count");
    let mut overdrafts = Vec::new();
    for (job, got) in jobs.iter().zip(&main.settled) {
        if let Some((o, _)) = got {
            if o.cost_nanousd > job.spec.budget {
                overdrafts.push(o.cost_nanousd - job.spec.budget);
            }
        }
    }
    report.metric("serve.overdraft_tenants", overdrafts.len() as f64, "count");
    report.metric(
        "serve.max_overdraft_nanousd",
        overdrafts.iter().copied().max().unwrap_or(0) as f64,
        "nUSD",
    );
    report.metric("serve.gen_late_ms", late_max, "ms");
    report.metric(
        "obs.trace_overhead_pct",
        100.0 * (traced_p50 / untraced_p50 - 1.0),
        "%",
    );
    report.metric(
        "obs.coverage_pct",
        if latency_sum > 0.0 {
            100.0 * busy_ms.iter().sum::<f64>() / latency_sum
        } else {
            0.0
        },
        "%",
    );
    Ok(())
}

/// Busy milliseconds per completed job from the daemon's trace: from the
/// `job_admit` that started its round to its `job` span, which the daemon
/// opens when it commits the finished job.
fn job_busy_ms(path: &Path) -> Result<BTreeMap<u64, f64>, String> {
    let trace = std::fs::read_to_string(path).map_err(|e| format!("cannot read trace: {e}"))?;
    let mut out = BTreeMap::new();
    let mut admitted_at: Option<u128> = None;
    for line in trace.lines() {
        let Some(f) = fields(line) else { continue };
        let t = uint(&f, "t_ns");
        match (text(&f, "kind"), text(&f, "counter"), text(&f, "stage")) {
            (Some("counter"), Some("job_admit"), _) => admitted_at = t,
            (Some("stage_begin"), _, Some("job")) => {
                if let (Some(t), Some(a), Some(id)) = (t, admitted_at, uint(&f, "iter")) {
                    out.insert(id as u64, t.saturating_sub(a) as f64 / 1e6);
                }
            }
            _ => {}
        }
    }
    Ok(out)
}

/// The layers inside each job, timed by calling their public functions
/// on the jobs' own inputs: one data load per distinct dataset (the
/// daemon caches loads), one index build per job that ran, and the
/// pipeline stages of each completed job.
fn layer_replay(
    report: &mut Report,
    jobs: &[Job],
    expected: &BTreeMap<Spec, Outcome>,
) -> Result<(), String> {
    let mut runs: BTreeMap<&Spec, u64> = BTreeMap::new();
    for job in jobs {
        let state = expected.get(&job.spec).map(|o| o.state.as_str());
        if matches!(state, Some("completed" | "paused")) {
            *runs.entry(&job.spec).or_default() += 1;
        }
    }
    let mut loads: BTreeMap<(&str, u64, &str), TextDataset> = BTreeMap::new();
    let mut load_s = 0.0;
    let mut setup_s = 0.0;
    let mut stages = StageClock::default();
    let mut calls = 0u64;
    let mut tokens = 0u64;
    for (spec, &n) in &runs {
        let js = spec.job_spec();
        let key = (spec.dataset, spec.seed, spec.scale);
        let dataset = match loads.entry(key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let t = Instant::now();
                let dataset = js.load_dataset()?;
                load_s += t.elapsed().as_secs_f64();
                e.insert(dataset)
            }
        };
        let config = js.pipeline_config()?;
        let t = Instant::now();
        let _ = LfSet::new(dataset, config.filters);
        setup_s += t.elapsed().as_secs_f64() * n as f64;
        if expected.get(*spec).map(|o| o.state.as_str()) != Some("completed") {
            continue;
        }
        let mut clock = StageClock::default();
        let model = js.model_id()?;
        let mut llm = SimulatedLlm::new(model, dataset.generative.clone(), spec.seed);
        let run = DataSculpt::new(dataset, config)
            .run_observed(&mut llm, &mut clock)
            .map_err(|e| format!("replay of {spec:?} failed: {e}"))?;
        stages.absorb(&clock, n);
        calls += run.ledger.calls() * n;
        tokens += run.ledger.total_usage().total() * n;
    }
    report.metric("data.load_s", load_s, "s");
    report.metric("core.setup_s", setup_s, "s");
    report.metric("core.select_s", stages.seconds(Stage::Select), "s");
    report.metric("core.prompt_s", stages.seconds(Stage::Prompt), "s");
    report.metric("core.generate_s", stages.seconds(Stage::Generate), "s");
    report.metric("core.integrate_s", stages.seconds(Stage::Integrate), "s");
    report.metric("core.lf_accept_ratio", stages.accept_ratio(), "ratio");
    report.metric(
        "core.parse_failures",
        stages.count(Counter::ParseFailure) as f64,
        "count",
    );
    // The daemon never evaluates an LF set.
    report.metric("text.tfidf_s", 0.0, "s");
    report.metric("labelmodel.fit_s", 0.0, "s");
    report.metric("labelmodel.votes", 0.0, "count");
    report.metric("endmodel.fit_s", 0.0, "s");
    report.metric("endmodel.row_epochs", 0.0, "count");
    report.metric("llm.calls", calls as f64, "count");
    report.metric("llm.tokens", tokens as f64, "count");
    report.metric(
        "llm.errors",
        stages.count(Counter::LlmError) as f64,
        "count",
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_schedule_is_a_function_of_the_seed() {
        let a = schedule(7, 10.0);
        let b = schedule(7, 10.0);
        let c = schedule(8, 10.0);
        let key = |s: &[Job]| -> Vec<(String, Spec, Duration)> {
            s.iter()
                .map(|j| (j.tenant.clone(), j.spec.clone(), j.due))
                .collect()
        };
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
    }

    /// Every aligned block of 32 specs holds `MIX` exactly once, with two
    /// zero-budget and two shoestring tenants.
    fn assert_blocks_hold_the_mix(specs: &[&Spec]) {
        assert!(specs.len().is_multiple_of(MIX.len()));
        let class_key = |c: (&'static str, &'static str, &'static str, u64)| c;
        let mut want: Vec<_> = MIX
            .iter()
            .map(|c| class_key((c.dataset, c.config, c.scale, c.queries)))
            .collect();
        want.sort_unstable();
        for block in specs.chunks(MIX.len()) {
            let mut got: Vec<_> = block
                .iter()
                .map(|s| class_key((s.dataset, s.config, s.scale, s.queries)))
                .collect();
            got.sort_unstable();
            assert_eq!(got, want);
            let with = |b: u128| block.iter().filter(|s| s.budget == b).count();
            assert_eq!((with(0), with(SHOESTRING)), (2, 2));
        }
    }

    #[test]
    fn every_block_holds_the_mix_and_only_its_order_follows_the_seed() {
        let multiset = |seed| {
            let jobs = schedule(seed, 20.0);
            assert_blocks_hold_the_mix(&jobs.iter().map(|j| &j.spec).collect::<Vec<_>>());
            let mut runs: Vec<Spec> = jobs
                .into_iter()
                .map(|j| Spec {
                    budget: 0,
                    ..j.spec
                })
                .collect();
            runs.sort();
            runs
        };
        assert_eq!(multiset(1), multiset(2));
    }

    #[test]
    fn bursts_are_whole_blocks_of_the_mix_with_their_own_tenants() {
        let a = bursts(5);
        assert_eq!(a.len(), BURSTS);
        let mut tenants = BTreeSet::new();
        for backlog in &a {
            assert_eq!(backlog.len(), BURST_BLOCKS * MIX.len());
            assert_blocks_hold_the_mix(&backlog.iter().map(|j| &j.spec).collect::<Vec<_>>());
            assert!(backlog.iter().all(|j| j.due == Duration::ZERO));
            tenants.extend(backlog.iter().map(|j| j.tenant.clone()));
        }
        assert_eq!(tenants.len(), BURSTS * BURST_BLOCKS * MIX.len());
        let specs = |b: &[Vec<Job>]| -> Vec<Vec<Spec>> {
            b.iter()
                .map(|backlog| backlog.iter().map(|j| j.spec.clone()).collect())
                .collect()
        };
        assert_eq!(specs(&a), specs(&bursts(5)));
        assert_ne!(specs(&a), specs(&bursts(6)));
    }

    #[test]
    fn arrivals_are_spread_and_one_tenant_submits_one_job() {
        let jobs = schedule(3, 20.0);
        let gap = 1.0 / RATE_PER_S;
        for w in jobs.windows(2) {
            let d = w[1].due.as_secs_f64() - w[0].due.as_secs_f64();
            assert!(d >= gap * 0.5 - 1e-9 && d <= gap * 1.5 + 1e-9, "gap {d}");
        }
        let tenants: BTreeSet<&str> = jobs.iter().map(|j| j.tenant.as_str()).collect();
        assert_eq!(tenants.len(), jobs.len());
    }

    #[test]
    fn enough_jobs_and_polls_for_every_tail() {
        // The shortest run the benchmark is configured for must still have
        // ten samples beyond each reported tail.
        let jobs = schedule(1, 10.0);
        assert!(tail(&vec![0.0; jobs.len()]).is_some());
        let polls = (10.0 * ARRIVAL_SHARE / POLL_PERIOD.as_secs_f64()) as usize;
        assert!(tail(&vec![0.0; polls]).is_some());
    }
}
