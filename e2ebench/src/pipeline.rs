//! The pipeline workload, `agnews-sc`: one DataSculpt run of 50 query
//! iterations followed by `evaluate_lf_set`, repeated for the whole run
//! on a fixed set of inputs derived from the seed.
//!
//! Untraced runs time each repetition as a whole and probe the host's
//! speed between repetitions (see `probe`). A traced run pairs an
//! untraced repetition with one in which the benchmark times each layer
//! from outside: the dataset load, `LfSet::new`, the pipeline stages (from
//! a `RunObserver`), and the label-model, TF-IDF and end-model calls that
//! `evaluate_lf_set` makes, called here one by one on the same inputs.

use crate::probe::HostClock;
use crate::stats::{median, MIN_MEDIAN_SAMPLES};
use crate::{sys, Args, Checks, Report};
use datasculpt::core::eval::lf_stats_from_matrix;
use datasculpt::endmodel::logreg::SparseRow;
use datasculpt::prelude::*;
use datasculpt::text::HashedTfIdf;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A pipeline workload: dataset, scale, DataSculpt variant and threads.
pub struct PipelineSpec {
    /// Workload name.
    pub name: &'static str,
    /// Which synthetic corpus.
    pub dataset: DatasetName,
    /// Share of the Table 1 split sizes to generate.
    pub scale: f64,
    /// The DataSculpt variant, from the seed.
    pub config: fn(u64) -> DataSculptConfig,
    /// Worker threads for the pipeline, the LLM batches and evaluation.
    pub threads: usize,
    /// Distinct inputs an untraced run cycles through, one pipeline run
    /// each per round (see [`input_seed`]).
    pub inputs: u64,
}

/// Agnews (4 classes, short news), DataSculpt-SC, two threads, four
/// inputs per run: how fast one Agnews input runs depends on its seed by
/// up to a quarter, and a round over four inputs evens that out.
pub const AGNEWS_SC: PipelineSpec = PipelineSpec {
    name: "agnews-sc",
    dataset: DatasetName::Agnews,
    scale: 0.1,
    config: DataSculptConfig::sc,
    threads: 2,
    inputs: 4,
};

/// Dataset loads in one run, or one per input if there are more inputs;
/// `setup_s` is their median.
const SETUP_LOADS: u64 = 5;
const _: () = assert!(SETUP_LOADS as usize >= MIN_MEDIAN_SAMPLES);

/// Seeds of a run's inputs lie this far apart.
const INPUT_SEED_STRIDE: u64 = 1000;

/// Seed of input `k` of a run on workload seed `seed`. Input 0 is the
/// workload seed itself.
pub fn input_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_add(k.wrapping_mul(INPUT_SEED_STRIDE))
}

/// Fewest rounds per run, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;
const _: () = assert!(MIN_ROUNDS >= MIN_MEDIAN_SAMPLES);

/// A query iteration slower than this misses the latency limit.
const ITERATION_LIMIT_MS: f64 = 1000.0;

impl PipelineSpec {
    fn config(&self, seed: u64) -> DataSculptConfig {
        let mut config = (self.config)(seed);
        config.threads = self.threads;
        config
    }

    fn eval_config(&self) -> EvalConfig {
        EvalConfig {
            threads: self.threads,
            ..EvalConfig::default()
        }
    }

    fn llm(&self, dataset: &TextDataset, seed: u64) -> SimulatedLlm {
        SimulatedLlm::new(ModelId::Gpt35Turbo, dataset.generative.clone(), seed)
            .with_pool(Pool::new(self.threads))
    }
}

/// Times each query iteration, from its `select` stage to its end (for
/// `goodput_norm_jobs_per_s`).
#[derive(Default)]
struct IterationClock {
    started: Option<Instant>,
    latencies_ms: Vec<f64>,
}

impl RunObserver for IterationClock {
    fn on_event(&mut self, event: &Event) {
        match event {
            Event::StageBegin {
                stage: Stage::Select,
                ..
            } => self.started = Some(Instant::now()),
            Event::IterationEnd { .. } => {
                if let Some(t) = self.started.take() {
                    self.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                }
            }
            _ => {}
        }
    }
}

/// Sums stage span durations and counters: the traced run's observer.
#[derive(Default)]
pub struct StageClock {
    open: BTreeMap<Stage, Instant>,
    busy: BTreeMap<Stage, Duration>,
    counters: BTreeMap<Counter, u64>,
}

impl RunObserver for StageClock {
    fn on_event(&mut self, event: &Event) {
        match event {
            Event::StageBegin { stage, .. } => {
                self.open.insert(*stage, Instant::now());
            }
            Event::StageEnd { stage, .. } => {
                if let Some(t) = self.open.remove(stage) {
                    *self.busy.entry(*stage).or_default() += t.elapsed();
                }
            }
            Event::Counter { counter, delta } => {
                *self.counters.entry(*counter).or_default() += delta;
            }
            _ => {}
        }
    }
}

impl StageClock {
    /// Add `times` copies of another clock's totals.
    pub fn absorb(&mut self, other: &StageClock, times: u64) {
        let times = u32::try_from(times).unwrap_or(u32::MAX);
        for (stage, d) in &other.busy {
            *self.busy.entry(*stage).or_default() += *d * times;
        }
        for (counter, n) in &other.counters {
            *self.counters.entry(*counter).or_default() += n * u64::from(times);
        }
    }

    /// Seconds spent inside `stage` spans.
    pub fn seconds(&self, stage: Stage) -> f64 {
        self.busy.get(&stage).map_or(0.0, Duration::as_secs_f64)
    }

    /// A counter's total.
    pub fn count(&self, counter: Counter) -> u64 {
        self.counters.get(&counter).copied().unwrap_or(0)
    }

    /// Accepted candidates over all candidates the filters judged.
    pub fn accept_ratio(&self) -> f64 {
        let accepted = self.count(Counter::LfAccepted);
        let candidates = accepted
            + self.count(Counter::LfDuplicate)
            + self.count(Counter::LfRejectedValidity)
            + self.count(Counter::LfRejectedAccuracy)
            + self.count(Counter::LfRejectedRedundancy);
        if candidates == 0 {
            0.0
        } else {
            accepted as f64 / candidates as f64
        }
    }
}

/// What one repetition produced; every repetition of a run must agree.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Outcome {
    digest: u64,
    cost_nanousd: u128,
    end_metric_bits: u64,
}

/// The outputs every repetition must reproduce, and the first one's.
struct Expect {
    first: Option<Outcome>,
}

impl Expect {
    /// Check a repetition's output against the first repetition's and
    /// its own cost against its per-model ledger.
    fn check(&mut self, checks: &mut Checks, run: &RunResult, end_metric: f64, what: &str) {
        let ledger_sum: u128 = run
            .ledger
            .per_model()
            .map(|(m, u)| PricingTable::cost_nanousd(m, u.prompt_tokens, u.completion_tokens))
            .sum();
        let outcome = Outcome {
            digest: run.digest(),
            cost_nanousd: run.ledger.total_cost_nanousd(),
            end_metric_bits: end_metric.to_bits(),
        };
        checks.check(outcome.cost_nanousd == ledger_sum, || {
            format!(
                "{what}: cost {} != per-model ledger sum {ledger_sum}",
                outcome.cost_nanousd
            )
        });
        checks.check(run.failed_iterations() == 0, || {
            format!("{what}: {} failed iterations", run.failed_iterations())
        });
        match self.first {
            None => self.first = Some(outcome),
            Some(first) => checks.check(first == outcome, || {
                format!("{what}: output {outcome:?} differs from the first repetition's {first:?}")
            }),
        }
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// One untraced repetition: run + evaluate, timed as a whole.
struct Rep {
    wall_s: f64,
    cpu_s: f64,
    iterations_ms: Vec<f64>,
    run: RunResult,
    end_metric: f64,
}

fn untraced_rep(spec: &PipelineSpec, dataset: &TextDataset, seed: u64) -> Result<Rep, String> {
    let mut clock = IterationClock::default();
    let cpu0 = sys::cpu_seconds("self");
    let t = Instant::now();
    let mut llm = spec.llm(dataset, seed);
    let run = DataSculpt::new(dataset, spec.config(seed))
        .run_observed(&mut llm, &mut clock)
        .map_err(|e| format!("{} run failed: {e}", spec.name))?;
    let eval = evaluate_lf_set(dataset, &run.lf_set, &spec.eval_config());
    let wall_s = t.elapsed().as_secs_f64();
    Ok(Rep {
        wall_s,
        cpu_s: sys::cpu_seconds("self") - cpu0,
        iterations_ms: clock.latencies_ms,
        run,
        end_metric: eval.end_metric,
    })
}

/// One input of a run: its seed, its dataset, and what its repetitions
/// produced so far.
struct Input {
    seed: u64,
    dataset: TextDataset,
    expect: Expect,
    iterations_ms: Vec<Vec<f64>>,
    last: Option<Rep>,
}

/// Load the run's inputs, cycling through them until there have been
/// `SETUP_LOADS` loads and every input has one; the median load time is
/// `setup_s`. Each load's predecessor for the same input is dropped
/// first, so at most one copy per input is ever resident and
/// `peak_rss_mb` does not count set-up twice.
fn setup(spec: &PipelineSpec, seed: u64) -> (Vec<Input>, Vec<f64>) {
    let inputs = spec.inputs.max(1);
    let mut times = Vec::new();
    let mut loaded: Vec<Option<TextDataset>> = (0..inputs).map(|_| None).collect();
    for i in 0..SETUP_LOADS.max(inputs) {
        let k = i % inputs;
        let slot = loaded.get_mut(k as usize);
        if let Some(slot) = slot {
            drop(slot.take());
            let (d, s) = timed(|| spec.dataset.load_scaled(input_seed(seed, k), spec.scale));
            times.push(s);
            *slot = Some(d);
        }
    }
    let inputs = loaded
        .into_iter()
        .zip(0..)
        .map(|(d, k)| {
            let seed = input_seed(seed, k);
            Input {
                seed,
                dataset: d.unwrap_or_else(|| spec.dataset.load_scaled(seed, spec.scale)),
                expect: Expect { first: None },
                iterations_ms: Vec::new(),
                last: None,
            }
        })
        .collect();
    (inputs, times)
}

/// Run a pipeline workload.
pub fn run(spec: &PipelineSpec, args: &Args, report: &mut Report) -> Result<(), String> {
    report.note("workload", spec.name);
    report.note(
        "input",
        format!(
            "{:?} scale {} ({}), 50 queries, {} thread(s), {} input(s)",
            spec.dataset,
            spec.scale,
            spec.config(args.seed).label(),
            spec.threads,
            spec.inputs
        ),
    );
    if args.trace {
        return traced(spec, args, report);
    }
    let (mut inputs, loads) = setup(spec, args.seed);
    let rows: Vec<usize> = inputs.iter().map(|i| i.dataset.train.len()).collect();
    report.note("train_rows", format!("{rows:?}"));
    untraced(spec, args, &mut inputs, &loads, report)
}

/// Keep going while another round (one repetition per input, then a host
/// probe) of typical length still fits in the run, and at least until
/// `MIN_ROUNDS` rounds.
fn another(started: Instant, done: &[f64], seconds: f64) -> bool {
    if done.len() < MIN_ROUNDS {
        return true;
    }
    let typical = median(done).unwrap_or(0.0);
    started.elapsed().as_secs_f64() + typical <= seconds
}

fn untraced(
    spec: &PipelineSpec,
    args: &Args,
    inputs: &mut [Input],
    loads: &[f64],
    report: &mut Report,
) -> Result<(), String> {
    let started = Instant::now();
    let mut host = HostClock::start()?;
    let mut walls = Vec::new();
    let mut norm_walls = Vec::new();
    let mut rounds = Vec::new();
    while another(started, &rounds, args.seconds) {
        let t = Instant::now();
        let mut wall = 0.0;
        for input in inputs.iter_mut() {
            let rep = untraced_rep(spec, &input.dataset, input.seed)?;
            let mut checks = Checks::default();
            let what = format!("repetition on input seed {}", input.seed);
            input
                .expect
                .check(&mut checks, &rep.run, rep.end_metric, &what);
            report.settle(checks);
            wall += rep.wall_s;
            input.iterations_ms.push(rep.iterations_ms.clone());
            input.last = Some(rep);
        }
        walls.push(wall);
        norm_walls.push(host.normalise(wall)?);
        rounds.push(t.elapsed().as_secs_f64());
    }
    let mut good = 0;
    let mut cost = 0u128;
    let mut end_metrics = Vec::new();
    let mut digests = Vec::new();
    let mut lfs = Vec::new();
    for input in inputs.iter() {
        let rep = input.last.as_ref().ok_or("no repetition ran")?;
        good += per_iteration_medians(&input.iterations_ms)?
            .iter()
            .filter(|&&t| t <= ITERATION_LIMIT_MS)
            .count();
        cost += rep.run.ledger.total_cost_nanousd();
        end_metrics.push(rep.end_metric);
        digests.push(format!("{:016x}", rep.run.digest()));
        lfs.push(rep.run.lf_set.len());
    }
    let wall_norm = median(&norm_walls).ok_or("too few rounds")?;
    let factor = host.median().ok_or("too few probes")?;
    let setup = median(loads).ok_or("too few loads")?;

    report.note("rounds", walls.len());
    report.note(
        "input_seeds",
        format!("{:?}", inputs.iter().map(|i| i.seed).collect::<Vec<_>>()),
    );
    report.note("digests", digests.join(" "));
    report.note("lfs", format!("{lfs:?}"));
    report.note("iteration_limit_ms", ITERATION_LIMIT_MS);
    report.note("wall_s", median(&walls).ok_or("too few rounds")?);
    report.note("host_factor", factor);
    report.note("raw_setup_s", setup);

    report.metric("wall_norm_s", wall_norm, "s");
    // Set-up ran before the first probe: scale it by the run's median
    // host factor.
    report.metric("setup_s", setup / factor, "s");
    report.metric(
        "peak_rss_mb",
        sys::peak_rss_mb("self").ok_or("no VmHWM")?,
        "MiB",
    );
    report.metric("cost_nanousd", cost as f64, "nUSD");
    report.metric(
        "end_metric",
        end_metrics.iter().sum::<f64>() / end_metrics.len().max(1) as f64,
        "ratio",
    );
    report.metric("success_rate", report.success_rate(), "ratio");
    report.metric("goodput_norm_jobs_per_s", good as f64 / wall_norm, "1/s");
    Ok(())
}

/// Every repetition runs the same query iterations, so iteration `k`'s
/// latency is the median of its repetitions' latencies: a burst of host
/// noise during one repetition does not move it.
fn per_iteration_medians(per_rep: &[Vec<f64>]) -> Result<Vec<f64>, String> {
    let n = per_rep.first().map_or(0, Vec::len);
    if per_rep.iter().any(|r| r.len() != n) {
        return Err("repetitions ran different numbers of query iterations".into());
    }
    (0..n)
        .map(|k| {
            let samples: Vec<f64> = per_rep.iter().map(|r| r[k]).collect();
            median(&samples).ok_or_else(|| "too few repetitions".to_string())
        })
        .collect()
}

/// Per-layer seconds and counts from one traced repetition.
#[derive(Default)]
struct Layers {
    load_s: f64,
    setup_s: f64,
    stages: StageClock,
    tfidf_s: f64,
    labelmodel_s: f64,
    votes: u64,
    endmodel_s: f64,
    row_epochs: u64,
    calls: u64,
    tokens: u64,
    /// Everything the traced repetition timed except the standalone
    /// `load` and `LfSet::new` calls: comparable to an untraced wall.
    wall_s: f64,
    /// Wall time of the untraced repetition run just before this one.
    untraced_wall_s: f64,
    /// Train rows of the dataset.
    rows: usize,
}

impl Layers {
    /// Seconds inside the timed layers: the index build, the pipeline
    /// stages and the three evaluation calls.
    fn covered_s(&self) -> f64 {
        let stages = [
            Stage::Select,
            Stage::Prompt,
            Stage::Generate,
            Stage::Integrate,
            Stage::Revise,
        ];
        self.setup_s
            + stages.iter().map(|&s| self.stages.seconds(s)).sum::<f64>()
            + self.tfidf_s
            + self.labelmodel_s
            + self.endmodel_s
    }
}

fn traced_rep(
    spec: &PipelineSpec,
    dataset: &TextDataset,
    seed: u64,
    report: &mut Report,
    expect: &mut Expect,
) -> Result<Layers, String> {
    let mut layers = Layers::default();
    let config = spec.config(seed);
    // The pipeline builds this inside `run`; build it once more on its own
    // to time the index layer.
    let (_, setup_s) =
        timed(|| LfSet::new(dataset, config.filters).with_pool(Pool::new(spec.threads)));
    layers.setup_s = setup_s;

    let t = Instant::now();
    let mut llm = spec.llm(dataset, seed);
    let run = DataSculpt::new(dataset, config)
        .run_observed(&mut llm, &mut layers.stages)
        .map_err(|e| format!("{} traced run failed: {e}", spec.name))?;
    let end_metric = evaluate_by_layer(spec, dataset, &run, &mut layers);
    layers.wall_s = t.elapsed().as_secs_f64();
    layers.calls = run.ledger.calls();
    layers.tokens = run.ledger.total_usage().total();
    let mut checks = Checks::default();
    expect.check(&mut checks, &run, end_metric, "traced repetition");
    report.settle(checks);
    Ok(layers)
}

/// `evaluate_lf_set` with its default configuration, one layer call at a
/// time so each can be timed. It must score exactly what
/// `evaluate_lf_set` scores; `Expect::check` holds it to that.
fn evaluate_by_layer(
    spec: &PipelineSpec,
    dataset: &TextDataset,
    run: &RunResult,
    layers: &mut Layers,
) -> f64 {
    let config = spec.eval_config();
    let matrix = run.lf_set.train_matrix();
    let train_labels = dataset
        .spec
        .train_labels_available
        .then(|| dataset.train.labels_opt());
    let _ = lf_stats_from_matrix(matrix, train_labels.as_deref());
    let n_classes = dataset.n_classes();
    layers.votes = matrix.active_counts().iter().map(|&c| u64::from(c)).sum();

    let LabelModelKind::Metal(metal) = config.label_model else {
        unreachable!("the default evaluation uses MeTaL")
    };
    let (mut probs, labelmodel_s) = timed(|| {
        let mut lm = MetalModel::new()
            .with_config(metal)
            .with_class_balance(dataset.valid.class_distribution(n_classes))
            .with_max_iter(config.label_model_iters)
            .with_pool(Pool::new(config.threads));
        lm.fit(matrix, n_classes);
        lm.predict_proba(matrix)
    });
    layers.labelmodel_s = labelmodel_s;
    if let Some(dc) = dataset.spec.default_class {
        probs.apply_default_class(dc);
    }
    let covered = probs.covered_indices();

    let ((x_train, x_test), tfidf_s) = timed(|| {
        let mut tfidf = HashedTfIdf::new(config.feature_dim, config.feature_order);
        tfidf.fit(dataset.train.iter().map(|i| i.tokens.as_slice()));
        let row = |inst: &Instance| -> SparseRow {
            tfidf
                .transform_sparse(&inst.tokens)
                .into_iter()
                .map(|(d, v)| (d as u32, v))
                .collect()
        };
        let x_train: Vec<SparseRow> = covered
            .iter()
            .filter_map(|&i| dataset.train.instances.get(i))
            .map(row)
            .collect();
        let x_test: Vec<SparseRow> = dataset.test.iter().map(row).collect();
        (x_train, x_test)
    });
    layers.tfidf_s = tfidf_s;

    // Hard targets and balanced weights, as the default evaluation uses.
    let argmax = |row: &[f64]| {
        let mut best = 0;
        let mut best_p = f64::NEG_INFINITY;
        for (c, &p) in row.iter().enumerate() {
            if p > best_p {
                best = c;
                best_p = p;
            }
        }
        best
    };
    let hard: Vec<usize> = covered.iter().map(|&i| argmax(probs.row(i))).collect();
    let targets: Vec<Vec<f64>> = hard
        .iter()
        .map(|&h| {
            (0..n_classes)
                .map(|c| f64::from(u8::from(c == h)))
                .collect()
        })
        .collect();
    let mut counts = vec![0usize; n_classes];
    for &h in &hard {
        counts[h] += 1;
    }
    let n_cov = covered.len().max(1) as f64;
    let weights: Vec<f64> = hard
        .iter()
        .map(|&h| n_cov / (n_classes as f64 * counts[h].max(1) as f64))
        .collect();

    let (end_model, endmodel_s) = timed(|| {
        let mut m = SoftmaxRegression::new(config.feature_dim, n_classes);
        m.fit_sparse(&x_train, &targets, Some(&weights), &config.train);
        m
    });
    layers.endmodel_s = endmodel_s;
    layers.row_epochs = (x_train.len() * config.train.epochs) as u64;
    let pred = end_model.predict_sparse(&x_test);
    let truth = dataset.test.labels();
    match dataset.spec.metric {
        Metric::Accuracy => datasculpt::endmodel::accuracy(&pred, &truth),
        Metric::F1 => datasculpt::endmodel::f1_positive(&pred, &truth),
    }
}

/// Traced pairs on the workload seed's own input. Each pair loads the
/// dataset afresh (timed: `data.load_s`), runs an untraced repetition on
/// it, then the traced one on the same dataset, so the two see the same
/// memory layout and nearly the same host speed.
fn traced(spec: &PipelineSpec, args: &Args, report: &mut Report) -> Result<(), String> {
    let started = Instant::now();
    let mut untraced_walls = Vec::new();
    let mut cpu_per_wall = Vec::new();
    let mut runs: Vec<Layers> = Vec::new();
    let mut pair_walls = Vec::new();
    let mut expect = Expect { first: None };
    while another(started, &pair_walls, args.seconds) {
        let t = Instant::now();
        let (dataset, load_s) = timed(|| spec.dataset.load_scaled(args.seed, spec.scale));
        let rep = untraced_rep(spec, &dataset, args.seed)?;
        let mut checks = Checks::default();
        expect.check(&mut checks, &rep.run, rep.end_metric, "repetition");
        report.settle(checks);
        untraced_walls.push(rep.wall_s);
        cpu_per_wall.push(rep.cpu_s / rep.wall_s);
        let mut layers = traced_rep(spec, &dataset, args.seed, report, &mut expect)?;
        layers.load_s = load_s;
        layers.untraced_wall_s = rep.wall_s;
        layers.rows = dataset.train.len();
        runs.push(layers);
        pair_walls.push(t.elapsed().as_secs_f64());
    }
    let med = |f: &dyn Fn(&Layers) -> f64| -> Result<f64, String> {
        median(&runs.iter().map(f).collect::<Vec<_>>()).ok_or_else(|| "too few traced runs".into())
    };
    let last = runs.last().ok_or("no traced run")?;
    let wall = median(&untraced_walls).ok_or("too few untraced repetitions")?;
    let load_s = med(&|l| l.load_s)?;
    let setup_s = med(&|l| l.setup_s)?;
    let stage = |s: Stage| med(&|l: &Layers| l.stages.seconds(s));
    let (select_s, prompt_s, generate_s, integrate_s) = (
        stage(Stage::Select)?,
        stage(Stage::Prompt)?,
        stage(Stage::Generate)?,
        stage(Stage::Integrate)?,
    );
    let tfidf_s = med(&|l| l.tfidf_s)?;
    let labelmodel_s = med(&|l| l.labelmodel_s)?;
    let endmodel_s = med(&|l| l.endmodel_s)?;
    report.note("traced_pairs", runs.len());
    report.note("train_rows", last.rows);
    report.note("untraced_wall_s", wall);

    report.metric("data.load_s", load_s, "s");
    report.metric("core.setup_s", setup_s, "s");
    report.metric("core.select_s", select_s, "s");
    report.metric("core.prompt_s", prompt_s, "s");
    report.metric("core.generate_s", generate_s, "s");
    report.metric("core.integrate_s", integrate_s, "s");
    report.metric("core.lf_accept_ratio", last.stages.accept_ratio(), "ratio");
    report.metric(
        "core.parse_failures",
        last.stages.count(Counter::ParseFailure) as f64,
        "count",
    );
    report.metric("text.tfidf_s", tfidf_s, "s");
    report.metric("labelmodel.fit_s", labelmodel_s, "s");
    report.metric("labelmodel.votes", last.votes as f64, "count");
    report.metric("endmodel.fit_s", endmodel_s, "s");
    report.metric("endmodel.row_epochs", last.row_epochs as f64, "count");
    report.metric("llm.calls", last.calls as f64, "count");
    report.metric("llm.tokens", last.tokens as f64, "count");
    report.metric(
        "llm.errors",
        last.stages.count(Counter::LlmError) as f64,
        "count",
    );
    report.metric(
        "exec.cpu_per_wall",
        median(&cpu_per_wall).ok_or("too few untraced repetitions")?,
        "ratio",
    );
    crate::serve::idle_serve_layers(report);
    // Each traced repetition against the untraced one just before it, so
    // host drift between pairs cancels.
    report.metric(
        "obs.trace_overhead_pct",
        100.0 * (med(&|l| l.wall_s / l.untraced_wall_s)? - 1.0),
        "%",
    );
    report.metric(
        "obs.coverage_pct",
        100.0 * med(&|l| l.covered_s() / l.untraced_wall_s)?,
        "%",
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_repetition_reproduces_the_first_on_its_input_seed() {
        const TINY: PipelineSpec = PipelineSpec {
            name: "youtube-base-tiny",
            dataset: DatasetName::Youtube,
            scale: 0.05,
            config: DataSculptConfig::base,
            threads: 1,
            inputs: 2,
        };
        let args = Args {
            workload: TINY.name.into(),
            seed: 3,
            seconds: 0.001,
            trace: false,
            cli: "unused".into(),
            work_dir: "unused".into(),
        };
        let mut report = Report::default();
        run(&TINY, &args, &mut report).unwrap();
        assert_eq!(report.attempted, 2 * MIN_ROUNDS as u64);
        assert_eq!(report.failed, 0, "{:?}", report.problems);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names, crate::END_TO_END.map(|m| m.0));
        let seeds = report.record.iter().find(|(k, _)| k == "input_seeds");
        assert_eq!(seeds.map(|(_, v)| v.as_str()), Some("[3, 1003]"));
    }

    #[test]
    fn input_zero_is_the_workload_seed_and_inputs_differ() {
        assert_eq!(input_seed(7, 0), 7);
        assert_ne!(input_seed(7, 1), input_seed(7, 2));
        assert_ne!(input_seed(7, 1), input_seed(8, 1));
    }
}
