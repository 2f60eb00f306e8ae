//! The repository benchmark: four named workloads over the BDLFI crates,
//! measured end to end (untraced runs) and layer by layer (traced runs).
//!
//! See `perfbench/README.md` for the workloads, every metric and its unit,
//! and how to run it. The benchmark changes no library code: it times the
//! calls its own code makes into each crate's public functions.

pub mod cpu;
pub mod int8;
pub mod layers;
pub mod mlp;
pub mod probe;
pub mod report;
pub mod resnet;
pub mod serve;
pub mod trace;

use crate::probe::Tally;
use crate::report::{median, tail, Metrics, Outcome};
use crate::trace::{Recorder, Summary};
use bdlfi_bayes::seed_stream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Seeded-init ResNet-18 (base width 8), one campaign per layer.
    ResnetLayerwise,
    /// Trained 2-[64×8]-4 MLP swept over low flip probabilities.
    MlpDeltaSweep,
    /// Trained int8 2-[128×3]-3 MLP, adaptive campaign to certification.
    Int8Adaptive,
    /// `bdlfi-serve` daemon under a two-client closed loop.
    ServeJobs,
}

impl Workload {
    /// Every workload, in the order per-layer metrics are reported.
    pub const ALL: [Workload; 4] = [
        Workload::ResnetLayerwise,
        Workload::MlpDeltaSweep,
        Workload::Int8Adaptive,
        Workload::ServeJobs,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ResnetLayerwise => "resnet-layerwise",
            Workload::MlpDeltaSweep => "mlp-delta-sweep",
            Workload::Int8Adaptive => "int8-adaptive",
            Workload::ServeJobs => "serve-jobs",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The workload under load.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured phase, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// The `bdlfi-serve` executable (needed by `serve-jobs`, and by every
    /// traced run for the `serve.*` metrics).
    pub serve_bin: Option<PathBuf>,
    /// Directory for journals, daemon state and span dumps.
    pub out_dir: PathBuf,
}

/// Seed of every workload's network and dataset. They are fixed, so every
/// run measures the same system; the run seed drives the fault campaigns
/// (and the layer probes' random draws).
pub const NETWORK_SEED: u64 = 2019;

/// Seed of job `j` of a run.
pub fn job_seed(seed: u64, j: usize) -> u64 {
    seed_stream(seed, 1_000_000 + j as u64)
}

/// What a measured phase produced.
#[derive(Debug, Clone, Default)]
pub struct Load {
    /// Faulty evaluations completed.
    pub configs: u64,
    /// Wall-clock of the phase, in seconds.
    pub wall_s: f64,
    /// CPU time the process under test spent in the phase's jobs, in
    /// seconds: this process for in-process jobs; on `serve-jobs` the
    /// daemon's user-mode CPU time (its kernel-mode time, mostly `fsync`
    /// and sockets, follows the host's I/O path and is reported per layer).
    pub cpu_s: f64,
    /// CPU seconds of runs of the reference kernel on every core during
    /// the phase (one before each in-process job).
    pub ref_s: Vec<f64>,
    /// Latency of each job, in seconds.
    pub jobs_s: Vec<f64>,
    /// Operations attempted (configurations, or jobs on `serve-jobs`).
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// Report digests that must repeat exactly for one seed.
    pub digests: Vec<(String, String)>,
    /// The first failure seen, if any.
    pub failure: Option<String>,
}

impl Load {
    /// Faulty evaluations per CPU-second of the process under test.
    pub fn configs_per_cpu_s(&self) -> f64 {
        self.configs as f64 / self.cpu_s
    }

    /// CPU time of the process under test per completed job, in
    /// milliseconds.
    pub fn job_cpu_ms(&self) -> f64 {
        self.cpu_s * 1e3 / self.jobs_s.len() as f64
    }

    /// Faulty evaluations per wall-clock second.
    pub fn configs_per_s(&self) -> f64 {
        self.configs as f64 / self.wall_s
    }

    /// Completed jobs per wall-clock second.
    pub fn jobs_per_s(&self) -> f64 {
        self.jobs_s.len() as f64 / self.wall_s
    }

    /// Records a failure of `n` operations.
    pub fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        if self.failure.is_none() {
            self.failure = Some(why);
        }
    }
}

/// How a compute job evaluates its configurations.
pub enum Mode {
    /// The library's driver, untouched: the timed path.
    Library,
    /// The driver over [`probe::Checked`] workloads (cold re-inference of
    /// every `every`-th evaluation).
    Check(Arc<Tally>),
    /// The driver over [`probe::Traced`] workloads.
    Trace(Arc<Recorder>),
}

/// One driver call's output.
#[derive(Debug, Clone)]
pub struct JobOut {
    /// Recorded samples, i.e. faulty evaluations scored.
    pub configs: u64,
    /// Digest of the job's reports (journal form).
    pub digest: String,
}

/// One of the four workloads' inputs, built by [`Scenario::setup`].
pub trait Scenario: Sized {
    /// Which workload this is.
    const WORKLOAD: Workload;

    /// Builds the inputs: everything before the first timed call.
    fn setup(ctx: &Ctx) -> Result<Self, String>;

    /// The health gate, checked before anything is timed.
    fn gate(&self) -> Result<(), String>;

    /// Runs the measured phase until `seconds` have passed and at least
    /// `min_jobs` jobs (and always one) have completed, traced when `rec`
    /// is given; with `check`, verifies outputs first.
    fn measure(
        &self,
        seconds: f64,
        min_jobs: usize,
        rec: Option<&Arc<Recorder>>,
        check: bool,
    ) -> Result<Load, String>;

    /// Appends the per-layer metrics this workload owns, from the spans of
    /// its traced phase and its own layer probes.
    fn layer_metrics(
        &self,
        summary: &Summary,
        rec: &Recorder,
        m: &mut Metrics,
    ) -> Result<(), String>;

    /// The `(m, k, n)` shape of the workload's main f32 GEMM.
    const GEMM_SHAPE: (usize, usize, usize);

    /// Percentile of the job latencies reported as `job.tail_ms`. The
    /// traced run's untraced half runs enough jobs that ten lie beyond it.
    const JOB_TAIL_Q: f64 = 0.95;

    /// CPU time the last set-up spent in processes other than this one (the
    /// daemon's start-up on `serve-jobs`), in seconds.
    fn setup_cpu_elsewhere_s(&self) -> f64 {
        0.0
    }

    /// Peak resident set of the process under test, in MiB.
    fn peak_rss_mib(&self) -> Option<f64> {
        report::peak_rss_mib("self")
    }
}

/// A scenario whose jobs run in process: one driver call per job.
pub trait Compute: Sync {
    /// Runs job `seed` in `mode`.
    fn job(&self, seed: u64, mode: &Mode) -> Result<JobOut, String>;
}

/// The measured phase of an in-process workload: an untimed check job
/// (cold re-inference of a sample of its evaluations) when `check`, then
/// back-to-back jobs until `seconds` have passed, at least `min_jobs`
/// (and always one) have completed and, when traced, at least
/// [`TAIL_EVALS`] evaluations are recorded. Before each job, outside its
/// timing, the reference kernel runs on every core. Job 0's digest must
/// match the check job's, so the library path, the checked path and the
/// traced path all produce the same reports.
pub fn compute_load<C: Compute>(
    c: &C,
    seed: u64,
    seconds: f64,
    min_jobs: usize,
    rec: Option<&Arc<Recorder>>,
    check: bool,
) -> Result<Load, String> {
    let mut load = Load::default();
    let mut expected = None;
    if check {
        let tally = Arc::new(Tally::default());
        let out = c.job(job_seed(seed, 0), &Mode::Check(Arc::clone(&tally)))?;
        load.attempted += out.configs;
        if tally.checked() == 0 {
            load.fail(out.configs, "check job compared no evaluation".into());
        }
        if tally.failed() > 0 {
            load.fail(
                tally.failed(),
                format!(
                    "{} of {} checked evaluations differ from cold re-inference",
                    tally.failed(),
                    tally.checked()
                ),
            );
        }
        expected = Some(out.digest);
    }
    let mode = rec.map_or(Mode::Library, |r| Mode::Trace(Arc::clone(r)));
    let start = Instant::now();
    let mut j = 0;
    let short_of_evals = || rec.is_some_and(|r| r.count_spans("eval") < TAIL_EVALS);
    while j < min_jobs.max(1) || start.elapsed().as_secs_f64() < seconds || short_of_evals() {
        if let Mode::Trace(r) = &mode {
            r.set_counting(j == 0);
        }
        load.ref_s.push(cpu::reference_parallel_s(nproc()));
        let cpu_start = cpu::process_s();
        let t = Instant::now();
        let out = match &mode {
            Mode::Trace(r) => r.span("job", r.next_id(), || c.job(job_seed(seed, j), &mode))?,
            _ => c.job(job_seed(seed, j), &mode)?,
        };
        load.jobs_s.push(t.elapsed().as_secs_f64());
        load.cpu_s += cpu::process_s() - cpu_start;
        load.configs += out.configs;
        if j == 0 {
            if let Some(want) = &expected {
                if *want != out.digest {
                    load.fail(
                        out.configs,
                        "job 0 report differs from the checked run".into(),
                    );
                }
            }
            load.digests.push(("job0".into(), out.digest));
        }
        j += 1;
    }
    if let Mode::Trace(r) = &mode {
        r.set_counting(false);
    }
    load.wall_s = load.jobs_s.iter().sum();
    load.attempted += load.configs;
    Ok(load)
}

/// Runs `setup` `times` times (at least once) and returns the CPU time of
/// each (this process's, plus [`Scenario::setup_cpu_elsewhere_s`]) and the
/// last result (earlier results are dropped before the next setup starts).
/// Runs the reference kernel on every core before each setup and appends
/// its CPU time to `reference`.
fn setups<S: Scenario>(
    ctx: &Ctx,
    times: usize,
    reference: &mut Vec<f64>,
) -> Result<(Vec<f64>, S), String> {
    let mut durations = Vec::new();
    let mut kept = None;
    for _ in 0..times.max(1) {
        drop(kept.take());
        reference.push(cpu::reference_parallel_s(nproc()));
        let start = cpu::process_s();
        let s = S::setup(ctx)?;
        durations.push(cpu::process_s() - start + s.setup_cpu_elsewhere_s());
        kept = Some(s);
    }
    let s = kept.ok_or("setup produced nothing")?;
    Ok((durations, s))
}

/// Setups per end-to-end run; `setup_s` is the median of their CPU times.
/// The first `SETUP_REPEATS - SETUP_REPEATS / 2` run before the measured
/// phase, the rest after it, so that the median spans the host's state over
/// the whole run rather than the moment before it.
pub const SETUP_REPEATS: usize = 21;

/// Runs of the reference kernel on every core right before and right after
/// a measured phase. One more runs before each setup and before each
/// in-process job, always while the workload is idle: run under its load,
/// the kernel would slow with the workload and hide part of a regression.
pub const REFERENCE_RUNS: usize = 10;

/// CPU seconds of [`cpu::reference_s`] on the nominal host, the speed the
/// end-to-end metrics are scaled to: the kernel's typical median on a
/// 2-vCPU Intel Xeon virtual machine (AVX2).
pub const NOMINAL_REFERENCE_S: f64 = 0.0016;

/// The number of cores the workloads use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Appends [`REFERENCE_RUNS`] runs of the reference kernel on every core.
fn reference_runs(reference: &mut Vec<f64>) {
    reference.extend((0..REFERENCE_RUNS).map(|_| cpu::reference_parallel_s(nproc())));
}

/// The host's speed relative to the nominal host, from the reference
/// kernel's CPU times: CPU times are divided by it, rates multiplied.
fn host_speed(reference: &[f64]) -> Result<f64, String> {
    median(reference)
        .filter(|&r| r > 0.0)
        .map(|r| NOMINAL_REFERENCE_S / r)
        .ok_or_else(|| "the reference kernel took no CPU time".into())
}

/// The `(m, k, n)` shape of `workload`'s main f32 GEMM.
pub fn main_gemm(workload: Workload) -> (usize, usize, usize) {
    match workload {
        Workload::ResnetLayerwise => resnet::Resnet::GEMM_SHAPE,
        Workload::MlpDeltaSweep => mlp::Mlp::GEMM_SHAPE,
        Workload::Int8Adaptive => int8::Int8::GEMM_SHAPE,
        Workload::ServeJobs => serve::Serve::GEMM_SHAPE,
    }
}

/// Runs one benchmark invocation.
pub fn run_benchmark(ctx: &Ctx) -> Result<Outcome, String> {
    std::fs::create_dir_all(&ctx.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", ctx.out_dir.display()))?;
    match ctx.workload {
        Workload::ResnetLayerwise => run_as::<resnet::Resnet>(ctx),
        Workload::MlpDeltaSweep => run_as::<mlp::Mlp>(ctx),
        Workload::Int8Adaptive => run_as::<int8::Int8>(ctx),
        Workload::ServeJobs => run_as::<serve::Serve>(ctx),
    }
}

fn gate_failed(why: String) -> Outcome {
    Outcome {
        correct: false,
        attempted: 1,
        failed: 1,
        metrics: Metrics::default(),
        digests: Vec::new(),
        failure: Some(format!("health gate: {why}")),
    }
}

fn run_as<S: Scenario>(ctx: &Ctx) -> Result<Outcome, String> {
    let before = if ctx.trace {
        1
    } else {
        SETUP_REPEATS - SETUP_REPEATS / 2
    };
    let mut ref_s = Vec::new();
    let (mut setup_s, s) = setups::<S>(ctx, before, &mut ref_s)?;
    if let Err(why) = s.gate() {
        return Ok(gate_failed(why));
    }
    if ctx.trace {
        return traced::<S>(ctx, &s);
    }
    reference_runs(&mut ref_s);
    let load = s.measure(ctx.seconds, 0, None, true)?;
    ref_s.extend(&load.ref_s);
    reference_runs(&mut ref_s);
    let peak_rss_mib = s.peak_rss_mib();
    drop(s);
    setup_s.extend(setups::<S>(ctx, SETUP_REPEATS / 2, &mut ref_s)?.0);
    let speed = host_speed(&ref_s)?;
    eprintln!(
        "host speed {speed:.4}x nominal; unscaled: \
         setup {:.6} CPU-s, {:.2} configs/CPU-s, {:.3} CPU-ms/job; wall: {:.2} configs/s, {:.3} jobs/s",
        median(&setup_s).unwrap_or(0.0),
        load.configs_per_cpu_s(),
        load.job_cpu_ms(),
        load.configs_per_s(),
        load.jobs_per_s(),
    );
    let mut m = Metrics::default();
    m.put("setup_s", median(&setup_s).map(|s| s * speed), "s")?;
    m.put(
        "configs_per_cpu_s",
        Some(load.configs_per_cpu_s() / speed),
        "1/s",
    )?;
    m.put("job_cpu_ms", Some(load.job_cpu_ms() * speed), "ms")?;
    m.put("peak_rss_mib", peak_rss_mib, "MiB")?;
    Ok(Outcome {
        correct: load.failed == 0,
        attempted: load.attempted,
        failed: load.failed,
        metrics: m,
        digests: load.digests,
        failure: load.failure,
    })
}

/// Percentile of `eval.us_tail`; a traced phase records at least
/// [`TAIL_EVALS`] evaluations, so that ten lie beyond it.
pub const EVAL_TAIL_Q: f64 = 0.99;
/// Evaluations a traced phase records at least.
pub const TAIL_EVALS: usize = 1000;

/// The traced run: the workload's load untraced for half the time (and for
/// enough jobs that ten lie beyond `S::JOB_TAIL_Q`), then traced for the
/// other half; per-layer
/// metrics from the spans, the workload's own layer probes, and traced
/// jobs of every other workload for the layers they own.
fn traced<S: Scenario>(ctx: &Ctx, s: &S) -> Result<Outcome, String> {
    let half = ctx.seconds / 2.0;
    let tail_jobs = (10.0 / (1.0 - S::JOB_TAIL_Q)).round() as usize;
    let mut ref_s = Vec::new();
    reference_runs(&mut ref_s);
    let ticks = cpu::HostTicks::now();
    let plain = s.measure(half, tail_jobs, None, true)?;
    let steal_frac = ticks.and_then(|t| t.steal_frac_since());
    ref_s.extend(&plain.ref_s);
    reference_runs(&mut ref_s);
    let rec = Arc::new(Recorder::default());
    let mut traced = s.measure(half, 0, Some(&rec), false)?;
    if traced.digests.first() != plain.digests.first() {
        traced.fail(
            traced.configs,
            "traced job 0 report differs from the untraced one".into(),
        );
    }
    let summary = Summary::of(&rec.spans());
    write_spans(ctx, S::WORKLOAD, &rec, &summary)?;

    let mut m = Metrics::default();
    let evals = summary.get("eval");
    let eval_us: Vec<f64> = evals.ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    m.put("eval.us_p50", median(&eval_us), "us")?;
    if eval_us.len() < TAIL_EVALS {
        return Err(format!(
            "the traced half recorded {} evaluations, fewer than {TAIL_EVALS}",
            eval_us.len()
        ));
    }
    m.put("eval.us_tail", tail(&eval_us, EVAL_TAIL_Q), "us")?;
    m.put(
        "job.tail_ms",
        tail(&plain.jobs_s, S::JOB_TAIL_Q).map(|s| s * 1e3),
        "ms",
    )?;
    m.put("job.count", Some(plain.jobs_s.len() as f64), "count")?;
    m.put("wall.configs_per_s", Some(plain.configs_per_s()), "1/s")?;
    m.put(
        "wall.job_p50_ms",
        median(&plain.jobs_s).map(|s| s * 1e3),
        "ms",
    )?;
    m.put("wall.jobs_per_s", Some(plain.jobs_per_s()), "1/s")?;
    m.put("host.steal_frac", steal_frac, "ratio")?;
    m.put("host.ref_ms", median(&ref_s).map(|s| s * 1e3), "ms")?;
    m.put(
        "trace.overhead_frac",
        Some(1.0 - traced.configs_per_cpu_s() / plain.configs_per_cpu_s()),
        "ratio",
    )?;
    m.put(
        "tensor.gemm_gflops",
        Some(layers::gemm_gflops(S::GEMM_SHAPE, ctx.seed)),
        "GFLOP/s",
    )?;

    let mut digests = plain.digests.clone();
    for owner in Workload::ALL {
        let own = if owner == S::WORKLOAD {
            s.layer_metrics(&summary, &rec, &mut m)?;
            Vec::new()
        } else {
            match owner {
                Workload::ResnetLayerwise => reference::<resnet::Resnet>(ctx, &mut m)?,
                Workload::MlpDeltaSweep => reference::<mlp::Mlp>(ctx, &mut m)?,
                Workload::Int8Adaptive => reference::<int8::Int8>(ctx, &mut m)?,
                // Library callers without the daemon (the determinism
                // test) skip the `serve.*` and `checkpoint.*` rows; the
                // command line always supplies it.
                Workload::ServeJobs if ctx.serve_bin.is_none() => Vec::new(),
                Workload::ServeJobs => reference::<serve::Serve>(ctx, &mut m)?,
            }
        };
        digests.extend(own);
    }
    let failed = plain.failed + traced.failed;
    Ok(Outcome {
        correct: failed == 0,
        attempted: plain.attempted + traced.attempted,
        failed,
        metrics: m,
        digests,
        failure: plain.failure.or(traced.failure),
    })
}

/// Writes the spans `rec` recorded for workload `of` during a traced run
/// of `ctx.workload`, and their per-name summary.
fn write_spans(ctx: &Ctx, of: Workload, rec: &Recorder, summary: &Summary) -> Result<(), String> {
    let stem = if of == ctx.workload {
        format!("spans-{}", of.name())
    } else {
        format!("spans-{}.{}", ctx.workload.name(), of.name())
    };
    rec.write_tsv(&ctx.out_dir.join(format!("{stem}.tsv")))?;
    summary.write_tsv(&ctx.out_dir.join(format!("{stem}.summary.tsv")))
}

/// Traced jobs of workload `S` (one, or more until [`TAIL_EVALS`]
/// evaluations are recorded) for the per-layer metrics it owns.
fn reference<S: Scenario>(ctx: &Ctx, m: &mut Metrics) -> Result<Vec<(String, String)>, String> {
    let s = S::setup(ctx)?;
    s.gate()
        .map_err(|why| format!("{} health gate: {why}", S::WORKLOAD.name()))?;
    let rec = Arc::new(Recorder::default());
    let load = s.measure(0.0, 0, Some(&rec), false)?;
    if let Some(why) = load.failure {
        return Err(format!("{}: {why}", S::WORKLOAD.name()));
    }
    let summary = Summary::of(&rec.spans());
    s.layer_metrics(&summary, &rec, m)?;
    write_spans(ctx, S::WORKLOAD, &rec, &summary)?;
    Ok(load
        .digests
        .into_iter()
        .map(|(k, v)| (format!("{}.{k}", S::WORKLOAD.name()), v))
        .collect())
}
