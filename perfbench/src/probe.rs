//! The fault workloads the benchmark hands to the campaign drivers.
//!
//! Both implement the public `FaultWorkload` trait, so the library's own
//! drivers run them unchanged:
//!
//! * [`Checked`] wraps the library's `FaultyModel`/`QuantFaultyModel` and
//!   compares a sample of its evaluations bit for bit against cold dense
//!   re-inference of the faulted network.
//! * [`Traced`] re-assembles one faulty evaluation from the crates' public
//!   calls (inject, sparse-delta attempt, prefix-cache fallback, undo,
//!   scoring) — the same sequence `FaultyModel::eval_logits` runs — so a
//!   span can wrap each call.
//!
//! [`study`] runs one campaign per task through the evaluation engine, the
//! way the sweep and layerwise drivers do, so a study's reports can be
//! produced by either workload and compared with the driver's own.

use crate::trace::Recorder;
use crate::Mode;
use bdlfi::{
    forward_delta_f32, forward_delta_quant, run_campaign, CampaignConfig, CampaignReport,
    CollectSink, DeltaStats, EvalEngine, FaultWorkload, FaultyModel, QuantFaultyModel,
    DENSIFY_THRESHOLD,
};
use bdlfi_data::Dataset;
use bdlfi_faults::{
    resolve_sites, BernoulliBitFlip, FaultConfig, FaultModel, ResolvedSites, SiteSpec,
};
use bdlfi_nn::metrics::classification_error;
use bdlfi_nn::{predict_all, PrefixCache, Sequential};
use bdlfi_quant::{QPrefixCache, QuantModel};
use bdlfi_tensor::Tensor;
use rand::Rng;
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Batch size of every prefix cache and cold pass (the library's own).
pub const BATCH: usize = 64;

/// A golden network: the f32 model or its int8 deployment.
#[derive(Clone)]
pub enum Net {
    /// The f32 network.
    F32(Sequential),
    /// The int8 network.
    I8(QuantModel),
}

impl Net {
    /// Logits of a cold dense pass over `inputs` with `cfg` applied: the
    /// reference a checked evaluation must match bit for bit.
    pub fn cold_logits(&mut self, cfg: &FaultConfig, inputs: &Tensor) -> Tensor {
        match self {
            Net::F32(m) => cfg.with_applied(m, |m| predict_all(m, inputs, BATCH)),
            Net::I8(q) => {
                q.apply(cfg);
                let logits = q.predict_all(inputs, BATCH);
                q.apply(cfg);
                logits
            }
        }
    }
}

/// Whether two logit tensors are bit-identical.
fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims()
        && a.data()
            .iter()
            .map(|v| v.to_bits())
            .eq(b.data().iter().map(|v| v.to_bits()))
}

/// Checked-evaluation tallies, shared by every clone of a [`Checked`].
#[derive(Debug, Default)]
pub struct Tally {
    seen: AtomicU64,
    checked: AtomicU64,
    failed: AtomicU64,
}

impl Tally {
    /// Evaluations compared against cold re-inference.
    pub fn checked(&self) -> u64 {
        self.checked.load(Ordering::Relaxed)
    }

    /// Compared evaluations whose logits differed.
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }
}

#[derive(Clone)]
enum Library {
    F32(FaultyModel),
    I8(QuantFaultyModel),
}

/// The library's workload with every `every`-th evaluation checked bit for
/// bit against cold dense re-inference.
#[derive(Clone)]
pub struct Checked {
    lib: Library,
    cold: Net,
    eval: Arc<Dataset>,
    every: u64,
    tally: Arc<Tally>,
}

impl Checked {
    /// Builds the library workload over `net` (`FaultyModel::new` or
    /// `QuantFaultyModel::new`) plus a cold copy of the network.
    pub fn new(
        net: &Net,
        eval: &Arc<Dataset>,
        spec: &SiteSpec,
        fault: Arc<dyn FaultModel>,
        every: u64,
        tally: &Arc<Tally>,
    ) -> Self {
        let lib = match net {
            Net::F32(m) => Library::F32(FaultyModel::new(m.clone(), Arc::clone(eval), spec, fault)),
            Net::I8(q) => Library::I8(QuantFaultyModel::new(
                q.clone(),
                Arc::clone(eval),
                spec,
                fault,
            )),
        };
        Checked {
            lib,
            cold: net.clone(),
            eval: Arc::clone(eval),
            every: every.max(1),
            tally: Arc::clone(tally),
        }
    }
}

impl FaultWorkload for Checked {
    fn sites(&self) -> &ResolvedSites {
        match &self.lib {
            Library::F32(fm) => fm.sites(),
            Library::I8(fm) => fm.sites(),
        }
    }

    fn fault_model(&self) -> &Arc<dyn FaultModel> {
        match &self.lib {
            Library::F32(fm) => fm.fault_model(),
            Library::I8(fm) => fm.fault_model(),
        }
    }

    fn golden_error(&self) -> f64 {
        match &self.lib {
            Library::F32(fm) => fm.golden_error(),
            Library::I8(fm) => fm.golden_error(),
        }
    }

    fn eval_error(&mut self, cfg: &FaultConfig, rng: &mut dyn Rng) -> f64 {
        let logits = match &mut self.lib {
            Library::F32(fm) => fm.eval_logits(cfg, rng),
            Library::I8(fm) => fm.eval_logits(cfg),
        };
        if self
            .tally
            .seen
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.every)
        {
            let cold = self.cold.cold_logits(cfg, self.eval.inputs());
            self.tally.checked.fetch_add(1, Ordering::Relaxed);
            if !same_bits(&logits, &cold) {
                self.tally.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        classification_error(&logits, self.eval.labels())
    }

    fn delta_counters(&self) -> (u64, u64) {
        match &self.lib {
            Library::F32(fm) => fm.delta_counters(),
            Library::I8(fm) => fm.delta_counters(),
        }
    }
}

#[derive(Clone)]
enum Pipeline {
    F32(Sequential, Arc<PrefixCache>),
    I8(QuantModel, Arc<QPrefixCache>),
}

/// One faulty evaluation assembled from public calls, each in a span.
#[derive(Clone)]
pub struct Traced {
    pipe: Pipeline,
    eval: Arc<Dataset>,
    sites: ResolvedSites,
    fault_model: Arc<dyn FaultModel>,
    golden_error: f64,
    stats: Arc<DeltaStats>,
    rec: Arc<Recorder>,
}

impl Traced {
    /// Resolves the sites and builds the golden prefix cache (in a
    /// `nn.prefix_build` or `quant.prefix_build` span).
    pub fn new(
        net: &Net,
        eval: &Arc<Dataset>,
        spec: &SiteSpec,
        fault: Arc<dyn FaultModel>,
        rec: &Arc<Recorder>,
    ) -> Self {
        let id = rec.next_id();
        let (pipe, sites, golden) = match net.clone() {
            Net::F32(mut m) => {
                let sites = resolve_sites(&m, spec);
                let cache = rec.span("nn.prefix_build", id, || {
                    PrefixCache::build(&mut m, eval.inputs(), BATCH)
                });
                let golden = cache.golden_logits();
                (Pipeline::F32(m, Arc::new(cache)), sites, golden)
            }
            Net::I8(mut q) => {
                let sites = q.sites_matching(spec);
                let cache = rec.span("quant.prefix_build", id, || {
                    QPrefixCache::build(&mut q, eval.inputs(), BATCH)
                });
                let golden = cache.golden_logits();
                (Pipeline::I8(q, Arc::new(cache)), sites, golden)
            }
        };
        Traced {
            pipe,
            eval: Arc::clone(eval),
            sites,
            fault_model: fault,
            golden_error: classification_error(&golden, eval.labels()),
            stats: Arc::new(DeltaStats::default()),
            rec: Arc::clone(rec),
        }
    }

    /// Whether this pipeline records its spans into `rec`.
    pub fn records_to(&self, rec: &Arc<Recorder>) -> bool {
        Arc::ptr_eq(&self.rec, rec)
    }
}

impl FaultWorkload for Traced {
    fn sites(&self) -> &ResolvedSites {
        &self.sites
    }

    fn fault_model(&self) -> &Arc<dyn FaultModel> {
        &self.fault_model
    }

    fn golden_error(&self) -> f64 {
        self.golden_error
    }

    fn eval_error(&mut self, cfg: &FaultConfig, _rng: &mut dyn Rng) -> f64 {
        let rec = Arc::clone(&self.rec);
        let stats = Arc::clone(&self.stats);
        let id = rec.next_id();
        rec.count("faults.configs", 1);
        rec.count("faults.flips", u64::from(cfg.total_flips()));
        let delta_outcome = |hit: bool| {
            if hit {
                stats.record_hit();
                rec.count("delta.hit", 1);
                "delta.hit"
            } else {
                stats.record_fallback();
                rec.count("delta.miss", 1);
                "delta.miss"
            }
        };
        rec.span("eval", id, || {
            let logits = match &mut self.pipe {
                Pipeline::F32(m, cache) => {
                    rec.span("faults.apply", id, || cfg.apply(m));
                    let delta = rec.span_named(id, || {
                        let out = forward_delta_f32(m, cache, cfg, DENSIFY_THRESHOLD);
                        let name = delta_outcome(out.is_some());
                        (out, name)
                    });
                    let logits = match delta {
                        Some(l) => l,
                        None => {
                            let start = cfg.first_dirty_layer(m).unwrap_or_else(|| m.len());
                            rec.span("nn.predict_from", id, || cache.predict_from(m, start))
                        }
                    };
                    rec.span("faults.undo", id, || cfg.apply(m));
                    logits
                }
                Pipeline::I8(q, cache) => {
                    rec.span("faults.apply", id, || q.apply(cfg));
                    let delta = rec.span_named(id, || {
                        let out = forward_delta_quant(q, cache, cfg, DENSIFY_THRESHOLD);
                        let name = delta_outcome(out.is_some());
                        (out, name)
                    });
                    let logits = match delta {
                        Some(l) => l,
                        None => {
                            let start = q.first_dirty_op(cfg).unwrap_or_else(|| q.len());
                            rec.span("quant.predict_from", id, || cache.predict_from(q, start))
                        }
                    };
                    rec.span("faults.undo", id, || q.apply(cfg));
                    logits
                }
            };
            classification_error(&logits, self.eval.labels())
        })
    }

    fn delta_counters(&self) -> (u64, u64) {
        self.stats.counters()
    }
}

/// One campaign of a study: where faults strike and how often.
#[derive(Debug, Clone)]
pub struct Task {
    /// The injected sites.
    pub spec: SiteSpec,
    /// Per-bit flip probability.
    pub p: f64,
}

/// Runs one campaign per task through the engine on all cores, as the
/// sweep and layerwise drivers do, on the workloads `build` makes; each
/// campaign runs with `cfg.workers`. Each task runs in an `engine.task`
/// span and the whole fan-out in an `engine.run` span. Returns the
/// journal-form reports in task order.
fn study<W, B>(
    tasks: &[Task],
    cfg: &CampaignConfig,
    build: B,
    rec: &Recorder,
) -> Vec<CampaignReport>
where
    W: FaultWorkload,
    B: Fn(&Task) -> W + Sync,
{
    let engine = EvalEngine::with_workers(cfg.seed, 0);
    let mut sink = CollectSink::new();
    let id = rec.next_id();
    rec.span("engine.run", id, || {
        engine.run(
            tasks.len(),
            || (),
            |(), ctx| {
                rec.span("engine.task", id, || {
                    tasks
                        .get(ctx.task_id)
                        .map(|task| run_campaign(&build(task), cfg).journal_form())
                })
            },
            &mut sink,
        )
    });
    sink.into_inner().into_iter().flatten().collect()
}

/// A study job's reports over checked or traced workloads built from
/// `net`, one campaign per task; `None` in [`Mode::Library`], where the
/// caller runs the library's own driver instead.
pub fn study_mirror(
    mode: &Mode,
    net: impl FnOnce() -> Net,
    eval: &Arc<Dataset>,
    tasks: &[Task],
    cfg: CampaignConfig,
    check_every: u64,
) -> Option<Vec<CampaignReport>> {
    let fault = |t: &Task| -> Arc<dyn FaultModel> { Arc::new(BernoulliBitFlip::new(t.p)) };
    match mode {
        Mode::Library => None,
        Mode::Check(tally) => {
            let net = net();
            let build = |t: &Task| Checked::new(&net, eval, &t.spec, fault(t), check_every, tally);
            Some(study(tasks, &cfg, build, &Recorder::default()))
        }
        Mode::Trace(rec) => {
            let net = net();
            let build = |t: &Task| Traced::new(&net, eval, &t.spec, fault(t), rec);
            Some(study(tasks, &cfg, build, rec))
        }
    }
}

/// Content digest of a report set (FNV-1a over its JSON form).
pub fn digest<T: Serialize + ?Sized>(reports: &T) -> String {
    bdlfi::fingerprint("perfbench", reports)
}
