//! `int8-adaptive`: a trained int8 2-[128×3]-3 MLP under
//! `run_campaign_adaptive_controlled` with a checkpoint journal, at a
//! knee-region flip probability, until the completeness criteria certify.
//!
//! This is the paper's headline cost, time to certification. It exercises
//! the `qgemm`/requantization path, the completeness diagnostics, and
//! journal writes beside the compute.

use crate::layers;
use crate::mlp::{healthy, trained};
use crate::probe::{digest, Checked, Net, Traced, BATCH};
use crate::report::Metrics;
use crate::trace::{Recorder, Summary};
use crate::{compute_load, Compute, Ctx, JobOut, Load, Mode, Scenario, Workload, NETWORK_SEED};
use bdlfi::{
    assess_slices, run_campaign_adaptive_controlled, CampaignConfig, CampaignReport,
    CheckpointSpec, FaultWorkload, KernelChoice, QuantFaultyModel, RunControl,
};
use bdlfi_bayes::{seed_stream, ChainConfig};
use bdlfi_data::Dataset;
use bdlfi_faults::{BernoulliBitFlip, FaultConfig, SiteSpec};
use bdlfi_quant::{quantize_model, CalibConfig, QPrefixCache, QuantModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Hidden layer widths.
pub const HIDDEN: [usize; 3] = [128; 3];
/// Classes (= Gaussian blobs).
pub const CLASSES: usize = 3;
/// Examples generated; half train (and calibrate), half evaluate.
pub const EXAMPLES: usize = 512;
/// Training epochs (plain SGD, learning rate 0.02).
pub const EPOCHS: usize = 20;
/// The health gate's bound on golden error.
pub const MAX_GOLDEN_ERROR: f64 = 0.05;
/// Per-bit flip probability, in the knee region of this network's
/// error-versus-probability curve.
pub const FLIP_P: f64 = 2e-4;
/// Chains of the adaptive campaign.
pub const CHAINS: usize = 4;
/// Samples per chain per segment. Certification is checked at segment
/// ends, so the time to certify moves in steps of one segment; at 10 a
/// step is about a tenth of a typical job (≈100 samples per chain).
pub const SEGMENT: usize = 10;
/// Per-chain sample budget.
pub const MAX_SAMPLES: usize = 4000;

/// The `(m, k, n)` shape of the hidden layers' int8 GEMM (and of their f32
/// source).
pub const QGEMM_SHAPE: (usize, usize, usize) = (BATCH, HIDDEN[0], HIDDEN[1]);

/// Every `CHECK_EVERY`-th evaluation of the check job is compared with
/// cold dense re-inference.
const CHECK_EVERY: u64 = 16;

/// The workload's inputs.
pub struct Int8 {
    qfm: QuantFaultyModel,
    qm: QuantModel,
    eval: Arc<Dataset>,
    journal: PathBuf,
    /// The traced pipeline, built once per recorder and reused by every
    /// traced job, as the library path reuses `qfm`.
    traced: Mutex<Option<Traced>>,
    /// The report of the first traced job, for the completeness metrics.
    first: Mutex<Option<CampaignReport>>,
    seed: u64,
}

fn config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        chains: CHAINS,
        chain: ChainConfig {
            burn_in: 0,
            samples: SEGMENT,
            thin: 1,
        },
        kernel: KernelChoice::Prior,
        seed,
        criteria: Default::default(),
        workers: 0,
    }
}

impl Scenario for Int8 {
    const WORKLOAD: Workload = Workload::Int8Adaptive;

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let (model, train, eval) = trained(NETWORK_SEED, &HIDDEN, CLASSES, EXAMPLES, EPOCHS);
        let qm = quantize_model(&model, train.inputs(), &CalibConfig::default());
        let eval = Arc::new(eval);
        let qfm = QuantFaultyModel::new(
            qm.clone(),
            Arc::clone(&eval),
            &SiteSpec::AllParams,
            Arc::new(BernoulliBitFlip::new(FLIP_P)),
        );
        Ok(Int8 {
            qfm,
            qm,
            eval,
            journal: ctx
                .out_dir
                .join(format!("int8-adaptive-{}.jsonl", std::process::id())),
            traced: Mutex::new(None),
            first: Mutex::new(None),
            seed: ctx.seed,
        })
    }

    fn gate(&self) -> Result<(), String> {
        let logits = self.qm.clone().predict_all(self.eval.inputs(), BATCH);
        healthy(&logits, &self.eval, MAX_GOLDEN_ERROR)
    }

    fn measure(
        &self,
        seconds: f64,
        min_jobs: usize,
        rec: Option<&Arc<Recorder>>,
        check: bool,
    ) -> Result<Load, String> {
        let load = compute_load(self, self.seed, seconds, min_jobs, rec, check);
        let _ = std::fs::remove_file(&self.journal);
        load
    }

    fn layer_metrics(
        &self,
        _summary: &Summary,
        _rec: &Recorder,
        m: &mut Metrics,
    ) -> Result<(), String> {
        m.put(
            "tensor.qgemm_gops",
            Some(layers::qgemm_gops(QGEMM_SHAPE, seed_stream(self.seed, 3))),
            "GOP/s",
        )?;
        let mut q = self.qm.clone();
        let cache = QPrefixCache::build(&mut q, self.eval.inputs(), BATCH);
        layers::quant_ops(&q, &cache, m)?;
        m.put(
            "quant.predict_from_us",
            Some(self.fallback_us(&mut q, &cache)),
            "us",
        )?;
        let first = self
            .first
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
            .ok_or("no traced int8 job ran")?;
        let traces: Vec<&[f64]> = first.traces.iter().map(|t| t.samples()).collect();
        let per_chain = traces.iter().map(|t| t.len()).min().unwrap_or(0);
        let criteria = first.config.criteria;
        let t = Instant::now();
        let mut calls = 0u32;
        for k in (SEGMENT..=per_chain).step_by(SEGMENT) {
            let prefixes: Vec<&[f64]> = traces.iter().map(|t| t.get(..k).unwrap_or(t)).collect();
            black_box(assess_slices(&prefixes, &criteria));
            calls += 1;
        }
        m.put(
            "completeness.assess_us",
            (calls > 0).then(|| t.elapsed().as_secs_f64() / f64::from(calls) * 1e6),
            "us",
        )?;
        m.put(
            "completeness.samples_to_certify",
            Some(per_chain as f64),
            "count",
        )
    }

    const GEMM_SHAPE: (usize, usize, usize) = QGEMM_SHAPE;
}

impl Int8 {
    /// Mean microseconds of `QPrefixCache::predict_from` at the first dirty
    /// stage, over configurations drawn from the workload's prior.
    fn fallback_us(&self, q: &mut QuantModel, cache: &QPrefixCache) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed_stream(self.seed, 4));
        let sites = &self.qfm.sites().params;
        let fault = BernoulliBitFlip::new(FLIP_P);
        let cfgs: Vec<FaultConfig> = (0..200)
            .map(|_| FaultConfig::sample(sites, &fault, &mut rng))
            .collect();
        let t = Instant::now();
        for cfg in &cfgs {
            q.apply(cfg);
            let start = q.first_dirty_op(cfg).unwrap_or_else(|| q.len());
            black_box(cache.predict_from(q, start));
            q.apply(cfg);
        }
        t.elapsed().as_secs_f64() / cfgs.len() as f64 * 1e6
    }

    fn certify<W: FaultWorkload>(&self, w: &W, seed: u64) -> Result<CampaignReport, String> {
        let _ = std::fs::remove_file(&self.journal);
        let spec = CheckpointSpec::new(self.journal.clone(), String::new());
        run_campaign_adaptive_controlled(
            w,
            &config(seed),
            MAX_SAMPLES,
            &RunControl::new(),
            Some(&spec),
        )
        .map_err(|e| format!("adaptive campaign: {e}"))
    }
}

impl Compute for Int8 {
    fn job(&self, seed: u64, mode: &Mode) -> Result<JobOut, String> {
        let net = || Net::I8(self.qm.clone());
        let fault = Arc::new(BernoulliBitFlip::new(FLIP_P));
        let report = match mode {
            Mode::Library => self.certify(&self.qfm, seed)?,
            Mode::Check(tally) => {
                let w = Checked::new(
                    &net(),
                    &self.eval,
                    &SiteSpec::AllParams,
                    fault,
                    CHECK_EVERY,
                    tally,
                );
                self.certify(&w, seed)?
            }
            Mode::Trace(rec) => {
                let w = {
                    let mut slot = self.traced.lock().unwrap_or_else(PoisonError::into_inner);
                    match slot.as_ref().filter(|t| t.records_to(rec)) {
                        Some(t) => t.clone(),
                        None => slot
                            .insert(Traced::new(
                                &net(),
                                &self.eval,
                                &SiteSpec::AllParams,
                                fault,
                                rec,
                            ))
                            .clone(),
                    }
                };
                let report = self.certify(&w, seed)?;
                let mut first = self.first.lock().unwrap_or_else(PoisonError::into_inner);
                if first.is_none() {
                    *first = Some(report.clone());
                }
                report
            }
        };
        if !report.completeness.certified {
            return Err(format!(
                "adaptive campaign did not certify within {MAX_SAMPLES} samples per chain"
            ));
        }
        let per_chain = report.traces.first().map_or(0, |t| t.len());
        if per_chain <= SEGMENT {
            return Err("certified after one segment: the error is constant".into());
        }
        Ok(JobOut {
            configs: report.total_samples() as u64,
            digest: digest(&report.journal_form()),
        })
    }
}
