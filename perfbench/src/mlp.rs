//! `mlp-delta-sweep`: a trained 2-[64×8]-4 MLP swept over log-spaced low
//! flip probabilities with faults in all parameters (`run_sweep`).
//!
//! Almost every configuration is column-confined, so the sparse-delta
//! forward, fault sampling and injection, MCMC and the engine dominate;
//! the GEMMs are small and convolution is unused.

use crate::layers;
use crate::probe::{digest, study_mirror, Net, Task, BATCH};
use crate::report::Metrics;
use crate::trace::{Recorder, Summary};
use crate::{compute_load, Compute, Ctx, JobOut, Load, Mode, Scenario, Workload, NETWORK_SEED};
use bdlfi::{
    forward_delta_f32, log_spaced_probabilities, run_sweep, CampaignConfig, KernelChoice,
    DENSIFY_THRESHOLD,
};
use bdlfi_bayes::{seed_stream, ChainConfig};
use bdlfi_data::{gaussian_blobs, Dataset};
use bdlfi_faults::{resolve_sites, BernoulliBitFlip, FaultConfig, ParamSite, SiteSpec};
use bdlfi_nn::metrics::classification_error;
use bdlfi_nn::optim::Sgd;
use bdlfi_nn::{mlp, PrefixCache, Sequential, TrainConfig, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Hidden layer widths.
pub const HIDDEN: [usize; 8] = [64; 8];
/// Classes (= Gaussian blobs).
pub const CLASSES: usize = 4;
/// Examples generated; half train, half evaluate.
pub const EXAMPLES: usize = 512;
/// Training epochs (plain SGD, learning rate 0.02).
pub const EPOCHS: usize = 20;
/// The health gate's bound on golden error.
pub const MAX_GOLDEN_ERROR: f64 = 0.05;
/// Chains at every sweep point.
pub const CHAINS: usize = 2;
/// Recorded samples per chain at every sweep point.
pub const SAMPLES: usize = 40;
/// Configurations per sweep point replayed for `delta.hit_us` and
/// `delta.fallback_us`.
const REPLAYS: usize = 200;

/// The sweep's flip probabilities: 0.1 to 10 expected flips per
/// configuration over the network's ≈0.95 M parameter bits.
pub fn probabilities() -> Vec<f64> {
    log_spaced_probabilities(1e-7, 1e-5, 5)
}

/// Trains `mlp(2, hidden, classes)` on Gaussian blobs with the shared
/// recipe (plain SGD, learning rate 0.02, batch 32) and returns it
/// with the training and evaluation splits.
pub fn trained(
    seed: u64,
    hidden: &[usize],
    classes: usize,
    examples: usize,
    epochs: usize,
) -> (Sequential, Dataset, Dataset) {
    let mut rng = StdRng::seed_from_u64(seed_stream(seed, 1));
    let data = gaussian_blobs(examples, classes, 0.5, &mut rng);
    let (train, eval) = data.split(0.5, &mut rng);
    let mut rng = StdRng::seed_from_u64(seed_stream(seed, 2));
    let mut model = mlp(2, hidden, classes, &mut rng);
    let mut trainer = Trainer::new(
        Sgd::new(0.02),
        TrainConfig {
            epochs,
            batch_size: 32,
            ..TrainConfig::default()
        },
    );
    trainer.fit(&mut model, train.inputs(), train.labels(), &mut rng);
    (model, train, eval)
}

/// Checks that golden logits are finite and golden error is at most
/// `bound`.
pub fn healthy(logits: &bdlfi_tensor::Tensor, eval: &Dataset, bound: f64) -> Result<(), String> {
    if !logits.data().iter().all(|v| v.is_finite()) {
        return Err("golden logits are not finite".into());
    }
    let err = classification_error(logits, eval.labels());
    if err > bound {
        return Err(format!("golden error {err:.4} exceeds {bound}"));
    }
    Ok(())
}

/// Every `CHECK_EVERY`-th evaluation of the check job is compared with
/// cold dense re-inference.
const CHECK_EVERY: u64 = 4;

/// The workload's inputs.
pub struct Mlp {
    model: Sequential,
    eval: Arc<Dataset>,
    cache: PrefixCache,
    tasks: Vec<Task>,
    seed: u64,
}

impl Mlp {
    fn config(seed: u64) -> CampaignConfig {
        CampaignConfig {
            chains: CHAINS,
            chain: ChainConfig {
                burn_in: 0,
                samples: SAMPLES,
                thin: 1,
            },
            kernel: KernelChoice::Prior,
            seed,
            criteria: Default::default(),
            workers: 0,
        }
    }

    /// Replays configurations drawn from the prior at every sweep point on
    /// one thread and times two calls on each: the sparse-delta forward
    /// (`forward_delta_f32`) and the exact fallback it replaces, the dense
    /// suffix resumed at the first dirty layer
    /// (`PrefixCache::predict_from`). The two alternate which runs first.
    /// Returns the mean microseconds of each over the configurations the
    /// delta path accepts.
    fn delta_replay_us(&self, sites: &[ParamSite]) -> Option<(f64, f64)> {
        let mut rng = StdRng::seed_from_u64(seed_stream(self.seed, 4));
        let mut model = self.model.clone();
        let cfgs: Vec<FaultConfig> = self
            .tasks
            .iter()
            .flat_map(|t| {
                let fault = BernoulliBitFlip::new(t.p);
                (0..REPLAYS)
                    .map(|_| FaultConfig::sample(sites, &fault, &mut rng))
                    .collect::<Vec<_>>()
            })
            .collect();
        let (mut hit_s, mut fallback_s, mut hits) = (0.0, 0.0, 0u32);
        for (i, cfg) in cfgs.iter().enumerate() {
            cfg.apply(&mut model);
            let start = cfg.first_dirty_layer(&model).unwrap_or_else(|| model.len());
            let ((hit, delta_s), dense_s) = if i % 2 == 0 {
                let delta = self.time_delta(&mut model, cfg);
                (delta, self.time_predict_from(&mut model, start))
            } else {
                let dense_s = self.time_predict_from(&mut model, start);
                (self.time_delta(&mut model, cfg), dense_s)
            };
            cfg.apply(&mut model);
            if hit {
                hit_s += delta_s;
                fallback_s += dense_s;
                hits += 1;
            }
        }
        (hits > 0).then(|| {
            let n = f64::from(hits);
            (hit_s / n * 1e6, fallback_s / n * 1e6)
        })
    }

    fn time_delta(&self, model: &mut Sequential, cfg: &FaultConfig) -> (bool, f64) {
        let t = Instant::now();
        let out = forward_delta_f32(model, &self.cache, cfg, DENSIFY_THRESHOLD);
        let secs = t.elapsed().as_secs_f64();
        (black_box(out).is_some(), secs)
    }

    fn time_predict_from(&self, model: &mut Sequential, start: usize) -> f64 {
        let t = Instant::now();
        let out = self.cache.predict_from(model, start);
        let secs = t.elapsed().as_secs_f64();
        black_box(out);
        secs
    }
}

impl Scenario for Mlp {
    const WORKLOAD: Workload = Workload::MlpDeltaSweep;

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let (mut model, _, eval) = trained(NETWORK_SEED, &HIDDEN, CLASSES, EXAMPLES, EPOCHS);
        let cache = PrefixCache::build(&mut model, eval.inputs(), BATCH);
        let tasks = probabilities()
            .into_iter()
            .map(|p| Task {
                spec: SiteSpec::AllParams,
                p,
            })
            .collect();
        Ok(Mlp {
            model,
            eval: Arc::new(eval),
            cache,
            tasks,
            seed: ctx.seed,
        })
    }

    fn gate(&self) -> Result<(), String> {
        healthy(&self.cache.golden_logits(), &self.eval, MAX_GOLDEN_ERROR)
    }

    fn measure(
        &self,
        seconds: f64,
        min_jobs: usize,
        rec: Option<&Arc<Recorder>>,
        check: bool,
    ) -> Result<Load, String> {
        compute_load(self, self.seed, seconds, min_jobs, rec, check)
    }

    fn layer_metrics(
        &self,
        summary: &Summary,
        rec: &Recorder,
        m: &mut Metrics,
    ) -> Result<(), String> {
        let sites = resolve_sites(&self.model, &SiteSpec::AllParams);
        let mid = self.tasks.get(self.tasks.len() / 2).map_or(1e-6, |t| t.p);
        let fault = BernoulliBitFlip::new(mid);
        let (sample_us, log_prob_us) =
            layers::fault_calls(&sites.params, &fault, 2000, seed_stream(self.seed, 3))?;
        m.put("faults.sample_us", Some(sample_us), "us")?;
        // Every evaluation injects once and undoes once.
        let inject = summary.get("faults.apply").mean_us();
        let undo = summary.get("faults.undo").mean_us();
        m.put(
            "faults.apply_us",
            inject.zip(undo).map(|(a, u)| a + u),
            "us",
        )?;
        m.put("faults.log_prob_us", Some(log_prob_us), "us")?;
        let configs = rec.counter("faults.configs");
        m.put(
            "faults.flips_per_config",
            (configs > 0).then(|| rec.counter("faults.flips") as f64 / configs as f64),
            "count",
        )?;
        let (hits, misses) = (rec.counter("delta.hit"), rec.counter("delta.miss"));
        m.put(
            "delta.hit_ratio",
            (hits + misses > 0).then(|| hits as f64 / (hits + misses) as f64),
            "ratio",
        )?;
        let replay = self.delta_replay_us(&sites.params);
        m.put("delta.hit_us", replay.map(|r| r.0), "us")?;
        m.put("delta.fallback_us", replay.map(|r| r.1), "us")
    }

    const GEMM_SHAPE: (usize, usize, usize) = (BATCH, HIDDEN[0], HIDDEN[1]);
}

impl Compute for Mlp {
    fn job(&self, seed: u64, mode: &Mode) -> Result<JobOut, String> {
        let net = || Net::F32(self.model.clone());
        let cfg = Mlp::config(seed);
        let reports = match study_mirror(mode, net, &self.eval, &self.tasks, cfg, CHECK_EVERY) {
            Some(reports) => reports,
            None => {
                let ps: Vec<f64> = self.tasks.iter().map(|t| t.p).collect();
                run_sweep(&self.model, &self.eval, &SiteSpec::AllParams, &ps, &cfg)
                    .points
                    .into_iter()
                    .map(|p| p.report)
                    .collect()
            }
        };
        Ok(JobOut {
            configs: reports.iter().map(|r| r.total_samples() as u64).sum(),
            digest: digest(&reports),
        })
    }
}
