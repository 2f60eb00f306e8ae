//! `resnet-layerwise`: a seeded-init ResNet-18 at base width 8 on
//! synth-CIFAR images, one campaign per `resnet18_layer_positions()` entry
//! under `LayerBudget::ExpectedFlips` (`run_layerwise`).
//!
//! The sparse-delta path refuses convolution fan-out, so most
//! configurations re-run a dense convolution suffix through
//! `PrefixCache::predict_from`: this is where convolution and narrow-shape
//! kernel work shows. The weights are untrained on purpose: training takes
//! minutes and would swamp `setup_s`.

use crate::layers;
use crate::probe::{digest, study_mirror, Net, Task, BATCH};
use crate::report::Metrics;
use crate::trace::{Recorder, Summary};
use crate::{compute_load, Compute, Ctx, JobOut, Load, Mode, Scenario, Workload, NETWORK_SEED};
use bdlfi::{run_layerwise, CampaignConfig, EvalEngine, KernelChoice, LayerBudget};
use bdlfi_bayes::{seed_stream, ChainConfig};
use bdlfi_data::{synth_cifar, Dataset, SynthCifarConfig};
use bdlfi_faults::{resolve_sites, SiteSpec};
use bdlfi_nn::{resnet18, resnet18_layer_positions, PrefixCache, ResNetConfig, Sequential};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Synth-CIFAR images in the evaluation set.
pub const IMAGES: usize = 8;
/// Expected flipped bits per configuration in every layer.
pub const FLIPS: f64 = 2.0;
/// Chains per layer campaign.
pub const CHAINS: usize = 2;
/// Recorded samples per chain.
pub const SAMPLES: usize = 3;

/// Every `CHECK_EVERY`-th evaluation of the check job is compared with
/// cold dense re-inference.
const CHECK_EVERY: u64 = 6;

/// The workload's inputs.
pub struct Resnet {
    model: Sequential,
    eval: Arc<Dataset>,
    cache: PrefixCache,
    positions: Vec<&'static str>,
    tasks: Vec<Task>,
    seed: u64,
}

impl Resnet {
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
}

impl Scenario for Resnet {
    const WORKLOAD: Workload = Workload::ResnetLayerwise;

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let mut rng = StdRng::seed_from_u64(seed_stream(NETWORK_SEED, 1));
        let eval = Arc::new(synth_cifar(IMAGES, SynthCifarConfig::default(), &mut rng));
        let mut rng = StdRng::seed_from_u64(seed_stream(NETWORK_SEED, 2));
        let mut model = resnet18(ResNetConfig::default(), &mut rng);
        let cache = PrefixCache::build(&mut model, eval.inputs(), BATCH);
        let positions = resnet18_layer_positions();
        let budget = LayerBudget::ExpectedFlips(FLIPS);
        let tasks = positions
            .iter()
            .map(|&prefix| {
                let spec = SiteSpec::LayerParams {
                    prefix: prefix.to_string(),
                };
                let elements = resolve_sites(&model, &spec).total_param_elements();
                Task {
                    p: budget.probability_for(elements),
                    spec,
                }
            })
            .collect();
        Ok(Resnet {
            model,
            eval,
            cache,
            positions,
            tasks,
            seed: ctx.seed,
        })
    }

    fn gate(&self) -> Result<(), String> {
        if self
            .cache
            .golden_logits()
            .data()
            .iter()
            .all(|v| v.is_finite())
        {
            Ok(())
        } else {
            Err("golden logits are not finite".into())
        }
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
        _rec: &Recorder,
        m: &mut Metrics,
    ) -> Result<(), String> {
        m.put(
            "tensor.conv_gflops",
            Some(layers::conv_gflops(&self.model, &self.cache)?),
            "GFLOP/s",
        )?;
        layers::nn_layers(&self.model, &self.cache, m)?;
        m.put(
            "nn.predict_from_us",
            summary.get("nn.predict_from").mean_us(),
            "us",
        )?;
        m.put(
            "nn.prefix_build_s",
            summary.get("nn.prefix_build").mean_us().map(|us| us / 1e6),
            "s",
        )?;
        let workers = EvalEngine::with_workers(0, 0).workers_for(self.tasks.len());
        let tasks = summary.get("engine.task");
        let wall = summary.get("engine.run").total_s();
        m.put(
            "engine.busy_frac",
            (wall > 0.0).then(|| tasks.total_s() / (workers as f64 * wall)),
            "ratio",
        )?;
        m.put(
            "engine.task_us_max",
            tasks.ns.iter().max().map(|&ns| ns as f64 / 1e3),
            "us",
        )
    }

    // The per-image im2col GEMM of a layer1 3×3 convolution:
    // (8 output channels) × (8·3·3) · (8·3·3) × (32·32 pixels).
    const GEMM_SHAPE: (usize, usize, usize) = (8, 72, 1024);

    // A job takes 0.3–0.6 s, so the 200 jobs behind a p95 would keep the
    // traced run near its time limit on a slow host; p90 needs 100.
    const JOB_TAIL_Q: f64 = 0.90;
}

impl Compute for Resnet {
    fn job(&self, seed: u64, mode: &Mode) -> Result<JobOut, String> {
        let net = || Net::F32(self.model.clone());
        let cfg = Resnet::config(seed);
        let reports = match study_mirror(mode, net, &self.eval, &self.tasks, cfg, CHECK_EVERY) {
            Some(reports) => reports,
            None => run_layerwise(
                &self.model,
                &self.eval,
                &self.positions,
                LayerBudget::ExpectedFlips(FLIPS),
                &cfg,
            )
            .layers
            .into_iter()
            .map(|l| l.report)
            .collect(),
        };
        Ok(JobOut {
            configs: reports.iter().map(|r| r.total_samples() as u64).sum(),
            digest: digest(&reports),
        })
    }
}
