//! Layer probes: timed calls into `bdlfi-tensor`, `bdlfi-nn`,
//! `bdlfi-quant`, `bdlfi-faults` and `bdlfi::checkpoint` at a workload's
//! own shapes and data. FLOP counts are computed from shapes (two per
//! multiply-add; two per element for batch-norm, one for ReLU, residual
//! add and pooling), not measured.

use crate::report::{median, Metrics};
use bdlfi::{read_journal, CheckpointWriter};
use bdlfi_faults::{FaultConfig, FaultModel, ParamSite};
use bdlfi_nn::{ForwardCtx, Mode, PrefixCache, Sequential};
use bdlfi_quant::{QPrefixCache, QuantModel};
use bdlfi_tensor::{conv2d, qgemm, Conv2dSpec, Tensor};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Median seconds per call of `f`, over several batches that each run for
/// at least a millisecond.
pub fn per_call_s(mut f: impl FnMut()) -> f64 {
    f();
    let mut samples = Vec::new();
    for _ in 0..7 {
        let t = Instant::now();
        let mut calls = 0u32;
        while calls == 0 || t.elapsed().as_secs_f64() < 1e-3 {
            f();
            calls += 1;
        }
        samples.push(t.elapsed().as_secs_f64() / f64::from(calls));
    }
    median(&samples).unwrap_or(0.0)
}

/// GFLOP/s of `Tensor::matmul` at `(m, k, n)`.
pub fn gemm_gflops((m, k, n): (usize, usize, usize), seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = Tensor::rand_normal([m, k], 0.0, 1.0, &mut rng);
    let b = Tensor::rand_normal([k, n], 0.0, 1.0, &mut rng);
    let s = per_call_s(|| {
        black_box(black_box(&a).matmul(black_box(&b)));
    });
    2.0 * (m * k * n) as f64 / s / 1e9
}

/// GOP/s of the int8 `qgemm` at `(m, k, n)`.
pub fn qgemm_gops((m, k, n): (usize, usize, usize), seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let a: Vec<i8> = (0..m * k)
        .map(|_| rng.random_range(-127i32..128) as i8)
        .collect();
    let b: Vec<i8> = (0..k * n)
        .map(|_| rng.random_range(-127i32..128) as i8)
        .collect();
    let mut c = vec![0i32; m * n];
    let s = per_call_s(|| {
        qgemm(m, n, k, black_box(&a), black_box(&b), &mut c);
        black_box(&c);
    });
    2.0 * (m * k * n) as f64 / s / 1e9
}

/// GFLOP/s of `conv2d` summed over every convolution weight of `model`,
/// each run at its own shape on golden activations from `cache`.
pub fn conv_gflops(model: &Sequential, cache: &PrefixCache) -> Result<f64, String> {
    let mut flops = 0.0;
    let mut secs = 0.0;
    for (l, name) in model.layer_names().iter().enumerate() {
        let input = cache.boundary(0, l);
        let output = cache.boundary(0, l + 1);
        for path in model.param_paths() {
            let Some(rest) = path.strip_prefix(&format!("{name}.")) else {
                continue;
            };
            let Some(w) = model.param_value(&path).filter(|w| w.rank() == 4) else {
                continue;
            };
            // A block's second convolution reads an activation of the
            // block's output shape (its golden output stands in); the
            // others read the layer input.
            let (x, stride) = if rest.starts_with("conv2") {
                (output, 1)
            } else {
                (input, input.dim(2) / output.dim(2).max(1))
            };
            let k = w.dim(2);
            let spec = Conv2dSpec::new(k).with_stride(stride).with_padding(k / 2);
            secs += per_call_s(|| {
                black_box(conv2d(black_box(x), &w, None, spec));
            });
            flops += 2.0 * (x.dim(0) * output.dim(2) * output.dim(3) * w.len()) as f64;
        }
    }
    if secs > 0.0 {
        Ok(flops / secs / 1e9)
    } else {
        Err("model has no convolution".into())
    }
}

/// FLOPs of top-level layer `l` of `model` on the given golden input and
/// output, from shapes.
fn layer_flops(model: &Sequential, l: usize, input: &Tensor, output: &Tensor) -> f64 {
    let (name, layer) = model.layer_at(l);
    let n = input.dim(0);
    let out_elems = output.len() as f64;
    let mut flops = 0.0;
    for path in model.param_paths() {
        if !path.starts_with(&format!("{name}.")) {
            continue;
        }
        match model.param_value(&path) {
            Some(w) if w.rank() == 4 && path.ends_with("weight") => {
                let plane = output.dim(2) * output.dim(3);
                flops += 2.0 * (n * plane * w.len()) as f64;
            }
            Some(w) if w.rank() == 2 => flops += 2.0 * (n * w.len()) as f64,
            _ => {}
        }
    }
    flops
        + match layer.kind() {
            "batchnorm2d" => 2.0 * out_elems,
            "relu" => out_elems,
            "global_avg_pool" => input.len() as f64,
            // Two batch-norms, two ReLUs and the residual add, plus the
            // projection's batch-norm when there is one.
            "basic_block" if input.dims() != output.dims() => 9.0 * out_elems,
            "basic_block" => 7.0 * out_elems,
            _ => 0.0,
        }
}

/// `nn.layer_us.<layer>`, `nn.layer_gflops.<layer>` and
/// `nn.layer_share.<layer>` for every top-level layer: one
/// `Sequential::forward_one` per cached golden batch.
pub fn nn_layers(model: &Sequential, cache: &PrefixCache, m: &mut Metrics) -> Result<(), String> {
    let mut model = model.clone();
    let mut rows = Vec::new();
    for (l, name) in model.layer_names().into_iter().enumerate() {
        let mut secs = 0.0;
        let mut flops = 0.0;
        for b in 0..cache.num_batches() {
            let (input, output) = (cache.boundary(b, l), cache.boundary(b, l + 1));
            secs += per_call_s(|| {
                let mut ctx = ForwardCtx::new(Mode::Eval);
                black_box(model.forward_one(l, black_box(input), &mut ctx));
            });
            flops += layer_flops(&model, l, input, output);
        }
        rows.push((name, secs, flops));
    }
    let total: f64 = rows.iter().map(|r| r.1).sum();
    for (name, secs, flops) in rows {
        m.put(format!("nn.layer_us.{name}"), Some(secs * 1e6), "us")?;
        m.put(
            format!("nn.layer_gflops.{name}"),
            Some(flops / secs / 1e9),
            "GFLOP/s",
        )?;
        m.put(
            format!("nn.layer_share.{name}"),
            Some(secs / total),
            "ratio",
        )?;
    }
    Ok(())
}

/// `quant.op_us.<op>` and `quant.op_gops.<op>` for every stage of the int8
/// model: one `QuantModel::forward_one` per cached golden batch. Dense
/// stages count two operations per multiply-add; others one per element.
pub fn quant_ops(q: &QuantModel, cache: &QPrefixCache, m: &mut Metrics) -> Result<(), String> {
    let mut q = q.clone();
    for (l, name) in q.op_names().into_iter().enumerate() {
        let mut secs = 0.0;
        let mut ops = 0.0;
        for b in 0..cache.num_batches() {
            let (input, output) = (cache.boundary(b, l), cache.boundary(b, l + 1));
            secs += per_call_s(|| {
                black_box(q.forward_one(l, black_box(input)));
            });
            ops += match q.op_at(l).1.as_dense() {
                Some(_) => 2.0 * (input.len() * output.dim(1)) as f64,
                None => output.len() as f64,
            };
        }
        m.put(format!("quant.op_us.{name}"), Some(secs * 1e6), "us")?;
        m.put(
            format!("quant.op_gops.{name}"),
            Some(ops / secs / 1e9),
            "GOP/s",
        )?;
    }
    Ok(())
}

/// Mean microseconds of `FaultConfig::sample` and `FaultConfig::log_prob`
/// over `n` configurations drawn from `fault` over `sites`.
pub fn fault_calls(
    sites: &[ParamSite],
    fault: &dyn FaultModel,
    n: usize,
    seed: u64,
) -> Result<(f64, f64), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let t = Instant::now();
    let cfgs: Vec<FaultConfig> = (0..n)
        .map(|_| FaultConfig::sample(sites, fault, &mut rng))
        .collect();
    let sample_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for c in &cfgs {
        black_box(
            c.log_prob(sites, fault)
                .ok_or("fault model has no density")?,
        );
    }
    let log_prob_s = t.elapsed().as_secs_f64();
    let per = |s: f64| s / n.max(1) as f64 * 1e6;
    Ok((per(sample_s), per(log_prob_s)))
}

/// Re-appends a finished journal's entries to a fresh `CheckpointWriter`:
/// mean microseconds per append and per fsync, and bytes per entry.
pub fn checkpoint(journal: &Path, dir: &Path) -> Result<(f64, f64, f64), String> {
    let contents = read_journal(journal).map_err(|e| format!("journal: {e}"))?;
    let entries = contents.values.len();
    if entries == 0 {
        return Err("journal has no entries".into());
    }
    let header_bytes = std::fs::read_to_string(journal)
        .map_err(|e| format!("journal: {e}"))?
        .lines()
        .next()
        .map_or(0, |l| l.len() + 1);
    let bytes = contents.complete_len as f64 - header_bytes as f64;
    let mut header = contents.header.clone();
    header.shard = None;
    let mut append_s = 0.0;
    let mut sync_s = 0.0;
    let rounds = 8;
    for round in 0..rounds {
        let path = dir.join(format!("checkpoint-probe-{round}.jsonl"));
        let _ = std::fs::remove_file(&path);
        let mut w = CheckpointWriter::create(&path, &header, usize::MAX)
            .map_err(|e| format!("checkpoint probe: {e}"))?;
        for (task, value) in contents.values.iter().enumerate() {
            let t = Instant::now();
            w.append(task, value).map_err(|e| format!("append: {e}"))?;
            append_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            w.sync().map_err(|e| format!("sync: {e}"))?;
            sync_s += t.elapsed().as_secs_f64();
        }
        drop(w);
        let _ = std::fs::remove_file(&path);
    }
    let per = (entries * rounds) as f64;
    Ok((
        append_s / per * 1e6,
        sync_s / per * 1e6,
        bytes / entries as f64,
    ))
}
