//! Statistics, the host stamp, and the result line.

use bdlfi_tensor::kernels;
use serde::{Number, Value};

/// Median of `xs` (`None` when empty).
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs` (`None` when
/// empty).
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let last = v.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let (a, b) = (*v.get(lo)?, *v.get(hi)?);
    Some(a + (b - a) * (pos - lo as f64))
}

/// Quantile `q` of `xs` when at least ten samples lie beyond it (`None`
/// otherwise): a reported tail rests on more than a handful of samples.
pub fn tail(xs: &[f64], q: f64) -> Option<f64> {
    let beyond = (1.0 - q) * xs.len() as f64;
    (beyond + 1e-9 >= 10.0).then(|| quantile(xs, q)).flatten()
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Metrics in the order they were added.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds a metric; a missing or non-finite value is an error, since
    /// every listed metric must be reported as a number.
    pub fn put(
        &mut self,
        name: impl Into<String>,
        value: Option<f64>,
        unit: &'static str,
    ) -> Result<(), String> {
        let name = name.into();
        match value {
            Some(v) if v.is_finite() => {
                self.0.push(Metric {
                    name,
                    value: v,
                    unit,
                });
                Ok(())
            }
            _ => Err(format!("metric {name} was not measured")),
        }
    }

    /// The value of metric `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// The benchmark's result line.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Health gates passed and no output mismatched.
    pub correct: bool,
    /// Operations attempted: configurations, or jobs on `serve-jobs`.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Metrics,
    /// Digests of the reports whose content must repeat exactly for one
    /// seed, keyed by what they cover.
    pub digests: Vec<(String, String)>,
    /// Why the run counts as failed, if it does.
    pub failure: Option<String>,
}

impl Outcome {
    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .0
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Object(vec![
                        ("value".to_string(), Value::Number(Number::F(m.value))),
                        ("unit".to_string(), Value::String(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        let line = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            (
                "attempted".to_string(),
                Value::Number(Number::U(self.attempted)),
            ),
            ("failed".to_string(), Value::Number(Number::U(self.failed))),
            ("metrics".to_string(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).unwrap_or_default()
    }
}

/// The host and kernel stamp every result carries: core count, CPU model,
/// AVX2 detection, the micro-kernel variants the selector picks for the
/// workload's main GEMM shapes, and any `BDLFI_KERNEL` override.
pub fn host_stamp(gemm: (usize, usize, usize), qgemm: (usize, usize, usize)) -> Value {
    let nproc = crate::nproc();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let f32_sel = kernels::select_f32(gemm.0, gemm.2, gemm.1);
    let i8_sel = kernels::select_i8(qgemm.0, qgemm.2, qgemm.1);
    let shape = |s: (usize, usize, usize)| format!("m={} k={} n={}", s.0, s.1, s.2);
    Value::Object(vec![
        ("nproc".into(), Value::Number(Number::U(nproc as u64))),
        ("cpu_model".into(), Value::String(cpu)),
        ("avx2".into(), Value::Bool(kernels::avx2_available())),
        ("f32_gemm_shape".into(), Value::String(shape(gemm))),
        (
            "f32_variant".into(),
            Value::String(f32_sel.variant.as_str().into()),
        ),
        ("i8_gemm_shape".into(), Value::String(shape(qgemm))),
        (
            "i8_variant".into(),
            Value::String(i8_sel.variant.as_str().into()),
        ),
        (
            "bdlfi_kernel".into(),
            std::env::var("BDLFI_KERNEL").map_or(Value::Null, Value::String),
        ),
    ])
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(tail(&xs, 0.95), quantile(&xs, 0.95));
        assert_eq!(tail(&xs[..199], 0.95), None);
        assert_eq!(tail(&xs, 0.99), None);
    }
}
