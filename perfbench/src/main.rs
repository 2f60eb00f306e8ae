//! Runs one benchmark workload and prints its result.
//!
//! ```text
//! bdlfi-perfbench --workload NAME --seed N --seconds S --trace 0|1 \
//!     --serve-bin PATH
//! ```
//!
//! `perfbench/run.py` builds both executables and supplies `--serve-bin`.
//!
//! The last line of standard output is the result: one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. The line before it is
//! the host and kernel stamp, the line before that the report digests.
//! Errors go to standard error with exit code 1; bad arguments exit 2.

use bdlfi_perfbench::report::host_stamp;
use bdlfi_perfbench::{run_benchmark, Ctx, Workload};
use serde::Value;
use std::path::PathBuf;
use std::process::ExitCode;

fn parse() -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Ctx {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        serve_bin: Some(serve_bin.ok_or("--serve-bin is required")?),
        out_dir: PathBuf::from("perfbench/out"),
    })
}

fn main() -> ExitCode {
    let ctx = match parse() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("bdlfi-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run_benchmark(&ctx) {
        Ok(outcome) => {
            if let Some(why) = &outcome.failure {
                eprintln!("bdlfi-perfbench: {} failed: {why}", ctx.workload.name());
            }
            let digests = Value::Object(
                outcome
                    .digests
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::String(v.clone())))
                    .collect(),
            );
            println!(
                "digests {}",
                serde_json::to_string(&digests).unwrap_or_default()
            );
            let host = host_stamp(
                bdlfi_perfbench::main_gemm(ctx.workload),
                bdlfi_perfbench::int8::QGEMM_SHAPE,
            );
            println!("host {}", serde_json::to_string(&host).unwrap_or_default());
            println!("{}", outcome.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bdlfi-perfbench: {} failed: {e}", ctx.workload.name());
            ExitCode::from(1)
        }
    }
}
