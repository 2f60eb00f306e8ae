//! `serve-jobs`: a `bdlfi-serve` child process with `--pool` equal to the
//! core count, driven in a closed loop by two clients. Each client submits
//! a small journaled campaign (alternately an f32 and an int8 spec),
//! streams its events to `done`, and only then submits the next.
//!
//! This is the only workload that exercises HTTP, the fair-share
//! scheduler, the per-job workload build and fsync-per-append. Compute per
//! configuration is small, so overhead shows.

use crate::cpu;
use crate::layers;
use crate::mlp::healthy;
use crate::probe::{digest, Net, Traced, BATCH};
use crate::report::{median, peak_rss_mib, Metrics};
use crate::trace::{Recorder, Summary};
use crate::{job_seed, Ctx, Load, Scenario, Workload, NETWORK_SEED, TAIL_EVALS};
use bdlfi::{run_campaign, CampaignConfig, CheckpointSpec, KernelChoice, RunControl};
use bdlfi_bayes::{seed_stream, ChainConfig};
use bdlfi_faults::{BernoulliBitFlip, SiteSpec};
use bdlfi_serve::client;
use bdlfi_serve::spec::{
    build_workload, DatasetSpec, DriverSpec, JobSpec, ModelSpec, ScenarioSpec,
    Workload as SpecWorkload,
};
use bdlfi_serve::{job_fingerprint, run_driver, JobOutcome};
use serde::{Number, Serialize, Value};
use std::io::{BufRead, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Closed-loop clients. Each holds at most one connection at a time:
/// `POST /jobs`, then the job's event stream.
pub const CLIENTS: usize = 2;
/// Chains of every job's campaign.
pub const CHAINS: usize = 2;
/// Recorded samples per chain.
pub const SAMPLES: usize = 40;
/// Every `CHECK_EVERY`-th job's report is compared with the same spec run
/// in process.
pub const CHECK_EVERY: usize = 25;
/// The health gate's bound on the specs' golden error.
pub const MAX_GOLDEN_ERROR: f64 = 0.1;
/// The daemon keeps every job's record, so its memory grows with the jobs
/// it has run: `peak_rss_mib` is read once this many jobs have completed,
/// which keeps it independent of throughput.
pub const RSS_AT_JOBS: usize = 200;
/// In-process jobs a traced run runs at most for its evaluation spans.
const MAX_TWINS: usize = 200;
/// `GET /jobs/{id}` round trips timed in a traced run.
const STATUS_PROBES: usize = 20;
const TIMEOUT: Duration = Duration::from_secs(60);

/// Job `j`'s spec: the f32 network for even `j`, its int8 deployment for
/// odd `j`, each with its own campaign seed.
pub fn spec(seed: u64, j: usize) -> JobSpec {
    JobSpec {
        scenario: ScenarioSpec {
            dataset: DatasetSpec {
                examples: 200,
                classes: 3,
                spread: 0.6,
                seed: seed_stream(NETWORK_SEED, 1),
                train_frac: 0.5,
            },
            model: ModelSpec {
                hidden: vec![32],
                epochs: 20,
                batch_size: 32,
                lr: 0.02,
                momentum: 0.0,
                seed: seed_stream(NETWORK_SEED, 2),
            },
            quantized: j % 2 == 1,
            sites: SiteSpec::AllParams,
            flip_probability: 1e-4,
        },
        driver: DriverSpec::Campaign {
            config: CampaignConfig {
                chains: CHAINS,
                chain: ChainConfig {
                    burn_in: 0,
                    samples: SAMPLES,
                    thin: 1,
                },
                kernel: KernelChoice::Prior,
                seed: job_seed(seed, j),
                criteria: Default::default(),
                workers: 1,
            },
        },
        shard: None,
    }
}

/// A running daemon; stopped (and waited for) on drop.
struct Daemon {
    child: Child,
    addr: String,
    state_dir: PathBuf,
}

impl Daemon {
    fn spawn(bin: &Path, state_dir: PathBuf, pool: usize) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&state_dir);
        let mut child = Command::new(bin)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--state-dir")
            .arg(&state_dir)
            .arg("--pool")
            .arg(pool.to_string())
            .arg("--sync-every")
            .arg("1")
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let first = child.stdout.take().and_then(|out| {
            let mut line = String::new();
            std::io::BufReader::new(out).read_line(&mut line).ok()?;
            Some(line)
        });
        let addr = first
            .as_deref()
            .and_then(|l| l.trim().rsplit(' ').next())
            .filter(|a| a.contains(':'))
            .map(str::to_string);
        let mut daemon = Daemon {
            child,
            addr: addr.clone().unwrap_or_default(),
            state_dir,
        };
        if addr.is_none() {
            daemon.stop();
            return Err(format!("daemon did not announce its address: {first:?}"));
        }
        Ok(daemon)
    }

    /// Polls `GET /healthz` until it answers 200.
    fn wait_healthy(&self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match client::request(&self.addr, "GET", "/healthz", None, TIMEOUT) {
                Ok(r) if r.status == 200 => return Ok(()),
                _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
                other => return Err(format!("daemon never became healthy: {other:?}")),
            }
        }
    }

    fn stop(&mut self) {
        if !self.addr.is_empty() {
            let _ = client::request(&self.addr, "POST", "/shutdown", None, TIMEOUT);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while matches!(self.child.try_wait(), Ok(None)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One job as a client saw it.
struct Done {
    j: usize,
    id: String,
    submit: Instant,
    submitted: Instant,
    first_result: Option<Instant>,
    done: Instant,
}

/// Submits job `j` and streams its events to `done`.
fn run_one(addr: &str, seed: u64, j: usize) -> Result<Done, String> {
    let body =
        serde_json::to_string(&spec(seed, j).to_json_value()).map_err(|e| format!("spec: {e}"))?;
    let submit = Instant::now();
    let resp = client::request(addr, "POST", "/jobs", Some(&body), TIMEOUT)?;
    let submitted = Instant::now();
    if resp.status != 202 {
        return Err(format!("POST /jobs got {}: {}", resp.status, resp.body));
    }
    let id = serde_json::from_str::<Value>(&resp.body)
        .ok()
        .and_then(|v| v.get("id").and_then(Value::as_str).map(str::to_string))
        .ok_or_else(|| format!("submit response has no id: {}", resp.body))?;

    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(TIMEOUT))
        .map_err(|e| format!("timeout: {e}"))?;
    write!(
        stream,
        "GET /jobs/{id}/events HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("events request: {e}"))?;
    let mut seen = Vec::new();
    let mut buf = [0u8; 8192];
    let mut first_result = None;
    loop {
        let n = stream.read(&mut buf).map_err(|e| format!("events: {e}"))?;
        if n == 0 {
            return Err(format!("job {id}: event stream ended without done"));
        }
        seen.extend_from_slice(buf.get(..n).unwrap_or_default());
        let text = String::from_utf8_lossy(&seen);
        if first_result.is_none() && text.contains(r#""event":"result""#) {
            first_result = Some(Instant::now());
        }
        if text.contains(r#""event":"done""#) {
            if !text.starts_with("HTTP/1.1 200") {
                return Err(format!(
                    "job {id}: events answered {}",
                    text.lines().next().unwrap_or("")
                ));
            }
            return Ok(Done {
                j,
                id,
                submit,
                submitted,
                first_result,
                done: Instant::now(),
            });
        }
        if text.contains(r#""event":"failed""#) || text.contains(r#""event":"interrupted""#) {
            return Err(format!("job {id} did not complete: {text}"));
        }
    }
}

/// A report with execution metadata (`run_meta`, worker counts) nulled.
fn normalized(report: &Value) -> Value {
    match report {
        Value::Object(entries) => Value::Object(
            entries
                .iter()
                .map(|(k, v)| {
                    let v = match k.as_str() {
                        "run_meta" => Value::Null,
                        "workers" => Value::Number(Number::U(0)),
                        _ => normalized(v),
                    };
                    (k.clone(), v)
                })
                .collect(),
        ),
        Value::Array(items) => Value::Array(items.iter().map(normalized).collect()),
        other => other.clone(),
    }
}

/// The workload's inputs: a healthy daemon, and the f32 and int8 job
/// specs' networks built in process for the health gate.
pub struct Serve {
    daemon: Daemon,
    specs: Vec<SpecWorkload>,
    /// The daemon's CPU time from spawn until it answered, in seconds.
    startup_cpu_s: f64,
    out_dir: PathBuf,
    seed: u64,
    /// Journal of a completed job, for the checkpoint probe.
    journal: Mutex<Option<PathBuf>>,
    /// The daemon's peak resident set once `RSS_AT_JOBS` jobs completed.
    rss_mib: Mutex<Option<f64>>,
    /// The daemon's kernel-mode CPU time per job in the last measured
    /// phase, in milliseconds.
    kernel_ms_per_job: Mutex<Option<f64>>,
}

impl Scenario for Serve {
    const WORKLOAD: Workload = Workload::ServeJobs;

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        static SPAWNS: AtomicUsize = AtomicUsize::new(0);
        let bin = ctx
            .serve_bin
            .as_deref()
            .ok_or("serve-jobs needs --serve-bin (the bdlfi-serve executable)")?;
        let specs = (0..2)
            .map(|j| build_workload(&spec(ctx.seed, j).scenario).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let n = SPAWNS.fetch_add(1, Ordering::Relaxed);
        let state = ctx
            .out_dir
            .join(format!("serve-state-{}-{n}", std::process::id()));
        let daemon = Daemon::spawn(bin, state, crate::nproc())?;
        daemon.wait_healthy()?;
        let startup_cpu_s = cpu::child_live_threads_s(daemon.child.id())
            .ok_or("cannot read the daemon's CPU time")?;
        Ok(Serve {
            daemon,
            specs,
            startup_cpu_s,
            out_dir: ctx.out_dir.clone(),
            seed: ctx.seed,
            journal: Mutex::new(None),
            rss_mib: Mutex::new(None),
            kernel_ms_per_job: Mutex::new(None),
        })
    }

    fn gate(&self) -> Result<(), String> {
        for w in &self.specs {
            let logits = match &w.quant {
                Some(q) => q.clone().predict_all(w.eval.inputs(), BATCH),
                None => bdlfi_nn::predict_all(&mut w.model.clone(), w.eval.inputs(), BATCH),
            };
            healthy(&logits, &w.eval, MAX_GOLDEN_ERROR)?;
        }
        Ok(())
    }

    fn measure(
        &self,
        seconds: f64,
        min_jobs: usize,
        rec: Option<&Arc<Recorder>>,
        check: bool,
    ) -> Result<Load, String> {
        let next = AtomicUsize::new(0);
        let done: Mutex<Vec<Done>> = Mutex::new(Vec::new());
        let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let addr = self.daemon.addr.as_str();
        let pid = self.daemon.child.id();
        let daemon_cpu =
            || cpu::child_user_kernel_s(pid).ok_or("cannot read the daemon's CPU time");
        let cpu_start = daemon_cpu()?;
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..CLIENTS {
                scope.spawn(|| loop {
                    let j = next.fetch_add(1, Ordering::Relaxed);
                    if j >= min_jobs.max(1) && start.elapsed().as_secs_f64() >= seconds {
                        break;
                    }
                    match run_one(addr, self.seed, j) {
                        Ok(d) => {
                            if let Some(rec) = rec {
                                let id = rec.next_id();
                                rec.record("serve.job", id, d.submit, d.done);
                                rec.record("serve.submit", id, d.submit, d.submitted);
                                if let Some(first) = d.first_result {
                                    rec.record("serve.first_result", id, d.submit, first);
                                }
                            }
                            let mut done = done.lock().unwrap_or_else(PoisonError::into_inner);
                            done.push(d);
                            if done.len() == RSS_AT_JOBS {
                                *self.rss_mib.lock().unwrap_or_else(PoisonError::into_inner) =
                                    self.daemon_rss_mib();
                            }
                        }
                        Err(e) => errors
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .push(e),
                    }
                });
            }
        });
        let wall_s = start.elapsed().as_secs_f64();
        let cpu_end = daemon_cpu()?;
        let mut done = done.into_inner().unwrap_or_else(PoisonError::into_inner);
        done.sort_by_key(|d| d.j);
        let errors = errors.into_inner().unwrap_or_else(PoisonError::into_inner);

        let mut load = Load {
            configs: (done.len() * CHAINS * SAMPLES) as u64,
            wall_s,
            cpu_s: cpu_end.0 - cpu_start.0,
            jobs_s: done
                .iter()
                .map(|d| d.done.duration_since(d.submit).as_secs_f64())
                .collect(),
            attempted: (done.len() + errors.len()) as u64,
            ..Load::default()
        };
        if let Some(e) = errors.first() {
            load.fail(errors.len() as u64, e.clone());
        }
        *self
            .kernel_ms_per_job
            .lock()
            .unwrap_or_else(PoisonError::into_inner) =
            Some((cpu_end.1 - cpu_start.1) * 1e3 / done.len() as f64);
        for d in &done {
            let compare = check && d.j % CHECK_EVERY == 0;
            if d.j != 0 && !compare {
                continue;
            }
            let daemon_report = self.report(&d.id)?;
            if d.j == 0 {
                load.digests.push(("job0".into(), digest(&daemon_report)));
                *self.journal.lock().unwrap_or_else(PoisonError::into_inner) = Some(
                    self.daemon
                        .state_dir
                        .join(format!("{}.journal.jsonl", d.id)),
                );
            }
            if compare && daemon_report != self.in_process(d.j)? {
                load.fail(
                    1,
                    format!("job {} report differs from the in-process run", d.id),
                );
            }
        }
        if let Some(rec) = rec {
            // Status round trips are timed after the closed loop, so they
            // do not slow the traced phase.
            for d in done.iter().take(STATUS_PROBES) {
                let path = format!("/jobs/{}", d.id);
                rec.span("serve.status", rec.next_id(), || {
                    client::request(addr, "GET", &path, None, TIMEOUT)
                })?;
            }
            self.twins(rec)?;
        }
        Ok(load)
    }

    fn layer_metrics(
        &self,
        summary: &Summary,
        _rec: &Recorder,
        m: &mut Metrics,
    ) -> Result<(), String> {
        let ms = |name: &str| {
            let xs: Vec<f64> = summary
                .get(name)
                .ns
                .iter()
                .map(|&ns| ns as f64 / 1e6)
                .collect();
            median(&xs)
        };
        m.put("serve.submit_ms", ms("serve.submit"), "ms")?;
        m.put("serve.first_result_ms", ms("serve.first_result"), "ms")?;
        m.put("serve.status_rtt_ms", ms("serve.status"), "ms")?;
        m.put(
            "serve.kernel_ms_per_job",
            *self
                .kernel_ms_per_job
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
            "ms",
        )?;
        let journal = self
            .journal
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
            .ok_or("no serve job completed")?;
        let (append_us, sync_us, bytes) = layers::checkpoint(&journal, &self.out_dir)?;
        m.put("checkpoint.append_us", Some(append_us), "us")?;
        m.put("checkpoint.sync_us", Some(sync_us), "us")?;
        m.put("checkpoint.bytes_per_entry", Some(bytes), "B")
    }

    const GEMM_SHAPE: (usize, usize, usize) = (BATCH, 32, 32);

    fn setup_cpu_elsewhere_s(&self) -> f64 {
        self.startup_cpu_s
    }

    fn peak_rss_mib(&self) -> Option<f64> {
        let at_jobs = *self.rss_mib.lock().unwrap_or_else(PoisonError::into_inner);
        at_jobs.or_else(|| self.daemon_rss_mib())
    }
}

impl Serve {
    fn daemon_rss_mib(&self) -> Option<f64> {
        peak_rss_mib(&self.daemon.child.id().to_string())
    }

    /// Job `id`'s report as the daemon persisted it, normalized.
    fn report(&self, id: &str) -> Result<Value, String> {
        let resp = client::request(
            &self.daemon.addr,
            "GET",
            &format!("/jobs/{id}/report"),
            None,
            TIMEOUT,
        )?;
        if resp.status != 200 {
            return Err(format!("GET report of {id} got {}", resp.status));
        }
        let v: Value =
            serde_json::from_str(&resp.body).map_err(|e| format!("report of {id}: {e}"))?;
        Ok(normalized(&v))
    }

    /// Job `j`'s spec run in this process through the daemon's own driver
    /// dispatch, normalized.
    fn in_process(&self, j: usize) -> Result<Value, String> {
        let spec = spec(self.seed, j);
        let path = self
            .out_dir
            .join(format!("serve-inproc-{}-{j}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let ckpt = CheckpointSpec::new(path.clone(), job_fingerprint(&spec));
        let outcome = run_driver(&spec, 1, &RunControl::new(), &ckpt);
        let _ = std::fs::remove_file(&path);
        match outcome {
            JobOutcome::Done { report, .. } => Ok(normalized(&report)),
            other => Err(format!("in-process job {j}: {other:?}")),
        }
    }

    /// Runs the first jobs' specs (f32 and int8 alternately) in process
    /// over traced workloads, so the traced run sees the evaluations the
    /// daemon performs: both specs, then more jobs until `TAIL_EVALS`
    /// evaluations are recorded. Configurations without a flipped bit score
    /// the golden error without an evaluation, so a job records fewer than
    /// its samples.
    fn twins(&self, rec: &Arc<Recorder>) -> Result<(), String> {
        let mut pipelines = Vec::new();
        for j in 0..2 {
            let scenario = spec(self.seed, j).scenario;
            let w = build_workload(&scenario).map_err(|e| e.to_string())?;
            let net = match w.quant {
                Some(q) => Net::I8(q),
                None => Net::F32(w.model),
            };
            let fault = Arc::new(BernoulliBitFlip::new(scenario.flip_probability));
            pipelines.push(Traced::new(&net, &w.eval, &scenario.sites, fault, rec));
        }
        for j in 0..MAX_TWINS {
            if j >= 2 && rec.count_spans("eval") >= TAIL_EVALS {
                break;
            }
            if let Some(traced) = pipelines.get(j % 2) {
                run_campaign(traced, spec(self.seed, j).config());
            }
        }
        Ok(())
    }
}
