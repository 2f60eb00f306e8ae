//! In-memory span recorder for the traced run.
//!
//! A span is one call the benchmark makes into a crate: its name, start
//! and end (nanoseconds since the recorder was created), the span that was
//! open on the same thread when it started (its parent), and an id shared
//! by every span of one faulty evaluation or one job. Spans stay in memory
//! until the run ends; [`Recorder::write_tsv`] then writes them out and
//! [`Summary`] derives per-name totals, self time and samples.
//!
//! Counters record exact event counts at the same boundaries (flips per
//! configuration, sparse-delta hits). They are only collected while
//! [`Recorder::set_counting`] is on, so a run can restrict them to a fixed,
//! seed-determined slice of its work and report counts that repeat exactly.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called (`"eval"`, `"delta.hit"`, `"serve.submit"`, ...).
    pub name: &'static str,
    /// Shared by every span of one configuration or job.
    pub id: u64,
    /// Index of the span open on the same thread when this one started.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// Indices of the spans currently open on this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans and counters from any number of threads.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
    counting: AtomicBool,
    next_id: AtomicU64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
            counting: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// A fresh id for one configuration or job.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        self.span_named(id, || (f(), name))
    }

    /// Runs `f` inside a span whose name `f` picks once it knows the
    /// outcome (a sparse-delta hit or a miss, say).
    ///
    /// The span covers `f` only: its start is taken after the slot is
    /// reserved and its end before the slot is filled, so waits for the
    /// recorder's lock are not counted.
    pub fn span_named<T>(&self, id: u64, f: impl FnOnce() -> (T, &'static str)) -> T {
        let parent = OPEN.with(|open| open.borrow().last().copied());
        let index = {
            let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
            spans.push(Span {
                name: "",
                id,
                parent,
                start_ns: 0,
                end_ns: 0,
            });
            spans.len() - 1
        };
        OPEN.with(|open| open.borrow_mut().push(index));
        let start_ns = self.now_ns();
        let (out, name) = f();
        let end_ns = self.now_ns();
        OPEN.with(|open| open.borrow_mut().pop());
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(span) = spans.get_mut(index) {
            span.name = name;
            span.start_ns = start_ns;
            span.end_ns = end_ns;
        }
        out
    }

    /// Records a span between two instants observed elsewhere (an event
    /// arriving on a stream, say), with no parent.
    pub fn record(&self, name: &'static str, id: u64, start: Instant, end: Instant) {
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
        };
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        spans.push(Span {
            name,
            id,
            parent: None,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Turns counter collection on or off.
    pub fn set_counting(&self, on: bool) {
        self.counting.store(on, Ordering::Relaxed);
    }

    /// Adds `n` to counter `name` while counting is on.
    pub fn count(&self, name: &'static str, n: u64) {
        if self.counting.load(Ordering::Relaxed) {
            let mut counters = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
            *counters.entry(name).or_insert(0) += n;
        }
    }

    /// Current value of counter `name` (0 when never counted).
    pub fn counter(&self, name: &str) -> u64 {
        let counters = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
        counters.get(name).copied().unwrap_or(0)
    }

    /// Spans called `name` recorded so far.
    pub fn count_spans(&self, name: &str) -> usize {
        let spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        spans.iter().filter(|s| s.name == name).count()
    }

    /// A copy of every span recorded so far, in the order they opened.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Writes every span as one tab-separated line:
    /// `index name id parent start_ns end_ns` (`-` for no parent).
    pub fn write_tsv(&self, path: &Path) -> Result<(), String> {
        let spans = self.spans();
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        let mut w = std::io::BufWriter::new(file);
        let io = |e: std::io::Error| format!("cannot write {}: {e}", path.display());
        writeln!(w, "index\tname\tid\tparent\tstart_ns\tend_ns").map_err(io)?;
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.id, s.start_ns, s.end_ns
            )
            .map_err(io)?;
        }
        w.flush().map_err(io)
    }
}

/// Per-name aggregate of a set of spans.
#[derive(Debug, Clone, Default)]
pub struct Agg {
    /// Durations of every span of this name, in nanoseconds.
    pub ns: Vec<u64>,
    /// Summed self time: each span's duration minus what its children
    /// (on the same thread) cover.
    pub self_ns: u64,
}

impl Agg {
    /// Mean duration in microseconds (`None` for no spans).
    pub fn mean_us(&self) -> Option<f64> {
        if self.ns.is_empty() {
            return None;
        }
        Some(self.ns.iter().sum::<u64>() as f64 / self.ns.len() as f64 / 1e3)
    }

    /// Summed duration in seconds.
    pub fn total_s(&self) -> f64 {
        self.ns.iter().sum::<u64>() as f64 / 1e9
    }
}

/// Spans grouped by name, with self time.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Aggregates keyed by span name.
    pub by_name: BTreeMap<&'static str, Agg>,
}

impl Summary {
    /// Aggregates `spans`.
    pub fn of(spans: &[Span]) -> Summary {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(slot) = s.parent.and_then(|p| child_ns.get_mut(p)) {
                *slot += s.ns();
            }
        }
        let mut out = Summary::default();
        for (s, covered) in spans.iter().zip(child_ns) {
            let agg = out.by_name.entry(s.name).or_default();
            agg.ns.push(s.ns());
            agg.self_ns += s.ns().saturating_sub(covered);
        }
        out
    }

    /// Writes one tab-separated line per span name: count, total and self
    /// time, and mean duration, in microseconds.
    pub fn write_tsv(&self, path: &Path) -> Result<(), String> {
        let mut out = String::from("name\tcount\ttotal_us\tself_us\tmean_us\n");
        for (name, agg) in &self.by_name {
            let total_us = agg.ns.iter().sum::<u64>() as f64 / 1e3;
            out.push_str(&format!(
                "{name}\t{}\t{total_us:.3}\t{:.3}\t{:.3}\n",
                agg.ns.len(),
                agg.self_ns as f64 / 1e3,
                agg.mean_us().unwrap_or(0.0)
            ));
        }
        std::fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }

    /// The aggregate for `name` (empty when no such span was recorded).
    pub fn get(&self, name: &str) -> Agg {
        self.by_name.get(name).cloned().unwrap_or_default()
    }
}
