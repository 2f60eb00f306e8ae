//! CPU time of this process and of a child process, and the host's speed.
//!
//! The end-to-end metrics are measured in CPU time rather than wall-clock
//! time. On a shared virtual machine the hypervisor takes cores away for
//! whole seconds at a time (steal), and other processes preempt the
//! benchmark; wall-clock rates follow that interference, CPU time does not:
//! the kernel's task clock stops while a task is descheduled, and with
//! paravirtualised time accounting it also leaves steal out.
//!
//! CPU time still follows the speed of the core itself, which on a shared
//! host drifted by up to 1.8× within an hour (neighbours on the sibling
//! hyperthread and in the shared caches, clock frequency). The
//! [`reference_s`] kernel measures that speed with fixed code of the
//! benchmark's own, which no change to the library can move; the
//! end-to-end metrics are scaled by it to a nominal host speed.

use std::hint::black_box;
use std::time::Duration;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_s(clock: i32) -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two `i64`s on
    // 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc == 0 {
        Duration::new(ts.sec as u64, ts.nsec as u32).as_secs_f64()
    } else {
        0.0
    }
}

/// CPU time consumed so far by every thread of this process, live or
/// exited, in seconds (nanosecond resolution).
pub fn process_s() -> f64 {
    clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread, in seconds (nanosecond resolution).
pub fn thread_s() -> f64 {
    clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// Side of the reference kernel's square matrices.
const REF_N: usize = 64;
/// Matrix products per reference run.
const REF_PRODUCTS: usize = 128;

/// `c = a · b` for row-major `REF_N`² matrices, by fused multiply-adds.
#[inline(always)]
fn product(a: &[f32], b: &[f32], c: &mut [f32]) {
    c.iter_mut().for_each(|v| *v = 0.0);
    for (a_row, c_row) in a.chunks_exact(REF_N).zip(c.chunks_exact_mut(REF_N)) {
        for (&aik, b_row) in a_row.iter().zip(b.chunks_exact(REF_N)) {
            for (cij, &bkj) in c_row.iter_mut().zip(b_row) {
                *cij = aik.mul_add(bkj, *cij);
            }
        }
    }
}

/// [`product`] compiled for AVX2 and FMA, the instructions the library's
/// GEMM and convolution kernels run on such hosts.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn product_avx2(a: &[f32], b: &[f32], c: &mut [f32]) {
    product(a, b, c);
}

fn product_best(a: &[f32], b: &[f32], c: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        // SAFETY: both features were detected at run time.
        return unsafe { product_avx2(a, b, c) };
    }
    product(a, b, c);
}

/// CPU seconds of one run of the reference kernel on this thread: fixed f32
/// matrix products in cache, by the fused multiply-adds the workloads' GEMM
/// and convolution kernels do (with AVX2 where the host has it). The kernel
/// is the benchmark's own code, so only the host moves it. Its buffers
/// (48 KiB) are small, so it leaves `peak_rss_mib` alone.
pub fn reference_s() -> f64 {
    let a: Vec<f32> = (0..REF_N * REF_N)
        .map(|i| ((i * 7919) % 251) as f32 / 251.0 - 0.5)
        .collect();
    let b: Vec<f32> = (0..REF_N * REF_N)
        .map(|i| ((i * 104_729) % 241) as f32 / 241.0 - 0.5)
        .collect();
    let mut c = vec![0.0f32; REF_N * REF_N];
    let start = thread_s();
    for _ in 0..REF_PRODUCTS {
        product_best(black_box(&a), black_box(&b), &mut c);
        black_box(&c);
    }
    thread_s() - start
}

/// Mean CPU seconds of the reference kernel run on `threads` threads at
/// once: the speed of all the cores. On a shared host the cores differ (a
/// busy neighbour on one's sibling hyperthread), and a single-threaded run
/// lands on either; the mean over all of them is steadier.
pub fn reference_parallel_s(threads: usize) -> f64 {
    let threads = threads.max(1);
    let total: f64 = std::thread::scope(|scope| {
        let runs: Vec<_> = (0..threads).map(|_| scope.spawn(reference_s)).collect();
        runs.into_iter().map(|r| r.join().unwrap_or(0.0)).sum()
    });
    total / threads as f64
}

/// User-mode and kernel-mode CPU time consumed so far by every thread of
/// process `pid`, live or exited, in seconds, from `/proc/<pid>/stat`
/// (clock ticks of 10 ms).
pub fn child_user_kernel_s(pid: u32) -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name (field 2) may hold spaces; fields after it are
    // plain numbers. utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace().skip(11);
    let mut ticks = || fields.next()?.parse::<u64>().ok();
    let (user, kernel) = (ticks()?, ticks()?);
    Some((user as f64 / 100.0, kernel as f64 / 100.0))
}

/// CPU time consumed so far by the live threads of process `pid`, in
/// seconds (nanosecond resolution), from `/proc/<pid>/task/*/schedstat`.
/// Threads that have exited are not counted; for a process's start-up,
/// where every thread is still alive, it is exact.
pub fn child_live_threads_s(pid: u32) -> Option<f64> {
    let mut ns = 0u64;
    for task in std::fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        let path = task.ok()?.path().join("schedstat");
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        ns += text.split_whitespace().next()?.parse::<u64>().ok()?;
    }
    Some(ns as f64 / 1e9)
}

/// The machine's CPU time counters from `/proc/stat`, in clock ticks.
#[derive(Debug, Clone, Copy)]
pub struct HostTicks {
    steal: u64,
    total: u64,
}

impl HostTicks {
    /// The counters now (`None` where `/proc/stat` is unreadable).
    pub fn now() -> Option<HostTicks> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let line = stat.lines().next()?.strip_prefix("cpu ")?;
        let ticks: Vec<u64> = line
            .split_whitespace()
            .map(|t| t.parse().unwrap_or(0))
            .collect();
        // user nice system idle iowait irq softirq steal (guest time is
        // already counted in user and nice).
        let steal = *ticks.get(7)?;
        let total = ticks.iter().take(8).sum();
        Some(HostTicks { steal, total })
    }

    /// Share of the machine's CPU time since `self` that the hypervisor
    /// took away (steal).
    pub fn steal_frac_since(self) -> Option<f64> {
        let now = HostTicks::now()?;
        let total = now.total.checked_sub(self.total).filter(|&t| t > 0)?;
        Some(now.steal.saturating_sub(self.steal) as f64 / total as f64)
    }
}
