//! Process-level probes the benchmark reads from outside the program:
//! resident memory from `/proc/self/status`, CPU clocks, and small
//! statistics helpers.

use std::time::Instant;

/// Resident-set figures of this process, in bytes.
#[derive(Debug, Clone, Copy)]
pub struct Rss {
    /// Current resident set (`VmRSS`).
    pub now: u64,
    /// Peak resident set since start or the last [`reset_peak`] (`VmHWM`).
    pub peak: u64,
}

/// Reads `VmRSS` and `VmHWM` from `/proc/self/status`. Zeros when the
/// file is unreadable (non-Linux hosts).
pub fn rss() -> Rss {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kb| kb.parse::<u64>().ok())
            .map_or(0, |kb| kb * 1024)
    };
    Rss { now: field("VmRSS:"), peak: field("VmHWM:") }
}

/// Resets the kernel's peak-RSS mark to the current RSS (`clear_refs`
/// value 5), so the next [`rss`] peak covers only what follows.
/// Returns false where the kernel refuses.
pub fn reset_peak() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Returns freed heap pages to the kernel, so memory freed by an
/// earlier pass does not hide the next pass's growth.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim only releases free memory; it is
        // thread-safe and takes no pointers.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Peak resident growth over a measured stretch: the heap is trimmed
/// and the peak mark reset when the meter starts, so the growth is
/// `VmHWM` at the end minus `VmRSS` at the start.
pub struct PeakMeter {
    base: u64,
}

impl PeakMeter {
    pub fn start() -> PeakMeter {
        trim_heap();
        let reset = reset_peak();
        let now = rss();
        PeakMeter { base: if reset { now.now } else { now.peak.max(now.now) } }
    }

    /// Peak growth since [`PeakMeter::start`], bytes.
    pub fn growth(&self) -> u64 {
        rss().peak.saturating_sub(self.base)
    }
}

/// CPU time of the whole process (all threads), nanoseconds.
pub fn process_cpu_ns() -> u64 {
    telemetry::process_cpu_ns()
}

/// CPU time of the calling thread, nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    telemetry::thread_cpu_ns()
}

/// Seconds elapsed since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median of `values` (mean of the middle pair for even counts); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of already sorted `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}
