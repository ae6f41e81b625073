//! Percentiles, process clocks and memory.

/// Percentiles the benchmark reports, highest first.
pub const PERCENTILES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile for it to be reported.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest rank (1-based) of percentile `p` among `n` samples, computed
/// in integers so that e.g. p90 of 100 samples is exactly rank 90.
fn rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n.max(1))
}

/// The highest of [`PERCENTILES`] that leaves at least [`TAIL_SAMPLES`]
/// of `n` samples strictly beyond it, or `None` when even the median
/// does not.
pub fn supported_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .into_iter()
        .find(|&p| n > 0 && n - rank(n, p) >= TAIL_SAMPLES)
}

/// The `p`-th percentile of `sorted` (nearest rank). `sorted` must be
/// ascending and non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Sorts in place and returns the median.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 50.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec (two 64-bit fields, the
    // Linux x86-64/aarch64 layout) that outlives the call, and both clock
    // ids are always available on Linux.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds used by every thread of this process.
pub fn process_cpu_s() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds used by the calling thread.
pub fn thread_cpu_s() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Machine-wide CPU time so far as `(all, stolen)` clock ticks, from
/// the first line of `/proc/stat`. Stolen time is time the hypervisor
/// gave this VM's CPUs to someone else.
pub fn machine_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .expect("aggregate cpu line in /proc/stat")
        .split_whitespace()
        .map(|v| v.parse().expect("numeric /proc/stat field"))
        .collect();
    // user nice system idle iowait irq softirq steal ...
    (
        ticks.iter().take(8).sum(),
        ticks.get(7).copied().unwrap_or(0),
    )
}

/// Peak resident memory of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supported_percentile_leaves_ten_samples_beyond() {
        assert_eq!(supported_percentile(10_000), Some(99.9));
        assert_eq!(supported_percentile(9_999), Some(99.0));
        assert_eq!(supported_percentile(1_000), Some(99.0));
        assert_eq!(supported_percentile(999), Some(90.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(99), Some(50.0));
        assert_eq!(supported_percentile(0), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(19), None);
        for n in [20, 99, 100, 999, 1_000, 5_000, 10_000, 123_456] {
            let p = supported_percentile(n).expect("n ≥ 20");
            let beyond = n - rank(n, p);
            assert!(beyond >= TAIL_SAMPLES, "p{p} of {n} leaves {beyond}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn clocks_advance() {
        let (p0, t0) = (process_cpu_s(), thread_cpu_s());
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu_s() > t0);
        assert!(process_cpu_s() > p0);
        assert!(peak_rss_mb() > 0.0);
    }
}
