//! Order statistics, the seeded generator the workloads draw from, and
//! the `/proc` readers that sample the system under test.

/// The `p`-quantile (0 ≤ p ≤ 1) of `values`, interpolating linearly
/// between the two closest ranks. `None` for an empty slice.
pub fn quantile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// How many of `n` samples lie beyond the `p`-quantile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    // The epsilon keeps 100 × (1 − 0.9) from flooring to 9.
    ((n as f64) * (1.0 - p) + 1e-9).floor() as usize
}

/// The fewest samples for which the `p`-quantile has ten samples beyond
/// it — the rule every reported tail percentile follows.
pub fn min_samples(p: f64) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, p) >= 10)
        .expect("some n suffices")
}

/// SplitMix64: a tiny seeded generator, so workload inputs depend on the
/// seed alone and not on any library's sampling algorithm.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Milliseconds a fixed, benchmark-owned CPU kernel takes (median of 5):
/// a diagnostic of the host's current speed, printed beside the results
/// so that a slow run can be told apart from a slow program. It never
/// feeds a metric.
pub fn host_probe_ms() -> f64 {
    let mut times = Vec::new();
    for _ in 0..5 {
        let t0 = std::time::Instant::now();
        let mut rng = Rng::new(0x5EED, 0);
        let mut v: Vec<u64> = (0..200_000).map(|_| rng.next()).collect();
        v.sort_unstable();
        let h = v
            .iter()
            .fold(0u64, |h, &x| (h ^ x).wrapping_mul(0x0000_0100_0000_01b3));
        std::hint::black_box(h);
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    median(&times).expect("five probes")
}

/// Memory and thread figures of one process, from `/proc/<pid>/status`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcStatus {
    pub rss_kb: u64,
    pub hwm_kb: u64,
    pub threads: u64,
}

/// Reads `/proc/<pid>/status`; `None` once the process is gone.
pub fn proc_status(pid: u32) -> Option<ProcStatus> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let mut st = ProcStatus::default();
    for line in text.lines() {
        let field = |prefix: &str| -> Option<u64> {
            line.strip_prefix(prefix)?
                .split_whitespace()
                .next()?
                .parse()
                .ok()
        };
        if let Some(v) = field("VmRSS:") {
            st.rss_kb = v;
        } else if let Some(v) = field("VmHWM:") {
            st.hwm_kb = v;
        } else if let Some(v) = field("Threads:") {
            st.threads = v;
        }
    }
    Some(st)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    /// glibc: returns the heap's free memory to the kernel.
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
}

/// Returns the heap's free memory to the kernel, then resets this
/// process's peak RSS (VmHWM) to its current RSS, so that a later VmHWM
/// covers the data still live and what runs after the reset, not the
/// freed scratch memory of earlier work.
pub fn reset_peak_rss() -> Result<(), String> {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: malloc_trim only releases free heap pages; it has no
    // preconditions.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS through /proc/self/clear_refs: {e}"))
}

/// The number of OS threads of `pid`, counted from `/proc/<pid>/task`.
pub fn task_count(pid: u32) -> Option<u64> {
    let dir = std::fs::read_dir(format!("/proc/{pid}/task")).ok()?;
    Some(dir.count() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(median(&v), Some(3.0));
        assert_eq!(quantile(&v, 0.9), Some(4.6));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        assert_eq!(min_samples(0.9), 100);
        assert_eq!(min_samples(0.8), 50);
        assert_eq!(samples_beyond(99, 0.9), 9);
    }

    #[test]
    fn rng_streams_are_seeded_and_distinct() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next()
            })
            .collect();
        let c = Rng::new(7, 2).next();
        assert_eq!(a, b);
        assert_ne!(a[0], c);
    }

    #[test]
    fn reads_own_status() {
        let st = proc_status(std::process::id()).expect("own /proc entry");
        assert!(st.rss_kb > 0 && st.hwm_kb >= st.rss_kb && st.threads >= 1);
        assert!(task_count(std::process::id()).expect("own tasks") >= 1);
    }

    #[test]
    fn peak_rss_resets_to_current_rss() {
        let big: Vec<u8> = vec![1; 64 << 20];
        std::hint::black_box(&big);
        drop(big);
        let before = proc_status(std::process::id()).expect("own /proc entry");
        reset_peak_rss().expect("reset");
        let after = proc_status(std::process::id()).expect("own /proc entry");
        assert!(before.hwm_kb >= 64 << 10, "{before:?}");
        assert!(after.hwm_kb < before.hwm_kb, "{before:?} -> {after:?}");
    }
}
