//! Host-speed calibration of the end-to-end timings.
//!
//! On a shared host the CPU's speed drifts by 20–50% over seconds to
//! minutes, the same for the controller and for any other compute, so
//! raw wall-clock timings of identical work spread across runs far more
//! than a regression bound can absorb. An untraced run therefore times
//! a fixed calibration kernel (benchmark code, independent of the
//! product) before every [`EVERY`]-th event, and reports each timing
//! scaled to a nominal host on which that kernel takes exactly
//! [`NOMINAL_US`]: `scaled = raw × NOMINAL_US / kernel`, per window of
//! [`WINDOW`] consecutive events and the kernel samples taken among
//! them. The raw values stay in the detail line.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::{median, percentile, us};

/// Events per calibration sample.
pub const EVERY: usize = 10;

/// Consecutive events per window: enough for a p90 with 25 samples
/// beyond it.
pub const WINDOW: usize = 250;

/// The calibration kernel's time (µs) on the nominal host.
pub const NOMINAL_US: f64 = 1000.0;

/// Elements the kernel sorts (80 KB of `f64`, cache-resident).
const SORT_LEN: usize = 10_000;

/// Entries of the ordered map the kernel builds, each with a small heap
/// allocation of its own.
const MAP_LEN: usize = 3_000;

/// One run of the calibration kernel, in µs: sorts a fixed
/// pseudo-random vector and folds it (branchy compute), then builds and
/// probes an ordered map of small allocations (allocator and pointer
/// chasing, like the controller's view rebuilds). The sorted input is
/// generated outside the timed region. Of kernels tried, this pair
/// tracked the drift of both workloads best; pure floating point and
/// pure memory latency did not drift with them at all.
pub fn kernel() -> f64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut v: Vec<f64> = (0..SORT_LEN).map(|_| (next() >> 11) as f64).collect();
    let keys: Vec<u64> = (0..MAP_LEN).map(|_| next() % 100_000).collect();
    let t0 = Instant::now();
    v.sort_by(f64::total_cmp);
    let mut folded: f64 = v.windows(2).map(|w| (w[1] - w[0]).sqrt()).sum();
    let map: BTreeMap<u64, Vec<f64>> = keys.iter().map(|&k| (k, vec![k as f64; 4])).collect();
    for k in 0..MAP_LEN as u64 {
        if let Some(e) = map.get(&(k * 31)) {
            folded += e[0];
        }
    }
    drop(map);
    std::hint::black_box(folded);
    us(t0.elapsed())
}

/// An event-latency statistic per window, raw and scaled.
pub struct Windowed {
    pub raw: f64,
    pub scaled: f64,
}

/// Medians over the full windows of `latencies_us` (in event order) of
/// `f(window)`, raw and scaled by the kernel samples of each window
/// (`kernel_us[k]` taken before event `k × EVERY`). `rate` marks a
/// statistic that grows with host speed (scaled the other way).
pub fn windowed(
    latencies_us: &[f64],
    kernel_us: &[f64],
    rate: bool,
    f: &dyn Fn(&[f64]) -> f64,
) -> Windowed {
    let per = WINDOW / EVERY;
    let (mut raw, mut scaled) = (Vec::new(), Vec::new());
    for (w, k) in latencies_us.chunks_exact(WINDOW).zip(kernel_us.chunks(per)) {
        let value = f(w);
        let speed = NOMINAL_US / median(k).unwrap_or(NOMINAL_US);
        raw.push(value);
        scaled.push(if rate { value / speed } else { value * speed });
    }
    Windowed {
        raw: median(&raw).unwrap_or(0.0),
        scaled: median(&scaled).unwrap_or(0.0),
    }
}

/// Events per second of a window.
pub fn rate(w: &[f64]) -> f64 {
    1e6 * w.len() as f64 / w.iter().sum::<f64>()
}

pub fn p50(w: &[f64]) -> f64 {
    median(w).unwrap_or(0.0)
}

pub fn p90(w: &[f64]) -> f64 {
    percentile(w, 0.9).unwrap_or(0.0)
}
