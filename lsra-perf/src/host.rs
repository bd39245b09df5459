//! Host-speed normalisation.
//!
//! A shared host's speed drifts by a quarter or more over minutes, as other
//! tenants come and go and the processor's clock follows the load, and every
//! timing of a run drifts with it. A run therefore also times a fixed kernel
//! of its own, in short bursts between two operations, at most every
//! [`INTERVAL`]. The kernel is part of the benchmark, not of the program, so
//! a change to the program cannot move it. A time measured at instant `t` is
//! scaled by `NOMINAL_S / k(t)`, where `k(t)` is the kernel's fastest run
//! within [`WINDOW`] of `t`: the time as it would read on a host on which the
//! kernel takes [`NOMINAL_S`], at the host's speed of the moment.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::{Duration, Instant};

/// Fastest kernel time, seconds, of the host the scaled timings refer to:
/// the kernel's typical best on the 2-vCPU Xeon host the bounds were set on.
pub const NOMINAL_S: f64 = 0.0021;

/// Least time between two ticks that run the kernel.
pub const INTERVAL: Duration = Duration::from_millis(100);

/// Time between a tick and the last one, per kernel run of the tick: about
/// 2 ms of kernel per 50 ms, 4 % of the run.
pub const PACE: Duration = Duration::from_millis(50);

/// Most kernel runs of one tick.
pub const MAX_BURST: usize = 10;

/// How far from a measured time the kernel runs that scale it may lie.
/// Over ten runs per workload on a 2-vCPU host, scaling by the fastest
/// kernel run within 3 s left interquartile spreads of 0.01 to 0.11 (mean
/// 0.03), against 0.03 to 0.13 (mean 0.05) for the fastest run of the whole
/// pass and 0.10 to 0.23 (mean 0.16) unscaled.
pub const WINDOW: Duration = Duration::from_secs(3);

/// Keys the kernel inserts and then looks up.
const KEYS: u64 = 40_000;

/// Runs the kernel once and returns its seconds. Like the allocators, it
/// allocates, hashes and chases pointers through a table of about a
/// megabyte, so contention for caches and memory slows it as it slows them.
pub fn kernel() -> f64 {
    type Fixed = BuildHasherDefault<DefaultHasher>;
    let next = |x: &mut u64| {
        *x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        *x >> 11
    };
    let t = Instant::now();
    let mut map: HashMap<u64, u64, Fixed> = HashMap::default();
    let mut x = 1;
    for i in 0..KEYS {
        map.insert(next(&mut x), i);
    }
    let mut x = 1;
    let found: u64 = (0..KEYS).filter_map(|_| map.get(&next(&mut x))).sum();
    std::hint::black_box(found);
    t.elapsed().as_secs_f64()
}

/// The kernel bursts of one run of the benchmark, in time order.
#[derive(Debug, Default)]
pub struct HostSpeed {
    /// When each burst ended, and the seconds of its fastest kernel run.
    runs: Vec<(Instant, f64)>,
}

impl HostSpeed {
    /// If [`INTERVAL`] has passed since the last tick that ran the kernel (or
    /// none has), runs it once per [`PACE`] since then, at least twice and
    /// at most [`MAX_BURST`] times, and keeps the fastest run. Operations of
    /// any length are thus scaled by about as many kernel runs. Call it
    /// between operations, never inside a timed one.
    pub fn tick(&mut self) {
        let since = self.runs.last().map(|(t, _)| t.elapsed());
        if since.is_none_or(|d| d >= INTERVAL) {
            let burst = since.map_or(2, |d| (d.as_millis() / PACE.as_millis()) as usize);
            let secs =
                (0..burst.clamp(2, MAX_BURST)).map(|_| kernel()).fold(f64::INFINITY, f64::min);
            self.runs.push((Instant::now(), secs));
        }
    }

    /// Seconds of the fastest kernel run of every burst so far.
    pub fn kernel_seconds(&self) -> Vec<f64> {
        self.runs.iter().map(|r| r.1).collect()
    }

    /// The factor that turns a time measured at `at` into one on the nominal
    /// host: [`NOMINAL_S`] over the fastest kernel run within [`WINDOW`] of
    /// `at`, or over the run nearest to `at` when none is that close; 1
    /// before the first kernel run.
    pub fn scale(&self, at: Instant) -> f64 {
        let from = self.runs.partition_point(|(t, _)| *t + WINDOW < at);
        let near = self.runs[from..].iter().take_while(|(t, _)| *t <= at + WINDOW);
        let best = near.map(|r| r.1).reduce(f64::min).or_else(|| {
            let before = from.checked_sub(1).map(|i| self.runs[i]);
            let after = self.runs.get(from).copied();
            let gap = |(t, _): (Instant, f64)| if t < at { at - t } else { t - at };
            before.into_iter().chain(after).min_by_key(|&r| gap(r)).map(|r| r.1)
        });
        best.map_or(1.0, |b| NOMINAL_S / b)
    }

    /// `secs` measured at `at`, scaled to the nominal host.
    pub fn scaled(&self, at: Instant, secs: f64) -> f64 {
        secs * self.scale(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_uses_the_fastest_run_near_the_measurement() {
        let t0 = Instant::now();
        let s = |secs| t0 + Duration::from_secs(secs);
        let h = HostSpeed { runs: vec![(s(10), 0.003), (s(11), 0.002), (s(20), 0.004)] };
        // Runs at 10 s and 11 s are within the window of 12 s; 20 s is not.
        assert!((h.scale(s(12)) - NOMINAL_S / 0.002).abs() < 1e-12);
        assert!((h.scaled(s(19), 2.0) - 2.0 * NOMINAL_S / 0.004).abs() < 1e-12);
        // Nothing within the window: the nearest run.
        assert!((h.scale(s(30)) - NOMINAL_S / 0.004).abs() < 1e-12);
        assert!((h.scale(t0) - NOMINAL_S / 0.003).abs() < 1e-12);
        assert_eq!(HostSpeed::default().scale(t0), 1.0);
    }

    #[test]
    fn a_second_tick_within_the_interval_runs_no_kernel() {
        let mut h = HostSpeed::default();
        h.tick();
        h.tick();
        let runs = h.kernel_seconds();
        assert_eq!(runs.len(), 1);
        assert!(runs[0] > 0.0);
    }
}
