//! # byzreg-bench
//!
//! Workload helpers shared by the Criterion benches and the `experiments`
//! binary. Each experiment id (E1–E7) is a section of the `experiments`
//! binary, whose header names the paper's claim it checks; each bench id
//! (B1–B8) is a Criterion bench under `benches/`, whose module docs state
//! what it measures.
//!
//! The [`generic`] module hosts harnesses written once against the
//! `SignatureRegister` trait layer and instantiated per register family.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generic;

use byzreg_runtime::{Scheduling, System};

/// Builds a free-running system of `n` processes (benchmark default).
#[must_use]
pub fn bench_system(n: usize) -> System {
    System::builder(n).scheduling(Scheduling::Free).build()
}

/// The `(n, f)` sweep used by the latency benches: `f = ⌊(n−1)/3⌋`.
pub const SWEEP: [usize; 3] = [4, 7, 10];

/// Formats a nanosecond latency as a human-readable string.
#[must_use]
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else if ns >= 1_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Measures the mean wall-clock latency of `op` over `iters` calls, after
/// `warmup` unmeasured calls. Used by the `experiments` binary (Criterion
/// handles the statistics for the benches proper).
pub fn measure(warmup: u32, iters: u32, mut op: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        op();
    }
    let start = std::time::Instant::now();
    for _ in 0..iters {
        op();
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ns_scales() {
        assert!(fmt_ns(500.0).ends_with("ns"));
        assert!(fmt_ns(5_000.0).ends_with("µs"));
        assert!(fmt_ns(5_000_000.0).ends_with("ms"));
    }

    #[test]
    fn measure_returns_positive_latency() {
        let ns = measure(1, 10, || {
            std::hint::black_box(1 + 1);
        });
        assert!(ns >= 0.0);
    }
}
