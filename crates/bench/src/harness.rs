//! A minimal wall-clock micro-benchmark harness for the `benches/` targets.
//!
//! The workspace builds offline with no external crates, so the benches use
//! this hand-rolled harness instead of Criterion: auto-calibrated iteration
//! counts, several timed samples, median-of-samples reporting. It is meant
//! for relative comparisons within one run (scalar vs batch, txn vs plain),
//! not cross-run statistics.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target wall-clock time for one measured sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(120);
/// Number of measured samples; the median is reported.
const SAMPLES: usize = 7;

/// One benchmark measurement: median nanoseconds per iteration.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Benchmark id, e.g. `"hashing_host/scalar/521@0.5"`.
    pub name: String,
    /// Median time per iteration across samples.
    pub ns_per_iter: f64,
    /// Iterations per sample (after calibration).
    pub iters: u64,
}

impl Measurement {
    /// Ratio of this measurement to `base` (>1 means slower than base).
    pub fn ratio_to(&self, base: &Measurement) -> f64 {
        self.ns_per_iter / base.ns_per_iter
    }
}

/// Times `f`, printing and returning the measurement.
///
/// Calibrates the per-sample iteration count so each sample runs for about
/// 120 ms (`SAMPLE_TARGET`), then takes 7 samples (`SAMPLES`) and reports
/// the median.
/// The closure's result is passed through [`black_box`] so the work is not
/// optimized away.
pub fn bench<R>(name: &str, mut f: impl FnMut() -> R) -> Measurement {
    // Calibrate: time one iteration (floor 1ns to avoid div-by-zero).
    let t0 = Instant::now();
    black_box(f());
    let once = t0.elapsed().max(Duration::from_nanos(1));
    let iters = (SAMPLE_TARGET.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;

    let mut samples: Vec<f64> = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        samples.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let ns_per_iter = samples[SAMPLES / 2];
    println!("{name:<48} {ns_per_iter:>14.1} ns/iter  (x{iters})");
    Measurement {
        name: name.to_string(),
        ns_per_iter,
        iters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_and_names() {
        let m = bench("harness/selftest", || {
            let mut s = 0u64;
            for i in 0..100u64 {
                s = s.wrapping_add(i * i);
            }
            s
        });
        assert_eq!(m.name, "harness/selftest");
        assert!(m.ns_per_iter > 0.0);
        assert!(m.iters >= 1);
    }

    #[test]
    fn ratio_is_relative() {
        let a = Measurement {
            name: "a".into(),
            ns_per_iter: 200.0,
            iters: 1,
        };
        let b = Measurement {
            name: "b".into(),
            ns_per_iter: 100.0,
            iters: 1,
        };
        assert!((a.ratio_to(&b) - 2.0).abs() < 1e-9);
    }
}
