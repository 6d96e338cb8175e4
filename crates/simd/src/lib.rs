//! # fol-simd — hardware-lane execution backend for the FOL machine
//!
//! `fol-vm` models a Hitachi S-810-class pipelined vector processor and
//! proves the paper's *relative* acceleration ratios in modelled cycles.
//! This crate makes the ratios absolute: it implements the
//! [`LaneEngine`] data-plane contract with real `std::arch` AVX2 kernels —
//! 4×64-bit hardware lanes behind the exact same `Machine` instruction
//! surface — so the serving stack can report wall-clock ops/sec next to
//! modelled cycles without touching a single workload.
//!
//! Layering: `fol-vm` owns the [`LaneEngine`] trait and the portable
//! [`ScalarEngine`], and forbids `unsafe`; this crate holds the intrinsics
//! and the runtime feature detection. Selection goes through
//! [`engine_for`], which degrades **typed, not silently**: asking for
//! [`BackendKind::Avx2`] on a machine (or a build) without AVX2 hands back
//! the scalar engine, and the machine's `engine_name()` reports `"scalar"`
//! so benches and reports show what actually ran.
//!
//! Correctness story: every engine must be bit-identical on the delegated
//! kernels. The differential suite in `tests/` runs the six FOL workloads
//! across the chaos matrix on the scalar and AVX2 backends and requires
//! `content_digest`-equal final structures; edge-case tables pin gather,
//! compress, and the machine's masked scatter and mask compress, against
//! definitions written in the test at the kernels' block boundaries.
//!
//! Feature `hw` (default on) gates the intrinsics; building with
//! `--no-default-features` leaves a fully safe crate whose selector only
//! produces the scalar engine — the configuration CI uses to prove the
//! fallback path on runners without AVX2.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub use fol_vm::backend::{BackendKind, LaneEngine, ScalarEngine};

#[cfg(all(feature = "hw", target_arch = "x86_64"))]
mod avx2;

#[cfg(all(feature = "hw", target_arch = "x86_64"))]
pub use avx2::Avx2Engine;

/// True when the AVX2 kernels are compiled in (`hw` feature, x86_64) and
/// the CPU reports AVX2 at runtime — i.e. [`engine_for`] with
/// [`BackendKind::Avx2`] would return the hardware engine.
pub fn avx2_available() -> bool {
    #[cfg(all(feature = "hw", target_arch = "x86_64"))]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(all(feature = "hw", target_arch = "x86_64")))]
    {
        false
    }
}

/// The CPU features detected at runtime that are relevant to this crate's
/// kernels, as stable lowercase names — stamped into bench artifacts so
/// perf trajectories recorded on different machines stay comparable.
/// Empty on non-x86_64 targets.
pub fn detected_features() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        let mut features = Vec::new();
        macro_rules! probe {
            ($($name:tt),* $(,)?) => {
                $(
                    if std::arch::is_x86_feature_detected!($name) {
                        features.push($name);
                    }
                )*
            };
        }
        probe!("sse2", "sse4.2", "popcnt", "avx", "avx2", "bmi2", "fma", "avx512f", "avx512vl",);
        features
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Vec::new()
    }
}

/// The fastest backend this build can actually run on this CPU:
/// [`BackendKind::Avx2`] when [`avx2_available`], else
/// [`BackendKind::Scalar`].
pub fn best_available() -> BackendKind {
    if avx2_available() {
        BackendKind::Avx2
    } else {
        BackendKind::Scalar
    }
}

/// Builds the engine for `kind`, degrading typed rather than silently:
/// [`BackendKind::Avx2`] without compiled-in or detected hardware support
/// resolves to the scalar engine, whose `kind()` honestly reports
/// [`BackendKind::Scalar`].
pub fn engine_for(kind: BackendKind) -> Box<dyn LaneEngine> {
    match kind {
        BackendKind::Scalar => Box::new(ScalarEngine),
        BackendKind::Avx2 => {
            #[cfg(all(feature = "hw", target_arch = "x86_64"))]
            {
                if std::arch::is_x86_feature_detected!("avx2") {
                    return Box::new(Avx2Engine::new());
                }
            }
            Box::new(ScalarEngine)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selector_resolves_every_kind() {
        assert_eq!(engine_for(BackendKind::Scalar).kind(), BackendKind::Scalar);
        let hw = engine_for(BackendKind::Avx2);
        if avx2_available() {
            assert_eq!(hw.kind(), BackendKind::Avx2);
            assert_eq!(best_available(), BackendKind::Avx2);
            assert!(detected_features().contains(&"avx2"));
        } else {
            // Typed fallback: the engine says what it really is.
            assert_eq!(hw.kind(), BackendKind::Scalar);
            assert_eq!(best_available(), BackendKind::Scalar);
        }
    }

    #[test]
    fn feature_probe_is_consistent() {
        let f = detected_features();
        // avx2 implies avx on every real CPU and in the probe order.
        if f.contains(&"avx2") {
            assert!(f.contains(&"avx"));
        }
    }
}
