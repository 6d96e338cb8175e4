//! Degraded-width pricing: what does quarantining lanes cost, and when is
//! reduced-width vector execution still worth it over the sequential rung?
//!
//! One row per schedule, same FOL program (decompose 4096 aliased targets
//! into a 1024-cell domain, then apply):
//!
//!   * `vector_full`        — all 64 lanes, the healthy-hardware baseline.
//!   * `degraded_Kof64`     — `DegradedVector` with K ∈ {1, 4, 16} lanes
//!     quarantined; the same program at width 64 − K.
//!   * `scalar_tail`        — the ladder's sequential rung, the one a
//!     quarantine-blind supervisor would fall to: scalar label writes and
//!     reads, one element per op.
//!
//! Wall-clock comes from the harness; modelled cycles come from the
//! S-810-calibrated [`CostModel`], whose width-scaled charging is the
//! paper-faithful metric. The run asserts the pricing claim — one
//! quarantined lane must stay ≥2x cheaper in modelled cycles than falling
//! all the way to `ScalarTail` — and writes a JSON artifact for CI. On the
//! host the scalar path skips the vector unit's per-op bookkeeping, so its
//! wall-clock ratio reads below 1; the gate is on modelled cycles only.

use fol_bench::harness::bench;
use fol_bench::workloads::duplicated_targets;
use fol_core::error::Validation;
use fol_core::recover::{txn_apply_rounds, ExecMode, RetryPolicy};
use fol_vm::{CostModel, LaneSet, Machine};
use std::hint::black_box;

const N: usize = 4096;
const DOMAIN: usize = 1024;

/// Single-rung policy: exactly `mode`, one attempt, no validation overhead.
fn policy_for(mode: ExecMode) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 1,
        ladder: vec![mode],
        validation: Validation::Off,
        ..RetryPolicy::default()
    }
}

/// Runs the workload once under `mode` and returns the modelled cycle cost.
fn modelled_cycles(targets: &[usize], mode: ExecMode) -> u64 {
    let mut m = Machine::new(CostModel::s810());
    let work = m.alloc(DOMAIN, "W");
    let mut data = vec![0i64; DOMAIN];
    let before = m.stats().clone();
    txn_apply_rounds(
        &mut m,
        work,
        &mut data,
        targets,
        &policy_for(mode),
        |c, _| *c += 1,
    )
    .expect("no faults injected");
    m.stats_since(&before).cycles()
}

fn main() {
    let targets = duplicated_targets(N, DOMAIN, 42);
    let schedules: Vec<(String, ExecMode)> =
        std::iter::once(("vector_full".into(), ExecMode::Vector))
            .chain([1usize, 4, 16].into_iter().map(|k| {
                (
                    format!("degraded_{k}of64"),
                    ExecMode::DegradedVector {
                        quarantined: LaneSet::from_bits((1u64 << k) - 1),
                    },
                )
            }))
            .chain(std::iter::once((
                "scalar_tail".into(),
                ExecMode::ScalarTail,
            )))
            .collect();

    let mut rows: Vec<(String, f64, u64)> = Vec::new();
    for (label, mode) in &schedules {
        let cycles = modelled_cycles(&targets, *mode);
        let meas = bench(&format!("degradation/{label}"), || {
            let mut m = Machine::new(CostModel::unit());
            let work = m.alloc(DOMAIN, "W");
            let mut data = vec![0i64; DOMAIN];
            let out = txn_apply_rounds(
                &mut m,
                work,
                &mut data,
                black_box(&targets),
                &policy_for(*mode),
                |c, _| *c += 1,
            )
            .expect("no faults injected");
            black_box((data, out))
        });
        rows.push((label.clone(), meas.ns_per_iter, cycles));
    }

    let cycles_of = |name: &str| {
        rows.iter()
            .find(|(l, _, _)| l == name)
            .map(|&(_, _, c)| c)
            .expect("row present")
    };
    let ns_of = |name: &str| {
        rows.iter()
            .find(|(l, _, _)| l == name)
            .map(|&(_, ns, _)| ns)
            .expect("row present")
    };
    let seq_cycles = cycles_of("scalar_tail");
    let d1_cycles = cycles_of("degraded_1of64");
    let cycle_speedup = seq_cycles as f64 / d1_cycles as f64;
    let wall_speedup = ns_of("scalar_tail") / ns_of("degraded_1of64");
    println!(
        "degraded 1/64 vs scalar tail: {cycle_speedup:.2}x modelled, {wall_speedup:.2}x wall-clock"
    );
    assert!(
        cycle_speedup >= 2.0,
        "one quarantined lane must price >=2x better than the sequential rung \
         (got {cycle_speedup:.2}x)"
    );

    // JSON artifact for CI (hand-rolled; the workspace is dependency-free).
    let body = {
        let mut s = format!(
            "{{\"bench\":\"degradation\",{},\"rows\":[",
            fol_bench::report::engine_fields(Machine::new(CostModel::unit()).backend_kind())
        );
        for (i, (label, ns, cycles)) in rows.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"schedule\":\"{label}\",\"ns_per_iter\":{ns:.1},\"modelled_cycles\":{cycles}}}"
            ));
        }
        s.push_str(&format!(
            "],\"speedup_1of64_vs_sequential\":{{\"modelled\":{cycle_speedup:.3},\"wall\":{wall_speedup:.3}}}}}"
        ));
        s
    };
    let dir = std::env::var("BENCH_ARTIFACT_DIR").unwrap_or_else(|_| "target/bench".into());
    let _ = std::fs::create_dir_all(&dir);
    let path = format!("{dir}/degradation.json");
    std::fs::write(&path, body + "\n").expect("write bench artifact");
    println!("artifact: {path}");
}
