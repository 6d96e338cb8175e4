//! The recovery ladder's start-rung planner on a serving-shaped load: 32
//! chain batches of 64 keys on one machine, under the fault plan of the
//! `ingest-faulty` benchmark workload (seeded lane drops plus gather bit
//! flips) and the default `RetryPolicy`.
//!
//! The default ladder has three rungs: `Vector`, `DegradedVector` and
//! `ScalarTail`. The first batch on a fresh machine starts at `Vector` and
//! escalates, one attempt per rung. Every later batch starts at the rung
//! its predecessor committed on, so it commits on its first or second
//! attempt. Two rules keep it there: a `DegradedVector` failure holds the
//! rung (while the quarantine grows) only when it is not the batch's first
//! attempt, and a first-attempt commit steps the next start back one rung,
//! except on `DegradedVector`, which keeps it. The test counts attempts
//! and checks the stored multiset; it reads no clock, so it is
//! deterministic on any host.

use fol_core::recover::RetryPolicy;
use fol_hash::chaining::{all_keys, txn_insert_all, ChainTable};
use fol_vm::{CostModel, FaultPlan, Machine, Word};

const BATCHES: u64 = 32;
const BATCH: u64 = 64;

/// Uniform keys for batch `batch` under `seed` (SplitMix64 finalizer).
fn batch_keys(seed: u64, batch: u64) -> Vec<Word> {
    (0..BATCH)
        .map(|i| {
            let mut z = ((seed << 32) ^ (batch * BATCH + i)).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 1) as Word
        })
        .collect()
}

#[test]
fn later_batches_start_where_the_last_one_committed() {
    for seed in 1..=3 {
        let mut m = Machine::new(CostModel::unit());
        m.set_fault_plan(Some(
            FaultPlan::dropped_lanes(seed, 1024).with_gather_flips(128),
        ));
        let mut table = ChainTable::alloc(&mut m, 1024, 1 << 13);
        let mut inserted = Vec::new();
        let mut attempts = Vec::new();
        for batch in 0..BATCHES {
            let keys = batch_keys(seed, batch);
            let (_, report) = txn_insert_all(&mut m, &mut table, &keys, &RetryPolicy::default())
                .unwrap_or_else(|e| panic!("seed {seed} batch {batch}: {e}"));
            attempts.push(report.attempts);
            inserted.extend(keys);
        }
        inserted.sort_unstable();
        assert_eq!(
            all_keys(&m, &table),
            inserted,
            "seed {seed}: every key lands exactly once"
        );
        assert!(
            attempts[0] <= 3,
            "seed {seed}: the first batch took {} attempts",
            attempts[0]
        );
        assert!(
            attempts[1..].iter().all(|&a| a <= 2),
            "seed {seed}: a later batch took more than 2 attempts: {attempts:?}"
        );
    }
}
