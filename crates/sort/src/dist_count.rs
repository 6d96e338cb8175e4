//! Distribution counting sort, scalar and vectorized (Table 1, bottom).
//!
//! The classic three-phase sort for keys in `[0, range)`: histogram the
//! keys, form the cumulative counts, and permute each key to its final
//! position. The paper vectorizes it "using the overwrite-and-check
//! technique" but omits the listing; this module supplies one:
//!
//! * **histogram** — incrementing `count[key]` for duplicate keys is a
//!   shared rewrite, so it runs as FOL1 rounds (subscript labels in a work
//!   array over the key range; survivors gather-increment-scatter their
//!   counters conflict-free);
//! * **cumulative sum** — one `vprefix_sum` macro instruction (the S-810's
//!   first-order-recurrence support; without it this phase would be the
//!   scalar bottleneck);
//! * **permutation** — again FOL1 rounds: survivors claim output slot
//!   `cum[key] - 1` and decrement `cum[key]`.

use crate::validate_range;
use fol_core::error::FolError;
use fol_core::recover::{
    run_transaction, with_lane_mask, ExecMode, RecoveryError, RecoveryReport, RetryPolicy,
};
use fol_vm::{AluOp, CmpOp, Machine, Region, VReg, Word};

/// Statistics from a distribution counting sort run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DistReport {
    /// FOL rounds in the histogram phase (vectorized only).
    pub histogram_rounds: usize,
    /// FOL rounds in the permutation phase (vectorized only).
    pub permute_rounds: usize,
}

/// Scalar distribution counting sort (Knuth's classic), sorting `a` in
/// place; keys must lie in `[0, range)`.
pub fn scalar_sort(m: &mut Machine, a: Region, range: Word) -> DistReport {
    let n = a.len();
    let data_check = m.mem().read_region(a);
    validate_range(&data_check, range);
    let r = range as usize;
    let count = m.alloc(r, "dist.count");
    let out = m.alloc(n, "dist.out");

    // count[*] := 0 (streaming).
    for i in 0..r {
        m.s_write_seq(count.at(i), 0);
    }
    m.s_branch(r.div_ceil(8) as u64);

    // Histogram: random access per key.
    for j in 0..n {
        let v = m.s_read_seq(a.at(j));
        let cnt = m.s_read(count.at(v as usize));
        m.s_alu(1);
        m.s_write(count.at(v as usize), cnt + 1);
        m.s_branch(1);
    }

    // Cumulative counts (streaming, loop-carried).
    let mut acc: Word = 0;
    for i in 0..r {
        let cv = m.s_read_seq(count.at(i));
        m.s_alu(1);
        acc += cv;
        m.s_write_seq(count.at(i), acc);
    }
    m.s_branch(r.div_ceil(8) as u64);

    // Permute (stable, scanning backwards as Knuth does).
    for j in (0..n).rev() {
        let v = m.s_read_seq(a.at(j));
        let pos = m.s_read(count.at(v as usize));
        m.s_alu(1);
        m.s_write(count.at(v as usize), pos - 1);
        m.s_write(out.at((pos - 1) as usize), v);
        m.s_branch(1);
    }

    // Copy back (streaming).
    for j in 0..n {
        let v = m.s_read_seq(out.at(j));
        m.s_write_seq(a.at(j), v);
    }
    m.s_branch(n.div_ceil(8) as u64);
    DistReport::default()
}

/// Vectorized distribution counting sort: [`try_vectorized_sort`],
/// panicking where it returns an error. Sorts `a` in place.
///
/// # Panics
/// Panics if a key lies outside `[0, range)`, or with the typed
/// [`FolError`] when a faulty scatter path breaks a guard.
pub fn vectorized_sort(m: &mut Machine, a: Region, range: Word) -> DistReport {
    try_vectorized_sort(m, a, range).unwrap_or_else(|e| panic!("{e}"))
}

/// Typed version of the range precondition: every key must lie in
/// `[0, range)` for the count/work scatters to be in bounds.
fn check_range(data: &[Word], range: Word) -> Result<(), FolError> {
    for (j, &v) in data.iter().enumerate() {
        if !(0..range).contains(&v) {
            return Err(FolError::TargetOutOfBounds {
                round: None,
                position: j,
                target: v,
                domain: range as usize,
            });
        }
    }
    Ok(())
}

/// FOL1 rounds over `keys` with subscript labels in `work`: each round's
/// survivors — distinct keys, so their counter updates are conflict-free —
/// go to `apply` with the 0-based round index. Bounded by `keys.len()`
/// rounds (the maximum multiplicity cannot exceed `n`, Theorem 6), and
/// every detection pass must leave a survivor (Theorem 1); the survivor
/// test reads the compress the round does anyway, so neither guard charges
/// a cycle. Returns the number of rounds.
fn fol1_rounds(
    m: &mut Machine,
    work: Region,
    mut keys: VReg,
    apply: &mut dyn FnMut(&mut Machine, &VReg, usize) -> Result<(), FolError>,
) -> Result<usize, FolError> {
    let budget = keys.len();
    let mut labels = m.iota(0, budget);
    let mut rounds = 0usize;
    while !keys.is_empty() {
        if rounds == budget {
            return Err(FolError::RoundBudgetExceeded {
                budget,
                live: keys.len(),
                completed_rounds: rounds,
            });
        }
        m.scatter(work, &keys, &labels);
        let got = m.gather(work, &keys);
        let ok = m.vcmp(CmpOp::Eq, &got, &labels);
        let k_s = m.compress(&keys, &ok);
        if k_s.is_empty() {
            return Err(FolError::NoSurvivors {
                iteration: rounds,
                live: keys.len(),
            });
        }
        apply(m, &k_s, rounds)?;
        let rest = m.mask_not(&ok);
        keys = m.compress(&keys, &rest);
        labels = m.compress(&labels, &rest);
        rounds += 1;
    }
    Ok(rounds)
}

/// Vectorized distribution counting sort: FOL histogram + recurrence
/// cumulative sum + FOL permutation, each phase measured on its own, the
/// loop every vector rung of [`txn_sort`] runs. Sorts `a` in place. Both
/// FOL phases run FOL1 label rounds, bounded by `n` rounds and refusing a
/// pass without survivors. Keys are range-checked typed, and the
/// permutation's claimed output slots are bounds-checked before the
/// scatter — a torn counter would otherwise send the output scatter out of
/// bounds. Scratch regions (`count`, `work`, `out`) are freshly allocated
/// per call.
pub fn try_vectorized_sort(
    m: &mut Machine,
    a: Region,
    range: Word,
) -> Result<DistReport, FolError> {
    let n = a.len();
    let data = m.mem().read_region(a);
    check_range(&data, range)?;
    let r = range as usize;
    let count = m.alloc(r, "dist.count");
    let work = m.alloc(r, "dist.work");
    let out = m.alloc(n, "dist.out");
    m.vfill(count, 0);
    let keys = m.vload(a, 0, n);

    // Phase 1: histogram; each round's keys increment their counters.
    let histogram_rounds = m.measure_phase("dist_count.histogram", |m| {
        fol1_rounds(m, work, keys.clone(), &mut |m, k_s, _| {
            let c_s = m.gather(count, k_s);
            let c_s = m.valu_s(AluOp::Add, &c_s, 1);
            m.scatter(count, k_s, &c_s);
            Ok(())
        })
    })?;

    // Phase 2: cumulative counts with the recurrence macro instruction.
    m.measure_phase("dist_count.prefix", |m| {
        let counts = m.vload(count, 0, r);
        let cum = m.vprefix_sum(&counts);
        m.vstore(count, 0, &cum);
    });

    // Phase 3: permutation; each round's keys claim output slot
    // `cum[key] - 1` and decrement `cum[key]`.
    let permute_rounds = m.measure_phase("dist_count.permute", |m| {
        fol1_rounds(m, work, keys, &mut |m, k_s, round| {
            let pos = m.gather(count, k_s);
            let pos = m.valu_s(AluOp::Sub, &pos, 1);
            // A counter mangled by a torn write could claim a slot outside
            // the output — catch it as a typed error, not a scatter panic.
            for (i, p) in pos.iter().enumerate() {
                if !(0..n as Word).contains(&p) {
                    return Err(FolError::TargetOutOfBounds {
                        round: Some(round),
                        position: i,
                        target: p,
                        domain: n,
                    });
                }
            }
            m.scatter(out, &pos, k_s);
            m.scatter(count, k_s, &pos);
            Ok(())
        })
    })?;

    // Copy the permuted data back into `a`.
    let sorted = m.vload(out, 0, n);
    m.vstore(a, 0, &sorted);
    Ok(DistReport {
        histogram_rounds,
        permute_rounds,
    })
}

/// Transactional distribution counting sort: every attempt runs inside a
/// machine transaction and the finished array must be exactly the sorted
/// permutation of the input (checked against a host-side sort). A failed
/// attempt rolls back byte-exact and escalates along the [`RetryPolicy`]
/// ladder: `Vector` → `DegradedVector` (the same sort with quarantined
/// lanes masked out) → `ScalarTail` ([`scalar_sort`], immune to every
/// scatter fault). Scratch regions are allocated per attempt and abandoned
/// on rollback.
///
/// The array region is checksum-tracked for the duration of the call, so
/// resident bit-rot in the data being sorted is caught by the supervisor's
/// pre-commit scrub rather than silently committed as a "sorted" result.
///
/// # Panics
/// Panics if a transaction is already open on `m`.
pub fn txn_sort(
    m: &mut Machine,
    a: Region,
    range: Word,
    policy: &RetryPolicy,
) -> Result<(DistReport, RecoveryReport), RecoveryError> {
    m.track_region(a);
    let mut expected = m.mem().read_region(a);
    expected.sort_unstable();

    run_transaction(m, policy, |m, mode| {
        let report = match mode {
            ExecMode::Vector => try_vectorized_sort(m, a, range)?,
            ExecMode::DegradedVector { quarantined } | ExecMode::VerifiedReplay { quarantined } => {
                with_lane_mask(m, quarantined, |m| try_vectorized_sort(m, a, range))?
            }
            ExecMode::ForcedSequential | ExecMode::ScalarTail => {
                let data = m.mem().read_region(a);
                check_range(&data, range)?;
                scalar_sort(m, a, range)
            }
        };
        if m.mem().read_region(a) != expected {
            return Err(FolError::PostConditionFailed {
                what: "dist_count sorted output",
            });
        }
        Ok(report)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_sorted;
    use fol_vm::{ConflictPolicy, CostModel};

    fn sort_with<F>(data: &[Word], range: Word, f: F) -> Vec<Word>
    where
        F: FnOnce(&mut Machine, Region, Word) -> DistReport,
    {
        let mut m = Machine::new(CostModel::unit());
        let a = m.alloc(data.len(), "A");
        m.mem_mut().write_region(a, data);
        let _ = f(&mut m, a, range);
        m.mem().read_region(a)
    }

    #[test]
    fn scalar_sorts() {
        let data = [5, 1, 4, 1, 5, 9, 2, 6];
        let mut expect = data.to_vec();
        expect.sort_unstable();
        assert_eq!(sort_with(&data, 10, scalar_sort), expect);
    }

    #[test]
    fn vectorized_sorts() {
        let data = [5, 1, 4, 1, 5, 9, 2, 6];
        let mut expect = data.to_vec();
        expect.sort_unstable();
        assert_eq!(sort_with(&data, 10, vectorized_sort), expect);
    }

    #[test]
    fn rounds_equal_max_multiplicity() {
        let data = [3, 3, 3, 3, 1];
        let mut m = Machine::new(CostModel::unit());
        let a = m.alloc(data.len(), "A");
        m.mem_mut().write_region(a, &data);
        let r = vectorized_sort(&mut m, a, 5);
        assert_eq!(r.histogram_rounds, 4);
        assert_eq!(r.permute_rounds, 4);
        assert!(is_sorted(&m.mem().read_region(a)));
    }

    #[test]
    fn random_inputs_all_policies() {
        let mut seed = 99u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            ((seed >> 33) % 256) as Word
        };
        for policy in [
            ConflictPolicy::FirstWins,
            ConflictPolicy::LastWins,
            ConflictPolicy::Arbitrary(31),
        ] {
            let data: Vec<Word> = (0..300).map(|_| next()).collect();
            let mut expect = data.clone();
            expect.sort_unstable();
            let mut m = Machine::with_policy(CostModel::unit(), policy.clone());
            let a = m.alloc(data.len(), "A");
            m.mem_mut().write_region(a, &data);
            let _ = vectorized_sort(&mut m, a, 256);
            assert_eq!(m.mem().read_region(a), expect, "{policy:?}");
        }
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(sort_with(&[], 4, vectorized_sort), Vec::<Word>::new());
        assert_eq!(sort_with(&[2], 4, vectorized_sort), vec![2]);
        assert_eq!(sort_with(&[], 4, scalar_sort), Vec::<Word>::new());
    }

    #[test]
    fn scalar_is_stable_by_construction() {
        // With key-only data stability is invisible, but the backward scan
        // must still place every duplicate: count occurrences.
        let data = [7, 7, 0, 7];
        assert_eq!(sort_with(&data, 8, scalar_sort), vec![0, 7, 7, 7]);
    }

    #[test]
    fn phases_are_recorded() {
        let mut m = Machine::new(CostModel::s810());
        let a = m.alloc(8, "A");
        m.mem_mut().write_region(a, &[3, 1, 3, 0, 7, 7, 2, 5]);
        let _ = vectorized_sort(&mut m, a, 8);
        let names: Vec<&str> = m.phases().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "dist_count.histogram",
                "dist_count.prefix",
                "dist_count.permute"
            ]
        );
        assert!(m.phases().iter().all(|(_, s)| s.vector_cycles > 0));
    }

    #[test]
    fn try_sort_rejects_out_of_range_keys_typed() {
        let mut m = Machine::new(CostModel::unit());
        let a = m.alloc(3, "A");
        m.mem_mut().write_region(a, &[1, 7, 2]);
        let err = try_vectorized_sort(&mut m, a, 4).unwrap_err();
        assert!(matches!(
            err,
            FolError::TargetOutOfBounds {
                position: 1,
                target: 7,
                domain: 4,
                ..
            }
        ));
    }

    #[test]
    fn try_sort_turns_total_lane_loss_into_a_typed_error() {
        let mut m = Machine::new(CostModel::unit());
        m.set_fault_plan(Some(fol_vm::FaultPlan::dropped_lanes(5, 65535)));
        let a = m.alloc(6, "A");
        m.mem_mut().write_region(a, &[3, 1, 3, 0, 2, 1]);
        let err = try_vectorized_sort(&mut m, a, 4).unwrap_err();
        assert!(matches!(
            err,
            FolError::NoSurvivors { .. }
                | FolError::RoundBudgetExceeded { .. }
                | FolError::TargetOutOfBounds { .. }
        ));
    }

    #[test]
    fn txn_sort_clean_run_is_one_attempt() {
        let data: Vec<Word> = (0..100).map(|i| (i * 37) % 64).collect();
        let mut expect = data.clone();
        expect.sort_unstable();
        let mut m = Machine::new(CostModel::unit());
        let a = m.alloc(data.len(), "A");
        m.mem_mut().write_region(a, &data);
        let (report, rec) = txn_sort(&mut m, a, 64, &RetryPolicy::default()).expect("clean run");
        assert_eq!(rec.attempts, 1);
        assert!(report.histogram_rounds >= 1);
        assert_eq!(m.mem().read_region(a), expect);
    }

    #[test]
    fn txn_sort_recovers_from_hostile_scatter_faults() {
        let data: Vec<Word> = (0..64).map(|i| (i * 13) % 32).collect();
        let mut expect = data.clone();
        expect.sort_unstable();
        let mut m = Machine::new(CostModel::unit());
        m.set_fault_plan(Some(
            fol_vm::FaultPlan::dropped_lanes(41, 25000)
                .with_torn_writes(25000, fol_vm::AmalgamMode::And),
        ));
        let a = m.alloc(data.len(), "A");
        m.mem_mut().write_region(a, &data);
        let (_, rec) = txn_sort(&mut m, a, 32, &RetryPolicy::default()).expect("ladder rescues");
        assert!(rec.recovered());
        assert_eq!(
            m.mem().read_region(a),
            expect,
            "sorted exactly despite ELS violations"
        );
    }

    #[test]
    fn txn_sort_exhaustion_leaves_the_input_untouched() {
        let data = [9, 2, 7, 2, 0, 9];
        let mut m = Machine::new(CostModel::unit());
        m.set_fault_plan(Some(fol_vm::FaultPlan::dropped_lanes(8, 65535)));
        let a = m.alloc(data.len(), "A");
        m.mem_mut().write_region(a, &data);
        let mut policy = RetryPolicy::vector_only(3);
        policy.reseed = false;
        let err = txn_sort(&mut m, a, 10, &policy).unwrap_err();
        assert_eq!(err.report().attempts, 3);
        assert_eq!(
            m.mem().read_region(a),
            data,
            "rollback restored the unsorted input"
        );
        assert!(!m.in_txn());
    }

    #[test]
    fn small_n_large_range_vector_wins() {
        // Table 1's setting: range 2^16 dominates; the vector machine
        // initializes/prefixes it at streaming speed.
        let data: Vec<Word> = (0..64).map(|i| (i * 1021) % 65536).collect();
        let mut ms = Machine::new(CostModel::s810());
        let a1 = ms.alloc(data.len(), "A");
        ms.mem_mut().write_region(a1, &data);
        ms.reset_stats();
        let _ = scalar_sort(&mut ms, a1, 65536);
        let sc = ms.stats().cycles();

        let mut mv = Machine::new(CostModel::s810());
        let a2 = mv.alloc(data.len(), "A");
        mv.mem_mut().write_region(a2, &data);
        mv.reset_stats();
        let _ = vectorized_sort(&mut mv, a2, 65536);
        let vc = mv.stats().cycles();
        let ratio = sc as f64 / vc as f64;
        assert!(ratio > 3.0, "expected substantial speedup, got {ratio:.2}");
    }
}
