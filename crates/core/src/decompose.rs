//! FOL1 on the simulated vector machine, plus reference decomposers.
//!
//! [`fol1_machine`] is a line-for-line realization of the paper's
//! **Algorithm FOL1** (§3.2): every step of the decomposition loop —
//! label scatter, gather-back, compare, compress — is a vector instruction
//! charged by the machine's cost model. [`reference_decompose`] computes the
//! same decomposition by direct grouping on the host (no vector machine),
//! and is the oracle the property tests compare against.

use crate::error::{first_repeat, validate_decomposition, FolError, Validation};
use crate::Decomposition;
use fol_vm::{CmpOp, Machine, Region, VReg, Word};

/// Runs FOL1 on the machine with subscript labels (the paper's footnote 6:
/// "the most easily computable label for element v is the index of v in V").
///
/// * `work` — the label work area. Element `v` of the index vector denotes
///   the cell `work[v]`; the paper's `v->w`. Work may be (and in the
///   applications usually is) the very storage the main processing will
///   rewrite.
/// * `index_vec` — the index vector `V`: offsets into `work`, possibly with
///   duplicates.
///
/// Returns the rounds as positions into the original `index_vec`.
///
/// Termination (Theorem 1) holds because the machine's scatter satisfies the
/// ELS condition, so at least one element per round reads its own label back;
/// a `debug_assert` checks this invariant per iteration.
///
/// ```
/// use fol_vm::{Machine, CostModel};
/// use fol_core::decompose::fol1_machine;
///
/// let mut m = Machine::new(CostModel::s810());
/// let work = m.alloc(3, "work");
/// let d = fol1_machine(&mut m, work, &[0, 1, 0, 2, 2, 0]);
/// assert_eq!(d.sizes(), vec![3, 2, 1]); // Fig 6: M = max multiplicity
/// assert!(m.stats().cycles() > 0);      // every step was a costed op
/// ```
pub fn fol1_machine(m: &mut Machine, work: Region, index_vec: &[Word]) -> Decomposition {
    let n = index_vec.len();
    let labels = m.iota(0, n);
    fol1_machine_labeled(m, work, index_vec, &labels)
}

/// FOL1 with caller-supplied labels.
///
/// Labels must be pairwise distinct; this is the algorithm's precondition
/// ("assign a unique label to each element of V") and is checked in debug
/// builds. Supplying the application's own unique values (e.g. hash keys) as
/// labels enables the paper's §3.2 optimization where label writing and main
/// processing coincide.
pub fn fol1_machine_labeled(
    m: &mut Machine,
    work: Region,
    index_vec: &[Word],
    labels: &VReg,
) -> Decomposition {
    try_fol1_machine_labeled(m, work, index_vec, labels, Validation::Off)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`fol1_machine`]: every way the decomposition can go wrong —
/// out-of-bounds targets, an ELS violation manifesting as a survivor-free
/// detection pass ([`FolError::NoSurvivors`], Theorem 1), a non-converging
/// loop ([`FolError::RoundBudgetExceeded`]) — comes back as a typed error
/// instead of a panic or an infinite loop.
///
/// `validation` additionally verifies the *result* before it is returned:
/// at [`Validation::Full`] an ELS-violating machine (e.g. one with a
/// torn-write [`fol_vm::FaultPlan`] installed) that smuggles extra rounds
/// past the detection loop is caught as [`FolError::NotMinimal`]. The
/// guarantee this buys is central to the adversarial test suite: the
/// fallible decomposers **never return a silently wrong decomposition** —
/// on ELS-conforming hardware they return the correct minimal result, and
/// on broken hardware they either still produce a valid decomposition or
/// report a typed error.
pub fn try_fol1_machine(
    m: &mut Machine,
    work: Region,
    index_vec: &[Word],
    validation: Validation,
) -> Result<Decomposition, FolError> {
    let n = index_vec.len();
    let labels = m.iota(0, n);
    try_fol1_machine_labeled(m, work, index_vec, &labels, validation)
}

/// Fallible [`fol1_machine_labeled`]. See [`try_fol1_machine`].
///
/// The algorithm's preconditions are always enforced (not only in debug
/// builds): labels must be pairwise distinct
/// ([`FolError::DuplicateLabels`]), one label per element
/// ([`FolError::LengthMismatch`]), and every target must address `work`
/// ([`FolError::TargetOutOfBounds`]).
pub fn try_fol1_machine_labeled(
    m: &mut Machine,
    work: Region,
    index_vec: &[Word],
    labels: &VReg,
    validation: Validation,
) -> Result<Decomposition, FolError> {
    try_fol1_machine_observed(m, work, index_vec, labels, validation, &mut |_| Ok(()))
}

/// [`try_fol1_machine_labeled`] with a per-pass observer hook.
///
/// `observe` is called at the top of every detection pass with the number of
/// elements still live; returning an `Err` aborts the decomposition with that
/// error before the pass runs. This is the attachment point for the recovery
/// watchdog (`fol-core`'s `recover` module): a supervisor that wants to bound
/// non-convergence more tightly than the round budget — stalled survivor
/// sets, wall-clock deadlines — observes the live count here without the
/// decomposition loop knowing anything about policies or clocks.
pub fn try_fol1_machine_observed(
    m: &mut Machine,
    work: Region,
    index_vec: &[Word],
    labels: &VReg,
    validation: Validation,
    observe: &mut dyn FnMut(usize) -> Result<(), FolError>,
) -> Result<Decomposition, FolError> {
    if index_vec.len() != labels.len() {
        return Err(FolError::LengthMismatch {
            what: "one label per index vector element",
            left: index_vec.len(),
            right: labels.len(),
        });
    }
    if let Some(position) = first_repeat(labels.as_slice()) {
        return Err(FolError::DuplicateLabels { position });
    }
    for (position, &target) in index_vec.iter().enumerate() {
        if target < 0 || target as usize >= work.len() {
            return Err(FolError::TargetOutOfBounds {
                round: None,
                position,
                target,
                domain: work.len(),
            });
        }
    }

    // Step 0 (preprocessing): labels are given; j is implicit in `rounds`.
    let n = index_vec.len();
    let mut v = m.vimm(index_vec);
    let mut positions = m.iota(0, n);
    let mut labels = labels.clone();
    let mut rounds: Vec<Vec<usize>> = Vec::new();

    while !v.is_empty() {
        // Theorem 6: a correct FOL1 run needs at most n rounds (all-equal
        // input). More means the machine is not making progress.
        if rounds.len() >= n {
            return Err(FolError::RoundBudgetExceeded {
                budget: n,
                live: v.len(),
                completed_rounds: rounds.len(),
            });
        }
        observe(v.len())?;
        // Step 1: write labels through V into the work areas. The ELS
        // auditor (when the machine has it enabled) notes the competing
        // labels per cell, so the paired gather is certified against
        // amalgams and phantom reads at the round boundary.
        m.audit_note_scatter(work, &v, &labels);
        m.scatter(work, &v, &labels);
        // Step 2: read back through the same indices and compare.
        let got = m.gather(work, &v);
        m.audit_check_gather(work, &v, &got)
            .map_err(FolError::from)?;
        let ok = m.vcmp(CmpOp::Eq, &got, &labels);
        let survivors = m.compress(&positions, &ok);
        if survivors.is_empty() {
            // Theorem 1 guarantees a survivor under ELS; its absence is a
            // typed report that the hardware broke the ELS condition.
            return Err(FolError::NoSurvivors {
                iteration: rounds.len(),
                live: v.len(),
            });
        }
        rounds.push(survivors.iter().map(|p| p as usize).collect());
        // Step 3: delete processed pointers from V.
        let rest = m.mask_not(&ok);
        v = m.compress(&v, &rest);
        positions = m.compress(&positions, &rest);
        labels = m.compress(&labels, &rest);
        // Step 4: repeat until V is empty.
    }
    let d = Decomposition::new(rounds);
    let targets: Vec<usize> = index_vec.iter().map(|&t| t as usize).collect();
    validate_decomposition(&d, &targets, work.len(), validation)?;
    Ok(d)
}

/// Reference decomposition by direct grouping: round `k` contains the `k`-th
/// occurrence (in vector order) of every distinct target.
///
/// This produces *a* minimum disjoint decomposition — the same round *sizes*
/// as FOL1 must produce (Lemma 3 / Theorem 5), though the assignment of which
/// duplicate lands in which round may differ from a particular hardware
/// policy's choice. `O(N)` time and space on the host.
pub fn reference_decompose(index_vec: &[Word]) -> Decomposition {
    let mut occurrence: std::collections::HashMap<Word, usize> = std::collections::HashMap::new();
    let mut rounds: Vec<Vec<usize>> = Vec::new();
    for (pos, &t) in index_vec.iter().enumerate() {
        let k = occurrence.entry(t).or_insert(0);
        if *k == rounds.len() {
            rounds.push(Vec::new());
        }
        rounds[*k].push(pos);
        *k += 1;
    }
    Decomposition::new(rounds)
}

/// Reference decomposition by exhaustive pairwise comparison — the `O(N²)`
/// strawman the paper mentions ("this process needs O(N²) comparisons, so it
/// will decrease performance") and the ablation baseline for the
/// `decompose` Criterion bench.
///
/// Greedy: scan remaining positions in order; a position joins the current
/// round unless its target collides with one already in the round (checked by
/// pairwise comparison, no hashing).
pub fn pairwise_decompose(index_vec: &[Word]) -> Decomposition {
    let mut remaining: Vec<usize> = (0..index_vec.len()).collect();
    let mut rounds = Vec::new();
    while !remaining.is_empty() {
        let mut round: Vec<usize> = Vec::new();
        let mut rest = Vec::new();
        'cand: for &pos in &remaining {
            for &taken in &round {
                if index_vec[taken] == index_vec[pos] {
                    rest.push(pos);
                    continue 'cand;
                }
            }
            round.push(pos);
        }
        rounds.push(round);
        remaining = rest;
    }
    Decomposition::new(rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{FolError, Validation};
    use crate::theory;
    use fol_vm::{ConflictPolicy, CostModel};

    fn machine_with(policy: ConflictPolicy) -> Machine {
        Machine::with_policy(CostModel::unit(), policy)
    }

    /// The paper's Fig 6: V = [a, b, a, c, c, a] over storage {a, b, c}.
    const FIG6: [Word; 6] = [0, 1, 0, 2, 2, 0];

    #[test]
    fn fig6_decomposition() {
        let mut m = machine_with(ConflictPolicy::LastWins);
        let work = m.alloc(3, "work");
        let d = fol1_machine(&mut m, work, &FIG6);
        // `a` has multiplicity 3 -> exactly 3 rounds of sizes 3, 2, 1.
        assert_eq!(d.sizes(), vec![3, 2, 1]);
        assert!(theory::is_disjoint_cover(&d, 6));
        assert!(theory::rounds_target_distinct_words(&d, &FIG6));
    }

    #[test]
    fn duplicate_free_input_is_single_round() {
        // Theorem 3: M = 1 when the input has no duplicates.
        let mut m = machine_with(ConflictPolicy::Arbitrary(3));
        let work = m.alloc(8, "work");
        let v = [5, 2, 7, 0, 3];
        let d = fol1_machine(&mut m, work, &v);
        assert_eq!(d.num_rounds(), 1);
        assert_eq!(d.rounds()[0], vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn all_equal_input_needs_n_rounds() {
        // Theorem 6's worst case: every element aliases one cell.
        let mut m = machine_with(ConflictPolicy::LastWins);
        let work = m.alloc(1, "work");
        let v = [0; 7];
        let d = fol1_machine(&mut m, work, &v);
        assert_eq!(d.num_rounds(), 7);
        assert!(d.sizes().iter().all(|&s| s == 1));
    }

    #[test]
    fn round_count_is_max_multiplicity_for_all_policies() {
        // Lemma 3 + Theorem 5 under every ELS-conforming policy.
        let v: Vec<Word> = vec![4, 4, 1, 4, 2, 2, 9];
        for policy in [
            ConflictPolicy::FirstWins,
            ConflictPolicy::LastWins,
            ConflictPolicy::Arbitrary(0),
            ConflictPolicy::Arbitrary(1234),
        ] {
            let mut m = machine_with(policy.clone());
            let work = m.alloc(10, "work");
            let d = fol1_machine(&mut m, work, &v);
            assert_eq!(d.num_rounds(), 3, "{policy:?}");
            assert!(theory::is_disjoint_cover(&d, v.len()), "{policy:?}");
            assert!(theory::rounds_target_distinct_words(&d, &v), "{policy:?}");
            assert!(theory::sizes_monotone(&d), "{policy:?}");
        }
    }

    #[test]
    fn empty_input_no_rounds() {
        let mut m = machine_with(ConflictPolicy::LastWins);
        let work = m.alloc(1, "work");
        let d = fol1_machine(&mut m, work, &[]);
        assert_eq!(d.num_rounds(), 0);
    }

    #[test]
    fn custom_labels_work() {
        let mut m = machine_with(ConflictPolicy::LastWins);
        let work = m.alloc(4, "work");
        let labels = m.vimm(&[100, 200, 300]);
        let d = fol1_machine_labeled(&mut m, work, &[1, 1, 3], &labels);
        assert_eq!(d.sizes(), vec![2, 1]);
    }

    #[test]
    #[should_panic(expected = "one label per index vector element")]
    fn label_length_mismatch_panics() {
        let mut m = machine_with(ConflictPolicy::LastWins);
        let work = m.alloc(4, "work");
        let labels = m.vimm(&[1]);
        let _ = fol1_machine_labeled(&mut m, work, &[1, 2], &labels);
    }

    #[test]
    fn try_matches_infallible_and_validates_full() {
        let mut m = machine_with(ConflictPolicy::Arbitrary(5));
        let work = m.alloc(3, "work");
        let d1 = fol1_machine(&mut m, work, &FIG6);
        let mut m2 = machine_with(ConflictPolicy::Arbitrary(5));
        let w2 = m2.alloc(3, "work");
        let d2 = try_fol1_machine(&mut m2, w2, &FIG6, Validation::Full).unwrap();
        assert_eq!(d1, d2);
    }

    #[test]
    fn try_rejects_duplicate_labels() {
        let mut m = machine_with(ConflictPolicy::LastWins);
        let work = m.alloc(4, "work");
        let labels = m.vimm(&[7, 7]);
        let err =
            try_fol1_machine_labeled(&mut m, work, &[0, 1], &labels, Validation::Off).unwrap_err();
        assert_eq!(err, FolError::DuplicateLabels { position: 1 });
    }

    #[test]
    fn try_rejects_out_of_bounds_and_negative_targets() {
        let mut m = machine_with(ConflictPolicy::LastWins);
        let work = m.alloc(4, "work");
        let err = try_fol1_machine(&mut m, work, &[0, 9], Validation::Off).unwrap_err();
        assert_eq!(
            err,
            FolError::TargetOutOfBounds {
                round: None,
                position: 1,
                target: 9,
                domain: 4
            }
        );
        let err = try_fol1_machine(&mut m, work, &[-1], Validation::Off).unwrap_err();
        assert!(matches!(
            err,
            FolError::TargetOutOfBounds { target: -1, .. }
        ));
    }

    #[test]
    fn try_reports_amalgam_machine_as_no_survivors() {
        // The fallible decomposer turns the BrokenAmalgam infinite loop into
        // a typed error naming the violated guarantee. Three lanes are needed:
        // with two, the XOR amalgam of labels 0 and 1 happens to equal label 1
        // and a survivor remains; 0^1^2 = 3 matches no label at all.
        let mut m = machine_with(ConflictPolicy::BrokenAmalgam);
        let work = m.alloc(2, "work");
        let err = try_fol1_machine(&mut m, work, &[1, 1, 1], Validation::Off).unwrap_err();
        assert!(
            matches!(
                err,
                FolError::NoSurvivors {
                    iteration: 0,
                    live: 3
                }
            ),
            "got {err:?}"
        );
        assert!(err.to_string().contains("Theorem 1"));
    }

    #[test]
    fn observer_sees_shrinking_live_counts_and_can_abort() {
        let mut m = machine_with(ConflictPolicy::LastWins);
        let work = m.alloc(3, "work");
        let labels = m.iota(0, FIG6.len());
        let mut seen = Vec::new();
        let d = try_fol1_machine_observed(
            &mut m,
            work,
            &FIG6,
            &labels,
            Validation::Full,
            &mut |live| {
                seen.push(live);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(seen, vec![6, 3, 1], "one observation per pass, shrinking");
        assert_eq!(d.sizes(), vec![3, 2, 1]);

        // An observer error aborts before the pass it observed.
        let mut m = machine_with(ConflictPolicy::LastWins);
        let work = m.alloc(3, "work");
        let labels = m.iota(0, FIG6.len());
        let mut passes = 0usize;
        let err =
            try_fol1_machine_observed(&mut m, work, &FIG6, &labels, Validation::Off, &mut |live| {
                passes += 1;
                if passes == 2 {
                    Err(FolError::Stalled {
                        stalled_rounds: 1,
                        live,
                        deadline_expired: false,
                    })
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
        assert!(matches!(err, FolError::Stalled { live: 3, .. }), "{err:?}");
    }

    #[test]
    fn reference_matches_fol1_sizes() {
        let v: Vec<Word> = vec![3, 1, 3, 3, 2, 1, 0, 2];
        let r = reference_decompose(&v);
        let p = pairwise_decompose(&v);
        let mut m = machine_with(ConflictPolicy::Arbitrary(9));
        let work = m.alloc(4, "work");
        let f = fol1_machine(&mut m, work, &v);
        assert_eq!(r.sizes(), f.sizes());
        assert_eq!(p.sizes(), f.sizes());
        for d in [&r, &p] {
            assert!(theory::is_disjoint_cover(d, v.len()));
            assert!(theory::rounds_target_distinct_words(d, &v));
        }
    }

    #[test]
    fn fol1_is_fully_vectorized() {
        // The decomposition loop must issue no scalar operations — the
        // paper's "performed entirely by vector operations".
        let mut m = machine_with(ConflictPolicy::LastWins);
        let work = m.alloc(8, "work");
        m.enable_trace();
        let _ = fol1_machine(&mut m, work, &[1, 2, 1, 7]);
        let t = m.take_trace().expect("tracing on");
        assert!(t.is_fully_vector());
    }

    #[test]
    fn els_violation_breaks_the_termination_guarantee() {
        // Failure injection: under BrokenAmalgam (XOR of competing writes),
        // a conflicted cell holds a value no element wrote, so *neither*
        // duplicate reads its own label back — Theorem 1's "at least one
        // survivor" fails and the ELS condition is shown to be necessary.
        let mut m = machine_with(ConflictPolicy::BrokenAmalgam);
        let work = m.alloc(2, "work");
        // One detection round by hand (fol1_machine would loop forever).
        let v = m.vimm(&[1, 1]);
        let labels = m.vimm(&[1, 2]);
        m.scatter(work, &v, &labels);
        let got = m.gather(work, &v);
        let ok = m.vcmp(fol_vm::CmpOp::Eq, &got, &labels);
        assert_eq!(ok.popcount(), 0, "amalgam 1^2 = 3 matches neither label");
    }

    #[test]
    fn work_area_contents_after_round_are_labels() {
        // The shared-storage argument of §3.2: after each round the work
        // cells named by surviving pointers hold those survivors' labels.
        let mut m = machine_with(ConflictPolicy::LastWins);
        let work = m.alloc(4, "work");
        let v = [2, 2];
        let _ = fol1_machine(&mut m, work, &v);
        // Final round wrote label of position 0 or 1; LastWins + final
        // single-element round means the last surviving label sits there.
        let w = m.mem().read(work.base() + 2);
        assert!(w == 0 || w == 1);
    }
}
