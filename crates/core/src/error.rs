//! Typed errors and configurable runtime validation for FOL execution.
//!
//! The paper proves FOL correct *assuming* the ELS condition; the seed code
//! checked the resulting invariants only with `debug_assert!`, which
//! evaporates in release builds — exactly the builds a production service
//! runs. This module promotes those checks into first-class, configurable
//! runtime verification:
//!
//! * [`FolError`] — every way a FOL decomposition or execution can fail,
//!   as a typed, recoverable value instead of a process abort. Hostile
//!   inputs and broken hardware models (see [`fol_vm::fault`]) surface as
//!   `Err`, never as a silently wrong answer.
//! * [`Validation`] — how much checking the fallible executors
//!   ([`crate::parallel::try_apply_rounds`],
//!   [`crate::parallel::try_par_apply_rounds`]) perform:
//!   [`Validation::Off`] trusts the decomposition, [`Validation::Cheap`]
//!   re-checks each round's safety conditions (bounds, within-round
//!   distinctness — the conditions that make concurrent mutation sound),
//!   [`Validation::Full`] additionally verifies the whole FOL contract
//!   (disjoint cover, Lemma 1; minimality, Theorem 5). `Full` is what the
//!   adversarial differential suite runs in release mode: a torn-write
//!   adversary that smuggles extra rounds past the decomposer is caught
//!   here as [`FolError::NotMinimal`].

use crate::Decomposition;
use fol_vm::MachineTrap;
use std::collections::HashSet;
use std::fmt;

/// Every way a FOL decomposition or execution can fail.
///
/// The `Display` form of each variant names the violated paper result where
/// one exists, so a logged error reads as a diagnosis, not just a location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FolError {
    /// Two parallel inputs that must agree in length do not.
    LengthMismatch {
        /// What must agree (e.g. "one label per index vector element").
        what: &'static str,
        /// Left-hand length.
        left: usize,
        /// Right-hand length.
        right: usize,
    },
    /// FOL1's precondition "assign a unique label to each element" is
    /// violated: the label at `position` repeats an earlier one.
    DuplicateLabels {
        /// First position whose label duplicates an earlier label.
        position: usize,
    },
    /// A target index falls outside the storage domain. `target` is signed
    /// so the machine form can report negative indices faithfully.
    TargetOutOfBounds {
        /// Round containing the offence, when known.
        round: Option<usize>,
        /// Position (into the original index vector) of the offender.
        position: usize,
        /// The out-of-range target.
        target: i64,
        /// The storage domain (number of cells).
        domain: usize,
    },
    /// Two positions of one round target the same cell — the within-round
    /// distinctness of Lemma 2, the condition that makes concurrent
    /// mutation sound, is violated.
    DuplicateTargetInRound {
        /// The offending round.
        round: usize,
        /// The doubly-targeted cell.
        target: usize,
    },
    /// A position appears in more than one round (Lemma 1, disjointness).
    PositionRepeated {
        /// The repeated position.
        position: usize,
    },
    /// A position of the index vector appears in no round (Lemma 1, cover).
    PositionMissing {
        /// The missing position.
        position: usize,
    },
    /// The decomposition has more rounds than the maximum target
    /// multiplicity (Theorem 5, minimality). On ELS-conforming hardware FOL
    /// produces exactly `max_multiplicity` rounds, so extra rounds are the
    /// signature of an ELS violation (torn writes, dropped lanes).
    NotMinimal {
        /// Observed round count.
        rounds: usize,
        /// The maximum multiplicity of any target (the minimum possible).
        max_multiplicity: usize,
    },
    /// A detection pass found no survivor. Theorem 1 guarantees at least
    /// one under ELS, so this is a typed report that the hardware model
    /// broke the ELS condition (or, for FOL\*, that livelock handling was
    /// disabled).
    NoSurvivors {
        /// The failing iteration (0-based).
        iteration: usize,
        /// Number of elements still live.
        live: usize,
    },
    /// The decomposition loop exceeded its round budget (`n` rounds for
    /// FOL1 — the worst legal case, Theorem 6 — or the caller's
    /// `max_rounds`). Under ELS this cannot happen; it bounds the damage of
    /// a persistently faulty scatter path.
    RoundBudgetExceeded {
        /// The exhausted budget.
        budget: usize,
        /// Number of elements still live when the budget ran out.
        live: usize,
        /// Rounds fully completed before the budget ran out — the progress
        /// indication a supervisor needs to account for replayed work.
        completed_rounds: usize,
    },
    /// The recovery watchdog tripped: the FOL survivor set failed to shrink
    /// for the configured number of consecutive detection passes, or the
    /// attempt's wall-clock deadline expired. Raised by the watched
    /// decomposition paths (see `crate::recover::WatchdogConfig`); the
    /// supervisor treats it as fatal — the attempt is rolled back and no
    /// further escalation rungs are burned.
    Stalled {
        /// Consecutive detection passes observed without the live set
        /// shrinking.
        stalled_rounds: usize,
        /// Number of elements still live when the watchdog tripped.
        live: usize,
        /// True when the trip was the wall-clock deadline rather than the
        /// stall counter.
        deadline_expired: bool,
    },
    /// A machine instruction trapped (e.g. division by zero) during a unit
    /// process.
    Trap(MachineTrap),
    /// A workload's end-to-end post-condition failed: the transactional
    /// entry point compared its completed result against the scalar
    /// reference semantics and found a divergence that decomposition-level
    /// validation did not catch (e.g. a dropped lane in a conflict-free
    /// payload scatter). The attempt is rolled back; this is the error that
    /// turns "silent wrong answer" into a typed, retryable failure.
    PostConditionFailed {
        /// Which post-condition (e.g. "chaining insert contents").
        what: &'static str,
    },
    /// The machine's integrity layer caught silent data corruption: a
    /// checksummed work area diverged from its incremental digest (bit-rot),
    /// or the ELS auditor saw a gathered label that was never scattered
    /// (torn gather / phantom read). The attempt is rolled back; the
    /// supervisor escalates, down to the scalar tail, instead of trusting
    /// the data.
    Integrity(fol_vm::IntegrityError),
    /// Execution failed *after* some rounds were fully applied: rounds
    /// `0..completed_rounds` are committed to the data, the failing round
    /// was validated before any of its unit processes ran (so no torn round
    /// remains), and `cause` is the failure itself. Raised by the lazily
    /// validating executors ([`crate::parallel::try_apply_rounds`] /
    /// [`crate::parallel::try_par_apply_rounds`] at [`Validation::Cheap`])
    /// when the defect sits in a later round.
    Partial {
        /// Rounds fully applied before the failure.
        completed_rounds: usize,
        /// The underlying failure in round `completed_rounds`.
        cause: Box<FolError>,
    },
}

impl fmt::Display for FolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FolError::LengthMismatch { what, left, right } => {
                write!(f, "{what}: length mismatch ({left} vs {right})")
            }
            FolError::DuplicateLabels { position } => {
                write!(f, "FOL1 requires unique labels: label at position {position} repeats")
            }
            FolError::TargetOutOfBounds { round, position, target, domain } => {
                match round {
                    Some(r) => write!(
                        f,
                        "target {target} at position {position} (round {r}) out of bounds of domain {domain}"
                    ),
                    None => write!(
                        f,
                        "target {target} at position {position} out of bounds of domain {domain}"
                    ),
                }
            }
            FolError::DuplicateTargetInRound { round, target } => write!(
                f,
                "duplicate target {target} within round {round}: within-round distinctness (Lemma 2) violated"
            ),
            FolError::PositionRepeated { position } => write!(
                f,
                "position {position} appears in more than one round: disjointness (Lemma 1) violated"
            ),
            FolError::PositionMissing { position } => write!(
                f,
                "position {position} appears in no round: cover (Lemma 1) violated"
            ),
            FolError::NotMinimal { rounds, max_multiplicity } => write!(
                f,
                "{rounds} rounds for maximum multiplicity {max_multiplicity}: minimality (Theorem 5) violated — symptom of an ELS violation"
            ),
            FolError::NoSurvivors { iteration, live } => write!(
                f,
                "no survivor in iteration {iteration} with {live} live elements: ELS guarantee (Theorem 1) violated"
            ),
            FolError::RoundBudgetExceeded { budget, live, completed_rounds } => write!(
                f,
                "round budget {budget} exhausted after {completed_rounds} completed rounds with {live} elements live: decomposition is not converging"
            ),
            FolError::Stalled { stalled_rounds, live, deadline_expired } => {
                if *deadline_expired {
                    write!(
                        f,
                        "watchdog: wall-clock deadline expired with {live} elements live"
                    )
                } else {
                    write!(
                        f,
                        "watchdog: survivor set failed to shrink for {stalled_rounds} consecutive passes with {live} elements live"
                    )
                }
            }
            FolError::Trap(t) => write!(f, "{t}"),
            FolError::Integrity(e) => write!(f, "integrity violation: {e}"),
            FolError::PostConditionFailed { what } => write!(
                f,
                "post-condition failed: {what} diverges from the scalar reference"
            ),
            FolError::Partial { completed_rounds, cause } => write!(
                f,
                "failed after {completed_rounds} completed rounds (failing round never started): {cause}"
            ),
        }
    }
}

impl FolError {
    /// Rounds fully completed before this error, when the variant carries
    /// progress (zero otherwise) — what a recovery supervisor charges as
    /// replayed work after a rollback.
    pub fn completed_rounds(&self) -> usize {
        match self {
            FolError::Partial {
                completed_rounds, ..
            }
            | FolError::RoundBudgetExceeded {
                completed_rounds, ..
            } => *completed_rounds,
            FolError::NoSurvivors { iteration, .. } => *iteration,
            _ => 0,
        }
    }
}

impl std::error::Error for FolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FolError::Trap(t) => Some(t),
            FolError::Integrity(e) => Some(e),
            FolError::Partial { cause, .. } => Some(cause),
            _ => None,
        }
    }
}

impl From<MachineTrap> for FolError {
    fn from(t: MachineTrap) -> Self {
        FolError::Trap(t)
    }
}

impl From<fol_vm::IntegrityError> for FolError {
    fn from(e: fol_vm::IntegrityError) -> Self {
        FolError::Integrity(e)
    }
}

/// How much runtime verification the fallible executors perform.
///
/// Ordered: each level includes everything below it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Validation {
    /// Trust the decomposition completely (the seed behaviour in release
    /// builds: invalid input may panic or corrupt results).
    Off,
    /// Re-check each round's *execution safety* conditions just before
    /// running it: positions and targets in bounds, within-round targets
    /// pairwise distinct (Lemma 2). O(N) total over the whole execution.
    #[default]
    Cheap,
    /// [`Validation::Cheap`] plus the whole-decomposition FOL contract
    /// up front: every position in exactly one round (Lemma 1) and round
    /// count equal to the maximum target multiplicity (Theorem 5). Still
    /// O(N), with a second pass over the decomposition.
    Full,
}

/// Checks one round's execution-safety conditions: every position indexes
/// `targets`, every target lies in `0..domain`, and no two positions of the
/// round share a target (Lemma 2).
pub fn validate_round(
    round_idx: usize,
    round: &[usize],
    targets: &[usize],
    domain: usize,
) -> Result<(), FolError> {
    let mut seen = HashSet::with_capacity(round.len());
    for &pos in round {
        if pos >= targets.len() {
            return Err(FolError::PositionMissing { position: pos });
        }
        let t = targets[pos];
        if t >= domain {
            return Err(FolError::TargetOutOfBounds {
                round: Some(round_idx),
                position: pos,
                target: t as i64,
                domain,
            });
        }
        if !seen.insert(t) {
            return Err(FolError::DuplicateTargetInRound {
                round: round_idx,
                target: t,
            });
        }
    }
    Ok(())
}

/// Validates a whole decomposition against `targets` and a storage of
/// `domain` cells at the given [`Validation`] level.
///
/// At [`Validation::Full`] this is the executable conjunction of the
/// paper's Lemma 1, Lemma 2 and Theorem 5 — the complete FOL contract.
pub fn validate_decomposition(
    d: &Decomposition,
    targets: &[usize],
    domain: usize,
    level: Validation,
) -> Result<(), FolError> {
    if level == Validation::Off {
        return Ok(());
    }
    for (round_idx, round) in d.iter().enumerate() {
        validate_round(round_idx, round, targets, domain)?;
    }
    if level < Validation::Full {
        return Ok(());
    }
    // Lemma 1: disjoint cover of 0..targets.len().
    let mut seen = vec![false; targets.len()];
    for round in d.iter() {
        for &pos in round {
            if seen[pos] {
                return Err(FolError::PositionRepeated { position: pos });
            }
            seen[pos] = true;
        }
    }
    if let Some(position) = seen.iter().position(|&s| !s) {
        return Err(FolError::PositionMissing { position });
    }
    // Theorem 5: round count equals the maximum target multiplicity.
    let max_multiplicity = {
        let mut counts = std::collections::HashMap::with_capacity(targets.len());
        let mut max = 0usize;
        for &t in targets {
            let c = counts.entry(t).or_insert(0usize);
            *c += 1;
            max = max.max(*c);
        }
        max
    };
    if d.num_rounds() != max_multiplicity {
        return Err(FolError::NotMinimal {
            rounds: d.num_rounds(),
            max_multiplicity,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(rounds: &[&[usize]]) -> Decomposition {
        Decomposition::new(rounds.iter().map(|r| r.to_vec()).collect())
    }

    #[test]
    fn valid_decomposition_passes_full() {
        let targets = [5usize, 5, 3];
        let dec = d(&[&[0, 2], &[1]]);
        assert_eq!(
            validate_decomposition(&dec, &targets, 6, Validation::Full),
            Ok(())
        );
    }

    #[test]
    fn off_accepts_garbage() {
        let targets = [9usize];
        let dec = d(&[&[0, 0, 7]]);
        assert_eq!(
            validate_decomposition(&dec, &targets, 1, Validation::Off),
            Ok(())
        );
    }

    #[test]
    fn duplicate_target_detected() {
        let targets = [5usize, 5];
        let dec = d(&[&[0, 1]]);
        assert_eq!(
            validate_decomposition(&dec, &targets, 6, Validation::Cheap),
            Err(FolError::DuplicateTargetInRound {
                round: 0,
                target: 5
            })
        );
    }

    #[test]
    fn out_of_bounds_detected_with_round() {
        let targets = [7usize];
        let dec = d(&[&[0]]);
        assert_eq!(
            validate_decomposition(&dec, &targets, 4, Validation::Cheap),
            Err(FolError::TargetOutOfBounds {
                round: Some(0),
                position: 0,
                target: 7,
                domain: 4
            })
        );
    }

    #[test]
    fn cheap_accepts_non_minimal_full_rejects() {
        let targets = [1usize, 2];
        // Valid cover, safe to execute, but two rounds where one suffices.
        let dec = d(&[&[0], &[1]]);
        assert_eq!(
            validate_decomposition(&dec, &targets, 4, Validation::Cheap),
            Ok(())
        );
        assert_eq!(
            validate_decomposition(&dec, &targets, 4, Validation::Full),
            Err(FolError::NotMinimal {
                rounds: 2,
                max_multiplicity: 1
            })
        );
    }

    #[test]
    fn repeated_and_missing_positions_detected() {
        let targets = [1usize, 2];
        assert_eq!(
            validate_decomposition(&d(&[&[0], &[0]]), &targets, 4, Validation::Full),
            Err(FolError::PositionRepeated { position: 0 })
        );
        assert_eq!(
            validate_decomposition(&d(&[&[0]]), &targets, 4, Validation::Full),
            Err(FolError::PositionMissing { position: 1 })
        );
    }

    #[test]
    fn position_past_targets_detected() {
        let targets = [1usize];
        assert_eq!(
            validate_round(0, &[4], &targets, 8),
            Err(FolError::PositionMissing { position: 4 })
        );
    }

    #[test]
    fn display_names_the_paper_results() {
        let e = FolError::DuplicateTargetInRound {
            round: 1,
            target: 9,
        };
        assert!(e.to_string().contains("Lemma 2"));
        let e = FolError::NotMinimal {
            rounds: 3,
            max_multiplicity: 2,
        };
        assert!(e.to_string().contains("Theorem 5"));
        let e = FolError::NoSurvivors {
            iteration: 0,
            live: 4,
        };
        assert!(e.to_string().contains("Theorem 1"));
    }

    #[test]
    fn stalled_display_distinguishes_stall_from_deadline() {
        let stall = FolError::Stalled {
            stalled_rounds: 3,
            live: 7,
            deadline_expired: false,
        };
        assert!(stall.to_string().contains("failed to shrink for 3"));
        let deadline = FolError::Stalled {
            stalled_rounds: 0,
            live: 7,
            deadline_expired: true,
        };
        assert!(deadline.to_string().contains("deadline expired"));
        assert_eq!(deadline.completed_rounds(), 0);
    }

    #[test]
    fn integrity_error_wraps_into_fol_error() {
        let e: FolError = fol_vm::IntegrityError::GatherMismatch {
            region: "work".into(),
            addr: 12,
            lane: 5,
            got: 99,
            scattered: vec![3, 4],
        }
        .into();
        assert!(e.to_string().contains("integrity violation"));
        use std::error::Error;
        assert!(e.source().is_some());
    }

    #[test]
    fn trap_wraps_into_fol_error() {
        let t = MachineTrap::DivideByZero {
            op: fol_vm::AluOp::Div,
            lane: 3,
        };
        let e: FolError = t.into();
        assert_eq!(e, FolError::Trap(t));
        assert!(e.to_string().contains("machine trap"));
        use std::error::Error;
        assert!(e.source().is_some());
    }
}
