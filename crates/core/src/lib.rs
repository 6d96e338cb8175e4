//! # fol-core — the filtering-overwritten-label method
//!
//! This crate implements the primary contribution of Kanada's *"A Method of
//! Vector Processing for Shared Symbolic Data"* (Supercomputing '91): the
//! **filtering-overwritten-label method (FOL)**, which makes it possible to
//! vectorize *multiple rewriting of possibly-shared data* — the class of
//! operations (hash-table insertion, address-calculation sorting, tree and
//! graph rewriting) that classical vectorization must refuse because an index
//! vector may contain several pointers to the same storage.
//!
//! ## The idea
//!
//! Given an index vector `V` whose elements may alias, FOL splits the
//! referenced data into the *minimum* number of **parallel-processable
//! rounds**: within a round every element targets distinct storage, so the
//! round may be processed by vector (or any parallel) operations; rounds are
//! processed one after another. The split itself uses only vector
//! instructions:
//!
//! 1. **Write labels** — scatter a unique label per element of `V` through
//!    `V` into a work area. Conflicting writes land per the hardware's ELS
//!    guarantee: exactly one competing label survives.
//! 2. **Detect overwriting** — gather the labels back through the same
//!    indices and compare with the originals. An element whose label
//!    round-tripped intact owns its storage this round.
//! 3. **Filter** — survivors form the next round; compress them out of `V`
//!    and repeat until `V` is empty.
//!
//! ## What lives where
//!
//! * [`decompose`] — FOL1 running on the simulated vector machine
//!   ([`fol_vm::Machine`]), plus reference decomposers used to cross-check
//!   it; fallible `try_*` variants return typed [`FolError`]s.
//! * [`host`] — FOL1 on plain host slices (no simulator, no cost model):
//!   the same algorithm, usable as a real parallelization primitive.
//! * [`fol_star`] — FOL\* for unit processes that rewrite `L` items at once
//!   (the paper's §3.3), with livelock avoidance and a detection-pass
//!   budget ([`FolStarOptions::max_rounds`]) bounding adversarial cost.
//! * [`ordered`] — the order-preserving variant built on the `VSTX`
//!   ordered store (the paper's footnote 7): duplicates drain in their
//!   original vector order.
//! * [`parallel`] — executors that apply a unit process over a decomposition,
//!   sequentially or with real data parallelism (scoped threads), exploiting the
//!   within-round distinctness guarantee; `try_*` variants verify the
//!   decomposition before touching any data.
//! * [`error`] — the typed failure surface: [`FolError`] (every way FOL
//!   can fail, each naming the violated paper result) and [`Validation`]
//!   (how much runtime verification the fallible paths perform — `Off`,
//!   `Cheap` per-round safety, `Full` whole-contract including minimality).
//!   Hostile inputs and ELS-violating hardware ([`fol_vm::fault`]) surface
//!   as `Err`, never as a silently wrong answer.
//! * [`recover`] — transactional execution: every attempt runs inside a
//!   machine transaction ([`fol_vm::Machine::begin_txn`]) and a failed
//!   attempt is rolled back byte-exact; a [`RetryPolicy`] escalates
//!   `Vector → ForcedSequential → ScalarTail` until a rung completes, and
//!   the whole run is audited in a [`RecoveryReport`].
//! * [`theory`] — executable statements of the paper's lemmas and theorems
//!   (disjoint cover, minimality, monotone round sizes, complexity bounds),
//!   used pervasively by the test suites.
//! * [`vectorize`] — the FOL transformation as a combinator: a declarative
//!   scalar update loop (subscript and value as expression trees, a
//!   combine operation) is executed either sequentially or as its
//!   FOL-vectorized form, with exact agreement guaranteed.
//!
//! ## Quick example (host FOL1)
//!
//! ```
//! use fol_core::host::fol1_host;
//! use fol_core::theory;
//!
//! // Six pointers into a 3-cell storage: cells 0,1,2 hold a,b,c.
//! // V = [a, b, a, c, c, a]  (Fig 6 of the paper)
//! let v = [0usize, 1, 0, 2, 2, 0];
//! let d = fol1_host(&v, 3);
//! assert_eq!(d.num_rounds(), 3); // a appears 3 times -> 3 rounds (Thm 5)
//! assert!(theory::is_disjoint_cover(&d, v.len()));
//! assert!(theory::rounds_target_distinct(&d, &v));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decompose;
pub mod error;
pub mod fol_star;
pub mod host;
pub mod ordered;
pub mod parallel;
pub mod recover;
pub mod theory;
pub mod vectorize;

pub use decompose::{
    fol1_machine, fol1_machine_labeled, reference_decompose, try_fol1_machine,
    try_fol1_machine_labeled, try_fol1_machine_observed,
};
pub use error::{validate_decomposition, validate_round, FolError, Validation};
pub use fol_star::{
    fol_star_first_round, fol_star_machine, try_fol_star_machine, FolStarOptions, LivelockPolicy,
};
pub use host::{fol1_host, fol1_host_with_work, try_fol1_host, try_fol1_host_with_work};
pub use ordered::{fol1_machine_ordered, try_fol1_machine_ordered};
pub use parallel::{try_apply_rounds, try_par_apply_rounds};
pub use recover::{
    decompose_with_mode, decompose_with_mode_watched, run_transaction, split_retry,
    txn_apply_rounds, txn_par_apply_rounds, with_lane_mask, AttemptRecord, ExecMode, GroupError,
    RecoveryError, RecoveryReport, RetryPolicy, Watchdog, WatchdogConfig,
};

use std::fmt;

/// The result of a FOL decomposition: positions of the original index vector
/// grouped into parallel-processable rounds.
///
/// `rounds()[j]` holds the positions (0-based subscripts into the *original*
/// index vector `V`) of the elements processed in round `j`. The paper calls
/// these sets `S1 … SM`; the guarantees proved there (and re-checked by
/// [`theory`]) are:
///
/// * every position appears in exactly one round (*disjoint decomposition*,
///   Lemma 1),
/// * within a round all targeted storage cells are distinct (Lemma 2),
/// * `|S1| >= |S2| >= … >= |SM|` and `M` equals the maximum multiplicity of
///   any target (Theorem 3, Lemma 3, Theorem 5 — minimality).
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Decomposition {
    rounds: Vec<Vec<usize>>,
}

impl Decomposition {
    /// Builds a decomposition from rounds of original-vector positions.
    pub fn new(rounds: Vec<Vec<usize>>) -> Self {
        Self { rounds }
    }

    /// The rounds, outermost first.
    pub fn rounds(&self) -> &[Vec<usize>] {
        &self.rounds
    }

    /// Number of rounds (the paper's `M`).
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Total number of positions across all rounds.
    pub fn total_len(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }

    /// Sizes of the rounds, in order.
    pub fn sizes(&self) -> Vec<usize> {
        self.rounds.iter().map(Vec::len).collect()
    }

    /// Iterator over the rounds.
    pub fn iter(&self) -> impl Iterator<Item = &[usize]> + '_ {
        self.rounds.iter().map(Vec::as_slice)
    }
}

impl fmt::Debug for Decomposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Decomposition{:?}", self.rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decomposition_accessors() {
        let d = Decomposition::new(vec![vec![0, 2], vec![1]]);
        assert_eq!(d.num_rounds(), 2);
        assert_eq!(d.total_len(), 3);
        assert_eq!(d.sizes(), vec![2, 1]);
        assert_eq!(d.rounds()[1], vec![1]);
        assert_eq!(d.iter().count(), 2);
        assert_eq!(format!("{d:?}"), "Decomposition[[0, 2], [1]]");
    }

    #[test]
    fn empty_decomposition() {
        let d = Decomposition::default();
        assert_eq!(d.num_rounds(), 0);
        assert_eq!(d.total_len(), 0);
    }
}
