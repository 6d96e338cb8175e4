//! Scatter conflict policies — implementations of the ELS condition.
//!
//! FOL's correctness argument (§3.2 of the paper) rests on a single hardware
//! property, the **exclusive label storing (ELS) condition**: when a vector
//! indirect store writes several elements to the same address, the stored
//! value is exactly one of the written values — *which* one is arbitrary, but
//! it is never an amalgam of bits from several writes. Pipelined vector
//! processors guarantee this for stores of at most one machine word.
//!
//! Real machines differ in which write wins (the S-3800's `VIST` makes no
//! promise; its `VSTX` guarantees element order). To demonstrate — and
//! property-test — that FOL is correct under *any* ELS-conforming hardware,
//! the simulator makes the winner a pluggable [`ConflictPolicy`].
//!
//! Under [`ConflictPolicy::LastWins`] element order alone settles the
//! winner, so with no fault plan installed the machine never calls the
//! resolver: it walks a scatter's surviving lanes backwards and stores
//! the last one at each address, the `VSTX` semantics
//! [`crate::Machine::scatter_ordered`] always has. Every other policy, and
//! every scatter under a [`crate::fault::FaultPlan`], resolves winners
//! here first ([`ConflictPolicy::resolve_with_state`]) and stores each
//! once. Where both could run (last-wins under a plan that injects
//! nothing), they end in the same memory, journal, digests and footprint.

use crate::fault::hash3;

/// Which of several conflicting scatter writes to one address survives.
///
/// Every variant except [`ConflictPolicy::BrokenAmalgam`] satisfies the ELS
/// condition.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum ConflictPolicy {
    /// The element with the lowest vector index wins (as if later writes to a
    /// busy address were suppressed).
    FirstWins,
    /// The element with the highest vector index wins (element order, the
    /// `VSTX` guarantee; also what a naive sequential loop would produce).
    #[default]
    LastWins,
    /// A pseudo-random writer wins, deterministically derived from the given
    /// seed and the machine's scatter sequence number. This models hardware
    /// with parallel pipes whose interleaving is unspecified; running a test
    /// across many seeds explores many interleavings.
    Arbitrary(u64),
    /// An **adversarial but ELS-conforming** winner: exactly one competing
    /// write lands (so every FOL guarantee that rests on ELS must still
    /// hold), but the winner is chosen to do maximum damage to FOL\*'s
    /// detection step — conflicted addresses prefer a writer that *lost* in
    /// the previous scatter, minimizing the set of elements whose writes
    /// survive every scatter of an iteration and so provoking empty
    /// detection sets (the paper's §3.3 livelock). FOL1 is provably immune
    /// (its round sizes are winner-independent, Theorem 5); FOL\* is not,
    /// which is exactly what the livelock countermeasures must absorb.
    ///
    /// The choice is a pure function of the seed, the scatter sequence
    /// number, the address and the cross-scatter memory held by
    /// [`AdversaryState`], so adversarial runs replay exactly.
    Adversarial(u64),
    /// **Violates the ELS condition** — conflicting writes store the XOR of
    /// all competing values, an "amalgam" no single element wrote. This
    /// models broken hardware (e.g. sub-word stores torn across pipes) and
    /// exists solely so tests can demonstrate that FOL's guarantees really
    /// do rest on ELS. Never use it in an algorithm. For seeded, partial and
    /// multi-mode ELS violations use a [`crate::fault::FaultPlan`] instead.
    BrokenAmalgam,
}

/// Cross-scatter memory of [`ConflictPolicy::Adversarial`]: which element
/// positions won the previous scatter. The [`crate::Machine`] owns one and
/// threads it through consecutive scatters; FOL\*'s per-iteration scatters
/// share one live ordering, so "position" identifies the same tuple across
/// the `L` scatters of an iteration.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AdversaryState {
    recent_winners: std::collections::HashSet<usize>,
}

impl AdversaryState {
    /// A fresh adversary with no memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets everything (e.g. when the machine's policy is replaced).
    pub fn reset(&mut self) {
        self.recent_winners.clear();
    }
}

impl ConflictPolicy {
    /// True when the policy satisfies the ELS condition (every variant
    /// except [`ConflictPolicy::BrokenAmalgam`]). The lane-health machinery
    /// consults this to distinguish *policy-wide* ELS violations — which no
    /// per-lane quarantine can cure — from localizable lane faults.
    pub fn satisfies_els(&self) -> bool {
        !matches!(self, ConflictPolicy::BrokenAmalgam)
    }

    /// Resolves the winners of one scatter.
    ///
    /// `indices[i]` is the target address of element `i`; returns for each
    /// *position in the scatter* whether that element's write survived, and
    /// performs the surviving writes through `write`. `sequence` is the
    /// machine's scatter counter, folded into the RNG seed so that repeated
    /// scatters under `Arbitrary` see different interleavings while the whole
    /// run stays reproducible.
    ///
    /// The implementation is O(n) via a sort-free two-pass scheme: winners
    /// are chosen per distinct address, then applied.
    pub fn resolve<F>(&self, indices: &[usize], sequence: u64, write: F) -> Vec<bool>
    where
        F: FnMut(usize, usize), // (element position, address)
    {
        self.resolve_with_state(indices, sequence, None, write)
    }

    /// Like [`ConflictPolicy::resolve`], but threads the adversary's
    /// cross-scatter memory. Only [`ConflictPolicy::Adversarial`] consults
    /// (and updates) the state; passing `None` makes the adversary
    /// memoryless, which is still deterministic and ELS-conforming.
    pub fn resolve_with_state<F>(
        &self,
        indices: &[usize],
        sequence: u64,
        state: Option<&mut AdversaryState>,
        mut write: F,
    ) -> Vec<bool>
    where
        F: FnMut(usize, usize), // (element position, address)
    {
        let n = indices.len();
        let mut winner_of: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::with_capacity(n);
        match self {
            ConflictPolicy::FirstWins => {
                for (pos, &addr) in indices.iter().enumerate() {
                    winner_of.entry(addr).or_insert(pos);
                }
            }
            ConflictPolicy::LastWins => {
                for (pos, &addr) in indices.iter().enumerate() {
                    winner_of.insert(addr, pos);
                }
            }
            ConflictPolicy::BrokenAmalgam => {
                panic!("BrokenAmalgam is value-dependent and resolved by the Machine")
            }
            ConflictPolicy::Arbitrary(seed) => {
                // Pick one winner per address with an avalanche hash of
                // (seed, sequence, address) so every competing element is
                // equally likely, independent of vector order, and the whole
                // run replays exactly.
                let mut writers: std::collections::HashMap<usize, Vec<usize>> =
                    std::collections::HashMap::with_capacity(n);
                for (pos, &addr) in indices.iter().enumerate() {
                    writers.entry(addr).or_default().push(pos);
                }
                for (&addr, cands) in &writers {
                    let pick = hash3(*seed, sequence, addr as u64) as usize % cands.len();
                    winner_of.insert(addr, cands[pick]);
                }
            }
            ConflictPolicy::Adversarial(seed) => {
                let empty = std::collections::HashSet::new();
                let recent = state.as_ref().map_or(&empty, |s| &s.recent_winners);
                // Writers per address, in element order.
                let mut writers: std::collections::HashMap<usize, Vec<usize>> =
                    std::collections::HashMap::with_capacity(n);
                for (pos, &addr) in indices.iter().enumerate() {
                    writers.entry(addr).or_default().push(pos);
                }
                for (&addr, cands) in &writers {
                    // Prefer a writer that lost the previous scatter: a
                    // previous winner losing now can no longer survive the
                    // whole iteration, shrinking FOL*'s detection set.
                    let losers: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|p| !recent.contains(p))
                        .collect();
                    let pool = if losers.is_empty() {
                        cands.as_slice()
                    } else {
                        &losers
                    };
                    let pick = hash3(*seed, sequence, addr as u64) as usize % pool.len();
                    winner_of.insert(addr, pool[pick]);
                }
                if let Some(s) = state {
                    s.recent_winners = winner_of.values().copied().collect();
                }
            }
        }
        let mut survived = vec![false; n];
        for (&addr, &pos) in &winner_of {
            survived[pos] = true;
            write(pos, addr);
        }
        survived
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(policy: &ConflictPolicy, indices: &[usize]) -> (Vec<bool>, Vec<(usize, usize)>) {
        let mut writes = Vec::new();
        let survived = policy.resolve(indices, 7, |pos, addr| writes.push((pos, addr)));
        writes.sort_unstable();
        (survived, writes)
    }

    #[test]
    fn first_wins_keeps_earliest() {
        let (survived, writes) = run(&ConflictPolicy::FirstWins, &[5, 2, 5]);
        assert_eq!(survived, vec![true, true, false]);
        assert_eq!(writes, vec![(0, 5), (1, 2)]);
    }

    #[test]
    fn last_wins_keeps_latest() {
        let (survived, writes) = run(&ConflictPolicy::LastWins, &[5, 2, 5]);
        assert_eq!(survived, vec![false, true, true]);
        assert_eq!(writes, vec![(1, 2), (2, 5)]);
    }

    #[test]
    fn arbitrary_is_deterministic_per_seed_and_sequence() {
        let p = ConflictPolicy::Arbitrary(42);
        let a = p.resolve(&[1, 1, 1, 2], 3, |_, _| {});
        let b = p.resolve(&[1, 1, 1, 2], 3, |_, _| {});
        assert_eq!(a, b);
    }

    #[test]
    fn arbitrary_varies_with_sequence() {
        let p = ConflictPolicy::Arbitrary(42);
        let indices = vec![0usize; 32];
        let winners: std::collections::HashSet<usize> = (0..64)
            .map(|seq| {
                p.resolve(&indices, seq, |_, _| {})
                    .iter()
                    .position(|&s| s)
                    .expect("exactly one winner")
            })
            .collect();
        assert!(
            winners.len() > 1,
            "different sequences should pick different winners"
        );
    }

    #[test]
    fn els_exactly_one_winner_per_address() {
        for policy in [
            ConflictPolicy::FirstWins,
            ConflictPolicy::LastWins,
            ConflictPolicy::Arbitrary(1),
            ConflictPolicy::Arbitrary(99),
            ConflictPolicy::Adversarial(1),
            ConflictPolicy::Adversarial(99),
        ] {
            let indices = [3, 3, 3, 1, 1, 0];
            let survived = policy.resolve(&indices, 0, |_, _| {});
            for addr in [0usize, 1, 3] {
                let winners = indices
                    .iter()
                    .enumerate()
                    .filter(|&(pos, &a)| a == addr && survived[pos])
                    .count();
                assert_eq!(winners, 1, "{policy:?}: address {addr}");
            }
        }
    }

    #[test]
    fn adversarial_is_deterministic_and_els_conforming() {
        let p = ConflictPolicy::Adversarial(17);
        let indices = [4usize, 4, 4, 2, 1, 2];
        let a = p.resolve(&indices, 5, |_, _| {});
        let b = p.resolve(&indices, 5, |_, _| {});
        assert_eq!(a, b, "same seed + sequence must replay");
        // Exactly one winner per distinct address.
        assert_eq!(a.iter().filter(|&&s| s).count(), 3);
    }

    #[test]
    fn adversarial_prefers_previous_losers() {
        // Two elements fight over one address across two consecutive
        // scatters (the shape of a FOL* iteration with L = 2): whoever wins
        // the first scatter must lose the second, so no element wins both —
        // the empty-detection livelock the policy exists to provoke.
        let p = ConflictPolicy::Adversarial(3);
        let mut state = AdversaryState::new();
        for seq in 0..16u64 {
            let first = p.resolve_with_state(&[0, 0], 2 * seq, Some(&mut state), |_, _| {});
            let second = p.resolve_with_state(&[0, 0], 2 * seq + 1, Some(&mut state), |_, _| {});
            let w1 = first.iter().position(|&s| s).expect("one winner");
            let w2 = second.iter().position(|&s| s).expect("one winner");
            assert_ne!(
                w1, w2,
                "seq {seq}: previous winner must lose the next scatter"
            );
        }
    }

    #[test]
    fn adversary_state_reset_forgets() {
        let p = ConflictPolicy::Adversarial(3);
        let mut state = AdversaryState::new();
        let _ = p.resolve_with_state(&[0, 0], 0, Some(&mut state), |_, _| {});
        state.reset();
        assert_eq!(state, AdversaryState::default());
    }

    #[test]
    fn no_conflicts_means_everyone_survives() {
        for policy in [
            ConflictPolicy::FirstWins,
            ConflictPolicy::LastWins,
            ConflictPolicy::Arbitrary(5),
            ConflictPolicy::Adversarial(5),
        ] {
            let (survived, writes) = run(&policy, &[4, 2, 9]);
            assert_eq!(survived, vec![true, true, true]);
            assert_eq!(writes.len(), 3);
        }
    }

    #[test]
    #[should_panic(expected = "resolved by the Machine")]
    fn broken_amalgam_cannot_resolve_per_element() {
        let _ = ConflictPolicy::BrokenAmalgam.resolve(&[0, 0], 0, |_, _| {});
    }

    #[test]
    fn els_classification_matches_the_docs() {
        assert!(ConflictPolicy::FirstWins.satisfies_els());
        assert!(ConflictPolicy::LastWins.satisfies_els());
        assert!(ConflictPolicy::Arbitrary(1).satisfies_els());
        assert!(ConflictPolicy::Adversarial(1).satisfies_els());
        assert!(!ConflictPolicy::BrokenAmalgam.satisfies_els());
    }

    #[test]
    fn empty_scatter_is_fine() {
        let survived = ConflictPolicy::LastWins.resolve(&[], 0, |_, _| unreachable!());
        assert!(survived.is_empty());
    }
}
