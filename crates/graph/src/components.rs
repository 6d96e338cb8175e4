//! Connected components by vectorized label propagation.
//!
//! A further "symbolic processing" workload in the paper's spirit: find the
//! connected components of an undirected graph with vector operations. Per
//! sweep, every edge proposes the smaller endpoint label to the larger
//! endpoint — a batch of *aliased minimum-updates* (many edges share a
//! vertex), which is exactly the shared-rewriting problem FOL solves:
//! decompose the edge batch by target vertex, run the rounds, repeat until
//! a fixpoint.
//!
//! The scalar baseline is classic label propagation; a host union-find is
//! the oracle in the tests.

use fol_core::decompose::fol1_machine;
use fol_core::error::{FolError, Validation};
use fol_core::recover::{
    decompose_with_mode, run_transaction, with_lane_mask, ExecMode, RecoveryError, RecoveryReport,
    RetryPolicy,
};
use fol_vm::{AluOp, CmpOp, Machine, Region, VReg, Word};

/// An undirected graph staged for component labelling: vertex labels and
/// the FOL work area in machine memory, edges on the host side (the edge
/// list is read-only input; only labels are rewritten).
#[derive(Clone, Debug)]
pub struct Components {
    /// Vertex labels (component representative per vertex after a run).
    pub labels: Region,
    /// FOL label work area (one slot per vertex).
    pub work: Region,
    /// Edge list (unordered vertex pairs).
    pub edges: Vec<(Word, Word)>,
    /// Vertex count.
    pub n: usize,
}

impl Components {
    /// Stages a graph of `n` vertices and the given undirected edges.
    ///
    /// # Panics
    /// Panics when an endpoint is out of range.
    pub fn new(m: &mut Machine, n: usize, edges: &[(Word, Word)]) -> Self {
        assert!(
            edges
                .iter()
                .all(|&(a, b)| (0..n as Word).contains(&a) && (0..n as Word).contains(&b)),
            "edge endpoint out of range"
        );
        let labels = m.alloc(n.max(1), "cc.labels");
        let work = m.alloc(n.max(1), "cc.work");
        Components {
            labels,
            work,
            edges: edges.to_vec(),
            n,
        }
    }

    fn init_labels(&self, m: &mut Machine) {
        let init = m.iota(0, self.n);
        if self.n > 0 {
            m.vstore(self.labels, 0, &init);
        }
    }

    /// Reads the final labelling (diagnostic).
    pub fn labelling(&self, m: &Machine) -> Vec<Word> {
        m.mem()
            .read_region(self.labels)
            .into_iter()
            .take(self.n)
            .collect()
    }
}

/// Scalar label propagation until fixpoint. Returns the number of sweeps.
pub fn scalar_components(m: &mut Machine, g: &Components) -> usize {
    g.init_labels(m);
    let mut sweeps = 0;
    loop {
        sweeps += 1;
        let mut changed = false;
        for &(a, b) in &g.edges {
            let la = m.s_read(g.labels.at(a as usize));
            let lb = m.s_read(g.labels.at(b as usize));
            m.s_cmp(1);
            m.s_branch(1);
            if la < lb {
                m.s_write(g.labels.at(b as usize), la);
                changed = true;
            } else if lb < la {
                m.s_write(g.labels.at(a as usize), lb);
                changed = true;
            }
        }
        if !changed {
            return sweeps;
        }
    }
}

/// Vectorized label propagation: per sweep, both edge directions form one
/// batch of `(target, proposed label)` updates; FOL rounds apply the
/// minimum-updates without losing any. Returns the number of sweeps.
pub fn vectorized_components(m: &mut Machine, g: &Components) -> usize {
    g.init_labels(m);
    if g.edges.is_empty() || g.n == 0 {
        return 0;
    }
    // Both directions: a -> b and b -> a.
    let targets: Vec<Word> = g.edges.iter().flat_map(|&(a, b)| [b, a]).collect();
    let sources: Vec<Word> = g.edges.iter().flat_map(|&(a, b)| [a, b]).collect();
    let src_v = m.vimm(&sources);
    let mut sweeps = 0;

    loop {
        sweeps += 1;
        // Proposed labels = labels[source]; accept where smaller.
        let proposed = m.gather(g.labels, &src_v);
        let tgt_v = m.vimm(&targets);
        let current = m.gather(g.labels, &tgt_v);
        let improving = m.vcmp(CmpOp::Lt, &proposed, &current);
        let n_improving = m.count_true(&improving);
        if n_improving == 0 {
            return sweeps;
        }
        let upd_target = m.compress(&tgt_v, &improving);
        let upd_label = m.compress(&proposed, &improving);

        // Aliased min-updates: decompose by target, then per round
        // gather-min-scatter (conflict-free within a round).
        let tgt_words: Vec<Word> = upd_target.iter().collect();
        let d = fol1_machine(m, g.work, &tgt_words);
        for round in d.iter() {
            let t: VReg = round.iter().map(|&p| upd_target.get(p)).collect();
            let l: VReg = round.iter().map(|&p| upd_label.get(p)).collect();
            let cur = m.gather(g.labels, &t);
            let new = m.valu(AluOp::Min, &cur, &l);
            m.scatter(g.labels, &t, &new);
        }
    }
}

/// Fallible vectorized label propagation under an explicit [`ExecMode`]:
/// the per-sweep decomposition of the aliased min-updates comes from
/// [`decompose_with_mode`] (typed errors instead of panics), and the sweep
/// loop is bounded by `n + 1` sweeps — the minimum-label fixpoint needs at
/// most `n` sweeps on healthy hardware, so exceeding the budget is the
/// typed signature of updates being persistently dropped. `ScalarTail` (and
/// the retired `ForcedSequential`, which runs as it) runs
/// [`scalar_components`], which no scatter fault can touch.
pub fn try_vectorized_components(
    m: &mut Machine,
    g: &Components,
    mode: ExecMode,
    validation: Validation,
) -> Result<usize, FolError> {
    if matches!(mode, ExecMode::ForcedSequential | ExecMode::ScalarTail) {
        return Ok(scalar_components(m, g));
    }
    if let ExecMode::DegradedVector { quarantined } | ExecMode::VerifiedReplay { quarantined } =
        mode
    {
        // The whole sweep — payload gathers and min-update scatters included,
        // not just the decomposition — runs under the reduced-width schedule,
        // so a sticky quarantined lane never sees any of this sweep's writes.
        return with_lane_mask(m, quarantined, |m| propagate_sweeps(m, g, mode, validation));
    }
    propagate_sweeps(m, g, mode, validation)
}

/// The label-propagation sweep loop behind [`try_vectorized_components`],
/// run at whatever lane width the caller has installed.
fn propagate_sweeps(
    m: &mut Machine,
    g: &Components,
    mode: ExecMode,
    validation: Validation,
) -> Result<usize, FolError> {
    g.init_labels(m);
    if g.edges.is_empty() || g.n == 0 {
        return Ok(0);
    }
    let targets: Vec<Word> = g.edges.iter().flat_map(|&(a, b)| [b, a]).collect();
    let sources: Vec<Word> = g.edges.iter().flat_map(|&(a, b)| [a, b]).collect();
    let src_v = m.vimm(&sources);
    let budget = g.n + 1;
    let mut sweeps = 0;

    loop {
        if sweeps == budget {
            return Err(FolError::RoundBudgetExceeded {
                budget,
                live: targets.len(),
                completed_rounds: sweeps,
            });
        }
        sweeps += 1;
        let proposed = m.gather(g.labels, &src_v);
        let tgt_v = m.vimm(&targets);
        let current = m.gather(g.labels, &tgt_v);
        let improving = m.vcmp(CmpOp::Lt, &proposed, &current);
        if m.count_true(&improving) == 0 {
            return Ok(sweeps);
        }
        let upd_target = m.compress(&tgt_v, &improving);
        let upd_label = m.compress(&proposed, &improving);

        let tgt_words: Vec<Word> = upd_target.iter().collect();
        let d = decompose_with_mode(m, g.work, &tgt_words, mode, validation)?;
        for round in d.iter() {
            let t: VReg = round.iter().map(|&p| upd_target.get(p)).collect();
            let l: VReg = round.iter().map(|&p| upd_label.get(p)).collect();
            let cur = m.gather(g.labels, &t);
            let new = m.valu(AluOp::Min, &cur, &l);
            m.scatter(g.labels, &t, &new);
            // Echo the round back: a dropped or torn min-update would
            // otherwise heal on a later sweep (or not at all), hiding a
            // sick lane from the health registry and the escalation
            // ladder.
            let echo = m.gather(g.labels, &t);
            if echo.iter().zip(new.iter()).any(|(a, b)| a != b) {
                return Err(FolError::PostConditionFailed {
                    what: "components min-update write-back",
                });
            }
        }
    }
}

/// Transactional component labelling: every attempt runs inside a machine
/// transaction and the finished labelling must equal the host union-find
/// oracle ([`union_find_components`]) exactly. A failed attempt rolls back
/// byte-exact and escalates along the [`RetryPolicy`] ladder:
/// `Vector` → `DegradedVector` → `ScalarTail`. Returns the sweep count
/// of the winning attempt and the [`RecoveryReport`] audit trail.
///
/// # Panics
/// Panics if a transaction is already open on `m`.
pub fn txn_components(
    m: &mut Machine,
    g: &Components,
    policy: &RetryPolicy,
) -> Result<(usize, RecoveryReport), RecoveryError> {
    // Checksum-track the labelling and the FOL work area: a decayed label
    // word is caught by the supervisor's scrub rather than committed as a
    // finished (and wrong) labelling.
    m.track_region(g.labels);
    m.track_region(g.work);
    let expected = union_find_components(g.n, &g.edges);
    let validation = policy.validation;
    run_transaction(m, policy, |m, mode| {
        let sweeps = try_vectorized_components(m, g, mode, validation)?;
        if g.labelling(m) != expected {
            return Err(FolError::PostConditionFailed {
                what: "components labelling",
            });
        }
        Ok(sweeps)
    })
}

/// Host union-find oracle.
pub fn union_find_components(n: usize, edges: &[(Word, Word)]) -> Vec<Word> {
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    for &(a, b) in edges {
        let (ra, rb) = (find(&mut parent, a as usize), find(&mut parent, b as usize));
        if ra != rb {
            let (lo, hi) = (ra.min(rb), ra.max(rb));
            parent[hi] = lo;
        }
    }
    // Canonicalize: every vertex labelled by its component's minimum vertex.
    let mut min_of = vec![usize::MAX; n];
    for v in 0..n {
        let r = find(&mut parent, v);
        min_of[r] = min_of[r].min(v);
    }
    (0..n)
        .map(|v| min_of[find(&mut parent, v)] as Word)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fol_vm::{ConflictPolicy, CostModel};

    #[test]
    fn two_components() {
        let mut m = Machine::new(CostModel::unit());
        let g = Components::new(&mut m, 6, &[(0, 1), (1, 2), (3, 4)]);
        let _ = vectorized_components(&mut m, &g);
        assert_eq!(g.labelling(&m), vec![0, 0, 0, 3, 3, 5]);
    }

    #[test]
    fn scalar_and_vectorized_match_union_find() {
        let mut seed = 9u64;
        let mut next = move |mo: u64| {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(3);
            ((seed >> 33) % mo) as Word
        };
        for trial in 0..6 {
            let n = 40;
            let edges: Vec<(Word, Word)> =
                (0..50).map(|_| (next(n as u64), next(n as u64))).collect();
            let expect = union_find_components(n, &edges);

            let mut ms = Machine::new(CostModel::unit());
            let gs = Components::new(&mut ms, n, &edges);
            let _ = scalar_components(&mut ms, &gs);
            assert_eq!(gs.labelling(&ms), expect, "scalar trial {trial}");

            for policy in [
                ConflictPolicy::FirstWins,
                ConflictPolicy::LastWins,
                ConflictPolicy::Arbitrary(trial),
            ] {
                let mut mv = Machine::with_policy(CostModel::unit(), policy.clone());
                let gv = Components::new(&mut mv, n, &edges);
                let _ = vectorized_components(&mut mv, &gv);
                assert_eq!(gv.labelling(&mv), expect, "trial {trial} {policy:?}");
            }
        }
    }

    #[test]
    fn chain_needs_multiple_sweeps() {
        // A path graph: labels must flow end to end.
        let n = 17;
        let edges: Vec<(Word, Word)> = (0..n as Word - 1).map(|i| (i, i + 1)).collect();
        let mut m = Machine::new(CostModel::unit());
        let g = Components::new(&mut m, n, &edges);
        let sweeps = vectorized_components(&mut m, &g);
        assert!(sweeps > 1);
        assert!(g.labelling(&m).iter().all(|&l| l == 0));
    }

    #[test]
    fn empty_graph_and_no_edges() {
        let mut m = Machine::new(CostModel::unit());
        let g = Components::new(&mut m, 0, &[]);
        assert_eq!(vectorized_components(&mut m, &g), 0);
        let g = Components::new(&mut m, 3, &[]);
        let _ = vectorized_components(&mut m, &g);
        assert_eq!(g.labelling(&m), vec![0, 1, 2]);
    }

    #[test]
    fn self_loops_and_parallel_edges() {
        let mut m = Machine::new(CostModel::unit());
        let g = Components::new(&mut m, 3, &[(1, 1), (0, 2), (0, 2), (2, 0)]);
        let _ = vectorized_components(&mut m, &g);
        assert_eq!(g.labelling(&m), vec![0, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "endpoint out of range")]
    fn bad_edge_panics() {
        let mut m = Machine::new(CostModel::unit());
        let _ = Components::new(&mut m, 2, &[(0, 5)]);
    }

    #[test]
    fn try_components_matches_infallible_in_every_mode() {
        let edges = [(0, 1), (1, 2), (3, 4), (5, 5), (2, 0)];
        let mut m0 = Machine::new(CostModel::unit());
        let g0 = Components::new(&mut m0, 7, &edges);
        let _ = vectorized_components(&mut m0, &g0);
        let expect = g0.labelling(&m0);
        for mode in [
            ExecMode::Vector,
            ExecMode::DegradedVector {
                quarantined: fol_vm::LaneSet::from_bits(0b1010),
            },
            ExecMode::ScalarTail,
        ] {
            let mut m = Machine::new(CostModel::unit());
            let g = Components::new(&mut m, 7, &edges);
            let sweeps =
                try_vectorized_components(&mut m, &g, mode, Validation::Full).expect("no faults");
            assert!(sweeps >= 1, "{mode:?}");
            assert_eq!(g.labelling(&m), expect, "{mode:?}");
        }
    }

    #[test]
    fn try_components_sweep_budget_stops_dropped_updates() {
        // 100% dropped lanes: every min-update vanishes, the fixpoint never
        // arrives. The sweep budget turns the livelock into a typed error.
        let mut m = Machine::new(CostModel::unit());
        m.set_fault_plan(Some(fol_vm::FaultPlan::dropped_lanes(17, 65535)));
        let g = Components::new(&mut m, 5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let err =
            try_vectorized_components(&mut m, &g, ExecMode::Vector, Validation::Full).unwrap_err();
        assert!(matches!(
            err,
            FolError::RoundBudgetExceeded { .. }
                | FolError::NoSurvivors { .. }
                | FolError::NotMinimal { .. }
        ));
    }

    #[test]
    fn txn_components_clean_run_is_one_attempt() {
        let edges: Vec<(Word, Word)> = (0..20).map(|i| (i, (i * 7 + 3) % 25)).collect();
        let mut m = Machine::new(CostModel::unit());
        let g = Components::new(&mut m, 25, &edges);
        let (sweeps, rec) = txn_components(&mut m, &g, &RetryPolicy::default()).expect("clean run");
        assert_eq!(rec.attempts, 1);
        assert!(sweeps >= 1);
        assert_eq!(g.labelling(&m), union_find_components(25, &edges));
    }

    #[test]
    fn txn_components_recovers_from_hostile_scatter_faults() {
        let edges: Vec<(Word, Word)> = (0..30).map(|i| (i % 18, (i * 5 + 1) % 18)).collect();
        let mut m = Machine::new(CostModel::unit());
        m.set_fault_plan(Some(
            fol_vm::FaultPlan::dropped_lanes(29, 25000)
                .with_torn_writes(25000, fol_vm::AmalgamMode::Or),
        ));
        let g = Components::new(&mut m, 18, &edges);
        let (_, rec) = txn_components(&mut m, &g, &RetryPolicy::default()).expect("ladder rescues");
        assert!(rec.recovered());
        assert_eq!(
            g.labelling(&m),
            union_find_components(18, &edges),
            "labelling exact despite ELS violations"
        );
    }

    #[test]
    fn txn_components_exhaustion_rolls_the_labels_back() {
        let mut m = Machine::new(CostModel::unit());
        let g = Components::new(&mut m, 4, &[(0, 1), (2, 3)]);
        // Pre-existing labels from a clean run.
        let _ = vectorized_components(&mut m, &g);
        let before = g.labelling(&m);

        m.set_fault_plan(Some(fol_vm::FaultPlan::dropped_lanes(12, 65535)));
        let mut policy = RetryPolicy::vector_only(2);
        policy.reseed = false;
        let err = txn_components(&mut m, &g, &policy).unwrap_err();
        assert_eq!(err.report().attempts, 2);
        assert_eq!(g.labelling(&m), before, "rollback restored the labelling");
        assert!(!m.in_txn());
    }
}
