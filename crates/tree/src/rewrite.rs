//! Parallel operation-tree rewriting with the associative law — §2 & §3.3.
//!
//! The rewrite rule is `X * (Y * Z) → (X * Y) * Z` (Fig 5). One application
//! rewrites **two** nodes — the site `n` and its right child `r` — so finding
//! a safe parallel batch is an FOL\* problem with `L = 2` index vectors
//! (`V1` = sites, `V2` = their right children).
//!
//! Rewriting to normal form repeats: find all applicable sites with vector
//! operations, take the **first** parallel-processable set (later sets are
//! stale once the first is applied — a rewrite consumes its right child as a
//! site), apply it with conflict-free gathers/scatters, and loop. The result
//! is the left-combed tree: every right child a leaf, in-order leaf sequence
//! unchanged.
//!
//! ## Memory layout
//!
//! Struct-of-arrays arena: `tags[i]` ([`LEAF`]/[`OP`]), `lefts[i]`,
//! `rights[i]` (node indices or [`NIL`]), plus a root slot. Leaves carry
//! their symbol in `lefts[i]`.

use crate::NIL;
use fol_core::error::FolError;
use fol_core::fol_star::try_fol_star_first_round;
use fol_core::recover::{
    run_transaction, with_lane_mask, ExecMode, RecoveryError, RecoveryReport, RetryPolicy,
};
use fol_vm::{CmpOp, Machine, Region, VReg, Word};

/// Tag for leaf nodes (symbol stored in `lefts`).
pub const LEAF: Word = 0;
/// Tag for `*` operation nodes.
pub const OP: Word = 1;

/// An operation tree in machine memory (struct-of-arrays arena).
#[derive(Clone, Copy, Debug)]
pub struct OpTree {
    /// Node tags ([`LEAF`] or [`OP`]).
    pub tags: Region,
    /// Left child index, or the symbol value for leaves.
    pub lefts: Region,
    /// Right child index, or [`NIL`] for leaves.
    pub rights: Region,
    /// FOL\* label work area (one slot per node).
    pub work: Region,
    /// One-word region holding the root node index.
    pub root: Region,
    /// Nodes allocated so far.
    pub used: usize,
}

impl OpTree {
    /// Allocates an arena with room for `capacity` nodes.
    pub fn alloc(m: &mut Machine, capacity: usize) -> Self {
        let tags = m.alloc(capacity, "optree.tags");
        let lefts = m.alloc(capacity, "optree.lefts");
        let rights = m.alloc(capacity, "optree.rights");
        let work = m.alloc(capacity, "optree.work");
        let root = m.alloc(1, "optree.root");
        m.mem_mut().write(root.at(0), NIL);
        OpTree {
            tags,
            lefts,
            rights,
            work,
            root,
            used: 0,
        }
    }

    /// Adds a leaf carrying `symbol`; returns its node index.
    pub fn leaf(&mut self, m: &mut Machine, symbol: Word) -> Word {
        self.node(m, LEAF, symbol, NIL)
    }

    /// Adds an `*` node over two existing nodes; returns its node index.
    pub fn op(&mut self, m: &mut Machine, left: Word, right: Word) -> Word {
        self.node(m, OP, left, right)
    }

    fn node(&mut self, m: &mut Machine, tag: Word, left: Word, right: Word) -> Word {
        assert!(self.used < self.tags.len(), "optree arena exhausted");
        let i = self.used;
        self.used += 1;
        m.mem_mut().write(self.tags.at(i), tag);
        m.mem_mut().write(self.lefts.at(i), left);
        m.mem_mut().write(self.rights.at(i), right);
        i as Word
    }

    /// Marks `node` as the tree root.
    pub fn set_root(&mut self, m: &mut Machine, node: Word) {
        m.mem_mut().write(self.root.at(0), node);
    }

    /// Builds a right-combed tree `s0 * (s1 * (… * sk))` from symbols —
    /// the worst case for the rule, needing `k - 1` total applications.
    pub fn right_comb(m: &mut Machine, symbols: &[Word]) -> OpTree {
        assert!(!symbols.is_empty(), "need at least one symbol");
        let mut t = OpTree::alloc(m, 2 * symbols.len());
        let mut node = t.leaf(m, symbols[symbols.len() - 1]);
        for &s in symbols[..symbols.len() - 1].iter().rev() {
            let l = t.leaf(m, s);
            node = t.op(m, l, node);
        }
        t.set_root(m, node);
        t
    }

    /// In-order leaf symbols (diagnostic walk).
    pub fn leaves_inorder(&self, m: &Machine) -> Vec<Word> {
        fn walk(m: &Machine, t: &OpTree, node: Word, out: &mut Vec<Word>, fuel: &mut usize) {
            assert!(*fuel > 0, "cycle or overgrown tree");
            *fuel -= 1;
            if node == NIL {
                return;
            }
            let i = node as usize;
            if m.mem().read(t.tags.at(i)) == LEAF {
                out.push(m.mem().read(t.lefts.at(i)));
            } else {
                walk(m, t, m.mem().read(t.lefts.at(i)), out, fuel);
                walk(m, t, m.mem().read(t.rights.at(i)), out, fuel);
            }
        }
        let mut out = Vec::new();
        let mut fuel = 4 * self.used + 4;
        walk(m, self, m.mem().read(self.root.at(0)), &mut out, &mut fuel);
        out
    }

    /// True when no rule site remains: every `*` node's right child is a
    /// leaf (fully left-combed).
    pub fn is_normal_form(&self, m: &Machine) -> bool {
        (0..self.used).all(|i| {
            if m.mem().read(self.tags.at(i)) != OP {
                return true;
            }
            let r = m.mem().read(self.rights.at(i));
            r != NIL && m.mem().read(self.tags.at(r as usize)) == LEAF
        })
    }

    /// Evaluates the tree under an associative, non-commutative operation
    /// (affine-function composition mod a prime), for equivalence checks:
    /// leaf `s` is the function `x ↦ x + s`, and `a * b` is composition
    /// `a ∘ b` represented as pairs `(scale, offset)` with
    /// `scale = 2^depth`-ish mixing. Concretely each leaf `s` maps to
    /// `(2, s)` and `(p, q) * (r, s) = (p·r, p·s + q) mod M`.
    pub fn eval_affine(&self, m: &Machine) -> (Word, Word) {
        const M: Word = 1_000_000_007;
        fn walk(mach: &Machine, t: &OpTree, node: Word) -> (Word, Word) {
            let i = node as usize;
            if mach.mem().read(t.tags.at(i)) == LEAF {
                (2, mach.mem().read(t.lefts.at(i)).rem_euclid(M))
            } else {
                let (p, q) = walk(mach, t, mach.mem().read(t.lefts.at(i)));
                let (r, s) = walk(mach, t, mach.mem().read(t.rights.at(i)));
                ((p * r) % M, (p * s + q) % M)
            }
        }
        walk(m, self, m.mem().read(self.root.at(0)))
    }
}

/// Finds all applicable sites with vector operations: node indices `n` with
/// `tags[n] = OP` and `tags[rights[n]] = OP`.
///
/// # Panics
/// Panics with the typed [`FolError`] on a right-child index outside the
/// arena, the check [`try_vectorized_rewrite_to_normal_form`] makes on
/// every pass.
pub fn find_sites(m: &mut Machine, t: &OpTree) -> VReg {
    try_find_sites(m, t).unwrap_or_else(|e| panic!("{e}"))
}

/// Finds all applicable sites, the right-child gather guarded: a wild
/// right-child index (fault debris from a torn scatter in an earlier pass)
/// returns a typed error instead of an out-of-bounds gather panic.
fn try_find_sites(m: &mut Machine, t: &OpTree) -> Result<VReg, FolError> {
    if t.used == 0 {
        return Ok(VReg::empty());
    }
    let tags = m.vload(t.tags, 0, t.used);
    let is_op = m.vcmp_s(CmpOp::Eq, &tags, OP);
    let idx = m.iota(0, t.used);
    let ops = m.compress(&idx, &is_op);
    if ops.is_empty() {
        return Ok(VReg::empty());
    }
    let right = m.gather(t.rights, &ops);
    for (i, v) in right.iter().enumerate() {
        if !(0..t.used as Word).contains(&v) {
            return Err(FolError::TargetOutOfBounds {
                round: None,
                position: i,
                target: v,
                domain: t.used,
            });
        }
    }
    let rtags = m.gather(t.tags, &right);
    let site_mask = m.vcmp_s(CmpOp::Eq, &rtags, OP);
    Ok(m.compress(&ops, &site_mask))
}

/// Applies the rewrite at the given (parallel-processable) sites: for each
/// site `n` with right child `r`, `X = lefts[n]`, `Y = lefts[r]`,
/// `Z = rights[r]`, then `r ← (X * Y)` and `n ← r * Z`.
///
/// The right-child gather is re-validated before any dependent gather
/// chases it. The sites themselves were validated when they were found, but
/// a read-side fault (gather flip, stale read, torn gather) can hand this
/// gather a wild index even when memory is intact — that must surface as a
/// typed error, not an out-of-bounds panic.
fn try_apply_sites(m: &mut Machine, t: &OpTree, sites: &VReg) -> Result<(), FolError> {
    let r = m.gather(t.rights, sites);
    for (i, v) in r.iter().enumerate() {
        if !(0..t.used as Word).contains(&v) {
            return Err(FolError::TargetOutOfBounds {
                round: None,
                position: i,
                target: v,
                domain: t.used,
            });
        }
    }
    let x = m.gather(t.lefts, sites);
    let y = m.gather(t.lefts, &r);
    let z = m.gather(t.rights, &r);
    m.scatter(t.lefts, &r, &x);
    m.scatter(t.rights, &r, &y);
    m.scatter(t.lefts, sites, &r);
    m.scatter(t.rights, sites, &z);
    Ok(())
}

/// Report from a rewrite-to-normal-form run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RewriteReport {
    /// Outer passes (site recomputations).
    pub passes: usize,
    /// Total rule applications.
    pub applications: usize,
}

/// Scalar baseline: applies the rule one site at a time until normal form.
pub fn scalar_rewrite_to_normal_form(m: &mut Machine, t: &OpTree) -> RewriteReport {
    try_scalar_rewrite_to_normal_form(m, t, usize::MAX)
        .expect("scalar_rewrite_to_normal_form: wild right-child index")
}

/// Fallible [`scalar_rewrite_to_normal_form`], the transactional
/// `ScalarTail` arm: a right-child word is checked to be a node index
/// before the scan follows it, so fault debris returns
/// [`FolError::TargetOutOfBounds`] instead of an out-of-bounds panic, and
/// at most `max_passes` rewrites run, so a cycle returns
/// [`FolError::RoundBudgetExceeded`] instead of spinning forever. The
/// checks are host-side and charge no cycles.
fn try_scalar_rewrite_to_normal_form(
    m: &mut Machine,
    t: &OpTree,
    max_passes: usize,
) -> Result<RewriteReport, FolError> {
    let mut report = RewriteReport::default();
    loop {
        // Find one site by scanning the arena (charged as a dependent scan).
        let mut site = None;
        for i in 0..t.used {
            let tag = m.s_read(t.tags.at(i));
            m.s_cmp(1);
            m.s_branch(1);
            if tag != OP {
                continue;
            }
            let r = m.s_read(t.rights.at(i));
            if !(0..t.used as Word).contains(&r) {
                return Err(FolError::TargetOutOfBounds {
                    round: None,
                    position: i,
                    target: r,
                    domain: t.used,
                });
            }
            let rtag = m.s_read(t.tags.at(r as usize));
            m.s_cmp(1);
            if rtag == OP {
                site = Some((i as Word, r));
                break;
            }
        }
        let Some((n, r)) = site else {
            return Ok(report);
        };
        if report.passes == max_passes {
            return Err(FolError::RoundBudgetExceeded {
                budget: max_passes,
                live: 1,
                completed_rounds: report.passes,
            });
        }
        report.passes += 1;
        report.applications += 1;
        // X = lefts[n]; Y = lefts[r]; Z = rights[r]
        let x = m.s_read(t.lefts.at(n as usize));
        let y = m.s_read(t.lefts.at(r as usize));
        let z = m.s_read(t.rights.at(r as usize));
        m.s_write(t.lefts.at(r as usize), x);
        m.s_write(t.rights.at(r as usize), y);
        m.s_write(t.lefts.at(n as usize), r);
        m.s_write(t.rights.at(n as usize), z);
    }
}

/// Vectorized rewriting: [`try_vectorized_rewrite_to_normal_form`] under
/// the pass budget [`txn_rewrite_to_normal_form`] gives it, panicking where
/// it returns an error.
pub fn vectorized_rewrite_to_normal_form(m: &mut Machine, t: &OpTree) -> RewriteReport {
    try_vectorized_rewrite_to_normal_form(m, t, default_budget(t)).unwrap_or_else(|e| panic!("{e}"))
}

/// The pass budget [`txn_rewrite_to_normal_form`] and
/// [`vectorized_rewrite_to_normal_form`] hand to the fallible loops: every
/// pass applies at least one rewrite, and each rewrite moves a `*` node onto
/// the left spine for good, so no healthy run comes near it.
fn default_budget(t: &OpTree) -> usize {
    t.used * t.used + 8
}

/// Vectorized rewriting, the loop every vector rung of
/// [`txn_rewrite_to_normal_form`] runs: per pass, find all sites, take
/// FOL\*'s first parallel-processable set (`L = 2`: sites and their right
/// children), and apply it with conflict-free list-vector operations.
///
/// The outer loop is bounded by `max_passes`, wild child indices are caught
/// before any gather chases them, and FOL\*'s "parallel-processable" claim
/// is re-checked (sites and their right children must be pairwise distinct —
/// Lemma 2 for `L = 2`) before the sites are applied, so a fault-fooled
/// detection pass cannot force the conflict-free scatters into a conflict.
/// The checks are host-side and charge no cycles.
pub fn try_vectorized_rewrite_to_normal_form(
    m: &mut Machine,
    t: &OpTree,
    max_passes: usize,
) -> Result<RewriteReport, FolError> {
    rewrite_passes(m, t, max_passes, |m, sites, pass| {
        let rights = m.gather(t.rights, sites);
        // Re-validate after the gather, not just after try_find_sites: a
        // read-side fault (gather flip, stale read, torn gather) can hand
        // back a wild child index even when memory itself is intact, and
        // FOL* would chase it into an out-of-bounds scatter panic.
        for (i, v) in rights.iter().enumerate() {
            if !(0..t.used as Word).contains(&v) {
                return Err(FolError::TargetOutOfBounds {
                    round: None,
                    position: i,
                    target: v,
                    domain: t.used,
                });
            }
        }
        let vs: [Vec<Word>; 2] = [sites.iter().collect(), rights.iter().collect()];
        let safe = try_fol_star_first_round(m, t.work, &vs)?;
        // Re-check disjointness across both index vectors on the host: the
        // rewrite touches site n AND its right child r, so all 2L targets
        // must be distinct for the batch to be parallel-processable.
        let mut touched = Vec::with_capacity(2 * safe.len());
        for &p in &safe {
            touched.push(vs[0][p]);
            touched.push(vs[1][p]);
        }
        touched.sort_unstable();
        if let Some(w) = touched.windows(2).find(|w| w[0] == w[1]) {
            return Err(FolError::DuplicateTargetInRound {
                round: pass,
                target: w[0] as usize,
            });
        }
        Ok(safe.iter().map(|&p| sites.get(p)).collect())
    })
}

/// The pass loop of every rewriting rung but the scalar tail: per pass,
/// find all sites, let `pick` choose the batch to apply (it gets the
/// 0-based pass index), and apply it. At most `max_passes` passes run, so
/// a cycle returns [`FolError::RoundBudgetExceeded`] instead of spinning.
fn rewrite_passes(
    m: &mut Machine,
    t: &OpTree,
    max_passes: usize,
    mut pick: impl FnMut(&mut Machine, &VReg, usize) -> Result<VReg, FolError>,
) -> Result<RewriteReport, FolError> {
    let mut report = RewriteReport::default();
    loop {
        let sites = try_find_sites(m, t)?;
        if sites.is_empty() {
            return Ok(report);
        }
        if report.passes == max_passes {
            return Err(FolError::RoundBudgetExceeded {
                budget: max_passes,
                live: sites.len(),
                completed_rounds: report.passes,
            });
        }
        let batch = pick(m, &sites, report.passes)?;
        report.passes += 1;
        report.applications += batch.len();
        try_apply_sites(m, t, &batch)?;
    }
}

/// One fuel-bounded, bounds-checked walk computing everything the
/// transactional post-condition needs: the in-order leaf symbols, the
/// associative [`OpTree::eval_affine`] value, and whether every *reachable*
/// `*` node's right child is a leaf. Returns `None` on a wild node index or
/// a cycle instead of panicking — the tree may be fault debris.
fn checked_summary(m: &Machine, t: &OpTree) -> Option<(Vec<Word>, (Word, Word), bool)> {
    const M: Word = 1_000_000_007;
    fn walk(
        m: &Machine,
        t: &OpTree,
        node: Word,
        out: &mut Vec<Word>,
        normal: &mut bool,
        fuel: &mut usize,
    ) -> Option<(Word, Word)> {
        if *fuel == 0 || node < 0 || node as usize >= t.used {
            return None;
        }
        *fuel -= 1;
        let i = node as usize;
        if m.mem().read(t.tags.at(i)) == LEAF {
            let s = m.mem().read(t.lefts.at(i));
            out.push(s);
            Some((2, s.rem_euclid(M)))
        } else {
            let right = m.mem().read(t.rights.at(i));
            if right < 0 || right as usize >= t.used {
                return None;
            }
            if m.mem().read(t.tags.at(right as usize)) != LEAF {
                *normal = false;
            }
            let (p, q) = walk(m, t, m.mem().read(t.lefts.at(i)), out, normal, fuel)?;
            let (r, s) = walk(m, t, right, out, normal, fuel)?;
            Some(((p * r) % M, (p * s + q) % M))
        }
    }
    let root = m.mem().read(t.root.at(0));
    if root == NIL {
        return Some((Vec::new(), (NIL, NIL), true));
    }
    let mut out = Vec::new();
    let mut normal = true;
    let mut fuel = 4 * t.used + 4;
    let v = walk(m, t, root, &mut out, &mut normal, &mut fuel)?;
    Some((out, v, normal))
}

/// Transactional rewriting to normal form: every attempt runs inside a
/// machine transaction and the finished tree must be fully left-combed with
/// the in-order leaf sequence and the associative value both unchanged —
/// the §2 correctness contract, checked end-to-end. A failed attempt rolls
/// back byte-exact and escalates along the [`RetryPolicy`] ladder:
/// `Vector` → `ForcedSequential` (one site per pass, so every rewrite
/// scatter is a tear-immune singleton) → `ScalarTail`
/// ([`scalar_rewrite_to_normal_form`], immune to every scatter fault, under
/// the same bounds checks and pass budget as the vector rungs).
///
/// # Panics
/// Panics if a transaction is already open on `m`.
pub fn txn_rewrite_to_normal_form(
    m: &mut Machine,
    t: &OpTree,
    policy: &RetryPolicy,
) -> Result<(RewriteReport, RecoveryReport), RecoveryError> {
    // Checksum-track the arena: a decayed tag/link word is caught by the
    // supervisor's scrub instead of being certified as a rewritten tree.
    m.track_region(t.tags);
    m.track_region(t.lefts);
    m.track_region(t.rights);
    m.track_region(t.root);
    let expected = checked_summary(m, t);
    assert!(
        expected.is_some(),
        "txn_rewrite_to_normal_form: input tree is malformed"
    );
    let (ref leaves0, val0, _) = expected.unwrap();
    let budget = default_budget(t);

    run_transaction(m, policy, |m, mode| {
        let report = match mode {
            ExecMode::Vector => try_vectorized_rewrite_to_normal_form(m, t, budget)?,
            ExecMode::DegradedVector { quarantined } | ExecMode::VerifiedReplay { quarantined } => {
                with_lane_mask(m, quarantined, |m| {
                    try_vectorized_rewrite_to_normal_form(m, t, budget)
                })?
            }
            ExecMode::ForcedSequential => rewrite_passes(m, t, budget, |_, sites, _| {
                Ok([sites.get(0)].into_iter().collect())
            })?,
            ExecMode::ScalarTail => try_scalar_rewrite_to_normal_form(m, t, budget)?,
        };
        match checked_summary(m, t) {
            Some((leaves, val, normal)) if normal && leaves == *leaves0 && val == val0 => {
                Ok(report)
            }
            _ => Err(FolError::PostConditionFailed {
                what: "rewrite normal form",
            }),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fol_core::fol_star::fol_star_first_round;
    use fol_vm::{ConflictPolicy, CostModel};

    #[test]
    fn fig5_tree_single_pass_possibilities() {
        // a * (b * (c * d)): two overlapping sites (n1, n3) sharing n3.
        let mut m = Machine::new(CostModel::unit());
        let t = OpTree::right_comb(&mut m, &[10, 11, 12, 13]);
        let sites = find_sites(&mut m, &t);
        assert_eq!(sites.len(), 2, "n1 and n3 are both sites");
        // FOL* must refuse to run them in one round.
        let rights = m.gather(t.rights, &sites);
        let v1: Vec<Word> = sites.iter().collect();
        let v2: Vec<Word> = rights.iter().collect();
        let safe = fol_star_first_round(&mut m, t.work, &[v1, v2]);
        assert_eq!(safe.len(), 1, "overlapping sites cannot be parallel");
    }

    #[test]
    fn rewrite_reaches_left_comb_scalar() {
        let mut m = Machine::new(CostModel::unit());
        let t = OpTree::right_comb(&mut m, &[1, 2, 3, 4, 5]);
        let before_leaves = t.leaves_inorder(&m);
        let before_val = t.eval_affine(&m);
        let r = scalar_rewrite_to_normal_form(&mut m, &t);
        assert!(t.is_normal_form(&m));
        assert_eq!(
            t.leaves_inorder(&m),
            before_leaves,
            "in-order leaves preserved"
        );
        assert_eq!(t.eval_affine(&m), before_val, "associative value preserved");
        // The minimum is k-2 applications; site-selection order may use
        // more (each application still makes progress toward the comb).
        assert!(r.applications >= 3);
    }

    #[test]
    fn rewrite_reaches_left_comb_vectorized() {
        for policy in [
            ConflictPolicy::FirstWins,
            ConflictPolicy::LastWins,
            ConflictPolicy::Arbitrary(23),
        ] {
            let mut m = Machine::with_policy(CostModel::unit(), policy.clone());
            let t = OpTree::right_comb(&mut m, &[1, 2, 3, 4, 5, 6, 7, 8]);
            let before_leaves = t.leaves_inorder(&m);
            let before_val = t.eval_affine(&m);
            let r = vectorized_rewrite_to_normal_form(&mut m, &t);
            assert!(t.is_normal_form(&m), "{policy:?}");
            assert_eq!(t.leaves_inorder(&m), before_leaves, "{policy:?}");
            assert_eq!(t.eval_affine(&m), before_val, "{policy:?}");
            assert!(r.applications >= 6, "{policy:?}: 8 leaves need at least 6");
        }
    }

    #[test]
    fn scalar_and_vectorized_agree() {
        let symbols: Vec<Word> = (0..40).map(|i| i * 3 + 1).collect();
        let mut ms = Machine::new(CostModel::unit());
        let ts = OpTree::right_comb(&mut ms, &symbols);
        let _ = scalar_rewrite_to_normal_form(&mut ms, &ts);

        let mut mv = Machine::new(CostModel::unit());
        let tv = OpTree::right_comb(&mut mv, &symbols);
        let _ = vectorized_rewrite_to_normal_form(&mut mv, &tv);

        assert_eq!(ts.leaves_inorder(&ms), tv.leaves_inorder(&mv));
        assert_eq!(ts.eval_affine(&ms), tv.eval_affine(&mv));
        assert!(ts.is_normal_form(&ms) && tv.is_normal_form(&mv));
    }

    #[test]
    fn balanced_tree_rewrites_too() {
        // Build ((1*2)*(3*4)) * ((5*6)*(7*8)) by hand.
        let mut m = Machine::new(CostModel::unit());
        let mut t = OpTree::alloc(&mut m, 32);
        let leaves: Vec<Word> = (1..=8).map(|s| t.leaf(&mut m, s)).collect();
        let a = t.op(&mut m, leaves[0], leaves[1]);
        let b = t.op(&mut m, leaves[2], leaves[3]);
        let c = t.op(&mut m, leaves[4], leaves[5]);
        let d = t.op(&mut m, leaves[6], leaves[7]);
        let ab = t.op(&mut m, a, b);
        let cd = t.op(&mut m, c, d);
        let root = t.op(&mut m, ab, cd);
        t.set_root(&mut m, root);

        let before_val = t.eval_affine(&m);
        let _ = vectorized_rewrite_to_normal_form(&mut m, &t);
        assert!(t.is_normal_form(&m));
        assert_eq!(t.leaves_inorder(&m), (1..=8).collect::<Vec<Word>>());
        assert_eq!(t.eval_affine(&m), before_val);
    }

    #[test]
    fn single_leaf_and_single_op_are_normal() {
        let mut m = Machine::new(CostModel::unit());
        let t = OpTree::right_comb(&mut m, &[7]);
        assert!(t.is_normal_form(&m));
        let r = vectorized_rewrite_to_normal_form(&mut m, &t);
        assert_eq!(r.applications, 0);

        let t2 = OpTree::right_comb(&mut m, &[7, 8]);
        assert!(t2.is_normal_form(&m));
    }

    #[test]
    fn scalar_tail_refuses_a_wild_right_child_typed() {
        // Fault debris in a right-child word: the scalar scan must refuse it
        // typed before dereferencing it, not index past the arena.
        let mut m = Machine::new(CostModel::unit());
        let t = OpTree::right_comb(&mut m, &[1, 2, 3, 4, 5]);
        let root = m.mem().read(t.root.at(0)) as usize;
        m.mem_mut().write(t.rights.at(root), 999);
        let err = try_scalar_rewrite_to_normal_form(&mut m, &t, t.used * t.used + 8).unwrap_err();
        assert!(
            matches!(err, FolError::TargetOutOfBounds { target: 999, position, .. } if position == root),
            "{err:?}"
        );
    }

    #[test]
    fn scalar_tail_budget_stops_a_cycle() {
        // A `*` node that is its own right child is a rule site forever:
        // the pass budget must turn the endless rewrite into a typed error.
        let mut m = Machine::new(CostModel::unit());
        let t = OpTree::right_comb(&mut m, &[1, 2, 3, 4, 5]);
        let root = m.mem().read(t.root.at(0));
        m.mem_mut().write(t.rights.at(root as usize), root);
        let budget = t.used * t.used + 8;
        let err = try_scalar_rewrite_to_normal_form(&mut m, &t, budget).unwrap_err();
        assert!(
            matches!(err, FolError::RoundBudgetExceeded { budget: b, completed_rounds, .. } if b == budget && completed_rounds == budget),
            "{err:?}"
        );
    }

    #[test]
    fn try_rewrite_budget_stops_a_faulty_scatter_path() {
        // 100% dropped lanes: no rewrite scatter lands, the site set
        // never shrinks — the budget turns the livelock into a typed error.
        let mut m = Machine::new(CostModel::unit());
        m.set_fault_plan(Some(fol_vm::FaultPlan::dropped_lanes(9, 65535)));
        let t = OpTree::right_comb(&mut m, &[1, 2, 3, 4, 5]);
        let err = try_vectorized_rewrite_to_normal_form(&mut m, &t, 12).unwrap_err();
        assert!(matches!(
            err,
            FolError::RoundBudgetExceeded { budget: 12, .. }
                | FolError::NoSurvivors { .. }
                | FolError::TargetOutOfBounds { .. }
        ));
    }

    #[test]
    fn txn_rewrite_clean_run_is_one_attempt() {
        let symbols: Vec<Word> = (0..16).map(|i| i + 1).collect();
        let mut m = Machine::new(CostModel::unit());
        let t = OpTree::right_comb(&mut m, &symbols);
        let before_leaves = t.leaves_inorder(&m);
        let before_val = t.eval_affine(&m);
        let (report, rec) =
            txn_rewrite_to_normal_form(&mut m, &t, &RetryPolicy::default()).expect("clean run");
        assert_eq!(rec.attempts, 1);
        assert!(report.applications >= symbols.len() - 2);
        assert!(t.is_normal_form(&m));
        assert_eq!(t.leaves_inorder(&m), before_leaves);
        assert_eq!(t.eval_affine(&m), before_val);
    }

    #[test]
    fn txn_rewrite_recovers_from_hostile_scatter_faults() {
        let symbols: Vec<Word> = (0..12).map(|i| i * 7 + 2).collect();
        let mut m = Machine::new(CostModel::unit());
        m.set_fault_plan(Some(
            fol_vm::FaultPlan::dropped_lanes(31, 25000)
                .with_torn_writes(25000, fol_vm::AmalgamMode::Xor),
        ));
        let t = OpTree::right_comb(&mut m, &symbols);
        let before_leaves = t.leaves_inorder(&m);
        let before_val = t.eval_affine(&m);
        let (_, rec) = txn_rewrite_to_normal_form(&mut m, &t, &RetryPolicy::default())
            .expect("ladder rescues");
        assert!(rec.recovered());
        assert!(t.is_normal_form(&m));
        assert_eq!(
            t.leaves_inorder(&m),
            before_leaves,
            "leaf order survives recovery"
        );
        assert_eq!(t.eval_affine(&m), before_val, "value survives recovery");
    }

    #[test]
    fn txn_rewrite_exhaustion_restores_the_tree() {
        let mut m = Machine::new(CostModel::unit());
        let t = OpTree::right_comb(&mut m, &[5, 6, 7, 8]);
        let before_leaves = t.leaves_inorder(&m);
        m.set_fault_plan(Some(fol_vm::FaultPlan::dropped_lanes(2, 65535)));
        let mut policy = RetryPolicy::vector_only(2);
        policy.reseed = false;
        let err = txn_rewrite_to_normal_form(&mut m, &t, &policy).unwrap_err();
        assert_eq!(err.report().attempts, 2);
        assert_eq!(
            t.leaves_inorder(&m),
            before_leaves,
            "rollback restored the tree"
        );
        assert!(!t.is_normal_form(&m), "no partial rewrite survived");
        assert!(!m.in_txn());
    }

    #[test]
    fn vector_version_uses_fewer_passes_on_wide_trees() {
        // A balanced tree has many disjoint sites per pass: the vectorized
        // form should need far fewer passes than total applications.
        let symbols: Vec<Word> = (0..64).collect();
        let mut m = Machine::new(CostModel::unit());
        // Balanced build.
        let mut t = OpTree::alloc(&mut m, 256);
        let mut level: Vec<Word> = symbols.iter().map(|&s| t.leaf(&mut m, s)).collect();
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|c| {
                    if c.len() == 2 {
                        t.op(&mut m, c[0], c[1])
                    } else {
                        c[0]
                    }
                })
                .collect();
        }
        t.set_root(&mut m, level[0]);
        let r = vectorized_rewrite_to_normal_form(&mut m, &t);
        assert!(t.is_normal_form(&m));
        assert!(
            r.passes < r.applications,
            "parallel batches expected: {} passes for {} applications",
            r.passes,
            r.applications
        );
    }
}
