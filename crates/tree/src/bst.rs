//! Multiple insertion into an (unbalanced) binary search tree — §4.3.
//!
//! ## Memory layout
//!
//! A `keys` region holds node keys; a `links` region holds the root slot at
//! offset 0 followed by each node's two child slots (`left(i) = 1 + 2i`,
//! `right(i) = 2 + 2i`), so *every insertion point in the tree is a single
//! word in `links`* — which is exactly what FOL needs as a work area.
//!
//! ## The vectorized algorithm
//!
//! Every pending key tracks `cur`, the `links` slot it must descend through.
//! One vector iteration:
//!
//! 1. gather the slots; keys whose slot holds a node index descend (gather
//!    that node's key, compare, pick the left or right child slot);
//! 2. keys whose slot is [`NIL`] attempt insertion: scatter subscript labels
//!    into the slots, gather back, and winners scatter their node index into
//!    the slot — the slot-as-work-area sharing is safe because the winner
//!    (the only element whose label survived) immediately overwrites the
//!    label with the real pointer;
//! 3. losers keep their `cur` and next iteration descend through the node
//!    the winner just linked.
//!
//! Duplicate keys descend to the right (`key >= node key`), matching the
//! scalar baseline.

use crate::NIL;
use fol_core::error::FolError;
use fol_core::recover::{
    run_transaction, split_retry, with_lane_mask, ExecMode, GroupError, RecoveryError,
    RecoveryReport, RetryPolicy,
};
use fol_vm::{AluOp, CmpOp, Machine, Region, Word};

/// A binary search tree in machine memory.
#[derive(Clone, Copy, Debug)]
pub struct Bst {
    /// Node keys (`keys[i]` is node `i`'s key).
    pub keys: Region,
    /// Root slot at offset 0, then `left(i) = 1 + 2i`, `right(i) = 2 + 2i`.
    pub links: Region,
    /// Nodes allocated so far.
    pub used: usize,
}

impl Bst {
    /// Allocates an empty tree with room for `capacity` nodes.
    pub fn alloc(m: &mut Machine, capacity: usize) -> Self {
        let keys = m.alloc(capacity, "bst.keys");
        let links = m.alloc(1 + 2 * capacity, "bst.links");
        m.vfill(links, NIL);
        Bst {
            keys,
            links,
            used: 0,
        }
    }

    fn reserve(&mut self, n: usize) -> usize {
        let first = self.used;
        assert!(
            first + n <= self.keys.len(),
            "bst arena exhausted: need {n}, used {first}, capacity {}",
            self.keys.len()
        );
        self.used += n;
        first
    }

    /// In-order key traversal (diagnostic, no cycles charged).
    pub fn inorder(&self, m: &Machine) -> Vec<Word> {
        let mut out = Vec::with_capacity(self.used);
        let mut stack = Vec::new();
        let mut cur = m.mem().read(self.links.at(0));
        loop {
            while cur != NIL {
                stack.push(cur);
                cur = m.mem().read(self.links.at(1 + 2 * cur as usize));
            }
            let Some(node) = stack.pop() else { break };
            out.push(m.mem().read(self.keys.at(node as usize)));
            cur = m.mem().read(self.links.at(2 + 2 * node as usize));
            assert!(out.len() <= self.used, "cycle in BST");
        }
        out
    }

    /// True when `key` is present (diagnostic walk).
    pub fn contains(&self, m: &Machine, key: Word) -> bool {
        let mut cur = m.mem().read(self.links.at(0));
        let mut steps = 0;
        while cur != NIL {
            assert!(steps <= self.used, "cycle in BST");
            let k = m.mem().read(self.keys.at(cur as usize));
            if k == key {
                return true;
            }
            let slot = if key < k {
                1 + 2 * cur as usize
            } else {
                2 + 2 * cur as usize
            };
            cur = m.mem().read(self.links.at(slot));
            steps += 1;
        }
        false
    }

    /// Height of the tree (diagnostic; empty tree has height 0).
    pub fn height(&self, m: &Machine) -> usize {
        fn depth(m: &Machine, t: &Bst, node: Word) -> usize {
            if node == NIL {
                return 0;
            }
            let l = depth(m, t, m.mem().read(t.links.at(1 + 2 * node as usize)));
            let r = depth(m, t, m.mem().read(t.links.at(2 + 2 * node as usize)));
            1 + l.max(r)
        }
        depth(m, self, m.mem().read(self.links.at(0)))
    }
}

/// Scalar baseline: insert each key by a sequential root-to-leaf descent.
pub fn scalar_insert_all(m: &mut Machine, tree: &mut Bst, keys: &[Word]) {
    try_scalar_insert_all(m, tree, keys, usize::MAX)
        .expect("scalar_insert_all: wild link in the tree");
}

/// Fallible [`scalar_insert_all`], the transactional `ScalarTail` arm: a
/// link word is checked to be [`NIL`] or a node index before the descent
/// follows it, so fault debris returns [`FolError::TargetOutOfBounds`]
/// instead of an out-of-bounds panic, and each key descends at most
/// `max_steps` nodes, so a cycle returns [`FolError::RoundBudgetExceeded`]
/// instead of spinning forever. The checks are host-side and charge no
/// cycles.
fn try_scalar_insert_all(
    m: &mut Machine,
    tree: &mut Bst,
    keys: &[Word],
    max_steps: usize,
) -> Result<(), FolError> {
    let first = tree.reserve(keys.len());
    let limit = tree.used as Word; // valid node indices are 0..limit
    for (i, &key) in keys.iter().enumerate() {
        let node = (first + i) as Word;
        m.s_write(tree.keys.at(node as usize), key);
        // Descend from the root slot.
        let mut slot = 0usize;
        let mut steps = 0usize;
        loop {
            let v = m.s_read(tree.links.at(slot));
            m.s_cmp(1);
            m.s_branch(1);
            if v == NIL {
                m.s_write(tree.links.at(slot), node);
                break;
            }
            if !(0..limit).contains(&v) {
                return Err(FolError::TargetOutOfBounds {
                    round: None,
                    position: i,
                    target: v,
                    domain: limit as usize,
                });
            }
            if steps == max_steps {
                return Err(FolError::RoundBudgetExceeded {
                    budget: max_steps,
                    live: keys.len() - i,
                    completed_rounds: i,
                });
            }
            steps += 1;
            let k = m.s_read(tree.keys.at(v as usize));
            m.s_cmp(1);
            slot = if key < k {
                1 + 2 * v as usize
            } else {
                2 + 2 * v as usize
            };
        }
    }
    Ok(())
}

/// Report from a vectorized multi-insert.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BstReport {
    /// Lock-step vector iterations (descents + insertion attempts).
    pub iterations: usize,
    /// Insertion attempts that lost the FOL label check and retried.
    pub retries: u64,
}

/// Vectorized multiple insertion (the Fig 14 experiment's subject):
/// [`try_vectorized_insert_all`] under the iteration budget
/// [`txn_insert_all`] gives it, panicking where it returns an error.
///
/// ```
/// use fol_vm::{Machine, CostModel};
/// use fol_tree::bst::{Bst, vectorized_insert_all};
///
/// let mut m = Machine::new(CostModel::s810());
/// let mut tree = Bst::alloc(&mut m, 8);
/// vectorized_insert_all(&mut m, &mut tree, &[50, 20, 70, 20]);
/// assert_eq!(tree.inorder(&m), vec![20, 20, 50, 70]);
/// assert!(tree.contains(&m, 70));
/// ```
///
/// # Panics
/// Panics if the arena cannot hold `keys.len()` more nodes, or with the
/// typed [`FolError`] when a faulty scatter path breaks a guard.
pub fn vectorized_insert_all(m: &mut Machine, tree: &mut Bst, keys: &[Word]) -> BstReport {
    let budget = default_budget(tree, keys);
    try_vectorized_insert_all(m, tree, keys, budget).unwrap_or_else(|e| panic!("{e}"))
}

/// The iteration budget [`txn_insert_all`] and [`vectorized_insert_all`]
/// hand to the fallible loops: a key descends at most one level per
/// iteration and loses at most one insertion attempt per level, so no
/// healthy run needs more.
fn default_budget(tree: &Bst, keys: &[Word]) -> usize {
    2 * (tree.used + keys.len()) + 4
}

/// Vectorized multiple insertion, the loop every vector rung of
/// [`txn_insert_all`] runs. The lock-step loop is bounded by
/// `max_iterations` and every gathered link is checked to be [`NIL`] or a
/// valid node index before anything descends through it. Under ELS neither
/// guard can fire (every insertion round has a winner, Theorem 1, and slots
/// only ever hold real pointers); under injected scatter faults a torn
/// label amalgam or an orphaned label surfaces as a typed error instead of
/// a wild gather or a livelock.
pub fn try_vectorized_insert_all(
    m: &mut Machine,
    tree: &mut Bst,
    keys: &[Word],
    max_iterations: usize,
) -> Result<BstReport, FolError> {
    if keys.is_empty() {
        return Ok(BstReport::default());
    }
    let first = tree.reserve(keys.len());
    let n = keys.len();
    let limit = (first + n) as Word; // valid node indices are 0..limit

    // Write the new nodes' keys (conflict-free scatter).
    let key_v = m.vimm(keys);
    let idx = m.iota(first as Word, n);
    m.scatter(tree.keys, &idx, &key_v);

    // Pending keys: (key, node index, current links slot, label).
    let mut keyv = key_v;
    let mut node = idx;
    let mut cur = m.vsplat(0, n); // everyone starts at the root slot
    let mut label = m.iota(0, n);
    let mut report = BstReport::default();

    while !keyv.is_empty() {
        if report.iterations == max_iterations {
            return Err(FolError::RoundBudgetExceeded {
                budget: max_iterations,
                live: keyv.len(),
                completed_rounds: report.iterations,
            });
        }
        report.iterations += 1;
        let val = m.gather(tree.links, &cur);
        // A slot must hold NIL or a node index; anything else is fault
        // debris (e.g. a torn label amalgam) that a descent would chase.
        for (i, v) in val.iter().enumerate() {
            if v != NIL && !(0..limit).contains(&v) {
                return Err(FolError::TargetOutOfBounds {
                    round: Some(report.iterations - 1),
                    position: i,
                    target: v,
                    domain: limit as usize,
                });
            }
        }
        let at_nil = m.vcmp_s(CmpOp::Eq, &val, NIL);
        let descending = m.mask_not(&at_nil);

        // --- Insertion attempts (slots at NIL) ---
        let ins_cur = m.compress(&cur, &at_nil);
        let ins_node = m.compress(&node, &at_nil);
        let ins_label = m.compress(&label, &at_nil);
        let ins_key = m.compress(&keyv, &at_nil);
        // Register the label round with the ELS auditor. The slot may read
        // back as any competing label *or* as the NIL it held before the
        // scatter — a dropped write is survivable (the loser simply retries
        // next iteration) — while an amalgam or phantom label (labels are
        // node indices, never negative) is flagged.
        if m.els_auditor().is_some() {
            let nil_v = m.vsplat(NIL, ins_cur.len());
            let note_idx = m.vconcat(&ins_cur, &ins_cur);
            let note_vals = m.vconcat(&ins_label, &nil_v);
            m.audit_note_scatter(tree.links, &note_idx, &note_vals);
        }
        // FOL on the slot itself: scatter labels, read back, compare. The
        // winner's label survives and is immediately overwritten with the
        // real node pointer, so every labelled slot ends the iteration
        // holding a valid pointer again.
        m.scatter(tree.links, &ins_cur, &ins_label);
        let got = m.gather(tree.links, &ins_cur);
        m.audit_check_gather(tree.links, &ins_cur, &got)
            .map_err(FolError::from)?;
        let won = m.vcmp(CmpOp::Eq, &got, &ins_label);
        let win_cur = m.compress(&ins_cur, &won);
        let win_node = m.compress(&ins_node, &won);
        m.scatter(tree.links, &win_cur, &win_node);
        report.retries += (ins_cur.len() - win_cur.len()) as u64;
        if !ins_cur.is_empty() && win_cur.is_empty() && m.count_true(&descending) == 0 {
            return Err(FolError::NoSurvivors {
                iteration: report.iterations - 1,
                live: keyv.len(),
            });
        }
        // Losers retry the same slot next iteration (it now holds the
        // winner's node, so they will descend through it).
        let lost = m.mask_not(&won);
        let lose_cur = m.compress(&ins_cur, &lost);
        let lose_node = m.compress(&ins_node, &lost);
        let lose_label = m.compress(&ins_label, &lost);
        let lose_key = m.compress(&ins_key, &lost);

        // --- Descent steps (slots holding a node index) ---
        // next slot = 1 + 2*child + (key >= child key ? 1 : 0)
        let desc_val = m.compress(&val, &descending);
        let desc_key = m.compress(&keyv, &descending);
        let desc_node = m.compress(&node, &descending);
        let desc_label = m.compress(&label, &descending);
        let child_keys = m.gather(tree.keys, &desc_val);
        let go_right = m.vcmp(CmpOp::Ge, &desc_key, &child_keys);
        let base = m.valu_s(AluOp::Mul, &desc_val, 2);
        let left_slot = m.valu_s(AluOp::Add, &base, 1);
        let right_slot = m.valu_s(AluOp::Add, &base, 2);
        let new_cur_desc = m.select(&go_right, &right_slot, &left_slot);

        // --- Merge: descending keys plus insertion losers stay pending ---
        keyv = m.vconcat(&desc_key, &lose_key);
        node = m.vconcat(&desc_node, &lose_node);
        cur = m.vconcat(&new_cur_desc, &lose_cur);
        label = m.vconcat(&desc_label, &lose_label);
    }
    Ok(report)
}

/// Like [`Bst::inorder`] but refuses to panic on a corrupted tree: a wild
/// node index or a cycle returns `None`. The transactional post-condition
/// reader — a torn amalgam may have left an arbitrary word in a link slot.
fn checked_inorder(m: &Machine, tree: &Bst) -> Option<Vec<Word>> {
    let mut out = Vec::with_capacity(tree.used);
    let mut stack = Vec::new();
    let mut cur = m.mem().read(tree.links.at(0));
    loop {
        while cur != NIL {
            if cur < 0 || cur as usize >= tree.used || stack.len() + out.len() > tree.used {
                return None;
            }
            stack.push(cur);
            cur = m.mem().read(tree.links.at(1 + 2 * cur as usize));
        }
        let Some(node) = stack.pop() else { break };
        out.push(m.mem().read(tree.keys.at(node as usize)));
        if out.len() > tree.used {
            return None;
        }
        cur = m.mem().read(tree.links.at(2 + 2 * node as usize));
    }
    Some(out)
}

/// Transactional multiple insertion: every attempt runs inside a machine
/// transaction and the finished tree must read back in order as the old
/// contents plus `keys`, sorted — which simultaneously proves the multiset
/// is exact and the search-tree property holds. A failed attempt rolls
/// back byte-exact (including the node allocator) and escalates along the
/// [`RetryPolicy`] ladder: `Vector` → `DegradedVector` (the same loop with
/// quarantined lanes masked out) → `ScalarTail` ([`scalar_insert_all`],
/// immune to every scatter fault, under the same link checks and step
/// budget as the vector rungs).
///
/// # Panics
/// Panics if the arena cannot hold `keys.len()` more nodes (checked before
/// the transaction opens) or if a transaction is already open on `m`.
pub fn txn_insert_all(
    m: &mut Machine,
    tree: &mut Bst,
    keys: &[Word],
    policy: &RetryPolicy,
) -> Result<(BstReport, RecoveryReport), RecoveryError> {
    assert!(
        tree.used + keys.len() <= tree.keys.len(),
        "bst arena exhausted: need {}, used {}, capacity {}",
        keys.len(),
        tree.used,
        tree.keys.len()
    );
    // Checksum-track the tree's backing storage: link or key words decayed
    // by bit-rot are caught by the supervisor's scrub instead of surfacing
    // later as a silently corrupt tree.
    m.track_region(tree.links);
    m.track_region(tree.keys);
    let mut expected = tree.inorder(m);
    expected.extend_from_slice(keys);
    expected.sort_unstable();

    let saved_used = tree.used;
    let budget = default_budget(tree, keys);
    let result = run_transaction(m, policy, |m, mode| {
        tree.used = saved_used;
        let report = match mode {
            ExecMode::Vector => try_vectorized_insert_all(m, tree, keys, budget)?,
            ExecMode::DegradedVector { quarantined } | ExecMode::VerifiedReplay { quarantined } => {
                with_lane_mask(m, quarantined, |m| {
                    try_vectorized_insert_all(m, tree, keys, budget)
                })?
            }
            ExecMode::ForcedSequential | ExecMode::ScalarTail => {
                try_scalar_insert_all(m, tree, keys, budget)?;
                BstReport::default()
            }
        };
        if checked_inorder(m, tree).as_ref() != Some(&expected) {
            return Err(FolError::PostConditionFailed {
                what: "bst inorder contents",
            });
        }
        Ok(report)
    });
    if result.is_err() {
        tree.used = saved_used;
    }
    result
}

/// Coalesced multi-request insertion with per-group outcomes: each element
/// of `groups` is one caller's independent key batch (duplicates are legal,
/// both within and across groups — a BST stores multisets), and the whole
/// admitted set enters by **one** [`txn_insert_all`] transaction over the
/// concatenated keys.
///
/// Admission is greedy and host-side: a group whose keys would overflow the
/// node arena is refused with [`GroupError::Rejected`] before any
/// transaction opens (later, smaller groups may still fit). If the coalesced
/// transaction fails, [`split_retry`] bisects the admitted groups so each
/// group succeeds or fails on its own merits.
///
/// Returns one outcome per input group, in order; an `Ok` carries the
/// [`BstReport`] of the (possibly shared) transaction that landed the group.
pub fn txn_insert_groups(
    m: &mut Machine,
    tree: &mut Bst,
    groups: &[Vec<Word>],
    policy: &RetryPolicy,
) -> Vec<Result<BstReport, GroupError>> {
    let capacity = tree.keys.len();
    let mut admitted: Vec<usize> = Vec::new();
    let mut out: Vec<Option<Result<BstReport, GroupError>>> = vec![None; groups.len()];
    let mut planned = tree.used;
    for (i, g) in groups.iter().enumerate() {
        if planned + g.len() <= capacity {
            planned += g.len();
            admitted.push(i);
        } else {
            out[i] = Some(Err(GroupError::Rejected {
                reason: format!(
                    "bst arena full: group of {} keys, {} of {} nodes already planned",
                    g.len(),
                    planned,
                    capacity
                ),
            }));
        }
    }
    let results = split_retry(&admitted, &mut |idxs: &[usize]| {
        let keys: Vec<Word> = idxs
            .iter()
            .flat_map(|&i| groups[i].iter().copied())
            .collect();
        txn_insert_all(m, tree, &keys, policy).map(|(report, _)| report)
    });
    for (&slot, r) in admitted.iter().zip(results) {
        out[slot] = Some(r.map_err(GroupError::from));
    }
    out.into_iter()
        .map(|o| o.expect("every group has an outcome"))
        .collect()
}

/// Vectorized multiple *search*: every query key descends the tree in
/// lock-step gathers; returns one bool per key. Read-only, so this is plain
/// SIVP (the paper's Fig 2b class) — no FOL needed, but it shares the
/// descent machinery with insertion and serves as its read-side benchmark.
pub fn vectorized_search_all(m: &mut Machine, tree: &Bst, keys: &[Word]) -> Vec<bool> {
    if keys.is_empty() {
        return Vec::new();
    }
    let n = keys.len();
    let mut found = vec![false; n];
    let mut keyv = m.vimm(keys);
    let mut cur = m.vsplat(0, n); // links slots, starting at the root slot
    let mut positions = m.iota(0, n);

    while !keyv.is_empty() {
        let val = m.gather(tree.links, &cur);
        let dead = m.vcmp_s(CmpOp::Eq, &val, NIL);
        let live = m.mask_not(&dead);
        let val = m.compress(&val, &live);
        keyv = m.compress(&keyv, &live);
        positions = m.compress(&positions, &live);
        let _ = cur;
        if keyv.is_empty() {
            break;
        }
        let node_keys = m.gather(tree.keys, &val);
        let hit = m.vcmp(CmpOp::Eq, &keyv, &node_keys);
        for (i, h) in hit.iter().enumerate() {
            if h {
                found[positions.get(i) as usize] = true;
            }
        }
        let miss = m.mask_not(&hit);
        let val = m.compress(&val, &miss);
        keyv = m.compress(&keyv, &miss);
        positions = m.compress(&positions, &miss);
        let node_keys = m.compress(&node_keys, &miss);
        if keyv.is_empty() {
            break;
        }
        // next slot = 1 + 2*node + (key > node key)
        let go_right = m.vcmp(CmpOp::Gt, &keyv, &node_keys);
        let base = m.valu_s(AluOp::Mul, &val, 2);
        let left = m.valu_s(AluOp::Add, &base, 1);
        let right = m.valu_s(AluOp::Add, &base, 2);
        cur = m.select(&go_right, &right, &left);
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use fol_vm::{ConflictPolicy, CostModel};

    fn lcg(seed: &mut u64, m: Word) -> Word {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*seed >> 33) as Word).rem_euclid(m)
    }

    #[test]
    fn scalar_insert_builds_search_tree() {
        let mut m = Machine::new(CostModel::unit());
        let mut t = Bst::alloc(&mut m, 16);
        scalar_insert_all(&mut m, &mut t, &[50, 20, 70, 10, 30, 60, 80]);
        assert_eq!(t.inorder(&m), vec![10, 20, 30, 50, 60, 70, 80]);
        assert!(t.contains(&m, 30));
        assert!(!t.contains(&m, 31));
        assert_eq!(t.height(&m), 3);
    }

    #[test]
    fn scalar_tail_refuses_a_wild_link_typed() {
        // Fault debris in the root slot: the descent must refuse it typed
        // before dereferencing it, not index past the arena.
        let mut m = Machine::new(CostModel::unit());
        let mut t = Bst::alloc(&mut m, 16);
        scalar_insert_all(&mut m, &mut t, &[50, 20, 70]);
        m.mem_mut().write(t.links.at(0), 999);
        let err = try_scalar_insert_all(&mut m, &mut t, &[40], 64).unwrap_err();
        assert!(
            matches!(
                err,
                FolError::TargetOutOfBounds {
                    target: 999,
                    domain: 4,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn scalar_tail_budget_stops_a_cycle() {
        // Node 0 is its own right child: a larger key descends right
        // forever, and the step budget must turn that into a typed error.
        let mut m = Machine::new(CostModel::unit());
        let mut t = Bst::alloc(&mut m, 16);
        scalar_insert_all(&mut m, &mut t, &[10]);
        m.mem_mut().write(t.links.at(2), 0);
        let err = try_scalar_insert_all(&mut m, &mut t, &[20], 12).unwrap_err();
        assert!(
            matches!(
                err,
                FolError::RoundBudgetExceeded {
                    budget: 12,
                    live: 1,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn vectorized_insert_into_empty_tree() {
        let mut m = Machine::new(CostModel::unit());
        let mut t = Bst::alloc(&mut m, 16);
        let keys = [50, 20, 70, 10, 30, 60, 80];
        let r = vectorized_insert_all(&mut m, &mut t, &keys);
        assert_eq!(t.inorder(&m), vec![10, 20, 30, 50, 60, 70, 80]);
        assert!(r.iterations > 0);
        assert!(
            r.retries > 0,
            "an empty tree maximizes conflicts (paper's remark)"
        );
    }

    #[test]
    fn vectorized_matches_scalar_inorder_all_policies() {
        let mut seed = 5u64;
        let keys: Vec<Word> = (0..200).map(|_| lcg(&mut seed, 10_000)).collect();
        for policy in [
            ConflictPolicy::FirstWins,
            ConflictPolicy::LastWins,
            ConflictPolicy::Arbitrary(17),
        ] {
            let mut m = Machine::with_policy(CostModel::unit(), policy.clone());
            let mut t = Bst::alloc(&mut m, 256);
            let _ = vectorized_insert_all(&mut m, &mut t, &keys);
            let mut expect = keys.clone();
            expect.sort_unstable();
            assert_eq!(t.inorder(&m), expect, "{policy:?}");
        }
    }

    #[test]
    fn duplicates_all_enter() {
        let mut m = Machine::new(CostModel::unit());
        let mut t = Bst::alloc(&mut m, 8);
        let _ = vectorized_insert_all(&mut m, &mut t, &[5, 5, 5, 5]);
        assert_eq!(t.inorder(&m), vec![5, 5, 5, 5]);
    }

    #[test]
    fn incremental_batches() {
        let mut m = Machine::new(CostModel::unit());
        let mut t = Bst::alloc(&mut m, 32);
        let _ = vectorized_insert_all(&mut m, &mut t, &[10, 5]);
        let _ = vectorized_insert_all(&mut m, &mut t, &[7, 12, 1]);
        scalar_insert_all(&mut m, &mut t, &[6]);
        assert_eq!(t.inorder(&m), vec![1, 5, 6, 7, 10, 12]);
    }

    #[test]
    fn empty_insert_noop() {
        let mut m = Machine::new(CostModel::unit());
        let mut t = Bst::alloc(&mut m, 4);
        let r = vectorized_insert_all(&mut m, &mut t, &[]);
        assert_eq!(r, BstReport::default());
        assert!(t.inorder(&m).is_empty());
    }

    #[test]
    #[should_panic(expected = "arena exhausted")]
    fn capacity_overflow_panics() {
        let mut m = Machine::new(CostModel::unit());
        let mut t = Bst::alloc(&mut m, 2);
        let _ = vectorized_insert_all(&mut m, &mut t, &[1, 2, 3]);
    }

    #[test]
    fn vectorized_search_finds_and_rejects() {
        let mut m = Machine::new(CostModel::unit());
        let mut t = Bst::alloc(&mut m, 64);
        let keys: Vec<Word> = (0..50).map(|i| i * 7 + 1).collect();
        let _ = vectorized_insert_all(&mut m, &mut t, &keys);
        let queries: Vec<Word> = keys.iter().copied().chain([0, 2, 1000]).collect();
        let found = vectorized_search_all(&mut m, &t, &queries);
        assert!(found[..50].iter().all(|&f| f));
        assert!(found[50..].iter().all(|&f| !f));
        // Agreement with the host walk.
        for (i, &q) in queries.iter().enumerate() {
            assert_eq!(found[i], t.contains(&m, q), "query {q}");
        }
    }

    #[test]
    fn search_empty_tree_and_empty_queries() {
        let mut m = Machine::new(CostModel::unit());
        let t = Bst::alloc(&mut m, 4);
        assert!(vectorized_search_all(&mut m, &t, &[]).is_empty());
        assert_eq!(vectorized_search_all(&mut m, &t, &[5]), vec![false]);
    }

    #[test]
    fn search_with_duplicate_queries() {
        let mut m = Machine::new(CostModel::unit());
        let mut t = Bst::alloc(&mut m, 8);
        let _ = vectorized_insert_all(&mut m, &mut t, &[10, 5, 15]);
        let found = vectorized_search_all(&mut m, &t, &[5, 5, 6, 6]);
        assert_eq!(found, vec![true, true, false, false]);
    }

    #[test]
    fn try_insert_turns_total_lane_loss_into_a_typed_error() {
        let mut m = Machine::new(CostModel::unit());
        m.set_fault_plan(Some(fol_vm::FaultPlan::dropped_lanes(3, 65535)));
        let mut t = Bst::alloc(&mut m, 8);
        let err = try_vectorized_insert_all(&mut m, &mut t, &[5, 2, 9], 30).unwrap_err();
        assert!(matches!(
            err,
            FolError::NoSurvivors { .. }
                | FolError::RoundBudgetExceeded { .. }
                | FolError::TargetOutOfBounds { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "ELS guarantee (Theorem 1) violated")]
    fn vectorized_insert_inherits_the_survivor_guard() {
        // Near-total lane drops: no label lands in the root slot, so the
        // first insertion attempt has no winner. The paper's entry point
        // stops there instead of repeating it until a lane happens to land.
        let mut m = Machine::new(CostModel::unit());
        m.set_fault_plan(Some(fol_vm::FaultPlan::dropped_lanes(7, 65535)));
        let mut t = Bst::alloc(&mut m, 8);
        let _ = vectorized_insert_all(&mut m, &mut t, &[1, 2, 3]);
    }

    #[test]
    fn txn_insert_clean_run_is_one_attempt() {
        let mut seed = 11u64;
        let keys: Vec<Word> = (0..60).map(|_| lcg(&mut seed, 500)).collect();
        let mut m = Machine::new(CostModel::unit());
        let mut t = Bst::alloc(&mut m, 64);
        let (report, rec) =
            txn_insert_all(&mut m, &mut t, &keys, &RetryPolicy::default()).expect("clean run");
        assert_eq!(rec.attempts, 1);
        assert!(report.iterations > 0);
        let mut expect = keys;
        expect.sort_unstable();
        assert_eq!(t.inorder(&m), expect);
    }

    #[test]
    fn txn_insert_recovers_from_hostile_scatter_faults() {
        let mut seed = 23u64;
        let keys: Vec<Word> = (0..32).map(|_| lcg(&mut seed, 100)).collect();
        let mut m = Machine::new(CostModel::unit());
        m.set_fault_plan(Some(
            fol_vm::FaultPlan::dropped_lanes(19, 30000)
                .with_torn_writes(30000, fol_vm::AmalgamMode::Xor),
        ));
        let mut t = Bst::alloc(&mut m, 40);
        let (_, rec) =
            txn_insert_all(&mut m, &mut t, &keys, &RetryPolicy::default()).expect("ladder rescues");
        assert!(rec.recovered());
        let mut expect = keys;
        expect.sort_unstable();
        assert_eq!(t.inorder(&m), expect, "a search tree with exact contents");
        assert_eq!(t.used, expect.len());
    }

    #[test]
    fn txn_insert_exhaustion_rolls_everything_back() {
        let mut m = Machine::new(CostModel::unit());
        let mut t = Bst::alloc(&mut m, 16);
        scalar_insert_all(&mut m, &mut t, &[40, 10, 90]);
        let before = t.inorder(&m);

        m.set_fault_plan(Some(fol_vm::FaultPlan::dropped_lanes(6, 65535)));
        let mut policy = RetryPolicy::vector_only(2);
        policy.reseed = false;
        let err = txn_insert_all(&mut m, &mut t, &[1, 2], &policy).unwrap_err();
        assert_eq!(err.report().attempts, 2);
        assert_eq!(t.inorder(&m), before, "rollback restored the tree");
        assert_eq!(t.used, 3, "rollback restored the allocator");
        assert!(!m.in_txn());
    }

    #[test]
    fn txn_insert_groups_coalesces_and_reports_per_group() {
        let mut m = Machine::new(CostModel::unit());
        let mut t = Bst::alloc(&mut m, 32);
        // Duplicates within and across groups are legal in a BST.
        let groups: Vec<Vec<Word>> = vec![vec![50, 20], vec![20, 70], vec![], vec![10, 30, 60]];
        let outs = txn_insert_groups(&mut m, &mut t, &groups, &RetryPolicy::default());
        assert!(outs.iter().all(Result::is_ok));
        let mut expect: Vec<Word> = groups.into_iter().flatten().collect();
        expect.sort_unstable();
        assert_eq!(t.inorder(&m), expect);
        assert_eq!(t.used, expect.len());
    }

    #[test]
    fn txn_insert_groups_rejects_overflow_but_admits_smaller_siblings() {
        let mut m = Machine::new(CostModel::unit());
        let mut t = Bst::alloc(&mut m, 4);
        scalar_insert_all(&mut m, &mut t, &[40]);
        let groups: Vec<Vec<Word>> = vec![vec![1, 2], vec![3, 4, 5], vec![6]];
        let outs = txn_insert_groups(&mut m, &mut t, &groups, &RetryPolicy::default());
        assert!(outs[0].is_ok());
        assert!(
            matches!(&outs[1], Err(GroupError::Rejected { reason }) if reason.contains("arena full"))
        );
        assert!(outs[2].is_ok());
        assert_eq!(t.inorder(&m), vec![1, 2, 6, 40]);
    }

    #[test]
    fn preloaded_tree_speeds_up_vector_insert() {
        // The paper's Fig 14 setup: a pre-populated tree spreads the new
        // keys across many slots, cutting conflicts. Check the modelled
        // acceleration is better with a larger initial tree.
        let accel_with_initial = |ni: usize| -> f64 {
            let mut seed = 42u64;
            let initial: Vec<Word> = (0..ni).map(|_| lcg(&mut seed, 1_000_000)).collect();
            let new_keys: Vec<Word> = (0..300).map(|_| lcg(&mut seed, 1_000_000)).collect();

            let mut ms = Machine::new(CostModel::s810());
            let mut ts = Bst::alloc(&mut ms, ni + 300);
            scalar_insert_all(&mut ms, &mut ts, &initial);
            ms.reset_stats();
            scalar_insert_all(&mut ms, &mut ts, &new_keys);
            let sc = ms.stats().cycles() as f64;

            let mut mv = Machine::new(CostModel::s810());
            let mut tv = Bst::alloc(&mut mv, ni + 300);
            scalar_insert_all(&mut mv, &mut tv, &initial);
            mv.reset_stats();
            let _ = vectorized_insert_all(&mut mv, &mut tv, &new_keys);
            sc / mv.stats().cycles() as f64
        };
        let small = accel_with_initial(8);
        let large = accel_with_initial(2048);
        assert!(
            large > small,
            "bigger initial tree must help: Ni=8 -> {small:.2}, Ni=2048 -> {large:.2}"
        );
        assert!(
            large > 1.0,
            "vector insert should win on a large tree, got {large:.2}"
        );
    }
}
