//! Chaining multiple hashing — the paper's §3.1 walkthrough (Fig 7).
//!
//! Entered keys live in an arena of two-word nodes `[key, next]` chained
//! from the table's head slots. Unlike open addressing, the main processing
//! here *reads* the old head (to link the new node in front of it), so the
//! label work area cannot share storage with the heads: each table entry has
//! a dedicated work slot, exactly as Fig 7 draws it ("work areas for
//! labels" beside the entries).
//!
//! One FOL round then is: scatter subscript labels into the work slots
//! through the hashed values, gather back, and the surviving keys link their
//! nodes with three conflict-free list-vector operations (gather old heads,
//! scatter them into the nodes' `next` fields, scatter node pointers into
//! the heads).

use crate::hash_mod;
use fol_core::error::{FolError, Validation};
use fol_core::ordered::try_fol1_machine_ordered;
use fol_core::recover::{
    decompose_with_mode, run_transaction, split_retry, with_lane_mask, ExecMode, GroupError,
    RecoveryError, RecoveryReport, RetryPolicy,
};
use fol_core::Decomposition;
use fol_vm::{AluOp, CmpOp, Machine, Region, VReg, Word};
use std::collections::HashMap;

/// Nil chain pointer.
pub const NIL: Word = -1;

/// A chaining hash table in machine memory: `heads` (one word per bucket,
/// `NIL`-initialized), a parallel `work` area for FOL labels, and a node
/// `arena` (two words per node: key at even offset, next at odd offset).
#[derive(Clone, Copy, Debug)]
pub struct ChainTable {
    /// Bucket head pointers (arena word offsets, or [`NIL`]).
    pub heads: Region,
    /// FOL label work area, one slot per bucket.
    pub work: Region,
    /// Node storage.
    pub arena: Region,
    /// Nodes already allocated from the arena.
    pub used_nodes: usize,
}

impl ChainTable {
    /// Allocates a table of `buckets` buckets with room for `capacity` nodes.
    pub fn alloc(m: &mut Machine, buckets: usize, capacity: usize) -> Self {
        let heads = m.alloc(buckets, "chain.heads");
        let work = m.alloc(buckets, "chain.work");
        let arena = m.alloc(2 * capacity, "chain.arena");
        m.vfill(heads, NIL);
        ChainTable {
            heads,
            work,
            arena,
            used_nodes: 0,
        }
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.heads.len()
    }

    /// Reads the chains out of machine memory: `chains()[b]` is bucket `b`'s
    /// key list from chain head to tail. Diagnostic (no cycles charged).
    ///
    /// # Panics
    /// Panics if a chain is longer than the arena (a cycle).
    pub fn chains(&self, m: &Machine) -> Vec<Vec<Word>> {
        (0..self.buckets())
            .map(|b| {
                let mut out = Vec::new();
                let mut p = m.mem().read(self.heads.at(b));
                let mut steps = 0;
                while p != NIL {
                    assert!(steps <= self.arena.len(), "cycle in chain {b}");
                    let off = p as usize;
                    out.push(m.mem().read(self.arena.at(off)));
                    p = m.mem().read(self.arena.at(off + 1));
                    steps += 1;
                }
                out
            })
            .collect()
    }

    /// True when `key` is in its bucket's chain.
    pub fn contains(&self, m: &Machine, key: Word) -> bool {
        let b = hash_mod(key, self.buckets() as Word) as usize;
        let mut p = m.mem().read(self.heads.at(b));
        let mut steps = 0;
        while p != NIL {
            assert!(steps <= self.arena.len(), "cycle in chain {b}");
            let off = p as usize;
            if m.mem().read(self.arena.at(off)) == key {
                return true;
            }
            p = m.mem().read(self.arena.at(off + 1));
            steps += 1;
        }
        false
    }

    fn reserve(&mut self, n: usize) -> usize {
        let first = self.used_nodes;
        assert!(
            2 * (first + n) <= self.arena.len(),
            "arena exhausted: need {n} more nodes, used {first}, capacity {}",
            self.arena.len() / 2
        );
        self.used_nodes += n;
        first
    }

    /// The prologue of every vector insert: reserves a node per key and
    /// fills the nodes' key fields, returning the keys' hashed buckets,
    /// their node pointers and their positions — all conflict-free vector
    /// work.
    fn stage_nodes(&mut self, m: &mut Machine, keys: &[Word]) -> (VReg, VReg, VReg) {
        let first = self.reserve(keys.len());
        let key_v = m.vimm(keys);
        let hv = m.valu_s(AluOp::Mod, &key_v, self.buckets() as Word);
        let positions = m.iota(0, keys.len());
        let offs = m.valu_s(AluOp::Add, &positions, first as Word);
        let node_ptr = m.valu_s(AluOp::Mul, &offs, 2);
        m.scatter(self.arena, &node_ptr, &key_v);
        (hv, node_ptr, positions)
    }

    /// Main processing for one round: links the nodes `ptr_s` in front of
    /// the old heads of the buckets `hv_s`. Within a round the buckets are
    /// distinct, so all three list-vector ops are conflict-free.
    fn link_front(&self, m: &mut Machine, hv_s: &VReg, ptr_s: &VReg) {
        let old_heads = m.gather(self.heads, hv_s);
        let next_field = m.valu_s(AluOp::Add, ptr_s, 1);
        m.scatter(self.arena, &next_field, &old_heads);
        m.scatter(self.heads, hv_s, ptr_s);
    }
}

/// Scalar baseline: insert keys one at a time (Fig 4a's sequential order:
/// each new key becomes the head of its chain).
pub fn scalar_insert_all(m: &mut Machine, table: &mut ChainTable, keys: &[Word]) {
    let first = table.reserve(keys.len());
    let buckets = table.buckets() as Word;
    for (i, &key) in keys.iter().enumerate() {
        let node_off = (2 * (first + i)) as Word;
        m.s_alu(1); // hash
        let b = hash_mod(key, buckets) as usize;
        // node.key := key ; node.next := head ; head := node
        m.s_write(table.arena.at(node_off as usize), key);
        let head = m.s_read(table.heads.at(b));
        m.s_write(table.arena.at(node_off as usize + 1), head);
        m.s_write(table.heads.at(b), node_off);
        m.s_branch(1);
    }
}

/// Vectorized insertion by FOL1 (Fig 7): [`try_vectorized_insert_all`],
/// panicking where it returns an error. Returns the number of FOL rounds.
///
/// # Panics
/// Panics if the arena cannot hold `keys.len()` more nodes, or with the
/// typed [`FolError`] when a faulty scatter path breaks Theorem 1 or 6.
pub fn vectorized_insert_all(m: &mut Machine, table: &mut ChainTable, keys: &[Word]) -> usize {
    try_vectorized_insert_all(m, table, keys).unwrap_or_else(|e| panic!("{e}"))
}

/// Vectorized insertion by FOL1 (Fig 7), the loop every vector rung of
/// [`txn_insert_all`] runs. Returns the number of FOL rounds.
///
/// The loop is bounded by `keys.len()` rounds (the worst legal case,
/// Theorem 6) and every detection pass must leave a survivor (Theorem 1),
/// so under ELS-violating hardware ([`fol_vm::fault`]) it returns a typed
/// error instead of spinning or silently dropping keys. Neither guard
/// charges a cycle: the survivor test reads the compress the round does
/// anyway.
///
/// Rounds already executed stay applied on failure — run it inside a
/// machine transaction ([`txn_insert_all`]) for all-or-nothing semantics.
pub fn try_vectorized_insert_all(
    m: &mut Machine,
    table: &mut ChainTable,
    keys: &[Word],
) -> Result<usize, FolError> {
    if keys.is_empty() {
        return Ok(0);
    }
    let (mut hv, mut node_ptr, mut labels) = table.stage_nodes(m, keys);

    // FOL1 rounds, main processing amalgamated (as in Fig 7).
    let budget = keys.len();
    let mut rounds = 0usize;
    while !hv.is_empty() {
        if rounds == budget {
            return Err(FolError::RoundBudgetExceeded {
                budget,
                live: hv.len(),
                completed_rounds: rounds,
            });
        }
        // FOL processes 1-2: write labels through hv, read back, compare.
        m.audit_note_scatter(table.work, &hv, &labels);
        m.scatter(table.work, &hv, &labels);
        let got = m.gather(table.work, &hv);
        m.audit_check_gather(table.work, &hv, &got)
            .map_err(FolError::from)?;
        let ok = m.vcmp(CmpOp::Eq, &got, &labels);
        // Main processing (process 3) for survivors.
        let hv_s = m.compress(&hv, &ok);
        if hv_s.is_empty() {
            return Err(FolError::NoSurvivors {
                iteration: rounds,
                live: hv.len(),
            });
        }
        let ptr_s = m.compress(&node_ptr, &ok);
        table.link_front(m, &hv_s, &ptr_s);
        // Process 4: repeat for the filtered keys.
        let rest = m.mask_not(&ok);
        hv = m.compress(&hv, &rest);
        node_ptr = m.compress(&node_ptr, &rest);
        labels = m.compress(&labels, &rest);
        rounds += 1;
    }
    Ok(rounds)
}

/// Decompose-then-apply insertion: `decompose` splits the hashed values
/// into FOL rounds over the work area, then the main processing runs round
/// by round. [`vectorized_insert_all_ordered`] decomposes with the
/// order-preserving FOL1; the `ForcedSequential` rung of
/// [`txn_insert_all`] with [`decompose_with_mode`], whose length-1 label
/// scatters cannot tear.
fn insert_via_decomposition(
    m: &mut Machine,
    table: &mut ChainTable,
    keys: &[Word],
    decompose: impl FnOnce(&mut Machine, Region, &[Word]) -> Result<Decomposition, FolError>,
) -> Result<usize, FolError> {
    if keys.is_empty() {
        return Ok(0);
    }
    let (hv_all, node_ptr_all, _) = table.stage_nodes(m, keys);
    let hv_words: Vec<Word> = hv_all.iter().collect();
    let d = decompose(m, table.work, &hv_words)?;
    for round in d.iter() {
        let hv_s: VReg = round.iter().map(|&p| hv_all.get(p)).collect();
        let ptr_s: VReg = round.iter().map(|&p| node_ptr_all.get(p)).collect();
        table.link_front(m, &hv_s, &ptr_s);
    }
    Ok(d.num_rounds())
}

/// Like [`all_keys`] but refuses to panic on a corrupted table: a wild head
/// or next pointer (outside the arena) or a chain cycle returns `None`
/// instead. The whole-table reference oracle the footprint-scoped
/// post-condition ([`insert_landed_exactly`]) is tested against.
#[cfg(test)]
fn checked_all_keys(m: &Machine, table: &ChainTable) -> Option<Vec<Word>> {
    let mut keys = Vec::new();
    for b in 0..table.buckets() {
        let mut p = m.mem().read(table.heads.at(b));
        let mut steps = 0usize;
        while p != NIL {
            if steps > table.arena.len() {
                return None; // cycle
            }
            if p < 0 || p as usize + 1 >= table.arena.len() {
                return None; // wild pointer
            }
            let off = p as usize;
            keys.push(m.mem().read(table.arena.at(off)));
            p = m.mem().read(table.arena.at(off + 1));
            steps += 1;
        }
    }
    keys.sort_unstable();
    Some(keys)
}

/// The post-condition of one insert attempt of `keys` whose nodes were
/// reserved from node `first`, checked from the open transaction's journal
/// at a cost proportional to the batch:
///
/// 1. every journaled head outside the batch's buckets, and every journaled
///    arena word outside the new nodes, still holds its pre-image;
/// 2. from each batch bucket's head the chain passes through exactly that
///    bucket's new nodes — each once, each key hashing to the bucket — and
///    then reaches the head the bucket had before the attempt (its
///    journaled pre-image);
/// 3. the keys visited are exactly the batch's multiset.
///
/// The work area is unconstrained: labels left there are scratch, not
/// contents. Equivalence with the
/// whole-table check ([`checked_all_keys`] against the old contents plus
/// `keys`): words no store reached are unchanged, so by (1) every untouched
/// bucket keeps its chain and every old node its key and link; by (2) a
/// batch bucket's chain is its new nodes spliced in front of its old chain;
/// so the table's multiset is the old one plus (3)'s. The check also
/// refuses states the whole-table walk accepts (a key linked into another
/// bucket, a node spliced past an old one). On acceptance every word
/// it read was stored by the attempt, hence inside the footprint the
/// pre-commit scrub verifies.
fn insert_landed_exactly(m: &Machine, table: &ChainTable, keys: &[Word], first: usize) -> bool {
    let Some(journal) = m.txn_journal() else {
        return false;
    };
    let mem = m.mem();
    let buckets = table.buckets() as Word;
    let mut per_bucket: HashMap<usize, usize> = HashMap::new();
    for &k in keys {
        *per_bucket.entry(hash_mod(k, buckets) as usize).or_default() += 1;
    }
    let new_nodes = table.arena.base() + 2 * first..table.arena.base() + 2 * (first + keys.len());
    for addr in journal.addrs() {
        let must_keep = if table.heads.contains(addr) {
            !per_bucket.contains_key(&(addr - table.heads.base()))
        } else {
            table.arena.contains(addr) && !new_nodes.contains(&addr)
        };
        if must_keep && journal.pre_image(addr) != Some(mem.read(addr)) {
            return false;
        }
    }
    let mut visited = vec![false; keys.len()];
    let mut landed = Vec::with_capacity(keys.len());
    for (&b, &count) in &per_bucket {
        let head = table.heads.at(b);
        let old_head = journal.pre_image(head).unwrap_or_else(|| mem.read(head));
        let mut p = mem.read(head);
        for _ in 0..count {
            // A new node's offset, not yet visited, keyed into bucket `b`.
            let node = usize::try_from(p)
                .ok()
                .filter(|&p| p % 2 == 0)
                .map(|p| p / 2);
            let Some(i) = node
                .and_then(|n| n.checked_sub(first))
                .filter(|&i| i < keys.len())
            else {
                return false;
            };
            if std::mem::replace(&mut visited[i], true) {
                return false;
            }
            let key = mem.read(table.arena.at(2 * (first + i)));
            if hash_mod(key, buckets) as usize != b {
                return false;
            }
            landed.push(key);
            p = mem.read(table.arena.at(2 * (first + i) + 1));
        }
        if p != old_head {
            return false;
        }
    }
    let mut want = keys.to_vec();
    want.sort_unstable();
    landed.sort_unstable();
    landed == want
}

/// Transactional multiple insertion: every attempt runs inside a machine
/// transaction and is checked end-to-end against the scalar reference
/// semantics (the stored multiset must equal the old contents plus `keys`)
/// by a post-condition that reads only what the attempt wrote
/// ([`insert_landed_exactly`]).
/// A failed attempt — decomposition error, budget exhaustion, or a
/// post-condition divergence such as a dropped lane in a payload scatter —
/// is rolled back byte-exact (including `used_nodes`) and retried under the
/// [`RetryPolicy`]'s next rung: `Vector` → `ForcedSequential` (tear-immune
/// label scatters) → `ScalarTail` ([`scalar_insert_all`], immune to every
/// scatter fault).
///
/// Returns the FOL round count of the winning attempt (0 for a scalar
/// rescue) and the [`RecoveryReport`] audit trail.
///
/// # Panics
/// Panics if the arena cannot hold `keys.len()` more nodes (checked before
/// the transaction opens, so the panic cannot leave partial state) or if a
/// transaction is already open on `m`.
pub fn txn_insert_all(
    m: &mut Machine,
    table: &mut ChainTable,
    keys: &[Word],
    policy: &RetryPolicy,
) -> Result<(usize, RecoveryReport), RecoveryError> {
    assert!(
        2 * (table.used_nodes + keys.len()) <= table.arena.len(),
        "arena exhausted: need {} more nodes, used {}, capacity {}",
        keys.len(),
        table.used_nodes,
        table.arena.len() / 2
    );
    // Checksum-track the table's storage (and the FOL work area): decayed
    // heads or chain words are caught by the supervisor's scrub, and every
    // label round is judged by the ELS auditor. A no-op once tracked.
    m.track_region(table.heads);
    m.track_region(table.arena);
    m.track_region(table.work);

    let saved_used = table.used_nodes;
    let validation = policy.validation;
    let result = run_transaction(m, policy, |m, mode| {
        table.used_nodes = saved_used;
        let rounds = match mode {
            ExecMode::Vector => try_vectorized_insert_all(m, table, keys)?,
            ExecMode::DegradedVector { quarantined } | ExecMode::VerifiedReplay { quarantined } => {
                with_lane_mask(m, quarantined, |m| {
                    try_vectorized_insert_all(m, table, keys)
                })?
            }
            ExecMode::ForcedSequential => {
                insert_via_decomposition(m, table, keys, |m, work, hv| {
                    decompose_with_mode(m, work, hv, mode, validation)
                })?
            }
            ExecMode::ScalarTail => {
                scalar_insert_all(m, table, keys);
                0
            }
        };
        if !insert_landed_exactly(m, table, keys, saved_used) {
            return Err(FolError::PostConditionFailed {
                what: "chaining insert contents",
            });
        }
        Ok(rounds)
    });
    if result.is_err() {
        table.used_nodes = saved_used;
    }
    result
}

/// Coalesced multi-request insertion with per-group outcomes: each element
/// of `groups` is one caller's independent key batch, and the whole admitted
/// set is inserted by **one** [`txn_insert_all`] transaction over the
/// concatenated keys — the long index vector the paper's economics want.
///
/// Admission is greedy and host-side: a group whose keys would overflow the
/// node arena is refused with [`GroupError::Rejected`] before any transaction
/// opens (later, smaller groups may still be admitted). If the coalesced
/// transaction fails, [`split_retry`] bisects the admitted groups so each
/// group succeeds or fails on its own merits — a single adversarial group
/// costs `O(log n)` extra transactions and cannot poison its siblings.
///
/// Returns one outcome per input group, in order: the FOL round count of the
/// transaction that landed the group, or a typed [`GroupError`].
pub fn txn_insert_groups(
    m: &mut Machine,
    table: &mut ChainTable,
    groups: &[Vec<Word>],
    policy: &RetryPolicy,
) -> Vec<Result<usize, GroupError>> {
    let capacity = table.arena.len() / 2;
    let mut admitted: Vec<usize> = Vec::new();
    let mut out: Vec<Option<Result<usize, GroupError>>> = vec![None; groups.len()];
    let mut planned = table.used_nodes;
    for (i, g) in groups.iter().enumerate() {
        if planned + g.len() <= capacity {
            planned += g.len();
            admitted.push(i);
        } else {
            out[i] = Some(Err(GroupError::Rejected {
                reason: format!(
                    "arena full: group of {} keys, {} of {} nodes already planned",
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
        txn_insert_all(m, table, &keys, policy).map(|(rounds, _)| rounds)
    });
    for (&slot, r) in admitted.iter().zip(results) {
        out[slot] = Some(r.map_err(GroupError::from));
    }
    out.into_iter()
        .map(|o| o.expect("every group has an outcome"))
        .collect()
}

/// Order-preserving vectorized insertion: like [`vectorized_insert_all`]
/// but uses [`fol_core::ordered::fol1_machine_ordered`] so that colliding
/// keys enter their chain in *exactly* the sequential order — the resulting
/// chains are identical to [`scalar_insert_all`]'s, not merely equal as
/// sets. This is the paper's footnote 5/7 scenario made concrete: round k
/// holds the k-th colliding key per bucket, so head insertion reproduces
/// the sequential chain order.
///
/// Returns the number of FOL rounds.
pub fn vectorized_insert_all_ordered(
    m: &mut Machine,
    table: &mut ChainTable,
    keys: &[Word],
) -> usize {
    insert_via_decomposition(m, table, keys, |m, work, hv| {
        try_fol1_machine_ordered(m, work, hv, Validation::Off)
    })
    .unwrap_or_else(|e| panic!("{e}"))
}

/// Collects every stored key with lock-step vector chain walks (read-only
/// SIVP): all bucket heads start in one vector; per step, live cursors
/// gather their node's key, emit it, and follow `next`.
///
/// Key order is by walk step (all chain heads first), which no caller may
/// rely on.
pub fn vectorized_collect_keys(m: &mut Machine, table: &ChainTable) -> Vec<Word> {
    let mut cursor = m.vload(table.heads, 0, table.buckets());
    let mut out = Vec::with_capacity(table.used_nodes);
    loop {
        let live = m.vcmp_s(fol_vm::CmpOp::Ne, &cursor, NIL);
        cursor = m.compress(&cursor, &live);
        if cursor.is_empty() {
            return out;
        }
        let keys = m.gather(table.arena, &cursor);
        out.extend(keys.iter());
        let next_fields = m.valu_s(AluOp::Add, &cursor, 1);
        cursor = m.gather(table.arena, &next_fields);
    }
}

/// Rehashes the whole table into `new_buckets` buckets: a vectorized
/// collect followed by a vectorized multiple insert into a fresh table.
/// Returns the new table.
pub fn rehash(m: &mut Machine, table: &ChainTable, new_buckets: usize) -> ChainTable {
    let keys = vectorized_collect_keys(m, table);
    let mut out = ChainTable::alloc(m, new_buckets, keys.len().max(1));
    let _ = vectorized_insert_all(m, &mut out, &keys);
    out
}

/// Convenience: the multiset of all stored keys (sorted), for differential
/// tests against the scalar baseline.
pub fn all_keys(m: &Machine, table: &ChainTable) -> Vec<Word> {
    let mut keys: Vec<Word> = table.chains(m).into_iter().flatten().collect();
    keys.sort_unstable();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use fol_vm::{ConflictPolicy, CostModel};

    #[test]
    fn fig7_walkthrough() {
        // Fig 7's key vector: [621, 415, 23, 621 ... ] — the figure's exact
        // digits are partly illegible in the source text, so use its
        // structure: 5 keys, two of which collide in one bucket.
        let mut m = Machine::new(CostModel::unit());
        let mut t = ChainTable::alloc(&mut m, 6, 8);
        // 353 % 6 == 911 % 6 == 5 (the Fig 4 pair), plus three singles.
        let keys = [353, 911, 7, 14, 3];
        let rounds = vectorized_insert_all(&mut m, &mut t, &keys);
        assert_eq!(rounds, 2, "one collision pair -> two rounds");
        let chains = t.chains(&m);
        let mut bucket5 = chains[5].clone();
        bucket5.sort_unstable();
        assert_eq!(bucket5, vec![353, 911]);
        for &k in &keys {
            assert!(t.contains(&m, k));
        }
        assert!(!t.contains(&m, 999));
    }

    #[test]
    fn scalar_and_vectorized_agree_on_contents() {
        let keys: Vec<Word> = (0..60).map(|i| i * 31 + 5).collect();
        let mut ms = Machine::new(CostModel::unit());
        let mut ts = ChainTable::alloc(&mut ms, 17, 64);
        scalar_insert_all(&mut ms, &mut ts, &keys);

        for policy in [
            ConflictPolicy::FirstWins,
            ConflictPolicy::LastWins,
            ConflictPolicy::Arbitrary(5),
        ] {
            let mut mv = Machine::with_policy(CostModel::unit(), policy.clone());
            let mut tv = ChainTable::alloc(&mut mv, 17, 64);
            let _ = vectorized_insert_all(&mut mv, &mut tv, &keys);
            assert_eq!(all_keys(&ms, &ts), all_keys(&mv, &tv), "{policy:?}");
            // Per-bucket membership must agree too (chains may be ordered
            // differently — the paper's footnote 5 allows this).
            let cs = ts.chains(&ms);
            let cv = tv.chains(&mv);
            for b in 0..17 {
                let mut a = cs[b].clone();
                let mut c = cv[b].clone();
                a.sort_unstable();
                c.sort_unstable();
                assert_eq!(a, c, "bucket {b} under {policy:?}");
            }
        }
    }

    #[test]
    fn ordered_insert_reproduces_scalar_chains_exactly() {
        let keys: Vec<Word> = (0..80).map(|i| (i * 37) % 200).collect();
        let mut ms = Machine::new(CostModel::unit());
        let mut ts = ChainTable::alloc(&mut ms, 13, 96);
        scalar_insert_all(&mut ms, &mut ts, &keys);

        for policy in [ConflictPolicy::FirstWins, ConflictPolicy::Arbitrary(9)] {
            let mut mv = Machine::with_policy(CostModel::unit(), policy.clone());
            let mut tv = ChainTable::alloc(&mut mv, 13, 96);
            let _ = vectorized_insert_all_ordered(&mut mv, &mut tv, &keys);
            assert_eq!(
                ts.chains(&ms),
                tv.chains(&mv),
                "{policy:?}: chains must match scalar order exactly"
            );
        }
    }

    #[test]
    fn ordered_insert_duplicates_keep_order() {
        // Three equal keys: scalar chains them newest-first; ordered FOL
        // must produce the identical chain, under any policy.
        let mut ms = Machine::new(CostModel::unit());
        let mut ts = ChainTable::alloc(&mut ms, 5, 8);
        scalar_insert_all(&mut ms, &mut ts, &[9, 9, 9]);
        let mut mv = Machine::with_policy(CostModel::unit(), ConflictPolicy::LastWins);
        let mut tv = ChainTable::alloc(&mut mv, 5, 8);
        let rounds = vectorized_insert_all_ordered(&mut mv, &mut tv, &[9, 9, 9]);
        assert_eq!(rounds, 3);
        assert_eq!(ts.chains(&ms), tv.chains(&mv));
    }

    #[test]
    fn duplicate_keys_are_all_entered() {
        // Chaining permits duplicate keys (unlike open addressing): each
        // occurrence becomes its own node.
        let mut m = Machine::new(CostModel::unit());
        let mut t = ChainTable::alloc(&mut m, 5, 8);
        let keys = [9, 9, 9];
        let rounds = vectorized_insert_all(&mut m, &mut t, &keys);
        assert_eq!(rounds, 3, "all three collide (same bucket): three rounds");
        assert_eq!(all_keys(&m, &t), vec![9, 9, 9]);
    }

    #[test]
    fn collect_returns_every_key() {
        let mut m = Machine::new(CostModel::unit());
        let mut t = ChainTable::alloc(&mut m, 7, 32);
        let keys: Vec<Word> = (0..30).map(|i| i * 11).collect();
        let _ = vectorized_insert_all(&mut m, &mut t, &keys);
        let mut got = vectorized_collect_keys(&mut m, &t);
        got.sort_unstable();
        let mut expect = keys;
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn rehash_preserves_contents_and_respects_new_buckets() {
        let mut m = Machine::new(CostModel::unit());
        let mut t = ChainTable::alloc(&mut m, 3, 40);
        let keys: Vec<Word> = (0..40).map(|i| i * 13 + 2).collect();
        let _ = vectorized_insert_all(&mut m, &mut t, &keys);
        let big = rehash(&mut m, &t, 31);
        assert_eq!(big.buckets(), 31);
        assert_eq!(all_keys(&m, &big), all_keys(&m, &t));
        for &k in &keys {
            assert!(big.contains(&m, k));
        }
        // Chains got shorter on average.
        let longest_old = t.chains(&m).iter().map(Vec::len).max().unwrap_or(0);
        let longest_new = big.chains(&m).iter().map(Vec::len).max().unwrap_or(0);
        assert!(longest_new < longest_old);
    }

    #[test]
    fn rehash_empty_table() {
        let mut m = Machine::new(CostModel::unit());
        let t = ChainTable::alloc(&mut m, 3, 1);
        let out = rehash(&mut m, &t, 5);
        assert_eq!(all_keys(&m, &out), Vec::<Word>::new());
    }

    #[test]
    fn incremental_batches_accumulate() {
        let mut m = Machine::new(CostModel::unit());
        let mut t = ChainTable::alloc(&mut m, 11, 32);
        let _ = vectorized_insert_all(&mut m, &mut t, &[1, 2, 3]);
        let _ = vectorized_insert_all(&mut m, &mut t, &[12, 13]);
        assert_eq!(all_keys(&m, &t), vec![1, 2, 3, 12, 13]);
        assert!(t.contains(&m, 12));
    }

    #[test]
    fn vectorized_inner_loop_is_fully_vector() {
        let mut m = Machine::new(CostModel::unit());
        let mut t = ChainTable::alloc(&mut m, 7, 16);
        m.enable_trace();
        let _ = vectorized_insert_all(&mut m, &mut t, &[1, 8, 15, 2]);
        let trace = m.take_trace().expect("tracing on");
        assert!(trace.is_fully_vector());
    }

    #[test]
    fn empty_insert_is_noop() {
        let mut m = Machine::new(CostModel::unit());
        let mut t = ChainTable::alloc(&mut m, 3, 2);
        assert_eq!(vectorized_insert_all(&mut m, &mut t, &[]), 0);
        assert_eq!(all_keys(&m, &t), Vec::<Word>::new());
    }

    #[test]
    #[should_panic(expected = "arena exhausted")]
    fn arena_overflow_panics() {
        let mut m = Machine::new(CostModel::unit());
        let mut t = ChainTable::alloc(&mut m, 3, 2);
        let _ = vectorized_insert_all(&mut m, &mut t, &[1, 2, 3]);
    }

    #[test]
    fn try_insert_reports_round_budget_exhaustion() {
        // 100% lane drops: no label ever lands, the gather always
        // disagrees... actually with every write dropped the gather sees
        // stale memory, so no survivor appears -> NoSurvivors, or the
        // budget runs out. Either way: a typed error, never a hang.
        let mut m = Machine::new(CostModel::unit());
        m.set_fault_plan(Some(fol_vm::FaultPlan::dropped_lanes(3, 65535)));
        let mut t = ChainTable::alloc(&mut m, 7, 16);
        let err = try_vectorized_insert_all(&mut m, &mut t, &[1, 2, 3, 8]).unwrap_err();
        assert!(matches!(
            err,
            FolError::NoSurvivors { .. } | FolError::RoundBudgetExceeded { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "ELS guarantee (Theorem 1) violated")]
    fn vectorized_insert_inherits_the_survivor_guard() {
        // Near-total lane drops: after the one label that matches the
        // zeroed work area, no label lands. The paper's entry point stops at
        // the first survivor-free pass instead of repeating it until a lane
        // happens to land.
        let mut m = Machine::new(CostModel::unit());
        m.set_fault_plan(Some(fol_vm::FaultPlan::dropped_lanes(7, 65535)));
        let mut t = ChainTable::alloc(&mut m, 37, 16);
        let _ = vectorized_insert_all(&mut m, &mut t, &[1, 2, 3]);
    }

    #[test]
    fn txn_insert_clean_run_is_one_attempt() {
        let keys: Vec<Word> = (0..30).map(|i| i * 13 + 4).collect();
        let mut m = Machine::new(CostModel::unit());
        let mut t = ChainTable::alloc(&mut m, 11, 32);
        let (rounds, report) =
            txn_insert_all(&mut m, &mut t, &keys, &RetryPolicy::default()).expect("clean run");
        assert_eq!(report.attempts, 1);
        assert!(!report.recovered());
        assert!(rounds >= 1);
        let mut expect = keys;
        expect.sort_unstable();
        assert_eq!(all_keys(&m, &t), expect);
    }

    #[test]
    fn txn_insert_recovers_from_hostile_scatter_faults() {
        let keys: Vec<Word> = (0..24).map(|i| (i * 5) % 60).collect();
        let mut m = Machine::new(CostModel::unit());
        m.set_fault_plan(Some(
            fol_vm::FaultPlan::dropped_lanes(11, 30000)
                .with_torn_writes(30000, fol_vm::AmalgamMode::Xor),
        ));
        let mut t = ChainTable::alloc(&mut m, 7, 32);
        let (_, report) =
            txn_insert_all(&mut m, &mut t, &keys, &RetryPolicy::default()).expect("ladder rescues");
        assert!(
            report.recovered(),
            "faults this hot must cost at least one retry"
        );
        let mut expect = keys;
        expect.sort_unstable();
        assert_eq!(
            all_keys(&m, &t),
            expect,
            "contents exact despite ELS violations"
        );
        assert_eq!(
            t.used_nodes,
            expect.len(),
            "host allocator in step with table"
        );
    }

    #[test]
    fn txn_insert_exhaustion_rolls_everything_back() {
        let mut m = Machine::new(CostModel::unit());
        let mut t = ChainTable::alloc(&mut m, 5, 16);
        scalar_insert_all(&mut m, &mut t, &[100, 101]);
        let before = all_keys(&m, &t);
        let used_before = t.used_nodes;

        m.set_fault_plan(Some(fol_vm::FaultPlan::dropped_lanes(2, 65535)));
        let mut policy = RetryPolicy::vector_only(3);
        policy.reseed = false;
        let err = txn_insert_all(&mut m, &mut t, &[1, 2, 3], &policy).unwrap_err();
        assert_eq!(err.report().attempts, 3);
        assert_eq!(all_keys(&m, &t), before, "rollback restored the table");
        assert_eq!(t.used_nodes, used_before, "rollback restored the allocator");
        assert!(!m.in_txn(), "no transaction left open");
    }

    #[test]
    fn txn_insert_groups_coalesces_and_reports_per_group() {
        let mut m = Machine::new(CostModel::unit());
        let mut t = ChainTable::alloc(&mut m, 11, 64);
        let groups: Vec<Vec<Word>> =
            vec![vec![1, 12, 23], vec![2, 13], vec![], vec![3, 14, 25, 36]];
        let outs = txn_insert_groups(&mut m, &mut t, &groups, &RetryPolicy::default());
        assert_eq!(outs.len(), 4);
        assert!(
            outs.iter().all(Result::is_ok),
            "clean run lands every group"
        );
        let mut expect: Vec<Word> = groups.into_iter().flatten().collect();
        expect.sort_unstable();
        assert_eq!(all_keys(&m, &t), expect, "contents are the coalesced union");
    }

    #[test]
    fn txn_insert_groups_rejects_overflow_but_admits_smaller_siblings() {
        // Arena holds 4 nodes. Group 0 fits (2), group 1 would overflow (3),
        // group 2 still fits in the remaining space (2): greedy admission
        // must refuse only the overflowing group, typed, without touching
        // the machine for it.
        let mut m = Machine::new(CostModel::unit());
        let mut t = ChainTable::alloc(&mut m, 5, 4);
        let groups: Vec<Vec<Word>> = vec![vec![1, 2], vec![3, 4, 5], vec![6, 7]];
        let outs = txn_insert_groups(&mut m, &mut t, &groups, &RetryPolicy::default());
        assert!(outs[0].is_ok());
        assert!(
            matches!(&outs[1], Err(GroupError::Rejected { reason }) if reason.contains("arena full")),
            "overflowing group gets a typed admission verdict"
        );
        assert!(outs[2].is_ok(), "later group fills the reclaimed budget");
        assert_eq!(all_keys(&m, &t), vec![1, 2, 6, 7]);
    }

    #[test]
    fn txn_insert_groups_recovers_under_faults_without_poisoning() {
        // Hot-but-recoverable fault plan: the default ladder rescues the
        // coalesced transaction (possibly after bisection), and every group
        // must land — faults are an environmental hazard, not a property of
        // any one group.
        let mut m = Machine::new(CostModel::unit());
        m.set_fault_plan(Some(
            fol_vm::FaultPlan::dropped_lanes(11, 30000)
                .with_torn_writes(30000, fol_vm::AmalgamMode::Xor),
        ));
        let mut t = ChainTable::alloc(&mut m, 7, 64);
        let groups: Vec<Vec<Word>> = (0..6)
            .map(|g| (0..8).map(|i| g * 8 + i).collect())
            .collect();
        let outs = txn_insert_groups(&mut m, &mut t, &groups, &RetryPolicy::default());
        assert!(outs.iter().all(Result::is_ok), "ladder rescues every group");
        let mut expect: Vec<Word> = groups.into_iter().flatten().collect();
        expect.sort_unstable();
        assert_eq!(all_keys(&m, &t), expect);
        assert!(!m.in_txn());
    }

    #[test]
    fn forced_sequential_rung_survives_max_rate_torn_writes() {
        // Torn writes at the maximum rate, but no lane drops: the
        // ForcedSequential rung's length-1 label scatters never present two
        // competing values, so the second attempt must succeed.
        let keys: Vec<Word> = (0..16).map(|i| (i * 3) % 20).collect();
        let mut m = Machine::new(CostModel::unit());
        m.set_fault_plan(Some(fol_vm::FaultPlan::torn_writes(
            5,
            65535,
            fol_vm::AmalgamMode::Xor,
        )));
        let mut t = ChainTable::alloc(&mut m, 5, 24);
        let policy = RetryPolicy {
            ladder: vec![ExecMode::ForcedSequential],
            reseed: false,
            ..RetryPolicy::default()
        };
        let (_, report) = txn_insert_all(&mut m, &mut t, &keys, &policy).expect("tear-immune");
        assert_eq!(report.final_mode, ExecMode::ForcedSequential);
        let mut expect = keys;
        expect.sort_unstable();
        assert_eq!(all_keys(&m, &t), expect);
    }

    /// One attempt's post-state judged by both post-conditions: runs the
    /// vector insert of `keys` inside a transaction, lets `corrupt` edit the
    /// post-state through the store path, and returns `(footprint check,
    /// whole-table check)` — or `None` when the attempt itself failed. The
    /// transaction is rolled back and rot repaired, so calls chain.
    fn verdicts(
        m: &mut Machine,
        t: &mut ChainTable,
        keys: &[Word],
        corrupt: impl FnOnce(&mut Machine, &ChainTable, usize),
    ) -> Option<(bool, bool)> {
        let mut expected = all_keys(m, t);
        expected.extend_from_slice(keys);
        expected.sort_unstable();
        let first = t.used_nodes;
        m.begin_txn().unwrap();
        let ran = try_vectorized_insert_all(m, t, keys);
        let out = ran.ok().map(|_| {
            corrupt(m, t, first);
            let new = insert_landed_exactly(m, t, keys, first);
            let old = checked_all_keys(m, t).as_ref() == Some(&expected);
            (new, old)
        });
        m.abort_txn().unwrap();
        m.repair_from_image();
        t.used_nodes = first;
        out
    }

    /// A table of 13 buckets holding 20 keys, tracked, and the next batch.
    fn loaded_table(m: &mut Machine) -> (ChainTable, Vec<Word>) {
        let mut t = ChainTable::alloc(m, 13, 64);
        let pre: Vec<Word> = (0..20).map(|i| i * 7 + 3).collect();
        scalar_insert_all(m, &mut t, &pre);
        m.track_region(t.heads);
        m.track_region(t.arena);
        m.track_region(t.work);
        // Buckets 1, 2, 3 (twice) and 5: never bucket 0, 4 or 6.
        (t, vec![14, 15, 16, 29, 18])
    }

    #[test]
    fn footprint_check_accepts_only_what_the_whole_table_check_accepts() {
        let mut m = Machine::new(CostModel::unit());
        let (mut t, keys) = loaded_table(&mut m);
        let head_of = |m: &Machine, t: &ChainTable, b: usize| m.mem().read(t.heads.at(b));
        type Edit = Box<dyn Fn(&mut Machine, &ChainTable, usize)>;
        let cases: Vec<(&str, Edit)> = vec![
            ("clean", Box::new(|_, _, _| {})),
            (
                "skipped new node",
                Box::new(move |m, t, _| {
                    let p = head_of(m, t, 5) as usize;
                    let next = m.mem().read(t.arena.at(p + 1));
                    m.s_write(t.heads.at(5), next);
                }),
            ),
            (
                "wild next",
                Box::new(move |m, t, _| {
                    let p = head_of(m, t, 2) as usize;
                    m.s_write(t.arena.at(p + 1), 10_000);
                }),
            ),
            (
                "node spliced into an untouched bucket",
                Box::new(move |m, t, _| {
                    let p = head_of(m, t, 5);
                    let next = m.mem().read(t.arena.at(p as usize + 1));
                    let other = head_of(m, t, 4);
                    m.s_write(t.heads.at(5), next);
                    m.s_write(t.arena.at(p as usize + 1), other);
                    m.s_write(t.heads.at(4), p);
                }),
            ),
            (
                "changed word outside the footprint",
                Box::new(move |m, t, _| {
                    let p = head_of(m, t, 6) as usize;
                    m.s_write(t.arena.at(p), 999);
                }),
            ),
            (
                "new keys swapped across buckets",
                Box::new(move |m, t, _| {
                    let (p, q) = (head_of(m, t, 1) as usize, head_of(m, t, 2) as usize);
                    let (kp, kq) = (m.mem().read(t.arena.at(p)), m.mem().read(t.arena.at(q)));
                    m.s_write(t.arena.at(p), kq);
                    m.s_write(t.arena.at(q), kp);
                }),
            ),
            (
                "cycle through new nodes",
                Box::new(move |m, t, _| {
                    let p = head_of(m, t, 3);
                    m.s_write(t.arena.at(p as usize + 1), p);
                }),
            ),
        ];
        for (name, edit) in cases {
            let (new, old) = verdicts(&mut m, &mut t, &keys, edit).expect("healthy attempt");
            assert!(
                !new || old,
                "{name}: footprint check accepted what the oracle refuses"
            );
            if name == "clean" {
                assert!(new, "the clean post-state is accepted");
            } else {
                assert!(!new, "{name}: corrupted post-state accepted");
            }
        }
        // Random store-path edits of heads and arena words.
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..400 {
            let (r, w) = (next(), next());
            let edit = move |m: &mut Machine, t: &ChainTable, _: usize| {
                let region = if r % 2 == 0 { t.heads } else { t.arena };
                let addr = region.at((r >> 8) as usize % region.len());
                let value = match w % 3 {
                    0 => NIL,
                    1 => (w >> 8) as Word % t.arena.len() as Word,
                    _ => m.mem().read(addr),
                };
                m.s_write(addr, value);
            };
            let (new, old) = verdicts(&mut m, &mut t, &keys, edit).expect("healthy attempt");
            assert!(
                !new || old,
                "random edit {r:#x}/{w:#x} accepted by the footprint check only"
            );
        }
    }

    #[test]
    fn footprint_and_whole_table_checks_agree_on_faulted_post_states() {
        use fol_vm::{AmalgamMode, FaultPlan};
        let mut judged = 0;
        for seed in [3u64, 17, 2026] {
            let plans = [
                FaultPlan::dropped_lanes(seed, 8000),
                FaultPlan::torn_writes(seed, 16000, AmalgamMode::Xor),
                FaultPlan::gather_flips(seed, 4000),
                FaultPlan::benign(seed).with_stale_reads(8000),
                FaultPlan::benign(seed).with_torn_gathers(8000),
                FaultPlan::bit_rot(seed, 600),
                FaultPlan::bit_rot(seed, 300).with_gather_flips(2000),
            ];
            for plan in plans {
                let rot = plan.rot_rate_at(1) > 0;
                let mut m = Machine::new(CostModel::unit());
                let (mut t, _) = loaded_table(&mut m);
                m.set_fault_plan(Some(plan));
                for round in 0..12u64 {
                    let keys: Vec<Word> =
                        (0..6).map(|i| (round as Word * 31 + i * 5) % 90).collect();
                    let mut rotted = false;
                    let Some((new, old)) = verdicts(&mut m, &mut t, &keys, |m, _, _| {
                        rotted = m.scrub().is_err();
                    }) else {
                        continue;
                    };
                    judged += 1;
                    assert!(
                        !new || old || (rot && rotted),
                        "footprint check accepted a faulted post-state the oracle refuses"
                    );
                    assert!(
                        new || !old,
                        "footprint check refused a post-state the oracle accepts (an extra retry)"
                    );
                }
            }
        }
        assert!(
            judged > 50,
            "too few post-states survived the faults: {judged}"
        );
    }
}
