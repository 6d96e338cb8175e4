//! Open-addressing multiple hashing — the paper's Fig 8.
//!
//! This is the "overwrite-and-check" specialization of FOL1: because all
//! keys are distinct, the keys themselves serve as labels, and writing the
//! labels *is* entering the keys. One iteration is then: masked-scatter the
//! keys into currently-empty slots, gather back, keep the keys that read
//! themselves, recompute slots for the rest, repeat.
//!
//! The scalar baseline is classic open addressing with the same probe
//! strategy, charged at scalar cost on the same machine.

use crate::{hash_mod, ProbeStrategy, UNENTERED};
use fol_core::error::FolError;
use fol_core::recover::{
    run_transaction, split_retry, with_lane_mask, ExecMode, GroupError, RecoveryError,
    RecoveryReport, RetryPolicy,
};
use fol_vm::{AluOp, CmpOp, Machine, Region, Word};

/// Outcome of a multiple-hashing run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InsertReport {
    /// Number of overwrite-and-check iterations (scalar baseline reports 0).
    pub iterations: usize,
    /// Total probe attempts summed over keys (scalar) or vector elements
    /// pushed through the retry loop (vectorized).
    pub probes: u64,
}

fn validate_keys(keys: &[Word], size: Word, probe: ProbeStrategy) {
    assert!(size > 0, "empty table");
    if probe == ProbeStrategy::KeyDependent {
        assert!(size > 32, "key-dependent probing requires size(table) > 32");
    }
    assert!((keys.len() as Word) <= size, "more keys than table slots");
    debug_assert!(keys.iter().all(|&k| k >= 0), "keys must be non-negative");
    debug_assert!(
        {
            let mut s = std::collections::HashSet::new();
            keys.iter().all(|&k| s.insert(k))
        },
        "open-addressing multiple hashing requires distinct keys (keys are labels)"
    );
}

/// Initializes a table region to all-`unentered` with one vector fill.
pub fn init_table(m: &mut Machine, table: Region) {
    m.vfill(table, UNENTERED);
}

/// Scalar baseline: insert each key in turn, probing until an empty slot.
pub fn scalar_insert_all(
    m: &mut Machine,
    table: Region,
    keys: &[Word],
    probe: ProbeStrategy,
) -> InsertReport {
    let size = table.len() as Word;
    validate_keys(keys, size, probe);
    let mut probes = 0u64;
    for &key in keys {
        // h := hash(key): one scalar ALU op (mod).
        m.s_alu(1);
        let mut h = hash_mod(key, size);
        loop {
            probes += 1;
            // load table[h]; compare against unentered; loop branch.
            let slot = m.s_read(table.at(h as usize));
            m.s_cmp(1);
            m.s_branch(1);
            if slot == UNENTERED {
                m.s_write(table.at(h as usize), key);
                break;
            }
            // recompute the slot.
            m.s_alu(2);
            h = probe.next(h, key, size);
        }
    }
    InsertReport {
        iterations: 0,
        probes,
    }
}

/// Vectorized insertion (Fig 8): [`try_vectorized_insert_all`] under the
/// iteration budget [`txn_insert_all`] gives it, panicking where it returns
/// an error.
///
/// Returns the number of iterations of the outer retry loop (1 when no key
/// collides, per Theorem 3).
///
/// ```
/// use fol_vm::{Machine, CostModel};
/// use fol_hash::open_addressing::{init_table, vectorized_insert_all, contains};
/// use fol_hash::ProbeStrategy;
///
/// let mut m = Machine::new(CostModel::s810());
/// let table = m.alloc(37, "table");
/// init_table(&mut m, table);
/// // 5, 42 and 79 all hash to 5 mod 37 — FOL sorts the collisions out.
/// let report = vectorized_insert_all(
///     &mut m, table, &[5, 42, 79, 7], ProbeStrategy::KeyDependent);
/// assert!(report.iterations > 1);
/// let snapshot = m.mem().read_region(table);
/// assert!(contains(&snapshot, 79, ProbeStrategy::KeyDependent));
/// ```
///
/// # Panics
/// Panics on an empty table, more keys than slots or key-dependent probing
/// on a table of at most 32 slots (and, in debug builds, on negative or
/// duplicate keys), or with the typed [`FolError`] when a faulty scatter
/// path exhausts the budget.
pub fn vectorized_insert_all(
    m: &mut Machine,
    table: Region,
    keys: &[Word],
    probe: ProbeStrategy,
) -> InsertReport {
    try_vectorized_insert_all(m, table, keys, probe, default_budget(table, keys))
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Vectorized insertion (Fig 8), overwrite-and-check with masked scatters:
/// the loop every vector rung of [`txn_insert_all`] runs. The outer retry
/// loop is bounded by `max_iterations`. Under ELS every iteration makes
/// progress (at least one key reads itself back, Theorem 1) and chains are
/// no longer than the table, so a healthy run never trips a budget of
/// `2 * table.len() + keys.len()`; a persistently faulty scatter path
/// (dropped lanes that unwrite every entry) returns
/// [`FolError::RoundBudgetExceeded`] instead of spinning forever.
pub fn try_vectorized_insert_all(
    m: &mut Machine,
    table: Region,
    keys: &[Word],
    probe: ProbeStrategy,
    max_iterations: usize,
) -> Result<InsertReport, FolError> {
    let size = table.len() as Word;
    validate_keys(keys, size, probe);
    if keys.is_empty() {
        return Ok(InsertReport {
            iterations: 0,
            probes: 0,
        });
    }

    // hashedValue[1:n] := hash(key[1:n])
    let mut key_v = m.vimm(keys);
    let mut hv = m.valu_s(AluOp::Mod, &key_v, size);
    let mut iterations = 0usize;
    let mut probes = 0u64;

    // First entry: where table[hv] = unentered do table[hv] := key.
    let slots = m.gather(table, &hv);
    let empty = m.vcmp_s(CmpOp::Eq, &slots, UNENTERED);
    audit_masked_probe_scatter(m, table, &hv, &key_v, &slots, &empty);
    m.scatter_masked(table, &hv, &key_v, &empty);
    probes += key_v.len() as u64;

    loop {
        if iterations == max_iterations {
            return Err(FolError::RoundBudgetExceeded {
                budget: max_iterations,
                live: key_v.len(),
                completed_rounds: iterations,
            });
        }
        iterations += 1;
        // entered[1:n] := key[1:n] = table[hashedValue[1:n]]
        let readback = m.gather(table, &hv);
        m.audit_check_gather(table, &hv, &readback)
            .map_err(FolError::from)?;
        let entered = m.vcmp(CmpOp::Eq, &readback, &key_v);
        // Fig 8's countTrue, charged as the figure issues it.
        let _ = m.count_true(&entered);
        let not_entered = m.mask_not(&entered);
        // Pack the unentered keys and their slots.
        hv = m.compress(&hv, &not_entered);
        key_v = m.compress(&key_v, &not_entered);
        if key_v.is_empty() {
            break;
        }
        // Recompute subscripts: h := (h + step) mod size.
        hv = match probe {
            ProbeStrategy::Linear => {
                let inc = m.valu_s(AluOp::Add, &hv, 1);
                m.valu_s(AluOp::Mod, &inc, size)
            }
            ProbeStrategy::KeyDependent => {
                let step = m.valu_s(AluOp::And, &key_v, 31);
                let step = m.valu_s(AluOp::Add, &step, 1);
                let sum = m.valu(AluOp::Add, &hv, &step);
                m.valu_s(AluOp::Mod, &sum, size)
            }
        };
        // where table[hv] = unentered do table[hv] := key end where
        let slots = m.gather(table, &hv);
        let empty = m.vcmp_s(CmpOp::Eq, &slots, UNENTERED);
        audit_masked_probe_scatter(m, table, &hv, &key_v, &slots, &empty);
        m.scatter_masked(table, &hv, &key_v, &empty);
        probes += key_v.len() as u64;
    }
    Ok(InsertReport { iterations, probes })
}

/// Registers one masked probe scatter with the machine's ELS auditor. An
/// audited slot may legitimately read back as any competing key *or* as its
/// pre-scatter content — a dropped write is survivable here (the key simply
/// walks on to its next probe slot) and must not escalate — so both are
/// noted as acceptable; an amalgam or phantom value is still flagged. No-op
/// (and free) when the auditor is off.
fn audit_masked_probe_scatter(
    m: &mut Machine,
    table: Region,
    hv: &fol_vm::VReg,
    key_v: &fol_vm::VReg,
    slots: &fol_vm::VReg,
    empty: &fol_vm::Mask,
) {
    if m.els_auditor().is_none() {
        return;
    }
    let audit_hv = m.compress(hv, empty);
    let audit_keys = m.compress(key_v, empty);
    let audit_slots = m.compress(slots, empty);
    let note_idx = m.vconcat(&audit_hv, &audit_hv);
    let note_vals = m.vconcat(&audit_keys, &audit_slots);
    m.audit_note_scatter(table, &note_idx, &note_vals);
}

/// The iteration budget [`txn_insert_all`] and [`vectorized_insert_all`]
/// hand to the fallible loop: generous enough that no healthy (or
/// recoverable) run ever trips it.
fn default_budget(table: Region, keys: &[Word]) -> usize {
    2 * table.len() + keys.len()
}

/// The post-condition of one insert attempt, checked from the open
/// transaction's journal at a cost proportional to the batch: every
/// journaled slot either keeps its pre-image or went from [`UNENTERED`] to
/// a batch key, the changed slots hold exactly `keys`, and each key is
/// found by its probe walk, which reads only the slots it probes.
///
/// Equivalence with the whole-table check ([`whole_table_accepts`]): slots
/// no store reached are unchanged, so the stored multiset is the old one
/// plus exactly `keys`, and the probe walks are the same walks. The check
/// is stricter only where the old one was blind, such as a reused
/// tombstone (insertion never writes a slot it probed while occupied). On
/// acceptance every slot it read was
/// stored to or probed by the attempt, hence inside the footprint the
/// pre-commit scrub verifies — no copy of the table is made.
fn insert_landed_exactly(m: &Machine, table: Region, keys: &[Word], probe: ProbeStrategy) -> bool {
    let Some(journal) = m.txn_journal() else {
        return false;
    };
    let mem = m.mem();
    let mut entered = Vec::with_capacity(keys.len());
    for addr in journal.addrs().filter(|&a| table.contains(a)) {
        let now = mem.read(addr);
        match journal.pre_image(addr) {
            Some(pre) if pre == now => {}
            Some(UNENTERED) => entered.push(now),
            _ => return false,
        }
    }
    let mut want = keys.to_vec();
    want.sort_unstable();
    entered.sort_unstable();
    // The probe walks read the table in place: a view, not a copy.
    let slots = &mem.words()[table.base()..table.base() + table.len()];
    entered == want && keys.iter().all(|&k| contains(slots, k, probe))
}

/// The whole-table reference oracle the footprint-scoped post-condition
/// ([`insert_landed_exactly`]) is tested against: the stored multiset of
/// `post` equals `before` plus `keys`, and every key is reachable along its
/// probe chain.
#[cfg(test)]
fn whole_table_accepts(
    before: &[Word],
    post: &[Word],
    keys: &[Word],
    probe: ProbeStrategy,
) -> bool {
    let mut expected = stored_keys(before);
    expected.extend_from_slice(keys);
    expected.sort_unstable();
    stored_keys(post) == expected && keys.iter().all(|&k| contains(post, k, probe))
}

/// Transactional multiple insertion: every attempt runs inside a machine
/// transaction, bounded by an iteration budget, and checked end-to-end —
/// the stored multiset must equal the old contents plus `keys` and every
/// key must be reachable along its probe chain (`insert_landed_exactly`,
/// which reads only what the attempt touched). A failed attempt rolls
/// back byte-exact and escalates along the [`RetryPolicy`] ladder:
/// `Vector` → `DegradedVector` (the same loop with quarantined lanes
/// masked out) → `ScalarTail` ([`scalar_insert_all`], immune to every
/// scatter fault).
///
/// # Panics
/// Panics on the same contract violations as [`vectorized_insert_all`]
/// (empty table, more keys than slots, duplicate keys) — checked before
/// the transaction opens — or if a transaction is already open on `m`.
pub fn txn_insert_all(
    m: &mut Machine,
    table: Region,
    keys: &[Word],
    probe: ProbeStrategy,
    policy: &RetryPolicy,
) -> Result<(InsertReport, RecoveryReport), RecoveryError> {
    validate_keys(keys, table.len() as Word, probe);
    // Checksum-track the table so resident bit-rot in stored keys is caught
    // by the supervisor's pre-commit scrub, never certified as a clean
    // insert. A no-op once tracked.
    m.track_region(table);
    let budget = default_budget(table, keys);

    run_transaction(m, policy, |m, mode| {
        let report = match mode {
            ExecMode::Vector => try_vectorized_insert_all(m, table, keys, probe, budget)?,
            ExecMode::DegradedVector { quarantined } | ExecMode::VerifiedReplay { quarantined } => {
                with_lane_mask(m, quarantined, |m| {
                    try_vectorized_insert_all(m, table, keys, probe, budget)
                })?
            }
            ExecMode::ForcedSequential | ExecMode::ScalarTail => {
                scalar_insert_all(m, table, keys, probe)
            }
        };
        if !insert_landed_exactly(m, table, keys, probe) {
            return Err(FolError::PostConditionFailed {
                what: "open addressing stored keys",
            });
        }
        Ok(report)
    })
}

/// The admission verdict for one group against the batch assembled so far;
/// `None` admits. Everything here is host-visible arithmetic — no machine
/// state is touched, so a rejected group costs nothing.
fn group_admission_verdict(
    group: &[Word],
    planned: usize,
    free: usize,
    batch_keys: &std::collections::HashSet<Word>,
) -> Option<String> {
    if planned + group.len() > free {
        return Some(format!(
            "table full: group of {} keys, {planned} of {free} free slots already planned",
            group.len()
        ));
    }
    let mut local = std::collections::HashSet::new();
    for &k in group {
        if k < 0 {
            return Some(format!(
                "negative key {k}: open addressing stores keys as labels"
            ));
        }
        if !local.insert(k) {
            return Some(format!("duplicate key {k} within the group"));
        }
        if batch_keys.contains(&k) {
            return Some(format!(
                "key {k} already admitted by a sibling group in this batch"
            ));
        }
    }
    None
}

/// Coalesced multi-request insertion with per-group outcomes: each element
/// of `groups` is one caller's independent key batch, and the whole admitted
/// set enters by **one** [`txn_insert_all`] transaction over the
/// concatenated keys.
///
/// Admission is greedy and host-side: a group is refused typed
/// ([`GroupError::Rejected`]) — before any transaction opens — when it holds
/// a negative or internally-duplicated key, collides with a key already
/// admitted from a sibling group (keys are labels; the distinctness contract
/// is per coalesced vector), or would overflow the table's free slots.
/// What admission deliberately does *not* check is the machine-resident
/// table: a group re-inserting an already-stored key passes admission, fails
/// its transaction's post-condition at runtime, and is isolated by
/// [`split_retry`] bisection — the adversarial-key case the chaos suite
/// exercises. A single such group costs `O(log n)` extra transactions and
/// cannot poison its siblings.
///
/// Returns one outcome per input group, in order; an `Ok` carries the
/// [`InsertReport`] of the (possibly shared) transaction that landed the
/// group.
///
/// # Panics
/// Panics on table-level contract violations (empty table, key-dependent
/// probing on a table of ≤ 32 slots) or if a transaction is already open.
pub fn txn_insert_groups<G: AsRef<[Word]>>(
    m: &mut Machine,
    table: Region,
    groups: &[G],
    probe: ProbeStrategy,
    policy: &RetryPolicy,
) -> Vec<Result<InsertReport, GroupError>> {
    let size = table.len() as Word;
    assert!(size > 0, "empty table");
    if probe == ProbeStrategy::KeyDependent {
        assert!(size > 32, "key-dependent probing requires size(table) > 32");
    }
    let free = m
        .mem()
        .read_region(table)
        .iter()
        .filter(|&&w| w == UNENTERED)
        .count();
    let mut admitted: Vec<usize> = Vec::new();
    let mut batch_keys = std::collections::HashSet::new();
    let mut planned = 0usize;
    let mut out: Vec<Option<Result<InsertReport, GroupError>>> = vec![None; groups.len()];
    for (i, g) in groups.iter().map(AsRef::as_ref).enumerate() {
        match group_admission_verdict(g, planned, free, &batch_keys) {
            Some(reason) => out[i] = Some(Err(GroupError::Rejected { reason })),
            None => {
                planned += g.len();
                batch_keys.extend(g.iter().copied());
                admitted.push(i);
            }
        }
    }
    let results = split_retry(&admitted, &mut |idxs: &[usize]| {
        let keys: Vec<Word> = idxs
            .iter()
            .flat_map(|&i| groups[i].as_ref().iter().copied())
            .collect();
        txn_insert_all(m, table, &keys, probe, policy).map(|(report, _)| report)
    });
    for (&slot, r) in admitted.iter().zip(results) {
        out[slot] = Some(r.map_err(GroupError::from));
    }
    out.into_iter()
        .map(|o| o.expect("every group has an outcome"))
        .collect()
}

/// Tombstone marking a deleted slot: occupied for probing purposes (lookups
/// walk past it) but never equal to a key. Insertion does not reuse
/// tombstones — that keeps the "never write a slot probed while occupied"
/// invariant that makes lookups sound.
pub const TOMBSTONE: Word = -2;

/// Vectorized multiple lookup: for each key, walk its probe chain with
/// lock-step gathers until every key has hit itself or an `unentered` slot.
/// Returns one bool per key. Lookups are read-only, so no FOL is needed —
/// this is the SIVP case (Fig 2b) the paper contrasts FOL against.
pub fn vectorized_lookup_all(
    m: &mut Machine,
    table: Region,
    keys: &[Word],
    probe: ProbeStrategy,
) -> Vec<bool> {
    let size = table.len() as Word;
    assert!(size > 0, "empty table");
    if keys.is_empty() {
        return Vec::new();
    }
    let n = keys.len();
    let mut found = vec![false; n];
    let mut key_v = m.vimm(keys);
    let mut hv = m.valu_s(AluOp::Mod, &key_v, size);
    let mut positions = m.iota(0, n);

    for _ in 0..table.len() {
        if key_v.is_empty() {
            break;
        }
        let slots = m.gather(table, &hv);
        let hit = m.vcmp(CmpOp::Eq, &slots, &key_v);
        let miss = m.vcmp_s(CmpOp::Eq, &slots, UNENTERED);
        for (i, f) in hit.iter().enumerate() {
            if f {
                found[positions.get(i) as usize] = true;
            }
        }
        let resolved = m.mask_or(&hit, &miss);
        let active = m.mask_not(&resolved);
        key_v = m.compress(&key_v, &active);
        hv = m.compress(&hv, &active);
        positions = m.compress(&positions, &active);
        if key_v.is_empty() {
            break;
        }
        // Advance the survivors' probes.
        hv = match probe {
            ProbeStrategy::Linear => {
                let inc = m.valu_s(AluOp::Add, &hv, 1);
                m.valu_s(AluOp::Mod, &inc, size)
            }
            ProbeStrategy::KeyDependent => {
                let step = m.valu_s(AluOp::And, &key_v, 31);
                let step = m.valu_s(AluOp::Add, &step, 1);
                let sum = m.valu(AluOp::Add, &hv, &step);
                m.valu_s(AluOp::Mod, &sum, size)
            }
        };
    }
    found
}

/// Vectorized multiple deletion: locate each key with the lock-step walk
/// and scatter [`TOMBSTONE`] over the hits. Distinct keys occupy distinct
/// slots, so the scatter is conflict-free and no FOL pass is needed.
/// Returns one bool per key: whether it was present (and is now deleted).
pub fn vectorized_delete_all(
    m: &mut Machine,
    table: Region,
    keys: &[Word],
    probe: ProbeStrategy,
) -> Vec<bool> {
    let size = table.len() as Word;
    assert!(size > 0, "empty table");
    if keys.is_empty() {
        return Vec::new();
    }
    let n = keys.len();
    let mut deleted = vec![false; n];
    let mut key_v = m.vimm(keys);
    let mut hv = m.valu_s(AluOp::Mod, &key_v, size);
    let mut positions = m.iota(0, n);

    for _ in 0..table.len() {
        if key_v.is_empty() {
            break;
        }
        let slots = m.gather(table, &hv);
        let hit = m.vcmp(CmpOp::Eq, &slots, &key_v);
        // Tombstone the hits (conflict-free: keys are distinct).
        let hit_slots = m.compress(&hv, &hit);
        let stones = m.vsplat(TOMBSTONE, hit_slots.len());
        m.scatter(table, &hit_slots, &stones);
        let miss = m.vcmp_s(CmpOp::Eq, &slots, UNENTERED);
        for (i, f) in hit.iter().enumerate() {
            if f {
                deleted[positions.get(i) as usize] = true;
            }
        }
        let resolved = m.mask_or(&hit, &miss);
        let active = m.mask_not(&resolved);
        key_v = m.compress(&key_v, &active);
        hv = m.compress(&hv, &active);
        positions = m.compress(&positions, &active);
        if key_v.is_empty() {
            break;
        }
        hv = match probe {
            ProbeStrategy::Linear => {
                let inc = m.valu_s(AluOp::Add, &hv, 1);
                m.valu_s(AluOp::Mod, &inc, size)
            }
            ProbeStrategy::KeyDependent => {
                let step = m.valu_s(AluOp::And, &key_v, 31);
                let step = m.valu_s(AluOp::Add, &step, 1);
                let sum = m.valu(AluOp::Add, &hv, &step);
                m.valu_s(AluOp::Mod, &sum, size)
            }
        };
    }
    deleted
}

/// Follows `key`'s probe chain in a table snapshot; true when present.
///
/// Works for both insertion algorithms because neither ever writes a key
/// into a slot it probed while occupied, so a chain walk that meets
/// `unentered` proves absence.
pub fn contains(table: &[Word], key: Word, probe: ProbeStrategy) -> bool {
    let size = table.len() as Word;
    let mut h = hash_mod(key, size);
    for _ in 0..table.len() {
        let slot = table[h as usize];
        if slot == key {
            return true;
        }
        if slot == UNENTERED {
            return false;
        }
        h = probe.next(h, key, size);
    }
    false
}

/// The multiset of keys stored in a table snapshot (order unspecified);
/// skips empty slots and tombstones.
pub fn stored_keys(table: &[Word]) -> Vec<Word> {
    let mut keys: Vec<Word> = table
        .iter()
        .copied()
        .filter(|&w| w != UNENTERED && w != TOMBSTONE)
        .collect();
    keys.sort_unstable();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use fol_vm::{ConflictPolicy, CostModel};

    fn machine() -> Machine {
        Machine::new(CostModel::s810())
    }

    fn run_vectorized(
        keys: &[Word],
        size: usize,
        probe: ProbeStrategy,
        policy: ConflictPolicy,
    ) -> (Vec<Word>, InsertReport) {
        let mut m = Machine::with_policy(CostModel::unit(), policy);
        let table = m.alloc(size, "table");
        init_table(&mut m, table);
        let r = vectorized_insert_all(&mut m, table, keys, probe);
        (m.mem().read_region(table), r)
    }

    #[test]
    fn scalar_inserts_all_keys() {
        let mut m = machine();
        let table = m.alloc(37, "table");
        init_table(&mut m, table);
        let keys: Vec<Word> = vec![5, 42, 79, 116, 7, 0];
        let r = scalar_insert_all(&mut m, table, &keys, ProbeStrategy::KeyDependent);
        let snap = m.mem().read_region(table);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(stored_keys(&snap), sorted);
        for &k in &keys {
            assert!(contains(&snap, k, ProbeStrategy::KeyDependent));
        }
        assert!(!contains(&snap, 1000, ProbeStrategy::KeyDependent));
        assert!(r.probes >= keys.len() as u64);
    }

    #[test]
    fn vectorized_no_collisions_single_iteration() {
        // Distinct hash slots -> Theorem 3's M = 1.
        let keys: Vec<Word> = vec![1, 2, 3, 4];
        let (snap, r) = run_vectorized(
            &keys,
            37,
            ProbeStrategy::KeyDependent,
            ConflictPolicy::LastWins,
        );
        assert_eq!(r.iterations, 1);
        assert_eq!(stored_keys(&snap), keys);
    }

    #[test]
    fn vectorized_with_collisions_enters_everything() {
        // 5, 42, 79, 116 all hash to 5 mod 37.
        let keys: Vec<Word> = vec![5, 42, 79, 116, 7];
        for policy in [
            ConflictPolicy::FirstWins,
            ConflictPolicy::LastWins,
            ConflictPolicy::Arbitrary(11),
        ] {
            let (snap, r) = run_vectorized(&keys, 37, ProbeStrategy::KeyDependent, policy.clone());
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            assert_eq!(stored_keys(&snap), sorted, "{policy:?}");
            assert!(r.iterations > 1, "{policy:?}: collisions need retries");
            for &k in &keys {
                assert!(
                    contains(&snap, k, ProbeStrategy::KeyDependent),
                    "{policy:?} key {k}"
                );
            }
        }
    }

    #[test]
    fn linear_probe_also_correct() {
        let keys: Vec<Word> = vec![0, 37, 74, 111, 3];
        let (snap, _) = run_vectorized(
            &keys,
            37,
            ProbeStrategy::Linear,
            ConflictPolicy::Arbitrary(3),
        );
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(stored_keys(&snap), sorted);
        for &k in &keys {
            assert!(contains(&snap, k, ProbeStrategy::Linear));
        }
    }

    #[test]
    fn scalar_and_vectorized_store_same_key_set() {
        let keys: Vec<Word> = (0..40).map(|i| i * 13 + 1).collect();
        let mut m1 = machine();
        let t1 = m1.alloc(101, "table");
        init_table(&mut m1, t1);
        let _ = scalar_insert_all(&mut m1, t1, &keys, ProbeStrategy::KeyDependent);
        let mut m2 = machine();
        let t2 = m2.alloc(101, "table");
        init_table(&mut m2, t2);
        let _ = vectorized_insert_all(&mut m2, t2, &keys, ProbeStrategy::KeyDependent);
        assert_eq!(
            stored_keys(&m1.mem().read_region(t1)),
            stored_keys(&m2.mem().read_region(t2))
        );
    }

    #[test]
    fn vectorized_is_cheaper_in_modelled_cycles_at_scale() {
        // The headline claim at a favourable load factor (~0.5).
        let size = 521;
        let keys: Vec<Word> = (0..260).map(|i| i * 7919 + 3).collect();
        let mut ms = Machine::new(CostModel::s810());
        let ts = ms.alloc(size, "table");
        init_table(&mut ms, ts);
        ms.reset_stats();
        let _ = scalar_insert_all(&mut ms, ts, &keys, ProbeStrategy::KeyDependent);
        let scalar_cycles = ms.stats().cycles();

        let mut mv = Machine::new(CostModel::s810());
        let tv = mv.alloc(size, "table");
        init_table(&mut mv, tv);
        mv.reset_stats();
        let _ = vectorized_insert_all(&mut mv, tv, &keys, ProbeStrategy::KeyDependent);
        let vector_cycles = mv.stats().cycles();

        assert!(
            vector_cycles * 2 < scalar_cycles,
            "expected >2x modelled speedup, got scalar {scalar_cycles} vs vector {vector_cycles}"
        );
    }

    #[test]
    fn empty_key_set_is_noop() {
        let (snap, r) = run_vectorized(
            &[],
            37,
            ProbeStrategy::KeyDependent,
            ConflictPolicy::LastWins,
        );
        assert_eq!(r.iterations, 0);
        assert!(stored_keys(&snap).is_empty());
    }

    #[test]
    #[should_panic(expected = "more keys than table slots")]
    fn overfull_panics() {
        let keys: Vec<Word> = (0..40).collect();
        let _ = run_vectorized(
            &keys,
            33,
            ProbeStrategy::KeyDependent,
            ConflictPolicy::LastWins,
        );
    }

    #[test]
    #[should_panic(expected = "size(table) > 32")]
    fn key_dependent_needs_big_table() {
        let _ = run_vectorized(
            &[1],
            16,
            ProbeStrategy::KeyDependent,
            ConflictPolicy::LastWins,
        );
    }

    #[test]
    fn vectorized_lookup_finds_present_and_rejects_absent() {
        let keys: Vec<Word> = (0..60).map(|i| i * 17 + 2).collect();
        let mut m = machine();
        let t = m.alloc(127, "table");
        init_table(&mut m, t);
        let _ = vectorized_insert_all(&mut m, t, &keys, ProbeStrategy::KeyDependent);
        let probes: Vec<Word> = keys.iter().copied().chain([5000, 5001, 5002]).collect();
        let found = vectorized_lookup_all(&mut m, t, &probes, ProbeStrategy::KeyDependent);
        assert!(found[..60].iter().all(|&f| f));
        assert!(found[60..].iter().all(|&f| !f));
    }

    #[test]
    fn vectorized_delete_tombstones_and_lookups_survive() {
        let keys: Vec<Word> = (0..40).map(|i| i * 13 + 1).collect();
        let mut m = machine();
        let t = m.alloc(101, "table");
        init_table(&mut m, t);
        let _ = vectorized_insert_all(&mut m, t, &keys, ProbeStrategy::KeyDependent);
        // Delete every other key.
        let victims: Vec<Word> = keys.iter().copied().step_by(2).collect();
        let deleted = vectorized_delete_all(&mut m, t, &victims, ProbeStrategy::KeyDependent);
        assert!(deleted.iter().all(|&d| d));
        // Deleted keys gone; survivors still reachable past tombstones.
        let found = vectorized_lookup_all(&mut m, t, &keys, ProbeStrategy::KeyDependent);
        for (i, &f) in found.iter().enumerate() {
            assert_eq!(f, i % 2 == 1, "key index {i}");
        }
        let snap = m.mem().read_region(t);
        let survivors: Vec<Word> = keys.iter().copied().skip(1).step_by(2).collect();
        assert_eq!(stored_keys(&snap), survivors);
        // Deleting an absent key reports false.
        let again = vectorized_delete_all(&mut m, t, &[victims[0]], ProbeStrategy::KeyDependent);
        assert!(!again[0]);
    }

    #[test]
    fn lookup_on_empty_table_and_empty_keys() {
        let mut m = machine();
        let t = m.alloc(37, "table");
        init_table(&mut m, t);
        assert!(vectorized_lookup_all(&mut m, t, &[], ProbeStrategy::Linear).is_empty());
        let found = vectorized_lookup_all(&mut m, t, &[7], ProbeStrategy::Linear);
        assert_eq!(found, vec![false]);
    }

    #[test]
    fn try_insert_budget_stops_a_faulty_scatter_path() {
        // Near-total dropped lanes: almost no key is ever entered, and an
        // unbounded loop would spin for tens of thousands of iterations. The
        // budget converts that into a typed error.
        let mut m = machine();
        m.set_fault_plan(Some(fol_vm::FaultPlan::dropped_lanes(7, 65535)));
        let t = m.alloc(37, "table");
        init_table(&mut m, t);
        let err = try_vectorized_insert_all(&mut m, t, &[1, 2, 3], ProbeStrategy::Linear, 20)
            .unwrap_err();
        assert!(matches!(
            err,
            FolError::RoundBudgetExceeded {
                budget: 20,
                live: 3,
                ..
            }
        ));
    }

    #[test]
    #[should_panic(expected = "round budget 77 exhausted")]
    fn vectorized_insert_inherits_the_transactional_budget() {
        // The same faulty scatter path as above: the paper's entry point
        // stops at `txn_insert_all`'s budget (2 * 37 + 3) instead of running
        // until a lane happens to land.
        let mut m = machine();
        m.set_fault_plan(Some(fol_vm::FaultPlan::dropped_lanes(7, 65535)));
        let t = m.alloc(37, "table");
        init_table(&mut m, t);
        let _ = vectorized_insert_all(&mut m, t, &[1, 2, 3], ProbeStrategy::Linear);
    }

    #[test]
    fn txn_insert_clean_run_is_one_attempt() {
        let keys: Vec<Word> = (0..30).map(|i| i * 17 + 2).collect();
        let mut m = machine();
        let t = m.alloc(101, "table");
        init_table(&mut m, t);
        let (report, rec) = txn_insert_all(
            &mut m,
            t,
            &keys,
            ProbeStrategy::KeyDependent,
            &RetryPolicy::default(),
        )
        .expect("clean run");
        assert_eq!(rec.attempts, 1);
        assert!(report.iterations >= 1);
        let mut expect = keys;
        expect.sort_unstable();
        assert_eq!(stored_keys(&m.mem().read_region(t)), expect);
    }

    #[test]
    fn txn_insert_recovers_from_hostile_scatter_faults() {
        let keys: Vec<Word> = (0..24).map(|i| i * 5 + 1).collect();
        let mut m = machine();
        m.set_fault_plan(Some(
            fol_vm::FaultPlan::dropped_lanes(13, 30000)
                .with_torn_writes(30000, fol_vm::AmalgamMode::Or),
        ));
        let t = m.alloc(67, "table");
        init_table(&mut m, t);
        let (_, rec) = txn_insert_all(
            &mut m,
            t,
            &keys,
            ProbeStrategy::KeyDependent,
            &RetryPolicy::default(),
        )
        .expect("ladder rescues");
        assert!(rec.recovered());
        let snap = m.mem().read_region(t);
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(stored_keys(&snap), expect, "no amalgam junk, no lost key");
        for &k in &keys {
            assert!(
                contains(&snap, k, ProbeStrategy::KeyDependent),
                "key {k} reachable"
            );
        }
    }

    #[test]
    fn txn_insert_exhaustion_restores_the_table_byte_exact() {
        let mut m = machine();
        let t = m.alloc(37, "table");
        init_table(&mut m, t);
        let _ = scalar_insert_all(&mut m, t, &[9, 10], ProbeStrategy::Linear);
        let before = m.mem().read_region(t);

        m.set_fault_plan(Some(fol_vm::FaultPlan::dropped_lanes(4, 65535)));
        let mut policy = RetryPolicy::vector_only(2);
        policy.reseed = false;
        let err =
            txn_insert_all(&mut m, t, &[1, 2, 3], ProbeStrategy::Linear, &policy).unwrap_err();
        assert_eq!(err.report().attempts, 2);
        assert_eq!(m.mem().read_region(t), before, "rollback is byte-exact");
        assert!(!m.in_txn());
    }

    #[test]
    fn txn_insert_groups_coalesces_and_reports_per_group() {
        let mut m = machine();
        let t = m.alloc(101, "table");
        init_table(&mut m, t);
        let groups: Vec<Vec<Word>> = vec![vec![1, 12], vec![], vec![23, 34, 45]];
        let outs = txn_insert_groups(
            &mut m,
            t,
            &groups,
            ProbeStrategy::KeyDependent,
            &RetryPolicy::default(),
        );
        assert!(outs.iter().all(Result::is_ok));
        assert_eq!(
            stored_keys(&m.mem().read_region(t)),
            vec![1, 12, 23, 34, 45]
        );
    }

    #[test]
    fn txn_insert_groups_admission_rejects_malformed_groups_typed() {
        let mut m = machine();
        let t = m.alloc(101, "table");
        init_table(&mut m, t);
        let groups: Vec<Vec<Word>> = vec![
            vec![1, 2],
            vec![-5],     // negative key
            vec![7, 7],   // duplicate within the group
            vec![2, 9],   // collides with an admitted sibling (key 2)
            vec![30, 31], // clean: must still be admitted
        ];
        let outs = txn_insert_groups(
            &mut m,
            t,
            &groups,
            ProbeStrategy::KeyDependent,
            &RetryPolicy::default(),
        );
        assert!(outs[0].is_ok());
        for (i, needle) in [
            (1, "negative key"),
            (2, "duplicate key"),
            (3, "already admitted"),
        ] {
            assert!(
                matches!(&outs[i], Err(GroupError::Rejected { reason }) if reason.contains(needle)),
                "group {i} verdict: {:?}",
                outs[i]
            );
        }
        assert!(outs[4].is_ok(), "rejections must not block clean siblings");
        assert_eq!(stored_keys(&m.mem().read_region(t)), vec![1, 2, 30, 31]);
    }

    #[test]
    fn txn_insert_groups_bisection_isolates_a_stored_key_collision() {
        // Key 777 is already *stored* — admission cannot see that (it only
        // inspects the batch), so the coalesced transaction fails its
        // post-condition and bisection must pin the blame on group 1 alone.
        let mut m = machine();
        let t = m.alloc(101, "table");
        init_table(&mut m, t);
        let _ = scalar_insert_all(&mut m, t, &[777], ProbeStrategy::KeyDependent);
        let mut policy = RetryPolicy::vector_only(2);
        policy.reseed = false;
        let groups: Vec<Vec<Word>> = vec![vec![1, 2], vec![777], vec![3, 4], vec![5]];
        let outs = txn_insert_groups(&mut m, t, &groups, ProbeStrategy::KeyDependent, &policy);
        assert!(outs[0].is_ok());
        assert!(
            matches!(&outs[1], Err(GroupError::Recovery(_))),
            "the re-inserting group fails its own isolated transaction"
        );
        assert!(
            outs[2].is_ok() && outs[3].is_ok(),
            "siblings are not poisoned"
        );
        assert_eq!(
            stored_keys(&m.mem().read_region(t)),
            vec![1, 2, 3, 4, 5, 777],
            "everything but the bad group landed, exactly once"
        );
        assert!(!m.in_txn());
    }

    #[test]
    fn txn_insert_groups_respects_free_slot_budget() {
        // 37 slots, 35 free after preload: a 30-key group plus a 10-key
        // group cannot both be admitted.
        let mut m = machine();
        let t = m.alloc(37, "table");
        init_table(&mut m, t);
        let _ = scalar_insert_all(&mut m, t, &[100, 101], ProbeStrategy::Linear);
        let g0: Vec<Word> = (0..30).collect();
        let g1: Vec<Word> = (200..210).collect();
        let g2: Vec<Word> = (300..303).collect();
        let outs = txn_insert_groups(
            &mut m,
            t,
            &[g0, g1, g2],
            ProbeStrategy::Linear,
            &RetryPolicy::default(),
        );
        assert!(outs[0].is_ok());
        assert!(
            matches!(&outs[1], Err(GroupError::Rejected { reason }) if reason.contains("table full"))
        );
        assert!(outs[2].is_ok(), "a smaller later group still fits");
    }

    #[test]
    fn full_table_linear_probe_terminates() {
        // Load factor 1.0: every slot ends up filled.
        let keys: Vec<Word> = (0..33).collect();
        let (snap, _) = run_vectorized(
            &keys,
            33,
            ProbeStrategy::Linear,
            ConflictPolicy::Arbitrary(1),
        );
        assert_eq!(stored_keys(&snap).len(), 33);
    }

    /// One attempt's post-state judged by both post-conditions: runs the
    /// vector insert of `keys` inside a transaction, lets `corrupt` edit the
    /// post-state through the store path, and returns `(footprint check,
    /// whole-table check)` — or `None` when the attempt itself failed. The
    /// transaction is rolled back and rot repaired, so calls chain.
    fn verdicts(
        m: &mut Machine,
        table: Region,
        keys: &[Word],
        corrupt: impl FnOnce(&mut Machine),
    ) -> Option<(bool, bool)> {
        let probe = ProbeStrategy::KeyDependent;
        let before = m.mem().read_region(table);
        m.begin_txn().unwrap();
        let ran = try_vectorized_insert_all(m, table, keys, probe, default_budget(table, keys));
        let out = ran.ok().map(|_| {
            corrupt(m);
            let new = insert_landed_exactly(m, table, keys, probe);
            let old = whole_table_accepts(&before, &m.mem().read_region(table), keys, probe);
            (new, old)
        });
        m.abort_txn().unwrap();
        m.repair_from_image();
        out
    }

    /// A 67-slot table holding 20 keys and one tombstone (slot 40), tracked.
    fn loaded_table(m: &mut Machine) -> Region {
        let probe = ProbeStrategy::KeyDependent;
        let table = m.alloc(67, "table");
        init_table(m, table);
        let pre: Vec<Word> = (0..20).map(|i| i * 11 + 2).chain([40]).collect();
        vectorized_insert_all(m, table, &pre, probe);
        assert_eq!(vectorized_delete_all(m, table, &[40], probe), vec![true]);
        m.track_region(table);
        table
    }

    #[test]
    fn footprint_check_accepts_only_what_the_whole_table_check_accepts() {
        let mut m = machine();
        let table = loaded_table(&mut m);
        let probe = ProbeStrategy::KeyDependent;
        // 107 hashes to the tombstone's slot 40.
        let keys = vec![107, 300, 301];
        let slot_of = move |m: &Machine, k: Word| {
            (0..67)
                .find(|&i| m.mem().read(table.at(i)) == k)
                .expect("stored")
        };
        type Edit = Box<dyn Fn(&mut Machine)>;
        let cases: Vec<(&str, Edit)> = vec![
            ("clean", Box::new(|_| {})),
            (
                "overwritten stored key",
                Box::new(move |m| {
                    let victim = slot_of(m, 13);
                    m.s_write(table.at(victim), 300);
                }),
            ),
            (
                "reused tombstone",
                Box::new(move |m| {
                    let landed = slot_of(m, 107);
                    m.s_write(table.at(landed), UNENTERED);
                    m.s_write(table.at(40), 107);
                }),
            ),
            (
                "key entered off its probe chain",
                Box::new(move |m| {
                    let landed = slot_of(m, 301);
                    let free = (0..67)
                        .rev()
                        .find(|&i| m.mem().read(table.at(i)) == UNENTERED)
                        .expect("free slot");
                    m.s_write(table.at(landed), UNENTERED);
                    m.s_write(table.at(free), 301);
                }),
            ),
            (
                "dropped key",
                Box::new(move |m| {
                    let landed = slot_of(m, 300);
                    m.s_write(table.at(landed), UNENTERED);
                }),
            ),
        ];
        for (name, edit) in cases {
            let (new, old) = verdicts(&mut m, table, &keys, edit).expect("healthy attempt");
            assert!(
                !new || old,
                "{name}: footprint check accepted what the oracle refuses"
            );
            assert_eq!(new, name == "clean", "{name}");
        }
        assert!(
            contains(&m.mem().read_region(table), 13, probe),
            "rolled back"
        );
        // Random store-path edits of any slot.
        let mut s = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..400 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let addr = table.at((s >> 8) as usize % 67);
            let value = [UNENTERED, TOMBSTONE, 107, 300, 301, 13][(s % 6) as usize];
            let (new, old) = verdicts(&mut m, table, &keys, |m| m.s_write(addr, value))
                .expect("healthy attempt");
            assert!(
                !new || old,
                "random edit {s:#x} accepted by the footprint check only"
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
                FaultPlan::torn_writes(seed, 16000, AmalgamMode::Or),
                FaultPlan::gather_flips(seed, 4000),
                FaultPlan::benign(seed).with_stale_reads(8000),
                FaultPlan::benign(seed).with_torn_gathers(8000),
                FaultPlan::bit_rot(seed, 600),
                FaultPlan::bit_rot(seed, 300).with_gather_flips(2000),
            ];
            for plan in plans {
                let rot = plan.rot_rate_at(1) > 0;
                let mut m = machine();
                let table = loaded_table(&mut m);
                m.set_fault_plan(Some(plan));
                for round in 0..12 {
                    let keys: Vec<Word> = (0..8).map(|i| 500 + round * 40 + i * 3).collect();
                    let mut rotted = false;
                    let Some((new, old)) = verdicts(&mut m, table, &keys, |m| {
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
