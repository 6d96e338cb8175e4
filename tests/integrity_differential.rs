//! Differential integrity suite: the two independent corruption detectors —
//! journal-layer [`Snapshot`]s (full byte copies) and integrity-layer
//! incremental checksums ([`Machine::checksum_of`] / [`Machine::scrub`]) —
//! must agree on every chaos cell and on hand-planted divergence.
//!
//! The detectors share no code: snapshots compare words, checksums compare
//! XOR-of-`mix` digests maintained incrementally on the store path. If they
//! ever disagree about whether a tracked region diverged, one of them is
//! lying, and the recovery ladder's repair decisions (restore from the
//! committed image) are built on sand. These tests sweep both the scatter-fault and the
//! corruption matrices and then probe the disagreement cases directly.

use fol_core::recover::RetryPolicy;
use fol_hash::chaining::{all_keys, txn_insert_all as txn_chain_insert, ChainTable};
use fol_sort::dist_count::txn_sort;
use fol_vm::{digest_words, AmalgamMode, CostModel, FaultPlan, Machine, Region, Snapshot, Word};

const SEEDS: [u64; 3] = [7, 99, 20260807];

/// Scatter-side and read-side/memory fault plans, swept together: the
/// detectors' agreement must hold regardless of which unit the faults hit.
fn all_plans(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("benign", FaultPlan::benign(seed)),
        ("drops-12%", FaultPlan::dropped_lanes(seed, 8000)),
        (
            "tears-12%",
            FaultPlan::torn_writes(seed, 8000, AmalgamMode::Or),
        ),
        ("gather-flips-12%", FaultPlan::gather_flips(seed, 8000)),
        (
            "stale-reads-12%",
            FaultPlan::benign(seed).with_stale_reads(8000),
        ),
        ("bit-rot-12%", FaultPlan::bit_rot(seed, 8000)),
        (
            "rot+drops-12%",
            FaultPlan::bit_rot(seed, 8000).with_drop_rate(8000),
        ),
    ]
}

fn keys_for(seed: u64, n: usize, modulus: Word) -> Vec<Word> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 16) as Word).rem_euclid(modulus)
        })
        .collect()
}

/// Asserts the post-transaction agreement invariant on `m`:
///
/// 1. `scrub()` is clean — whatever the transaction outcome, the machine is
///    never left holding undetected divergence (commit requires a clean
///    footprint scrub, and on these tables every tracked block lies in the
///    insert's footprint; a failed attempt repairs rotted blocks from the
///    committed image).
/// 2. Recomputing each tracked region's digest from memory via the public
///    [`digest_words`] reproduces `checksum_of` exactly — the incremental
///    sum maintained across every scatter/store equals the from-scratch sum.
/// 3. A [`Snapshot`] captured *now* matches memory and stays matching: the
///    byte-level view and the digest-level view describe the same state.
fn assert_detectors_agree(m: &Machine, cell: &str) {
    if let Err(e) = m.scrub() {
        panic!("{cell}: machine left with undetected divergence: {e}");
    }
    let tracked: Vec<Region> = m.tracked_regions().iter().map(|t| t.region).collect();
    assert!(!tracked.is_empty(), "{cell}: no tracked regions to compare");
    for r in &tracked {
        let recomputed = digest_words(r.base(), &m.mem().read_region(*r));
        assert_eq!(
            m.checksum_of(*r),
            Some(recomputed),
            "{cell}: incremental checksum diverged from from-scratch digest"
        );
    }
    let snap = Snapshot::capture(m.mem(), &tracked);
    assert!(snap.matches(m.mem()), "{cell}: snapshot self-check failed");
    assert!(snap.diff(m.mem()).is_empty(), "{cell}: snapshot diff dirty");
}

#[test]
fn detectors_agree_after_every_chaining_cell() {
    for seed in SEEDS {
        for (name, plan) in all_plans(seed) {
            let keys = keys_for(seed ^ 0xD1FF, 24, 500);
            let mut m = Machine::new(CostModel::unit());
            m.set_fault_plan(Some(plan));
            let mut t = ChainTable::alloc(&mut m, 11, 28);
            // Outcome (Ok or typed Err) is the chaos suite's concern; here
            // only the detector agreement afterwards matters.
            let _ = txn_chain_insert(&mut m, &mut t, &keys, &RetryPolicy::default());
            assert!(!m.in_txn());
            assert_detectors_agree(&m, &format!("chaining/{name}/{seed}"));
        }
    }
}

#[test]
fn detectors_agree_after_every_dist_count_cell() {
    for seed in SEEDS {
        for (name, plan) in all_plans(seed) {
            let data = keys_for(seed ^ 0x50FA, 40, 32);
            let mut m = Machine::new(CostModel::unit());
            m.set_fault_plan(Some(plan));
            let a = m.alloc(data.len(), "A");
            m.mem_mut().write_region(a, &data);
            let _ = txn_sort(&mut m, a, 32, &RetryPolicy::default());
            assert!(!m.in_txn());
            assert_detectors_agree(&m, &format!("dist_count/{name}/{seed}"));
        }
    }
}

/// Plants one out-of-band word behind the store path's back and checks both
/// detectors fire, agree on the location, and are both repaired by a
/// snapshot restore — without touching `resync_integrity`.
#[test]
fn planted_divergence_is_seen_by_both_detectors_at_the_same_address() {
    let mut m = Machine::new(CostModel::unit());
    let a = m.alloc(16, "planted");
    let data: Vec<Word> = (0..16).collect();
    m.mem_mut().write_region(a, &data);
    m.track_region(a);
    let snap = Snapshot::capture(m.mem(), &[a]);
    assert!(m.scrub().is_ok());

    let victim = a.base() + 9;
    let clean = m.mem().read(victim);
    m.mem_mut().write(victim, clean ^ 0b100); // the out-of-band bit flip

    // Detector 1: checksum scrub, with the right region named.
    let err = m.scrub().expect_err("scrub must flag the planted flip");
    let shown = err.to_string();
    assert!(
        shown.contains("planted"),
        "scrub error must name the region: {shown}"
    );
    // Detector 2: snapshot diff, with exactly the victim address.
    assert!(!snap.matches(m.mem()));
    assert_eq!(snap.diff(m.mem()), vec![victim]);

    // Restoring the snapshot repairs BOTH views: memory is byte-identical
    // to capture time, so the pre-corruption incremental sums hold again.
    snap.restore(m.mem_mut());
    assert!(m.scrub().is_ok(), "restore must satisfy the checksum view");
    assert!(snap.matches(m.mem()));
}

/// `resync_integrity` deliberately *breaks* the symmetry: it re-baselines
/// the checksums onto current memory (accepting the divergence as the new
/// truth) while an old snapshot still remembers the original bytes. That
/// asymmetry is what the recovery ladder relies on — resync after restore,
/// never instead of it — so pin it down.
#[test]
fn resync_accepts_divergence_that_snapshots_still_see() {
    let mut m = Machine::new(CostModel::unit());
    let a = m.alloc(8, "resync");
    m.mem_mut().write_region(a, &[5; 8]);
    m.track_region(a);
    let snap = Snapshot::capture(m.mem(), &[a]);

    m.mem_mut().write(a.base() + 3, 77);
    assert!(m.scrub().is_err());

    m.resync_integrity();
    assert!(m.scrub().is_ok(), "resync must adopt the current bytes");
    assert_eq!(
        snap.diff(m.mem()),
        vec![a.base() + 3],
        "the snapshot must still remember the original bytes"
    );
}

/// A transaction must not adopt rot that struck before it: neither the
/// supervisor's bracket nor the insert's region tracking may re-baseline
/// digests over the flipped key (which would leave the scrub clean and the
/// table holding `10` twice). The rotted block is either inside the batch's
/// footprint (the attempt fails its footprint scrub and is repaired from the
/// committed image before the retry) or outside it (left as a mismatch for
/// the scrub below); either way a full scrub and repair leave the keys
/// exact.
#[test]
fn a_transaction_never_adopts_rot_that_struck_before_it() {
    let mut m = Machine::new(CostModel::unit());
    let mut t = ChainTable::alloc(&mut m, 11, 32);
    let policy = RetryPolicy::default();
    txn_chain_insert(&mut m, &mut t, &[10, 11, 12, 13], &policy).expect("clean insert");
    let key_of_node_1 = t.arena.at(2);
    let w = m.mem().read(key_of_node_1);
    m.mem_mut().write(key_of_node_1, w ^ 1); // 11 rots into 10
    txn_chain_insert(&mut m, &mut t, &[20], &policy).expect("insert after rot");
    if m.scrub().is_err() {
        m.repair_from_image();
    }
    assert!(
        m.scrub().is_ok(),
        "repair leaves the machine checksum-clean"
    );
    assert_eq!(all_keys(&m, &t), vec![10, 11, 12, 13, 20]);
}
