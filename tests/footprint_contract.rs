//! The footprint contract on structures of many integrity blocks.
//!
//! A transaction's commit is certified by a scrub of its *footprint* — the
//! tracked blocks it stored to or read — not of every tracked word. These
//! cells pin the three promises that make that safe, on regions spanning
//! many [`BLOCK_WORDS`]-word blocks (the chaos matrices use tables small
//! enough that every block is in every footprint):
//!
//! * (a) rot in a block an attempt only *reads* is never certified;
//! * (b) rot outside the footprint is never adopted: it survives a commit
//!   only as a mismatch [`Machine::scrub`] reports, and repair from the
//!   committed image restores the oracle's contents;
//! * (c) checkpoint images cut after (b) hold the oracle's contents, because
//!   they are cut from the committed image, not from live memory.

use fol_core::recover::RetryPolicy;
use fol_hash::chaining::{all_keys, txn_insert_all as txn_chain_insert, ChainTable};
use fol_hash::open_addressing::{
    contains, init_table, stored_keys, txn_insert_all as txn_oa_insert,
};
use fol_hash::{hash_mod, ProbeStrategy, UNENTERED};
use fol_persist::{materialize, Checkpoint, DeltaCheckpoint};
use fol_vm::{CostModel, FaultPlan, Machine, Region, Word, BLOCK_WORDS};

const BUCKETS: usize = 16 * BLOCK_WORDS;
const CAPACITY: usize = 8 * BLOCK_WORDS;

fn tracked(m: &Machine) -> Vec<Region> {
    m.tracked_regions().iter().map(|t| t.region).collect()
}

/// A machine with a chain table of 16 head blocks and 16 arena blocks,
/// holding `keys`, built the same way every time (so a checkpoint of one
/// restores into another).
fn chain_machine(keys: &[Word]) -> (Machine, ChainTable) {
    let mut m = Machine::new(CostModel::unit());
    let mut t = ChainTable::alloc(&mut m, BUCKETS, CAPACITY);
    txn_chain_insert(&mut m, &mut t, keys, &RetryPolicy::default()).expect("clean insert");
    (m, t)
}

/// Flips `bit` of the word at `addr` behind the store path.
fn rot(m: &mut Machine, addr: usize, bit: u32) {
    let w = m.mem().read(addr);
    m.mem_mut().write(addr, w ^ (1 << bit));
}

fn sorted(mut keys: Vec<Word>) -> Vec<Word> {
    keys.sort_unstable();
    keys
}

#[test]
fn rot_in_a_block_the_attempt_only_reads_is_never_certified() {
    let probe = ProbeStrategy::KeyDependent;
    let mut m = Machine::new(CostModel::unit());
    let table = m.alloc(16 * BLOCK_WORDS, "oa.table");
    init_table(&mut m, table);
    let size = table.len() as Word;
    // A key whose first probe ends a block and whose second probe lands in
    // the next one: the attempt only reads the first slot's block.
    let key = (0..)
        .map(|i| 3 * BLOCK_WORDS as Word - 1 + i * size)
        .find(|&k| {
            let h = hash_mod(k, size);
            probe.next(h, k, size) / BLOCK_WORDS as Word != h / BLOCK_WORDS as Word
        })
        .expect("a key crossing a block boundary");
    let slot = table.at(hash_mod(key, size) as usize);
    txn_oa_insert(&mut m, table, &[], probe, &RetryPolicy::default()).expect("tracks the table");
    rot(&mut m, slot, 5); // UNENTERED now reads as a stored key
    let (_, report) =
        txn_oa_insert(&mut m, table, &[key], probe, &RetryPolicy::default()).expect("insert");
    assert!(report.corruption_detected >= 1, "{report}");
    assert!(
        report.attempts >= 2,
        "the attempt that read the rotted slot must not commit"
    );
    assert!(
        m.scrub().is_ok(),
        "the failed attempt's repair left the table clean"
    );
    let snap = m.mem().read_region(table);
    assert_eq!(
        snap[slot - table.base()],
        key,
        "after repair the key takes its home slot"
    );
    assert!(contains(&snap, key, probe));
    assert_eq!(
        stored_keys(&snap),
        vec![key],
        "no rotted word was adopted as a key"
    );
}

#[test]
fn planted_rot_outside_the_footprint_survives_only_as_a_scrub_mismatch() {
    let old: Vec<Word> = (0..40).map(|i| i * 3).collect();
    let (mut m, mut t) = chain_machine(&old);
    // Node 1's key sits in arena block 0; the batch's new nodes start at
    // node 40 (arena block 2) and its buckets are far from bucket 3.
    let victim = t.arena.at(2);
    rot(&mut m, victim, 0);
    let batch: Vec<Word> = (0..8).map(|i| 9 * BLOCK_WORDS as Word + i).collect();
    let (_, report) =
        txn_chain_insert(&mut m, &mut t, &batch, &RetryPolicy::default()).expect("insert");
    assert_eq!(
        report.attempts, 1,
        "rot the attempt never touched cannot fail it"
    );
    assert!(
        m.scrub().is_err(),
        "the rot survives as a mismatch the full scrub reports"
    );
    assert_eq!(
        m.committed_words(t.arena).expect("tracked")[2],
        3,
        "the committed image never received the rot"
    );
    let oracle = sorted(old.iter().chain(&batch).copied().collect());
    // (c) Images cut now load with the oracle's contents.
    images_hold_the_oracle(&m, &t, &oracle);
    assert!(m.repair_from_image() >= 1);
    assert!(m.scrub().is_ok());
    assert_eq!(all_keys(&m, &t), oracle);
}

/// Checks that a full image and a delta cut from `m` now both load into a
/// freshly built machine with the chain holding exactly `oracle`.
fn images_hold_the_oracle(m: &Machine, t: &ChainTable, oracle: &[Word]) {
    let counters = vec![("chain.used_nodes".to_string(), t.used_nodes as u64)];
    let full = Checkpoint::capture(m, &tracked(m), 2, counters.clone(), vec![]);
    let (mut fresh, mut ft) = chain_machine(&[]);
    let parent = Checkpoint::capture(&fresh, &tracked(&fresh), 1, vec![], vec![]);
    let delta = DeltaCheckpoint::capture(m, 2, 1, &parent.checksums, counters, vec![]);
    for (what, image) in [
        ("full image", full),
        (
            "delta on an empty parent",
            materialize(&parent, &[&delta]).expect("materializes"),
        ),
    ] {
        let image = Checkpoint::decode(&image.encode()).expect("round-trips");
        image.restore_into(&mut fresh);
        ft.used_nodes = t.used_nodes;
        assert_eq!(all_keys(&fresh, &ft), oracle, "{what}");
        assert!(fresh.scrub().is_ok(), "{what}");
    }
}

#[test]
fn rot_striking_during_a_commit_outside_its_footprint_is_never_adopted() {
    // A light bit-rot plan strikes every tracked word at each scatter with
    // a small probability: over many seeds some commit lands while rot sits
    // only in blocks its footprint never reached.
    let old: Vec<Word> = (0..64).map(|i| i * 5).collect();
    let mut survived = 0;
    for seed in 0..40u64 {
        let (mut m, mut t) = chain_machine(&old);
        m.set_fault_plan(Some(FaultPlan::bit_rot(seed, 24)));
        let batch: Vec<Word> = (0..16).map(|i| 1000 + i * 7 + seed as Word).collect();
        if txn_chain_insert(&mut m, &mut t, &batch, &RetryPolicy::default()).is_err() {
            continue;
        }
        m.set_fault_plan(None);
        let oracle = sorted(old.iter().chain(&batch).copied().collect());
        if m.scrub().is_err() {
            survived += 1;
            images_hold_the_oracle(&m, &t, &oracle);
            m.repair_from_image();
        }
        assert!(
            m.scrub().is_ok(),
            "seed {seed}: repair leaves the machine clean"
        );
        assert_eq!(
            all_keys(&m, &t),
            oracle,
            "seed {seed}: contents after repair"
        );
    }
    assert!(
        survived > 0,
        "no seed left rot outside a committed footprint"
    );
}

#[test]
fn open_addressing_rot_outside_the_footprint_is_repaired_not_stored() {
    let probe = ProbeStrategy::KeyDependent;
    let mut m = Machine::new(CostModel::unit());
    let table = m.alloc(16 * BLOCK_WORDS, "oa.table");
    init_table(&mut m, table);
    let old: Vec<Word> = (0..20).map(|i| i * 3).collect();
    txn_oa_insert(&mut m, table, &old, probe, &RetryPolicy::default()).expect("clean insert");
    let far = table.at(table.len() - 1); // an empty slot no key probes
    rot(&mut m, far, 5);
    let batch: Vec<Word> = (0..10).map(|i| 2 * BLOCK_WORDS as Word + i).collect();
    let (_, report) =
        txn_oa_insert(&mut m, table, &batch, probe, &RetryPolicy::default()).expect("insert");
    assert_eq!(report.attempts, 1);
    assert!(m.scrub().is_err());
    assert_eq!(
        m.committed_words(table).expect("tracked")[table.len() - 1],
        UNENTERED
    );
    m.repair_from_image();
    let snap = m.mem().read_region(table);
    assert_eq!(
        stored_keys(&snap),
        sorted(old.iter().chain(&batch).copied().collect())
    );
}
