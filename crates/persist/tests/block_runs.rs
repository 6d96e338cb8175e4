//! Version-2 images on the serving layer's per-worker chain geometry
//! (`ChainTable::alloc(1024, 1 << 17)`: a 2 MiB arena, 1024 heads and a
//! 1024-word work area, all tracked). A delta carries the blocks that
//! changed since its parent, and a full image leaves out the blocks that
//! are all zero, so both cost what the table holds and what a cadence
//! touched — not the size of the regions.

use fol_core::recover::RetryPolicy;
use fol_hash::chaining::{self, ChainTable};
use fol_persist::{materialize, Checkpoint, DeltaCheckpoint};
use fol_vm::{CostModel, Machine, Region, Word};

fn chain_machine() -> (Machine, ChainTable) {
    let mut m = Machine::new(CostModel::unit());
    let t = ChainTable::alloc(&mut m, 1024, 1 << 17);
    m.track_region(t.heads);
    m.track_region(t.arena);
    m.track_region(t.work);
    (m, t)
}

fn tracked(m: &Machine) -> Vec<Region> {
    m.tracked_regions().iter().map(|t| t.region).collect()
}

/// `n` distinct keys starting at `from`, scattered over the buckets.
fn keys(from: Word, n: usize) -> Vec<Word> {
    (from..from + n as Word)
        .map(|k| k.wrapping_mul(0x9E37_79B9) & 0x7FFF_FFFF)
        .collect()
}

fn insert(m: &mut Machine, t: &mut ChainTable, keys: &[Word]) {
    for batch in keys.chunks(4096) {
        chaining::txn_insert_all(m, t, batch, &RetryPolicy::default()).expect("insert commits");
    }
}

#[test]
fn a_delta_of_eight_batches_writes_a_twentieth_of_the_regions_it_touched() {
    let (mut m, mut t) = chain_machine();
    insert(&mut m, &mut t, &keys(0, 4096));
    let full = Checkpoint::capture(&m, &tracked(&m), 1, vec![], vec![]);
    for b in 0..8 {
        insert(&mut m, &mut t, &keys(10_000 + 64 * b, 64));
    }
    let delta = DeltaCheckpoint::capture(&m, 2, 1, &full.checksums, vec![], vec![]);

    // What a region-granular delta writes: every word of every region
    // whose digest moved.
    let touched: usize = delta
        .checksums
        .iter()
        .zip(&full.checksums)
        .filter(|(now, then)| now.sum != then.sum)
        .map(|(now, _)| now.region.len())
        .sum();
    assert!(touched >= t.arena.len(), "the arena is dirty");
    let bytes = delta.encode().len();
    assert!(
        bytes * 20 <= 8 * touched,
        "a delta of 8 x 64 keys writes {bytes} B, over 1/20 of the {} B its regions hold",
        8 * touched
    );
    assert_eq!(delta.format_version(), 2, "sub-region runs need version 2");

    // The chain reproduces the live table, byte for byte.
    let back = DeltaCheckpoint::decode(&delta.encode()).expect("round-trips");
    assert_eq!(back, delta);
    let image = materialize(&full, &[&back]).expect("materializes");
    assert!(image.snapshot.matches(m.mem()));
}

#[test]
fn a_full_image_at_a_quarter_fill_is_a_third_of_the_whole_regions() {
    let (mut m, mut t) = chain_machine();
    let stored = keys(0, 1 << 15);
    insert(&mut m, &mut t, &stored);
    assert_eq!(
        2 * t.used_nodes,
        t.arena.len() / 4,
        "a quarter of the arena"
    );
    let full = Checkpoint::capture(&m, &tracked(&m), 1, vec![], vec![]);
    let whole: usize = 8 * tracked(&m).iter().map(|r| r.len()).sum::<usize>();
    let bytes = full.encode().len();
    assert!(
        bytes * 3 <= whole,
        "a quarter-full arena images to {bytes} B, over 1/3 of its {whole} B of regions"
    );
    assert_eq!(
        full.format_version(),
        2,
        "elided zero blocks need version 2"
    );

    // Restoring the image into a table that held other keys zeroes what
    // the image leaves out.
    let image = Checkpoint::decode(&full.encode()).expect("round-trips");
    image.verify().expect("verifies");
    let (mut fresh, mut ft) = chain_machine();
    insert(&mut fresh, &mut ft, &keys(1 << 20, 8192));
    image.restore_into(&mut fresh);
    ft.used_nodes = t.used_nodes;
    let mut got = chaining::all_keys(&fresh, &ft);
    got.sort_unstable();
    let mut want = stored;
    want.sort_unstable();
    assert_eq!(got, want);
    assert!(fresh.scrub().is_ok());
}

#[test]
fn a_delta_cut_after_a_restore_is_cut_by_block() {
    let (mut m, mut t) = chain_machine();
    insert(&mut m, &mut t, &keys(0, 4096));
    let full = Checkpoint::capture(&m, &tracked(&m), 1, vec![], vec![]);

    // A rebuilt machine remembers the cut it restored, so its first delta
    // is as small as the live machine's.
    let (mut fresh, mut ft) = chain_machine();
    Checkpoint::decode(&full.encode())
        .expect("round-trips")
        .restore_into(&mut fresh);
    ft.used_nodes = t.used_nodes;
    let batch = keys(50_000, 64);
    insert(&mut m, &mut t, &batch);
    insert(&mut fresh, &mut ft, &batch);
    let live = DeltaCheckpoint::capture(&m, 2, 1, &full.checksums, vec![], vec![]);
    let restored = DeltaCheckpoint::capture(&fresh, 2, 1, &full.checksums, vec![], vec![]);
    assert_eq!(restored, live);
    assert!(restored.snapshot.words() < t.arena.len() / 20);
}
