//! Pins the on-disk bytes of every image format: a full checkpoint, a delta
//! checkpoint and a version-2 shard-handoff image, each region image at
//! version 1 (whole regions) and version 2 (runs of blocks). Each constant
//! was encoded once and committed; `encode()` must keep reproducing it
//! exactly and `decode()` must read it back to the same value, so files
//! written by any earlier build keep loading after a codec change.
//!
//! Each constant is laid out one artifact piece per group of lines: the
//! 12-byte magic + version header, then every `[len][crc][payload]` frame
//! in file order, ending with the `END` trailer frame.

use fol_persist::{
    materialize, Checkpoint, DeltaCheckpoint, HandoffDedupe, HandoffImage, HandoffSection,
    RecoveryPlanner,
};
use fol_vm::{CostModel, Machine, Word};

/// `FOLCKPT\0` v1 at seq 3: meta, region `a` (4 words), region `b`
/// (2 words), checksums of both, trailer.
const FULL: &str = concat!(
    "464f4c434b50540001000000",
    "44000000a226990103000000000000000100000010000000636861696e2e757365645f6e6f646573",
    "090000000000000002000000010000000000000002000000000000000200000002000000",
    "30000000b711abf800000000000000000400000000000000f9ffffffffffffff0400000000000000",
    "0f000000000000001a00000000000000",
    "200000008084f8b7040000000000000002000000000000000000000000000000fdffffffffffffff",
    "3a0000002905d412010000006100000000000000000400000000000000d06c8e76dec9b1cc010000",
    "0062040000000000000002000000000000003786e732dc511c03",
    "030000003b715b96454e44",
);

/// `FOLDCKP\0` v1 at seq 4 on parent 3: meta with the parent link, the one
/// dirty region `b`, checksums of both regions, trailer.
const DELTA: &str = concat!(
    "464f4c44434b500001000000",
    "5c0000009b66011404000000000000000300000000000000e7ea69440298adcf0100000010000000",
    "636861696e2e757365645f6e6f6465730a0000000000000003000000010000000000000002000000",
    "0000000004000000000000000100000002000000",
    "20000000b260d4d3040000000000000002000000000000002800000000000000fdffffffffffffff",
    "3a0000009c6155a2010000006100000000000000000400000000000000d06c8e76dec9b1cc010000",
    "006204000000000000000200000000000000d52190b3c5fb5eb0",
    "030000003b715b96454e44",
);

/// `FOLHOFF\0` v2: meta, one section, one dedupe record, trailer.
const HANDOFF: &str = concat!(
    "464f4c484f46460002000000",
    "20000000507252b60100000004000000060000000000000015000000000000000100000001000000",
    "250000005a9b34d205000000636861696ef0debc9a7856341202000000feffffffffffffff050000",
    "0000000000",
    "1e000000bcb6b59b03000000000000000600000000000000080000000000000002000000a500",
    "030000003b715b96454e44",
);

/// `FOLCKPT\0` v2 at seq 5: meta, region `a` (4 words, whole), runs of
/// region `c` (80 words) for block 0 (32 words) and block 2 (16 words) —
/// block 1 is all zero and left out — checksums of both, trailer.
const FULL_V2: &str = concat!(
    "464f4c434b50540002000000",
    "3c00000071ba67c405000000000000000100000010000000636861696e2e757365645f6e6f646573",
    "02000000000000000100000007000000000000000300000002000000",
    "30000000320b2aca0000000000000000040000000000000000000000000000000500000000000000",
    "00000000000000000000000000000000",
    "10010000873fbddf0400000000000000200000000000000000000000000000000000000000000000",
    "0000000000000000f7ffffffffffffff000000000000000000000000000000000000000000000000",
    "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "90000000fa3a0b224400000000000000100000000000000000000000000000000000000000000000",
    "00000000000000000000000000000000000000000000000000000000000000000c00000000000000",
    "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "3a000000499b8c5a0100000061000000000000000004000000000000000ca0eb2440773ceb010000",
    "00630400000000000000500000000000000073e3f2bbc3f4db96",
    "030000003b715b96454e44",
);

/// `FOLDCKP\0` v2 at seq 6 on parent 5: meta with the parent link, the one
/// changed block of `c` (block 1, a sub-region run), checksums of both
/// regions, trailer.
const DELTA_V2: &str = concat!(
    "464f4c44434b500002000000",
    "540000009c8df512060000000000000005000000000000007f43199f8383e77d0100000010000000",
    "636861696e2e757365645f6e6f646573030000000000000002000000070000000000000008000000",
    "000000000100000002000000",
    "10010000176883532400000000000000200000000000000000000000000000000000000000000000",
    "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "00000000000000002100000000000000000000000000000000000000000000000000000000000000",
    "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "3a00000088ad88730100000061000000000000000004000000000000000ca0eb2440773ceb010000",
    "006304000000000000005000000000000000437a7cd7453bd877",
    "030000003b715b96454e44",
);

fn hex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit pair"))
        .collect()
}

/// The images the constants were encoded from: a 4-word and a 2-word
/// tracked region, one full image, then one delta after a store into `b`.
fn images() -> (Checkpoint, DeltaCheckpoint, HandoffImage) {
    let mut m = Machine::new(CostModel::unit());
    let a = m.alloc(4, "a");
    let b = m.alloc(2, "b");
    for i in 0..4 {
        m.s_write(a.at(i), i as Word * 11 - 7);
    }
    m.s_write(b.at(1), -3);
    m.track_region(a);
    m.track_region(b);
    let full = Checkpoint::capture(
        &m,
        &[a, b],
        3,
        vec![("chain.used_nodes".into(), 9)],
        vec![1, 2],
    );
    m.s_write(b.at(0), 40);
    let delta = DeltaCheckpoint::capture(
        &m,
        4,
        3,
        &full.checksums,
        vec![("chain.used_nodes".into(), 10)],
        vec![1, 2, 4],
    );
    let handoff = HandoffImage {
        shard: 1,
        shards: 4,
        source_epoch: 6,
        wal_floor: 21,
        sections: vec![HandoffSection {
            class: "chain".into(),
            digest: 0x1234_5678_9ABC_DEF0,
            keys: vec![-2, 5],
        }],
        dedupe: vec![HandoffDedupe {
            client_id: 3,
            epoch: 6,
            seq: 8,
            outcome: vec![0xA5, 0x00],
        }],
    };
    (full, delta, handoff)
}

#[test]
fn encoders_reproduce_the_committed_bytes() {
    let (full, delta, handoff) = images();
    assert_eq!(full.encode(), hex(FULL), "full checkpoint bytes moved");
    assert_eq!(delta.encode(), hex(DELTA), "delta checkpoint bytes moved");
    assert_eq!(handoff.encode(), hex(HANDOFF), "handoff image bytes moved");
}

#[test]
fn committed_bytes_decode_to_the_same_images() {
    let (full, delta, handoff) = images();
    let back = Checkpoint::decode(&hex(FULL)).expect("committed full image decodes");
    back.verify().expect("committed full image verifies");
    assert_eq!(back, full);
    let back = DeltaCheckpoint::decode(&hex(DELTA)).expect("committed delta decodes");
    back.verify().expect("committed delta verifies");
    assert_eq!(back, delta);
    let back = HandoffImage::decode(&hex(HANDOFF)).expect("committed handoff decodes");
    assert_eq!(back, handoff);
}

/// The images the version-2 constants were encoded from: a 4-word region
/// and an 80-word region of three blocks, one full image, then one delta
/// after a store into the middle block.
fn images_v2() -> (Checkpoint, DeltaCheckpoint, Machine) {
    let mut m = Machine::new(CostModel::unit());
    let a = m.alloc(4, "a");
    let c = m.alloc(80, "c");
    m.s_write(a.at(1), 5);
    m.s_write(c.at(3), -9);
    m.s_write(c.at(70), 12);
    m.track_region(a);
    m.track_region(c);
    let full = Checkpoint::capture(
        &m,
        &[a, c],
        5,
        vec![("chain.used_nodes".into(), 2)],
        vec![7],
    );
    m.s_write(c.at(40), 33);
    let delta = DeltaCheckpoint::capture(
        &m,
        6,
        5,
        &full.checksums,
        vec![("chain.used_nodes".into(), 3)],
        vec![7, 8],
    );
    (full, delta, m)
}

#[test]
fn version_2_encoders_reproduce_the_committed_bytes() {
    let (full, delta, _) = images_v2();
    assert_eq!(full.format_version(), 2, "a zero block is left out");
    assert_eq!(delta.format_version(), 2, "the delta carries part of c");
    assert_eq!(
        full.encode(),
        hex(FULL_V2),
        "v2 full checkpoint bytes moved"
    );
    assert_eq!(
        delta.encode(),
        hex(DELTA_V2),
        "v2 delta checkpoint bytes moved"
    );
}

#[test]
fn version_2_bytes_decode_and_materialize_to_the_live_state() {
    let (full, delta, m) = images_v2();
    let back_full = Checkpoint::decode(&hex(FULL_V2)).expect("committed v2 full image decodes");
    back_full
        .verify()
        .expect("committed v2 full image verifies");
    assert_eq!(back_full, full);
    let back_delta = DeltaCheckpoint::decode(&hex(DELTA_V2)).expect("committed v2 delta decodes");
    back_delta.verify().expect("committed v2 delta verifies");
    assert_eq!(back_delta, delta);
    let image = materialize(&back_full, &[&back_delta]).expect("the v2 chain materializes");
    assert!(image.snapshot.matches(m.mem()), "byte-exact reproduction");
}

/// Files written by a version-1 build restore through the planner, and the
/// next delta this build cuts over them is version 2 and chains onto them.
#[test]
fn version_1_files_restore_and_a_version_2_delta_chains_onto_them() {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "fol-golden-v1-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(Checkpoint::file_name("w0", 3)), hex(FULL)).unwrap();
    std::fs::write(dir.join(DeltaCheckpoint::file_name("w0", 4)), hex(DELTA)).unwrap();
    let plan = RecoveryPlanner::new(&dir, "w0").plan().expect("plans");
    assert!(plan.skipped.is_empty(), "{:?}", plan.skipped);
    assert_eq!(plan.deltas_applied, 1);
    let head = plan.checkpoint.expect("the v1 chain restores");
    assert_eq!(head.seq, 4);

    // The same geometry plus a region of three blocks the v1 files never
    // knew: a delta that stores into its middle block carries that block
    // alone, as a v2 run.
    let mut m = Machine::new(CostModel::unit());
    let a = m.alloc(4, "a");
    let b = m.alloc(2, "b");
    let c = m.alloc(80, "c");
    m.track_region(a);
    m.track_region(b);
    m.track_region(c);
    head.restore_into(&mut m);
    assert_eq!(m.mem().read_region(b), vec![40, -3]);
    m.s_write(c.at(40), 7);
    let next = DeltaCheckpoint::capture(&m, 5, 4, &head.checksums, vec![], vec![1, 2, 4, 5]);
    assert_eq!(next.format_version(), 2);
    let bytes = next.encode();
    assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 2);
    assert_eq!(next.snapshot.words(), 32, "one block of c");
    std::fs::write(dir.join(DeltaCheckpoint::file_name("w0", 5)), &bytes).unwrap();

    let plan = RecoveryPlanner::new(&dir, "w0").plan().expect("plans");
    assert!(plan.skipped.is_empty(), "{:?}", plan.skipped);
    assert_eq!((plan.base_seq, plan.deltas_applied), (Some(3), 2));
    let image = plan.checkpoint.expect("the mixed chain restores");
    assert_eq!(image.seq, 5);
    assert!(image.snapshot.matches(m.mem()), "byte-exact reproduction");
    std::fs::remove_dir_all(&dir).ok();
}
