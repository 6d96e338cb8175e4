//! Pins the on-disk bytes of every image format: a full checkpoint, a delta
//! checkpoint and a version-2 shard-handoff image. Each constant was
//! encoded once and committed; `encode()` must keep reproducing it exactly
//! and `decode()` must read it back to the same value, so files written by
//! any earlier build keep loading after a codec change.
//!
//! Each constant is laid out one artifact piece per group of lines: the
//! 12-byte magic + version header, then every `[len][crc][payload]` frame
//! in file order, ending with the `END` trailer frame.

use fol_persist::{Checkpoint, DeltaCheckpoint, HandoffDedupe, HandoffImage, HandoffSection};
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
