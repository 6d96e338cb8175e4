//! Shard-handoff images: the transfer format a rebalance ships between
//! server processes.
//!
//! When a cluster moves one key-space shard from its current owner to a new
//! one, the moving state is *logical* — the shard's stored keys per
//! workload class — not a physical memory image: the source and target may
//! run different worker counts, table geometries, or checkpoint histories,
//! so a region-level image (the [`crate::delta`] form) would splice the
//! wrong layout. The body is therefore its own — per-class key sets and
//! dedupe records, not regions — but the envelope is the shared one from
//! [`crate::frame`]: magic + version header, CRC-32 frames, an `END`
//! trailer with nothing after it, and typed refusals for every way bytes
//! can lie. Each section also records a content digest so the installer
//! can prove byte-for-byte fidelity end-to-end.
//!
//! # Format (version 2; version 1 still decodes)
//!
//! ```text
//! magic "FOLHOFF\0" (8 bytes)  version u32 LE
//! frame: meta      — shard, shards, source_epoch, wal_floor,
//!                    section count, dedupe-record count (v2)
//! frame: section ×N — class name, content digest, key count, keys i64 ×K
//! frame: dedupe ×M  — client id, epoch, seq, opaque outcome bytes (v2)
//! frame: trailer   — literal "END", and nothing after it
//! ```
//!
//! Version 2 adds the source's per-client **dedupe outcome cache** for the
//! moving shard: each record is a completed request's identity
//! (`client_id`, the map epoch it was admitted under, `seq`) plus its
//! outcome in the *serving layer's own encoding* — opaque bytes to this
//! crate, shipped and installed verbatim. Shipping the cache means a
//! client whose request completed on the old owner can retry against the
//! new owner (still stamped with the old epoch) and get the cached outcome
//! replayed instead of a `WrongEpoch` refusal forcing a re-execute. A
//! version-1 image decodes as an image with no dedupe records.
//!
//! Every section records the content digest its keys must hash to under
//! the *caller's* digest function (the serving layer's order-insensitive
//! `keys_digest`); [`HandoffImage::verify`] re-hashes after decode, so a
//! flipped bit that survives CRC-32 (or a bug in transit code) is still a
//! typed refusal, never a silently divergent install. The image is a byte
//! string, not a file: it travels inside one wire frame, and the target's
//! own WAL + checkpoint cadence make it durable on install.

use crate::frame::{
    push_frame, push_header, read_header, read_trailer, require_frame, Dec, Enc, HEADER_LEN,
    TRAILER,
};
use crate::PersistError;
use fol_vm::Word;

/// First bytes of every handoff image.
pub const HANDOFF_MAGIC: &[u8; 8] = b"FOLHOFF\0";
/// The handoff format version this build writes. Version 1 (no dedupe
/// records) is still decoded.
pub const HANDOFF_VERSION: u32 = 2;

/// One workload class's slice of the moving shard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HandoffSection {
    /// The workload class the keys belong to (e.g. `"chain"`).
    pub class: String,
    /// The caller's content digest of `keys` (order-insensitive), recorded
    /// at extraction and re-checked at install.
    pub digest: u64,
    /// The shard's stored keys for this class, sorted ascending.
    pub keys: Vec<Word>,
}

/// One shipped dedupe record: a completed request's cached outcome,
/// moving with its shard so a client's in-flight retry survives the move
/// without waiting for an epoch refresh.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HandoffDedupe {
    /// The client that issued the request.
    pub client_id: u64,
    /// The map epoch the request was admitted under on the *source* — part
    /// of the dedupe identity, so the installed record answers exactly the
    /// retry that carries the old stamp.
    pub epoch: u64,
    /// The client's request sequence number.
    pub seq: u64,
    /// The cached outcome in the serving layer's own wire encoding —
    /// opaque to this crate, shipped and installed verbatim.
    pub outcome: Vec<u8>,
}

/// A complete shard-handoff image: which shard is moving, under which map
/// epoch it was extracted, and its per-class contents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HandoffImage {
    /// The cluster shard being moved.
    pub shard: u32,
    /// Total cluster shard count the key space is partitioned into.
    pub shards: u32,
    /// The map epoch the source was serving when it extracted this image
    /// (the shard was frozen and drained first, so the image is the
    /// complete acknowledged state of the shard under this epoch).
    pub source_epoch: u64,
    /// The source's request-log frontier at extraction: every acknowledged
    /// request at or below this sequence is reflected in the image.
    pub wal_floor: u64,
    /// Per-class contents.
    pub sections: Vec<HandoffSection>,
    /// The source's cached request outcomes for this shard (empty when
    /// decoding a version-1 image).
    pub dedupe: Vec<HandoffDedupe>,
}

impl HandoffImage {
    /// Serializes the image (magic, version, CRC-framed payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        push_header(&mut out, HANDOFF_MAGIC, HANDOFF_VERSION);

        let mut meta = Enc::new();
        meta.u32(self.shard);
        meta.u32(self.shards);
        meta.u64(self.source_epoch);
        meta.u64(self.wal_floor);
        meta.u32(self.sections.len() as u32);
        meta.u32(self.dedupe.len() as u32);
        push_frame(&mut out, &meta.into_bytes());

        for s in &self.sections {
            let mut e = Enc::new();
            e.str(&s.class);
            e.u64(s.digest);
            e.u32(s.keys.len() as u32);
            for &k in &s.keys {
                e.i64(k);
            }
            push_frame(&mut out, &e.into_bytes());
        }
        for r in &self.dedupe {
            let mut e = Enc::new();
            e.u64(r.client_id);
            e.u64(r.epoch);
            e.u64(r.seq);
            e.u32(r.outcome.len() as u32);
            for &b in &r.outcome {
                e.u8(b);
            }
            push_frame(&mut out, &e.into_bytes());
        }
        push_frame(&mut out, TRAILER);
        out
    }

    /// Decodes an image, refusing truncation, CRC mismatches, version skew
    /// and structural garbage with distinct typed errors. Content digests
    /// are *recorded*, not yet checked — call [`HandoffImage::verify`] with
    /// the serving layer's digest function.
    pub fn decode(bytes: &[u8]) -> Result<Self, PersistError> {
        let what = "handoff image";
        let version = read_header(bytes, HANDOFF_MAGIC, 1..=HANDOFF_VERSION, what)?;
        let mut pos = HEADER_LEN;
        let meta = require_frame(bytes, &mut pos, "handoff meta frame")?;
        let mut d = Dec::new(meta);
        let shard = d.u32("handoff.shard")?;
        let shards = d.u32("handoff.shards")?;
        let source_epoch = d.u64("handoff.source_epoch")?;
        let wal_floor = d.u64("handoff.wal_floor")?;
        let n_sections = d.u32("handoff.sections.len")? as usize;
        let n_dedupe = if version >= 2 {
            d.u32("handoff.dedupe.len")? as usize
        } else {
            0
        };
        d.finish("handoff meta")?;
        if shards == 0 || shard >= shards {
            return Err(PersistError::Malformed {
                what: format!("handoff image: shard {shard} out of range of {shards}"),
            });
        }

        let mut sections = Vec::with_capacity(n_sections.min(64));
        for _ in 0..n_sections {
            let payload = require_frame(bytes, &mut pos, "handoff section")?;
            let mut d = Dec::new(payload);
            let class = d.str("section.class")?.to_string();
            let digest = d.u64("section.digest")?;
            let count = d.u32("section.keys.len")? as usize;
            let mut keys = Vec::with_capacity(count.min(1 << 20));
            for _ in 0..count {
                keys.push(d.i64("section.key")?);
            }
            d.finish("handoff section")?;
            sections.push(HandoffSection {
                class,
                digest,
                keys,
            });
        }

        let mut dedupe = Vec::with_capacity(n_dedupe.min(1 << 16));
        for _ in 0..n_dedupe {
            let payload = require_frame(bytes, &mut pos, "handoff dedupe record")?;
            let mut d = Dec::new(payload);
            let client_id = d.u64("dedupe.client_id")?;
            let epoch = d.u64("dedupe.epoch")?;
            let seq = d.u64("dedupe.seq")?;
            let len = d.u32("dedupe.outcome.len")? as usize;
            let mut outcome = Vec::with_capacity(len.min(1 << 16));
            for _ in 0..len {
                outcome.push(d.u8("dedupe.outcome")?);
            }
            d.finish("handoff dedupe record")?;
            dedupe.push(HandoffDedupe {
                client_id,
                epoch,
                seq,
                outcome,
            });
        }

        read_trailer(bytes, pos, what)?;
        Ok(HandoffImage {
            shard,
            shards,
            source_epoch,
            wal_floor,
            sections,
            dedupe,
        })
    }

    /// Re-hashes every section's keys with the caller's digest function and
    /// refuses (typed) any section whose contents do not match its recorded
    /// digest — the end-to-end check that makes a handoff install provable.
    pub fn verify(&self, digest_of: impl Fn(&[Word]) -> u64) -> Result<(), PersistError> {
        for s in &self.sections {
            let got = digest_of(&s.keys);
            if got != s.digest {
                return Err(PersistError::Malformed {
                    what: format!(
                        "handoff image: section '{}' hashes to {got:#018x}, recorded {:#018x}",
                        s.class, s.digest
                    ),
                });
            }
        }
        Ok(())
    }

    /// Total keys across all sections.
    pub fn key_count(&self) -> usize {
        self.sections.iter().map(|s| s.keys.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_digest(keys: &[Word]) -> u64 {
        keys.iter().fold(0u64, |a, &k| a.wrapping_add(k as u64))
    }

    fn image() -> HandoffImage {
        let keys: Vec<Word> = vec![3, 9, 12, 40];
        HandoffImage {
            shard: 2,
            shards: 8,
            source_epoch: 5,
            wal_floor: 77,
            sections: vec![
                HandoffSection {
                    class: "chain".into(),
                    digest: sum_digest(&keys),
                    keys,
                },
                HandoffSection {
                    class: "bst".into(),
                    digest: 0,
                    keys: vec![],
                },
            ],
            dedupe: vec![
                HandoffDedupe {
                    client_id: 7,
                    epoch: 5,
                    seq: 31,
                    outcome: vec![0xAA, 0, 0xFF],
                },
                HandoffDedupe {
                    client_id: 9,
                    epoch: 4,
                    seq: 2,
                    outcome: vec![],
                },
            ],
        }
    }

    #[test]
    fn round_trips_and_verifies() {
        let img = image();
        let bytes = img.encode();
        let back = HandoffImage::decode(&bytes).expect("decode");
        assert_eq!(back, img);
        assert_eq!(back.key_count(), 4);
        assert_eq!(back.dedupe.len(), 2);
        back.verify(sum_digest).expect("digests match");
    }

    /// A version-1 image (written before dedupe shipping existed) still
    /// decodes: same frames, five-field meta, no dedupe records.
    #[test]
    fn version_one_images_still_decode() {
        let img = image();
        let mut bytes = Vec::new();
        push_header(&mut bytes, HANDOFF_MAGIC, 1);
        let mut meta = Enc::new();
        meta.u32(img.shard);
        meta.u32(img.shards);
        meta.u64(img.source_epoch);
        meta.u64(img.wal_floor);
        meta.u32(img.sections.len() as u32);
        push_frame(&mut bytes, &meta.into_bytes());
        for s in &img.sections {
            let mut e = Enc::new();
            e.str(&s.class);
            e.u64(s.digest);
            e.u32(s.keys.len() as u32);
            for &k in &s.keys {
                e.i64(k);
            }
            push_frame(&mut bytes, &e.into_bytes());
        }
        push_frame(&mut bytes, TRAILER);

        let back = HandoffImage::decode(&bytes).expect("v1 decodes");
        assert_eq!(back.sections, img.sections);
        assert_eq!(back.source_epoch, img.source_epoch);
        assert!(back.dedupe.is_empty());
        back.verify(sum_digest).expect("digests match");
    }

    #[test]
    fn refusals_are_typed() {
        let img = image();
        let bytes = img.encode();

        // Truncation anywhere is Truncated, never a partial image.
        for cut in [0, 7, 11, 13, bytes.len() - 1] {
            assert!(matches!(
                HandoffImage::decode(&bytes[..cut]),
                Err(PersistError::Truncated { .. })
            ));
        }
        // A flipped payload byte is a CRC mismatch.
        let mut flipped = bytes.clone();
        let at = flipped.len() - 12; // inside the trailer frame payload
        flipped[at] ^= 0x40;
        assert!(matches!(
            HandoffImage::decode(&flipped),
            Err(PersistError::CrcMismatch { .. }) | Err(PersistError::Malformed { .. })
        ));
        // Nothing may follow the trailer: neither raw bytes nor another
        // whole frame, whose CRC would hold.
        let mut trailing = bytes.clone();
        trailing.extend_from_slice(b"xyz");
        assert!(matches!(
            HandoffImage::decode(&trailing),
            Err(PersistError::Malformed { .. })
        ));
        let mut extra_frame = bytes.clone();
        push_frame(&mut extra_frame, b"extra");
        assert!(matches!(
            HandoffImage::decode(&extra_frame),
            Err(PersistError::Malformed { .. })
        ));
        // Wrong magic and wrong version are their own refusals.
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            HandoffImage::decode(&bad_magic),
            Err(PersistError::BadMagic { .. })
        ));
        let mut bad_version = bytes.clone();
        bad_version[8] = 99;
        assert!(matches!(
            HandoffImage::decode(&bad_version),
            Err(PersistError::UnsupportedVersion { .. })
        ));
        // A section that lies about its digest is refused by verify.
        let mut lied = img.clone();
        lied.sections[0].digest ^= 1;
        let back = HandoffImage::decode(&lied.encode()).expect("structurally fine");
        assert!(matches!(
            back.verify(sum_digest),
            Err(PersistError::Malformed { .. })
        ));
    }

    #[test]
    fn out_of_range_shard_is_malformed() {
        let mut img = image();
        img.shard = 8;
        assert!(matches!(
            HandoffImage::decode(&img.encode()),
            Err(PersistError::Malformed { .. })
        ));
    }
}
