//! Delta checkpoints: the incremental form of [`Checkpoint`].
//!
//! A full checkpoint rewrites every tracked region whole; at production
//! table sizes that rewrite is the dominant durability cost even when a
//! cadence touched 1% of the store. The integrity layer already maintains a
//! per-region digest on every store (O(1) incremental), so the machine can
//! name exactly which regions changed since the previous generation — a
//! delta checkpoint serializes *only those regions*, chained to its parent
//! generation by id and by the parent's **state digest** (the XOR of its
//! per-region checksums), making a chain self-describing: a link whose
//! parent is missing, torn, or has the wrong digest is a typed refusal at
//! plan time, never a silent mis-splice.
//!
//! A delta is an [`Image`] whose kind is [`Parent`]: it shares the full
//! image's codec ([`crate::checkpoint`]), under the magic `FOLDCKP\0`, with
//! the parent id and digest in the meta frame and only the dirty regions
//! in region frames. The checksum frame covers **every** tracked region,
//! not just the dirty ones: clean regions inherit the parent's recorded
//! digest. That makes the delta's own state digest computable without
//! touching the parent, and it makes materialization verifiable
//! end-to-end — after overlaying the chain onto its base image, every
//! region must hash to the head's checksum.
//!
//! Files are named `{prefix}-{seq:020}.delta`. The extension is
//! deliberately **not** a suffix of `.ckpt`, so the generation scan
//! ([`crate::planner::scan_generations`]) never mistakes one kind for the
//! other.
//!
//! # Rot interaction
//!
//! Dirtiness is judged by the *incremental* sums, which bit-rot silently
//! stales. A rotted-but-unstored region therefore looks clean and is
//! **not** re-captured: the delta inherits the parent's digest, and
//! materialization restores the parent's (pre-rot) bytes. Rot does not
//! poison the chain — the scrubber repairs the live machine, the chain
//! keeps certifying committed state.

use crate::checkpoint::{committed_checksums, state_digest, Checkpoint, Full, Image, ImageKind};
use crate::frame::{Dec, Enc};
use crate::PersistError;
use fol_vm::integrity::{digest_words, TrackedRegion};
use fol_vm::{Machine, Region, Snapshot, Word};

/// The parent link of a delta: which generation it applies on top of, and
/// what that generation's state digest was at capture time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Parent {
    /// Generation id of the parent. Always strictly less than the delta's
    /// own `seq` (enforced at decode), so chains terminate.
    pub seq: u64,
    /// The parent's state digest at capture time: the link check.
    pub digest: u64,
}

impl ImageKind for Parent {
    const MAGIC: &'static [u8; 8] = b"FOLDCKP\0";
    const EXTENSION: &'static str = "delta";
    const WHAT: &'static str = "delta checkpoint";

    fn encode_link(&self, meta: &mut Enc) {
        meta.u64(self.seq);
        meta.u64(self.digest);
    }

    fn decode_link(meta: &mut Dec<'_>, seq: u64) -> Result<Self, PersistError> {
        let parent_seq = meta.u64("meta.parent_seq")?;
        let digest = meta.u64("meta.parent_digest")?;
        if parent_seq >= seq {
            return Err(PersistError::Malformed {
                what: format!(
                    "delta checkpoint: parent_seq {parent_seq} is not below seq {seq} \
                     (chains must walk strictly backwards)"
                ),
            });
        }
        Ok(Parent {
            seq: parent_seq,
            digest,
        })
    }
}

/// One incremental image: the dirty regions since a parent generation,
/// plus enough metadata to verify the link and the materialized result.
/// Its `checksums` cover **all** tracked regions: fresh [`digest_words`]
/// for dirty regions, the parent's recorded digest for clean ones.
pub type DeltaCheckpoint = Image<Parent>;

impl DeltaCheckpoint {
    /// Captures the regions of `m` that are dirty relative to `parent_sums`
    /// (the parent generation's checksum set), using the incremental
    /// digests — O(tracked regions) to *decide*, and only the dirty
    /// regions are cut from the committed image, digested and serialized.
    pub fn capture(
        m: &Machine,
        seq: u64,
        parent_seq: u64,
        parent_sums: &[TrackedRegion],
        counters: Vec<(String, u64)>,
        applied: Vec<u64>,
    ) -> Self {
        let dirty = m.dirty_regions_since(parent_sums);
        // Clean ⇒ the parent recorded this exact digest (that is the
        // cleanliness predicate), so the incremental sum is inherited; dirty
        // regions are digested from the committed image they are cut from.
        let checksums = committed_checksums(m, |t| dirty.contains(&t.region));
        Image {
            seq,
            parent: Parent {
                seq: parent_seq,
                digest: state_digest(parent_sums),
            },
            counters,
            applied,
            snapshot: m.committed_snapshot(&dirty),
            checksums,
        }
    }
}

/// Overlays `deltas` (oldest first) onto the full image `base`, producing
/// the equivalent full [`Checkpoint`] at the head generation. Performs the
/// end-to-end consistency check the per-file `verify`s cannot: every region
/// the head's checksum frame names must be present in the materialized
/// image and hash to the recorded digest. The caller is responsible for
/// having verified the chain *links* (parent ids and digests) — the
/// planner does.
pub fn materialize(
    base: &Checkpoint,
    deltas: &[&DeltaCheckpoint],
) -> Result<Checkpoint, PersistError> {
    use std::collections::BTreeMap;
    let mut parts: BTreeMap<(usize, usize), Vec<Word>> = base
        .snapshot
        .parts()
        .iter()
        .map(|(r, w)| ((r.base(), r.len()), w.clone()))
        .collect();
    for d in deltas {
        for (r, w) in d.snapshot.parts() {
            parts.insert((r.base(), r.len()), w.clone());
        }
    }
    let (seq, counters, applied, checksums) = match deltas.last() {
        Some(d) => (
            d.seq,
            d.counters.as_slice(),
            d.applied.as_slice(),
            d.checksums.as_slice(),
        ),
        None => (
            base.seq,
            base.counters.as_slice(),
            base.applied.as_slice(),
            base.checksums.as_slice(),
        ),
    };
    for t in checksums {
        let Some(words) = parts.get(&(t.region.base(), t.region.len())) else {
            return Err(PersistError::Malformed {
                what: format!(
                    "materialized generation {seq}: region \"{}\" is checksummed by the head \
                     but present in no link of the chain",
                    t.name
                ),
            });
        };
        let actual = digest_words(t.region.base(), words);
        if actual != t.sum {
            return Err(PersistError::Malformed {
                what: format!(
                    "materialized generation {seq}: region \"{}\" hashes to {actual:#018x}, \
                     head checksum says {:#018x} — the chain does not reproduce the state it \
                     certifies",
                    t.name, t.sum
                ),
            });
        }
    }
    Ok(Image {
        seq,
        parent: Full,
        counters: counters.to_vec(),
        applied: applied.to_vec(),
        snapshot: Snapshot::from_parts(
            parts
                .into_iter()
                .map(|((base, len), words)| (Region::from_raw(base, len), words))
                .collect(),
        ),
        checksums: checksums.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fol_vm::CostModel;

    fn sample_machine() -> (Machine, Region, Region) {
        let mut m = Machine::new(CostModel::unit());
        let a = m.alloc(8, "a");
        let b = m.alloc(6, "b");
        for i in 0..8 {
            m.s_write(a.at(i), (i as Word) * 3 + 1);
        }
        for i in 0..6 {
            m.s_write(b.at(i), -(i as Word) - 2);
        }
        m.track_region(a);
        m.track_region(b);
        (m, a, b)
    }

    fn full(m: &Machine, regions: &[Region], seq: u64) -> Checkpoint {
        Checkpoint::capture(m, regions, seq, vec![("c".into(), 1)], vec![seq])
    }

    #[test]
    fn delta_captures_only_dirty_regions_and_round_trips() {
        let (mut m, a, b) = sample_machine();
        let base = full(&m, &[a, b], 1);
        // Dirty only `b`.
        let idx = m.vimm(&[0, 5]);
        let val = m.vimm(&[100, 200]);
        m.scatter(b, &idx, &val);

        let d =
            DeltaCheckpoint::capture(&m, 2, 1, &base.checksums, vec![("c".into(), 2)], vec![1, 2]);
        assert_eq!(d.snapshot.parts().len(), 1, "only b is captured");
        assert_eq!(d.snapshot.parts()[0].0, b);
        assert_eq!(d.checksums.len(), 2, "…but both regions are checksummed");
        assert_eq!(d.parent.digest, base.state_digest());

        let back = DeltaCheckpoint::decode(&d.encode()).unwrap();
        assert_eq!(back, d);
        back.verify().unwrap();
    }

    #[test]
    fn materialize_reproduces_the_live_state_across_a_chain() {
        let (mut m, a, b) = sample_machine();
        let base = full(&m, &[a, b], 1);
        let idx = m.vimm(&[2]);
        let val = m.vimm(&[77]);
        m.scatter(a, &idx, &val);
        let d1 = DeltaCheckpoint::capture(&m, 2, 1, &base.checksums, vec![], vec![1, 2]);
        let idx = m.vimm(&[3]);
        let val = m.vimm(&[88]);
        m.scatter(b, &idx, &val);
        let d2 = DeltaCheckpoint::capture(&m, 3, 2, &d1.checksums, vec![], vec![1, 2, 3]);
        assert_eq!(d2.parent.digest, d1.state_digest());

        let ckpt = materialize(&base, &[&d1, &d2]).unwrap();
        assert_eq!(ckpt.seq, 3);
        assert_eq!(ckpt.applied, vec![1, 2, 3]);
        assert!(ckpt.snapshot.matches(m.mem()), "byte-exact reproduction");
        ckpt.verify().unwrap();

        // Restoring into a fresh machine lands on scrubbable state.
        let (mut m2, _, _) = sample_machine();
        ckpt.restore_into(&mut m2);
        assert!(m2.scrub().is_ok());
        assert_eq!(m2.content_digest(), m.content_digest());
    }

    #[test]
    fn materialize_refuses_a_chain_that_does_not_reproduce_its_digests() {
        let (mut m, a, b) = sample_machine();
        let base = full(&m, &[a, b], 1);
        let idx = m.vimm(&[1]);
        let val = m.vimm(&[9]);
        m.scatter(a, &idx, &val);
        let mut d = DeltaCheckpoint::capture(&m, 2, 1, &base.checksums, vec![], vec![]);
        // Lie about the head digest of the *clean* region: per-file verify
        // cannot catch this (the region is not captured), materialize must.
        let clean = d
            .checksums
            .iter_mut()
            .find(|t| t.region == b)
            .expect("b is tracked");
        clean.sum ^= 0xBAD;
        d.verify()
            .expect("per-file verify only covers captured regions");
        let err = materialize(&base, &[&d]).unwrap_err();
        assert!(matches!(err, PersistError::Malformed { .. }), "{err}");
    }

    #[test]
    fn forward_or_self_parent_edges_are_malformed() {
        let (m, a, b) = sample_machine();
        let base = full(&m, &[a, b], 5);
        let mut d = DeltaCheckpoint::capture(&m, 6, 5, &base.checksums, vec![], vec![]);
        d.parent.seq = 6; // self-parent
        assert!(matches!(
            DeltaCheckpoint::decode(&d.encode()),
            Err(PersistError::Malformed { .. })
        ));
        d.parent.seq = 9; // forward edge
        assert!(matches!(
            DeltaCheckpoint::decode(&d.encode()),
            Err(PersistError::Malformed { .. })
        ));
    }

    #[test]
    fn file_name_is_not_mistaken_for_a_full_checkpoint() {
        let name = DeltaCheckpoint::file_name("w0", 7);
        assert_eq!(name, format!("w0-{:020}.delta", 7));
        assert!(
            !name.ends_with(".ckpt"),
            "the generation scan tells the kinds apart by extension"
        );
    }
}
