//! Delta checkpoints: the incremental form of [`Checkpoint`].
//!
//! A full checkpoint rewrites every non-zero block of every tracked
//! region; at production table sizes that rewrite is the dominant
//! durability cost even when a cadence touched 1% of the store. The
//! integrity layer already maintains a digest per [`BLOCK_WORDS`]-word
//! block on every store (O(1) incremental), and the machine remembers the
//! block digests of its last two cuts ([`fol_vm::Machine::remember_cut`]),
//! so it can name exactly which blocks changed since the previous
//! generation — a delta checkpoint serializes *only those blocks*, as runs
//! ([`crate::checkpoint`]), chained to its parent generation by id and by
//! the parent's **state digest** (the XOR of its per-region checksums),
//! making a chain self-describing: a link whose parent is missing, torn, or
//! has the wrong digest is a typed refusal at plan time, never a silent
//! mis-splice.
//!
//! A delta is an [`Image`] whose kind is [`Parent`]: it shares the full
//! image's codec, under the magic `FOLDCKP\0`, with the parent id and
//! digest in the meta frame and only the changed blocks in region frames.
//! The checksum frame covers **every** tracked region, not just the dirty
//! ones: clean regions inherit the parent's recorded digest, and a dirty
//! region's digest is the parent's with each changed block's term swapped.
//! That makes the delta's own state digest computable without touching the
//! parent, and it makes materialization verifiable end-to-end — after
//! zeroing every region and overlaying the chain's runs oldest first, every
//! region must hash to the head's checksum.
//!
//! Which blocks a delta carries, per tracked region:
//!
//! * **clean** (its digest equals the parent's) — none;
//! * **dirty, parent cut remembered** — the blocks whose incremental digest
//!   differs from the one the parent cut certified;
//! * **dirty, parent cut not remembered** (a head restored from another
//!   process, a rebuilt machine) — the whole region: larger, never wrong;
//! * **absent from the parent** — its non-zero blocks, as in a full image,
//!   since materialization zeroes every region the head names.
//!
//! Files are named `{prefix}-{seq:020}.delta`. The extension is
//! deliberately **not** a suffix of `.ckpt`, so the generation scan
//! ([`crate::planner::scan_generations`]) never mistakes one kind for the
//! other.
//!
//! # Rot interaction
//!
//! Dirtiness is judged by the *incremental* block digests, which bit-rot
//! silently stales, and the words are cut from the committed image, which
//! rot never reaches. A rotted-but-unstored block therefore looks clean and
//! is **not** re-captured: the delta inherits the parent's digest, and
//! materialization restores the parent's (pre-rot) bytes. Rot does not
//! poison the chain — the scrubber repairs the live machine, the chain
//! keeps certifying committed state. A wrong baseline can only make a
//! chain that [`materialize`] refuses, typed.

use crate::checkpoint::{
    block_runs, nonzero_runs, region_sum, state_digest, Checkpoint, Full, Image, ImageKind,
};
use crate::frame::{Dec, Enc};
use crate::PersistError;
use fol_vm::integrity::{block_digests, digest_words, CutBaseline, TrackedRegion, BLOCK_WORDS};
use fol_vm::{Machine, Region, Snapshot, Word};
use std::collections::BTreeMap;

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
    const FULL: bool = false;

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

/// One incremental image: the changed blocks since a parent generation,
/// plus enough metadata to verify the link and the materialized result.
/// Its `checksums` cover **all** tracked regions.
pub type DeltaCheckpoint = Image<Parent>;

impl DeltaCheckpoint {
    /// Captures the blocks of `m` that changed relative to `parent_sums`
    /// (the parent generation's checksum set; see the module docs for the
    /// rule per region). Deciding costs O(tracked regions) plus O(blocks)
    /// of each dirty region's digests; only the changed blocks are cut from
    /// the committed image, digested and serialized. The machine remembers
    /// the new cut's block digests for the next delta.
    pub fn capture(
        m: &Machine,
        seq: u64,
        parent_seq: u64,
        parent_sums: &[TrackedRegion],
        counters: Vec<(String, u64)>,
        applied: Vec<u64>,
    ) -> Self {
        let parent_digest = state_digest(parent_sums);
        let baseline = m.cut_baseline(parent_digest);
        let mut parts = Vec::new();
        let mut checksums = Vec::new();
        let mut cut = Vec::new();
        for t in m.tracked_regions() {
            let r = t.region;
            let words = m.committed_words(r).expect("tracked regions have an image");
            let live = m.block_digests(r).expect("tracked regions have blocks");
            let base = baseline
                .as_ref()
                .and_then(|b| b.blocks_of(r))
                .filter(|b| b.len() == live.len());
            let (sum, blocks) = match parent_sums.iter().find(|p| p.region == r) {
                // Clean ⇒ the parent recorded this exact digest (that is
                // the cleanliness predicate), so it is inherited.
                Some(p) if p.sum == t.sum => (p.sum, base.unwrap_or(live).to_vec()),
                Some(p) => match base {
                    Some(base) => {
                        let changed: Vec<bool> = live
                            .iter()
                            .zip(base)
                            .map(|(now, then)| now != then)
                            .collect();
                        parts.extend(block_runs(r, words, &changed));
                        let mut blocks = base.to_vec();
                        let mut sum = p.sum;
                        for (b, _) in changed.iter().enumerate().filter(|(_, c)| **c) {
                            let lo = b * BLOCK_WORDS;
                            let hi = (lo + BLOCK_WORDS).min(words.len());
                            let fresh = digest_words(r.base() + lo, &words[lo..hi]);
                            sum ^= blocks[b] ^ fresh;
                            blocks[b] = fresh;
                        }
                        (sum, blocks)
                    }
                    None => {
                        parts.push((r, words.to_vec()));
                        let blocks = block_digests(r.base(), words);
                        (region_sum(&blocks), blocks)
                    }
                },
                None => {
                    parts.extend(nonzero_runs(r, words));
                    let blocks = block_digests(r.base(), words);
                    (region_sum(&blocks), blocks)
                }
            };
            checksums.push(TrackedRegion {
                name: t.name.clone(),
                region: r,
                sum,
            });
            cut.push((r, blocks));
        }
        m.remember_cut(CutBaseline {
            state: state_digest(&checksums),
            regions: cut,
        });
        Image {
            seq,
            parent: Parent {
                seq: parent_seq,
                digest: parent_digest,
            },
            counters,
            applied,
            snapshot: Snapshot::from_parts(parts),
            checksums,
        }
    }
}

/// Overlays `deltas` (oldest first) onto the full image `base`, producing
/// the equivalent full [`Checkpoint`] at the head generation, every region
/// the head certifies carried whole. Each such region starts zeroed, then
/// the base's runs and each delta's runs are copied in; a run outside
/// every certified region (an untracked region a full image carried
/// whole) is kept as it is. Performs the end-to-end consistency check the
/// per-file `verify`s cannot: every region the head's checksum frame names
/// must hash to the recorded digest. The caller is responsible for having
/// verified the chain *links* (parent ids and digests) — the planner does.
pub fn materialize(
    base: &Checkpoint,
    deltas: &[&DeltaCheckpoint],
) -> Result<Checkpoint, PersistError> {
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
    let mut regions: BTreeMap<(usize, usize), Vec<Word>> = checksums
        .iter()
        .map(|t| ((t.region.base(), t.region.len()), vec![0; t.region.len()]))
        .collect();
    let runs = base
        .snapshot
        .parts()
        .iter()
        .chain(deltas.iter().flat_map(|d| d.snapshot.parts()));
    for (r, words) in runs {
        overlay(&mut regions, *r, words).map_err(|what| PersistError::Malformed {
            what: format!("materialized generation {seq}: {what}"),
        })?;
    }
    for t in checksums {
        let actual = digest_words(
            t.region.base(),
            &regions[&(t.region.base(), t.region.len())],
        );
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
            regions
                .into_iter()
                .map(|((base, len), words)| (Region::from_raw(base, len), words))
                .collect(),
        ),
        checksums: checksums.to_vec(),
    })
}

/// Copies one run into the region holding it, or keeps it as a region of
/// its own when it overlaps none. Regions are keyed by (base, length). A
/// run straddling a region edge cannot have been cut by any writer.
fn overlay(
    regions: &mut BTreeMap<(usize, usize), Vec<Word>>,
    run: Region,
    words: &[Word],
) -> Result<(), String> {
    let (lo, hi) = (run.base(), run.base() + words.len());
    if let Some((&(base, len), target)) = regions.range_mut(..=(lo, usize::MAX)).next_back() {
        if hi <= base + len {
            target[lo - base..hi - base].copy_from_slice(words);
            return Ok(());
        }
        if lo < base + len {
            return Err(format!("run [{lo}, {hi}) straddles the region at {base}"));
        }
    }
    if let Some((&(next, _), _)) = regions.range((lo + 1, 0)..).next() {
        if next < hi {
            return Err(format!("run [{lo}, {hi}) straddles the region at {next}"));
        }
    }
    regions.insert((lo, words.len()), words.to_vec());
    Ok(())
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

    /// Dirtiness is judged per block by content: a delta carries the one
    /// block a store changed, nothing for a store of the value already
    /// there, and a region the parent did not track as its non-zero blocks.
    #[test]
    fn delta_carries_the_blocks_whose_content_changed() {
        let mut m = Machine::new(CostModel::unit());
        let a = m.alloc(8, "a");
        let big = m.alloc(100, "big");
        m.track_region(a);
        m.track_region(big);
        let base = full(&m, &[a, big], 1);

        let idx = m.vimm(&[1, 70]);
        let val = m.vimm(&[5, 0]); // big[70] already holds 0
        m.scatter(big, &idx, &val);
        let d = DeltaCheckpoint::capture(&m, 2, 1, &base.checksums, vec![], vec![]);
        assert_eq!(d.snapshot.parts().len(), 1, "one block of big");
        assert_eq!(d.snapshot.parts()[0].0, Region::from_raw(big.base(), 32));

        // Only the value already there: nothing changed, nothing carried.
        let idx = m.vimm(&[1]);
        let val = m.vimm(&[5]);
        m.scatter(big, &idx, &val);
        let d2 = DeltaCheckpoint::capture(&m, 3, 2, &d.checksums, vec![], vec![]);
        assert!(d2.snapshot.parts().is_empty());
        assert_eq!(d2.state_digest(), d.state_digest());

        // A region tracked since the parent: its non-zero blocks.
        let c = m.alloc(64, "c");
        m.s_write(c.at(40), 9);
        m.track_region(c);
        let d3 = DeltaCheckpoint::capture(&m, 4, 3, &d2.checksums, vec![], vec![]);
        assert_eq!(
            d3.snapshot
                .parts()
                .iter()
                .map(|(r, _)| *r)
                .collect::<Vec<_>>(),
            vec![Region::from_raw(c.base() + 32, 32)]
        );
        let image = materialize(&base, &[&d, &d2, &d3]).expect("materializes");
        assert!(image.snapshot.matches(m.mem()));
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
