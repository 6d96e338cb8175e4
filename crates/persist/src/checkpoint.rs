//! Versioned, CRC-framed region images with atomic rename-commit — the one
//! codec behind full checkpoints and delta checkpoints.
//!
//! An image is the durable form of one worker's committed state at a round
//! boundary: the byte-exact contents of its regions (a serialized
//! [`fol_vm::Snapshot`]), the tracked-region digests that certify those
//! contents, the host-side counters machine memory cannot carry (arena
//! watermarks and the like), and the set of request sequence numbers whose
//! effects the image already contains — the fact the WAL replayer needs to
//! be exactly-once instead of at-least-once.
//!
//! A full image ([`Checkpoint`]) carries every non-zero block of every
//! region it was given; a delta ([`crate::DeltaCheckpoint`]) carries only
//! the blocks that changed since its parent generation and names that
//! parent. That parent link is the only difference, so both are
//! [`Image<K>`], with `K` = [`Full`] or [`crate::delta::Parent`] supplying
//! the magic, the file extension and the link fields ([`ImageKind`]).
//!
//! # On-disk format (versions 1 and 2)
//!
//! ```text
//! magic "FOLCKPT\0" (full) | "FOLDCKP\0" (delta)   version u32 LE
//! frame: meta      — seq, [parent_seq, parent_digest: deltas only],
//!                    counters, applied set, run/checksum counts
//! frame: region ×N — base u64, len u64, words i64 ×len
//! frame: checksums — (name, base, len, digest) ×M
//! frame: trailer   — literal "END", and nothing after it
//! ```
//!
//! A region frame carries a **run**: whole [`BLOCK_WORDS`]-word blocks of
//! one tracked region, from `base` for `len` words (the region's last
//! block may be short). Version 1 allowed only whole regions; version 2
//! allows a run to cover part of one. A full image leaves out every block
//! whose committed words are all zero, since a fresh allocation is zero;
//! a delta carries the blocks that changed since its parent. The checksum
//! frame still names every tracked region, and a reader zeroes each of
//! them before it overlays the runs ([`Checkpoint::restore_into`],
//! [`crate::materialize`]). A version-1 file is therefore a version-2 file
//! whose runs are whole regions, and the reader takes both. The writer
//! stamps version 1 whenever that holds — every run is a whole region and
//! a full image carries every region it certifies — so an older build still
//! reads the image; otherwise it stamps [`IMAGE_VERSION`].
//!
//! Every frame is CRC-32 protected ([`crate::frame`]); the trailer frame
//! means a file truncated *exactly at a frame boundary* is still detected
//! as [`PersistError::Truncated`] rather than silently losing its tail.
//!
//! # Commit discipline
//!
//! [`Image::write`] never exposes a half-written file under the final
//! name: bytes go to a `.tmp` sibling, the file is fsynced, then atomically
//! renamed over the destination, then the directory is fsynced so the name
//! itself survives a crash. A kill at any point leaves either the old
//! image or the new one — the torn `.tmp`, if present, is not a generation
//! name and is never loaded.

use crate::frame::{
    push_frame, push_header, read_header, read_trailer, require_frame, Dec, Enc, HEADER_LEN,
    TRAILER,
};
use crate::PersistError;
use fol_vm::integrity::{block_digests, digest_words, CutBaseline, TrackedRegion, BLOCK_WORDS};
use fol_vm::{Machine, Region, Snapshot, Word};
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// The newest image format version, for both kinds: this build reads
/// versions 1 through this one and writes the lowest that can hold the
/// image (see the module docs).
pub const IMAGE_VERSION: u32 = 2;

/// One durable image of committed state. See the module docs for the
/// on-disk format.
#[derive(Clone, Debug, PartialEq)]
pub struct Image<K> {
    /// Monotonic position of this image: the highest request sequence (or
    /// commit count) whose effects it contains. Full images and deltas
    /// share one sequence.
    pub seq: u64,
    /// What the image is relative to: [`Full`] for a self-sufficient
    /// image, [`crate::delta::Parent`] for a delta.
    pub parent: K,
    /// Host-side counters that machine memory cannot carry (arena
    /// watermarks such as a chain table's `used_nodes`), restored alongside
    /// the snapshot. Always the full set, never a diff (they are tiny).
    pub counters: Vec<(String, u64)>,
    /// Request sequence numbers whose effects this image (materialized,
    /// for a delta) already contains. The WAL replayer subtracts this set
    /// so an acknowledged request is applied exactly once, not re-applied
    /// on every restart.
    pub applied: Vec<u64>,
    /// The byte-exact runs of whole blocks the image carries: a full
    /// image's non-zero blocks, a delta's changed ones. Every region the
    /// checksums name is zero wherever no run covers it.
    pub snapshot: Snapshot,
    /// Digests of all tracked regions at capture time, for
    /// [`Image::verify`] and post-restore certification.
    pub checksums: Vec<TrackedRegion>,
}

/// What sets one image kind apart on disk: its magic, its file extension,
/// and the link fields it writes into the meta frame right after `seq`.
pub trait ImageKind: Sized {
    /// First bytes of every file of this kind.
    const MAGIC: &'static [u8; 8];
    /// File-name extension, without the dot. Neither kind's extension is a
    /// suffix of the other's, so a scan never confuses them.
    const EXTENSION: &'static str;
    /// How error messages name the kind.
    const WHAT: &'static str;
    /// Whether an image of this kind stands alone. Only such an image must
    /// carry every region it certifies to be readable as version 1.
    const FULL: bool;

    /// Appends the link fields to the meta frame.
    fn encode_link(&self, meta: &mut Enc);

    /// Reads the link fields of an image at `seq` back, refusing links
    /// that cannot be valid.
    fn decode_link(meta: &mut Dec<'_>, seq: u64) -> Result<Self, PersistError>;
}

/// The kind of a full image: self-sufficient, no parent link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Full;

impl ImageKind for Full {
    const MAGIC: &'static [u8; 8] = b"FOLCKPT\0";
    const EXTENSION: &'static str = "ckpt";
    const WHAT: &'static str = "checkpoint";
    const FULL: bool = true;

    fn encode_link(&self, _meta: &mut Enc) {}

    fn decode_link(_meta: &mut Dec<'_>, _seq: u64) -> Result<Self, PersistError> {
        Ok(Full)
    }
}

/// A full image of committed state.
pub type Checkpoint = Image<Full>;

impl Checkpoint {
    /// Captures the committed contents of `regions` on `m` (cut from the
    /// machine's committed image, so rot its scrubs have not reached yet
    /// never reaches disk; live memory for a region outside every tracked
    /// one), together with digests of the tracked regions recomputed from
    /// that image — independent of the incremental sums. A tracked region
    /// is carried as runs of its non-zero blocks. The machine remembers the
    /// cut's block digests, so a delta on top of it can be cut by block.
    pub fn capture(
        m: &Machine,
        regions: &[Region],
        seq: u64,
        counters: Vec<(String, u64)>,
        applied: Vec<u64>,
    ) -> Self {
        let mut parts = Vec::new();
        for &r in regions {
            match m.committed_words(r) {
                Some(words) if m.block_digests(r).is_some() => {
                    parts.extend(nonzero_runs(r, words));
                }
                Some(words) => parts.push((r, words.to_vec())),
                None => parts.push((r, m.mem().read_region(r))),
            }
        }
        let mut checksums = Vec::new();
        let mut cut = Vec::new();
        for t in m.tracked_regions() {
            let words = m
                .committed_words(t.region)
                .expect("tracked regions have an image");
            let blocks = block_digests(t.region.base(), words);
            checksums.push(TrackedRegion {
                name: t.name.clone(),
                region: t.region,
                sum: region_sum(&blocks),
            });
            cut.push((t.region, blocks));
        }
        m.remember_cut(CutBaseline {
            state: state_digest(&checksums),
            regions: cut,
        });
        Image {
            seq,
            parent: Full,
            counters,
            applied,
            snapshot: Snapshot::from_parts(parts),
            checksums,
        }
    }

    /// Zeroes every region the checksums name, writes the runs back into
    /// `m` and resynchronizes the machine's incremental checksums. The
    /// machine must have been rebuilt with the identical allocation
    /// sequence (region geometry is bounds-checked by the memory layer, not
    /// trusted). When the restored digests are the ones the image
    /// certifies, the machine remembers them as a cut, so the next delta
    /// chained onto this image is cut by block.
    pub fn restore_into(&self, m: &mut Machine) {
        for t in &self.checksums {
            m.mem_mut().write_region(t.region, &vec![0; t.region.len()]);
        }
        self.snapshot.restore(m.mem_mut());
        m.resync_integrity();
        let tracked = m.tracked_regions();
        let certified = tracked.len() == self.checksums.len()
            && self
                .checksums
                .iter()
                .all(|t| m.checksum_of(t.region) == Some(t.sum));
        if certified {
            let regions = tracked
                .iter()
                .map(|t| {
                    let blocks = m.block_digests(t.region).expect("tracked");
                    (t.region, blocks.to_vec())
                })
                .collect();
            m.remember_cut(CutBaseline {
                state: self.state_digest(),
                regions,
            });
        }
    }
}

/// The runs of the blocks of `region` (committed contents `words`) that
/// are not all zero: what an image carries of a region its reader zeroes
/// first.
pub(crate) fn nonzero_runs(region: Region, words: &[Word]) -> Vec<(Region, Vec<Word>)> {
    let nonzero: Vec<bool> = words
        .chunks(BLOCK_WORDS)
        .map(|c| c.iter().any(|&w| w != 0))
        .collect();
    block_runs(region, words, &nonzero)
}

/// The digest of a region from its block digests: their XOR.
pub(crate) fn region_sum(blocks: &[u64]) -> u64 {
    blocks.iter().fold(0, |acc, b| acc ^ b)
}

/// The runs of whole [`BLOCK_WORDS`]-word blocks of `region` (committed
/// contents `words`) whose flag in `picked` is set, adjacent picked blocks
/// coalesced into one run.
pub(crate) fn block_runs(
    region: Region,
    words: &[Word],
    picked: &[bool],
) -> Vec<(Region, Vec<Word>)> {
    let mut runs = Vec::new();
    let mut b = 0;
    while b < picked.len() {
        if !picked[b] {
            b += 1;
            continue;
        }
        let first = b;
        while b < picked.len() && picked[b] {
            b += 1;
        }
        let (lo, hi) = (first * BLOCK_WORDS, (b * BLOCK_WORDS).min(words.len()));
        runs.push((
            Region::from_raw(region.base() + lo, hi - lo),
            words[lo..hi].to_vec(),
        ));
    }
    runs
}

/// The state digest of a checksum set: XOR of the per-region digests. Two
/// generations with the same tracked regions and the same bytes have the
/// same state digest; a delta names its parent by this value so a chain
/// cannot silently splice onto the wrong image.
pub(crate) fn state_digest(checksums: &[TrackedRegion]) -> u64 {
    checksums.iter().fold(0, |acc, t| acc ^ t.sum)
}

impl<K: ImageKind> Image<K> {
    /// This image's state digest (see the module docs of
    /// [`crate::delta`]) — what a child delta must name as its parent
    /// digest.
    pub fn state_digest(&self) -> u64 {
        state_digest(&self.checksums)
    }

    /// The format version this image is written as: 1 when every run
    /// is a whole region and, for a full image, every certified region is
    /// carried — what an older build reads — and [`IMAGE_VERSION`]
    /// otherwise.
    pub fn format_version(&self) -> u32 {
        let parts = self.snapshot.parts();
        let whole = |r: &Region| {
            self.checksums.iter().all(|t| {
                t.region == *r
                    || t.region.base() + t.region.len() <= r.base()
                    || r.base() + r.len() <= t.region.base()
            })
        };
        let carried = |t: &TrackedRegion| parts.iter().any(|(r, _)| *r == t.region);
        if parts.iter().all(|(r, _)| whole(r)) && (!K::FULL || self.checksums.iter().all(carried)) {
            1
        } else {
            IMAGE_VERSION
        }
    }

    /// Serializes to the byte format, stamped with
    /// [`Image::format_version`].
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        push_header(&mut out, K::MAGIC, self.format_version());

        let mut meta = Enc::new();
        meta.u64(self.seq);
        self.parent.encode_link(&mut meta);
        meta.u32(self.counters.len() as u32);
        for (name, v) in &self.counters {
            meta.str(name);
            meta.u64(*v);
        }
        meta.u32(self.applied.len() as u32);
        for &s in &self.applied {
            meta.u64(s);
        }
        meta.u32(self.snapshot.parts().len() as u32);
        meta.u32(self.checksums.len() as u32);
        push_frame(&mut out, &meta.into_bytes());

        for (region, words) in self.snapshot.parts() {
            let mut e = Enc::new();
            e.u64(region.base() as u64);
            e.u64(words.len() as u64);
            for &w in words {
                e.i64(w);
            }
            push_frame(&mut out, &e.into_bytes());
        }

        let mut sums = Enc::new();
        for t in &self.checksums {
            sums.str(&t.name);
            sums.u64(t.region.base() as u64);
            sums.u64(t.region.len() as u64);
            sums.u64(t.sum);
        }
        push_frame(&mut out, &sums.into_bytes());
        push_frame(&mut out, TRAILER);
        out
    }

    /// Deserializes the byte format, version 1 or 2. Every defect is a distinct
    /// typed error: wrong magic ([`PersistError::BadMagic`]), unknown
    /// version ([`PersistError::UnsupportedVersion`]), torn file
    /// ([`PersistError::Truncated`]), bit-flip
    /// ([`PersistError::CrcMismatch`]), framed-in garbage or bytes after
    /// the trailer ([`PersistError::Malformed`]). A delta whose parent is
    /// not strictly older than itself is also `Malformed`.
    pub fn decode(bytes: &[u8]) -> Result<Self, PersistError> {
        let what = K::WHAT;
        read_header(bytes, K::MAGIC, 1..=IMAGE_VERSION, what)?;
        let mut pos = HEADER_LEN;
        let meta_what = format!("{what}: meta frame");
        let meta = require_frame(bytes, &mut pos, &meta_what)?;
        let mut d = Dec::new(meta);
        let seq = d.u64("meta.seq")?;
        let parent = K::decode_link(&mut d, seq)?;
        let n_counters = d.u32("meta.counters.len")? as usize;
        let mut counters = Vec::with_capacity(n_counters.min(1024));
        for _ in 0..n_counters {
            let name = d.str("meta.counter.name")?;
            let v = d.u64("meta.counter.value")?;
            counters.push((name, v));
        }
        let n_applied = d.u32("meta.applied.len")? as usize;
        let mut applied = Vec::with_capacity(n_applied.min(1024));
        for _ in 0..n_applied {
            applied.push(d.u64("meta.applied.seq")?);
        }
        let n_regions = d.u32("meta.regions.len")? as usize;
        let n_sums = d.u32("meta.checksums.len")? as usize;
        d.finish(&meta_what)?;

        let region_what = format!("{what}: region frame");
        let mut parts: Vec<(Region, Vec<Word>)> = Vec::with_capacity(n_regions.min(1024));
        for i in 0..n_regions {
            let payload = require_frame(bytes, &mut pos, &region_what)?;
            let mut d = Dec::new(payload);
            let field = format!("region[{i}]");
            let base = d.u64(&field)? as usize;
            let len = d.u64(&field)? as usize;
            let mut words = Vec::with_capacity(len.min(1 << 20));
            for _ in 0..len {
                words.push(d.i64(&field)?);
            }
            d.finish(&region_what)?;
            parts.push((Region::from_raw(base, len), words));
        }

        let sums_what = format!("{what}: checksum frame");
        let sums_payload = require_frame(bytes, &mut pos, &sums_what)?;
        let mut d = Dec::new(sums_payload);
        let mut checksums = Vec::with_capacity(n_sums.min(1024));
        for _ in 0..n_sums {
            let name = d.str("checksum.name")?;
            let base = d.u64("checksum.base")? as usize;
            let len = d.u64("checksum.len")? as usize;
            let sum = d.u64("checksum.sum")?;
            checksums.push(TrackedRegion {
                name,
                region: Region::from_raw(base, len),
                sum,
            });
        }
        d.finish(&sums_what)?;

        read_trailer(bytes, pos, what)?;
        Ok(Image {
            seq,
            parent,
            counters,
            applied,
            snapshot: Snapshot::from_parts(parts),
            checksums,
        })
    }

    /// Cross-checks the stored digests against the stored region contents:
    /// every checksum whose region a run covers whole must match a fresh
    /// [`digest_words`] over the run's words. The CRC layer certifies the
    /// *bytes* survived storage; this certifies the image was internally
    /// consistent when written (a writer racing its own mutations would be
    /// caught here). Regions checksummed but carried in part or not at
    /// all — a delta's clean blocks, a full image's zero blocks — are
    /// certified by [`crate::materialize`]'s end-to-end check instead.
    pub fn verify(&self) -> Result<(), PersistError> {
        for t in &self.checksums {
            let Some((_, words)) = self
                .snapshot
                .parts()
                .iter()
                .find(|(r, _)| r.base() == t.region.base() && r.len() == t.region.len())
            else {
                continue;
            };
            let actual = digest_words(t.region.base(), words);
            if actual != t.sum {
                return Err(PersistError::Malformed {
                    what: format!(
                        "{}: region \"{}\" digest {actual:#018x} does not match \
                         stored checksum {:#018x} — the image was written inconsistent",
                        K::WHAT,
                        t.name,
                        t.sum
                    ),
                });
            }
        }
        Ok(())
    }

    /// Serializes and commits atomically to `path` (temp file + fsync +
    /// rename + directory fsync). A crash at any point leaves either the
    /// previous file or the complete new one under `path`.
    pub fn write(&self, path: &Path) -> Result<(), PersistError> {
        write_atomic(path, &self.encode(), true)
    }

    /// [`Image::write`] without the fsyncs: the same atomic temp-file +
    /// rename commit (safe against process crashes), relying on the OS to
    /// flush. Appropriate when a durable write-ahead log is the source of
    /// truth and this image merely shortens replay — a power-loss-torn
    /// file is refused typed at load time and recovery falls back to an
    /// older generation plus the log.
    pub fn write_unsynced(&self, path: &Path) -> Result<(), PersistError> {
        write_atomic(path, &self.encode(), false)
    }

    /// Reads and decodes `path`. Does not [`Image::verify`]; the planner
    /// and the compactor do both.
    pub fn load(path: &Path) -> Result<Self, PersistError> {
        let bytes =
            fs::read(path).map_err(|e| PersistError::io(format!("read {}", path.display()), e))?;
        Self::decode(&bytes)
    }

    /// The canonical file name for an image of `prefix` at `seq` —
    /// zero-padded so lexicographic order is sequence order, with the
    /// kind's extension.
    pub fn file_name(prefix: &str, seq: u64) -> String {
        format!("{prefix}-{seq:020}.{}", K::EXTENSION)
    }
}

/// Write-to-temp + atomic rename, with the file and directory fsyncs when
/// `sync` is set. `sync: false` keeps the temp-file + rename protocol (a
/// *process* crash still leaves either the old file or the complete new
/// one) but concedes that a *power* loss may tear the file — acceptable
/// exactly where the caller treats the artifact as a cache over a durable
/// log: a torn image is refused typed at load time and recovery falls back
/// to an older one plus log replay.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8], sync: bool) -> Result<(), PersistError> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    fs::create_dir_all(dir)
        .map_err(|e| PersistError::io(format!("create {}", dir.display()), e))?;
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)
            .map_err(|e| PersistError::io(format!("create {}", tmp.display()), e))?;
        f.write_all(bytes)
            .map_err(|e| PersistError::io(format!("write {}", tmp.display()), e))?;
        if sync {
            f.sync_all()
                .map_err(|e| PersistError::io(format!("fsync {}", tmp.display()), e))?;
        }
    }
    fs::rename(&tmp, path).map_err(|e| {
        PersistError::io(format!("rename {} -> {}", tmp.display(), path.display()), e)
    })?;
    // Make the rename itself durable: fsync the containing directory.
    if sync {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::DeltaCheckpoint;
    use fol_vm::CostModel;

    fn sample_machine() -> (Machine, Region, Region) {
        let mut m = Machine::new(CostModel::unit());
        let a = m.alloc(8, "a");
        let b = m.alloc(3, "b");
        for i in 0..8 {
            m.s_write(a.at(i), (i as Word) * 7 - 3);
        }
        for i in 0..3 {
            m.s_write(b.at(i), -(i as Word));
        }
        m.track_region(a);
        m.track_region(b);
        (m, a, b)
    }

    fn sample_checkpoint() -> Checkpoint {
        let (m, a, b) = sample_machine();
        Checkpoint::capture(
            &m,
            &[a, b],
            42,
            vec![("chain.used_nodes".into(), 17), ("bst.used".into(), 5)],
            vec![3, 5, 8],
        )
    }

    #[test]
    fn checkpoint_round_trips_and_verifies() {
        let c = sample_checkpoint();
        let bytes = c.encode();
        let back = Checkpoint::decode(&bytes).unwrap();
        assert_eq!(back, c);
        back.verify().unwrap();
        assert_eq!(back.seq, 42);
        assert_eq!(back.applied, vec![3, 5, 8]);
        assert_eq!(back.counters[0].0, "chain.used_nodes");
        assert_eq!(back.snapshot.words(), 11);
    }

    #[test]
    fn restore_into_rebuilds_identical_state() {
        let c = sample_checkpoint();
        let (mut m2, a2, _) = sample_machine();
        // Diverge, then restore.
        m2.s_write(a2.at(0), 999);
        c.restore_into(&mut m2);
        assert!(c.snapshot.matches(m2.mem()));
        m2.scrub().expect("restore_into must resync the digests");
    }

    /// The version/corruption table, run over both image kinds. Every
    /// distinct way a stored image can be damaged maps to a *distinct*
    /// typed error — version skew is not "corruption", truncation is not a
    /// bit-flip, and none of them load.
    #[test]
    fn corruption_table_yields_distinct_typed_errors() {
        let (mut m, a, b) = sample_machine();
        let full = Checkpoint::capture(&m, &[a, b], 1, vec![], vec![1]);
        m.s_write(a.at(0), 5);
        let delta = DeltaCheckpoint::capture(&m, 2, 1, &full.checksums, vec![], vec![1, 2]);
        type Decode = fn(&[u8]) -> Result<(), PersistError>;
        let kinds: [(&str, Vec<u8>, Decode); 2] = [
            ("full", full.encode(), |b| Checkpoint::decode(b).map(drop)),
            ("delta", delta.encode(), |b| {
                DeltaCheckpoint::decode(b).map(drop)
            }),
        ];
        for (kind, good, decode) in kinds {
            decode(&good).unwrap();
            // (mutation, damaged bytes, expected-variant matcher)
            type Case = (&'static str, Vec<u8>, fn(&PersistError) -> bool);
            let cases: Vec<Case> = vec![
                (
                    "bumped version",
                    {
                        let mut b = good.clone();
                        b[8] = (IMAGE_VERSION + 1) as u8;
                        b
                    },
                    |e| {
                        matches!(
                            e,
                            PersistError::UnsupportedVersion {
                                found,
                                supported: IMAGE_VERSION,
                                ..
                            } if *found == IMAGE_VERSION + 1
                        )
                    },
                ),
                (
                    "unknown magic",
                    {
                        let mut b = good.clone();
                        b[0] = b'X';
                        b
                    },
                    |e| matches!(e, PersistError::BadMagic { .. }),
                ),
                ("truncated header", good[..7].to_vec(), |e| {
                    matches!(e, PersistError::Truncated { .. })
                }),
                (
                    "truncated mid-frame",
                    good[..good.len() - 5].to_vec(),
                    |e| matches!(e, PersistError::Truncated { .. }),
                ),
                (
                    "truncated at a frame boundary (trailer missing)",
                    good[..good.len() - (8 + TRAILER.len())].to_vec(),
                    |e| matches!(e, PersistError::Truncated { .. }),
                ),
                (
                    "bit-flipped frame payload",
                    {
                        let mut b = good.clone();
                        b[HEADER_LEN + 8 + 2] ^= 0x20; // inside the meta frame payload
                        b
                    },
                    |e| matches!(e, PersistError::CrcMismatch { .. }),
                ),
                (
                    "bytes after the trailer",
                    {
                        let mut b = good.clone();
                        b.push(0);
                        b
                    },
                    |e| matches!(e, PersistError::Malformed { .. }),
                ),
            ];
            let mut seen = Vec::new();
            for (label, bytes, matches_expected) in cases {
                let err = decode(&bytes)
                    .err()
                    .unwrap_or_else(|| panic!("{kind}: {label}: a damaged image must not decode"));
                assert!(
                    matches_expected(&err),
                    "{kind}: {label}: wrong variant: {err}"
                );
                seen.push(std::mem::discriminant(&err));
            }
            // Version skew, truncation and bit-flip are pairwise distinct.
            assert_ne!(seen[0], seen[2], "{kind}: version skew != truncation");
            assert_ne!(seen[0], seen[5], "{kind}: version skew != bit-flip");
            assert_ne!(seen[2], seen[5], "{kind}: truncation != bit-flip");
        }
    }

    #[test]
    fn verify_catches_inconsistent_writer() {
        let mut c = sample_checkpoint();
        c.checksums[0].sum ^= 1;
        let err = c.verify().unwrap_err();
        assert!(matches!(err, PersistError::Malformed { .. }), "{err}");
        // The damage survives a round-trip (CRCs are consistent with the
        // stored lie) and is still caught at verify.
        let back = Checkpoint::decode(&c.encode()).unwrap();
        assert!(back.verify().is_err());
    }
}
