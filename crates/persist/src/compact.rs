//! Log-structured compaction: bounding disk without un-earning recovery.
//!
//! Delta cadences keep durability cheap but let artifacts accumulate: WAL
//! segments pile up behind every checkpoint, and superseded generations
//! (old full images and the deltas between them) are dead weight once a
//! newer durable generation covers them. The [`Compactor`] deletes both —
//! under rules chosen so that **every fallback the
//! [`crate::planner::RecoveryPlanner`] might take still has the WAL
//! coverage it needs**:
//!
//! * **Retention boundary** — per checkpoint prefix, the *oldest* of the
//!   newest `keep_full_images` **loadable** full images. Everything
//!   strictly below it (full or delta) is prunable; everything at or above
//!   it is a potential restore head and is kept. If *no* full image loads,
//!   compaction refuses, typed ([`CompactRefusal::NoLoadableFullImage`]) —
//!   deleting anything could orphan the only evidence left.
//! * **WAL floor** — a segment is deletable only if every admission record
//!   in it is covered by the *boundary* image's applied set (not the newest
//!   generation's: the planner may legitimately fall back as far as the
//!   boundary, and replay must still cover the gap) or was terminally
//!   refused. Only a *prefix* of segments is deleted — an admission's
//!   later completion record can then never be orphaned — and the active
//!   segment is never touched.
//! * **Lock rule** — a pass reads only *sealed* segments: those below the
//!   active index the caller names ([`Compactor::compact_below`]). A server
//!   takes its log mutex just to [`crate::Wal::rotate`], which returns that
//!   index, and releases it before the pass; appends continue into the
//!   active segment, which the pass never reads, judges or deletes. Passes
//!   must not run concurrently with each other; the caller serializes them.
//! * **Log floor** — the report names the lowest admission sequence still
//!   on disk after the deletes ([`CompactionReport::log_floor`]), counting
//!   a deleted segment only once the directory fsync made its deletion
//!   durable.
//!   Admissions are appended in sequence order, so no admission record
//!   remains for any sequence below it: a writer may drop those sequences
//!   from the applied sets of its later images, since nothing can re-drive
//!   them. Images then grow with the retained log, not with history.
//! * **Crash-safe ordering** — boundary images are fsynced *first* (a
//!   cadence may have written them unsynced, trusting the WAL that is
//!   about to be deleted), then a marker file is committed, then files are
//!   deleted, then the directory is fsynced, then the marker is removed.
//!   A kill anywhere leaves either extra files (re-prunable, harmless) or
//!   a marker naming an interrupted pass; re-running is idempotent.

use crate::checkpoint::{write_atomic, Checkpoint};
use crate::planner::{scan_generations, Generation, GenerationKind};
use crate::wal::{replay_below, segments};
use crate::PersistError;
use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

/// How the compactor reads the serving layer's (otherwise opaque) WAL
/// records: the caller supplies a classifier from payload bytes to this.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogRecord {
    /// A request was admitted (and acknowledged) under `seq`.
    Admit {
        /// The request sequence number.
        seq: u64,
    },
    /// A request completed; `applied` is false for a typed refusal that
    /// was reported to the client (and must never be silently re-driven).
    Complete {
        /// The request sequence number.
        seq: u64,
        /// Whether the request mutated state.
        applied: bool,
    },
    /// Anything else — ignored by compaction, never load-bearing.
    Other,
}

/// A typed reason the compactor declined to delete something. Refusals are
/// recorded in the [`CompactionReport`], and the corresponding deletions
/// simply do not happen — compaction is never load-bearing for
/// correctness, only for disk bounds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompactRefusal {
    /// No full image of `prefix` loads and verifies: pruning anything
    /// could orphan the only recoverable evidence, and the WAL floor is
    /// unknowable, so the WAL is not compacted either.
    NoLoadableFullImage {
        /// The checkpoint prefix whose images all failed.
        prefix: String,
        /// How many full-image files were examined.
        examined: usize,
        /// The newest image's typed load error, when any file existed.
        newest_error: Option<PersistError>,
    },
    /// The WAL did not replay cleanly (hard corruption in sealed history):
    /// its segments are left for the operator, nothing is deleted.
    WalUnreadable {
        /// The typed replay error.
        error: PersistError,
    },
}

impl std::fmt::Display for CompactRefusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompactRefusal::NoLoadableFullImage {
                prefix, examined, ..
            } => write!(
                f,
                "no loadable full image for {prefix:?} ({examined} examined): refusing to prune"
            ),
            CompactRefusal::WalUnreadable { error } => {
                write!(f, "wal does not replay cleanly: {error}")
            }
        }
    }
}

/// What one compaction pass did (and declined to do).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Generation files (full images and deltas) removed.
    pub generations_removed: usize,
    /// Sealed WAL segments removed.
    pub wal_segments_removed: usize,
    /// Per checkpoint prefix: the retention boundary chosen (the oldest
    /// retained loadable full image's generation id).
    pub boundaries: Vec<(String, u64)>,
    /// Typed refusals: deletions that did not happen, and why.
    pub refusals: Vec<CompactRefusal>,
    /// A marker from an interrupted previous pass was found at entry; this
    /// pass recomputed and completed the work.
    pub resumed_marker: bool,
    /// The lowest admission sequence still on disk after this pass: every
    /// admission in a retained sealed segment, and every later one, is at
    /// or above it. When every sealed admission was deleted it is one past
    /// the highest of them. `None` when the pass did not read the log, or
    /// found no admission in it.
    pub log_floor: Option<u64>,
}

/// The compaction policy and entry point. See the module docs.
pub struct Compactor {
    dir: PathBuf,
    wal_prefix: String,
    keep_full_images: usize,
}

impl Compactor {
    /// A compactor over `dir`, whose WAL segments use `wal_prefix`.
    /// Defaults to retaining 2 full images per checkpoint prefix.
    pub fn new(dir: impl Into<PathBuf>, wal_prefix: impl Into<String>) -> Self {
        Compactor {
            dir: dir.into(),
            wal_prefix: wal_prefix.into(),
            keep_full_images: 2,
        }
    }

    /// Retain the newest `keep` loadable full images per prefix (0 is
    /// treated as 1 — retaining nothing would orphan every delta chain).
    pub fn keep_full_images(mut self, keep: usize) -> Self {
        self.keep_full_images = keep.max(1);
        self
    }

    /// The marker file that makes the delete phase crash-evident.
    pub fn marker_path(&self) -> PathBuf {
        self.dir.join(format!("{}.compacting", self.wal_prefix))
    }

    /// One compaction pass over every checkpoint prefix in
    /// `ckpt_prefixes` plus the shared WAL, treating the newest segment on
    /// disk as the active one. `classify` decodes WAL record payloads (the
    /// serving layer owns that codec). Read-only until the plan is
    /// complete; idempotent; safe to re-run after a kill. `Err` is reserved
    /// for unreadable directories — per-file problems become typed
    /// refusals inside the `Ok`. A log still being appended to must use
    /// [`Compactor::compact_below`] instead.
    pub fn compact(
        &self,
        ckpt_prefixes: &[&str],
        classify: impl Fn(&[u8]) -> LogRecord,
    ) -> Result<CompactionReport, PersistError> {
        let active = segments(&self.dir, &self.wal_prefix)?
            .last()
            .map_or(0, |(index, _)| *index);
        self.compact_below(ckpt_prefixes, classify, active)
    }

    /// [`Compactor::compact`] over a live log whose active segment is
    /// `active` (what [`crate::Wal::rotate`] returned): the pass replays,
    /// judges and deletes only the sealed segments below it, so it needs no
    /// lock against appends (see the module docs' lock rule).
    pub fn compact_below(
        &self,
        ckpt_prefixes: &[&str],
        classify: impl Fn(&[u8]) -> LogRecord,
        active: u64,
    ) -> Result<CompactionReport, PersistError> {
        let mut report = CompactionReport {
            resumed_marker: self.marker_path().exists(),
            ..CompactionReport::default()
        };

        // Phase 1: plan. Choose boundaries, collect the covered-seq floor,
        // and list every file to delete — touching nothing yet.
        let mut covered: BTreeSet<u64> = BTreeSet::new();
        let mut floor_known = true;
        let mut gen_deletions: Vec<PathBuf> = Vec::new();
        let mut boundary_paths: Vec<PathBuf> = Vec::new();
        for &prefix in ckpt_prefixes {
            let (gens, _notes) = scan_generations(&self.dir, prefix)?;
            if gens.is_empty() {
                continue; // A fresh prefix constrains nothing.
            }
            let fulls: Vec<&Generation> = gens
                .iter()
                .filter(|g| g.kind == GenerationKind::Full)
                .collect();
            let mut retained = 0usize;
            let mut boundary: Option<(&Generation, Checkpoint)> = None;
            let mut newest_error: Option<PersistError> = None;
            for g in &fulls {
                match Checkpoint::load(&g.path).and_then(|c| c.verify().map(|()| c)) {
                    Ok(c) => {
                        retained += 1;
                        boundary = Some((g, c));
                        if retained >= self.keep_full_images {
                            break;
                        }
                    }
                    Err(e) => {
                        if newest_error.is_none() {
                            newest_error = Some(e);
                        }
                    }
                }
            }
            let Some((bgen, bckpt)) = boundary else {
                report.refusals.push(CompactRefusal::NoLoadableFullImage {
                    prefix: prefix.to_string(),
                    examined: fulls.len(),
                    newest_error,
                });
                floor_known = false;
                continue;
            };
            report.boundaries.push((prefix.to_string(), bgen.seq));
            covered.extend(bckpt.applied.iter().copied());
            boundary_paths.push(bgen.path.clone());
            gen_deletions.extend(
                gens.iter()
                    .filter(|g| g.seq < bgen.seq)
                    .map(|g| g.path.clone()),
            );
        }

        // Phase 1b: the WAL plan over the sealed segments. Only when every
        // prefix's floor is known — an unknown floor could make a needed
        // admission look deletable.
        let mut wal_deletions: Vec<(u64, PathBuf)> = Vec::new();
        // Per sealed segment, in index order: its lowest and highest
        // admission, for the log floor.
        let mut admitted: Vec<(u64, Option<(u64, u64)>)> = Vec::new();
        if floor_known {
            match replay_below(&self.dir, &self.wal_prefix, active) {
                Err(error) => report
                    .refusals
                    .push(CompactRefusal::WalUnreadable { error }),
                Ok(rep) => {
                    let records: Vec<(u64, LogRecord)> = rep
                        .records
                        .iter()
                        .map(|r| (r.segment, classify(&r.payload)))
                        .collect();
                    let refused: BTreeSet<u64> = records
                        .iter()
                        .filter_map(|(_, r)| match r {
                            LogRecord::Complete {
                                seq,
                                applied: false,
                            } => Some(*seq),
                            _ => None,
                        })
                        .collect();
                    // Longest deletable prefix.
                    let mut deleting = true;
                    for (index, path) in segments(&self.dir, &self.wal_prefix)? {
                        if index >= active {
                            break;
                        }
                        let admits = || {
                            records.iter().filter_map(move |(seg, r)| match r {
                                LogRecord::Admit { seq } if *seg == index => Some(*seq),
                                _ => None,
                            })
                        };
                        let span = admits().min().zip(admits().max());
                        admitted.push((index, span));
                        deleting = deleting
                            && admits().all(|seq| covered.contains(&seq) || refused.contains(&seq));
                        if deleting {
                            wal_deletions.push((index, path));
                        }
                    }
                }
            }
        }
        let floor_after = |removed: &BTreeSet<u64>| {
            let kept = admitted
                .iter()
                .filter(|(index, _)| !removed.contains(index))
                .filter_map(|(_, span)| span.map(|(lo, _)| lo))
                .min();
            let past = admitted
                .iter()
                .filter_map(|(_, span)| span.map(|(_, hi)| hi + 1))
                .max();
            kept.or(past)
        };

        if gen_deletions.is_empty() && wal_deletions.is_empty() {
            // Nothing to do; clear a stale marker from an interrupted pass
            // whose work is evidently already complete.
            if report.resumed_marker {
                let _ = fs::remove_file(self.marker_path());
                let _ = self.fsync_dir();
            }
            report.log_floor = floor_after(&BTreeSet::new());
            return Ok(report);
        }

        // Phase 2: make the floor durable. Cadence writes below `Always`
        // leave images unsynced, trusting the WAL — which is exactly what
        // is about to be deleted. Power loss after the deletes must not be
        // able to tear a boundary image.
        for path in &boundary_paths {
            if let Ok(f) = fs::File::open(path) {
                let _ = f.sync_all();
            }
        }
        let _ = self.fsync_dir();

        // Phase 3: mark, delete, fsync, unmark.
        let marker_body = format!(
            "compacting: {} generation file(s), {} wal segment(s)\n",
            gen_deletions.len(),
            wal_deletions.len()
        );
        write_atomic(&self.marker_path(), marker_body.as_bytes(), true)?;
        for path in &gen_deletions {
            if fs::remove_file(path).is_ok() {
                report.generations_removed += 1;
            }
        }
        let mut removed = BTreeSet::new();
        for (index, path) in &wal_deletions {
            if fs::remove_file(path).is_ok() {
                report.wal_segments_removed += 1;
                removed.insert(*index);
            }
        }
        // A deletion counts toward the floor only once the directory fsync
        // made it durable: a segment that power loss could bring back must
        // not let writers drop the sequences it admits.
        if !self.fsync_dir() {
            removed.clear();
        }
        let _ = fs::remove_file(self.marker_path());
        let _ = self.fsync_dir();
        report.log_floor = floor_after(&removed);
        Ok(report)
    }

    /// Fsyncs the directory, so renames and deletes in it survive power
    /// loss; returns whether that worked.
    fn fsync_dir(&self) -> bool {
        fs::File::open(&self.dir).is_ok_and(|d| d.sync_all().is_ok())
    }
}

/// Convenience for callers that do not discriminate record types (tests,
/// tools): treat every record as [`LogRecord::Other`], so WAL segments are
/// deletable purely by position. Generally you want a real classifier.
pub fn classify_none(_payload: &[u8]) -> LogRecord {
    LogRecord::Other
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::DeltaCheckpoint;
    use crate::planner::RecoveryPlanner;
    use crate::wal::{FsyncPolicy, Wal};
    use fol_vm::{CostModel, Machine, Region, Word};
    use std::path::Path;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("fol-compact-test-{}-{tag}-{n}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_machine() -> (Machine, Region) {
        let mut m = Machine::new(CostModel::unit());
        let a = m.alloc(8, "a");
        for i in 0..8 {
            m.s_write(a.at(i), i as Word);
        }
        m.track_region(a);
        (m, a)
    }

    /// Test codec: [1, seq] = admit, [2, seq, applied] = complete.
    fn classify(p: &[u8]) -> LogRecord {
        match p.first() {
            Some(1) => LogRecord::Admit { seq: p[1] as u64 },
            Some(2) => LogRecord::Complete {
                seq: p[1] as u64,
                applied: p[2] == 1,
            },
            _ => LogRecord::Other,
        }
    }

    fn admit(seq: u8) -> Vec<u8> {
        vec![1, seq]
    }
    fn complete(seq: u8, applied: bool) -> Vec<u8> {
        vec![2, seq, applied as u8]
    }

    /// Full images at 1..=n_fulls with deltas between, applied sets
    /// growing: full at seq s has applied {1..=s}.
    fn write_generations(dir: &Path, prefix: &str, fulls: &[u64], deltas: &[(u64, u64)]) {
        let (mut m, a) = sample_machine();
        let mut sums_by_seq = std::collections::HashMap::new();
        let mut all: Vec<(u64, bool, u64)> = fulls.iter().map(|&s| (s, true, 0)).collect();
        all.extend(deltas.iter().map(|&(s, p)| (s, false, p)));
        all.sort_unstable();
        for (seq, is_full, parent) in all {
            let idx = m.vimm(&[(seq % 8) as Word]);
            let val = m.vimm(&[seq as Word * 10]);
            m.scatter(a, &idx, &val);
            let applied: Vec<u64> = (1..=seq).collect();
            if is_full {
                let c = Checkpoint::capture(&m, &[a], seq, vec![], applied);
                c.write(&dir.join(Checkpoint::file_name(prefix, seq)))
                    .unwrap();
                sums_by_seq.insert(seq, c.checksums.clone());
            } else {
                let parent_sums = sums_by_seq.get(&parent).expect("parent written first");
                let d = DeltaCheckpoint::capture(&m, seq, parent, parent_sums, vec![], applied);
                d.write(&dir.join(DeltaCheckpoint::file_name(prefix, seq)))
                    .unwrap();
                sums_by_seq.insert(seq, d.checksums.clone());
            }
        }
    }

    #[test]
    fn retention_keeps_newest_fulls_and_the_deltas_above_the_boundary() {
        let dir = temp_dir("retain");
        write_generations(&dir, "w0", &[2, 4, 6], &[(3, 2), (5, 4), (7, 6)]);

        let report = Compactor::new(&dir, "requests")
            .keep_full_images(2)
            .compact(&["w0"], classify)
            .unwrap();
        assert_eq!(report.boundaries, vec![("w0".to_string(), 4)]);
        // Below 4: full@2, delta@3 — both gone. At or above: kept.
        assert_eq!(report.generations_removed, 2);
        assert!(!dir.join(Checkpoint::file_name("w0", 2)).exists());
        assert!(!dir.join(DeltaCheckpoint::file_name("w0", 3)).exists());
        assert!(dir.join(Checkpoint::file_name("w0", 4)).exists());
        assert!(dir.join(DeltaCheckpoint::file_name("w0", 7)).exists());
        assert!(report.refusals.is_empty(), "{:?}", report.refusals);
        assert!(!Compactor::new(&dir, "requests").marker_path().exists());

        // The planner still restores the newest head after compaction.
        let plan = RecoveryPlanner::new(&dir, "w0").plan().unwrap();
        assert_eq!(plan.checkpoint.unwrap().seq, 7);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn refuses_to_prune_when_no_full_image_loads() {
        let dir = temp_dir("orphan");
        write_generations(&dir, "w0", &[2, 4], &[(3, 2), (5, 4)]);
        // Corrupt both full images.
        for seq in [2u64, 4] {
            let p = dir.join(Checkpoint::file_name("w0", seq));
            let mut b = fs::read(&p).unwrap();
            let mid = b.len() / 2;
            b[mid] ^= 0x01;
            fs::write(&p, &b).unwrap();
        }
        let mut wal = Wal::open(&dir, "requests", FsyncPolicy::Off, 1 << 20).unwrap();
        wal.append(&admit(1)).unwrap();
        wal.rotate().unwrap();
        wal.append(&admit(2)).unwrap();
        drop(wal);

        let report = Compactor::new(&dir, "requests")
            .keep_full_images(1)
            .compact(&["w0"], classify)
            .unwrap();
        assert_eq!(report.generations_removed, 0, "nothing deleted");
        assert_eq!(report.wal_segments_removed, 0, "wal floor unknown");
        assert!(
            matches!(
                &report.refusals[..],
                [CompactRefusal::NoLoadableFullImage { prefix, examined: 2, .. }] if prefix == "w0"
            ),
            "{:?}",
            report.refusals
        );
        assert!(dir.join(DeltaCheckpoint::file_name("w0", 3)).exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_prefix_deletion_respects_the_boundary_floor_not_the_newest() {
        let dir = temp_dir("floor");
        // Boundary with keep=2 is full@4 (applied {1..4}); the newest
        // generation covers more, but the floor must protect fallback.
        write_generations(&dir, "w0", &[4, 8], &[]);
        let mut wal = Wal::open(&dir, "requests", FsyncPolicy::Off, 1 << 20).unwrap();
        // Segment layout (segment_bytes=0 rotates per append … after the
        // first): force explicit segments.
        wal.append(&admit(1)).unwrap();
        wal.append(&complete(1, true)).unwrap();
        wal.rotate().unwrap();
        wal.append(&admit(4)).unwrap();
        wal.rotate().unwrap();
        wal.append(&admit(6)).unwrap(); // covered only by the *newest* image
        wal.rotate().unwrap();
        wal.append(&admit(9)).unwrap(); // covered by nothing
        drop(wal);

        let report = Compactor::new(&dir, "requests")
            .keep_full_images(2)
            .compact(&["w0"], classify)
            .unwrap();
        assert_eq!(report.boundaries, vec![("w0".to_string(), 4)]);
        // Segments 0 (admit 1) and 1 (admit 4) are below the floor; the
        // segment holding admit 6 is NOT deletable (floor is 4, not 8), so
        // the prefix stops there.
        assert_eq!(report.wal_segments_removed, 2);
        let remaining = segments(&dir, "requests").unwrap();
        assert_eq!(remaining.first().unwrap().0, 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn terminally_refused_admissions_do_not_block_deletion() {
        let dir = temp_dir("refused");
        write_generations(&dir, "w0", &[3], &[]);
        let mut wal = Wal::open(&dir, "requests", FsyncPolicy::Off, 1 << 20).unwrap();
        wal.append(&admit(7)).unwrap(); // never applied…
        wal.append(&complete(7, false)).unwrap(); // …refused, terminally
        wal.rotate().unwrap();
        wal.append(&admit(8)).unwrap();
        drop(wal);

        let report = Compactor::new(&dir, "requests")
            .keep_full_images(1)
            .compact(&["w0"], classify)
            .unwrap();
        assert_eq!(report.wal_segments_removed, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_stale_marker_is_resumed_and_cleared() {
        let dir = temp_dir("marker");
        write_generations(&dir, "w0", &[2, 4], &[]);
        let compactor = Compactor::new(&dir, "requests").keep_full_images(1);
        fs::write(compactor.marker_path(), b"interrupted").unwrap();

        let report = compactor.compact(&["w0"], classify).unwrap();
        assert!(report.resumed_marker);
        assert_eq!(report.generations_removed, 1);
        assert!(!compactor.marker_path().exists(), "marker cleared");

        // Idempotent: a second pass finds nothing and no marker.
        let again = compactor.compact(&["w0"], classify).unwrap();
        assert_eq!(again.generations_removed, 0);
        assert!(!again.resumed_marker);
        fs::remove_dir_all(&dir).ok();
    }

    /// The lock rule: a pass below the active index never reads the active
    /// segment (here it holds a corrupt frame a replay would refuse), and
    /// the floor it reports is the lowest admission left on disk.
    #[test]
    fn a_pass_below_the_active_segment_never_reads_it_and_reports_the_floor() {
        let dir = temp_dir("below");
        write_generations(&dir, "w0", &[4, 8], &[]);
        let mut wal = Wal::open(&dir, "requests", FsyncPolicy::Off, 1 << 20).unwrap();
        wal.append(&admit(1)).unwrap();
        wal.append(&admit(2)).unwrap();
        wal.rotate().unwrap();
        wal.append(&admit(5)).unwrap(); // covered only by the newest image
        let active = wal.rotate().unwrap();
        wal.append(&admit(9)).unwrap();
        drop(wal);
        let (_, path) = segments(&dir, "requests").unwrap().pop().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let report = Compactor::new(&dir, "requests")
            .keep_full_images(2)
            .compact_below(&["w0"], classify, active)
            .unwrap();
        assert!(report.refusals.is_empty(), "{:?}", report.refusals);
        assert_eq!(report.wal_segments_removed, 1, "admits 1 and 2 are covered");
        assert_eq!(report.log_floor, Some(5));
        fs::remove_dir_all(&dir).ok();

        // With every sealed admission deleted, the floor is one past them.
        let dir = temp_dir("below-all");
        write_generations(&dir, "w0", &[4], &[]);
        let mut wal = Wal::open(&dir, "requests", FsyncPolicy::Off, 1 << 20).unwrap();
        wal.append(&admit(3)).unwrap();
        let active = wal.rotate().unwrap();
        drop(wal);
        let report = Compactor::new(&dir, "requests")
            .keep_full_images(1)
            .compact_below(&["w0"], classify, active)
            .unwrap();
        assert_eq!(report.wal_segments_removed, 1);
        assert_eq!(report.log_floor, Some(4));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fresh_prefixes_and_missing_wal_are_no_ops() {
        let dir = temp_dir("fresh");
        let report = Compactor::new(&dir, "requests")
            .compact(&["w0", "w1"], classify_none)
            .unwrap();
        assert_eq!(report, CompactionReport::default());
        fs::remove_dir_all(&dir).ok();
    }
}
