//! The recovery planner: generation-walk restore with typed fallback.
//!
//! With delta checkpoints on disk, "load the newest checkpoint" becomes
//! "choose the newest generation whose **entire chain** down to a full
//! image loads, link-verifies, and materializes to the state it certifies".
//! The planner walks generations newest-first; for each candidate head it
//! follows parent edges, checking every link three ways:
//!
//! 1. **Load** — the file decodes (CRC, magic, version, structure) and
//!    passes its per-file `verify`. A torn delta or bit-flipped image is a
//!    typed [`SkipReason::Refused`].
//! 2. **Edge** — the parent generation exists on disk
//!    ([`SkipReason::MissingParent`] otherwise) and its state digest equals
//!    the child's recorded parent digest
//!    ([`SkipReason::ParentDigestMismatch`] otherwise — the chain would
//!    splice onto the wrong image).
//! 3. **Materialization** — overlaying the chain onto its base reproduces
//!    exactly the per-region digests the head certifies
//!    ([`SkipReason::Inconsistent`] otherwise).
//!
//! Any refusal skips that head — recorded, typed, never silent — and the
//! walk falls back to the next-newest generation. Falling back to an older
//! generation is always *safe* here because the write-ahead log is pruned
//! no further than the oldest retained full image's frontier (see
//! [`crate::compact`]): an older image simply means a wider WAL replay.

use crate::checkpoint::{Checkpoint, Full, ImageKind};
use crate::delta::{materialize, DeltaCheckpoint, Parent};
use crate::PersistError;
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::rc::Rc;

/// Why [`scan_generations`] stepped over a directory entry without
/// attempting to load it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScanNote {
    /// The directory entry itself could not be read (racing deletion,
    /// permissions). Carries the rendered I/O error.
    Unreadable {
        /// Where the entry sat.
        dir: PathBuf,
        /// The rendered `std::io::Error`.
        error: String,
    },
    /// The name matched the generation pattern but the entry is not a
    /// regular file — a subdirectory or special file squatting on a
    /// generation name is never opened.
    NotAFile {
        /// The offending path.
        path: PathBuf,
    },
    /// A `.ckpt` or `.delta` file whose name is not `{prefix}-{seq}` for
    /// the scanned prefix — another worker's generation, or a foreign
    /// artifact. Left alone.
    ForeignName {
        /// The foreign path.
        path: PathBuf,
    },
}

impl std::fmt::Display for ScanNote {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScanNote::Unreadable { dir, error } => {
                write!(f, "unreadable entry in {}: {error}", dir.display())
            }
            ScanNote::NotAFile { path } => {
                write!(f, "not a regular file: {}", path.display())
            }
            ScanNote::ForeignName { path } => {
                write!(f, "foreign generation name: {}", path.display())
            }
        }
    }
}

/// What kind of artifact a generation file holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum GenerationKind {
    /// A delta checkpoint (`.delta`), chained to a parent.
    Delta,
    /// A full image (`.ckpt`), self-sufficient. Ordered after `Delta` so
    /// that at equal seq a full image is preferred.
    Full,
}

/// One generation file found by [`scan_generations`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Generation {
    /// The generation id parsed from the file name.
    pub seq: u64,
    /// Full image or delta.
    pub kind: GenerationKind,
    /// Where it sits.
    pub path: PathBuf,
}

/// Lists every `{prefix}-{seq}.ckpt` / `{prefix}-{seq}.delta` generation in
/// `dir`, **newest first** (full images before deltas at equal seq), plus
/// typed notes for entries stepped over without being read: one junk inode
/// must never hide every recoverable generation behind an error. A
/// missing directory is an empty scan.
pub fn scan_generations(
    dir: &Path,
    prefix: &str,
) -> Result<(Vec<Generation>, Vec<ScanNote>), PersistError> {
    let mut gens = Vec::new();
    let mut notes = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((gens, notes)),
        Err(e) => return Err(PersistError::io(format!("read dir {}", dir.display()), e)),
    };
    let wanted = format!("{prefix}-");
    for entry in entries {
        let entry = match entry {
            Ok(e) => e,
            Err(e) => {
                notes.push(ScanNote::Unreadable {
                    dir: dir.to_path_buf(),
                    error: e.to_string(),
                });
                continue;
            }
        };
        let name = entry.file_name().to_string_lossy().into_owned();
        let extension = name.rsplit_once('.').map_or("", |(_, ext)| ext);
        let kind = if extension == Full::EXTENSION {
            GenerationKind::Full
        } else if extension == Parent::EXTENSION {
            GenerationKind::Delta
        } else {
            continue; // WAL segments, markers, temp files: legitimately here.
        };
        let Some(stem) = name
            .strip_prefix(&wanted)
            .and_then(|r| r.rsplit_once('.'))
            .map(|(s, _)| s)
        else {
            notes.push(ScanNote::ForeignName {
                path: dir.join(&name),
            });
            continue;
        };
        let Ok(seq) = stem.parse::<u64>() else {
            notes.push(ScanNote::ForeignName {
                path: dir.join(&name),
            });
            continue;
        };
        match entry.file_type().map(|t| t.is_file()) {
            Ok(true) => gens.push(Generation {
                seq,
                kind,
                path: dir.join(&name),
            }),
            Ok(false) => notes.push(ScanNote::NotAFile {
                path: dir.join(&name),
            }),
            Err(e) => notes.push(ScanNote::Unreadable {
                dir: dir.to_path_buf(),
                error: e.to_string(),
            }),
        }
    }
    gens.sort_unstable_by_key(|g| std::cmp::Reverse((g.seq, g.kind)));
    Ok((gens, notes))
}

/// Why a generation was passed over as a restore head — the typed record of
/// a fallback that would otherwise be silent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SkipReason {
    /// The head, or a link in its chain, failed to load or per-file verify
    /// (torn write, bit-flip, version skew, framed-in garbage). Carries the
    /// typed error and the path it arose at.
    Refused {
        /// The generation file that was refused (the head itself or an
        /// ancestor link).
        at: PathBuf,
        /// The typed load/verify error.
        error: PersistError,
    },
    /// A link names a parent generation that is not on disk at all —
    /// deleted mid-chain, or pruned by a buggy retention pass.
    MissingParent {
        /// The parent generation id the chain needs.
        parent_seq: u64,
    },
    /// The parent exists and loads, but its state digest is not the one
    /// the child recorded: applying the delta would splice onto the wrong
    /// image.
    ParentDigestMismatch {
        /// The parent generation id.
        parent_seq: u64,
        /// Digest the child expects of its parent.
        expected: u64,
        /// Digest the on-disk parent actually has.
        actual: u64,
    },
    /// Every link loaded and edge-verified, but materializing the chain did
    /// not reproduce the per-region digests the head certifies.
    Inconsistent {
        /// The typed materialization failure.
        error: PersistError,
    },
}

impl std::fmt::Display for SkipReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SkipReason::Refused { at, error } => {
                write!(f, "refused at {}: {error}", at.display())
            }
            SkipReason::MissingParent { parent_seq } => {
                write!(f, "parent generation {parent_seq} is missing from disk")
            }
            SkipReason::ParentDigestMismatch {
                parent_seq,
                expected,
                actual,
            } => write!(
                f,
                "parent generation {parent_seq} has state digest {actual:#018x}, \
                 child expects {expected:#018x}"
            ),
            SkipReason::Inconsistent { error } => {
                write!(f, "chain materialization inconsistent: {error}")
            }
        }
    }
}

/// One generation the planner stepped over, with its typed reason.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SkippedGeneration {
    /// The head generation id that was skipped.
    pub seq: u64,
    /// Its file.
    pub path: PathBuf,
    /// Why.
    pub reason: SkipReason,
}

/// The planner's verdict: the newest fully-verifiable generation,
/// materialized, plus the typed record of everything newer that was
/// skipped.
#[derive(Clone, Debug, Default)]
pub struct RecoveryPlan {
    /// The materialized restore image, if any generation was recoverable.
    /// Its `seq` is the head generation id; `applied` is the head's full
    /// applied set (the WAL replay floor).
    pub checkpoint: Option<Checkpoint>,
    /// File of the chosen head generation.
    pub head_path: Option<PathBuf>,
    /// Generation id of the full image the chosen chain is rooted at
    /// (equals the head's seq when the head is itself a full image).
    pub base_seq: Option<u64>,
    /// How many delta links were applied on top of the base.
    pub deltas_applied: usize,
    /// Every newer generation that was passed over, newest first, each with
    /// its typed reason. Empty means the newest generation restored clean.
    pub skipped: Vec<SkippedGeneration>,
    /// Directory entries stepped over without being read.
    pub notes: Vec<ScanNote>,
}

/// One loaded generation, cached so a chain shared by several candidate
/// heads is read once.
enum Loaded {
    Full(Rc<Checkpoint>),
    Delta(Rc<DeltaCheckpoint>),
}

/// Walks the generations of `prefix` in `dir` and produces the newest
/// fully-verifiable [`RecoveryPlan`]. See the module docs for the link
/// checks. `Err` is reserved for an unreadable *directory*; everything
/// wrong with individual files is a typed skip inside the `Ok`.
pub struct RecoveryPlanner {
    dir: PathBuf,
    prefix: String,
}

impl RecoveryPlanner {
    /// A planner over `{prefix}-*` generations in `dir`.
    pub fn new(dir: impl Into<PathBuf>, prefix: impl Into<String>) -> Self {
        RecoveryPlanner {
            dir: dir.into(),
            prefix: prefix.into(),
        }
    }

    /// Scans, walks, verifies, and materializes. Idempotent and read-only.
    pub fn plan(&self) -> Result<RecoveryPlan, PersistError> {
        let (gens, notes) = scan_generations(&self.dir, &self.prefix)?;
        let mut plan = RecoveryPlan {
            notes,
            ..RecoveryPlan::default()
        };
        // Load cache: chains overlap heavily between candidate heads.
        let mut cache: HashMap<PathBuf, Result<Loaded, PersistError>> = HashMap::new();
        let mut load = |path: &PathBuf, kind: GenerationKind| -> Result<Loaded, PersistError> {
            let entry = cache.entry(path.clone()).or_insert_with(|| match kind {
                GenerationKind::Full => Checkpoint::load(path)
                    .and_then(|c| c.verify().map(|()| c))
                    .map(|c| Loaded::Full(Rc::new(c))),
                GenerationKind::Delta => DeltaCheckpoint::load(path)
                    .and_then(|d| d.verify().map(|()| d))
                    .map(|d| Loaded::Delta(Rc::new(d))),
            });
            match entry {
                Ok(Loaded::Full(c)) => Ok(Loaded::Full(Rc::clone(c))),
                Ok(Loaded::Delta(d)) => Ok(Loaded::Delta(Rc::clone(d))),
                Err(e) => Err(e.clone()),
            }
        };

        'heads: for head in &gens {
            // Walk head → base, collecting delta links head-first.
            let mut deltas_rev: Vec<Rc<DeltaCheckpoint>> = Vec::new();
            let mut cursor = head.clone();
            let (base, base_gen) = loop {
                match load(&cursor.path, cursor.kind) {
                    Err(error) => {
                        plan.skipped.push(SkippedGeneration {
                            seq: head.seq,
                            path: head.path.clone(),
                            reason: SkipReason::Refused {
                                at: cursor.path.clone(),
                                error,
                            },
                        });
                        continue 'heads;
                    }
                    Ok(Loaded::Full(c)) => break (c, cursor.clone()),
                    Ok(Loaded::Delta(d)) => {
                        // Resolve the parent edge. Candidates at the parent
                        // seq, full images first (scan order provides this);
                        // the first that loads is the parent.
                        let candidates: Vec<&Generation> =
                            gens.iter().filter(|g| g.seq == d.parent.seq).collect();
                        if candidates.is_empty() {
                            plan.skipped.push(SkippedGeneration {
                                seq: head.seq,
                                path: head.path.clone(),
                                reason: SkipReason::MissingParent {
                                    parent_seq: d.parent.seq,
                                },
                            });
                            continue 'heads;
                        }
                        let mut parent: Option<(Generation, u64)> = None;
                        let mut first_err: Option<(PathBuf, PersistError)> = None;
                        for cand in candidates {
                            match load(&cand.path, cand.kind) {
                                Ok(Loaded::Full(c)) => {
                                    parent = Some((cand.clone(), c.state_digest()));
                                    break;
                                }
                                Ok(Loaded::Delta(p)) => {
                                    parent = Some((cand.clone(), p.state_digest()));
                                    break;
                                }
                                Err(e) => {
                                    if first_err.is_none() {
                                        first_err = Some((cand.path.clone(), e));
                                    }
                                }
                            }
                        }
                        let Some((parent_gen, parent_digest)) = parent else {
                            let (at, error) = first_err.expect("candidates was non-empty");
                            plan.skipped.push(SkippedGeneration {
                                seq: head.seq,
                                path: head.path.clone(),
                                reason: SkipReason::Refused { at, error },
                            });
                            continue 'heads;
                        };
                        if parent_digest != d.parent.digest {
                            plan.skipped.push(SkippedGeneration {
                                seq: head.seq,
                                path: head.path.clone(),
                                reason: SkipReason::ParentDigestMismatch {
                                    parent_seq: d.parent.seq,
                                    expected: d.parent.digest,
                                    actual: parent_digest,
                                },
                            });
                            continue 'heads;
                        }
                        deltas_rev.push(d);
                        cursor = parent_gen;
                    }
                }
            };

            let chain: Vec<&DeltaCheckpoint> =
                deltas_rev.iter().rev().map(|d| d.as_ref()).collect();
            match materialize(&base, &chain) {
                Ok(ckpt) => {
                    plan.checkpoint = Some(ckpt);
                    plan.head_path = Some(head.path.clone());
                    plan.base_seq = Some(base_gen.seq);
                    plan.deltas_applied = chain.len();
                    return Ok(plan);
                }
                Err(error) => {
                    plan.skipped.push(SkippedGeneration {
                        seq: head.seq,
                        path: head.path.clone(),
                        reason: SkipReason::Inconsistent { error },
                    });
                    continue 'heads;
                }
            }
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fol_vm::{CostModel, Machine, Region, Word};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("fol-planner-test-{}-{tag}-{n}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_machine() -> (Machine, Region, Region) {
        let mut m = Machine::new(CostModel::unit());
        let a = m.alloc(8, "a");
        let b = m.alloc(6, "b");
        for i in 0..8 {
            m.s_write(a.at(i), (i as Word) * 5 - 2);
        }
        m.track_region(a);
        m.track_region(b);
        (m, a, b)
    }

    /// Writes full@1, delta@2 (dirties a), delta@3 (dirties b) and returns
    /// (dir, machine-at-head, head checkpoint digest chain bits).
    fn build_chain(tag: &str) -> (PathBuf, Machine, Region, Region) {
        let dir = temp_dir(tag);
        let (mut m, a, b) = sample_machine();
        let full = Checkpoint::capture(&m, &[a, b], 1, vec![("k".into(), 1)], vec![1]);
        full.write(&dir.join(Checkpoint::file_name("w0", 1)))
            .unwrap();

        let idx = m.vimm(&[0]);
        let val = m.vimm(&[111]);
        m.scatter(a, &idx, &val);
        let d2 =
            DeltaCheckpoint::capture(&m, 2, 1, &full.checksums, vec![("k".into(), 2)], vec![1, 2]);
        d2.write(&dir.join(DeltaCheckpoint::file_name("w0", 2)))
            .unwrap();

        let idx = m.vimm(&[4]);
        let val = m.vimm(&[222]);
        m.scatter(b, &idx, &val);
        let d3 = DeltaCheckpoint::capture(
            &m,
            3,
            2,
            &d2.checksums,
            vec![("k".into(), 3)],
            vec![1, 2, 3],
        );
        d3.write(&dir.join(DeltaCheckpoint::file_name("w0", 3)))
            .unwrap();
        (dir, m, a, b)
    }

    #[test]
    fn plan_restores_the_newest_chain_when_intact() {
        let (dir, m, _, _) = build_chain("intact");
        let plan = RecoveryPlanner::new(&dir, "w0").plan().unwrap();
        assert!(plan.skipped.is_empty(), "{:?}", plan.skipped);
        let ckpt = plan.checkpoint.expect("chain is intact");
        assert_eq!(ckpt.seq, 3);
        assert_eq!(plan.base_seq, Some(1));
        assert_eq!(plan.deltas_applied, 2);
        assert_eq!(ckpt.applied, vec![1, 2, 3]);
        assert!(ckpt.snapshot.matches(m.mem()));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_delta_head_falls_back_one_link_typed() {
        let (dir, _, _, _) = build_chain("torn");
        // Tear the newest delta mid-file.
        let p3 = dir.join(DeltaCheckpoint::file_name("w0", 3));
        let bytes = fs::read(&p3).unwrap();
        fs::write(&p3, &bytes[..bytes.len() - 7]).unwrap();

        let plan = RecoveryPlanner::new(&dir, "w0").plan().unwrap();
        let ckpt = plan.checkpoint.expect("generation 2 is intact");
        assert_eq!(ckpt.seq, 2, "fell back exactly one link");
        assert_eq!(plan.deltas_applied, 1);
        assert_eq!(plan.skipped.len(), 1);
        assert_eq!(plan.skipped[0].seq, 3);
        assert!(
            matches!(
                &plan.skipped[0].reason,
                SkipReason::Refused {
                    error: PersistError::Truncated { .. },
                    ..
                }
            ),
            "{:?}",
            plan.skipped[0].reason
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_mid_chain_parent_skips_every_dependent_head() {
        let (dir, _, _, _) = build_chain("missing");
        fs::remove_file(dir.join(DeltaCheckpoint::file_name("w0", 2))).unwrap();

        let plan = RecoveryPlanner::new(&dir, "w0").plan().unwrap();
        let ckpt = plan.checkpoint.expect("the full image at 1 survives");
        assert_eq!(ckpt.seq, 1);
        assert_eq!(plan.deltas_applied, 0);
        assert_eq!(plan.base_seq, Some(1));
        assert_eq!(plan.skipped.len(), 1, "{:?}", plan.skipped);
        assert!(
            matches!(
                plan.skipped[0].reason,
                SkipReason::MissingParent { parent_seq: 2 }
            ),
            "{:?}",
            plan.skipped[0].reason
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flipped_full_image_mid_chain_is_refused_and_the_chain_falls_past_it() {
        let (dir, _, _, _) = build_chain("flip");
        // Corrupt the base full image: every delta head depending on it is
        // skipped, and with no older generation the plan is empty — typed,
        // not silent.
        let p1 = dir.join(Checkpoint::file_name("w0", 1));
        let mut bytes = fs::read(&p1).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&p1, &bytes).unwrap();

        let plan = RecoveryPlanner::new(&dir, "w0").plan().unwrap();
        assert!(plan.checkpoint.is_none(), "nothing is recoverable");
        assert_eq!(plan.skipped.len(), 3, "{:?}", plan.skipped);
        // Heads 3 and 2 die on the corrupt ancestor; head 1 on itself.
        for s in &plan.skipped {
            assert!(
                matches!(
                    &s.reason,
                    SkipReason::Refused {
                        at,
                        error: PersistError::CrcMismatch { .. }
                    } if at == &p1
                ),
                "{:?}",
                s.reason
            );
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parent_digest_mismatch_is_its_own_typed_reason() {
        let (dir, _, _, _) = build_chain("splice");
        // Replace the parent delta at seq 2 with a *valid* delta whose
        // state differs: the child at 3 must refuse to splice onto it.
        let mut m2 = Machine::new(CostModel::unit());
        let a2 = m2.alloc(8, "a");
        let b2 = m2.alloc(6, "b");
        m2.track_region(a2);
        m2.track_region(b2);
        let full2 = Checkpoint::capture(
            &m2,
            &m2.tracked_regions()
                .iter()
                .map(|t| t.region)
                .collect::<Vec<_>>(),
            1,
            vec![],
            vec![],
        );
        let idx = m2.vimm(&[7]);
        let val = m2.vimm(&[-55]);
        m2.scatter(a2, &idx, &val);
        let _ = b2;
        let imposter = DeltaCheckpoint::capture(&m2, 2, 1, &full2.checksums, vec![], vec![]);
        imposter
            .write(&dir.join(DeltaCheckpoint::file_name("w0", 2)))
            .unwrap();

        let plan = RecoveryPlanner::new(&dir, "w0").plan().unwrap();
        assert!(
            plan.skipped.iter().any(|s| matches!(
                s.reason,
                SkipReason::ParentDigestMismatch { parent_seq: 2, .. }
            )),
            "{:?}",
            plan.skipped
        );
        // The walk lands somewhere verifiable (the full at 1, or the
        // imposter chain if it happens to verify against the real full).
        if let Some(c) = &plan.checkpoint {
            assert!(c.seq < 3, "head 3 must not restore");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_and_missing_directories_plan_to_nothing() {
        let plan = RecoveryPlanner::new("/nonexistent/fol-planner-nowhere", "w0")
            .plan()
            .unwrap();
        assert!(plan.checkpoint.is_none());
        assert!(plan.skipped.is_empty());
    }

    #[test]
    fn scan_orders_newest_first_and_prefers_full_at_equal_seq() {
        let dir = temp_dir("order");
        let (m, a, b) = sample_machine();
        let full = Checkpoint::capture(&m, &[a, b], 2, vec![], vec![]);
        full.write(&dir.join(Checkpoint::file_name("w0", 2)))
            .unwrap();
        let d = DeltaCheckpoint::capture(&m, 2, 1, &full.checksums, vec![], vec![]);
        d.write(&dir.join(DeltaCheckpoint::file_name("w0", 2)))
            .unwrap();
        fs::write(dir.join("w0-garbage.delta"), b"junk").unwrap();

        let (gens, notes) = scan_generations(&dir, "w0").unwrap();
        assert_eq!(gens.len(), 2);
        assert_eq!(
            gens[0].kind,
            GenerationKind::Full,
            "full first at equal seq"
        );
        assert_eq!(gens[1].kind, GenerationKind::Delta);
        assert_eq!(notes.len(), 1, "unparseable seq is a typed note: {notes:?}");
        fs::remove_dir_all(&dir).ok();
    }

    /// Junk next to a real chain: every entry the scan cannot classify is
    /// stepped over with a typed note, a generation name it can classify
    /// but not load is a typed skip, and the newest real generation still
    /// restores.
    #[test]
    fn scan_steps_over_junk_entries_and_the_newest_real_generation_restores() {
        let (dir, m, _, _) = build_chain("junk");
        let full1 = dir.join(Checkpoint::file_name("w0", 1));
        assert!(
            !full1.with_extension("tmp").exists(),
            "an atomic write leaves no temp residue"
        );
        // A directory squatting on a newer generation name.
        let squatter = dir.join(Checkpoint::file_name("w0", 9));
        fs::create_dir_all(&squatter).unwrap();
        // Another worker's image, and a generation id that is not a number.
        let other_worker = dir.join(Checkpoint::file_name("w1", 7));
        fs::write(&other_worker, b"junk").unwrap();
        let not_a_number = dir.join("w0-latest.ckpt");
        fs::write(&not_a_number, b"junk").unwrap();
        // The temp file of an interrupted write, and a WAL segment.
        fs::write(
            dir.join(Checkpoint::file_name("w0", 8))
                .with_extension("tmp"),
            b"torn",
        )
        .unwrap();
        fs::write(dir.join("requests-000000000001.wal"), b"junk").unwrap();
        // An empty file under a newer generation name: opened, refused.
        let empty = dir.join(DeltaCheckpoint::file_name("w0", 5));
        fs::write(&empty, b"").unwrap();

        let (gens, notes) = scan_generations(&dir, "w0").unwrap();
        let seqs: Vec<u64> = gens.iter().map(|g| g.seq).collect();
        assert_eq!(seqs, vec![5, 3, 2, 1], "only generation names are listed");
        assert_eq!(notes.len(), 3, "{notes:?}");
        assert!(notes.contains(&ScanNote::NotAFile { path: squatter }));
        assert!(notes.contains(&ScanNote::ForeignName { path: other_worker }));
        assert!(notes.contains(&ScanNote::ForeignName { path: not_a_number }));

        let plan = RecoveryPlanner::new(&dir, "w0").plan().unwrap();
        assert_eq!(plan.notes, notes);
        assert_eq!(plan.skipped.len(), 1, "{:?}", plan.skipped);
        assert!(
            matches!(
                &plan.skipped[0].reason,
                SkipReason::Refused {
                    at,
                    error: PersistError::Truncated { .. },
                } if at == &empty
            ),
            "{:?}",
            plan.skipped[0].reason
        );
        let ckpt = plan.checkpoint.expect("the real chain is intact");
        assert_eq!(ckpt.seq, 3);
        assert!(ckpt.snapshot.matches(m.mem()));
        fs::remove_dir_all(&dir).ok();
    }
}
