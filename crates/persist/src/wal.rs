//! The segmented write-ahead log.
//!
//! An append-only sequence of opaque, CRC-framed records split across
//! numbered segment files. The serving layer appends an admission record
//! *before* acknowledging a request and a completion record after the batch
//! commits; on restart, [`replay`] returns every readable record so the
//! server can re-drive acknowledged-but-uncommitted work. The record
//! payloads are opaque bytes at this layer — the caller owns the codec.
//!
//! # Segment format (version 1)
//!
//! ```text
//! magic "FOLWAL\0\0" (8 bytes)  version u32 LE
//! frame: record ×N   — opaque payload, CRC-framed ([`crate::frame`])
//! ```
//!
//! Segments are named `{prefix}-{index:012}.wal`; a writer never appends to
//! a pre-existing segment (each [`Wal::open`] starts a fresh one), so the
//! only file a crash can tear is the one being written. Starting a fresh
//! segment seals the one before it, so a restart cuts the torn tail that
//! [`replay`] reported ([`cut_torn_tail`]: down to the last whole frame,
//! or the whole file when its header is torn) before it opens the log:
//! every sealed segment then reads whole, and a second restart replays
//! what the first did.
//!
//! # Torn tail vs corruption
//!
//! A crash mid-append tears the **end of the newest segment** — that is the
//! *expected* signature of a kill, and replay must not refuse the whole log
//! for it. [`replay`] therefore distinguishes, by position and error class:
//!
//! * **Torn tail** — a [`PersistError::Truncated`] at the end of the *last*
//!   segment (including a segment whose header itself was torn). The
//!   records before the tear are returned and the tear is surfaced as a
//!   typed [`TornTail`] in the [`Replay`] — acknowledged loudly, never
//!   silently dropped. The torn record itself was never acknowledged (the
//!   WAL is flushed before the ticket is returned), so losing it is
//!   correct.
//! * **Corruption** — a CRC mismatch anywhere (a tear cannot produce a
//!   full-length frame with wrong bytes on an append-only file; a bit-flip
//!   can), or *any* defect in a non-last segment (older segments were
//!   sealed by a later segment's existence — nothing may be torn there).
//!   These are hard, typed refusals: a log that lies is not replayed.
//!
//! # Fsync policy
//!
//! [`FsyncPolicy`] prices the durability/throughput trade-off: `Always`
//! fsyncs per append (every acknowledged record survives power loss),
//! `Batch` fsyncs at a commit (the serving layer commits at batch
//! boundaries, so an admitted-but-unexecuted record rides the page cache —
//! safe against process kill, exposed to power loss until the next batch
//! commits), `Off` never fsyncs (crash-consistent against process kill
//! only, not power loss; the chaos suite runs this tier because SIGKILL
//! does not lose page-cache writes).
//!
//! # Group commit
//!
//! A commit need not hold the log while it syncs. [`Wal::begin_sync`]
//! hands out a [`WalSync`] covering every record appended so far, or
//! nothing when the records a committer needs already lie below the
//! log's durable watermark. Its [`WalSync::run`] `fdatasync`s on any
//! thread while appends go on, and [`Wal::finish_sync`] raises the
//! watermark to what the sync covered. [`Wal::rotate`] syncs the sealed
//! segment only when records lie past that watermark, so a segment a
//! commit just synced is not synced a second time. [`Wal::commit`] is the
//! same sync taken under `&mut self`.

use crate::frame::{next_frame, push_frame, push_header, read_header, Frame, HEADER_LEN};
use crate::PersistError;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// First bytes of every WAL segment.
pub const WAL_MAGIC: &[u8; 8] = b"FOLWAL\0\0";
/// The WAL segment format version this build writes and reads.
pub const WAL_VERSION: u32 = 1;

/// When the log forces its bytes to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every append: an acknowledged record survives power
    /// loss. The safest and slowest tier.
    Always,
    /// fsync at a commit (batch boundaries): [`Wal::commit`], or a group
    /// commit through [`Wal::begin_sync`]. The serving layer commits after
    /// appending a batch's completion records and before demultiplexing
    /// outcomes, so a completed request's records survive power loss; an
    /// admitted-but-unexecuted record rides the page cache until the next
    /// batch commits (safe against process kill). The fsync cost amortizes
    /// over the batch, and one group commit's sync covers every batch
    /// appended before it began.
    Batch,
    /// Never fsync. Survives process kill (the page cache is not lost with
    /// the process) but not power loss. The cheapest tier; useful as the
    /// bench baseline and under test harnesses that kill with signals.
    Off,
}

impl std::str::FromStr for FsyncPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "batch" => Ok(FsyncPolicy::Batch),
            "off" => Ok(FsyncPolicy::Off),
            other => Err(format!(
                "unknown fsync policy {other:?} (expected always|batch|off)"
            )),
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Batch => "batch",
            FsyncPolicy::Off => "off",
        })
    }
}

/// The canonical segment file name: zero-padded so lexicographic order is
/// creation order.
pub fn segment_file_name(prefix: &str, index: u64) -> String {
    format!("{prefix}-{index:012}.wal")
}

fn parse_segment_index(prefix: &str, name: &str) -> Option<u64> {
    let rest = name.strip_prefix(prefix)?.strip_prefix('-')?;
    let digits = rest.strip_suffix(".wal")?;
    digits.parse().ok()
}

/// Sorted `(index, path)` list of `prefix` segments in `dir`. A missing
/// directory is an empty log.
pub fn segments(dir: &Path, prefix: &str) -> Result<Vec<(u64, PathBuf)>, PersistError> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(PersistError::io(format!("read dir {}", dir.display()), e)),
    };
    let mut out = Vec::new();
    for entry in entries {
        let entry =
            entry.map_err(|e| PersistError::io(format!("read dir {}", dir.display()), e))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(idx) = parse_segment_index(prefix, &name) {
            out.push((idx, dir.join(&name)));
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// The append half of the log. See the module docs for the format and the
/// fsync tiers.
pub struct Wal {
    dir: PathBuf,
    prefix: String,
    policy: FsyncPolicy,
    segment_bytes: u64,
    /// Shared with a [`WalSync`] in flight, which may outlive a rotation.
    file: Arc<fs::File>,
    seg_index: u64,
    seg_len: u64,
    appends: u64,
    /// The durable watermark: the first `synced` records appended through
    /// this handle are on stable storage.
    synced: u64,
    /// Data syncs run, or reported through [`Wal::finish_sync`].
    syncs: u64,
}

/// A sync of the log taken out from under its owner's lock: it covers
/// every record appended before [`Wal::begin_sync`] handed it out. Run it
/// on any thread, then report it with [`Wal::finish_sync`].
#[must_use = "a sync covers nothing until it runs and is reported"]
pub struct WalSync {
    file: Arc<fs::File>,
    segment: u64,
    through: u64,
}

/// A [`WalSync`] that ran: proof for [`Wal::finish_sync`] that its records
/// are on stable storage.
#[must_use = "report it with Wal::finish_sync"]
pub struct WalSynced {
    through: u64,
}

impl WalSync {
    /// `fdatasync`s the segment the records were appended to. Appends to
    /// the log may run concurrently; they are not covered.
    pub fn run(self) -> Result<WalSynced, PersistError> {
        self.file
            .sync_data()
            .map_err(|e| PersistError::io(format!("fsync wal segment {}", self.segment), e))?;
        Ok(WalSynced {
            through: self.through,
        })
    }
}

impl Wal {
    /// Opens the log for appending: a **fresh** segment numbered after the
    /// highest existing one. Never appends to a pre-existing file. The
    /// fresh segment seals the previous last one, so a torn tail that
    /// [`replay`] reported must be cut first ([`cut_torn_tail`]): a sealed
    /// segment that is torn makes the next replay refuse the log.
    ///
    /// `segment_bytes` is the rotation threshold (a segment is closed once
    /// its payload bytes exceed it; 0 means one record per segment).
    pub fn open(
        dir: impl Into<PathBuf>,
        prefix: impl Into<String>,
        policy: FsyncPolicy,
        segment_bytes: u64,
    ) -> Result<Self, PersistError> {
        let dir = dir.into();
        let prefix = prefix.into();
        fs::create_dir_all(&dir)
            .map_err(|e| PersistError::io(format!("create {}", dir.display()), e))?;
        let next_index = segments(&dir, &prefix)?.last().map_or(0, |(i, _)| i + 1);
        let (file, seg_len) = create_segment(&dir, &prefix, next_index, policy)?;
        Ok(Wal {
            dir,
            prefix,
            policy,
            segment_bytes,
            file: Arc::new(file),
            seg_index: next_index,
            seg_len,
            appends: 0,
            synced: 0,
            syncs: 0,
        })
    }

    /// Appends one record. Under [`FsyncPolicy::Always`] the record is on
    /// stable storage when this returns; under `Batch` it is durable after
    /// the next [`Wal::commit`]; under `Off`, after the OS flushes it.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), PersistError> {
        if self.seg_len > HEADER_LEN as u64 && self.seg_len >= self.segment_bytes {
            self.rotate()?;
        }
        let mut framed = Vec::with_capacity(payload.len() + 8);
        push_frame(&mut framed, payload);
        self.write_framed(&framed, 1)
    }

    /// Appends a group of records with one write: every payload is framed
    /// into a single buffer that hits the file (and the page cache) in one
    /// syscall. Equivalent to calling [`Wal::append`] per payload — same
    /// framing, same rotation and fsync rules — but prices a batch of
    /// records (e.g. one completion per request of a committed batch) at
    /// one syscall instead of one per record.
    pub fn append_all<P: AsRef<[u8]>>(&mut self, payloads: &[P]) -> Result<(), PersistError> {
        if payloads.is_empty() {
            return Ok(());
        }
        if self.seg_len > HEADER_LEN as u64 && self.seg_len >= self.segment_bytes {
            self.rotate()?;
        }
        let mut framed = Vec::with_capacity(payloads.iter().map(|p| p.as_ref().len() + 8).sum());
        for p in payloads {
            push_frame(&mut framed, p.as_ref());
        }
        self.write_framed(&framed, payloads.len() as u64)
    }

    /// Writes `records` already-framed records in one syscall, then syncs
    /// them under [`FsyncPolicy::Always`].
    fn write_framed(&mut self, framed: &[u8], records: u64) -> Result<(), PersistError> {
        (&*self.file).write_all(framed).map_err(|e| {
            PersistError::io(
                format!(
                    "append to {}",
                    segment_file_name(&self.prefix, self.seg_index)
                ),
                e,
            )
        })?;
        self.seg_len += framed.len() as u64;
        self.appends += records;
        if self.policy == FsyncPolicy::Always {
            self.sync()?;
        }
        Ok(())
    }

    /// Batch-boundary durability point: fsyncs pending appends unless the
    /// policy is [`FsyncPolicy::Off`]. The serving layer calls this before
    /// acknowledging a batch.
    pub fn commit(&mut self) -> Result<(), PersistError> {
        match self.policy {
            FsyncPolicy::Off => Ok(()),
            FsyncPolicy::Always | FsyncPolicy::Batch => self.sync(),
        }
    }

    fn sync(&mut self) -> Result<(), PersistError> {
        if self.synced == self.appends {
            return Ok(());
        }
        // `sync_data` (fdatasync): flushes the appended bytes and the file
        // size — everything replay needs — without the full inode metadata
        // flush of `sync_all`. Measurably cheaper per batch commit.
        let done = self.begin_sync_all().run()?;
        self.finish_sync(done);
        Ok(())
    }

    fn begin_sync_all(&self) -> WalSync {
        WalSync {
            file: Arc::clone(&self.file),
            segment: self.seg_index,
            through: self.appends,
        }
    }

    /// Group commit, first half: a sync covering every record appended so
    /// far, or `None` when no sync is owed for the first `through` records
    /// — the durable watermark already covers them, or the policy is
    /// [`FsyncPolicy::Off`]. `through` is [`Wal::appends`] as read right
    /// after the caller's own append. Run the sync without holding the
    /// log, then report it with [`Wal::finish_sync`].
    pub fn begin_sync(&self, through: u64) -> Option<WalSync> {
        (self.policy != FsyncPolicy::Off && self.synced < through).then(|| self.begin_sync_all())
    }

    /// Group commit, second half: raises the durable watermark to what a
    /// finished sync covered. A sync of a segment that was rotated away
    /// meanwhile is harmless: the rotation synced that segment first.
    pub fn finish_sync(&mut self, done: WalSynced) {
        self.synced = self.synced.max(done.through);
        self.syncs += 1;
    }

    /// Seals the current segment and starts the next one. Unless the
    /// policy is [`FsyncPolicy::Off`], the sealed segment is synced first
    /// when records lie past the durable watermark. Called automatically
    /// at the rotation threshold; callers rotate explicitly at checkpoint
    /// boundaries so fully-covered segments become prunable.
    pub fn rotate(&mut self) -> Result<u64, PersistError> {
        if self.policy != FsyncPolicy::Off {
            self.sync()?;
        }
        let next = self.seg_index + 1;
        let (file, seg_len) = create_segment(&self.dir, &self.prefix, next, self.policy)?;
        self.file = Arc::new(file);
        self.seg_index = next;
        self.seg_len = seg_len;
        Ok(next)
    }

    /// Records appended through this handle.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Data syncs of appended records: the policy's own syncs, rotations'
    /// and every group commit reported through [`Wal::finish_sync`]. The
    /// header sync of a fresh segment is not counted.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// The segment currently being appended to.
    pub fn segment_index(&self) -> u64 {
        self.seg_index
    }

    /// The configured fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }
}

fn create_segment(
    dir: &Path,
    prefix: &str,
    index: u64,
    policy: FsyncPolicy,
) -> Result<(fs::File, u64), PersistError> {
    let path = dir.join(segment_file_name(prefix, index));
    let mut file = fs::File::create(&path)
        .map_err(|e| PersistError::io(format!("create {}", path.display()), e))?;
    let mut header = Vec::with_capacity(HEADER_LEN);
    push_header(&mut header, WAL_MAGIC, WAL_VERSION);
    file.write_all(&header)
        .map_err(|e| PersistError::io(format!("write header {}", path.display()), e))?;
    if policy != FsyncPolicy::Off {
        file.sync_all()
            .map_err(|e| PersistError::io(format!("fsync {}", path.display()), e))?;
        // The new segment's *name* must survive too.
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok((file, header.len() as u64))
}

/// Cuts `tear`, the torn tail [`replay`] reported for the `prefix` log in
/// `dir`, off its segment before a fresh segment seals it: truncates the
/// segment to the tear's offset, the end of its last whole frame, or
/// removes it when the tear is inside its header; then fsyncs the file and
/// the directory. The torn record was never acknowledged.
pub fn cut_torn_tail(dir: &Path, prefix: &str, tear: &TornTail) -> Result<(), PersistError> {
    let path = dir.join(segment_file_name(prefix, tear.segment));
    if tear.offset < HEADER_LEN {
        fs::remove_file(&path)
            .map_err(|e| PersistError::io(format!("remove {}", path.display()), e))?;
    } else {
        let io = |e| PersistError::io(format!("truncate {}", path.display()), e);
        let file = fs::OpenOptions::new().write(true).open(&path).map_err(io)?;
        file.set_len(tear.offset as u64).map_err(io)?;
        file.sync_all().map_err(io)?;
    }
    fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| PersistError::io(format!("fsync {}", dir.display()), e))
}

/// One replayed record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// Segment index the record was read from.
    pub segment: u64,
    /// Zero-based position within its segment.
    pub index_in_segment: u64,
    /// The opaque record bytes, exactly as appended.
    pub payload: Vec<u8>,
}

/// The crash frontier: where and how the last segment was torn. Returned
/// *inside* a successful [`Replay`] — the tear is the expected signature of
/// a kill mid-append and is surfaced typed, not refused and not hidden.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TornTail {
    /// Index of the torn (last) segment.
    pub segment: u64,
    /// Byte offset at which the tear begins: the end of the segment's last
    /// whole frame, or its length (less than a header) when the header
    /// itself is torn.
    pub offset: usize,
    /// The typed truncation that marks the tear.
    pub error: PersistError,
}

/// Everything [`replay`] recovered from the log.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Replay {
    /// All whole, CRC-verified records in append order.
    pub records: Vec<WalRecord>,
    /// The torn tail of the last segment, if the log ends mid-record.
    pub torn_tail: Option<TornTail>,
    /// Number of segment files scanned.
    pub segments: usize,
}

/// Reads every record of the `prefix` log in `dir`, in append order.
///
/// Returns `Ok` with a possibly-torn tail (see [`TornTail`]) when the only
/// defect is a truncation at the very end of the **last** segment. Every
/// other defect — a CRC mismatch anywhere, or any defect in a non-last
/// segment — is a hard typed error: corrupt history is refused, never
/// silently replayed around.
pub fn replay(dir: &Path, prefix: &str) -> Result<Replay, PersistError> {
    let segs = segments(dir, prefix)?;
    let mut out = Replay {
        segments: segs.len(),
        ..Replay::default()
    };
    let last = segs.len().saturating_sub(1);
    for (pos_in_list, (index, path)) in segs.iter().enumerate() {
        let mut index_in_segment = 0u64;
        out.torn_tail = scan_segment(*index, path, pos_in_list == last, |payload| {
            out.records.push(WalRecord {
                segment: *index,
                index_in_segment,
                payload: payload.to_vec(),
            });
            index_in_segment += 1;
        })?;
    }
    Ok(out)
}

/// Reads one sealed segment, handing each whole, CRC-verified record's
/// payload to `visit` in append order without copying it. A sealed
/// segment cannot legitimately be torn, so any defect is a hard typed
/// error. The compactor reads each sealed segment once this way.
pub(crate) fn read_sealed(
    index: u64,
    path: &Path,
    visit: impl FnMut(&[u8]),
) -> Result<(), PersistError> {
    scan_segment(index, path, false, visit).map(|_| ())
}

/// Reads segment `index` at `path`, calling `visit` per record. When
/// `may_tear` is set, a truncation (of a frame or of the header itself) is
/// returned as the torn tail instead of an error.
fn scan_segment(
    index: u64,
    path: &Path,
    may_tear: bool,
    mut visit: impl FnMut(&[u8]),
) -> Result<Option<TornTail>, PersistError> {
    let bytes =
        fs::read(path).map_err(|e| PersistError::io(format!("read {}", path.display()), e))?;
    let what = format!("wal segment {}", path.display());

    // A short header is a tear only where a tear is possible: the last
    // segment (killed during creation).
    match read_header(&bytes, WAL_MAGIC, WAL_VERSION..=WAL_VERSION, &what) {
        Ok(_) => {}
        Err(error @ PersistError::Truncated { .. }) if may_tear => {
            return Ok(Some(TornTail {
                segment: index,
                offset: bytes.len(),
                error,
            }));
        }
        Err(error) => return Err(error),
    }

    let mut pos = HEADER_LEN;
    loop {
        match next_frame(&bytes, &mut pos, &what) {
            Ok(Frame::Ok(payload)) => visit(payload),
            Ok(Frame::End) => return Ok(None),
            Err(error @ PersistError::Truncated { .. }) if may_tear => {
                return Ok(Some(TornTail {
                    segment: index,
                    offset: pos,
                    error,
                }));
            }
            // A truncation mid-history, or a CRC mismatch anywhere (tears
            // cannot produce full-length wrong-byte frames on an
            // append-only file — bit-flips can): hard refusal.
            Err(error) => return Err(error),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("fol-wal-test-{}-{tag}-{n}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn payloads(r: &Replay) -> Vec<&[u8]> {
        r.records.iter().map(|x| x.payload.as_slice()).collect()
    }

    #[test]
    fn append_replay_round_trip_across_rotation() {
        let dir = temp_dir("rt");
        let mut wal = Wal::open(&dir, "w0", FsyncPolicy::Batch, 32).unwrap();
        for i in 0..6u8 {
            wal.append(&[i; 10]).unwrap();
        }
        wal.commit().unwrap();
        assert_eq!(wal.appends(), 6);
        assert!(wal.segment_index() > 0, "32-byte threshold forces rotation");

        let r = replay(&dir, "w0").unwrap();
        assert!(r.torn_tail.is_none());
        assert!(r.segments >= 2);
        assert_eq!(
            payloads(&r),
            (0..6u8).map(|i| vec![i; 10]).collect::<Vec<_>>()
        );
        // Append order is preserved across segment boundaries.
        for w in r.records.windows(2) {
            assert!((w[0].segment, w[0].index_in_segment) < (w[1].segment, w[1].index_in_segment));
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_starts_a_fresh_segment_and_merges_on_replay() {
        let dir = temp_dir("reopen");
        let mut wal = Wal::open(&dir, "w0", FsyncPolicy::Off, 1 << 20).unwrap();
        wal.append(b"first").unwrap();
        drop(wal);
        let mut wal2 = Wal::open(&dir, "w0", FsyncPolicy::Off, 1 << 20).unwrap();
        assert_eq!(wal2.segment_index(), 1, "never appends to an old segment");
        wal2.append(b"second").unwrap();
        drop(wal2);
        let r = replay(&dir, "w0").unwrap();
        assert_eq!(
            payloads(&r),
            vec![b"first".as_slice(), b"second".as_slice()]
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_on_last_segment_is_typed_not_refused() {
        let dir = temp_dir("tear");
        let mut wal = Wal::open(&dir, "w0", FsyncPolicy::Off, 1 << 20).unwrap();
        wal.append(b"kept-0").unwrap();
        wal.append(b"kept-1").unwrap();
        wal.append(b"torn-away").unwrap();
        drop(wal);
        let path = dir.join(segment_file_name("w0", 0));
        let len = fs::metadata(&path).unwrap().len();
        // Tear mid-way through the last record's payload.
        let f = fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 4).unwrap();

        let r = replay(&dir, "w0").unwrap();
        assert_eq!(
            payloads(&r),
            vec![b"kept-0".as_slice(), b"kept-1".as_slice()]
        );
        let tail = r.torn_tail.expect("the tear is surfaced");
        assert_eq!(tail.segment, 0);
        assert!(
            matches!(tail.error, PersistError::Truncated { .. }),
            "{}",
            tail.error
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_non_last_segment_is_a_hard_error() {
        let dir = temp_dir("sealed");
        let mut wal = Wal::open(&dir, "w0", FsyncPolicy::Off, 1 << 20).unwrap();
        wal.append(b"old").unwrap();
        wal.rotate().unwrap();
        wal.append(b"new").unwrap();
        drop(wal);
        let path = dir.join(segment_file_name("w0", 0));
        let len = fs::metadata(&path).unwrap().len();
        let f = fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 2).unwrap();

        let err = replay(&dir, "w0").unwrap_err();
        assert!(
            matches!(err, PersistError::Truncated { .. }),
            "sealed segments cannot legitimately be torn: {err}"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mid_log_bit_flip_is_a_hard_crc_refusal_even_on_the_last_segment() {
        let dir = temp_dir("flip");
        let mut wal = Wal::open(&dir, "w0", FsyncPolicy::Off, 1 << 20).unwrap();
        wal.append(b"aaaaaaaa").unwrap();
        wal.append(b"bbbbbbbb").unwrap();
        drop(wal);
        let path = dir.join(segment_file_name("w0", 0));
        let mut bytes = fs::read(&path).unwrap();
        let mid = 12 + 8 + 3; // inside the first record's payload
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        let err = replay(&dir, "w0").unwrap_err();
        assert!(
            matches!(err, PersistError::CrcMismatch { .. }),
            "a bit-flip is corruption, not a crash frontier: {err}"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_segment_header_at_the_tail_is_the_frontier() {
        let dir = temp_dir("torn-header");
        let mut wal = Wal::open(&dir, "w0", FsyncPolicy::Off, 1 << 20).unwrap();
        wal.append(b"survives").unwrap();
        drop(wal);
        // A segment whose creation itself was killed: 3 header bytes.
        fs::write(dir.join(segment_file_name("w0", 1)), b"FOL").unwrap();

        let r = replay(&dir, "w0").unwrap();
        assert_eq!(payloads(&r), vec![b"survives".as_slice()]);
        assert_eq!(r.torn_tail.expect("typed frontier").segment, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_skew_and_bad_magic_are_hard_errors() {
        let dir = temp_dir("skew");
        let mut wal = Wal::open(&dir, "w0", FsyncPolicy::Off, 1 << 20).unwrap();
        wal.append(b"x").unwrap();
        drop(wal);
        let path = dir.join(segment_file_name("w0", 0));
        let good = fs::read(&path).unwrap();

        let mut bumped = good.clone();
        bumped[8] = (WAL_VERSION + 7) as u8;
        fs::write(&path, &bumped).unwrap();
        let err = replay(&dir, "w0").unwrap_err();
        assert!(
            matches!(err, PersistError::UnsupportedVersion { .. }),
            "{err}"
        );

        let mut magic = good.clone();
        magic[0] = b'Z';
        fs::write(&path, &magic).unwrap();
        let err = replay(&dir, "w0").unwrap_err();
        assert!(matches!(err, PersistError::BadMagic { .. }), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_log_replays_empty() {
        let dir = temp_dir("empty");
        assert_eq!(replay(&dir.join("nope"), "w0").unwrap(), Replay::default());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cutting_a_torn_tail_before_reopening_keeps_the_next_replay_whole() {
        // A torn frame: the segment keeps its whole frames.
        let dir = temp_dir("reopen-torn");
        let mut wal = Wal::open(&dir, "w0", FsyncPolicy::Off, 1 << 20).unwrap();
        wal.append(b"kept").unwrap();
        wal.append(b"torn-away").unwrap();
        drop(wal);
        let path = dir.join(segment_file_name("w0", 0));
        let len = fs::metadata(&path).unwrap().len();
        let f = fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        let tear = replay(&dir, "w0").unwrap().torn_tail.expect("torn");
        cut_torn_tail(&dir, "w0", &tear).unwrap();
        assert_eq!(
            fs::metadata(&path).unwrap().len(),
            (HEADER_LEN + 8 + 4) as u64
        );
        let mut wal = Wal::open(&dir, "w0", FsyncPolicy::Off, 1 << 20).unwrap();
        assert_eq!(wal.segment_index(), 1);
        wal.append(b"after").unwrap();
        drop(wal);
        let r = replay(&dir, "w0").unwrap();
        assert!(r.torn_tail.is_none(), "the sealed segment reads whole");
        assert_eq!(payloads(&r), vec![b"kept".as_slice(), b"after".as_slice()]);

        // A torn header: the segment, which holds no record, goes.
        let torn = dir.join(segment_file_name("w0", 2));
        fs::write(&torn, b"FOL").unwrap();
        let tear = replay(&dir, "w0").unwrap().torn_tail.expect("torn");
        assert_eq!(tear.segment, 2);
        cut_torn_tail(&dir, "w0", &tear).unwrap();
        assert!(!torn.exists());
        drop(Wal::open(&dir, "w0", FsyncPolicy::Batch, 1 << 20).unwrap());
        let r = replay(&dir, "w0").unwrap();
        assert!(r.torn_tail.is_none());
        assert_eq!(payloads(&r), vec![b"kept".as_slice(), b"after".as_slice()]);

        // Without the cut, the fresh segment seals the tear and the next
        // replay refuses the log.
        let mut wal = Wal::open(&dir, "w0", FsyncPolicy::Off, 1 << 20).unwrap();
        wal.append(b"torn-again").unwrap();
        let active = dir.join(segment_file_name("w0", wal.segment_index()));
        drop(wal);
        let len = fs::metadata(&active).unwrap().len();
        let f = fs::OpenOptions::new().write(true).open(&active).unwrap();
        f.set_len(len - 3).unwrap();
        drop(Wal::open(&dir, "w0", FsyncPolicy::Off, 1 << 20).unwrap());
        assert!(matches!(
            replay(&dir, "w0").unwrap_err(),
            PersistError::Truncated { .. }
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_group_commit_covers_what_preceded_it_and_a_rotation_does_not_repeat_it() {
        let dir = temp_dir("group");
        let mut wal = Wal::open(&dir, "w0", FsyncPolicy::Batch, 1 << 20).unwrap();
        wal.append(b"a").unwrap();
        let mine = wal.appends();
        wal.append(b"b").unwrap();
        let sync = wal.begin_sync(mine).expect("a lies past the watermark");
        // Appended while the sync runs: not covered by it.
        wal.append(b"c").unwrap();
        wal.finish_sync(sync.run().unwrap());
        assert_eq!(wal.syncs(), 1);
        assert!(wal.begin_sync(2).is_none(), "a and b are durable");
        let late = wal.begin_sync(3).expect("c is not");
        wal.finish_sync(late.run().unwrap());
        wal.rotate().unwrap();
        assert_eq!(wal.syncs(), 2, "nothing lay past the watermark");
        wal.append(b"d").unwrap();
        wal.rotate().unwrap();
        assert_eq!(wal.syncs(), 3, "the rotation synced d");
        assert!(wal.begin_sync(wal.appends()).is_none());

        // `Off` never owes a sync; under `Always` the append synced.
        let mut off = Wal::open(&dir, "w1", FsyncPolicy::Off, 1 << 20).unwrap();
        off.append(b"x").unwrap();
        assert!(off.begin_sync(1).is_none());
        let mut always = Wal::open(&dir, "w2", FsyncPolicy::Always, 1 << 20).unwrap();
        always.append_all(&[b"y", b"z"]).unwrap();
        assert!(always.begin_sync(2).is_none());
        assert_eq!(always.syncs(), 1, "one write, one sync");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_policy_parses_and_displays() {
        for (s, p) in [
            ("always", FsyncPolicy::Always),
            ("batch", FsyncPolicy::Batch),
            ("off", FsyncPolicy::Off),
        ] {
            assert_eq!(s.parse::<FsyncPolicy>().unwrap(), p);
            assert_eq!(p.to_string(), s);
        }
        assert!("sometimes".parse::<FsyncPolicy>().is_err());
    }
}
