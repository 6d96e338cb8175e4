//! # fol-persist — durable checkpoint/restart and a write-ahead log
//!
//! Every guarantee the recovery ladder earns (PRs 1–5: typed fallibility,
//! transactional rounds, degradation, integrity, serving) lives in process
//! memory and dies with a SIGKILL. This crate is the durability rung: it
//! turns the round boundary — exactly where FOL machine state is consistent
//! and replayable — into an on-disk quantum.
//!
//! * **[`frame`]** — the shared envelope: CRC-32, length-prefixed frames,
//!   the magic + version header every artifact starts with and the `END`
//!   trailer that closes an image, each defect a distinct typed refusal.
//! * **[`checkpoint`]** — the one region-image codec: a versioned,
//!   CRC-framed serialization of a [`fol_vm::Snapshot`] plus tracked-region
//!   checksums, host counters and the applied-request set, committed with
//!   the write-to-temp + `fsync` + atomic-rename discipline so a reader
//!   never observes a half-written image under its final name. A full
//!   [`Checkpoint`] and a [`DeltaCheckpoint`] are the same [`Image`] type,
//!   differing only in the parent link.
//! * **[`delta`]** — incremental images: only the 32-word blocks whose
//!   integrity digest changed since the parent generation, chained by
//!   parent id + parent state digest, and [`materialize`] to replay a
//!   chain onto its full image; every K deltas a full image is cut.
//! * **[`wal`]** — a segmented append-only log of opaque records, each
//!   CRC-framed, with a configurable [`wal::FsyncPolicy`]. Replay
//!   distinguishes a *torn tail* (the expected signature of a crash mid-
//!   append, surfaced typed so the caller can treat it as the crash
//!   frontier) from corruption anywhere else (refused outright).
//! * **[`planner`]** — the [`RecoveryPlanner`]: walks generations newest
//!   first, verifies every chain link (CRC, parent digest, end-to-end
//!   materialization), and falls back link-by-link with a typed
//!   [`SkipReason`] per passed-over generation — never a silent divergence.
//! * **[`compact`]** — the [`Compactor`]: prunes generations below a
//!   `keep_full_images` retention boundary and deletes sealed WAL segments
//!   wholly covered by the boundary image's applied set, with
//!   mark-then-delete + directory-fsync crash safety and typed refusal
//!   when pruning would orphan the only loadable full image; it reports
//!   the log floor below which no admission record remains.
//! * **[`handoff`]** — shard-handoff images: the CRC-framed, digest-carrying
//!   transfer format a cluster rebalance ships between processes, in the
//!   shared envelope but over *logical* per-class key sets, which are
//!   layout-independent, rather than regions.
//!
//! The WAL plus the generation chain is the only way state reaches disk;
//! the crate depends on `fol-vm` alone.
//!
//! Everything that can be wrong with stored bytes is a typed
//! [`PersistError`] — truncation, bit-flips, version skew and structural
//! garbage are *distinct* variants, and nothing corrupt is ever silently
//! replayed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod compact;
pub mod delta;
pub mod frame;
pub mod handoff;
pub mod planner;
pub mod wal;

pub use checkpoint::{Checkpoint, Full, Image, ImageKind};
pub use compact::{CompactRefusal, CompactionReport, Compactor, LogRecord};
pub use delta::{materialize, DeltaCheckpoint, Parent};
pub use frame::crc32;
pub use handoff::{HandoffDedupe, HandoffImage, HandoffSection};
pub use planner::{RecoveryPlan, RecoveryPlanner, ScanNote, SkipReason, SkippedGeneration};
pub use wal::{FsyncPolicy, Replay, TornTail, Wal, WalRecord};

use std::fmt;

/// Every way stored durability data can be refused — typed, never a silent
/// replay of corrupt bytes and never a bare panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PersistError {
    /// The operating system refused the I/O. The message carries the
    /// underlying error rendered, so the variant stays `Clone + Eq` for the
    /// serving layer's typed error surface.
    Io {
        /// What was being done.
        what: String,
        /// The rendered `std::io::Error`.
        error: String,
    },
    /// The file does not start with the artifact's magic bytes — it is not
    /// a checkpoint / WAL segment at all (or its header was destroyed).
    BadMagic {
        /// What was being read.
        what: String,
        /// The bytes actually found (up to the magic's length).
        found: Vec<u8>,
    },
    /// The header parsed but names a format version this build does not
    /// speak. Refused rather than guessed at: a version bump is allowed to
    /// change every byte after the header.
    UnsupportedVersion {
        /// What was being read.
        what: String,
        /// The version the file claims.
        found: u32,
        /// The version this build writes and reads.
        supported: u32,
    },
    /// The file ends before a complete header or frame — the signature of a
    /// torn write (crash mid-write) or an external truncation.
    Truncated {
        /// What was being read.
        what: String,
        /// Byte offset at which the read was attempted.
        offset: usize,
        /// Bytes the read needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// A complete frame whose CRC-32 disagrees with its payload: a
    /// bit-flip, a misdirected write, or a tear that happened to preserve
    /// the length field.
    CrcMismatch {
        /// What was being read.
        what: String,
        /// Byte offset of the offending frame.
        offset: usize,
        /// CRC the frame claims.
        expected: u32,
        /// CRC the payload hashes to.
        actual: u32,
    },
    /// The frame's CRC held but its payload does not decode as the declared
    /// structure — framed-in garbage, which only the decoders can catch.
    Malformed {
        /// What failed to decode, with position context.
        what: String,
    },
}

impl PersistError {
    /// Wraps an `io::Error` with context.
    pub fn io(what: impl Into<String>, e: std::io::Error) -> Self {
        PersistError::Io {
            what: what.into(),
            error: e.to_string(),
        }
    }
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { what, error } => write!(f, "io error: {what}: {error}"),
            PersistError::BadMagic { what, found } => {
                write!(f, "bad magic in {what}: found {found:02x?}")
            }
            PersistError::UnsupportedVersion {
                what,
                found,
                supported,
            } => write!(
                f,
                "unsupported version in {what}: file claims v{found}, this build speaks v{supported}"
            ),
            PersistError::Truncated {
                what,
                offset,
                needed,
                available,
            } => write!(
                f,
                "truncated {what}: needed {needed} byte(s) at offset {offset}, only {available} available (torn write?)"
            ),
            PersistError::CrcMismatch {
                what,
                offset,
                expected,
                actual,
            } => write!(
                f,
                "crc mismatch in {what} at offset {offset}: frame claims {expected:#010x}, payload hashes to {actual:#010x}"
            ),
            PersistError::Malformed { what } => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for PersistError {}
