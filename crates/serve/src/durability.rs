//! Crash safety for the serving layer: the request-log codec, the replay
//! filter, and the per-worker checkpoint cadence.
//!
//! The durability contract is **no lost acknowledgements**: once
//! [`crate::Server::submit`] has returned a [`crate::Ticket`], the request
//! survives a process kill — an *admission record* is in the write-ahead
//! log before the ticket exists. After a batch commits, each carried
//! request gets a *completion record* (with an `applied` flag), committed
//! to the log before any caller sees its outcome. Then, every
//! [`ServerConfig::durability`](crate::ServerConfig) `checkpoint_every`
//! mutating batches, a worker cuts a [`Checkpoint`] (or a delta) of its
//! committed regions, host counters, and the set of request sequence
//! numbers whose effects the image contains, and hands it to the
//! server's writer thread ([`crate::writer`]), which writes it off the
//! request path. That set holds only sequences at or above the log floor
//! the newest compaction pass reported: below it no admission record
//! remains, so nothing can re-drive them and no image needs to name them.
//!
//! On restart, [`plan_replay`] reconstructs the acknowledged-but-unapplied
//! frontier from those three sources:
//!
//! ```text
//! resubmit  =  admitted  ∧  mutating
//!           ∧  seq ∉ ⋃ checkpoint applied sets     — not already on disk
//!           ∧  ¬ completed-unapplied               — not terminally refused
//! ```
//!
//! A completion with `applied == false` (rejected, failed, deadline-shed,
//! worker lost) is terminal: the caller already received that typed outcome
//! and the request must *not* be re-driven. A sequence that appears in some
//! durable checkpoint's applied set is already on disk — replaying it would
//! double-apply, *even if its completion record was torn away with the
//! crash* (the checkpoint, not the log, is authoritative for applied
//! effects). What remains — acknowledged, mutating, never completed or
//! completed only in memory — is exactly the frontier a kill can strand.
//!
//! Replay is exactly-once with respect to durable checkpoints. For the
//! window between the last checkpoint and the kill it is at-least-once:
//! the open-addressing workload rejects duplicate keys (typed), making
//! re-application idempotent there; chaining and BST inserts tolerate
//! duplicates by design, so the weaker guarantee — every acknowledged key
//! is present — is the one the crash suite asserts for them.

use crate::request::{Priority, Request};
use fol_persist::frame::{Dec, Enc};
use fol_persist::wal::WalRecord;
use fol_persist::{FsyncPolicy, LogRecord, PersistError};
use std::collections::{BTreeSet, HashMap};
use std::path::PathBuf;
use std::time::Duration;

/// File prefix of the shared request log inside the durability directory.
pub const REQUEST_LOG_PREFIX: &str = "requests";

/// The file prefix of worker `id`'s checkpoints.
pub fn worker_prefix(id: usize) -> String {
    format!("worker{id}")
}

/// Where and how aggressively the server persists. Attached to
/// [`crate::ServerConfig::durability`]; `None` there means the server runs
/// exactly as before — nothing touches disk.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Directory holding the request log segments, the per-worker
    /// checkpoints, and nothing else. Created if missing.
    pub dir: PathBuf,
    /// When log bytes are forced to stable storage. `Always` makes every
    /// acknowledgement durable against power loss; `Batch` defers the fsync
    /// to batch boundaries (an admitted-but-unexecuted request survives a
    /// process kill via the page cache, but not power loss); `Off` never
    /// syncs (the crash-suite tier — SIGKILL does not lose page-cache
    /// writes).
    pub fsync: FsyncPolicy,
    /// A worker checkpoints after every `checkpoint_every` successful
    /// mutating batches (0 is treated as 1).
    pub checkpoint_every: u64,
    /// Of the cadence ticks, every `full_image_every`-th generation is a
    /// full image; the generations in between are delta checkpoints chained
    /// to their parent (0 and 1 both mean "always full" — no deltas).
    pub full_image_every: u64,
    /// Newest loadable **full images** retained per worker by compaction
    /// (older generations — full and delta — are pruned once a pass runs).
    pub keep_full_images: usize,
    /// Request-log segment rotation threshold, in payload bytes.
    pub segment_bytes: u64,
}

impl DurabilityConfig {
    /// A durability config rooted at `dir` with batch-boundary fsync, a
    /// checkpoint every 8 mutating batches, a full image every 4th
    /// generation (3 deltas in between), 2 full images retained, and 1 MiB
    /// log segments.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Batch,
            checkpoint_every: 8,
            full_image_every: 4,
            keep_full_images: 2,
            segment_bytes: 1 << 20,
        }
    }

    /// Same config with a different fsync policy.
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Same config with a different checkpoint cadence.
    pub fn checkpoint_every(mut self, every: u64) -> Self {
        self.checkpoint_every = every.max(1);
        self
    }

    /// Same config with a different full-image cadence (every `k`-th
    /// generation is full; `k <= 1` disables deltas entirely).
    pub fn full_image_every(mut self, k: u64) -> Self {
        self.full_image_every = k.max(1);
        self
    }

    /// Same config with a different full-image retention for compaction.
    pub fn keep_full_images(mut self, keep: usize) -> Self {
        self.keep_full_images = keep.max(1);
        self
    }
}

const REC_ADMIT: u8 = 1;
const REC_COMPLETE: u8 = 2;

/// True for the kinds whose effects must be re-driven after a crash.
/// Lookups are read-only and control requests are test hooks — neither is
/// replayed (their callers died with the previous process).
pub(crate) fn is_mutating(request: &Request) -> bool {
    matches!(
        request,
        Request::ChainInsert { .. } | Request::OaInsert { .. } | Request::BstInsert { .. }
    )
}

/// One decoded request-log record. Public so tooling and crash tests can
/// audit a log byte-for-byte with the server's own codec.
#[derive(Clone, Debug, PartialEq)]
pub enum DurRecord {
    /// A request was admitted (the ticket was, or was about to be,
    /// acknowledged) under `seq`.
    Admit {
        /// The admission sequence number.
        seq: u64,
        /// The admitted request, verbatim.
        request: Request,
        /// The priority it was admitted at.
        priority: Priority,
        /// The deadline the caller asked for, recorded for audit. Replay
        /// ignores it: wall-clock deadlines do not survive a restart, and
        /// durability outranks staleness for an acknowledged mutation.
        deadline_millis: Option<u64>,
    },
    /// The request under `seq` terminated. `applied == true` means its
    /// effects were committed to machine memory; `false` means it ended
    /// with a typed non-effect outcome (rejected, failed, shed, lost).
    Complete {
        /// The sequence number that terminated.
        seq: u64,
        /// Whether its effects were committed to machine memory.
        applied: bool,
    },
}

/// Encodes an admission record, the inverse of [`decode_record`]. Public
/// so tooling and tests can write a log byte-for-byte with the server's
/// own codec.
pub fn encode_admit(
    seq: u64,
    request: &Request,
    priority: Priority,
    deadline: Option<Duration>,
) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(REC_ADMIT);
    e.u64(seq);
    e.u8(priority as u8);
    match deadline {
        Some(d) => {
            e.u8(1);
            e.u64(d.as_millis() as u64);
        }
        None => {
            e.u8(0);
            e.u64(0);
        }
    }
    request.encode(&mut e);
    e.into_bytes()
}

/// Encodes a completion record.
pub(crate) fn encode_complete(seq: u64, applied: bool) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(REC_COMPLETE);
    e.u64(seq);
    e.u8(applied as u8);
    e.into_bytes()
}

/// Decodes one record payload. Every defect is a typed
/// [`PersistError::Malformed`] — a log that cannot be decoded must not be
/// guessed at.
pub fn decode_record(payload: &[u8]) -> Result<DurRecord, PersistError> {
    let mut d = Dec::new(payload);
    let tag = d.u8("record tag")?;
    match tag {
        REC_ADMIT => {
            let seq = d.u64("admit.seq")?;
            let priority = Priority::from_tag(d.u8("admit.priority")?)?;
            let has_deadline = d.u8("admit.has_deadline")? != 0;
            let millis = d.u64("admit.deadline_millis")?;
            let request = Request::decode(&mut d)?;
            d.finish("admit record")?;
            Ok(DurRecord::Admit {
                seq,
                request,
                priority,
                deadline_millis: has_deadline.then_some(millis),
            })
        }
        REC_COMPLETE => {
            let seq = d.u64("complete.seq")?;
            let applied = d.u8("complete.applied")? != 0;
            d.finish("complete record")?;
            Ok(DurRecord::Complete { seq, applied })
        }
        other => Err(PersistError::Malformed {
            what: format!("request log: unknown record tag {other}"),
        }),
    }
}

/// Adapter from this codec to the compactor's coarse [`LogRecord`] view:
/// the [`fol_persist::Compactor`] only needs to know which sequences a
/// segment admits and which it terminally refuses. A payload that does not
/// decode is mapped to an admit of an impossible sequence rather than
/// [`LogRecord::Other`], so its segment is never judged "fully covered"
/// and never deleted — a log the replayer would refuse must stay on disk
/// for the operator, bit-for-bit.
pub(crate) fn classify_record(payload: &[u8]) -> LogRecord {
    match decode_record(payload) {
        Ok(DurRecord::Admit { seq, .. }) => LogRecord::Admit { seq },
        Ok(DurRecord::Complete { seq, applied }) => LogRecord::Complete { seq, applied },
        Err(_) => LogRecord::Admit { seq: u64::MAX },
    }
}

/// One acknowledged request the restarting server must re-drive.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct ReplayEntry {
    pub(crate) seq: u64,
    pub(crate) request: Request,
    pub(crate) priority: Priority,
}

/// What [`plan_replay`] decided.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct ReplayPlan {
    /// Acknowledged mutating requests without a durably-applied outcome, in
    /// sequence order.
    pub(crate) resubmit: Vec<ReplayEntry>,
    /// First sequence number the new incarnation may assign: strictly above
    /// everything the log or the checkpoints have seen.
    pub(crate) next_seq: u64,
}

/// Applies the replay filter (module docs) to a decoded log against the
/// union of the restored checkpoints' applied sets.
pub(crate) fn plan_replay(
    records: &[WalRecord],
    checkpoint_applied: &BTreeSet<u64>,
) -> Result<ReplayPlan, PersistError> {
    let mut admits: HashMap<u64, (Request, Priority)> = HashMap::new();
    let mut completes: HashMap<u64, bool> = HashMap::new();
    let mut max_seen: Option<u64> = None;
    for rec in records {
        match decode_record(&rec.payload)? {
            DurRecord::Admit {
                seq,
                request,
                priority,
                ..
            } => {
                max_seen = Some(max_seen.map_or(seq, |m| m.max(seq)));
                admits.insert(seq, (request, priority));
            }
            DurRecord::Complete { seq, applied } => {
                max_seen = Some(max_seen.map_or(seq, |m| m.max(seq)));
                // Records arrive in append order; the latest verdict wins
                // (a request replayed by an earlier restart completes again).
                completes.insert(seq, applied);
            }
        }
    }
    if let Some(&m) = checkpoint_applied.iter().next_back() {
        max_seen = Some(max_seen.map_or(m, |s| s.max(m)));
    }
    let mut resubmit: Vec<ReplayEntry> = admits
        .into_iter()
        .filter(|(seq, (request, _))| {
            is_mutating(request)
                && !checkpoint_applied.contains(seq)
                && completes.get(seq) != Some(&false)
        })
        .map(|(seq, (request, priority))| ReplayEntry {
            seq,
            request,
            priority,
        })
        .collect();
    resubmit.sort_by_key(|e| e.seq);
    Ok(ReplayPlan {
        resubmit,
        next_seq: max_seen.map_or(0, |m| m + 1),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::WorkloadClass;

    fn wrap(payloads: Vec<Vec<u8>>) -> Vec<WalRecord> {
        payloads
            .into_iter()
            .enumerate()
            .map(|(i, payload)| WalRecord {
                segment: 0,
                index_in_segment: i as u64,
                payload,
            })
            .collect()
    }

    #[test]
    fn records_round_trip() {
        // Every request variant under a High priority and a deadline is
        // pinned byte-for-byte by the root `request_codec` test.
        let cases = vec![
            (
                encode_admit(8, &Request::OaLookup { keys: vec![5] }, Priority::Low, None),
                DurRecord::Admit {
                    seq: 8,
                    request: Request::OaLookup { keys: vec![5] },
                    priority: Priority::Low,
                    deadline_millis: None,
                },
            ),
            (
                encode_complete(7, true),
                DurRecord::Complete {
                    seq: 7,
                    applied: true,
                },
            ),
            (
                encode_complete(8, false),
                DurRecord::Complete {
                    seq: 8,
                    applied: false,
                },
            ),
        ];
        for (bytes, expected) in cases {
            assert_eq!(decode_record(&bytes).unwrap(), expected);
        }
    }

    #[test]
    fn garbage_records_are_typed_malformed() {
        for bytes in [
            vec![],
            vec![99],
            vec![REC_ADMIT, 1, 2],
            {
                let mut b = encode_complete(3, true);
                b.push(0xAA); // trailing garbage framed in
                b
            },
            {
                let mut b = encode_admit(
                    1,
                    &Request::ChainInsert { keys: vec![] },
                    Priority::Normal,
                    None,
                );
                let last = b.len() - 5;
                b[last] = 77; // unknown request tag
                b
            },
        ] {
            let err = decode_record(&bytes).unwrap_err();
            assert!(matches!(err, PersistError::Malformed { .. }), "{err}");
        }
    }

    #[test]
    fn replay_filter_implements_the_exactly_once_rule() {
        let ckpt: BTreeSet<u64> = [2u64, 6].into_iter().collect();
        let records = wrap(vec![
            // seq 0: admitted, never completed → resubmit.
            encode_admit(
                0,
                &Request::ChainInsert { keys: vec![10] },
                Priority::Normal,
                None,
            ),
            // seq 1: completed un-applied (rejected) → terminal.
            encode_admit(
                1,
                &Request::OaInsert { keys: vec![-1] },
                Priority::Normal,
                None,
            ),
            encode_complete(1, false),
            // seq 2: applied AND in a durable checkpoint → already on disk.
            encode_admit(
                2,
                &Request::BstInsert { keys: vec![5] },
                Priority::Normal,
                None,
            ),
            encode_complete(2, true),
            // seq 3: applied but the commit was memory-only → resubmit.
            encode_admit(
                3,
                &Request::OaInsert { keys: vec![8] },
                Priority::High,
                None,
            ),
            encode_complete(3, true),
            // seq 4: read-only → never replayed, even without a completion.
            encode_admit(
                4,
                &Request::OaLookup { keys: vec![8] },
                Priority::Normal,
                None,
            ),
            // seq 5: control hook → never replayed.
            encode_admit(
                5,
                &Request::PoisonPill {
                    class: WorkloadClass::Chain,
                },
                Priority::Normal,
                None,
            ),
            // seq 6: completion record torn away with the crash, but the
            // seq is in a durable checkpoint → the checkpoint wins; skip.
            encode_admit(
                6,
                &Request::ChainInsert { keys: vec![9] },
                Priority::Normal,
                None,
            ),
        ]);
        let plan = plan_replay(&records, &ckpt).unwrap();
        assert_eq!(
            plan.resubmit.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 3]
        );
        assert_eq!(plan.resubmit[1].priority, Priority::High);
        assert_eq!(plan.next_seq, 7);
    }

    #[test]
    fn replay_of_empty_log_is_empty_and_next_seq_clears_checkpoints() {
        let plan = plan_replay(&[], &BTreeSet::new()).unwrap();
        assert_eq!(plan, ReplayPlan::default());
        let ckpt: BTreeSet<u64> = [11u64, 40].into_iter().collect();
        let plan = plan_replay(&[], &ckpt).unwrap();
        assert!(plan.resubmit.is_empty());
        assert_eq!(
            plan.next_seq, 41,
            "fresh seqs must not collide with history"
        );
    }

    #[test]
    fn corrupt_payload_refuses_the_whole_plan() {
        let records = wrap(vec![vec![REC_ADMIT, 0, 0]]);
        assert!(plan_replay(&records, &BTreeSet::new()).is_err());
    }
}
