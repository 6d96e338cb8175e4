//! The typed request surface of the serving layer.
//!
//! Every request names a workload class, carries its own keys, and is
//! submitted with a [`Priority`] and an optional deadline. The scheduler
//! coalesces compatible requests of the same [`Kind`] into one long index
//! vector per transaction and demultiplexes a per-request [`Response`] or
//! [`ServeError`] back to each caller — the batch is an implementation
//! detail; the outcome surface is strictly per request.

use fol_persist::frame::{Dec, Enc};
use fol_persist::PersistError;
use fol_vm::Word;

/// Which family of machine-resident structure a request targets. Each class
/// is owned by (sharded across, for chaining) specific pool workers. The
/// discriminant is the class's byte in the request codec.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// Chaining hash table (`fol_hash::chaining`) — sharded per worker.
    Chain = 0,
    /// Open-addressing hash table (`fol_hash::open_addressing`).
    OpenAddr = 1,
    /// Binary search tree (`fol_tree::bst`).
    Bst = 2,
}

/// The coalescing key: requests of the same kind may share one transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kind {
    ChainInsert,
    OaInsert,
    OaLookup,
    BstInsert,
    Control,
}

/// One client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Insert `keys` into the chaining hash table (duplicates legal).
    ChainInsert {
        /// Keys to insert.
        keys: Vec<Word>,
    },
    /// Insert `keys` into the open-addressing table. Keys must be
    /// non-negative and distinct (within the request *and* against sibling
    /// requests coalesced into the same batch); violations come back as
    /// [`ServeError::Rejected`].
    OaInsert {
        /// Keys to insert.
        keys: Vec<Word>,
    },
    /// Membership test for `keys` against the open-addressing table.
    OaLookup {
        /// Keys to look up.
        keys: Vec<Word>,
    },
    /// Insert `keys` into the binary search tree (duplicates legal).
    BstInsert {
        /// Keys to insert.
        keys: Vec<Word>,
    },
    /// Ask for the class's **content digest**: an order-insensitive hash of
    /// the keys the structure currently stores, plus their count. Routed as
    /// a control request (never coalesced) to the class's owning worker, so
    /// the answer reflects every batch acknowledged before this request was
    /// served. Two servers that applied the same logical traffic return the
    /// same digest regardless of batch composition, escalation history, or
    /// shard layout — the cross-replica comparison primitive `fol-net`'s
    /// digest voting is built on (same-machine voting uses
    /// `fol_vm::Machine::content_digest`, which hashes *physical* memory
    /// and is deliberately not comparable across replicas).
    Digest {
        /// The class to digest.
        class: WorkloadClass,
    },
    /// Ask for the class's content digest **restricted to one cluster
    /// shard**: keys `k` with `shard_of(k, shards) == shard` (see
    /// [`crate::shard::shard_of`]). Routed as a control request to the
    /// class's owning worker. The per-shard digests of a class sum
    /// (wrapping) to its [`Request::Digest`] answer, so a rebalance can be
    /// audited shard by shard.
    ShardDigest {
        /// The class to digest.
        class: WorkloadClass,
        /// Total cluster shard count the key space is partitioned into.
        shards: u32,
        /// Which shard's keys to digest.
        shard: u32,
    },
    /// Ask for the class's stored keys restricted to one cluster shard —
    /// the extraction primitive a shard handoff ships to the new owner.
    /// Routed as a control request to the class's owning worker; the
    /// answer reflects every batch acknowledged before it was served.
    ShardKeys {
        /// The class to enumerate.
        class: WorkloadClass,
        /// Total cluster shard count the key space is partitioned into.
        shards: u32,
        /// Which shard's keys to return.
        shard: u32,
    },
    /// Test hook: flip one resident bit in the class's tracked storage,
    /// behind the store path — the bit-rot the idle scrub exists to catch.
    #[doc(hidden)]
    InjectRot {
        /// The class whose storage decays.
        class: WorkloadClass,
    },
    /// Test hook: panic the worker that owns `class` mid-batch, exercising
    /// the respawn path.
    #[doc(hidden)]
    PoisonPill {
        /// The class whose owning worker is killed.
        class: WorkloadClass,
    },
}

impl Request {
    pub(crate) fn kind(&self) -> Kind {
        match self {
            Request::ChainInsert { .. } => Kind::ChainInsert,
            Request::OaInsert { .. } => Kind::OaInsert,
            Request::OaLookup { .. } => Kind::OaLookup,
            Request::BstInsert { .. } => Kind::BstInsert,
            Request::Digest { .. }
            | Request::ShardDigest { .. }
            | Request::ShardKeys { .. }
            | Request::InjectRot { .. }
            | Request::PoisonPill { .. } => Kind::Control,
        }
    }

    pub(crate) fn class(&self) -> WorkloadClass {
        match self {
            Request::ChainInsert { .. } => WorkloadClass::Chain,
            Request::OaInsert { .. } | Request::OaLookup { .. } => WorkloadClass::OpenAddr,
            Request::BstInsert { .. } => WorkloadClass::Bst,
            Request::Digest { class }
            | Request::ShardDigest { class, .. }
            | Request::ShardKeys { class, .. }
            | Request::InjectRot { class }
            | Request::PoisonPill { class } => *class,
        }
    }
}

const REQ_CHAIN_INSERT: u8 = 0;
const REQ_OA_INSERT: u8 = 1;
const REQ_OA_LOOKUP: u8 = 2;
const REQ_BST_INSERT: u8 = 3;
const REQ_INJECT_ROT: u8 = 4;
const REQ_POISON_PILL: u8 = 5;
const REQ_DIGEST: u8 = 6;
const REQ_SHARD_DIGEST: u8 = 7;
const REQ_SHARD_KEYS: u8 = 8;

fn malformed(what: String) -> PersistError {
    PersistError::Malformed { what }
}

/// Appends a key list: a `u32` count, then the keys as little-endian
/// `i64`s. Requests and the wire's `Keys` response share it.
pub fn encode_keys(e: &mut Enc, keys: &[Word]) {
    e.u32(keys.len() as u32);
    for &k in keys {
        e.i64(k);
    }
}

/// Decodes a key list written by [`encode_keys`].
pub fn decode_keys(d: &mut Dec<'_>) -> Result<Vec<Word>, PersistError> {
    let n = d.u32("keys")? as usize;
    let mut keys = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        keys.push(d.i64("keys")?);
    }
    Ok(keys)
}

impl Request {
    fn tag(&self) -> u8 {
        match self {
            Request::ChainInsert { .. } => REQ_CHAIN_INSERT,
            Request::OaInsert { .. } => REQ_OA_INSERT,
            Request::OaLookup { .. } => REQ_OA_LOOKUP,
            Request::BstInsert { .. } => REQ_BST_INSERT,
            Request::InjectRot { .. } => REQ_INJECT_ROT,
            Request::PoisonPill { .. } => REQ_POISON_PILL,
            Request::Digest { .. } => REQ_DIGEST,
            Request::ShardDigest { .. } => REQ_SHARD_DIGEST,
            Request::ShardKeys { .. } => REQ_SHARD_KEYS,
        }
    }

    /// Appends the request's bytes: a tag, then its keys (`u32` count and
    /// `i64`s) or its class tag and shard fields. The one request codec:
    /// WAL admit records and wire submit frames both carry these bytes.
    pub fn encode(&self, e: &mut Enc) {
        e.u8(self.tag());
        match self {
            Request::ChainInsert { keys }
            | Request::OaInsert { keys }
            | Request::OaLookup { keys }
            | Request::BstInsert { keys } => encode_keys(e, keys),
            Request::InjectRot { class }
            | Request::PoisonPill { class }
            | Request::Digest { class } => e.u8(*class as u8),
            Request::ShardDigest {
                class,
                shards,
                shard,
            }
            | Request::ShardKeys {
                class,
                shards,
                shard,
            } => {
                e.u8(*class as u8);
                e.u32(*shards);
                e.u32(*shard);
            }
        }
    }

    /// Decodes one request written by [`Request::encode`]; every defect is
    /// a typed [`PersistError`].
    pub fn decode(d: &mut Dec<'_>) -> Result<Self, PersistError> {
        let class = |d: &mut Dec<'_>| {
            let tag = d.u8("request.class")?;
            [
                WorkloadClass::Chain,
                WorkloadClass::OpenAddr,
                WorkloadClass::Bst,
            ]
            .get(tag as usize)
            .copied()
            .ok_or_else(|| malformed(format!("request: unknown class tag {tag}")))
        };
        Ok(match d.u8("request.tag")? {
            REQ_CHAIN_INSERT => Request::ChainInsert {
                keys: decode_keys(d)?,
            },
            REQ_OA_INSERT => Request::OaInsert {
                keys: decode_keys(d)?,
            },
            REQ_OA_LOOKUP => Request::OaLookup {
                keys: decode_keys(d)?,
            },
            REQ_BST_INSERT => Request::BstInsert {
                keys: decode_keys(d)?,
            },
            REQ_INJECT_ROT => Request::InjectRot { class: class(d)? },
            REQ_POISON_PILL => Request::PoisonPill { class: class(d)? },
            REQ_DIGEST => Request::Digest { class: class(d)? },
            REQ_SHARD_DIGEST => Request::ShardDigest {
                class: class(d)?,
                shards: d.u32("request.shards")?,
                shard: d.u32("request.shard")?,
            },
            REQ_SHARD_KEYS => Request::ShardKeys {
                class: class(d)?,
                shards: d.u32("request.shards")?,
                shard: d.u32("request.shard")?,
            },
            other => return Err(malformed(format!("request: unknown request tag {other}"))),
        })
    }
}

/// The order-insensitive content digest of a key multiset: the wrapping sum
/// of a strong per-key hash. Commutative and associative, so shard digests
/// combine by addition and batch composition cannot influence the result;
/// duplicates accumulate (unlike an XOR fold, where a key inserted twice
/// would vanish). Paired with the key count in [`Response::ClassDigest`] so
/// an empty structure and a zero-sum collision stay distinguishable.
pub fn keys_digest(keys: &[Word]) -> u64 {
    keys.iter().fold(0u64, |acc, &k| {
        // splitmix64 finalizer over the key bits.
        let mut z = (k as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        acc.wrapping_add(z ^ (z >> 31))
    })
}

/// The per-request success payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Chain insert landed; `rounds` is the FOL round count of the (possibly
    /// shared) transaction that carried it.
    ChainInserted {
        /// FOL rounds of the carrying transaction.
        rounds: usize,
    },
    /// Open-addressing insert landed.
    OaInserted {
        /// Overwrite-and-check iterations of the carrying transaction.
        iterations: usize,
        /// Probe attempts of the carrying transaction.
        probes: u64,
    },
    /// Open-addressing lookup result, one bool per queried key, in order.
    OaLookedUp {
        /// Membership per key.
        found: Vec<bool>,
    },
    /// BST insert landed.
    BstInserted {
        /// Lock-step iterations of the carrying transaction.
        iterations: usize,
        /// FOL label-check retries of the carrying transaction.
        retries: u64,
    },
    /// A [`Request::Digest`] answer: the class's logical content digest.
    ClassDigest {
        /// Order-insensitive hash of the stored keys ([`keys_digest`]).
        /// For chaining this is the combined digest across every shard.
        digest: u64,
        /// How many keys the digest covers.
        count: u64,
    },
    /// A [`Request::ShardKeys`] answer: the class's stored keys within the
    /// requested cluster shard, sorted ascending.
    Keys {
        /// The matching keys, sorted.
        keys: Vec<Word>,
    },
    /// A [`Request::InjectRot`] flipped a bit.
    RotInjected,
}

/// Every way a request can fail — typed, never a silent drop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded queue was full at submission; the request was never
    /// admitted. Back off and retry.
    Overloaded {
        /// The queue bound that was hit.
        capacity: usize,
    },
    /// The request's deadline passed while it was still queued; it was
    /// load-shed without touching any machine.
    DeadlineExceeded,
    /// Admission control refused the request (malformed keys, structure
    /// full, or a conflict with a coalesced sibling). No machine state was
    /// touched for it.
    Rejected {
        /// The admission verdict.
        reason: String,
    },
    /// The request was admitted but its (bisection-isolated) transaction
    /// failed; memory was rolled back for it.
    Failed {
        /// The recovery error, rendered.
        reason: String,
    },
    /// The owning worker died mid-batch (it has since been respawned from
    /// its last committed state); the request's effects were discarded with
    /// the dead machine. Safe to resubmit.
    WorkerLost,
    /// The server is shutting down and no longer admits requests.
    ShuttingDown,
    /// A durability operation failed, or recorded history was refused as
    /// corrupt at startup. Carries the typed [`fol_persist::PersistError`]
    /// — a log or checkpoint that lies is refused, never silently replayed
    /// around.
    Persist {
        /// The typed persistence failure.
        error: fol_persist::PersistError,
    },
    /// The request was stamped with a shard-map epoch this server does not
    /// currently serve. The client's map is stale (or, rarely, ahead of a
    /// server that has not installed the new map yet); refresh the map and
    /// retry under the current epoch. The request touched no state.
    WrongEpoch {
        /// The epoch the request was stamped with.
        got: u64,
        /// The epoch this server is serving.
        current: u64,
    },
    /// The request's key shard is not owned (or is frozen for handoff) by
    /// this server under the current map. Refresh the map and retry against
    /// the owner. The request touched no state.
    NotOwner {
        /// The shard the request was routed under.
        shard: u32,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { capacity } => {
                write!(f, "overloaded: queue at capacity {capacity}")
            }
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded while queued"),
            ServeError::Rejected { reason } => write!(f, "rejected: {reason}"),
            ServeError::Failed { reason } => write!(f, "transaction failed: {reason}"),
            ServeError::WorkerLost => write!(f, "owning worker lost mid-batch"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Persist { error } => write!(f, "persistence: {error}"),
            ServeError::WrongEpoch { got, current } => {
                write!(
                    f,
                    "wrong shard-map epoch: request stamped {got}, serving {current}"
                )
            }
            ServeError::NotOwner { shard } => {
                write!(f, "not the owner of shard {shard} under the current map")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Scheduling priority: within a kind, higher-priority requests enter a
/// batch first; ties drain in submission order. The discriminant is the
/// priority's byte in WAL admit records and wire submit frames.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Batch-filling background work.
    Low = 0,
    /// The default.
    #[default]
    Normal = 1,
    /// Latency-sensitive work, drained ahead of the rest.
    High = 2,
}

impl Priority {
    /// The priority a tag byte names; any other byte is
    /// [`PersistError::Malformed`].
    pub fn from_tag(tag: u8) -> Result<Self, PersistError> {
        [Self::Low, Self::Normal, Self::High]
            .get(tag as usize)
            .copied()
            .ok_or_else(|| malformed(format!("request: unknown priority tag {tag}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_classes_line_up() {
        assert_eq!(
            Request::ChainInsert { keys: vec![] }.kind(),
            Kind::ChainInsert
        );
        assert_eq!(
            Request::OaLookup { keys: vec![] }.class(),
            WorkloadClass::OpenAddr
        );
        assert_eq!(
            Request::InjectRot {
                class: WorkloadClass::Bst
            }
            .kind(),
            Kind::Control
        );
        assert_eq!(
            Request::PoisonPill {
                class: WorkloadClass::Chain
            }
            .class(),
            WorkloadClass::Chain
        );
    }

    #[test]
    fn priority_orders_high_above_normal_above_low() {
        assert!(Priority::High > Priority::Normal);
        assert!(Priority::Normal > Priority::Low);
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn errors_render() {
        assert!(ServeError::Overloaded { capacity: 8 }
            .to_string()
            .contains("capacity 8"));
        assert!(ServeError::DeadlineExceeded
            .to_string()
            .contains("deadline"));
    }
}
