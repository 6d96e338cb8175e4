//! # fol-net: a network front-end for the FOL serving layer
//!
//! [`fol_serve::Server`] batches small independent requests into the large
//! index vectors the paper's method (filtering-overwritten-label, Kanada
//! SC'91) needs to amortize its per-transaction overhead — but only for
//! callers in the same process. This crate puts that serving layer behind a
//! socket without surrendering any of its guarantees, and then shards and
//! replicates it:
//!
//! * a **wire protocol** ([`wire`]) built from the same CRC-framed
//!   vocabulary as the durable artifacts — a torn, bit-flipped, or
//!   garbage frame is a *typed* refusal ([`fol_persist::PersistError`]),
//!   never a mis-parse;
//! * a threaded **TCP server** ([`NetServer`]) over
//!   [`fol_serve::Server::submit_with`]: per-connection read/write
//!   deadlines, bounded in-flight admission with typed
//!   [`fol_serve::ServeError::Overloaded`] on the wire, a
//!   `(client, seq)`-keyed dedupe table that makes re-submission
//!   exactly-once, and graceful drain on shutdown;
//! * a **retrying client** ([`NetClient`]): capped exponential backoff with
//!   seeded jitter ([`Backoff`]), deadline-aware retry of *retryable*
//!   failures (timeouts, resets, torn frames, overload) and immediate
//!   surfacing of *terminal* ones (typed refusals, exhausted deadlines),
//!   with idempotent re-submission keyed by request sequence number;
//! * seeded **wire-fault injection** ([`WireFaultPlan`]) at the transport
//!   seam — frame drops, delays, duplicates, byte flips, half-open tears —
//!   so the whole stack is testable under a deterministic adversary;
//! * a **sharded, replicated cluster** ([`ShardMap`], [`ClusterClient`]):
//!   a versioned, epoch-stamped consistent-hash ring partitions the key
//!   space over independent nodes and gives each shard a replica group;
//!   the router fans each batch to every live member of each request's
//!   group *in parallel* and acknowledges on a majority of the group as
//!   the map assigns it. A node that stops answering is evicted typed
//!   ([`EvictReason::Unresponsive`]), shard-scoped *content-digest* voting
//!   ([`fol_serve::Request::ShardDigest`]) evicts a divergent one
//!   ([`EvictReason::DigestMinority`]), and [`ClusterClient::rejoin`]
//!   ships an evicted node its missing keys and readmits it only on a
//!   digest match. A replica set is a map with `replication = N`. Every
//!   mismatch between a request's epoch and a node's installed map is a
//!   typed `WrongEpoch`/`NotOwner` refusal that drives a map refresh,
//!   never a silent mis-route;
//! * a crash-safe **rebalance coordinator** ([`rebalance()`]):
//!   freeze → drain → extract → digest-verify → install → advance, every
//!   step idempotent, so a coordinator or node killed mid-handoff re-runs
//!   to the same converged state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backoff;
mod client;
mod fault;
pub mod rebalance;
mod server;
pub mod shard;
pub mod wire;

pub use backoff::Backoff;
pub use client::{NetClient, NetClientConfig};
pub use fault::{FaultDecision, WireFaultPlan};
pub use rebalance::{abort_rebalance, rebalance, MovedShard, RebalanceReport};
pub use server::{NetServer, NetServerConfig};
pub use shard::{ClusterClient, EvictReason, NodeStatus, RejoinError, ShardMap};

use fol_persist::PersistError;
use fol_serve::ServeError;

/// Every way a remote call can fail, split by what the caller should do
/// next: [`NetError::is_retryable`] failures are worth another attempt on a
/// fresh connection; the rest are terminal verdicts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetError {
    /// The transport failed (connect refused, reset, read/write timeout).
    /// Retryable — the bytes may simply have died with the connection.
    Io {
        /// What was being done.
        what: String,
        /// The rendered `std::io::Error`.
        error: String,
    },
    /// The peer's bytes arrived but the frame was defective — torn
    /// ([`PersistError::Truncated`]), bit-flipped
    /// ([`PersistError::CrcMismatch`]), or garbage
    /// ([`PersistError::Malformed`]). The connection is poisoned; retryable
    /// on a fresh one.
    Frame(PersistError),
    /// The peer refused *our* last frame as defective and closed. Retryable
    /// on a fresh connection.
    PeerRefused {
        /// The defect as the peer rendered it.
        what: String,
    },
    /// A duplicate of a still-executing request: the outcome is not yet
    /// known, so there is nothing to replay. Retryable — the next attempt
    /// finds the cached outcome.
    Busy,
    /// The server's typed per-request verdict. Overload and a lost worker
    /// are retryable; rejections, server-side deadline expiry, transaction
    /// failure, shutdown, and persistence refusals are terminal.
    Serve(ServeError),
    /// The client-side deadline was exhausted across every retry attempt.
    /// Terminal; the request *may or may not* have been applied remotely —
    /// re-submitting under the same sequence number (what
    /// [`NetClient`] does automatically within one call) is the only safe
    /// way to resolve the ambiguity.
    Deadline {
        /// How many attempts were made before giving up.
        attempts: u32,
    },
    /// A replica group could not reach its quorum (a majority of the group
    /// as the map assigns it): fewer members are live than the quorum, too
    /// few answered `Ok`, or too few digest votes agree. Some members may
    /// have applied the request.
    NoQuorum {
        /// Live members, `Ok` answers, or agreeing votes, whichever fell short.
        live: usize,
        /// The group's quorum.
        need: usize,
    },
}

impl NetError {
    /// True when another attempt (on a fresh connection, after backoff)
    /// could succeed.
    pub fn is_retryable(&self) -> bool {
        match self {
            NetError::Io { .. }
            | NetError::Frame(_)
            | NetError::PeerRefused { .. }
            | NetError::Busy => true,
            NetError::Serve(e) => {
                matches!(e, ServeError::Overloaded { .. } | ServeError::WorkerLost)
            }
            NetError::Deadline { .. } | NetError::NoQuorum { .. } => false,
        }
    }

    pub(crate) fn io(what: impl Into<String>, e: &std::io::Error) -> Self {
        NetError::Io {
            what: what.into(),
            error: e.to_string(),
        }
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io { what, error } => write!(f, "i/o during {what}: {error}"),
            NetError::Frame(e) => write!(f, "defective frame: {e}"),
            NetError::PeerRefused { what } => write!(f, "peer refused our frame: {what}"),
            NetError::Busy => write!(f, "duplicate of a still-executing request"),
            NetError::Serve(e) => write!(f, "server verdict: {e}"),
            NetError::Deadline { attempts } => {
                write!(f, "client deadline exhausted after {attempts} attempt(s)")
            }
            NetError::NoQuorum { live, need } => {
                write!(f, "no quorum: {live} live replica(s), {need} needed")
            }
        }
    }
}

impl std::error::Error for NetError {}
