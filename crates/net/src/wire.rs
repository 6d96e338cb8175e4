//! The wire protocol: CRC-framed, length-prefixed messages over a byte
//! stream, speaking the same frame vocabulary as the durable artifacts.
//!
//! Every message is one [`fol_persist::frame`] frame —
//! `[len u32 LE] [crc u32 LE] [payload]` — whose payload starts with an
//! opcode byte. The receiver refuses defects **typed**, reusing
//! [`PersistError`]'s distinctions: a stream that ends mid-frame is
//! [`PersistError::Truncated`], a complete frame whose CRC disagrees is
//! [`PersistError::CrcMismatch`], and a CRC-clean payload that does not
//! decode as the declared structure is [`PersistError::Malformed`]. A frame
//! defect poisons the whole connection (stream sync can no longer be
//! trusted): the receiving peer best-effort sends a [`ServerMsg::WireRefused`]
//! naming the defect, then closes — the client reconnects and re-submits
//! under the same sequence number, and the server's dedupe table makes the
//! re-submission exactly-once.

use crate::shard::ShardMap;
use fol_persist::frame::{crc32, Dec, Enc};
use fol_persist::PersistError;
use fol_serve::{decode_keys, encode_keys, Priority, Request, Response, ServeError};
use std::io::Read;

/// Hard bound on one frame's payload length. A length prefix past it is
/// refused as [`PersistError::Malformed`] before any allocation — a flipped
/// length byte must not let the reader try to buffer 4 GiB.
pub const MAX_FRAME: usize = 1 << 22;

const OP_SUBMIT: u8 = 1;
const OP_HEALTH: u8 = 2;
const OP_SHUTDOWN: u8 = 3;
const OP_INSTALL_MAP: u8 = 4;
const OP_FREEZE_SHARD: u8 = 5;
const OP_EXTRACT_SHARD: u8 = 6;
const OP_INSTALL_SHARD: u8 = 7;
const OP_GET_MAP: u8 = 8;

const OP_RESULT: u8 = 1;
const OP_HEALTH_OK: u8 = 2;
const OP_WIRE_REFUSED: u8 = 3;
const OP_SHUTDOWN_ACK: u8 = 4;
const OP_MAP: u8 = 5;
const OP_SHARD_IMAGE: u8 = 6;
const OP_ADMIN_OK: u8 = 7;
const OP_ADMIN_ERR: u8 = 8;

const RESP_CHAIN_INSERTED: u8 = 0;
const RESP_OA_INSERTED: u8 = 1;
const RESP_OA_LOOKED_UP: u8 = 2;
const RESP_BST_INSERTED: u8 = 3;
const RESP_CLASS_DIGEST: u8 = 4;
const RESP_ROT_INJECTED: u8 = 5;
const RESP_KEYS: u8 = 6;

const ERR_OVERLOADED: u8 = 0;
const ERR_DEADLINE: u8 = 1;
const ERR_REJECTED: u8 = 2;
const ERR_FAILED: u8 = 3;
const ERR_WORKER_LOST: u8 = 4;
const ERR_SHUTTING_DOWN: u8 = 5;
const ERR_PERSIST: u8 = 6;
const ERR_WRONG_EPOCH: u8 = 7;
const ERR_NOT_OWNER: u8 = 8;

const PERSIST_IO: u8 = 0;
const PERSIST_BAD_MAGIC: u8 = 1;
const PERSIST_UNSUPPORTED: u8 = 2;
const PERSIST_TRUNCATED: u8 = 3;
const PERSIST_CRC: u8 = 4;
const PERSIST_MALFORMED: u8 = 5;

const OUTCOME_OK: u8 = 0;
const OUTCOME_ERR: u8 = 1;
const OUTCOME_BUSY: u8 = 2;

/// One client-to-server message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientMsg {
    /// Submit `request` under (`client_id`, `seq`). Re-submitting the same
    /// pair after a timeout is safe: the server dedupes and replays the
    /// recorded outcome instead of re-executing. `acked_floor` is the
    /// highest sequence number below which the client has every outcome —
    /// the server prunes its dedupe entries up to it.
    Submit {
        /// Stable identity of the submitting client.
        client_id: u64,
        /// Client-assigned request sequence number (the dedupe key,
        /// together with `client_id` and `map_epoch`).
        seq: u64,
        /// Every `seq < acked_floor` is acknowledged client-side.
        acked_floor: u64,
        /// Server-side deadline for the request, in milliseconds.
        deadline_millis: Option<u64>,
        /// The cluster shard the client routed this request to, or
        /// [`fol_serve::NO_SHARD`] for untagged / keyless traffic.
        shard: u32,
        /// The shard-map epoch the routing decision was made under; the
        /// server refuses mismatches typed ([`ServeError::WrongEpoch`]).
        /// `0` together with [`fol_serve::NO_SHARD`] means "standalone
        /// client, no map" and bypasses the epoch check.
        map_epoch: u64,
        /// The request itself.
        request: Request,
    },
    /// Cheap liveness/stats probe, answered at the network layer without
    /// entering the admission queue — it works even when the queue is
    /// saturated.
    Health,
    /// Ask the serving process to drain and shut down.
    Shutdown,
    /// Install a shard map on the server: the gate starts admitting only
    /// traffic stamped with this map's epoch, owning the shards whose
    /// replica groups include node index `you_are`.
    InstallMap {
        /// The map to install.
        map: ShardMap,
        /// The receiving server's index into `map.nodes`.
        you_are: u32,
    },
    /// Freeze (`true`) or unfreeze (`false`) one owned shard: frozen
    /// shards refuse new writes typed ([`ServeError::NotOwner`]) while a
    /// rebalance drains and extracts them.
    FreezeShard {
        /// The shard to (un)freeze.
        shard: u32,
        /// `true` to freeze, `false` to lift an aborted rebalance's freeze.
        freeze: bool,
    },
    /// Extract a frozen shard's contents as a digest-carrying handoff
    /// image ([`ServerMsg::ShardImage`]). The shard must be frozen and
    /// drained first.
    ExtractShard {
        /// The shard to extract.
        shard: u32,
    },
    /// Install a handoff image extracted from the shard's previous owner.
    /// The server verifies every section digest before touching its
    /// structures and acks with [`ServerMsg::AdminOk`] only after a
    /// digest-verified install.
    InstallShard {
        /// The encoded [`fol_persist::HandoffImage`].
        image: Vec<u8>,
    },
    /// Fetch the server's current shard map, if one is installed.
    GetMap,
}

/// The per-request outcome carried by [`ServerMsg::Result`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireOutcome {
    /// The request's typed success payload.
    Ok(Response),
    /// The request's typed failure.
    Err(ServeError),
    /// A duplicate of a request that is still executing: the original
    /// attempt's outcome is not known yet, so there is nothing to replay.
    /// Retryable — by the next attempt the outcome will be cached.
    Busy,
}

impl WireOutcome {
    /// Encodes the outcome standalone (tag byte onward, no frame header) —
    /// the opaque byte form shard-handoff images ship dedupe records in.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        enc_outcome(&mut e, self);
        e.into_bytes()
    }

    /// Decodes a standalone encoding produced by [`WireOutcome::encode`];
    /// every defect is a typed [`PersistError::Malformed`].
    pub fn decode(payload: &[u8]) -> Result<Self, PersistError> {
        let mut d = Dec::new(payload);
        let outcome = dec_outcome(&mut d)?;
        d.finish("wire.outcome")?;
        Ok(outcome)
    }
}

/// One server-to-client message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServerMsg {
    /// The outcome of the submit carrying `seq`.
    Result {
        /// Echo of the submit's sequence number.
        seq: u64,
        /// The typed outcome.
        outcome: WireOutcome,
    },
    /// The answer to [`ClientMsg::Health`]: the server's counter snapshot
    /// as (name, value) pairs plus the network layer's own in-flight count.
    Health {
        /// Counter names and values, in server-defined order.
        counters: Vec<(String, u64)>,
    },
    /// The peer's last frame was defective (torn, CRC-bad, or malformed);
    /// the connection is being closed. `what` renders the typed defect.
    WireRefused {
        /// The rendered [`PersistError`].
        what: String,
    },
    /// Shutdown acknowledged; the server is draining.
    ShutdownAck,
    /// The answer to [`ClientMsg::GetMap`]: the installed map, or `None`
    /// when the server has never been handed one.
    Map {
        /// The server's current map, if any.
        map: Option<ShardMap>,
    },
    /// The answer to [`ClientMsg::ExtractShard`]: the encoded
    /// [`fol_persist::HandoffImage`] of the frozen, drained shard.
    ShardImage {
        /// The encoded image bytes.
        image: Vec<u8>,
    },
    /// An administrative operation (map install, freeze, shard install)
    /// succeeded.
    AdminOk,
    /// An administrative operation was refused; `what` renders the typed
    /// reason. The connection stays open — admin refusals are verdicts,
    /// not frame defects.
    AdminErr {
        /// The rendered refusal.
        what: String,
    },
}

fn malformed(what: impl Into<String>) -> PersistError {
    PersistError::Malformed { what: what.into() }
}

fn enc_response(e: &mut Enc, response: &Response) {
    match response {
        Response::ChainInserted { rounds } => {
            e.u8(RESP_CHAIN_INSERTED);
            e.u64(*rounds as u64);
        }
        Response::OaInserted { iterations, probes } => {
            e.u8(RESP_OA_INSERTED);
            e.u64(*iterations as u64);
            e.u64(*probes);
        }
        Response::OaLookedUp { found } => {
            e.u8(RESP_OA_LOOKED_UP);
            e.u32(found.len() as u32);
            for &b in found {
                e.u8(b as u8);
            }
        }
        Response::BstInserted {
            iterations,
            retries,
        } => {
            e.u8(RESP_BST_INSERTED);
            e.u64(*iterations as u64);
            e.u64(*retries);
        }
        Response::ClassDigest { digest, count } => {
            e.u8(RESP_CLASS_DIGEST);
            e.u64(*digest);
            e.u64(*count);
        }
        Response::RotInjected => e.u8(RESP_ROT_INJECTED),
        Response::Keys { keys } => {
            e.u8(RESP_KEYS);
            encode_keys(e, keys);
        }
    }
}

fn dec_response(d: &mut Dec<'_>) -> Result<Response, PersistError> {
    let tag = d.u8("wire.response.tag")?;
    Ok(match tag {
        RESP_CHAIN_INSERTED => Response::ChainInserted {
            rounds: d.u64("wire.response.rounds")? as usize,
        },
        RESP_OA_INSERTED => Response::OaInserted {
            iterations: d.u64("wire.response.iterations")? as usize,
            probes: d.u64("wire.response.probes")?,
        },
        RESP_OA_LOOKED_UP => {
            let n = d.u32("wire.response.found.len")? as usize;
            let mut found = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                found.push(match d.u8("wire.response.found")? {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(malformed(format!("wire: found flag {other} is not a bool")))
                    }
                });
            }
            Response::OaLookedUp { found }
        }
        RESP_BST_INSERTED => Response::BstInserted {
            iterations: d.u64("wire.response.iterations")? as usize,
            retries: d.u64("wire.response.retries")?,
        },
        RESP_CLASS_DIGEST => Response::ClassDigest {
            digest: d.u64("wire.response.digest")?,
            count: d.u64("wire.response.count")?,
        },
        RESP_ROT_INJECTED => Response::RotInjected,
        RESP_KEYS => Response::Keys {
            keys: decode_keys(d)?,
        },
        other => return Err(malformed(format!("wire: unknown response tag {other}"))),
    })
}

fn enc_persist_error(e: &mut Enc, err: &PersistError) {
    match err {
        PersistError::Io { what, error } => {
            e.u8(PERSIST_IO);
            e.str(what);
            e.str(error);
        }
        PersistError::BadMagic { what, found } => {
            e.u8(PERSIST_BAD_MAGIC);
            e.str(what);
            e.u32(found.len() as u32);
            for &b in found {
                e.u8(b);
            }
        }
        PersistError::UnsupportedVersion {
            what,
            found,
            supported,
        } => {
            e.u8(PERSIST_UNSUPPORTED);
            e.str(what);
            e.u32(*found);
            e.u32(*supported);
        }
        PersistError::Truncated {
            what,
            offset,
            needed,
            available,
        } => {
            e.u8(PERSIST_TRUNCATED);
            e.str(what);
            e.u64(*offset as u64);
            e.u64(*needed as u64);
            e.u64(*available as u64);
        }
        PersistError::CrcMismatch {
            what,
            offset,
            expected,
            actual,
        } => {
            e.u8(PERSIST_CRC);
            e.str(what);
            e.u64(*offset as u64);
            e.u32(*expected);
            e.u32(*actual);
        }
        PersistError::Malformed { what } => {
            e.u8(PERSIST_MALFORMED);
            e.str(what);
        }
    }
}

fn dec_persist_error(d: &mut Dec<'_>) -> Result<PersistError, PersistError> {
    let tag = d.u8("wire.persist.tag")?;
    Ok(match tag {
        PERSIST_IO => PersistError::Io {
            what: d.str("wire.persist.what")?,
            error: d.str("wire.persist.error")?,
        },
        PERSIST_BAD_MAGIC => {
            let what = d.str("wire.persist.what")?;
            let n = d.u32("wire.persist.found.len")? as usize;
            let mut found = Vec::with_capacity(n.min(64));
            for _ in 0..n {
                found.push(d.u8("wire.persist.found")?);
            }
            PersistError::BadMagic { what, found }
        }
        PERSIST_UNSUPPORTED => PersistError::UnsupportedVersion {
            what: d.str("wire.persist.what")?,
            found: d.u32("wire.persist.found")?,
            supported: d.u32("wire.persist.supported")?,
        },
        PERSIST_TRUNCATED => PersistError::Truncated {
            what: d.str("wire.persist.what")?,
            offset: d.u64("wire.persist.offset")? as usize,
            needed: d.u64("wire.persist.needed")? as usize,
            available: d.u64("wire.persist.available")? as usize,
        },
        PERSIST_CRC => PersistError::CrcMismatch {
            what: d.str("wire.persist.what")?,
            offset: d.u64("wire.persist.offset")? as usize,
            expected: d.u32("wire.persist.expected")?,
            actual: d.u32("wire.persist.actual")?,
        },
        PERSIST_MALFORMED => PersistError::Malformed {
            what: d.str("wire.persist.what")?,
        },
        other => return Err(malformed(format!("wire: unknown persist tag {other}"))),
    })
}

fn enc_serve_error(e: &mut Enc, err: &ServeError) {
    match err {
        ServeError::Overloaded { capacity } => {
            e.u8(ERR_OVERLOADED);
            e.u64(*capacity as u64);
        }
        ServeError::DeadlineExceeded => e.u8(ERR_DEADLINE),
        ServeError::Rejected { reason } => {
            e.u8(ERR_REJECTED);
            e.str(reason);
        }
        ServeError::Failed { reason } => {
            e.u8(ERR_FAILED);
            e.str(reason);
        }
        ServeError::WorkerLost => e.u8(ERR_WORKER_LOST),
        ServeError::ShuttingDown => e.u8(ERR_SHUTTING_DOWN),
        ServeError::Persist { error } => {
            e.u8(ERR_PERSIST);
            enc_persist_error(e, error);
        }
        ServeError::WrongEpoch { got, current } => {
            e.u8(ERR_WRONG_EPOCH);
            e.u64(*got);
            e.u64(*current);
        }
        ServeError::NotOwner { shard } => {
            e.u8(ERR_NOT_OWNER);
            e.u32(*shard);
        }
    }
}

fn dec_serve_error(d: &mut Dec<'_>) -> Result<ServeError, PersistError> {
    let tag = d.u8("wire.error.tag")?;
    Ok(match tag {
        ERR_OVERLOADED => ServeError::Overloaded {
            capacity: d.u64("wire.error.capacity")? as usize,
        },
        ERR_DEADLINE => ServeError::DeadlineExceeded,
        ERR_REJECTED => ServeError::Rejected {
            reason: d.str("wire.error.reason")?,
        },
        ERR_FAILED => ServeError::Failed {
            reason: d.str("wire.error.reason")?,
        },
        ERR_WORKER_LOST => ServeError::WorkerLost,
        ERR_SHUTTING_DOWN => ServeError::ShuttingDown,
        ERR_PERSIST => ServeError::Persist {
            error: dec_persist_error(d)?,
        },
        ERR_WRONG_EPOCH => ServeError::WrongEpoch {
            got: d.u64("wire.error.got")?,
            current: d.u64("wire.error.current")?,
        },
        ERR_NOT_OWNER => ServeError::NotOwner {
            shard: d.u32("wire.error.shard")?,
        },
        other => return Err(malformed(format!("wire: unknown error tag {other}"))),
    })
}

fn enc_outcome(e: &mut Enc, outcome: &WireOutcome) {
    match outcome {
        WireOutcome::Ok(r) => {
            e.u8(OUTCOME_OK);
            enc_response(e, r);
        }
        WireOutcome::Err(err) => {
            e.u8(OUTCOME_ERR);
            enc_serve_error(e, err);
        }
        WireOutcome::Busy => e.u8(OUTCOME_BUSY),
    }
}

fn dec_outcome(d: &mut Dec<'_>) -> Result<WireOutcome, PersistError> {
    Ok(match d.u8("wire.result.outcome")? {
        OUTCOME_OK => WireOutcome::Ok(dec_response(d)?),
        OUTCOME_ERR => WireOutcome::Err(dec_serve_error(d)?),
        OUTCOME_BUSY => WireOutcome::Busy,
        other => return Err(malformed(format!("wire: unknown outcome tag {other}"))),
    })
}

fn enc_blob(e: &mut Enc, bytes: &[u8]) {
    e.u32(bytes.len() as u32);
    for &b in bytes {
        e.u8(b);
    }
}

fn dec_blob(d: &mut Dec<'_>, what: &str) -> Result<Vec<u8>, PersistError> {
    let n = d.u32(what)? as usize;
    if n > MAX_FRAME {
        return Err(malformed(format!(
            "wire: {what} blob length {n} exceeds the {MAX_FRAME}-byte bound"
        )));
    }
    let mut bytes = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        bytes.push(d.u8(what)?);
    }
    Ok(bytes)
}

impl ClientMsg {
    /// Encodes the message payload (opcode byte onward, no frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            ClientMsg::Submit {
                client_id,
                seq,
                acked_floor,
                deadline_millis,
                shard,
                map_epoch,
                request,
            } => {
                e.u8(OP_SUBMIT);
                e.u64(*client_id);
                e.u64(*seq);
                e.u64(*acked_floor);
                match deadline_millis {
                    Some(ms) => {
                        e.u8(1);
                        e.u64(*ms);
                    }
                    None => {
                        e.u8(0);
                        e.u64(0);
                    }
                }
                e.u32(*shard);
                e.u64(*map_epoch);
                // Priority is not carried: remote traffic is all Normal
                // (the lanes already order by kind; a remote peer must not
                // starve local High submitters).
                e.u8(Priority::Normal as u8);
                request.encode(&mut e);
            }
            ClientMsg::Health => e.u8(OP_HEALTH),
            ClientMsg::Shutdown => e.u8(OP_SHUTDOWN),
            ClientMsg::InstallMap { map, you_are } => {
                e.u8(OP_INSTALL_MAP);
                e.u32(*you_are);
                enc_blob(&mut e, &map.encode());
            }
            ClientMsg::FreezeShard { shard, freeze } => {
                e.u8(OP_FREEZE_SHARD);
                e.u32(*shard);
                e.u8(*freeze as u8);
            }
            ClientMsg::ExtractShard { shard } => {
                e.u8(OP_EXTRACT_SHARD);
                e.u32(*shard);
            }
            ClientMsg::InstallShard { image } => {
                e.u8(OP_INSTALL_SHARD);
                enc_blob(&mut e, image);
            }
            ClientMsg::GetMap => e.u8(OP_GET_MAP),
        }
        e.into_bytes()
    }

    /// Decodes a payload; every defect is a typed
    /// [`PersistError::Malformed`].
    pub fn decode(payload: &[u8]) -> Result<Self, PersistError> {
        let mut d = Dec::new(payload);
        let op = d.u8("wire.client.op")?;
        let msg = match op {
            OP_SUBMIT => {
                let client_id = d.u64("wire.submit.client_id")?;
                let seq = d.u64("wire.submit.seq")?;
                let acked_floor = d.u64("wire.submit.acked_floor")?;
                let has_deadline = d.u8("wire.submit.has_deadline")? != 0;
                let millis = d.u64("wire.submit.deadline_millis")?;
                let shard = d.u32("wire.submit.shard")?;
                let map_epoch = d.u64("wire.submit.map_epoch")?;
                let _priority = Priority::from_tag(d.u8("wire.submit.priority")?)?;
                let request = Request::decode(&mut d)?;
                ClientMsg::Submit {
                    client_id,
                    seq,
                    acked_floor,
                    deadline_millis: has_deadline.then_some(millis),
                    shard,
                    map_epoch,
                    request,
                }
            }
            OP_HEALTH => ClientMsg::Health,
            OP_SHUTDOWN => ClientMsg::Shutdown,
            OP_INSTALL_MAP => {
                let you_are = d.u32("wire.install_map.you_are")?;
                let bytes = dec_blob(&mut d, "wire.install_map.map")?;
                ClientMsg::InstallMap {
                    map: ShardMap::decode(&bytes)?,
                    you_are,
                }
            }
            OP_FREEZE_SHARD => ClientMsg::FreezeShard {
                shard: d.u32("wire.freeze.shard")?,
                freeze: d.u8("wire.freeze.flag")? != 0,
            },
            OP_EXTRACT_SHARD => ClientMsg::ExtractShard {
                shard: d.u32("wire.extract.shard")?,
            },
            OP_INSTALL_SHARD => ClientMsg::InstallShard {
                image: dec_blob(&mut d, "wire.install_shard.image")?,
            },
            OP_GET_MAP => ClientMsg::GetMap,
            other => return Err(malformed(format!("wire: unknown client op {other}"))),
        };
        d.finish("wire.client message")?;
        Ok(msg)
    }
}

impl ServerMsg {
    /// Encodes the message payload (opcode byte onward, no frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            ServerMsg::Result { seq, outcome } => {
                e.u8(OP_RESULT);
                e.u64(*seq);
                enc_outcome(&mut e, outcome);
            }
            ServerMsg::Health { counters } => {
                e.u8(OP_HEALTH_OK);
                e.u32(counters.len() as u32);
                for (name, value) in counters {
                    e.str(name);
                    e.u64(*value);
                }
            }
            ServerMsg::WireRefused { what } => {
                e.u8(OP_WIRE_REFUSED);
                e.str(what);
            }
            ServerMsg::ShutdownAck => e.u8(OP_SHUTDOWN_ACK),
            ServerMsg::Map { map } => {
                e.u8(OP_MAP);
                match map {
                    Some(m) => {
                        e.u8(1);
                        enc_blob(&mut e, &m.encode());
                    }
                    None => e.u8(0),
                }
            }
            ServerMsg::ShardImage { image } => {
                e.u8(OP_SHARD_IMAGE);
                enc_blob(&mut e, image);
            }
            ServerMsg::AdminOk => e.u8(OP_ADMIN_OK),
            ServerMsg::AdminErr { what } => {
                e.u8(OP_ADMIN_ERR);
                e.str(what);
            }
        }
        e.into_bytes()
    }

    /// Decodes a payload; every defect is a typed
    /// [`PersistError::Malformed`].
    pub fn decode(payload: &[u8]) -> Result<Self, PersistError> {
        let mut d = Dec::new(payload);
        let op = d.u8("wire.server.op")?;
        let msg = match op {
            OP_RESULT => {
                let seq = d.u64("wire.result.seq")?;
                let outcome = dec_outcome(&mut d)?;
                ServerMsg::Result { seq, outcome }
            }
            OP_HEALTH_OK => {
                let n = d.u32("wire.health.len")? as usize;
                let mut counters = Vec::with_capacity(n.min(256));
                for _ in 0..n {
                    let name = d.str("wire.health.name")?;
                    let value = d.u64("wire.health.value")?;
                    counters.push((name, value));
                }
                ServerMsg::Health { counters }
            }
            OP_WIRE_REFUSED => ServerMsg::WireRefused {
                what: d.str("wire.refused.what")?,
            },
            OP_SHUTDOWN_ACK => ServerMsg::ShutdownAck,
            OP_MAP => {
                let has = d.u8("wire.map.has")? != 0;
                let map = if has {
                    let bytes = dec_blob(&mut d, "wire.map.bytes")?;
                    Some(ShardMap::decode(&bytes)?)
                } else {
                    None
                };
                ServerMsg::Map { map }
            }
            OP_SHARD_IMAGE => ServerMsg::ShardImage {
                image: dec_blob(&mut d, "wire.shard_image.bytes")?,
            },
            OP_ADMIN_OK => ServerMsg::AdminOk,
            OP_ADMIN_ERR => ServerMsg::AdminErr {
                what: d.str("wire.admin_err.what")?,
            },
            other => return Err(malformed(format!("wire: unknown server op {other}"))),
        };
        d.finish("wire.server message")?;
        Ok(msg)
    }
}

/// Frames `payload` for the wire: the identical header the durable
/// artifacts use ([`fol_persist::frame::push_frame`]).
pub fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    fol_persist::frame::push_frame(&mut out, payload);
    out
}

/// Reads exactly one frame from `stream` and returns its CRC-verified
/// payload, or `Ok(None)` on a clean EOF *at a frame boundary*.
///
/// Failure typing mirrors the durable reader: EOF mid-frame is
/// [`PersistError::Truncated`] (a torn frame — the peer died or injected a
/// half-open mid-write), a CRC disagreement is
/// [`PersistError::CrcMismatch`], and a length prefix past [`MAX_FRAME`] is
/// [`PersistError::Malformed`]. I/O errors (including read timeouts) pass
/// through as `Err(Ok(io))` via the nested result so the caller can
/// distinguish transport failure from frame corruption.
pub fn read_frame(
    stream: &mut impl Read,
    context: &str,
) -> Result<Option<Vec<u8>>, ReadFrameError> {
    let mut header = [0u8; 8];
    match read_full(stream, &mut header) {
        ReadFull::Eof(0) => return Ok(None),
        ReadFull::Eof(got) => {
            return Err(ReadFrameError::Frame(PersistError::Truncated {
                what: format!("{context}: frame header"),
                offset: 0,
                needed: 8,
                available: got,
            }))
        }
        ReadFull::Io { error, got } => {
            return Err(ReadFrameError::Io {
                error,
                mid_frame: got > 0,
            })
        }
        ReadFull::Done => {}
    }
    let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(header[4..].try_into().unwrap());
    if len > MAX_FRAME {
        return Err(ReadFrameError::Frame(PersistError::Malformed {
            what: format!("{context}: frame length {len} exceeds the {MAX_FRAME}-byte bound"),
        }));
    }
    let mut payload = vec![0u8; len];
    match read_full(stream, &mut payload) {
        ReadFull::Eof(got) => {
            return Err(ReadFrameError::Frame(PersistError::Truncated {
                what: format!("{context}: frame payload"),
                offset: 8,
                needed: len,
                available: got,
            }))
        }
        ReadFull::Io { error, .. } => {
            return Err(ReadFrameError::Io {
                error,
                mid_frame: true,
            })
        }
        ReadFull::Done => {}
    }
    let actual = crc32(&payload);
    if actual != crc {
        return Err(ReadFrameError::Frame(PersistError::CrcMismatch {
            what: context.to_string(),
            offset: 0,
            expected: crc,
            actual,
        }));
    }
    Ok(Some(payload))
}

/// Why [`read_frame`] failed: transport versus frame integrity.
#[derive(Debug)]
pub enum ReadFrameError {
    /// The operating system refused the read (timeout, reset, ...).
    Io {
        /// The underlying error.
        error: std::io::Error,
        /// Whether part of a frame had already been read: a timeout at a
        /// frame boundary is an idle connection (benign); a timeout
        /// mid-frame means the peer stalled and the stream is desynced.
        mid_frame: bool,
    },
    /// The bytes arrived but the frame is defective (typed).
    Frame(PersistError),
}

enum ReadFull {
    Done,
    /// EOF after this many bytes of the wanted buffer.
    Eof(usize),
    Io {
        error: std::io::Error,
        got: usize,
    },
}

fn read_full(stream: &mut impl Read, buf: &mut [u8]) -> ReadFull {
    let mut got = 0;
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) => return ReadFull::Eof(got),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(error) => return ReadFull::Io { error, got },
        }
    }
    ReadFull::Done
}

#[cfg(test)]
mod tests {
    use super::*;
    use fol_serve::{WorkloadClass, NO_SHARD};

    #[test]
    fn client_and_server_messages_round_trip() {
        let map = ShardMap::build(vec!["a:1".into(), "b:2".into()], 16, 32, 1);
        let msgs = vec![
            ClientMsg::Submit {
                client_id: 9,
                seq: 42,
                acked_floor: 40,
                deadline_millis: Some(250),
                shard: NO_SHARD,
                map_epoch: 0,
                request: Request::ChainInsert { keys: vec![1, -2] },
            },
            ClientMsg::Submit {
                client_id: 9,
                seq: 43,
                acked_floor: 40,
                deadline_millis: None,
                shard: 5,
                map_epoch: 3,
                request: Request::ShardDigest {
                    class: WorkloadClass::Bst,
                    shards: 16,
                    shard: 5,
                },
            },
            ClientMsg::Health,
            ClientMsg::Shutdown,
            ClientMsg::InstallMap {
                map: map.clone(),
                you_are: 1,
            },
            ClientMsg::FreezeShard {
                shard: 3,
                freeze: true,
            },
            ClientMsg::ExtractShard { shard: 3 },
            ClientMsg::InstallShard {
                image: vec![1, 2, 3, 4],
            },
            ClientMsg::GetMap,
        ];
        for m in msgs {
            assert_eq!(ClientMsg::decode(&m.encode()).unwrap(), m);
        }
        let msgs = vec![
            ServerMsg::Result {
                seq: 42,
                outcome: WireOutcome::Ok(Response::OaLookedUp {
                    found: vec![true, false],
                }),
            },
            ServerMsg::Result {
                seq: 7,
                outcome: WireOutcome::Err(ServeError::Persist {
                    error: PersistError::CrcMismatch {
                        what: "wal".into(),
                        offset: 16,
                        expected: 1,
                        actual: 2,
                    },
                }),
            },
            ServerMsg::Result {
                seq: 8,
                outcome: WireOutcome::Busy,
            },
            ServerMsg::Health {
                counters: vec![("submitted".into(), 3), ("completed".into(), 3)],
            },
            ServerMsg::Result {
                seq: 11,
                outcome: WireOutcome::Err(ServeError::WrongEpoch { got: 2, current: 3 }),
            },
            ServerMsg::Result {
                seq: 12,
                outcome: WireOutcome::Err(ServeError::NotOwner { shard: 7 }),
            },
            ServerMsg::Result {
                seq: 13,
                outcome: WireOutcome::Ok(Response::Keys { keys: vec![4, -9] }),
            },
            ServerMsg::WireRefused {
                what: "crc mismatch".into(),
            },
            ServerMsg::ShutdownAck,
            ServerMsg::Map { map: None },
            ServerMsg::Map { map: Some(map) },
            ServerMsg::ShardImage {
                image: vec![9, 9, 9],
            },
            ServerMsg::AdminOk,
            ServerMsg::AdminErr {
                what: "shard 3 is not frozen".into(),
            },
        ];
        for m in msgs {
            assert_eq!(ServerMsg::decode(&m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn oversized_length_prefix_is_refused_before_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let err = read_frame(&mut &bytes[..], "t").unwrap_err();
        assert!(
            matches!(err, ReadFrameError::Frame(PersistError::Malformed { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn torn_and_flipped_frames_are_distinct_typed_defects() {
        let framed = frame_bytes(&ClientMsg::Health.encode());
        // Clean EOF at the boundary.
        assert!(read_frame(&mut &framed[..0], "t").unwrap().is_none());
        // Torn mid-header and mid-payload.
        for cut in [3, framed.len() - 1] {
            let err = read_frame(&mut &framed[..cut], "t").unwrap_err();
            assert!(
                matches!(err, ReadFrameError::Frame(PersistError::Truncated { .. })),
                "cut at {cut}: {err:?}"
            );
        }
        // Flipped payload byte.
        let mut flipped = framed.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x10;
        let err = read_frame(&mut &flipped[..], "t").unwrap_err();
        assert!(
            matches!(err, ReadFrameError::Frame(PersistError::CrcMismatch { .. })),
            "{err:?}"
        );
    }
}
