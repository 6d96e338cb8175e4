//! The deadline-aware retrying client.
//!
//! A [`NetClient`] owns one connection (rebuilt on demand), a monotonically
//! increasing request sequence, and a [`Backoff`]. Every call runs a retry
//! ladder under a single client-side deadline:
//!
//! * **retryable** failures — connect refused, reset, read/write timeout,
//!   a torn or CRC-bad frame in either direction, a peer refusal, server
//!   overload, a lost worker, a duplicate-in-flight [`WireOutcome::Busy`] —
//!   are retried on a fresh connection after a capped, seeded-jitter
//!   backoff delay;
//! * **terminal** failures — typed rejections, server-side deadline
//!   expiry, transaction failure, shutdown, persistence refusals, and the
//!   client deadline itself running out — surface immediately as
//!   [`NetError`].
//!
//! Re-submission is **idempotent by sequence number**: a retry carries the
//! same `(client_id, seq)` pair as the attempt it replaces, and the
//! server's dedupe table replays the recorded outcome instead of
//! re-executing — a request acknowledged once is applied exactly once, no
//! matter how many retries the wire faults forced. Batched calls
//! ([`NetClient::call_many`]) write every unresolved submit before reading
//! any result, which hands the remote scheduler a full coalescing window.

use crate::fault::{FaultedWriter, WireFaultPlan};
use crate::shard::ShardMap;
use crate::wire::{frame_bytes, read_frame, ClientMsg, ReadFrameError, ServerMsg, WireOutcome};
use crate::{Backoff, NetError};
use fol_serve::{Request, Response, ServeError, NO_SHARD};
use std::collections::BTreeSet;
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Client tuning.
#[derive(Clone, Debug)]
pub struct NetClientConfig {
    /// Stable identity for the server's dedupe table. Two clients sharing
    /// an id would collide on sequence numbers; give each its own.
    pub client_id: u64,
    /// TCP connect timeout per attempt.
    pub connect_timeout: Duration,
    /// Per-read/write socket timeout within an attempt.
    pub io_timeout: Duration,
    /// Overall deadline for one [`NetClient::call`] /
    /// [`NetClient::call_many`], across every retry.
    pub call_deadline: Duration,
    /// Inter-attempt spacing: capped exponential with seeded jitter.
    pub backoff: Backoff,
    /// Seeded fault injection on this client's request writes (chaos
    /// testing; `None` in production).
    pub fault_plan: Option<WireFaultPlan>,
}

impl Default for NetClientConfig {
    fn default() -> Self {
        NetClientConfig {
            client_id: 1,
            connect_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_millis(500),
            call_deadline: Duration::from_secs(10),
            backoff: Backoff::new(Duration::from_micros(200), Duration::from_millis(20), 0xF01),
            fault_plan: None,
        }
    }
}

struct Conn {
    stream: TcpStream,
    /// Buffered read half (a `try_clone` of `stream`): a pipelined burst
    /// of response frames costs one syscall, not two per frame.
    reader: std::io::BufReader<TcpStream>,
    writer: FaultedWriter,
}

/// A client for one serving endpoint. Not `Sync`: one client, one caller.
pub struct NetClient {
    addr: String,
    cfg: NetClientConfig,
    conn: Option<Conn>,
    /// Connections opened so far; each gets a fresh fault stream.
    streams: u64,
    next_seq: u64,
    /// Sequences with a known terminal outcome, for the acked floor.
    acked: BTreeSet<u64>,
    /// Every `seq < acked_floor` has a known outcome; sent with each
    /// submit so the server can prune its dedupe entries.
    acked_floor: u64,
    /// The shard-map epoch stamped on untagged submits. `0` (the default)
    /// together with [`NO_SHARD`] means "standalone client, no map".
    map_epoch: u64,
}

/// How one attempt left a request.
enum Slot {
    /// Not yet answered this attempt.
    Pending,
    /// Answered retryably; try again next attempt.
    Retry,
    /// Final outcome.
    Done(Result<Response, NetError>),
}

impl NetClient {
    /// A client for `addr` (e.g. `"127.0.0.1:4711"`). No I/O happens until
    /// the first call.
    pub fn new(addr: impl Into<String>, cfg: NetClientConfig) -> Self {
        NetClient {
            addr: addr.into(),
            cfg,
            conn: None,
            streams: 0,
            next_seq: 0,
            acked: BTreeSet::new(),
            acked_floor: 0,
            map_epoch: 0,
        }
    }

    /// The configured client identity.
    pub fn client_id(&self) -> u64 {
        self.cfg.client_id
    }

    /// Stamps every subsequent untagged submit with `epoch`. The server
    /// refuses mismatches typed; `0` restores the standalone default.
    pub fn set_map_epoch(&mut self, epoch: u64) {
        self.map_epoch = epoch;
    }

    /// Submits one request and retries until a terminal outcome or the
    /// call deadline.
    pub fn call(&mut self, request: Request) -> Result<Response, NetError> {
        self.call_many(std::slice::from_ref(&request))
            .pop()
            .expect("one request, one outcome")
    }

    /// Submits a batch, pipelined: every unresolved submit is written
    /// before any result is read, so the remote scheduler sees the whole
    /// batch at once. Returns one outcome per request, in order.
    pub fn call_many(&mut self, requests: &[Request]) -> Vec<Result<Response, NetError>> {
        let tagged: Vec<(Request, u32)> = requests.iter().map(|r| (r.clone(), NO_SHARD)).collect();
        self.call_many_tagged(&tagged, self.map_epoch)
    }

    /// [`NetClient::call_many`] with an explicit shard tag per request and
    /// a map epoch stamped on the whole batch — the cluster router's entry
    /// point. Typed `WrongEpoch`/`NotOwner` refusals are terminal here (the
    /// *map* is wrong, not the wire); the router refreshes and re-routes.
    pub fn call_many_tagged(
        &mut self,
        requests: &[(Request, u32)],
        epoch: u64,
    ) -> Vec<Result<Response, NetError>> {
        if requests.is_empty() {
            return Vec::new();
        }
        let deadline = Instant::now() + self.cfg.call_deadline;
        let seqs: Vec<u64> = requests
            .iter()
            .map(|_| {
                let s = self.next_seq;
                self.next_seq += 1;
                s
            })
            .collect();
        let mut slots: Vec<Slot> = requests.iter().map(|_| Slot::Retry).collect();
        let mut backoff = self.cfg.backoff.clone();
        backoff.reset();
        let mut attempts = 0u32;
        loop {
            let unresolved: Vec<usize> = slots
                .iter()
                .enumerate()
                .filter(|(_, s)| !matches!(s, Slot::Done(_)))
                .map(|(i, _)| i)
                .collect();
            if unresolved.is_empty() {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                for i in unresolved {
                    slots[i] = Slot::Done(Err(NetError::Deadline { attempts }));
                }
                break;
            }
            if attempts > 0 {
                let delay = backoff.next_delay().min(deadline - now);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
            }
            attempts += 1;
            self.attempt(requests, epoch, &seqs, &mut slots, deadline);
        }
        // Every outcome is now known; advance the acknowledged floor.
        for &s in &seqs {
            self.acked.insert(s);
        }
        while self.acked.remove(&self.acked_floor) {
            self.acked_floor += 1;
        }
        slots
            .into_iter()
            .map(|s| match s {
                Slot::Done(r) => r,
                _ => unreachable!("loop exits only when every slot is done"),
            })
            .collect()
    }

    /// The server's health counters, answered at its network layer even
    /// under full admission saturation. Single attempt per retry rung.
    pub fn health(&mut self) -> Result<Vec<(String, u64)>, NetError> {
        self.simple_roundtrip(&ClientMsg::Health, |msg| match msg {
            ServerMsg::Health { counters } => Some(Ok(counters)),
            _ => None,
        })
    }

    /// Asks the serving process to drain and shut down; resolves when the
    /// server acknowledges.
    pub fn request_shutdown(&mut self) -> Result<(), NetError> {
        self.simple_roundtrip(&ClientMsg::Shutdown, |msg| match msg {
            ServerMsg::ShutdownAck => Some(Ok(())),
            _ => None,
        })
    }

    /// Convenience: the remote content digest of `class`.
    pub fn digest(&mut self, class: fol_serve::WorkloadClass) -> Result<(u64, u64), NetError> {
        match self.call(Request::Digest { class })? {
            Response::ClassDigest { digest, count } => Ok((digest, count)),
            other => Err(NetError::Frame(fol_persist::PersistError::Malformed {
                what: format!("digest request answered with {other:?}"),
            })),
        }
    }

    /// Fetches the server's installed shard map (`None` when it has never
    /// been handed one — e.g. freshly restarted).
    pub fn fetch_map(&mut self) -> Result<Option<ShardMap>, NetError> {
        self.simple_roundtrip(&ClientMsg::GetMap, |msg| match msg {
            ServerMsg::Map { map } => Some(Ok(map)),
            _ => None,
        })
    }

    /// Installs a shard map on the server, telling it which member of the
    /// map's node list it is. Idempotent: re-installing the same epoch is a
    /// no-op ack.
    pub fn install_map(&mut self, map: &ShardMap, you_are: u32) -> Result<(), NetError> {
        let msg = ClientMsg::InstallMap {
            map: map.clone(),
            you_are,
        };
        self.simple_roundtrip(&msg, admin_ack)
    }

    /// Freezes (or unfreezes) one shard on the server for a rebalance.
    pub fn freeze_shard(&mut self, shard: u32, freeze: bool) -> Result<(), NetError> {
        self.simple_roundtrip(&ClientMsg::FreezeShard { shard, freeze }, admin_ack)
    }

    /// Extracts a frozen, drained shard as encoded handoff-image bytes.
    /// Read-only on the server, so retries are safe.
    pub fn extract_shard(&mut self, shard: u32) -> Result<Vec<u8>, NetError> {
        self.simple_roundtrip(&ClientMsg::ExtractShard { shard }, |msg| match msg {
            ServerMsg::ShardImage { image } => Some(Ok(image)),
            ServerMsg::AdminErr { what } => {
                Some(Err(NetError::Serve(ServeError::Rejected { reason: what })))
            }
            _ => None,
        })
    }

    /// Installs handoff-image bytes on the server. The server digest-checks
    /// before and after touching its structures, which also makes a retry
    /// after a lost ack an idempotent skip.
    pub fn install_shard(&mut self, image: Vec<u8>) -> Result<(), NetError> {
        self.simple_roundtrip(&ClientMsg::InstallShard { image }, admin_ack)
    }

    fn simple_roundtrip<T>(
        &mut self,
        msg: &ClientMsg,
        mut accept: impl FnMut(ServerMsg) -> Option<Result<T, NetError>>,
    ) -> Result<T, NetError> {
        let deadline = Instant::now() + self.cfg.call_deadline;
        let mut backoff = self.cfg.backoff.clone();
        backoff.reset();
        let mut attempts = 0u32;
        let mut last_err: Option<NetError> = None;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(last_err.unwrap_or(NetError::Deadline { attempts }));
            }
            if attempts > 0 {
                let delay = backoff.next_delay().min(deadline - now);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
            }
            attempts += 1;
            match self.roundtrip_once(msg, &mut accept) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_retryable() => last_err = Some(e),
                Err(e) => return Err(e),
            }
        }
    }

    fn roundtrip_once<T>(
        &mut self,
        msg: &ClientMsg,
        accept: &mut impl FnMut(ServerMsg) -> Option<Result<T, NetError>>,
    ) -> Result<T, NetError> {
        self.ensure_connected()?;
        if let Err(e) = self.send_payloads(&[msg.encode()]) {
            self.conn = None;
            return Err(e);
        }
        loop {
            match self.read_msg() {
                Ok(m) => {
                    if let Some(v) = accept(m) {
                        if v.is_err() {
                            self.conn = None;
                        }
                        return v;
                    }
                    // A stale Result from an earlier call: skip it.
                }
                Err(e) => {
                    self.conn = None;
                    return Err(e);
                }
            }
        }
    }

    /// One wire attempt over the unresolved slots: (re)connect, write every
    /// unresolved submit, then read results until all are answered or the
    /// connection gives out. Transport failures mark the remainder
    /// [`Slot::Retry`].
    fn attempt(
        &mut self,
        requests: &[(Request, u32)],
        epoch: u64,
        seqs: &[u64],
        slots: &mut [Slot],
        deadline: Instant,
    ) {
        if self.ensure_connected().is_err() {
            return; // every non-done slot keeps its Retry state
        }
        let mut payloads = Vec::new();
        let remaining = deadline.saturating_duration_since(Instant::now());
        for (i, slot) in slots.iter_mut().enumerate() {
            if matches!(slot, Slot::Done(_)) {
                continue;
            }
            *slot = Slot::Pending;
            payloads.push(
                ClientMsg::Submit {
                    client_id: self.cfg.client_id,
                    seq: seqs[i],
                    acked_floor: self.acked_floor,
                    deadline_millis: Some(remaining.as_millis().max(1) as u64),
                    shard: requests[i].1,
                    map_epoch: epoch,
                    request: requests[i].0.clone(),
                }
                .encode(),
            );
        }
        if let Err(_e) = self.send_payloads(&payloads) {
            self.conn = None;
            mark_pending_retry(slots);
            return;
        }
        // Read until every pending slot is answered (or the stream fails).
        while slots.iter().any(|s| matches!(s, Slot::Pending)) {
            if Instant::now() >= deadline {
                mark_pending_retry(slots);
                return;
            }
            match self.read_msg() {
                Ok(ServerMsg::Result { seq, outcome }) => {
                    let Some(i) = seqs.iter().position(|&s| s == seq) else {
                        continue; // duplicate of an earlier call's result
                    };
                    if matches!(slots[i], Slot::Done(_)) {
                        continue; // duplicated frame for a resolved slot
                    }
                    slots[i] = match outcome {
                        WireOutcome::Ok(r) => Slot::Done(Ok(r)),
                        WireOutcome::Busy => Slot::Retry,
                        WireOutcome::Err(e) => {
                            let net = NetError::Serve(e);
                            if net.is_retryable() {
                                Slot::Retry
                            } else {
                                Slot::Done(Err(net))
                            }
                        }
                    };
                }
                Ok(_) => continue, // stray health/ack frame: ignore
                Err(_e) => {
                    self.conn = None;
                    mark_pending_retry(slots);
                    return;
                }
            }
        }
    }

    fn ensure_connected(&mut self) -> Result<(), NetError> {
        if self.conn.is_some() {
            return Ok(());
        }
        let addrs: Vec<SocketAddr> = self
            .addr
            .to_socket_addrs()
            .map_err(|e| NetError::io("resolving the server address", &e))?
            .collect();
        let mut last = None;
        for addr in addrs {
            match TcpStream::connect_timeout(&addr, self.cfg.connect_timeout) {
                Ok(stream) => {
                    let _ = stream.set_read_timeout(Some(self.cfg.io_timeout));
                    let _ = stream.set_write_timeout(Some(self.cfg.io_timeout));
                    let _ = stream.set_nodelay(true);
                    let read_half = match stream.try_clone() {
                        Ok(s) => s,
                        Err(e) => {
                            last = Some(e);
                            continue;
                        }
                    };
                    let stream_index = self.streams;
                    self.streams += 1;
                    self.conn = Some(Conn {
                        stream,
                        reader: std::io::BufReader::new(read_half),
                        writer: FaultedWriter::for_stream(
                            self.cfg.fault_plan.clone(),
                            stream_index,
                        ),
                    });
                    return Ok(());
                }
                Err(e) => last = Some(e),
            }
        }
        Err(match last {
            Some(e) => NetError::io("connecting", &e),
            None => NetError::Io {
                what: "resolving the server address".into(),
                error: "no addresses".into(),
            },
        })
    }

    /// Writes every payload as one buffered burst (one syscall in the
    /// common case), applying the fault plan per frame.
    fn send_payloads(&mut self, payloads: &[Vec<u8>]) -> Result<(), NetError> {
        let conn = self.conn.as_mut().expect("connected");
        let mut buf: Vec<u8> = Vec::new();
        let mut intact = true;
        for payload in payloads {
            let framed = frame_bytes(payload);
            match conn.writer.render_frame(&framed, &mut buf) {
                Ok(true) => {}
                Ok(false) => {
                    intact = false;
                    break;
                }
                Err(e) => return Err(NetError::io("writing requests", &e)),
            }
        }
        let r = conn
            .stream
            .write_all(&buf)
            .and_then(|()| conn.stream.flush());
        if let Err(e) = r {
            return Err(NetError::io("writing requests", &e));
        }
        if !intact {
            let _ = conn.stream.shutdown(Shutdown::Write);
            return Err(NetError::Io {
                what: "writing requests".into(),
                error: "connection torn by fault plan".into(),
            });
        }
        Ok(())
    }

    fn read_msg(&mut self) -> Result<ServerMsg, NetError> {
        let conn = self.conn.as_mut().expect("connected");
        match read_frame(&mut conn.reader, "wire response") {
            Ok(Some(payload)) => match ServerMsg::decode(&payload) {
                Ok(ServerMsg::WireRefused { what }) => Err(NetError::PeerRefused { what }),
                Ok(msg) => Ok(msg),
                Err(defect) => Err(NetError::Frame(defect)),
            },
            Ok(None) => Err(NetError::Io {
                what: "reading a response".into(),
                error: "connection closed".into(),
            }),
            Err(ReadFrameError::Io { error, .. }) => {
                let what = if matches!(error.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                    "response read deadline"
                } else {
                    "reading a response"
                };
                Err(NetError::io(what, &error))
            }
            Err(ReadFrameError::Frame(defect)) => Err(NetError::Frame(defect)),
        }
    }
}

/// Accepts an admin ack: `AdminOk` succeeds, `AdminErr` is a terminal
/// typed rejection (the op was refused, not lost).
fn admin_ack(msg: ServerMsg) -> Option<Result<(), NetError>> {
    match msg {
        ServerMsg::AdminOk => Some(Ok(())),
        ServerMsg::AdminErr { what } => {
            Some(Err(NetError::Serve(ServeError::Rejected { reason: what })))
        }
        _ => None,
    }
}

fn mark_pending_retry(slots: &mut [Slot]) {
    for s in slots.iter_mut() {
        if matches!(s, Slot::Pending) {
            *s = Slot::Retry;
        }
    }
}
