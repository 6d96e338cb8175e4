//! The threaded TCP front-end over [`fol_serve::Server`].
//!
//! One accept thread; per connection, a **reader** thread (decodes frames,
//! runs net-layer admission and dedupe, submits to the serving layer) and a
//! **writer** thread (waits tickets in submission order and writes results
//! back). The split pipelines: a client that streams many submits before
//! reading results hands the coalescing scheduler a full batch, which is
//! what the wire protocol must preserve for remote throughput to stay near
//! in-process throughput.
//!
//! Guarantees, mirrored from the in-process layer:
//!
//! * **typed outcomes** — every decodable submit is answered with a
//!   [`ServerMsg::Result`]; a defective frame is answered (best-effort)
//!   with [`ServerMsg::WireRefused`] and the connection is closed, because
//!   a stream that tore once can no longer be trusted to be in sync;
//! * **bounded admission** — at most `max_in_flight` wire requests may be
//!   executing; past that the server answers a typed
//!   [`ServeError::Overloaded`] *without touching the queue*;
//! * **exactly-once re-submission** — outcomes are cached per
//!   `(client_id, seq)`; a retry of a completed request replays the cached
//!   outcome, a retry of a still-executing request gets
//!   [`WireOutcome::Busy`], and entries are pruned by the client's
//!   acknowledged floor;
//! * **health without admission** — [`ClientMsg::Health`] is answered by
//!   the reader thread straight from [`fol_serve::Server::stats`], so it
//!   works even when the queue and the in-flight bound are saturated;
//! * **graceful drain** — shutdown stops the accept loop, lets every
//!   already-submitted request complete and be written back, then drains
//!   the serving layer itself.

use crate::fault::{FaultedWriter, WireFaultPlan};
use crate::shard::ShardMap;
use crate::wire::{read_frame, ClientMsg, ReadFrameError, ServerMsg, WireOutcome};
use fol_persist::{HandoffDedupe, HandoffImage, HandoffSection};
use fol_serve::{
    keys_digest, Priority, Request, Response, ServeError, Server, ShutdownReport, Ticket,
    WorkloadClass,
};
use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for the network front-end.
#[derive(Clone, Debug)]
pub struct NetServerConfig {
    /// Address to bind, e.g. `"127.0.0.1:0"` (port 0 picks a free one —
    /// read it back from [`NetServer::local_addr`]).
    pub bind: String,
    /// Per-connection read deadline. At a frame boundary it is an idle
    /// poll tick (persistent connections may sit quiet); *mid-frame* it is
    /// a hard deadline — a peer that stalls half-way through a frame is
    /// torn down with a typed refusal, never waited on indefinitely.
    pub read_timeout: Duration,
    /// Per-connection write deadline.
    pub write_timeout: Duration,
    /// Bound on wire requests admitted but not yet answered, across all
    /// connections. Past it, submits get a typed
    /// [`ServeError::Overloaded`] without entering the queue.
    pub max_in_flight: usize,
    /// Seeded fault injection on the server's response writes (chaos
    /// testing; `None` in production).
    pub fault_plan: Option<WireFaultPlan>,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            bind: "127.0.0.1:0".into(),
            read_timeout: Duration::from_millis(100),
            write_timeout: Duration::from_secs(2),
            max_in_flight: 1024,
            fault_plan: None,
        }
    }
}

/// What the dedupe table knows about a `(client_id, seq)` pair.
enum Dedupe {
    /// Admitted, outcome not yet known.
    InFlight,
    /// Completed; replayed verbatim to retries.
    Done {
        /// The shard the request routed to: the ownership tag
        /// [`extract_shard`] uses to ship this entry inside the handoff
        /// image when the shard moves, so the client's retry replays on
        /// the new owner instead of hitting a `WrongEpoch` refusal.
        shard: u32,
        /// The cached outcome.
        outcome: WireOutcome,
    },
}

struct NetShared {
    server: Server,
    cfg: NetServerConfig,
    shutting_down: AtomicBool,
    /// Set when a peer sends [`ClientMsg::Shutdown`]; the embedding process
    /// polls [`NetServer::shutdown_requested`] and calls
    /// [`NetServer::shutdown`].
    shutdown_requested: AtomicBool,
    in_flight: AtomicUsize,
    /// Outcome cache keyed `(client_id, map_epoch, seq)`: the shard-map
    /// epoch is part of the identity, so a request re-routed under a new
    /// map after a rebalance is a *new* request, never answered with an
    /// outcome recorded under the old ownership.
    dedupe: Mutex<HashMap<(u64, u64, u64), Dedupe>>,
    /// Per-client acknowledged floor (highest seen), for dedupe pruning.
    floors: Mutex<HashMap<u64, u64>>,
    /// The installed shard map, if the coordinator has handed one over
    /// (served back on [`ClientMsg::GetMap`]).
    map: Mutex<Option<ShardMap>>,
    conns: Mutex<Vec<JoinHandle<()>>>,
}

impl NetShared {
    fn prune(&self, client_id: u64, acked_floor: u64) {
        let mut floors = self.floors.lock().unwrap_or_else(PoisonError::into_inner);
        let floor = floors.entry(client_id).or_insert(0);
        if acked_floor <= *floor {
            return;
        }
        *floor = acked_floor;
        // A client's seq space is monotonic across epochs, so the floor
        // prunes every epoch's entries below it.
        let mut dedupe = self.dedupe.lock().unwrap_or_else(PoisonError::into_inner);
        dedupe.retain(|&(cid, _epoch, seq), _| cid != client_id || seq >= acked_floor);
    }
}

/// A running TCP front-end; owns the [`fol_serve::Server`] behind it.
pub struct NetServer {
    local_addr: SocketAddr,
    shared: Arc<NetShared>,
    accept: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds, spawns the accept loop, and starts serving `server` over the
    /// wire.
    pub fn start(server: Server, cfg: NetServerConfig) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(&cfg.bind)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(NetShared {
            server,
            cfg,
            shutting_down: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            dedupe: Mutex::new(HashMap::new()),
            floors: Mutex::new(HashMap::new()),
            map: Mutex::new(None),
            conns: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("fol-net-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawn accept thread");
        Ok(NetServer {
            local_addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (with the real port when `bind` asked for 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The wrapped server's counters (same snapshot Health serves).
    pub fn stats(&self) -> fol_serve::StatsSnapshot {
        self.shared.server.stats()
    }

    /// True once a peer has asked for shutdown over the wire.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown_requested.load(Ordering::Acquire)
    }

    /// Graceful drain: stop accepting, let every admitted request complete
    /// and be answered, close connections, then drain the serving layer.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.shared.shutting_down.store(true, Ordering::Release);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let conns: Vec<JoinHandle<()>> = {
            let mut g = self
                .shared
                .conns
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            g.drain(..).collect()
        };
        for h in conns {
            let _ = h.join();
        }
        let shared = Arc::try_unwrap(self.shared)
            .unwrap_or_else(|_| panic!("a connection outlived the drain"));
        shared.server.shutdown()
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<NetShared>) {
    let mut accepted: u64 = 0;
    while !shared.shutting_down.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                let conn_shared = Arc::clone(&shared);
                let stream_index = accepted;
                accepted += 1;
                let handle = std::thread::Builder::new()
                    .name("fol-net-conn".into())
                    .spawn(move || serve_connection(stream, conn_shared, stream_index))
                    .expect("spawn connection thread");
                shared
                    .conns
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(handle);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// The write half of one connection: the socket plus the (possibly
/// faulting) framed writer, shared between the writer thread and the
/// reader's direct replies (health, cached outcomes, refusals).
struct OutHalf {
    stream: TcpStream,
    writer: FaultedWriter,
}

impl OutHalf {
    fn send(&mut self, msg: &ServerMsg) -> std::io::Result<bool> {
        let framed = crate::wire::frame_bytes(&msg.encode());
        self.writer.write_frame(&mut self.stream, &framed)
    }

    /// Sends a burst of messages as one buffered write (one syscall in the
    /// common case), applying the fault plan per frame.
    fn send_many(&mut self, msgs: &[ServerMsg]) -> std::io::Result<bool> {
        use std::io::Write as _;
        let mut buf: Vec<u8> = Vec::new();
        let mut intact = true;
        for msg in msgs {
            let framed = crate::wire::frame_bytes(&msg.encode());
            intact = self.writer.render_frame(&framed, &mut buf)?;
            if !intact {
                break;
            }
        }
        self.stream.write_all(&buf)?;
        if !intact {
            let _ = self.stream.flush();
            let _ = self.stream.shutdown(std::net::Shutdown::Write);
        }
        Ok(intact)
    }
}

/// What the reader hands the writer thread for one admitted request.
struct InFlightItem {
    client_id: u64,
    map_epoch: u64,
    seq: u64,
    shard: u32,
    ticket: Ticket,
}

/// An [`InFlightItem`] whose ticket has been waited.
struct FinishedItem {
    client_id: u64,
    map_epoch: u64,
    seq: u64,
    shard: u32,
}

fn serve_connection(stream: TcpStream, shared: Arc<NetShared>, stream_index: u64) {
    let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(write_stream) = stream.try_clone() else {
        return;
    };
    let out = Arc::new(Mutex::new(OutHalf {
        stream: write_stream,
        writer: FaultedWriter::for_stream(shared.cfg.fault_plan.clone(), stream_index),
    }));
    let (tx, rx) = channel::<InFlightItem>();
    let writer_shared = Arc::clone(&shared);
    let writer_out = Arc::clone(&out);
    let writer = std::thread::Builder::new()
        .name("fol-net-writer".into())
        .spawn(move || writer_loop(rx, writer_out, writer_shared))
        .expect("spawn connection writer");
    reader_loop(stream, &shared, &out, tx);
    // Dropping the sender lets the writer drain what was admitted, answer
    // it, and exit.
    let _ = writer.join();
}

fn reader_loop(
    stream: TcpStream,
    shared: &Arc<NetShared>,
    out: &Arc<Mutex<OutHalf>>,
    tx: Sender<InFlightItem>,
) {
    // Buffered reads: a pipelined burst of small frames costs one syscall,
    // not two per frame. Timeout semantics survive — the buffer only holds
    // bytes the socket already delivered.
    let mut stream = std::io::BufReader::new(stream);
    // Floor cache: clients resend their acked floor on every submit, but it
    // only moves between call batches. Caching the last value seen on this
    // connection keeps the floors/dedupe locks off the per-frame hot path.
    let mut floor_cache: HashMap<u64, u64> = HashMap::new();
    loop {
        if shared.shutting_down.load(Ordering::Acquire) {
            return;
        }
        let payload = match read_frame(&mut stream, "wire request") {
            Ok(Some(p)) => p,
            Ok(None) => return, // clean EOF at a frame boundary
            Err(ReadFrameError::Io { error, mid_frame }) => {
                let timeout = matches!(error.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut);
                if timeout && !mid_frame {
                    continue; // idle tick; re-check the shutdown flag
                }
                if timeout && mid_frame {
                    // The peer stalled mid-frame past the read deadline:
                    // typed refusal, then hang up — never wait forever.
                    let mut g = out.lock().unwrap_or_else(PoisonError::into_inner);
                    let _ = g.send(&ServerMsg::WireRefused {
                        what: format!("read deadline mid-frame: {error}"),
                    });
                }
                return;
            }
            Err(ReadFrameError::Frame(defect)) => {
                // Torn / CRC-bad / malformed: the stream can no longer be
                // trusted to be in sync. Best-effort typed refusal, close.
                let mut g = out.lock().unwrap_or_else(PoisonError::into_inner);
                let _ = g.send(&ServerMsg::WireRefused {
                    what: defect.to_string(),
                });
                return;
            }
        };
        let msg = match ClientMsg::decode(&payload) {
            Ok(m) => m,
            Err(defect) => {
                let mut g = out.lock().unwrap_or_else(PoisonError::into_inner);
                let _ = g.send(&ServerMsg::WireRefused {
                    what: defect.to_string(),
                });
                return;
            }
        };
        match msg {
            ClientMsg::Health => {
                if !send_health(shared, out) {
                    return;
                }
            }
            ClientMsg::Shutdown => {
                shared.shutdown_requested.store(true, Ordering::Release);
                let mut g = out.lock().unwrap_or_else(PoisonError::into_inner);
                let _ = g.send(&ServerMsg::ShutdownAck);
            }
            msg @ (ClientMsg::InstallMap { .. }
            | ClientMsg::FreezeShard { .. }
            | ClientMsg::ExtractShard { .. }
            | ClientMsg::InstallShard { .. }
            | ClientMsg::GetMap) => {
                if !handle_admin(msg, shared, out) {
                    return;
                }
            }
            ClientMsg::Submit {
                client_id,
                seq,
                acked_floor,
                deadline_millis,
                shard,
                map_epoch,
                request,
            } => {
                // A pipelined client writes its whole burst in one go;
                // greedily drain every frame ALREADY COMPLETE in the read
                // buffer (never blocking) so the burst is admitted under
                // one queue lock and the coalescing window stays full.
                let mut group = vec![SubmitItem {
                    client_id,
                    seq,
                    acked_floor,
                    deadline_millis,
                    shard,
                    map_epoch,
                    request,
                }];
                let mut poison: Option<String> = None;
                loop {
                    let buf = stream.buffer();
                    if buf.len() < 8 {
                        break;
                    }
                    let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
                    if len > crate::wire::MAX_FRAME || buf.len() < 8 + len {
                        break; // incomplete (or defective: the blocking read will type it)
                    }
                    let payload = match read_frame(&mut stream, "wire request") {
                        Ok(Some(p)) => p,
                        Ok(None) => break,
                        Err(ReadFrameError::Io { error, .. }) => {
                            poison = Some(format!("read mid-burst: {error}"));
                            break;
                        }
                        Err(ReadFrameError::Frame(defect)) => {
                            poison = Some(defect.to_string());
                            break;
                        }
                    };
                    match ClientMsg::decode(&payload) {
                        Ok(ClientMsg::Submit {
                            client_id,
                            seq,
                            acked_floor,
                            deadline_millis,
                            shard,
                            map_epoch,
                            request,
                        }) => group.push(SubmitItem {
                            client_id,
                            seq,
                            acked_floor,
                            deadline_millis,
                            shard,
                            map_epoch,
                            request,
                        }),
                        Ok(ClientMsg::Health) => {
                            if !send_health(shared, out) {
                                return;
                            }
                        }
                        Ok(ClientMsg::Shutdown) => {
                            shared.shutdown_requested.store(true, Ordering::Release);
                            let mut g = out.lock().unwrap_or_else(PoisonError::into_inner);
                            let _ = g.send(&ServerMsg::ShutdownAck);
                        }
                        Ok(admin) => {
                            if !handle_admin(admin, shared, out) {
                                return;
                            }
                        }
                        Err(defect) => {
                            poison = Some(defect.to_string());
                            break;
                        }
                    }
                }
                if !flush_group(group, shared, out, &mut floor_cache, &tx) {
                    return;
                }
                if let Some(what) = poison {
                    // The group was flushed; the defective remainder poisons
                    // the stream — typed refusal, close.
                    let mut g = out.lock().unwrap_or_else(PoisonError::into_inner);
                    let _ = g.send(&ServerMsg::WireRefused { what });
                    return;
                }
            }
        }
    }
}

/// Answers [`ClientMsg::Health`] straight from the server's counters —
/// never enters the queue, so it works under full saturation. Returns
/// `false` when the connection is dead.
fn send_health(shared: &NetShared, out: &Arc<Mutex<OutHalf>>) -> bool {
    let stats = shared.server.stats();
    let counters = vec![
        ("submitted".to_string(), stats.submitted),
        ("completed".to_string(), stats.completed),
        ("overloaded".to_string(), stats.overloaded),
        ("deadline_expired".to_string(), stats.deadline_expired),
        ("batches".to_string(), stats.batches),
        ("coalesced_requests".to_string(), stats.coalesced_requests),
        ("respawns".to_string(), stats.respawns),
        ("rot_detected".to_string(), stats.rot_detected),
        ("rot_repaired".to_string(), stats.rot_repaired),
        ("wal_appends".to_string(), stats.wal_appends),
        ("wal_syncs".to_string(), stats.wal_syncs),
        ("checkpoints_written".to_string(), stats.checkpoints_written),
        (
            "delta_checkpoints_written".to_string(),
            stats.delta_checkpoints_written,
        ),
        ("generations_skipped".to_string(), stats.generations_skipped),
        ("generations_pruned".to_string(), stats.generations_pruned),
        ("wal_segments_pruned".to_string(), stats.wal_segments_pruned),
        ("shard_epoch".to_string(), stats.shard_epoch),
        ("shards_owned".to_string(), stats.shards_owned),
        ("handoffs_in_flight".to_string(), stats.handoffs_in_flight),
        ("handoffs_out_flight".to_string(), stats.handoffs_out_flight),
        (
            "stale_epoch_refusals".to_string(),
            stats.stale_epoch_refusals,
        ),
        (
            "net.in_flight".to_string(),
            shared.in_flight.load(Ordering::Relaxed) as u64,
        ),
    ];
    let mut g = out.lock().unwrap_or_else(PoisonError::into_inner);
    g.send(&ServerMsg::Health { counters }).is_ok()
}

/// One decoded submit awaiting group admission.
struct SubmitItem {
    client_id: u64,
    seq: u64,
    acked_floor: u64,
    deadline_millis: Option<u64>,
    shard: u32,
    map_epoch: u64,
    request: fol_serve::Request,
}

/// Admits one decoded burst: dedupe (one lock), net-layer admission,
/// group submission to the serving layer (one queue lock), handoff to the
/// writer, and one coalesced write for every immediate reply (cached
/// outcomes, Busy, refusals). Returns `false` when the connection or the
/// writer is gone and the reader should exit.
fn flush_group(
    group: Vec<SubmitItem>,
    shared: &NetShared,
    out: &Arc<Mutex<OutHalf>>,
    floor_cache: &mut HashMap<u64, u64>,
    tx: &Sender<InFlightItem>,
) -> bool {
    let floors: Vec<(u64, u64)> = group
        .iter()
        .map(|it| (it.client_id, it.acked_floor))
        .collect();
    let mut replies: Vec<ServerMsg> = Vec::new();
    // Dedupe: a retry of something already seen must not re-execute. The
    // InFlight markers for the whole burst are claimed under ONE lock
    // acquisition and rolled back for whatever admission refuses.
    let mut fresh: Vec<SubmitItem> = Vec::with_capacity(group.len());
    {
        let mut dedupe = shared.dedupe.lock().unwrap_or_else(PoisonError::into_inner);
        for it in group {
            match dedupe.get(&(it.client_id, it.map_epoch, it.seq)) {
                Some(Dedupe::Done { outcome, .. }) => replies.push(ServerMsg::Result {
                    seq: it.seq,
                    outcome: outcome.clone(),
                }),
                Some(Dedupe::InFlight) => replies.push(ServerMsg::Result {
                    seq: it.seq,
                    outcome: WireOutcome::Busy,
                }),
                None => {
                    dedupe.insert((it.client_id, it.map_epoch, it.seq), Dedupe::InFlight);
                    fresh.push(it);
                }
            }
        }
    }
    // Prune strictly AFTER the dedupe pass over the whole group: a retry
    // and the next call's submit (whose floor covers the retried seq) can
    // share one burst, and pruning first would evict the cached outcome
    // the retry is about to replay — re-executing an acknowledged request.
    // Pruning late is safe: a floor only ever covers seqs whose outcome
    // the client already resolved, so nothing still needed is removed.
    // The floor cache keeps the floors/dedupe locks off bursts where the
    // floor did not move.
    for (client_id, acked_floor) in floors {
        let floor = floor_cache.entry(client_id).or_insert(0);
        if acked_floor > *floor {
            *floor = acked_floor;
            shared.prune(client_id, acked_floor);
        }
    }
    // Shard-gate admission, then net-layer admission: a request stamped
    // with the wrong epoch or routed to a shard this node does not own is
    // refused typed BEFORE the in-flight bound or the queue see it — and
    // its dedupe marker is rolled back, so the client's re-route under the
    // new map executes fresh.
    let mut rollback: Vec<(u64, u64, u64)> = Vec::new();
    let mut meta: Vec<(u64, u64, u64, u32)> = Vec::with_capacity(fresh.len());
    let mut items: Vec<(fol_serve::Request, Priority, Option<Duration>)> =
        Vec::with_capacity(fresh.len());
    let gate = shared.server.shard_gate();
    for it in fresh {
        if let Err(e) = gate.admit(it.shard, it.map_epoch) {
            rollback.push((it.client_id, it.map_epoch, it.seq));
            replies.push(ServerMsg::Result {
                seq: it.seq,
                outcome: WireOutcome::Err(e),
            });
            continue;
        }
        let admitted = shared
            .in_flight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < shared.cfg.max_in_flight).then_some(n + 1)
            })
            .is_ok();
        if admitted {
            meta.push((it.client_id, it.map_epoch, it.seq, it.shard));
            items.push((
                it.request,
                Priority::Normal,
                it.deadline_millis.map(Duration::from_millis),
            ));
        } else {
            rollback.push((it.client_id, it.map_epoch, it.seq));
            replies.push(ServerMsg::Result {
                seq: it.seq,
                outcome: WireOutcome::Err(ServeError::Overloaded {
                    capacity: shared.cfg.max_in_flight,
                }),
            });
        }
    }
    let outcomes = shared.server.submit_many_with(items);
    let mut writer_gone = false;
    for (&(client_id, map_epoch, seq, shard), outcome) in meta.iter().zip(outcomes) {
        match outcome {
            Ok(ticket) if !writer_gone => {
                if tx
                    .send(InFlightItem {
                        client_id,
                        map_epoch,
                        seq,
                        shard,
                        ticket,
                    })
                    .is_err()
                {
                    writer_gone = true;
                    shared.in_flight.fetch_sub(1, Ordering::AcqRel);
                    rollback.push((client_id, map_epoch, seq));
                }
            }
            // Writer already gone: the ticket is dropped (the worker still
            // executes it), the slot and marker are released.
            Ok(_ticket) => {
                shared.in_flight.fetch_sub(1, Ordering::AcqRel);
                rollback.push((client_id, map_epoch, seq));
            }
            Err(e) => {
                shared.in_flight.fetch_sub(1, Ordering::AcqRel);
                rollback.push((client_id, map_epoch, seq));
                replies.push(ServerMsg::Result {
                    seq,
                    outcome: WireOutcome::Err(e),
                });
            }
        }
    }
    if !rollback.is_empty() {
        let mut dedupe = shared.dedupe.lock().unwrap_or_else(PoisonError::into_inner);
        for key in rollback {
            dedupe.remove(&key);
        }
    }
    if !replies.is_empty() {
        let mut g = out.lock().unwrap_or_else(PoisonError::into_inner);
        if g.send_many(&replies).is_err() {
            return false;
        }
    }
    !writer_gone
}

/// Answers one administrative (rebalance-coordinator) message. Admin ops
/// bypass the submit path: they are idempotent, digest-checked, and
/// answered with [`ServerMsg::AdminOk`] / [`ServerMsg::AdminErr`] verdicts
/// rather than per-seq results. Returns `false` when the connection died.
fn handle_admin(msg: ClientMsg, shared: &NetShared, out: &Arc<Mutex<OutHalf>>) -> bool {
    let reply = match msg {
        ClientMsg::InstallMap { map, you_are } => {
            if (you_are as usize) < map.nodes.len() {
                shared
                    .server
                    .shard_gate()
                    .install(map.assignment_for(you_are as usize));
                *shared.map.lock().unwrap_or_else(PoisonError::into_inner) = Some(map);
                ServerMsg::AdminOk
            } else {
                ServerMsg::AdminErr {
                    what: format!(
                        "install map: you_are {you_are} out of range of {} node(s)",
                        map.nodes.len()
                    ),
                }
            }
        }
        ClientMsg::FreezeShard { shard, freeze } => {
            let gate = shared.server.shard_gate();
            if gate.epoch() == 0 {
                ServerMsg::AdminErr {
                    what: "freeze: no shard map installed".into(),
                }
            } else {
                if freeze {
                    gate.freeze(shard);
                } else {
                    gate.unfreeze(shard);
                }
                ServerMsg::AdminOk
            }
        }
        ClientMsg::ExtractShard { shard } => extract_shard(shared, shard),
        ClientMsg::InstallShard { image } => install_shard(shared, &image),
        ClientMsg::GetMap => ServerMsg::Map {
            map: shared
                .map
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
        },
        _ => unreachable!("handle_admin is only called with admin messages"),
    };
    let mut g = out.lock().unwrap_or_else(PoisonError::into_inner);
    g.send(&reply).is_ok()
}

/// The workload classes a handoff image carries, with their section names.
const HANDOFF_CLASSES: [(&str, WorkloadClass); 3] = [
    ("chain", WorkloadClass::Chain),
    ("oa", WorkloadClass::OpenAddr),
    ("bst", WorkloadClass::Bst),
];

/// Submits one request to the serving layer and waits its outcome —
/// the admin path's synchronous door into the worker pool.
fn serve_call(shared: &NetShared, request: Request) -> Result<Response, ServeError> {
    shared.server.submit(request)?.wait()
}

/// Builds the handoff image of a frozen shard: wait for in-flight wire
/// work to drain, then pull each class's keys restricted to the shard and
/// record their content digests.
fn extract_shard(shared: &NetShared, shard: u32) -> ServerMsg {
    let gate = shared.server.shard_gate();
    let epoch = gate.epoch();
    if epoch == 0 {
        return ServerMsg::AdminErr {
            what: "extract: no shard map installed".into(),
        };
    }
    if gate.owns(shard) {
        // owns() is "owned and not frozen": extraction of a live shard
        // would race concurrent writes and ship a torn image.
        return ServerMsg::AdminErr {
            what: format!("extract: shard {shard} is not frozen"),
        };
    }
    let shards = match shared
        .map
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .as_ref()
    {
        Some(m) => m.shards,
        None => {
            return ServerMsg::AdminErr {
                what: "extract: no shard map installed".into(),
            }
        }
    };
    // Drain: the freeze already refuses new writes for the shard; wait for
    // whatever the wire admitted earlier to finish so the image is the
    // complete acknowledged state.
    let deadline = Instant::now() + Duration::from_secs(10);
    while shared.in_flight.load(Ordering::Acquire) != 0 {
        if Instant::now() >= deadline {
            return ServerMsg::AdminErr {
                what: format!(
                    "extract: drain timed out with {} wire request(s) in flight",
                    shared.in_flight.load(Ordering::Acquire)
                ),
            };
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let _mark = gate.begin_handoff_out();
    let mut sections = Vec::with_capacity(HANDOFF_CLASSES.len());
    for (name, class) in HANDOFF_CLASSES {
        let keys = match serve_call(
            shared,
            Request::ShardKeys {
                class,
                shards,
                shard,
            },
        ) {
            Ok(Response::Keys { keys }) => keys,
            Ok(other) => {
                return ServerMsg::AdminErr {
                    what: format!("extract: shard-keys answered with {other:?}"),
                }
            }
            Err(e) => {
                return ServerMsg::AdminErr {
                    what: format!("extract: {e}"),
                }
            }
        };
        sections.push(HandoffSection {
            class: name.to_string(),
            digest: keys_digest(&keys),
            keys,
        });
    }
    // Ship the shard's cached request outcomes with it: a client whose
    // request completed here can retry against the new owner (still
    // stamped with the epoch it was admitted under) and get the cached
    // outcome replayed instead of a WrongEpoch refusal re-executing it.
    // Only Done entries ship — the drain above guarantees nothing for this
    // shard is still InFlight. Sorted for a deterministic image.
    let mut dedupe: Vec<HandoffDedupe> = {
        let g = shared.dedupe.lock().unwrap_or_else(PoisonError::into_inner);
        g.iter()
            .filter_map(|(&(client_id, epoch, seq), entry)| match entry {
                Dedupe::Done { shard: s, outcome } if *s == shard => Some(HandoffDedupe {
                    client_id,
                    epoch,
                    seq,
                    outcome: outcome.encode(),
                }),
                _ => None,
            })
            .collect()
    };
    dedupe.sort_by_key(|r| (r.client_id, r.epoch, r.seq));
    let image = HandoffImage {
        shard,
        shards,
        source_epoch: epoch,
        wal_floor: shared.server.stats().wal_appends,
        sections,
        dedupe,
    };
    ServerMsg::ShardImage {
        image: image.encode(),
    }
}

/// Installs a handoff image: decode and digest-verify the bytes, then per
/// class either skip (already installed — the idempotent retry path),
/// insert into an empty slice, or refuse a partially-populated one typed.
/// The final per-class digest re-check is what makes the `AdminOk` a
/// *digest-verified* install ack.
fn install_shard(shared: &NetShared, bytes: &[u8]) -> ServerMsg {
    let image = match HandoffImage::decode(bytes) {
        Ok(i) => i,
        Err(e) => {
            return ServerMsg::AdminErr {
                what: format!("install: {e}"),
            }
        }
    };
    if let Err(e) = image.verify(keys_digest) {
        return ServerMsg::AdminErr {
            what: format!("install: {e}"),
        };
    }
    let gate = shared.server.shard_gate();
    let _mark = gate.begin_handoff_in();
    for section in &image.sections {
        let Some(&(_, class)) = HANDOFF_CLASSES.iter().find(|(n, _)| *n == section.class) else {
            return ServerMsg::AdminErr {
                what: format!("install: unknown section class '{}'", section.class),
            };
        };
        let shard_digest = |shared: &NetShared| match serve_call(
            shared,
            Request::ShardDigest {
                class,
                shards: image.shards,
                shard: image.shard,
            },
        ) {
            Ok(Response::ClassDigest { digest, count }) => Ok((digest, count)),
            Ok(other) => Err(format!("install: shard-digest answered with {other:?}")),
            Err(e) => Err(format!("install: {e}")),
        };
        let (digest, count) = match shard_digest(shared) {
            Ok(v) => v,
            Err(what) => return ServerMsg::AdminErr { what },
        };
        if count == section.keys.len() as u64 && digest == section.digest {
            continue; // already installed: a retried install is a no-op
        }
        if count != 0 {
            return ServerMsg::AdminErr {
                what: format!(
                    "install: shard {} class '{}' already holds {count} key(s) \
                     with digest {digest:#018x}; refusing to merge",
                    image.shard, section.class
                ),
            };
        }
        if section.keys.is_empty() {
            continue;
        }
        let insert = match class {
            WorkloadClass::Chain => Request::ChainInsert {
                keys: section.keys.clone(),
            },
            WorkloadClass::OpenAddr => Request::OaInsert {
                keys: section.keys.clone(),
            },
            WorkloadClass::Bst => Request::BstInsert {
                keys: section.keys.clone(),
            },
        };
        if let Err(e) = serve_call(shared, insert) {
            return ServerMsg::AdminErr {
                what: format!("install: {e}"),
            };
        }
        // End-to-end proof: what the structures now hold hashes to what
        // the source extracted.
        match shard_digest(shared) {
            Ok((d, c)) if d == section.digest && c == section.keys.len() as u64 => {}
            Ok((d, c)) => {
                return ServerMsg::AdminErr {
                    what: format!(
                        "install: post-install digest mismatch for shard {} class '{}': \
                         got {d:#018x}/{c}, image records {:#018x}/{}",
                        image.shard,
                        section.class,
                        section.digest,
                        section.keys.len()
                    ),
                }
            }
            Err(what) => return ServerMsg::AdminErr { what },
        }
    }
    // Install the shipped dedupe records so a client's retry of a request
    // that completed on the old owner replays its cached outcome here.
    // Decode first (a record whose bytes do not parse is a typed refusal,
    // the dedupe analogue of the section digest check), then insert under
    // one lock. Present entries are kept — a retried install is a no-op,
    // and an outcome this node recorded itself is never overwritten.
    let mut decoded = Vec::with_capacity(image.dedupe.len());
    for rec in &image.dedupe {
        match WireOutcome::decode(&rec.outcome) {
            Ok(outcome) => decoded.push(((rec.client_id, rec.epoch, rec.seq), outcome)),
            Err(e) => {
                return ServerMsg::AdminErr {
                    what: format!(
                        "install: dedupe record (client {}, epoch {}, seq {}): {e}",
                        rec.client_id, rec.epoch, rec.seq
                    ),
                }
            }
        }
    }
    {
        let mut dedupe = shared.dedupe.lock().unwrap_or_else(PoisonError::into_inner);
        for (key, outcome) in decoded {
            dedupe.entry(key).or_insert(Dedupe::Done {
                shard: image.shard,
                outcome,
            });
        }
    }
    ServerMsg::AdminOk
}

/// True when `outcome` is safe to replay verbatim to a retry: successes
/// (the effect is committed; re-executing would double-apply) and
/// admission rejections (deterministic verdicts). Transient failures —
/// overload, a lost worker, a queue-deadline shed — are *not* cached, so a
/// retry re-executes them.
fn cacheable(outcome: &Result<Response, ServeError>) -> bool {
    match outcome {
        Ok(_) => true,
        Err(ServeError::Rejected { .. }) => true,
        Err(_) => false,
    }
}

fn writer_loop(rx: Receiver<InFlightItem>, out: Arc<Mutex<OutHalf>>, shared: Arc<NetShared>) {
    // Tickets arrive in submission order; waiting them in order preserves
    // response order per connection without blocking the reader. Responses
    // are coalesced: after the head-of-line ticket resolves, every item the
    // reader has already queued is resolved too and the whole run goes out
    // as one write. A lone request (the latency-sensitive case) finds the
    // channel empty and flushes immediately.
    let mut head = rx.recv();
    while let Ok(first) = head {
        // Wait the whole run of available tickets lock-free first, then
        // commit every outcome to the dedupe table under ONE lock and
        // release the admission slots with ONE atomic sub. The dedupe
        // records still land BEFORE the response write: if the write dies
        // with the connection, a retry on a fresh connection finds the
        // committed outcome instead of re-executing it.
        let mut items = vec![head_outcome(first)];
        while let Ok(item) = rx.try_recv() {
            items.push(head_outcome(item));
        }
        {
            let mut dedupe = shared.dedupe.lock().unwrap_or_else(PoisonError::into_inner);
            for (item, outcome) in &items {
                if cacheable(outcome) {
                    dedupe.insert(
                        (item.client_id, item.map_epoch, item.seq),
                        Dedupe::Done {
                            shard: item.shard,
                            outcome: match outcome {
                                Ok(r) => WireOutcome::Ok(r.clone()),
                                Err(e) => WireOutcome::Err(e.clone()),
                            },
                        },
                    );
                } else {
                    dedupe.remove(&(item.client_id, item.map_epoch, item.seq));
                }
            }
        }
        shared.in_flight.fetch_sub(items.len(), Ordering::AcqRel);
        let msgs: Vec<ServerMsg> = items
            .into_iter()
            .map(|(item, outcome)| ServerMsg::Result {
                seq: item.seq,
                outcome: match outcome {
                    Ok(r) => WireOutcome::Ok(r),
                    Err(e) => WireOutcome::Err(e),
                },
            })
            .collect();
        {
            let mut g = out.lock().unwrap_or_else(PoisonError::into_inner);
            // A failed write means the client is gone; keep draining so
            // every admitted ticket is waited (and cached) before the
            // writer exits.
            let _ = g.send_many(&msgs);
        }
        head = rx.recv();
    }
}

/// Waits one admitted request's ticket (tickets resolve in submission
/// order, so after the head of a run resolves the rest are typically
/// already done).
fn head_outcome(item: InFlightItem) -> (FinishedItem, Result<Response, ServeError>) {
    let InFlightItem {
        client_id,
        map_epoch,
        seq,
        shard,
        ticket,
    } = item;
    (
        FinishedItem {
            client_id,
            map_epoch,
            seq,
            shard,
        },
        ticket.wait(),
    )
}
