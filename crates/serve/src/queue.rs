//! The shared admission queue: bounded, typed backpressure, per-kind lanes.
//!
//! Clients [`Shared::submit`] under the queue lock; workers drain under the
//! same lock via [`Shared::next_batch`], which also purges deadline-expired
//! requests (completing them with a typed [`ServeError::DeadlineExceeded`],
//! never a silent drop). The scheduler is work-conserving by default:
//! with a zero `max_wait` a lane is ready as soon as it holds a request,
//! and the worker that asks takes up to `max_batch` of them, so a batch is
//! as long as the backlog that built while the workers were busy. A
//! non-zero `max_wait` makes a coalescable lane linger: it flushes when it
//! holds `max_batch` requests, when its oldest request has waited
//! `max_wait`, or when the server is shutting down (drain everything). A
//! control lane is never coalesced, so lingering would buy nothing: it is
//! ready as soon as it holds a request.
//!
//! Completion fills a caller's [`Slot`] under the slot's own lock and wakes
//! the slot only when its [`Ticket`] is already waiting there. A worker
//! fills every slot of a batch before it wakes any ([`complete_all`]), so
//! a caller that waits its tickets in order finds the later ones filled
//! instead of sleeping once per ticket.

use crate::durability::{encode_admit, encode_complete};
use crate::request::{Kind, Priority, Request, Response, ServeError, WorkloadClass};
use crate::writer::ImageWriter;
use fol_persist::Wal;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// One queued request plus everything needed to complete it.
pub(crate) struct Pending {
    pub(crate) seq: u64,
    pub(crate) request: Request,
    pub(crate) priority: Priority,
    pub(crate) deadline: Option<Instant>,
    pub(crate) enqueued: Instant,
    pub(crate) slot: Arc<Slot>,
}

/// The rendezvous cell a caller's [`Ticket`] waits on.
#[derive(Debug)]
pub(crate) struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

/// What a [`Slot`]'s lock guards.
#[derive(Debug, Default)]
struct SlotState {
    result: Option<Result<Response, ServeError>>,
    /// Set by [`Ticket::wait`] before it sleeps on the condvar: only then
    /// does a completion owe a wake.
    waiting: bool,
}

impl Slot {
    fn new() -> Self {
        Slot {
            state: Mutex::new(SlotState::default()),
            cv: Condvar::new(),
        }
    }

    /// Stores the outcome; true when the ticket is already waiting and
    /// must be woken ([`Slot::wake`]).
    fn fill(&self, r: Result<Response, ServeError>) -> bool {
        let mut g = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        g.result = Some(r);
        g.waiting
    }

    fn wake(&self) {
        self.cv.notify_all();
    }

    /// Fills and, when someone waits, wakes: one completion on its own.
    pub(crate) fn complete(&self, r: Result<Response, ServeError>) {
        if self.fill(r) {
            self.wake();
        }
    }
}

/// Completes a batch: fills every slot first, then wakes the callers that
/// were already waiting. A caller that waits its tickets in order then
/// wakes once for the batch, not once per ticket.
pub(crate) fn complete_all<'a>(
    outcomes: impl IntoIterator<Item = (&'a Slot, Result<Response, ServeError>)>,
) {
    let waiting: Vec<&Slot> = outcomes
        .into_iter()
        .filter_map(|(slot, r)| slot.fill(r).then_some(slot))
        .collect();
    for slot in waiting {
        slot.wake();
    }
}

/// A handle to one submitted request's eventual outcome.
#[derive(Debug)]
pub struct Ticket {
    pub(crate) slot: Arc<Slot>,
}

impl Ticket {
    /// Blocks until the request terminates, returning its typed outcome.
    /// Every admitted request terminates: completed, `Rejected`, `Failed`,
    /// `DeadlineExceeded`, `WorkerLost`, or drained at shutdown.
    pub fn wait(self) -> Result<Response, ServeError> {
        let mut g = self
            .slot
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(r) = g.result.take() {
                return r;
            }
            g.waiting = true;
            g = self.slot.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Queue lanes: one per coalescable kind, plus one control lane per class
/// (control requests are routed to the class's owning worker and never
/// coalesced).
pub(crate) const LANE_CHAIN_INSERT: usize = 0;
pub(crate) const LANE_OA_INSERT: usize = 1;
pub(crate) const LANE_OA_LOOKUP: usize = 2;
pub(crate) const LANE_BST_INSERT: usize = 3;
pub(crate) const LANE_CTL_CHAIN: usize = 4;
pub(crate) const LANE_CTL_OA: usize = 5;
pub(crate) const LANE_CTL_BST: usize = 6;
const LANES: usize = 7;

fn lane_of(request: &Request) -> usize {
    match request.kind() {
        Kind::ChainInsert => LANE_CHAIN_INSERT,
        Kind::OaInsert => LANE_OA_INSERT,
        Kind::OaLookup => LANE_OA_LOOKUP,
        Kind::BstInsert => LANE_BST_INSERT,
        Kind::Control => match request.class() {
            WorkloadClass::Chain => LANE_CTL_CHAIN,
            WorkloadClass::OpenAddr => LANE_CTL_OA,
            WorkloadClass::Bst => LANE_CTL_BST,
        },
    }
}

fn kind_of_lane(l: usize) -> Kind {
    match l {
        LANE_CHAIN_INSERT => Kind::ChainInsert,
        LANE_OA_INSERT => Kind::OaInsert,
        LANE_OA_LOOKUP => Kind::OaLookup,
        LANE_BST_INSERT => Kind::BstInsert,
        _ => Kind::Control,
    }
}

pub(crate) struct Inner {
    lanes: [VecDeque<Pending>; LANES],
    total: usize,
    next_seq: u64,
    pub(crate) shutdown: bool,
}

/// Aggregate serving statistics, maintained lock-free.
#[derive(Default)]
pub(crate) struct StatCells {
    pub(crate) submitted: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) overloaded: AtomicU64,
    pub(crate) deadline_expired: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) coalesced_requests: AtomicU64,
    pub(crate) respawns: AtomicU64,
    pub(crate) scrub_slices: AtomicU64,
    pub(crate) rot_detected: AtomicU64,
    pub(crate) rot_repaired: AtomicU64,
    pub(crate) wal_appends: AtomicU64,
    pub(crate) wal_replayed: AtomicU64,
    pub(crate) checkpoints_restored: AtomicU64,
    pub(crate) checkpoints_written: AtomicU64,
    pub(crate) checkpoints_refused: AtomicU64,
    pub(crate) durable_respawns: AtomicU64,
    pub(crate) delta_checkpoints_written: AtomicU64,
    pub(crate) generations_skipped: AtomicU64,
    pub(crate) generations_pruned: AtomicU64,
    pub(crate) wal_segments_pruned: AtomicU64,
}

/// A point-in-time copy of the server's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Requests admitted to the queue.
    pub submitted: u64,
    /// Requests completed (any typed outcome after admission).
    pub completed: u64,
    /// Submissions refused with [`ServeError::Overloaded`].
    pub overloaded: u64,
    /// Queued requests load-shed with [`ServeError::DeadlineExceeded`].
    pub deadline_expired: u64,
    /// Coalesced batches executed.
    pub batches: u64,
    /// Requests carried by those batches (`coalesced_requests / batches` is
    /// the realized coalescing factor).
    pub coalesced_requests: u64,
    /// Workers respawned after a panic.
    pub respawns: u64,
    /// Idle-time scrub slices run.
    pub scrub_slices: u64,
    /// Resident corruption events detected by the idle scrub.
    pub rot_detected: u64,
    /// Corruption events repaired from the committed image.
    pub rot_repaired: u64,
    /// Records appended to the write-ahead request log (admissions plus
    /// completions). Zero when the server runs without durability.
    pub wal_appends: u64,
    /// Acknowledged-but-unapplied requests re-driven from the log at
    /// startup.
    pub wal_replayed: u64,
    /// Workers whose state was restored from a durable checkpoint at
    /// startup.
    pub checkpoints_restored: u64,
    /// Full checkpoint images of pool workers' state written to disk (by
    /// the server's writer thread; each is counted once written and, after
    /// its compaction pass, done).
    pub checkpoints_written: u64,
    /// Checkpoint files refused as corrupt at scan time, plus checkpoint
    /// writes that failed (each refusal is typed, never silent).
    pub checkpoints_refused: u64,
    /// Panic respawns that rebuilt from the newest durable checkpoint plus
    /// a log redo (the remainder of [`StatsSnapshot::respawns`] fell back
    /// to the condemned machine's committed image).
    pub durable_respawns: u64,
    /// Delta (incremental) checkpoints written by pool workers — the
    /// remainder of the cadence ticks wrote full images, counted in
    /// [`StatsSnapshot::checkpoints_written`].
    pub delta_checkpoints_written: u64,
    /// Generations the recovery planner passed over with a typed
    /// [`fol_persist::SkipReason`] (at startup and during durable
    /// respawns), falling back link-by-link to an older verifiable one.
    pub generations_skipped: u64,
    /// Checkpoint generations (full and delta files) deleted by
    /// log-structured compaction, below the retention boundary.
    pub generations_pruned: u64,
    /// Sealed write-ahead-log segments deleted by compaction, every record
    /// covered by the retained durable images.
    pub wal_segments_pruned: u64,
    /// The shard-map epoch this server currently serves (0 = standalone,
    /// no assignment installed). Mirrors [`crate::shard::GateStats`].
    pub shard_epoch: u64,
    /// Cluster shards this server owns under the current map.
    pub shards_owned: u64,
    /// Inbound shard handoffs currently being installed.
    pub handoffs_in_flight: u64,
    /// Outbound shard handoffs currently being extracted.
    pub handoffs_out_flight: u64,
    /// Requests refused with [`ServeError::WrongEpoch`].
    pub stale_epoch_refusals: u64,
}

impl StatCells {
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            coalesced_requests: self.coalesced_requests.load(Ordering::Relaxed),
            respawns: self.respawns.load(Ordering::Relaxed),
            scrub_slices: self.scrub_slices.load(Ordering::Relaxed),
            rot_detected: self.rot_detected.load(Ordering::Relaxed),
            rot_repaired: self.rot_repaired.load(Ordering::Relaxed),
            wal_appends: self.wal_appends.load(Ordering::Relaxed),
            wal_replayed: self.wal_replayed.load(Ordering::Relaxed),
            checkpoints_restored: self.checkpoints_restored.load(Ordering::Relaxed),
            checkpoints_written: self.checkpoints_written.load(Ordering::Relaxed),
            checkpoints_refused: self.checkpoints_refused.load(Ordering::Relaxed),
            durable_respawns: self.durable_respawns.load(Ordering::Relaxed),
            delta_checkpoints_written: self.delta_checkpoints_written.load(Ordering::Relaxed),
            generations_skipped: self.generations_skipped.load(Ordering::Relaxed),
            generations_pruned: self.generations_pruned.load(Ordering::Relaxed),
            wal_segments_pruned: self.wal_segments_pruned.load(Ordering::Relaxed),
            // Filled in by `Server::stats()` from the shard gate; the queue
            // layer has no cluster knowledge.
            shard_epoch: 0,
            shards_owned: 0,
            handoffs_in_flight: 0,
            handoffs_out_flight: 0,
            stale_epoch_refusals: 0,
        }
    }
}

/// The state shared between clients and pool workers.
pub(crate) struct Shared {
    inner: Mutex<Inner>,
    /// Workers park here; submissions and shutdown notify it.
    pub(crate) work_cv: Condvar,
    pub(crate) capacity: usize,
    pub(crate) max_batch: usize,
    pub(crate) max_wait: Duration,
    pub(crate) stats: StatCells,
    /// The write-ahead request log, when the server runs durable. Lock
    /// order: `inner` may be held while taking `wal`, never the reverse.
    pub(crate) wal: Option<Mutex<Wal>>,
    /// Per-worker published chaining-shard contents (the stored keys of
    /// each worker's chain shard). The chaining table is sharded across
    /// every worker, so no single worker can scan the whole logical
    /// structure; instead each worker publishes its shard's keys after
    /// every committed chain batch (and at build/respawn), *before* the
    /// batch's callers are acknowledged. [`Request::Digest`] for the chain
    /// class is answered by combining the cells — the order-insensitive
    /// digest makes the combination exact, not approximate — and
    /// [`Request::ShardKeys`] filters them by cluster shard for handoff
    /// extraction.
    chain_shards: Mutex<Vec<Vec<fol_vm::Word>>>,
    /// The durable server's image writer (see [`crate::writer`]); `None`
    /// without durability.
    pub(crate) writer: Option<ImageWriter>,
    /// The newest compaction pass's log floor: no admission record remains
    /// below it, so workers drop lower sequences from their applied sets.
    /// Relaxed: it publishes no other data, and a stale read only keeps a
    /// few more sequences.
    pub(crate) log_floor: AtomicU64,
}

/// What a worker drained: a same-kind run of requests to coalesce.
pub(crate) struct Batch {
    pub(crate) kind: Kind,
    pub(crate) items: Vec<Pending>,
}

impl Shared {
    pub(crate) fn new(
        capacity: usize,
        max_batch: usize,
        max_wait: Duration,
        wal: Option<Wal>,
        writer: Option<ImageWriter>,
        workers: usize,
    ) -> Self {
        Shared {
            inner: Mutex::new(Inner {
                lanes: Default::default(),
                total: 0,
                next_seq: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            capacity,
            max_batch,
            max_wait,
            stats: StatCells::default(),
            wal: wal.map(Mutex::new),
            chain_shards: Mutex::new(vec![Vec::new(); workers]),
            writer,
            log_floor: AtomicU64::new(0),
        }
    }

    /// Publishes worker `id`'s whole chaining-shard contents (at start,
    /// restore and respawn).
    pub(crate) fn publish_chain_shard(&self, id: usize, keys: Vec<fol_vm::Word>) {
        let mut g = self
            .chain_shards
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        g[id] = keys;
    }

    /// Appends the keys one batch landed to worker `id`'s published cell.
    /// Called before the batch's callers are acknowledged, so any
    /// acknowledged insert is visible to a later [`Shared::chain_digest`]
    /// or [`Shared::chain_keys`].
    pub(crate) fn append_chain_shard(&self, id: usize, keys: &[fol_vm::Word]) {
        if keys.is_empty() {
            return;
        }
        let mut g = self
            .chain_shards
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        g[id].extend_from_slice(keys);
    }

    /// The whole chaining table's logical content digest: the commutative
    /// combination of every published shard's digest.
    pub(crate) fn chain_digest(&self) -> (u64, u64) {
        let g = self
            .chain_shards
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        g.iter().fold((0u64, 0u64), |(d, c), keys| {
            (
                d.wrapping_add(crate::request::keys_digest(keys)),
                c + keys.len() as u64,
            )
        })
    }

    /// Every key the chaining table stores, across all worker shards
    /// (unsorted). The cross-worker scan [`Request::ShardKeys`] filters.
    pub(crate) fn chain_keys(&self) -> Vec<fol_vm::Word> {
        let g = self
            .chain_shards
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        g.iter().flat_map(|keys| keys.iter().copied()).collect()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Starts sequence numbering above everything recorded history has
    /// seen. Called once at startup, before any submission.
    pub(crate) fn set_next_seq(&self, next_seq: u64) {
        self.lock().next_seq = next_seq;
    }

    /// Appends one record to the request log, counting it. Returns the
    /// typed error on failure; a no-op without durability.
    pub(crate) fn wal_append(&self, payload: &[u8]) -> Result<(), ServeError> {
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        let mut w = wal.lock().unwrap_or_else(PoisonError::into_inner);
        w.append(payload)
            .map_err(|error| ServeError::Persist { error })?;
        self.stats.wal_appends.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Appends a group of records with one write syscall — the worker's
    /// per-batch completion records. Same counting and typing as
    /// [`Shared::wal_append`]; a no-op without durability.
    pub(crate) fn wal_append_all(&self, payloads: &[Vec<u8>]) -> Result<(), ServeError> {
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        let mut w = wal.lock().unwrap_or_else(PoisonError::into_inner);
        w.append_all(payloads)
            .map_err(|error| ServeError::Persist { error })?;
        self.stats
            .wal_appends
            .fetch_add(payloads.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Forces pending log appends to stable storage (per the fsync
    /// policy). Workers call this after appending a batch's completion
    /// records, before demultiplexing outcomes.
    pub(crate) fn wal_commit(&self) -> Result<(), ServeError> {
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        let mut w = wal.lock().unwrap_or_else(PoisonError::into_inner);
        w.commit().map_err(|error| ServeError::Persist { error })
    }

    /// Logs one admission record; without durability nothing is encoded.
    fn log_admit(
        &self,
        seq: u64,
        request: &Request,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Result<(), ServeError> {
        if self.wal.is_none() {
            return Ok(());
        }
        self.wal_append(&encode_admit(seq, request, priority, deadline))
    }

    /// Admits one request, or refuses it synchronously with a typed error:
    /// [`ServeError::ShuttingDown`] after [`Shared::begin_shutdown`],
    /// [`ServeError::Overloaded`] when the bounded queue is full,
    /// [`ServeError::Persist`] when the admission record cannot be logged
    /// (a durable server acknowledges nothing it cannot re-drive).
    ///
    /// With durability on, the admission record hits the write-ahead log
    /// **before** the [`Ticket`] exists — under [`fol_persist::FsyncPolicy::Always`]
    /// it is on stable storage before the caller sees the acknowledgement.
    pub(crate) fn submit(
        &self,
        request: Request,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServeError> {
        let mut g = self.lock();
        if g.shutdown {
            return Err(ServeError::ShuttingDown);
        }
        if g.total >= self.capacity {
            self.stats.overloaded.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded {
                capacity: self.capacity,
            });
        }
        let seq = g.next_seq;
        g.next_seq += 1;
        // Log before enqueueing: a failure here burns the sequence number
        // but admits nothing — no ticket, no queue entry, no log record
        // that could replay.
        self.log_admit(seq, &request, priority, deadline)?;
        let ticket = self.enqueue(&mut g, seq, request, priority, deadline);
        drop(g);
        self.work_cv.notify_all();
        Ok(ticket)
    }

    /// Admits a group of requests under ONE queue lock and ONE worker
    /// notification, with per-request outcomes — the same admission rules
    /// as [`Shared::submit`], item by item. A network front-end that
    /// decoded a pipelined burst commits it here so the per-submission
    /// lock/notify cost is paid once per burst, not once per request.
    pub(crate) fn submit_many(
        &self,
        items: Vec<(Request, Priority, Option<Duration>)>,
    ) -> Vec<Result<Ticket, ServeError>> {
        let mut out = Vec::with_capacity(items.len());
        let mut g = self.lock();
        for (request, priority, deadline) in items {
            if g.shutdown {
                out.push(Err(ServeError::ShuttingDown));
                continue;
            }
            if g.total >= self.capacity {
                self.stats.overloaded.fetch_add(1, Ordering::Relaxed);
                out.push(Err(ServeError::Overloaded {
                    capacity: self.capacity,
                }));
                continue;
            }
            let seq = g.next_seq;
            g.next_seq += 1;
            match self.log_admit(seq, &request, priority, deadline) {
                Ok(()) => out.push(Ok(self.enqueue(&mut g, seq, request, priority, deadline))),
                Err(e) => out.push(Err(e)),
            }
        }
        drop(g);
        self.work_cv.notify_all();
        out
    }

    /// Re-admits one acknowledged request recovered from the log at
    /// startup, under its **original** sequence number. Bypasses the
    /// capacity bound (an acknowledged request outranks backpressure) and
    /// does not re-log the admission — the original admit record is still
    /// in an earlier segment, and this run's completion record will pair
    /// with it.
    pub(crate) fn resubmit(&self, seq: u64, request: Request, priority: Priority) {
        let mut g = self.lock();
        let _ = self.enqueue(&mut g, seq, request, priority, None);
        self.stats.wal_replayed.fetch_add(1, Ordering::Relaxed);
        drop(g);
        self.work_cv.notify_all();
    }

    fn enqueue(
        &self,
        g: &mut Inner,
        seq: u64,
        request: Request,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Ticket {
        let now = Instant::now();
        let slot = Arc::new(Slot::new());
        let l = lane_of(&request);
        g.lanes[l].push_back(Pending {
            seq,
            request,
            priority,
            deadline: deadline.map(|d| now + d),
            enqueued: now,
            slot: Arc::clone(&slot),
        });
        g.total += 1;
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        Ticket { slot }
    }

    /// Marks the server as draining: no new admissions, every queued
    /// request becomes immediately flushable.
    pub(crate) fn begin_shutdown(&self) {
        self.lock().shutdown = true;
        self.work_cv.notify_all();
    }

    /// Completes and removes every queued request whose deadline has
    /// passed. Runs under the queue lock on every drain attempt, so an
    /// expired request is shed the next time any worker looks at the queue.
    /// The counters and the log record come first, so a caller that sees
    /// its outcome also sees it counted and logged.
    fn purge_expired(&self, g: &mut Inner, now: Instant) {
        let mut shed: Vec<(u64, Arc<Slot>)> = Vec::new();
        for deque in &mut g.lanes {
            deque.retain(|p| match p.deadline {
                Some(d) if d <= now => {
                    shed.push((p.seq, Arc::clone(&p.slot)));
                    false
                }
                _ => true,
            });
        }
        if shed.is_empty() {
            return;
        }
        g.total -= shed.len();
        self.stats
            .deadline_expired
            .fetch_add(shed.len() as u64, Ordering::Relaxed);
        self.stats
            .completed
            .fetch_add(shed.len() as u64, Ordering::Relaxed);
        // The shed outcome is terminal: record it so a restart does not
        // re-drive a request whose caller already saw DeadlineExceeded.
        // Best-effort (the caller has its typed outcome either way).
        for (seq, _) in &shed {
            let _ = self.wal_append(&encode_complete(*seq, false));
        }
        // Completing under the lock is fine: Slot has its own mutex.
        for (_, slot) in shed {
            slot.complete(Err(ServeError::DeadlineExceeded));
        }
    }

    /// A coalescable lane is ready when it holds a full batch, its oldest
    /// entry has lingered past `max_wait`, or the server is draining. With
    /// `max_wait` zero, the default, every entry has lingered long enough,
    /// so a non-empty lane is ready at once and the worker takes whatever
    /// it holds. A control lane is ready as soon as it is non-empty: its
    /// batches hold one request, so lingering could only delay it.
    fn lane_ready(&self, g: &Inner, l: usize, now: Instant) -> bool {
        let deque = &g.lanes[l];
        if deque.is_empty() {
            return false;
        }
        kind_of_lane(l) == Kind::Control
            || g.shutdown
            || deque.len() >= self.max_batch
            || deque
                .iter()
                .any(|p| now.duration_since(p.enqueued) >= self.max_wait)
    }

    /// Extracts up to `max_batch` requests from lane `l` by descending
    /// priority (ties in submission order). Control batches are size 1 —
    /// they are never coalesced.
    fn take_batch(&self, g: &mut Inner, l: usize) -> Batch {
        let kind = kind_of_lane(l);
        let cap = if kind == Kind::Control {
            1
        } else {
            self.max_batch
        };
        let mut all: Vec<Pending> = g.lanes[l].drain(..).collect();
        all.sort_by_key(|p| (std::cmp::Reverse(p.priority), p.seq));
        let rest = all.split_off(all.len().min(cap));
        for p in rest.into_iter().rev() {
            g.lanes[l].push_front(p);
        }
        g.total -= all.len();
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.stats
            .coalesced_requests
            .fetch_add(all.len() as u64, Ordering::Relaxed);
        Batch { kind, items: all }
    }

    /// One drain attempt for a worker serving the given lanes: purges
    /// expired requests, then returns the first ready lane's batch.
    /// `Err(true)` means "no work and the server is draining" (exit);
    /// `Err(false)` means "nothing ready right now" (scrub, then park).
    pub(crate) fn next_batch(&self, lanes_served: &[usize]) -> Result<Batch, bool> {
        let mut g = self.lock();
        let now = Instant::now();
        self.purge_expired(&mut g, now);
        for &l in lanes_served {
            if self.lane_ready(&g, l, now) {
                return Ok(self.take_batch(&mut g, l));
            }
        }
        if g.shutdown {
            // Drained from this worker's perspective only when every lane it
            // serves is empty (other lanes belong to other workers).
            let empty = lanes_served.iter().all(|&l| g.lanes[l].is_empty());
            return Err(empty);
        }
        Err(false)
    }

    /// Parks the calling worker until new work may exist: a submission's
    /// notification, the earliest linger deadline among the lanes it
    /// serves, or `tick`, whichever comes first. The lanes are re-checked
    /// under the queue lock first, so a submission that landed after the
    /// worker's last [`Shared::next_batch`] is never slept through.
    pub(crate) fn park(&self, lanes_served: &[usize], tick: Duration) {
        let g = self.lock();
        let now = Instant::now();
        if g.shutdown || lanes_served.iter().any(|&l| self.lane_ready(&g, l, now)) {
            return;
        }
        let wait = lanes_served
            .iter()
            .flat_map(|&l| g.lanes[l].iter())
            .map(|p| self.max_wait.saturating_sub(now.duration_since(p.enqueued)))
            .fold(tick, Duration::min);
        let _ = self
            .work_cv
            .wait_timeout(g, wait)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared() -> Shared {
        Shared::new(4, 8, Duration::from_millis(0), None, None, 1)
    }

    #[test]
    fn bounded_queue_refuses_typed_overload() {
        let s = shared();
        let mut tickets = Vec::new();
        for i in 0..4 {
            tickets.push(
                s.submit(
                    Request::ChainInsert { keys: vec![i] },
                    Priority::Normal,
                    None,
                )
                .expect("under capacity"),
            );
        }
        let err = s
            .submit(
                Request::ChainInsert { keys: vec![9] },
                Priority::Normal,
                None,
            )
            .unwrap_err();
        assert_eq!(err, ServeError::Overloaded { capacity: 4 });
        assert_eq!(s.stats.snapshot().overloaded, 1);
    }

    #[test]
    fn batches_drain_by_priority_then_seq() {
        let s = shared();
        let _t1 = s
            .submit(Request::ChainInsert { keys: vec![1] }, Priority::Low, None)
            .unwrap();
        let _t2 = s
            .submit(Request::ChainInsert { keys: vec![2] }, Priority::High, None)
            .unwrap();
        let _t3 = s
            .submit(Request::ChainInsert { keys: vec![3] }, Priority::High, None)
            .unwrap();
        // max_wait of zero: the lane is ready immediately.
        let b = s.next_batch(&[LANE_CHAIN_INSERT]).expect("ready");
        let order: Vec<u64> = b.items.iter().map(|p| p.seq).collect();
        assert_eq!(order, vec![1, 2, 0], "High (seq order), then Low");
    }

    #[test]
    fn expired_requests_complete_typed_not_silently() {
        let s = shared();
        let t = s
            .submit(
                Request::BstInsert { keys: vec![1] },
                Priority::Normal,
                Some(Duration::from_millis(0)),
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(2));
        // Any drain attempt sheds it, even one serving a different lane.
        assert!(s.next_batch(&[LANE_OA_INSERT]).is_err());
        assert_eq!(t.wait(), Err(ServeError::DeadlineExceeded));
        let snap = s.stats.snapshot();
        assert_eq!(snap.deadline_expired, 1);
        assert_eq!(snap.completed, 1);
    }

    #[test]
    fn shutdown_refuses_new_and_flushes_old() {
        let s = shared();
        let _t = s
            .submit(
                Request::ChainInsert { keys: vec![1] },
                Priority::Normal,
                None,
            )
            .unwrap();
        s.begin_shutdown();
        assert_eq!(
            s.submit(
                Request::ChainInsert { keys: vec![2] },
                Priority::Normal,
                None
            )
            .unwrap_err(),
            ServeError::ShuttingDown
        );
        let b = s
            .next_batch(&[LANE_CHAIN_INSERT])
            .expect("flushed by drain");
        assert_eq!(b.items.len(), 1);
        assert_eq!(s.next_batch(&[LANE_CHAIN_INSERT]), Err(true), "drained");
    }

    #[test]
    fn the_default_config_serves_a_lone_request_at_once() {
        // No backlog, so no company to wait for: the first drain takes it.
        let s = Shared::new(4, 8, crate::ServerConfig::default().max_wait, None, None, 1);
        let _t = s
            .submit(Request::OaLookup { keys: vec![1] }, Priority::Normal, None)
            .unwrap();
        let b = s.next_batch(&[LANE_OA_LOOKUP]).expect("ready at once");
        assert_eq!(b.items.len(), 1);
    }

    #[test]
    fn park_never_sleeps_through_a_submission_or_its_linger_deadline() {
        let tick = Duration::from_secs(5);
        // Ready at once (zero linger): the submission lands between the
        // empty drain and the park, whose notification nobody heard.
        let s = shared();
        assert!(s.next_batch(&[LANE_CHAIN_INSERT]).is_err());
        let _t = s
            .submit(
                Request::ChainInsert { keys: vec![1] },
                Priority::Normal,
                None,
            )
            .unwrap();
        let start = Instant::now();
        s.park(&[LANE_CHAIN_INSERT], tick);
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "{:?}",
            start.elapsed()
        );
        // Lingering: park wakes at the lane's linger deadline, not the tick.
        let s = Shared::new(4, 8, Duration::from_millis(30), None, None, 1);
        assert!(s.next_batch(&[LANE_CHAIN_INSERT]).is_err());
        let _t = s
            .submit(
                Request::ChainInsert { keys: vec![1] },
                Priority::Normal,
                None,
            )
            .unwrap();
        let start = Instant::now();
        while s.next_batch(&[LANE_CHAIN_INSERT]).is_err() {
            s.park(&[LANE_CHAIN_INSERT], tick);
        }
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "{:?}",
            start.elapsed()
        );
    }

    impl PartialEq for Batch {
        fn eq(&self, other: &Self) -> bool {
            self.kind == other.kind && self.items.len() == other.items.len()
        }
    }
    impl std::fmt::Debug for Batch {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "Batch({:?} x{})", self.kind, self.items.len())
        }
    }
}
