//! The shared admission queue: bounded, typed backpressure, per-kind lanes.
//!
//! Clients [`Shared::submit_many`] a burst: its slots, tickets and log
//! records are built first, and the queue lock covers only numbering, the
//! log write and linking. Workers drain under the same lock via
//! [`Shared::next_batch`], which also purges deadline-expired requests
//! (completing them with a typed [`ServeError::DeadlineExceeded`], never a
//! silent drop) once the earliest queued deadline has passed. Each lane
//! keeps a FIFO per priority, so a batch pops a prefix in take order and
//! readiness reads only the fronts: every step under the lock costs O(1)
//! per request moved. The scheduler is work-conserving by default:
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
//!
//! A durable server also logs here. [`Shared::submit_many`] frames a
//! burst's admission records before the queue lock, then numbers them and
//! writes them with one log write under it, before any of the burst's
//! tickets is handed out, so log order is sequence order. A worker appends
//! its batch's completion records with one write and then group-commits
//! ([`Shared::wal_commit`]): the `fdatasync` runs outside the log mutex, so
//! admissions and other workers' appends go on during it, and one sync
//! covers every record appended before it began.
//! Lock order: `inner` → `wal`, and `wal_sync` → `wal`; below
//! [`fol_persist::FsyncPolicy::Always`] no lock but `wal_sync` is held
//! across a sync.

use crate::durability::{encode_admit, encode_complete, set_admit_seq};
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

/// One queue lane, kept in take order: a FIFO per priority, each in
/// sequence order, so a batch pops the fronts from `High` down and the
/// oldest entry of each priority is its front.
#[derive(Default)]
struct Lane {
    /// Indexed by `Priority as usize`.
    fifos: [VecDeque<Pending>; 3],
}

impl Lane {
    fn len(&self) -> usize {
        self.fifos.iter().map(VecDeque::len).sum()
    }

    fn is_empty(&self) -> bool {
        self.fifos.iter().all(VecDeque::is_empty)
    }

    /// Links an entry behind every entry of its priority; entries arrive
    /// in sequence order.
    fn push(&mut self, p: Pending) {
        let fifo = &mut self.fifos[p.priority as usize];
        debug_assert!(fifo.back().is_none_or(|b| b.seq < p.seq));
        fifo.push_back(p);
    }

    /// When the lane's oldest entry was enqueued: the earliest of the
    /// fronts. A burst reads the clock before it takes the queue lock, so
    /// a front may be younger than an entry behind it by one lock wait.
    fn oldest(&self) -> Option<Instant> {
        self.fifos
            .iter()
            .filter_map(|f| f.front())
            .map(|p| p.enqueued)
            .min()
    }

    /// Pops up to `cap` entries by descending priority, ties in sequence
    /// order.
    fn take(&mut self, cap: usize) -> Vec<Pending> {
        let mut out = Vec::with_capacity(cap.min(self.len()));
        for fifo in self.fifos.iter_mut().rev() {
            let n = (cap - out.len()).min(fifo.len());
            out.extend(fifo.drain(..n));
        }
        out
    }
}

pub(crate) struct Inner {
    lanes: [Lane; LANES],
    total: usize,
    next_seq: u64,
    /// No queued deadline is earlier than this; `None` when no queued entry
    /// has one. An entry that leaves in a batch may leave it early, which
    /// costs one purge scan that finds nothing and recomputes it.
    earliest_deadline: Option<Instant>,
    pub(crate) shutdown: bool,
}

impl Inner {
    /// Links admitted entries into their lanes.
    fn link(&mut self, entries: impl IntoIterator<Item = Pending>) {
        for p in entries {
            if let Some(d) = p.deadline {
                self.earliest_deadline = Some(self.earliest_deadline.map_or(d, |e| e.min(d)));
            }
            self.total += 1;
            self.lanes[lane_of(&p.request)].push(p);
        }
    }
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
    pub(crate) wal_syncs: AtomicU64,
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
    /// `fdatasync`s the request log ran: group commits, rotations' syncs of
    /// the sealed segment, and per-append syncs under
    /// [`fol_persist::FsyncPolicy::Always`]. With
    /// [`StatsSnapshot::batches`] it shows how many batch commits one sync
    /// covered. Zero without durability or under `FsyncPolicy::Off`.
    pub wal_syncs: u64,
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
            wal_syncs: self.wal_syncs.load(Ordering::Relaxed),
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
    /// The write-ahead request log, when the server runs durable. Appends
    /// take this mutex: admissions under `inner`, so log order is sequence
    /// order. Below [`fol_persist::FsyncPolicy::Always`] no `fdatasync`
    /// runs under it: a group commit ([`Shared::wal_commit`]) syncs outside
    /// it. Lock order: `inner` → `wal` and `wal_sync` → `wal`, never the
    /// reverse.
    wal: Option<Mutex<Wal>>,
    /// Held by the group commit whose `fdatasync` is in flight. A committer
    /// that finds it taken waits, then syncs only if its own records lie
    /// past the durable watermark that sync left.
    wal_sync: Mutex<()>,
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
                earliest_deadline: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            capacity,
            max_batch,
            max_wait,
            stats: StatCells::default(),
            wal: wal.map(Mutex::new),
            wal_sync: Mutex::new(()),
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

    /// Runs `f` on the request log under its mutex, then publishes the
    /// log's sync count; `None` without durability.
    pub(crate) fn with_wal<R>(&self, f: impl FnOnce(&mut Wal) -> R) -> Option<R> {
        let mut w = self
            .wal
            .as_ref()?
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let r = f(&mut w);
        self.stats.wal_syncs.store(w.syncs(), Ordering::Relaxed);
        Some(r)
    }

    /// Appends a group of records with one write syscall, counting them.
    /// Returns the log's append count after them: the mark a
    /// [`Shared::wal_commit`] must make durable. A no-op without
    /// durability.
    fn wal_append_all(&self, payloads: &[Vec<u8>]) -> Result<u64, ServeError> {
        let Some(appended) = self.with_wal(|w| w.append_all(payloads).map(|()| w.appends())) else {
            return Ok(0);
        };
        let through = appended.map_err(|error| ServeError::Persist { error })?;
        self.stats
            .wal_appends
            .fetch_add(payloads.len() as u64, Ordering::Relaxed);
        Ok(through)
    }

    /// Group commit: makes the log's first `through` records durable, per
    /// the fsync policy, without holding the log mutex across the
    /// `fdatasync`. A committer that finds a sync in flight waits for it,
    /// then syncs only if its own records lie past the watermark that sync
    /// left; a sync covers every record appended before it began. A no-op
    /// without durability.
    fn wal_commit(&self, through: u64) -> Result<(), ServeError> {
        let _one_sync = self.wal_sync.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(Some(sync)) = self.with_wal(|w| w.begin_sync(through)) else {
            return Ok(());
        };
        let done = sync.run().map_err(|error| ServeError::Persist { error })?;
        self.with_wal(|w| w.finish_sync(done));
        Ok(())
    }

    /// Logs a batch's completion records with one write and group-commits
    /// them, with every record appended before them, ahead of the batch's
    /// acknowledgements. Best-effort: the callers keep their typed
    /// outcomes either way, a lost record only widens the at-least-once
    /// replay window, and a failed append still commits what the log holds.
    pub(crate) fn wal_complete(&self, completes: &[Vec<u8>]) {
        let through = self
            .wal_append_all(completes)
            .unwrap_or_else(|_| self.with_wal(|w| w.appends()).unwrap_or(0));
        let _ = self.wal_commit(through);
    }

    /// Admits one request, or refuses it synchronously with a typed error;
    /// see [`Shared::submit_many`].
    pub(crate) fn submit(
        &self,
        request: Request,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServeError> {
        self.submit_many(vec![(request, priority, deadline)])
            .pop()
            .expect("one outcome per item")
    }

    /// Admits a group of requests under ONE queue lock and ONE worker
    /// notification, with per-request outcomes. A network front-end that
    /// decoded a pipelined burst commits it here so the per-submission
    /// lock/notify cost is paid once per burst, not once per request. Each
    /// item is refused synchronously with a typed error, or admitted:
    /// [`ServeError::ShuttingDown`] after [`Shared::begin_shutdown`],
    /// [`ServeError::Overloaded`] when the bounded queue is full.
    ///
    /// The burst reads the clock once and builds every slot, ticket and
    /// admission record before it takes the queue lock, which then covers
    /// only numbering, the log write and linking.
    ///
    /// With durability on, every admissible item's record is framed into
    /// ONE log write under the queue lock, **before** any of the burst's
    /// [`Ticket`]s is handed out — under [`fol_persist::FsyncPolicy::Always`]
    /// that write is on stable storage before any caller sees an
    /// acknowledgement. When the write fails, every admissible item of the
    /// burst is refused with [`ServeError::Persist`] (a durable server
    /// acknowledges nothing it cannot re-drive): the sequence numbers are
    /// burned, and no ticket, queue entry or replayable record exists.
    pub(crate) fn submit_many(
        &self,
        items: Vec<(Request, Priority, Option<Duration>)>,
    ) -> Vec<Result<Ticket, ServeError>> {
        let now = Instant::now();
        let mut records: Vec<Vec<u8>> = Vec::new();
        let mut tickets = Vec::with_capacity(items.len());
        let mut entries: Vec<Pending> = items
            .into_iter()
            .map(|(request, priority, deadline)| {
                if self.wal.is_some() {
                    records.push(encode_admit(0, &request, priority, deadline));
                }
                let slot = Arc::new(Slot::new());
                tickets.push(Ticket {
                    slot: Arc::clone(&slot),
                });
                Pending {
                    seq: 0,
                    request,
                    priority,
                    deadline: deadline.map(|d| now + d),
                    enqueued: now,
                    slot,
                }
            })
            .collect();
        let mut g = self.lock();
        // Items are judged in order against the same queue, so the admitted
        // ones are a prefix: none after shutdown, else as many as fit.
        let shutdown = g.shutdown;
        let admitted = if shutdown {
            0
        } else {
            self.capacity.saturating_sub(g.total).min(entries.len())
        };
        let first_seq = g.next_seq;
        g.next_seq += admitted as u64;
        for (p, seq) in entries[..admitted].iter_mut().zip(first_seq..) {
            p.seq = seq;
        }
        records.truncate(admitted);
        for (r, seq) in records.iter_mut().zip(first_seq..) {
            set_admit_seq(r, seq);
        }
        let logged = self.wal_append_all(&records).map(|_| ());
        let linked = if logged.is_ok() { admitted } else { 0 };
        g.link(entries.drain(..linked));
        self.stats
            .submitted
            .fetch_add(linked as u64, Ordering::Relaxed);
        drop(g);
        if linked > 0 {
            self.work_cv.notify_all();
        }
        let refused = tickets.len() - admitted;
        if refused > 0 && !shutdown {
            self.stats
                .overloaded
                .fetch_add(refused as u64, Ordering::Relaxed);
        }
        // Dropped here, outside the lock: the entries never linked.
        drop(entries);
        tickets
            .into_iter()
            .enumerate()
            .map(|(i, ticket)| {
                if i >= admitted {
                    return Err(if shutdown {
                        ServeError::ShuttingDown
                    } else {
                        ServeError::Overloaded {
                            capacity: self.capacity,
                        }
                    });
                }
                logged.clone().map(|()| ticket)
            })
            .collect()
    }

    /// Re-admits one acknowledged request recovered from the log at
    /// startup, under its **original** sequence number. Bypasses the
    /// capacity bound (an acknowledged request outranks backpressure) and
    /// does not re-log the admission — the original admit record is still
    /// in an earlier segment, and this run's completion record will pair
    /// with it. Startup re-drives in sequence order, before any submission.
    pub(crate) fn resubmit(&self, seq: u64, request: Request, priority: Priority) {
        let entry = Pending {
            seq,
            request,
            priority,
            deadline: None,
            enqueued: Instant::now(),
            slot: Arc::new(Slot::new()),
        };
        let mut g = self.lock();
        g.link([entry]);
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        self.stats.wal_replayed.fetch_add(1, Ordering::Relaxed);
        drop(g);
        self.work_cv.notify_all();
    }

    /// Marks the server as draining: no new admissions, every queued
    /// request becomes immediately flushable.
    pub(crate) fn begin_shutdown(&self) {
        self.lock().shutdown = true;
        self.work_cv.notify_all();
    }

    /// Completes and removes every queued request whose deadline has
    /// passed. Runs under the queue lock on every drain attempt, but scans
    /// the lanes only once the earliest queued deadline has passed, so an
    /// expired request is shed the next time any worker looks at the queue
    /// and a queue without deadlines costs one comparison. The counters and
    /// the log record come first, so a caller that sees its outcome also
    /// sees it counted and logged.
    fn purge_expired(&self, g: &mut Inner, now: Instant) {
        if g.earliest_deadline.is_none_or(|d| d > now) {
            return;
        }
        let mut shed: Vec<(u64, Arc<Slot>)> = Vec::new();
        let mut earliest: Option<Instant> = None;
        for fifo in g.lanes.iter_mut().flat_map(|l| &mut l.fifos) {
            fifo.retain(|p| match p.deadline {
                Some(d) if d <= now => {
                    shed.push((p.seq, Arc::clone(&p.slot)));
                    false
                }
                Some(d) => {
                    earliest = Some(earliest.map_or(d, |e| e.min(d)));
                    true
                }
                None => true,
            });
        }
        g.earliest_deadline = earliest;
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
        // The shed outcome is terminal: record it, with one write, so a
        // restart does not re-drive a request whose caller already saw
        // DeadlineExceeded. Best-effort (the caller has its typed outcome
        // either way).
        if self.wal.is_some() {
            let records: Vec<Vec<u8>> = shed
                .iter()
                .map(|(seq, _)| encode_complete(*seq, false))
                .collect();
            let _ = self.wal_append_all(&records);
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
        let lane = &g.lanes[l];
        let Some(oldest) = lane.oldest() else {
            return false;
        };
        kind_of_lane(l) == Kind::Control
            || g.shutdown
            || now.duration_since(oldest) >= self.max_wait
            || lane.len() >= self.max_batch
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
        let all = g.lanes[l].take(cap);
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
            .filter_map(|&l| g.lanes[l].oldest())
            .map(|oldest| self.max_wait.saturating_sub(now.duration_since(oldest)))
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
    use fol_vm::Word;

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

    fn chain(key: Word) -> Request {
        Request::ChainInsert { keys: vec![key] }
    }

    /// Drains `lanes` until nothing is ready, returning each batch's seqs.
    fn drain(s: &Shared, lanes: &[usize]) -> Vec<Vec<u64>> {
        let mut out = Vec::new();
        while let Ok(b) = s.next_batch(lanes) {
            out.push(b.items.iter().map(|p| p.seq).collect());
        }
        out
    }

    #[test]
    fn a_long_lane_drains_by_priority_then_sequence_across_batches() {
        let s = Shared::new(64, 4, Duration::ZERO, None, None, 1);
        let priorities = [Priority::Low, Priority::High, Priority::Normal];
        let mut tickets = Vec::new();
        let mut expected: Vec<(std::cmp::Reverse<Priority>, u64)> = Vec::new();
        // Single submissions and bursts interleave the three priorities.
        for i in 0..7u64 {
            let p = priorities[(i * 5 % 3) as usize];
            tickets.push(s.submit(chain(i as Word), p, None).unwrap());
            expected.push((std::cmp::Reverse(p), i));
        }
        let burst: Vec<_> = (7..15u64)
            .map(|i| (chain(i as Word), priorities[(i % 3) as usize], None))
            .collect();
        for (i, (_, p, _)) in (7..).zip(&burst) {
            expected.push((std::cmp::Reverse(*p), i));
        }
        tickets.extend(s.submit_many(burst).into_iter().map(Result::unwrap));
        expected.sort_unstable();
        let batches = drain(&s, &[LANE_CHAIN_INSERT]);
        assert!(batches.iter().all(|b| b.len() <= 4), "{batches:?}");
        assert_eq!(batches.len(), 4, "15 entries in batches of at most 4");
        let order: Vec<u64> = batches.concat();
        let want: Vec<u64> = expected.iter().map(|&(_, seq)| seq).collect();
        assert_eq!(order, want);
        assert_eq!(s.lock().total, 0);
    }

    #[test]
    fn an_expired_entry_is_shed_after_the_earliest_deadline_left_in_a_batch() {
        let s = Shared::new(8, 1, Duration::ZERO, None, None, 1);
        // The High entry sets the earliest deadline and leaves in the
        // first batch; the Low entry behind it expires later.
        let ms = Duration::from_millis;
        let _first = s.submit(chain(1), Priority::High, Some(ms(200))).unwrap();
        let late = s.submit(chain(2), Priority::Low, Some(ms(250))).unwrap();
        let keep = s.submit(chain(3), Priority::Low, None).unwrap();
        let b = s.next_batch(&[LANE_CHAIN_INSERT]).expect("ready");
        assert_eq!(b.items[0].seq, 0);
        std::thread::sleep(ms(300));
        // A drain of another lane sheds it (counted before it completes,
        // so a queue that kept it fails here rather than blocking below).
        assert!(s.next_batch(&[LANE_OA_INSERT]).is_err());
        assert_eq!(s.stats.snapshot().deadline_expired, 1);
        assert_eq!(late.wait(), Err(ServeError::DeadlineExceeded));
        assert_eq!(drain(&s, &[LANE_CHAIN_INSERT]), vec![vec![2]]);
        drop(keep);
    }

    #[test]
    fn under_a_linger_readiness_follows_the_oldest_entry_of_any_priority() {
        let linger = Duration::from_millis(400);
        let s = Shared::new(8, 8, linger, None, None, 1);
        let t0 = Instant::now();
        let _low = s.submit(chain(1), Priority::Low, None).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        let _high = s.submit(chain(2), Priority::High, None).unwrap();
        assert!(
            s.next_batch(&[LANE_CHAIN_INSERT]).is_err(),
            "neither entry has lingered yet"
        );
        std::thread::sleep((linger + Duration::from_millis(20)).saturating_sub(t0.elapsed()));
        // The High front is younger than the linger; the Low one is not.
        let b = s
            .next_batch(&[LANE_CHAIN_INSERT])
            .expect("the oldest has lingered");
        let order: Vec<u64> = b.items.iter().map(|p| p.seq).collect();
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn an_overflowing_burst_refuses_exactly_its_tail_and_leaves_nothing_behind() {
        let s = shared(); // capacity 4
        let _a = s.submit(chain(0), Priority::Normal, None).unwrap();
        let _b = s.submit(chain(1), Priority::High, None).unwrap();
        let burst: Vec<_> = (2..7).map(|k| (chain(k), Priority::Low, None)).collect();
        let out = s.submit_many(burst);
        assert_eq!(out.len(), 5);
        let admitted: Vec<Ticket> = out[..2]
            .iter()
            .map(|r| Ticket {
                slot: Arc::clone(&r.as_ref().expect("fits").slot),
            })
            .collect();
        for r in &out[2..] {
            assert_eq!(
                r.as_ref().unwrap_err(),
                &ServeError::Overloaded { capacity: 4 }
            );
        }
        // Each admitted slot is held by its ticket, its copy above and its
        // queue entry; the refused tail left no entry and no number.
        assert!(admitted.iter().all(|t| Arc::strong_count(&t.slot) == 3));
        {
            let g = s.lock();
            assert_eq!(g.total, 4);
            assert_eq!(g.lanes.iter().map(Lane::len).sum::<usize>(), 4);
            assert_eq!(g.next_seq, 4);
        }
        let snap = s.stats.snapshot();
        assert_eq!((snap.submitted, snap.overloaded), (4, 3));
        assert_eq!(drain(&s, &[LANE_CHAIN_INSERT]), vec![vec![1, 0, 2, 3]]);
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
