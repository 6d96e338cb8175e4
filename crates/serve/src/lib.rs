//! # fol-serve: a batching request-service layer over the FOL workloads
//!
//! The paper's method (filtering-overwritten-label, Kanada SC'91) earns its
//! keep on *large* index vectors: one transaction over 256 keys amortizes
//! the scatter/gather and FOL-check overhead that 256 one-key transactions
//! each pay in full. Real request traffic, though, arrives as many small
//! independent requests. This crate closes that gap with a serving layer:
//!
//! * a **typed request model** ([`Request`]/[`Response`]/[`ServeError`]) —
//!   every submitted request terminates with a per-request outcome, never a
//!   silent drop;
//! * a bounded **admission queue** with typed backpressure
//!   ([`ServeError::Overloaded`]) and deadline-based load-shedding
//!   ([`ServeError::DeadlineExceeded`]);
//! * a **work-conserving coalescing scheduler**: a worker that asks for
//!   work takes every compatible request its lane holds, up to
//!   [`ServerConfig::max_batch`], and merges them into a single large
//!   index vector per `txn_*` transaction, so a batch is as long as the
//!   backlog behind it and a lone request runs at once (an optional
//!   [`ServerConfig::max_wait`] linger holds a short lane back for
//!   company); per-request results are demultiplexed back to their
//!   callers;
//! * a **machine pool**: worker threads each owning a [`fol_vm::Machine`]
//!   with tracked (checksummed) regions, the machine's committed image,
//!   and the full recovery ladder via [`fol_core::recover::RetryPolicy`];
//!   a panicking worker is respawned from its committed state;
//! * **idle-time integrity**: when its lanes are empty, a worker scrubs a
//!   bounded slice of tracked blocks per tick and repairs detected bit-rot
//!   from the committed image. A batch that runs first cannot adopt the
//!   rot either: its commit is certified by a scrub of every block it
//!   touched, and rot elsewhere never reaches its result or the image.
//!
//! ## Quickstart
//!
//! ```
//! use fol_serve::{Request, Response, Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig::default());
//! // Submit small independent requests; a free worker takes whatever is
//! // queued, so they coalesce as far as a backlog builds.
//! let tickets: Vec<_> = (0..32)
//!     .map(|k| server.submit(Request::ChainInsert { keys: vec![k] }).unwrap())
//!     .collect();
//! for t in tickets {
//!     assert!(matches!(t.wait(), Ok(Response::ChainInserted { .. })));
//! }
//! // Lookups against the open-addressing table go through the same queue.
//! server.call(Request::OaInsert { keys: vec![7, 9] }).unwrap();
//! let found = server.call(Request::OaLookup { keys: vec![7, 8] }).unwrap();
//! assert_eq!(found, Response::OaLookedUp { found: vec![true, false] });
//! let report = server.shutdown();
//! assert_eq!(report.stats.submitted, report.stats.completed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod durability;
mod pool;
mod queue;
mod request;
mod scrub;
pub mod shard;
mod writer;

pub use durability::{
    decode_record, encode_admit, worker_prefix, DurRecord, DurabilityConfig, REQUEST_LOG_PREFIX,
};
pub use fol_persist::{FsyncPolicy, PersistError, SkipReason, SkippedGeneration};
pub use pool::ClassDump;
pub use queue::{StatsSnapshot, Ticket};
pub use request::{
    decode_keys, encode_keys, keys_digest, Priority, Request, Response, ServeError, WorkloadClass,
};
pub use shard::{shard_of, GateStats, ShardAssignment, ShardGate, NO_SHARD};

use durability::{plan_replay, ReplayPlan};
use fol_core::recover::RetryPolicy;
use fol_hash::ProbeStrategy;
use fol_persist::{wal, Checkpoint, RecoveryPlanner, Wal};
use fol_vm::FaultPlan;
use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Everything a [`Server`] needs to size its pool, queue, and structures.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads, each owning one machine (chaining is sharded across
    /// all of them; the open-addressing table and BST have single owners).
    pub workers: usize,
    /// Bound on queued-but-undrained requests across all lanes; submissions
    /// past it fail fast with [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Most requests coalesced into one transaction's index vector.
    pub max_batch: usize,
    /// Linger: how long the oldest queued request of a kind may wait for
    /// company before its lane is drained short of `max_batch`. Zero by
    /// default: the scheduler is work-conserving, so a worker that asks
    /// for work takes whatever its lanes hold and batch size follows the
    /// backlog. A non-zero linger makes a short batch longer at the price
    /// of that much latency; it pays only where a batch's fixed cost
    /// outweighs the wait. The repository benchmark's ingest workloads set
    /// 200 µs, and tests that need requests to stay queued set seconds.
    pub max_wait: Duration,
    /// How long an idle worker parks between scrub slices.
    pub idle_tick: Duration,
    /// Buckets per chaining-table shard.
    pub chain_buckets: usize,
    /// Arena capacity (keys) per chaining-table shard.
    pub chain_capacity: usize,
    /// Open-addressing table slots (must exceed 32 for the default
    /// key-dependent probe).
    pub oa_slots: usize,
    /// BST node capacity.
    pub bst_capacity: usize,
    /// Probe-sequence strategy for the open-addressing table.
    pub probe: ProbeStrategy,
    /// Recovery ladder for every transaction the pool runs.
    pub policy: RetryPolicy,
    /// Optional fault plan installed on every worker's machine (chaos
    /// testing; `None` in production).
    pub fault_plan: Option<FaultPlan>,
    /// Crash safety: where (and how aggressively) the server persists its
    /// write-ahead request log and per-worker checkpoints. `None` (the
    /// default) keeps the server fully in-memory, exactly as before.
    pub durability: Option<DurabilityConfig>,
    /// Execution backend for every worker's machine. The default is the
    /// fastest engine this build can run here,
    /// [`fol_simd::best_available`]: the hardware-lane AVX2 engine when
    /// the CPU supports it, else the portable scalar engine.
    /// [`fol_vm::BackendKind::Avx2`] asked for on a host without AVX2
    /// falls back to the scalar engine (typed — the machine then reports
    /// `"scalar"`). Both backends are bit-identical, so this knob changes
    /// wall-clock speed, never results.
    pub backend: fol_vm::BackendKind,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 1024,
            max_batch: 256,
            max_wait: Duration::ZERO,
            idle_tick: Duration::from_millis(1),
            chain_buckets: 256,
            chain_capacity: 4096,
            oa_slots: 4096,
            bst_capacity: 4096,
            probe: ProbeStrategy::KeyDependent,
            policy: RetryPolicy::default(),
            fault_plan: None,
            durability: None,
            backend: fol_simd::best_available(),
        }
    }
}

/// What [`Server::try_start`] restored and replayed before admitting new
/// traffic. All zeros/false for a cold start or a non-durable server.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RestartReport {
    /// Acknowledged-but-unapplied requests re-driven from the request log
    /// through normal admission.
    pub replayed: usize,
    /// Whether the log's last segment ended mid-record — the expected
    /// signature of a kill mid-append, surfaced typed, never silently
    /// dropped. The torn record was never acknowledged.
    pub torn_tail: bool,
    /// Workers restored from a durable checkpoint (a full image, possibly
    /// with a chain of delta checkpoints materialized on top).
    pub checkpoints_restored: usize,
    /// Generation files refused as corrupt during the startup walk (each
    /// fell back to the next-newest verifiable generation).
    pub checkpoints_refused: usize,
    /// Delta links the recovery planner applied on top of base full
    /// images, summed across workers.
    pub deltas_applied: usize,
    /// Every generation the recovery planner passed over, with its typed
    /// reason (torn file, missing parent, parent-digest mismatch,
    /// inconsistent materialization) — newest first per worker, workers in
    /// id order. Never a silent skip.
    pub skipped_generations: Vec<SkippedGeneration>,
    /// First sequence number this incarnation assigns — strictly above
    /// everything in recorded history.
    pub next_seq: u64,
}

/// Final accounting handed back by [`Server::shutdown`].
#[derive(Clone, Debug)]
pub struct ShutdownReport {
    /// Queue/scheduler/integrity counters at the end of the run.
    pub stats: StatsSnapshot,
    /// Post-drain contents of every worker-owned structure, for oracle
    /// comparison (chaining contents are the union of the per-worker
    /// shards).
    pub dumps: Vec<ClassDump>,
}

/// A running machine pool plus its admission queue. Submissions are safe
/// from any thread; `&self` methods never block on the pool (waiting
/// happens on the returned [`Ticket`]).
pub struct Server {
    shared: Arc<queue::Shared>,
    workers: Option<Vec<JoinHandle<Vec<ClassDump>>>>,
    /// The image writer thread, when durable (see [`writer`]).
    writer: Option<JoinHandle<()>>,
    gate: Arc<ShardGate>,
}

impl Server {
    /// Builds the structures, spawns the pool, and starts serving.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`, if the structure sizes violate the
    /// workloads' documented contracts (e.g. a key-dependent probe over a
    /// table of ≤ 32 slots), or — with [`ServerConfig::durability`] set —
    /// if recorded history is refused as corrupt. Use
    /// [`Server::try_start`] to handle persistence refusals as typed
    /// errors instead.
    pub fn start(config: ServerConfig) -> Self {
        match Self::try_start(config) {
            Ok((server, _)) => server,
            Err(e) => panic!("fol-serve start: {e}"),
        }
    }

    /// Like [`Server::start`], but recovers durable state first and
    /// returns what it found. With [`ServerConfig::durability`] set, this:
    ///
    /// 1. walks each worker's checkpoint **generations** newest-first with
    ///    the [`RecoveryPlanner`], verifying every delta-chain link (CRC,
    ///    parent digest, end-to-end materialization) and restoring the
    ///    newest fully-verifiable image; every generation passed over is a
    ///    typed entry in [`RestartReport::skipped_generations`], never a
    ///    silent fallback;
    /// 2. replays the write-ahead request log — a torn tail on the last
    ///    segment is the accepted crash frontier, cut off before the log
    ///    reopens so the next restart reads it whole, while a CRC mismatch
    ///    anywhere (or any defect in a sealed segment) is a hard
    ///    [`ServeError::Persist`]: corrupt history is never silently
    ///    replayed around;
    /// 3. re-drives every acknowledged-but-unapplied mutating request
    ///    through normal admission, under its original sequence number.
    ///
    /// Configuration errors (zero workers, undersized tables) still panic:
    /// they are programmer errors, not recoverable state.
    pub fn try_start(config: ServerConfig) -> Result<(Self, RestartReport), ServeError> {
        assert!(config.workers > 0, "a pool needs at least one worker");
        assert!(config.max_batch > 0, "max_batch must be positive");
        if config.probe == ProbeStrategy::KeyDependent {
            assert!(
                config.oa_slots > 32,
                "key-dependent probing requires oa_slots > 32"
            );
        }
        let cfg = Arc::new(config);
        let mut report = RestartReport::default();
        let persist = |error| ServeError::Persist { error };

        // Phase 1+2: restore checkpoints, replay the log (durable only).
        let (log, restored, plan) = match &cfg.durability {
            None => (None, vec![None; cfg.workers], ReplayPlan::default()),
            Some(d) => {
                let mut restored: Vec<Option<Checkpoint>> = Vec::with_capacity(cfg.workers);
                let mut applied_union: BTreeSet<u64> = BTreeSet::new();
                for id in 0..cfg.workers {
                    let plan = RecoveryPlanner::new(&d.dir, worker_prefix(id))
                        .plan()
                        .map_err(persist)?;
                    report.checkpoints_refused += plan
                        .skipped
                        .iter()
                        .filter(|s| matches!(s.reason, SkipReason::Refused { .. }))
                        .count();
                    report.deltas_applied += plan.deltas_applied;
                    report.skipped_generations.extend(plan.skipped);
                    let newest = plan.checkpoint;
                    if let Some(c) = &newest {
                        applied_union.extend(c.applied.iter().copied());
                    }
                    restored.push(newest);
                }
                let replayed = wal::replay(&d.dir, REQUEST_LOG_PREFIX).map_err(persist)?;
                if let Some(tear) = &replayed.torn_tail {
                    // The fresh segment below seals the torn one: cut the
                    // tear off first so the next restart reads it whole.
                    wal::cut_torn_tail(&d.dir, REQUEST_LOG_PREFIX, tear).map_err(persist)?;
                }
                report.torn_tail = replayed.torn_tail.is_some();
                let plan = plan_replay(&replayed.records, &applied_union).map_err(persist)?;
                let log = Wal::open(&d.dir, REQUEST_LOG_PREFIX, d.fsync, d.segment_bytes)
                    .map_err(persist)?;
                (Some(log), restored, plan)
            }
        };

        let image_writer = cfg
            .durability
            .as_ref()
            .map(|d| writer::ImageWriter::new(d, cfg.workers));
        let shared = Arc::new(queue::Shared::new(
            cfg.queue_capacity,
            cfg.max_batch,
            cfg.max_wait,
            log,
            image_writer,
            cfg.workers,
        ));
        shared.set_next_seq(plan.next_seq);
        report.next_seq = plan.next_seq;
        shared
            .stats
            .generations_skipped
            .fetch_add(report.skipped_generations.len() as u64, Ordering::Relaxed);

        // Each worker builds (and restores) its machine on its own thread:
        // the builds run side by side, and a machine's memory comes from
        // the allocator arena of the thread that uses it. Nothing is served
        // until every worker has built and published its chain shard.
        let (built_tx, built_rx) = std::sync::mpsc::channel();
        let workers: Vec<JoinHandle<Vec<ClassDump>>> = restored
            .into_iter()
            .enumerate()
            .map(|(id, ckpt)| {
                let (cfg, shared, built) =
                    (Arc::clone(&cfg), Arc::clone(&shared), built_tx.clone());
                std::thread::Builder::new()
                    .name(format!("fol-serve-{id}"))
                    .spawn(move || {
                        let worker = pool::Worker::new(cfg, shared, id, ckpt);
                        // Drop the sender before serving: start counts the
                        // builds until every sender is gone, so one kept
                        // alive through `run` would hang it when another
                        // worker's build panics.
                        let _ = built.send(());
                        drop(built);
                        worker.run()
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        drop(built_tx);
        if built_rx.iter().take(cfg.workers).count() < cfg.workers {
            // A worker panicked while building: stop the others and raise
            // its panic here, as a build on this thread would have.
            shared.begin_shutdown();
            let mut failure = None;
            for h in workers {
                if let Err(panic) = h.join() {
                    failure.get_or_insert(panic);
                }
            }
            std::panic::resume_unwind(failure.expect("a worker that did not build panicked"));
        }
        let writer = shared.writer.is_some().then(|| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("fol-serve-writer".into())
                .spawn(move || {
                    if let Some(w) = &shared.writer {
                        w.run(&shared);
                    }
                })
                .expect("spawn image writer")
        });

        // Phase 3: re-drive the acknowledged-but-unapplied frontier.
        report.replayed = plan.resubmit.len();
        for entry in plan.resubmit {
            shared.resubmit(entry.seq, entry.request, entry.priority);
        }
        report.checkpoints_restored = shared.stats.snapshot().checkpoints_restored as usize;

        Ok((
            Server {
                shared,
                workers: Some(workers),
                writer,
                gate: Arc::new(ShardGate::default()),
            },
            report,
        ))
    }

    /// The per-shard admission gate. Standalone servers never touch it (an
    /// empty gate admits untagged traffic); a cluster front-end installs
    /// shard assignments, freezes shards for handoff, and consults
    /// [`ShardGate::admit`] before submitting epoch-stamped wire traffic.
    pub fn shard_gate(&self) -> &Arc<ShardGate> {
        &self.gate
    }

    /// Submits at [`Priority::Normal`] with no deadline.
    pub fn submit(&self, request: Request) -> Result<Ticket, ServeError> {
        self.shared.submit(request, Priority::default(), None)
    }

    /// Submits with an explicit priority and optional deadline. A request
    /// still queued when its deadline passes is load-shed with a typed
    /// [`ServeError::DeadlineExceeded`] — never silently dropped.
    pub fn submit_with(
        &self,
        request: Request,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServeError> {
        self.shared.submit(request, priority, deadline)
    }

    /// Submits a whole burst under one queue lock and one worker
    /// notification, returning one admission outcome per request (in
    /// order); the batch front-ends use it so a pipelined burst pays the
    /// submission overhead once. Each item is admitted or refused by the
    /// rules of [`Server::submit_with`], in order, so a burst that crosses
    /// the queue's capacity admits its earlier items and refuses the rest
    /// with [`ServeError::Overloaded`]. On a durable server the burst's
    /// admission records go to the log in one write, before any of its
    /// tickets exists; if that write fails, every item that was otherwise
    /// admissible is refused with the same [`ServeError::Persist`], where
    /// per-item submission would refuse only the items whose own write
    /// failed.
    pub fn submit_many_with(
        &self,
        items: Vec<(Request, Priority, Option<Duration>)>,
    ) -> Vec<Result<Ticket, ServeError>> {
        self.shared.submit_many(items)
    }

    /// Convenience: submit and block for the outcome.
    pub fn call(&self, request: Request) -> Result<Response, ServeError> {
        self.submit(request)?.wait()
    }

    /// A point-in-time snapshot of the server's counters, including the
    /// shard gate's epoch/ownership/handoff gauges.
    pub fn stats(&self) -> StatsSnapshot {
        let mut s = self.shared.stats.snapshot();
        let g = self.gate.stats();
        s.shard_epoch = g.shard_epoch;
        s.shards_owned = g.shards_owned;
        s.handoffs_in_flight = g.handoffs_in_flight;
        s.handoffs_out_flight = g.handoffs_out_flight;
        s.stale_epoch_refusals = g.stale_epoch_refusals;
        s
    }

    /// Graceful shutdown: stops admitting, drains every queued request
    /// (each still terminates with its typed outcome), joins the pool,
    /// drains and joins the image writer (so every generation the workers
    /// cut is on disk), and returns the final stats plus structure dumps.
    pub fn shutdown(mut self) -> ShutdownReport {
        let dumps = self.stop();
        ShutdownReport {
            stats: self.shared.stats.snapshot(),
            dumps,
        }
    }

    fn stop(&mut self) -> Vec<ClassDump> {
        self.shared.begin_shutdown();
        let mut dumps = Vec::new();
        if let Some(handles) = self.workers.take() {
            for h in handles {
                match h.join() {
                    Ok(d) => dumps.extend(d),
                    Err(_) => {
                        // A worker that dies *during* shutdown can no longer
                        // be respawned; its dump is simply absent.
                    }
                }
            }
        }
        if let Some(w) = &self.shared.writer {
            w.shutdown();
        }
        if let Some(h) = self.writer.take() {
            let _ = h.join();
        }
        dumps
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.workers.is_some() {
            self.stop();
        }
    }
}
