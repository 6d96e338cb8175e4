//! The `MachinePool`: worker threads, class affinity, batch execution,
//! idle scrubbing, and panic respawn.
//!
//! Each worker owns a whole [`Machine`] (machines are single-threaded by
//! design — the pool parallelizes across machines, not within one), plus
//! the structures it serves:
//!
//! * the **chaining** table is *sharded*: every worker owns a shard and any
//!   worker may drain chain inserts (insert-only contents are the union of
//!   the shards);
//! * the **open-addressing** table and the **BST** have single owners
//!   (worker `1 % n` and `2 % n`), because their reads must observe their
//!   writes;
//! * **control** requests route to the owning worker of their class.
//!
//! A worker takes no per-batch copy of its state: the machine's own
//! *committed image* (every tracked word as of the last commit, advanced by
//! each commit at the cost of its write set) is the repair source for the
//! idle scrub (resident rot), the source of checkpoint images, and the
//! respawn path's restore target (a worker that panics mid-batch is
//! replaced by a fresh machine, rebuilt with the identical allocation
//! sequence and restored from the condemned machine's image).
//!
//! With durability on, a batch's order is fixed: completion records, the
//! log commit, the counters, the acknowledgements — nothing else runs
//! between the commit and the acks. Only then does the cadence tick: the
//! worker cuts a checkpoint image from the committed image on its own
//! thread and hands it to the server's one writer thread
//! ([`crate::writer`]), which writes it and runs compaction off the write
//! path. A worker's applied set holds only sequences at or above the log
//! floor the newest compaction pass reported, so its images grow with the
//! retained log, not with the server's history.

use crate::durability::{
    decode_record, encode_complete, worker_prefix, DurRecord, REQUEST_LOG_PREFIX,
};
use crate::queue::{
    complete_all, Batch, Pending, Shared, LANE_BST_INSERT, LANE_CHAIN_INSERT, LANE_CTL_BST,
    LANE_CTL_CHAIN, LANE_CTL_OA, LANE_OA_INSERT, LANE_OA_LOOKUP,
};
use crate::request::{keys_digest, Kind, Request, Response, ServeError, WorkloadClass};
use crate::scrub::ScrubCursor;
use crate::writer::{Cut, Job};
use crate::ServerConfig;
use fol_core::recover::GroupError;
use fol_hash::chaining::{self, ChainTable};
use fol_hash::open_addressing as oa;
use fol_persist::{wal, Checkpoint, DeltaCheckpoint, RecoveryPlanner, SkipReason};
use fol_tree::bst::{self, Bst};
use fol_vm::integrity::TrackedRegion;
use fol_vm::{CostModel, Machine, Region, Word};
use std::collections::{BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Which worker owns a class's single-owner structure (chaining is sharded
/// across all workers; its control owner is worker 0).
pub(crate) fn owner_of(class: WorkloadClass, workers: usize) -> usize {
    match class {
        WorkloadClass::Chain => 0,
        WorkloadClass::OpenAddr => 1 % workers,
        WorkloadClass::Bst => 2 % workers,
    }
}

/// The post-shutdown contents of one worker-owned structure, for oracle
/// checks and operator inspection.
#[derive(Clone, Debug)]
pub struct ClassDump {
    /// The structure's class.
    pub class: WorkloadClass,
    /// The worker that owned it (shard index, for chaining).
    pub worker: usize,
    /// Stored keys, sorted (inorder for the BST).
    pub keys: Vec<Word>,
}

/// One pool worker: a machine, its structures, and its recovery state.
pub(crate) struct Worker {
    id: usize,
    cfg: Arc<ServerConfig>,
    shared: Arc<Shared>,
    lanes: Vec<usize>,
    m: Machine,
    chain: ChainTable,
    oa_table: Option<Region>,
    bst: Option<Bst>,
    committed_chain_used: usize,
    committed_bst_used: usize,
    scrub: ScrubCursor,
    dur: Option<WorkerDur>,
}

/// A worker's durable half: where its checkpoints live, which generation
/// the next delta chains onto, and which request sequence numbers its
/// committed state already contains.
struct WorkerDur {
    dir: PathBuf,
    prefix: String,
    every: u64,
    /// Every `full_every`-th generation is a full image; the ticks in
    /// between write delta checkpoints chained to their parent.
    full_every: u64,
    /// Monotonic checkpoint sequence, continued across restores so new
    /// files sort after the restored one.
    ckpt_seq: u64,
    /// Successful mutating batches since start (cadence counter).
    commits: u64,
    /// Delta generations written since the last durable full image.
    deltas_since_full: u64,
    /// The generation the next delta chains onto: the newest one written,
    /// with its id and its recorded checksum set (the parent-digest source
    /// and the key of the machine's remembered block baseline). `None`
    /// until the first full image is written, and again after a failed
    /// write, which forces the next cadence tick to cut a full image.
    parent: Option<(u64, Vec<TrackedRegion>)>,
    /// The image handed to the writer and not yet settled: its id, its
    /// checksum set and whether it is a full image.
    in_flight: Option<(u64, Vec<TrackedRegion>, bool)>,
    /// Every request sequence this worker has applied whose admission
    /// record may still be on disk — restored set plus this incarnation's
    /// commits, trimmed to the log floor before each cut. Attached to each
    /// checkpoint so the replayer is exactly-once, and diffed against the
    /// newest durable checkpoint on respawn to find what must be redone.
    applied_all: BTreeSet<u64>,
}

fn counter_of(ckpt: &Checkpoint, name: &str) -> usize {
    ckpt.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v as usize)
}

/// Builds a worker's machine and structures. Deterministic: the respawn
/// path relies on an identical allocation sequence yielding identical
/// region addresses, so the committed image restores into the rebuilt
/// machine unchanged.
fn build_machine(
    cfg: &ServerConfig,
    id: usize,
) -> (Machine, ChainTable, Option<Region>, Option<Bst>) {
    let mut m = Machine::with_engine(CostModel::unit(), fol_simd::engine_for(cfg.backend));
    m.set_fault_plan(cfg.fault_plan.clone());
    let chain = ChainTable::alloc(&mut m, cfg.chain_buckets, cfg.chain_capacity);
    let oa_table = (owner_of(WorkloadClass::OpenAddr, cfg.workers) == id).then(|| {
        let t = m.alloc(cfg.oa_slots, "oa.table");
        oa::init_table(&mut m, t);
        t
    });
    let bst = (owner_of(WorkloadClass::Bst, cfg.workers) == id)
        .then(|| Bst::alloc(&mut m, cfg.bst_capacity));
    // Track everything up front so the idle scrub covers the whole worker
    // even before the first transaction (re-tracking is a no-op).
    m.track_region(chain.heads);
    m.track_region(chain.arena);
    m.track_region(chain.work);
    if let Some(t) = oa_table {
        m.track_region(t);
    }
    if let Some(b) = &bst {
        m.track_region(b.links);
        m.track_region(b.keys);
    }
    (m, chain, oa_table, bst)
}

fn tracked(m: &Machine) -> Vec<Region> {
    m.tracked_regions().iter().map(|t| t.region).collect()
}

impl Worker {
    /// Builds a worker. `restored` is the newest durable checkpoint the
    /// startup scan found for this worker's prefix (restored into the fresh
    /// machine, which adopts it as its committed image), or `None` for a
    /// cold start.
    pub(crate) fn new(
        cfg: Arc<ServerConfig>,
        shared: Arc<Shared>,
        id: usize,
        restored: Option<Checkpoint>,
    ) -> Self {
        let (mut m, mut chain, oa_table, mut bst) = build_machine(&cfg, id);
        let mut dur = cfg.durability.as_ref().map(|d| WorkerDur {
            dir: d.dir.clone(),
            prefix: worker_prefix(id),
            every: d.checkpoint_every.max(1),
            full_every: d.full_image_every.max(1),
            ckpt_seq: 0,
            commits: 0,
            deltas_since_full: 0,
            parent: None,
            in_flight: None,
            applied_all: BTreeSet::new(),
        });
        if let Some(ckpt) = restored {
            ckpt.restore_into(&mut m);
            chain.used_nodes = counter_of(&ckpt, "chain.used_nodes");
            if let Some(b) = &mut bst {
                b.used = counter_of(&ckpt, "bst.used");
            }
            if let Some(dur) = &mut dur {
                dur.ckpt_seq = ckpt.seq;
                dur.applied_all = ckpt.applied.iter().copied().collect();
                // The restored head (possibly a materialized delta chain)
                // is on disk under its seq; new deltas may chain onto it.
                dur.parent = Some((ckpt.seq, ckpt.checksums.clone()));
            }
            shared
                .stats
                .checkpoints_restored
                .fetch_add(1, Ordering::Relaxed);
        }
        // Publish the (possibly checkpoint-restored) shard's content digest
        // before serving anything, so a digest request racing startup sees
        // restored keys rather than a stale zero.
        let shard_keys = chaining::all_keys(&m, &chain);
        shared.publish_chain_shard(id, shard_keys);
        // Owned lanes first (their requests have nowhere else to go), then
        // the shared chain-insert lane.
        let mut lanes = Vec::new();
        if owner_of(WorkloadClass::Chain, cfg.workers) == id {
            lanes.push(LANE_CTL_CHAIN);
        }
        if oa_table.is_some() {
            lanes.extend([LANE_CTL_OA, LANE_OA_INSERT, LANE_OA_LOOKUP]);
        }
        if bst.is_some() {
            lanes.extend([LANE_CTL_BST, LANE_BST_INSERT]);
        }
        lanes.push(LANE_CHAIN_INSERT);
        Worker {
            id,
            cfg,
            shared,
            lanes,
            m,
            committed_chain_used: chain.used_nodes,
            committed_bst_used: bst.as_ref().map_or(0, |b| b.used),
            chain,
            oa_table,
            bst,
            scrub: ScrubCursor::default(),
            dur,
        }
    }

    /// The worker's main loop: drain ready batches, scrub when idle, exit
    /// (dumping contents) when the server has drained.
    pub(crate) fn run(mut self) -> Vec<ClassDump> {
        loop {
            match self.shared.next_batch(&self.lanes) {
                Ok(batch) => self.execute(batch),
                Err(true) => break,
                Err(false) => {
                    let repaired = self.scrub.slice(&mut self.m, &self.shared.stats);
                    if !repaired {
                        self.shared.park(&self.lanes, self.cfg.idle_tick);
                    }
                }
            }
        }
        self.dumps()
    }

    /// Runs one batch under a panic guard. On a clean return, per-request
    /// outcomes are demultiplexed to their callers and (for mutating kinds)
    /// the committed host-side counters are advanced. On a panic the whole machine is
    /// condemned: every request in the batch gets a typed
    /// [`ServeError::WorkerLost`] and the worker respawns from the last
    /// committed state. Either way the outcomes are logged, committed and
    /// counted before any caller sees one: an acknowledged outcome is
    /// never ahead of the log or the stats. Every slot of the batch is
    /// filled before any waiting caller is woken.
    fn execute(&mut self, batch: Batch) {
        let kind = batch.kind;
        let items = batch.items;
        let outcome = catch_unwind(AssertUnwindSafe(|| self.dispatch(kind, &items)));
        match outcome {
            Ok(results) => {
                debug_assert_eq!(results.len(), items.len());
                let mutating = matches!(kind, Kind::ChainInsert | Kind::OaInsert | Kind::BstInsert);
                if mutating {
                    // Failed groups rolled back; what remains is committed
                    // state (the machine's image advanced with each commit).
                    self.committed_chain_used = self.chain.used_nodes;
                    self.committed_bst_used = self.bst.as_ref().map_or(0, |b| b.used);
                }
                if let Some(dur) = &mut self.dur {
                    // Completion records, then the batch-boundary group
                    // commit, *before* callers see their outcomes.
                    if mutating {
                        dur.applied_all.extend(
                            items
                                .iter()
                                .zip(&results)
                                .filter(|(_, r)| r.is_ok())
                                .map(|(p, _)| p.seq),
                        );
                    }
                    let completes: Vec<Vec<u8>> = items
                        .iter()
                        .zip(&results)
                        .map(|(p, r)| encode_complete(p.seq, mutating && r.is_ok()))
                        .collect();
                    self.shared.wal_complete(&completes);
                }
                self.shared
                    .stats
                    .completed
                    .fetch_add(items.len() as u64, Ordering::Relaxed);
                complete_all(items.iter().map(|p| &*p.slot).zip(results));
                if mutating {
                    self.maybe_checkpoint();
                }
            }
            Err(_) => {
                // WorkerLost is terminal (the caller is told to resubmit),
                // so the log must agree: applied = false.
                if self.dur.is_some() {
                    let completes: Vec<Vec<u8>> = items
                        .iter()
                        .map(|p| encode_complete(p.seq, false))
                        .collect();
                    self.shared.wal_complete(&completes);
                }
                self.shared
                    .stats
                    .completed
                    .fetch_add(items.len() as u64, Ordering::Relaxed);
                complete_all(
                    items
                        .iter()
                        .map(|p| (&*p.slot, Err(ServeError::WorkerLost))),
                );
                self.respawn();
            }
        }
    }

    /// Every `checkpoint_every` mutating commits, cuts a durable generation
    /// of the committed state and hands it to the writer thread. Most
    /// cadence ticks cut a **delta** checkpoint — only the blocks whose
    /// incremental digest moved since the parent generation — and every
    /// `full_image_every`-th generation (the first, and the one after a
    /// failed write) is a **full** image, after which the writer runs one
    /// compaction pass. The tick first settles the previous image, so at
    /// most one is in flight; then it drops every applied sequence below
    /// the log floor, since no admission record remains to re-drive it.
    fn maybe_checkpoint(&mut self) {
        let Some(dur) = &mut self.dur else { return };
        dur.commits += 1;
        if !dur.commits.is_multiple_of(dur.every) {
            return;
        }
        self.settle();
        let (Some(dur), Some(writer)) = (&mut self.dur, &self.shared.writer) else {
            return;
        };
        let floor = self.shared.log_floor.load(Ordering::Relaxed);
        dur.applied_all = dur.applied_all.split_off(&floor);
        dur.ckpt_seq += 1;
        let seq = dur.ckpt_seq;
        let counters = vec![
            (
                "chain.used_nodes".to_string(),
                self.committed_chain_used as u64,
            ),
            ("bst.used".to_string(), self.committed_bst_used as u64),
        ];
        let applied: Vec<u64> = dur.applied_all.iter().copied().collect();
        let (cut, checksums) = match &dur.parent {
            Some((parent_seq, parent_sums)) if dur.deltas_since_full + 1 < dur.full_every => {
                let delta = DeltaCheckpoint::capture(
                    &self.m,
                    seq,
                    *parent_seq,
                    parent_sums,
                    counters,
                    applied,
                );
                let sums = delta.checksums.clone();
                (Cut::Delta(delta), sums)
            }
            _ => {
                let ckpt = Checkpoint::capture(&self.m, &tracked(&self.m), seq, counters, applied);
                let sums = ckpt.checksums.clone();
                (Cut::Full(ckpt), sums)
            }
        };
        let full = matches!(cut, Cut::Full(_));
        dur.in_flight = Some((seq, checksums, full));
        writer.hand_off(Job {
            worker: self.id,
            cut,
        });
    }

    /// Waits until the image in flight is written and counted. A written
    /// image becomes the next delta's parent; a failed one leaves no
    /// parent, so the next cut is a full image (the failure is counted in
    /// `checkpoints_refused`).
    fn settle(&mut self) {
        let (Some(dur), Some(writer)) = (&mut self.dur, &self.shared.writer) else {
            return;
        };
        let Some((seq, checksums, full)) = dur.in_flight.take() else {
            return;
        };
        if writer.settle(self.id) {
            dur.parent = Some((seq, checksums));
            dur.deltas_since_full = if full { 0 } else { dur.deltas_since_full + 1 };
        } else {
            dur.parent = None;
        }
    }

    /// Executes one coalesced batch on the machine and returns per-request
    /// outcomes (same order as `items`). May panic — the caller guards.
    fn dispatch(&mut self, kind: Kind, items: &[Pending]) -> Vec<Result<Response, ServeError>> {
        match kind {
            Kind::ChainInsert => {
                let groups = collect_groups(items, |r| match r {
                    Request::ChainInsert { keys } => keys,
                    _ => unreachable!("lane routing"),
                });
                let outs = chaining::txn_insert_groups(
                    &mut self.m,
                    &mut self.chain,
                    &groups,
                    &self.cfg.policy,
                );
                // Publish the landed keys before the batch's callers are
                // acknowledged (digest-after-ack consistency for the voting
                // layer). Each transaction's post-condition certified that
                // the shard now holds exactly these keys plus what it held
                // before, so appending them is the whole republish.
                let landed: Vec<Word> = groups
                    .iter()
                    .zip(&outs)
                    .filter(|(_, r)| r.is_ok())
                    .flat_map(|(g, _)| g.iter().copied())
                    .collect();
                self.shared.append_chain_shard(self.id, &landed);
                outs.into_iter()
                    .map(|r| match r {
                        Ok(rounds) => Ok(Response::ChainInserted { rounds }),
                        Err(e) => Err(serve_error(e)),
                    })
                    .collect()
            }
            Kind::OaInsert => {
                let table = self.oa_table.expect("routed to the open-addressing owner");
                let groups = collect_groups(items, |r| match r {
                    Request::OaInsert { keys } => keys,
                    _ => unreachable!("lane routing"),
                });
                oa::txn_insert_groups(
                    &mut self.m,
                    table,
                    &groups,
                    self.cfg.probe,
                    &self.cfg.policy,
                )
                .into_iter()
                .map(|r| match r {
                    Ok(rep) => Ok(Response::OaInserted {
                        iterations: rep.iterations,
                        probes: rep.probes,
                    }),
                    Err(e) => Err(serve_error(e)),
                })
                .collect()
            }
            Kind::OaLookup => {
                let table = self.oa_table.expect("routed to the open-addressing owner");
                let groups = collect_groups(items, |r| match r {
                    Request::OaLookup { keys } => keys,
                    _ => unreachable!("lane routing"),
                });
                // Lookups are read-only SIVP: coalesce every request into
                // one long query vector, then slice the answers back out.
                let all: Vec<Word> = groups.iter().flatten().copied().collect();
                let found = if all.is_empty() {
                    Vec::new()
                } else {
                    oa::vectorized_lookup_all(&mut self.m, table, &all, self.cfg.probe)
                };
                let mut off = 0usize;
                groups
                    .iter()
                    .map(|g| {
                        let part = found[off..off + g.len()].to_vec();
                        off += g.len();
                        Ok(Response::OaLookedUp { found: part })
                    })
                    .collect()
            }
            Kind::BstInsert => {
                let tree = self.bst.as_mut().expect("routed to the BST owner");
                let groups = collect_groups(items, |r| match r {
                    Request::BstInsert { keys } => keys,
                    _ => unreachable!("lane routing"),
                });
                bst::txn_insert_groups(&mut self.m, tree, &groups, &self.cfg.policy)
                    .into_iter()
                    .map(|r| match r {
                        Ok(rep) => Ok(Response::BstInserted {
                            iterations: rep.iterations,
                            retries: rep.retries,
                        }),
                        Err(e) => Err(serve_error(e)),
                    })
                    .collect()
            }
            Kind::Control => {
                debug_assert_eq!(items.len(), 1, "control batches are singletons");
                match &items[0].request {
                    Request::Digest { class } => {
                        let (digest, count) = match class {
                            // Whole-table digest: the commutative sum of
                            // every worker's published shard cell.
                            WorkloadClass::Chain => self.shared.chain_digest(),
                            WorkloadClass::OpenAddr => {
                                let t = self.oa_table.expect("routed to the owner");
                                let keys = oa::stored_keys(&self.m.mem().read_region(t));
                                (keys_digest(&keys), keys.len() as u64)
                            }
                            WorkloadClass::Bst => {
                                let b = self.bst.as_ref().expect("routed to the owner");
                                let keys = b.inorder(&self.m);
                                (keys_digest(&keys), keys.len() as u64)
                            }
                        };
                        vec![Ok(Response::ClassDigest { digest, count })]
                    }
                    Request::ShardDigest {
                        class,
                        shards,
                        shard,
                    } => {
                        let keys = self.class_keys_in_shard(*class, *shards, *shard);
                        vec![Ok(Response::ClassDigest {
                            digest: keys_digest(&keys),
                            count: keys.len() as u64,
                        })]
                    }
                    Request::ShardKeys {
                        class,
                        shards,
                        shard,
                    } => {
                        let keys = self.class_keys_in_shard(*class, *shards, *shard);
                        vec![Ok(Response::Keys { keys })]
                    }
                    Request::InjectRot { class } => {
                        let region = match class {
                            WorkloadClass::Chain => self.chain.arena,
                            WorkloadClass::OpenAddr => self.oa_table.expect("routed to the owner"),
                            WorkloadClass::Bst => self.bst.as_ref().expect("routed").keys,
                        };
                        // Flip one resident bit behind the store path: the
                        // incremental digest is NOT updated, which is the
                        // whole point — only a scrub can notice.
                        let addr = region.at(region.len() / 2);
                        let w = self.m.mem().read(addr);
                        self.m.mem_mut().write(addr, w ^ 1);
                        vec![Ok(Response::RotInjected)]
                    }
                    Request::PoisonPill { class } => {
                        panic!(
                            "poison pill: worker {} ({class:?}) killed by request",
                            self.id
                        )
                    }
                    _ => unreachable!("lane routing"),
                }
            }
        }
    }

    /// The class's stored keys whose [`crate::shard::shard_of`] lands in
    /// cluster shard `shard` (of `shards`), sorted ascending. For chaining
    /// the scan crosses worker shards via the published cells; OA/BST are
    /// read from this (owning) worker's machine. The answer reflects every
    /// batch acknowledged before this control request was served — control
    /// requests are never coalesced, and chain cells are republished before
    /// their batch's callers are acknowledged.
    fn class_keys_in_shard(&self, class: WorkloadClass, shards: u32, shard: u32) -> Vec<Word> {
        let mut keys = match class {
            WorkloadClass::Chain => self.shared.chain_keys(),
            WorkloadClass::OpenAddr => {
                let t = self.oa_table.expect("routed to the owner");
                oa::stored_keys(&self.m.mem().read_region(t))
            }
            WorkloadClass::Bst => {
                let b = self.bst.as_ref().expect("routed to the owner");
                b.inorder(&self.m)
            }
        };
        keys.retain(|&k| crate::shard::shard_of(k, shards) == shard);
        keys.sort_unstable();
        keys
    }

    /// Recomputes this shard's chaining contents from machine state with a
    /// whole-table walk and publishes them to the shared cells, where the
    /// chain control owner combines all shards to answer
    /// [`Request::Digest`]. Start and respawn only; a batch appends what it
    /// landed instead.
    fn publish_chain_shard(&self) {
        let keys = chaining::all_keys(&self.m, &self.chain);
        self.shared.publish_chain_shard(self.id, keys);
    }

    /// Replaces a condemned machine wholesale. With durability on and a
    /// loadable checkpoint on disk, rebuilds from the newest **durable**
    /// image and redoes this worker's post-checkpoint commits from the
    /// request log — the respawned state is one a restart would also reach.
    /// Otherwise (cold, or refused history) falls back to the condemned
    /// machine's committed image: rebuild with the identical allocation
    /// sequence, restore, resync the integrity layer, reset host-side
    /// counters.
    fn respawn(&mut self) {
        if self.try_durable_respawn() {
            self.shared
                .stats
                .durable_respawns
                .fetch_add(1, Ordering::Relaxed);
        } else {
            let committed = self.m.committed_snapshot(&tracked(&self.m));
            let (mut m, mut chain, oa_table, mut bst) = build_machine(&self.cfg, self.id);
            committed.restore(m.mem_mut());
            m.resync_integrity();
            chain.used_nodes = self.committed_chain_used;
            if let Some(b) = &mut bst {
                b.used = self.committed_bst_used;
            }
            self.m = m;
            self.chain = chain;
            self.oa_table = oa_table;
            self.bst = bst;
        }
        // The respawned shard may have lost uncommitted inserts (and the
        // durable path may have redone some); republish its digest.
        self.publish_chain_shard();
        self.shared.stats.respawns.fetch_add(1, Ordering::Relaxed);
    }

    /// The durable half of [`Worker::respawn`]. Returns `false` (caller
    /// falls back to the in-memory committed image) when durability is off, no
    /// generation chain verifies, the log cannot be read back, or any
    /// redone request is missing its admission record.
    fn try_durable_respawn(&mut self) -> bool {
        // No compaction pass may delete a file the planner is reading: wait
        // until the writer is idle, and keep it so until the log is read.
        let shared = Arc::clone(&self.shared);
        let Some(writer) = &shared.writer else {
            return false;
        };
        let hold = writer.hold();
        self.settle();
        let Some(dur) = &self.dur else { return false };
        let (dir, prefix) = (dur.dir.clone(), dur.prefix.clone());
        let applied_all = dur.applied_all.clone();
        let Ok(plan) = RecoveryPlanner::new(&dir, &prefix).plan() else {
            return false;
        };
        self.shared
            .stats
            .generations_skipped
            .fetch_add(plan.skipped.len() as u64, Ordering::Relaxed);
        let refused = plan
            .skipped
            .iter()
            .filter(|s| matches!(s.reason, SkipReason::Refused { .. }))
            .count();
        self.shared
            .stats
            .checkpoints_refused
            .fetch_add(refused as u64, Ordering::Relaxed);
        let Some(ckpt) = plan.checkpoint else {
            return false;
        };
        // Read the log back under its mutex so no in-flight append can
        // present a half-written frame.
        let Some(Ok(replayed)) = self
            .shared
            .with_wal(|_| wal::replay(&dir, REQUEST_LOG_PREFIX))
        else {
            return false;
        };
        drop(hold);
        let mut by_seq: HashMap<u64, Request> = HashMap::new();
        for rec in &replayed.records {
            if let Ok(DurRecord::Admit { seq, request, .. }) = decode_record(&rec.payload) {
                by_seq.insert(seq, request);
            }
        }
        // What this worker committed after the durable image was taken.
        let ckpt_applied: BTreeSet<u64> = ckpt.applied.iter().copied().collect();
        let mut redo: Vec<(u64, Request)> = Vec::new();
        for &seq in applied_all.difference(&ckpt_applied) {
            match by_seq.get(&seq) {
                Some(r) => redo.push((seq, r.clone())),
                // An applied commit with no admission record would mean the
                // log lied; do not guess — fall back.
                None => return false,
            }
        }
        let (m, chain, oa_table, bst) = build_machine(&self.cfg, self.id);
        self.m = m;
        self.chain = chain;
        self.oa_table = oa_table;
        self.bst = bst;
        ckpt.restore_into(&mut self.m);
        self.chain.used_nodes = counter_of(&ckpt, "chain.used_nodes");
        if let Some(b) = &mut self.bst {
            b.used = counter_of(&ckpt, "bst.used");
        }
        for (_, request) in &redo {
            self.redo(request);
        }
        self.committed_chain_used = self.chain.used_nodes;
        self.committed_bst_used = self.bst.as_ref().map_or(0, |b| b.used);
        if let Some(dur) = &mut self.dur {
            // Rebase the delta chain on the generation actually restored:
            // anything newer on disk was just proven unverifiable. The
            // restored chain depth carries over so the full-image cadence
            // keeps chains bounded.
            dur.parent = Some((ckpt.seq, ckpt.checksums.clone()));
            dur.deltas_since_full = plan.deltas_applied as u64;
        }
        true
    }

    /// Re-applies one logged mutating request directly (it already
    /// succeeded once on an identical image, so the single-group
    /// transaction retakes the same path).
    fn redo(&mut self, request: &Request) {
        match request {
            Request::ChainInsert { keys } => {
                let _ = chaining::txn_insert_groups(
                    &mut self.m,
                    &mut self.chain,
                    std::slice::from_ref(keys),
                    &self.cfg.policy,
                );
            }
            Request::OaInsert { keys } => {
                if let Some(t) = self.oa_table {
                    let _ = oa::txn_insert_groups(
                        &mut self.m,
                        t,
                        std::slice::from_ref(keys),
                        self.cfg.probe,
                        &self.cfg.policy,
                    );
                }
            }
            Request::BstInsert { keys } => {
                if let Some(tree) = self.bst.as_mut() {
                    let _ = bst::txn_insert_groups(
                        &mut self.m,
                        tree,
                        std::slice::from_ref(keys),
                        &self.cfg.policy,
                    );
                }
            }
            _ => {}
        }
    }

    fn dumps(&mut self) -> Vec<ClassDump> {
        // Rot the idle scrub has not reached yet is repaired first, so the
        // dump is the committed state.
        self.m.repair_from_image();
        let mut out = vec![ClassDump {
            class: WorkloadClass::Chain,
            worker: self.id,
            keys: chaining::all_keys(&self.m, &self.chain),
        }];
        if let Some(t) = self.oa_table {
            out.push(ClassDump {
                class: WorkloadClass::OpenAddr,
                worker: self.id,
                keys: oa::stored_keys(&self.m.mem().read_region(t)),
            });
        }
        if let Some(b) = &self.bst {
            out.push(ClassDump {
                class: WorkloadClass::Bst,
                worker: self.id,
                keys: b.inorder(&self.m),
            });
        }
        out
    }
}

fn collect_groups<'a>(
    items: &'a [Pending],
    extract: impl Fn(&'a Request) -> &'a Vec<Word>,
) -> Vec<Vec<Word>> {
    items.iter().map(|p| extract(&p.request).clone()).collect()
}

fn serve_error(e: GroupError) -> ServeError {
    match e {
        GroupError::Rejected { reason } => ServeError::Rejected { reason },
        GroupError::Recovery(err) => ServeError::Failed {
            reason: err.to_string(),
        },
    }
}
