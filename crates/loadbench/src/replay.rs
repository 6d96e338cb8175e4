//! The per-layer replay of a traced run. The benchmark sees the serving
//! stack only through public APIs, so it measures each layer from outside:
//!
//! * the **machine replay** rebuilds one worker's machine and structures
//!   exactly as the server's pool does, then re-issues the workload's own
//!   batches at the coalescing factor the run observed, timing each layer
//!   call (the transaction, its integrity bracket, FOL decomposition, the
//!   digest republish, the commit snapshot, checkpoint capture);
//! * the **server replay** sends bursts of the workload's requests to a
//!   fresh server with the workload's configuration, in-process and over
//!   loopback TCP, timing admission, pipelined bursts and health probes;
//! * the **persistence replay** times log replay, recovery planning,
//!   restart, log appends and frame checksums on a durability directory
//!   holding the workload's traffic (the run's own for `ingest-durable`).
//!
//! A layer the workload's requests never cross (open addressing under a
//! chain-ingest workload, say) is still priced, on the workload's keys and
//! batch size, so every workload reports every layer.

use crate::catalog::metric;
use crate::result::Metric;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{client, dir_bytes, ms, timed_restart, us, Phase, Plan, Workload};
use crate::{ingest, mixed};
use fol_core::recover::{ExecMode, RecoveryReport};
use fol_hash::chaining::{self, ChainTable};
use fol_hash::{hash_mod, open_addressing as oa};
use fol_net::wire::{frame_bytes, read_frame, ClientMsg, ServerMsg, WireOutcome};
use fol_net::{NetServer, NetServerConfig};
use fol_persist::frame::crc32;
use fol_persist::wal::{self, FsyncPolicy, Wal};
use fol_persist::{Checkpoint, DeltaCheckpoint, RecoveryPlanner};
use fol_serve::{
    decode_record, worker_prefix, DurRecord, Priority, Request, Response, Server, ServerConfig,
    REQUEST_LOG_PREFIX,
};
use fol_tree::bst::Bst;
use fol_vm::{CostModel, Machine, Region, Snapshot, Word};
use std::collections::HashSet;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Bracket, decomposition and digest timings are taken on about this many
/// evenly spaced batches of the replay.
const SAMPLES: usize = 40;

/// Batches synthesised for a layer the workload does not exercise.
const WHAT_IF_BATCHES: usize = 32;

/// Generations between a delta checkpoint and its parent: the server's
/// default checkpoint cadence.
const DELTA_DISTANCE: usize = 8;

/// One batch a worker executed.
#[derive(Clone, Debug)]
pub enum Batch {
    /// A coalesced chain insert.
    Chain(Vec<Word>),
    /// A coalesced open-addressing insert.
    OaInsert(Vec<Word>),
    /// A coalesced open-addressing lookup.
    OaLookup(Vec<Word>),
}

/// Everything the replay needs from the run.
pub struct Input<'a> {
    /// The run's plan.
    pub plan: &'a Plan,
    /// The workload's server configuration (a durable workload's points at
    /// a fresh scratch directory).
    pub cfg: ServerConfig,
    /// Requests per batch the run realized.
    pub coalesce: f64,
    /// Batches the replayed worker executes, in order.
    pub batches: Vec<Batch>,
    /// Keys present in the open-addressing table before the first batch.
    pub preload: Vec<Word>,
    /// Keys used for synthesised batches of layers the workload skips.
    pub what_if_keys: Vec<Word>,
    /// The workload's requests in send order, for the server replay.
    pub requests: Vec<Request>,
    /// The run's durability directory, if it had one.
    pub durable_dir: Option<PathBuf>,
    /// Restart times the run measured on its own directory, s.
    pub restart_s: Vec<f64>,
    /// Directory bytes per acknowledged key the run measured, before its
    /// restarts.
    pub disk_bytes_per_key: Vec<f64>,
    /// Scratch directory for the replay's own files.
    pub work: &'a Path,
    /// Replay spans go here, under one `replay` root.
    pub tracer: &'a Tracer,
}

/// The replay's metrics plus what the coverage estimate needs.
pub struct Output {
    /// Per-layer metrics measured by the replay.
    pub metrics: Vec<Metric>,
    /// Mean replayed service time of one of the run's batches, µs.
    pub service_us_per_batch: f64,
    /// Replay-side correctness failures.
    pub errors: Vec<String>,
}

/// The replay's view of a traced run of `plan`: the batches the
/// open-addressing owner executed, at the coalescing factor the run
/// realized, and the run's requests and durability directory.
pub fn input_for<'a>(
    plan: &'a Plan,
    seed: u64,
    phase: &Phase,
    work: &'a Path,
    tracer: &'a Tracer,
) -> Input<'a> {
    let coalesce = phase.counters.coalesce_factor();
    let size = (coalesce.round() as usize).max(1);
    let durable_serve_dir = work.join("replay-serve");
    let _ = std::fs::remove_dir_all(&durable_serve_dir);
    let cfg = plan.server_config(
        seed,
        (plan.workload == Workload::IngestDurable).then_some(durable_serve_dir.as_path()),
    );
    let workers = cfg.workers;
    let (batches, preload, what_if_keys, requests) = match plan.workload {
        Workload::MixedOpen => {
            let ops = mixed::ops(plan, seed);
            let batches = linger_batches(&ops, plan.rate, &cfg);
            let inserted: Vec<Word> = ops
                .iter()
                .filter_map(|op| match op {
                    mixed::Op::Insert(k) => Some(*k),
                    mixed::Op::Lookup(_) => None,
                })
                .collect();
            let requests = ops.iter().map(|op| op.request()).collect();
            (batches, mixed::preload_keys(plan), inserted, requests)
        }
        _ => {
            let keys = ingest::keys(plan, seed, 0);
            let batches = keys[..keys.len() / workers]
                .chunks(size)
                .map(|c| Batch::Chain(c.to_vec()))
                .collect();
            let requests = keys
                .iter()
                .map(|&k| Request::ChainInsert { keys: vec![k] })
                .collect();
            (batches, Vec::new(), keys, requests)
        }
    };
    Input {
        plan,
        cfg,
        coalesce,
        batches,
        preload,
        what_if_keys,
        requests,
        durable_dir: phase.kept_dir.clone(),
        restart_s: phase.restart_s.clone(),
        disk_bytes_per_key: phase.disk_bytes_per_key.clone(),
        work,
        tracer,
    }
}

/// Groups the open loop's requests into the batches the server's lanes
/// form when service is instantaneous: per kind, a batch opens at its
/// first request's due time and takes every request of that kind due
/// within the linger (`max_wait`), up to `max_batch`. Batches are emitted
/// in the order they close.
fn linger_batches(ops: &[mixed::Op], rate: f64, cfg: &ServerConfig) -> Vec<Batch> {
    let linger = cfg.max_wait.as_secs_f64();
    // Per kind: (opened at, keys). Index 0 holds lookups, 1 inserts.
    let mut open: [(f64, Vec<Word>); 2] = [(0.0, Vec::new()), (0.0, Vec::new())];
    let mut batches = Vec::new();
    let close = |slot: usize, keys: Vec<Word>| {
        if slot == 0 {
            Batch::OaLookup(keys)
        } else {
            Batch::OaInsert(keys)
        }
    };
    for (i, op) in ops.iter().enumerate() {
        let due = i as f64 / rate;
        let (slot, key) = match *op {
            mixed::Op::Lookup(k) => (0, k),
            mixed::Op::Insert(k) => (1, k),
        };
        let mut expired: Vec<usize> = (0..2)
            .filter(|&s| !open[s].1.is_empty() && open[s].0 + linger <= due)
            .collect();
        expired.sort_by(|&a, &b| open[a].0.total_cmp(&open[b].0));
        for s in expired {
            batches.push(close(s, std::mem::take(&mut open[s].1)));
        }
        if open[slot].1.is_empty() {
            open[slot].0 = due;
        }
        open[slot].1.push(key);
        if open[slot].1.len() == cfg.max_batch {
            batches.push(close(slot, std::mem::take(&mut open[slot].1)));
        }
    }
    for (s, (_, keys)) in open.into_iter().enumerate() {
        if !keys.is_empty() {
            batches.push(close(s, keys));
        }
    }
    batches
}

fn med(name: &str, values: &[f64], out: &mut Vec<Metric>) {
    out.push(metric(name, median(values), values.len()));
}

/// Runs every replay and returns the metrics it measured.
pub fn run(input: Input<'_>) -> Result<Output, String> {
    let tracer = input.tracer;
    let root = tracer.reserve();
    let t0 = Instant::now();
    let mut out = Vec::new();
    let mut errors = Vec::new();
    let service = machine_replay(&input, root, &mut out, &mut errors)?;
    server_replay(&input, root, &mut out)?;
    persist_replay(&input, root, &mut out, &mut errors)?;
    wire_codec(&input, &mut out);
    tracer.record(root, 0, "replay", t0, Instant::now(), None);
    // A durable batch also pays its group commit and its share of the
    // checkpoint cadence.
    let mut per_batch_us = service.per_batch_us;
    if input.durable_dir.is_some() {
        let commit = out
            .iter()
            .find(|m| m.name == "persist.wal.group_commit_us")
            .map_or(0.0, |m| m.value);
        per_batch_us += commit + service.checkpoint_us;
    }
    Ok(Output {
        metrics: out,
        service_us_per_batch: per_batch_us,
        errors,
    })
}

/// Rebuilds worker `id`'s machine and structures with the allocation
/// sequence of the server's pool (chain table, the open-addressing table
/// and the tree if this worker owns them, every region tracked up front),
/// so the integrity bracket covers the same words it covers in the server.
fn build_machine(cfg: &ServerConfig, id: usize) -> (Machine, ChainTable, Option<Region>) {
    let mut m = Machine::with_engine(CostModel::unit(), fol_simd::engine_for(cfg.backend));
    m.set_fault_plan(cfg.fault_plan.clone());
    let chain = ChainTable::alloc(&mut m, cfg.chain_buckets, cfg.chain_capacity);
    let table = (1 % cfg.workers == id).then(|| {
        let t = m.alloc(cfg.oa_slots, "oa.table");
        oa::init_table(&mut m, t);
        t
    });
    let tree = (2 % cfg.workers == id).then(|| Bst::alloc(&mut m, cfg.bst_capacity));
    m.track_region(chain.heads);
    m.track_region(chain.arena);
    m.track_region(chain.work);
    if let Some(t) = table {
        m.track_region(t);
    }
    if let Some(b) = &tree {
        m.track_region(b.links);
        m.track_region(b.keys);
    }
    (m, chain, table)
}

fn tracked(m: &Machine) -> Vec<Region> {
    m.tracked_regions().iter().map(|t| t.region).collect()
}

/// Recovery outcomes summed over the replay's transactions.
#[derive(Default)]
struct Recovery {
    txns: usize,
    attempts: usize,
    replays: usize,
    rungs: [usize; 5],
}

impl Recovery {
    fn add(&mut self, r: &RecoveryReport) {
        self.txns += 1;
        self.attempts += r.attempts;
        self.replays += r.replays;
        let rung = match r.final_mode {
            ExecMode::Vector => 0,
            ExecMode::DegradedVector { .. } => 1,
            ExecMode::VerifiedReplay { .. } => 2,
            ExecMode::ForcedSequential => 3,
            ExecMode::ScalarTail => 4,
        };
        self.rungs[rung] += 1;
    }
}

struct Service {
    per_batch_us: f64,
    checkpoint_us: f64,
}

#[derive(Default)]
struct Timings {
    chain_txn: Vec<f64>,
    oa_txn: Vec<f64>,
    lookup: Vec<f64>,
    multiplicity: Vec<f64>,
    fol1: Vec<f64>,
    digest: Vec<f64>,
    resync: Vec<f64>,
    snapshot: Vec<f64>,
    scrub: Vec<f64>,
    commit: Vec<f64>,
    rounds: usize,
    rounds_multiplicity: usize,
}

struct Replayer<'a> {
    cfg: &'a ServerConfig,
    m: Machine,
    chain: ChainTable,
    table: Region,
    scratch: Machine,
    work: Region,
    stored: HashSet<Word>,
    chain_keys: Vec<Word>,
    t: Timings,
    /// Recovery outcomes of the workload's own batches (synthesised
    /// batches are not counted).
    rec: Recovery,
    own: bool,
    errors: Vec<String>,
}

impl Replayer<'_> {
    /// Executes one batch; returns its transaction or lookup time, µs.
    fn batch(&mut self, batch: &Batch, sampled: bool) -> f64 {
        let policy = &self.cfg.policy;
        let elapsed = match batch {
            Batch::Chain(keys) => {
                let buckets: Vec<Word> = keys
                    .iter()
                    .map(|&k| hash_mod(k, self.chain.buckets() as Word))
                    .collect();
                let multiplicity = fol_core::theory::max_multiplicity(&buckets);
                let t = Instant::now();
                let r = chaining::txn_insert_all(&mut self.m, &mut self.chain, keys, policy);
                let elapsed = us(t.elapsed());
                self.t.chain_txn.push(elapsed);
                self.t.multiplicity.push(multiplicity as f64);
                match r {
                    Ok((rounds, report)) => {
                        if report.final_mode != ExecMode::ScalarTail {
                            self.t.rounds += rounds;
                            self.t.rounds_multiplicity += multiplicity;
                        }
                        if self.own {
                            self.rec.add(&report);
                        }
                        self.chain_keys.extend_from_slice(keys);
                    }
                    Err(e) => self
                        .errors
                        .push(format!("replayed chain insert failed: {e}")),
                }
                if sampled {
                    let t = Instant::now();
                    black_box(fol_core::decompose::fol1_machine(
                        &mut self.scratch,
                        self.work,
                        &buckets,
                    ));
                    self.t.fol1.push(us(t.elapsed()));
                    let t = Instant::now();
                    black_box(chaining::all_keys(&self.m, &self.chain));
                    self.t.digest.push(us(t.elapsed()));
                }
                elapsed
            }
            Batch::OaInsert(keys) => {
                let fresh: Vec<Word> = keys
                    .iter()
                    .copied()
                    .filter(|k| !self.stored.contains(k))
                    .collect();
                if fresh.is_empty() {
                    return 0.0;
                }
                let t = Instant::now();
                let r = oa::txn_insert_all(&mut self.m, self.table, &fresh, self.cfg.probe, policy);
                let elapsed = us(t.elapsed());
                self.t.oa_txn.push(elapsed);
                match r {
                    Ok((_, report)) => {
                        if self.own {
                            self.rec.add(&report);
                        }
                        self.stored.extend(fresh);
                    }
                    Err(e) => self
                        .errors
                        .push(format!("replayed table insert failed: {e}")),
                }
                elapsed
            }
            Batch::OaLookup(keys) => {
                let t = Instant::now();
                let found =
                    oa::vectorized_lookup_all(&mut self.m, self.table, keys, self.cfg.probe);
                let elapsed = us(t.elapsed());
                self.t.lookup.push(elapsed);
                // Lookups are not transactional: under an injected gather
                // fault plan their answers are not checked.
                if self.cfg.fault_plan.is_none() {
                    for (&k, &f) in keys.iter().zip(&found) {
                        if f != self.stored.contains(&k) {
                            self.errors
                                .push(format!("replayed lookup of {k} answered {f}"));
                        }
                    }
                }
                return elapsed;
            }
        };
        if sampled {
            // The integrity bracket every transaction pays, piece by piece,
            // then the pool's post-commit snapshot of the same regions.
            let regions = tracked(&self.m);
            let t = Instant::now();
            self.m.resync_integrity();
            self.t.resync.push(us(t.elapsed()));
            let t = Instant::now();
            black_box(Snapshot::capture(self.m.mem(), &regions));
            self.t.snapshot.push(us(t.elapsed()));
            let t = Instant::now();
            let _ = black_box(self.m.scrub());
            self.t.scrub.push(us(t.elapsed()));
            let t = Instant::now();
            black_box(Snapshot::capture(self.m.mem(), &regions));
            self.t.commit.push(us(t.elapsed()));
        }
        elapsed
    }
}

fn what_if(keys: &[Word], size: usize, make: fn(Vec<Word>) -> Batch) -> Vec<Batch> {
    keys.chunks(size)
        .take(WHAT_IF_BATCHES)
        .map(|c| make(c.to_vec()))
        .collect()
}

fn machine_replay(
    input: &Input<'_>,
    root: u64,
    out: &mut Vec<Metric>,
    errors: &mut Vec<String>,
) -> Result<Service, String> {
    let cfg = &input.cfg;
    let owner = 1 % cfg.workers;
    let (mut m, chain, table) = build_machine(cfg, owner);
    let table = table.ok_or("the replayed worker owns the open-addressing table")?;
    let mut stored = HashSet::new();
    if !input.preload.is_empty() {
        oa::txn_insert_all(&mut m, table, &input.preload, cfg.probe, &cfg.policy)
            .map_err(|e| format!("replay preload: {e}"))?;
        stored.extend(input.preload.iter().copied());
    }
    let mut scratch = Machine::with_engine(CostModel::unit(), fol_simd::engine_for(cfg.backend));
    let work = scratch.alloc(cfg.chain_buckets, "replay.fol1.work");
    let mut r = Replayer {
        cfg,
        m,
        chain,
        table,
        scratch,
        work,
        stored,
        chain_keys: Vec::new(),
        t: Timings::default(),
        rec: Recovery::default(),
        own: true,
        errors: Vec::new(),
    };

    let tracer = input.tracer;
    let mutating = input
        .batches
        .iter()
        .filter(|b| !matches!(b, Batch::OaLookup(_)))
        .count();
    let every = (mutating / SAMPLES).max(1);
    let delta_parent_at = mutating.saturating_sub(DELTA_DISTANCE);
    let mut parent_sums = None;
    let mut service_us = 0.0;
    let mut seen_mutating = 0usize;
    let t_real = Instant::now();
    for batch in &input.batches {
        let is_mut = !matches!(batch, Batch::OaLookup(_));
        if is_mut && seen_mutating == delta_parent_at && parent_sums.is_none() {
            let regions = tracked(&r.m);
            parent_sums = Some(Checkpoint::capture(&r.m, &regions, 1, vec![], vec![]).checksums);
        }
        let sampled = is_mut && seen_mutating.is_multiple_of(every);
        let start = Instant::now();
        service_us += r.batch(batch, sampled);
        let name = match batch {
            Batch::Chain(_) => "hash.chaining.txn_insert_all",
            Batch::OaInsert(_) => "hash.oa.txn_insert_all",
            Batch::OaLookup(_) => "hash.oa.vectorized_lookup_all",
        };
        if tracer.enabled() && (sampled || !is_mut) {
            tracer.span(root, name, start, Instant::now(), None);
        }
        seen_mutating += usize::from(is_mut);
    }
    tracer.span(root, "replay.batches", t_real, Instant::now(), None);
    let replayed_batches = input.batches.len();

    // Layers the workload does not exercise are priced on synthesised
    // batches of its own keys and batch size.
    let size = (input.coalesce.round() as usize).max(1);
    let mut extra = Vec::new();
    if r.t.chain_txn.is_empty() {
        extra.extend(what_if(&input.what_if_keys, size, Batch::Chain));
    }
    if r.t.oa_txn.is_empty() {
        let mut seen = r.stored.clone();
        let room = cfg.oa_slots / 2 - seen.len().min(cfg.oa_slots / 2);
        let fresh: Vec<Word> = input
            .what_if_keys
            .iter()
            .copied()
            .filter(|&k| k >= 0 && seen.insert(k))
            .take(room.min(WHAT_IF_BATCHES * size))
            .collect();
        extra.extend(what_if(&fresh, size, Batch::OaInsert));
    }
    if r.t.lookup.is_empty() {
        extra.extend(what_if(&input.what_if_keys, size, Batch::OaLookup));
    }
    let t_extra = Instant::now();
    r.own = false;
    for batch in &extra {
        r.batch(batch, true);
    }
    if !extra.is_empty() {
        tracer.span(root, "replay.what_if", t_extra, Instant::now(), None);
    }

    // End state: digest republish, checkpoint images, tracked size.
    let mut digest_end = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        black_box(chaining::all_keys(&r.m, &r.chain));
        digest_end.push(us(t.elapsed()));
    }
    let mut sorted = chaining::all_keys(&r.m, &r.chain);
    sorted.sort_unstable();
    let mut want = r.chain_keys.clone();
    want.sort_unstable();
    if sorted != want {
        r.errors.push(format!(
            "replayed chain holds {} keys, {} were inserted",
            sorted.len(),
            want.len()
        ));
    }
    let regions = tracked(&r.m);
    // The checkpoint carries the applied set of every write the worker
    // committed, one sequence number per single-key request.
    let writes: usize = input
        .batches
        .iter()
        .map(|b| match b {
            Batch::Chain(keys) | Batch::OaInsert(keys) => keys.len(),
            Batch::OaLookup(_) => 0,
        })
        .sum();
    let applied: Vec<u64> = (0..writes as u64).collect();
    let counters = vec![("chain.used_nodes".to_string(), r.chain.used_nodes as u64)];
    let parent_sums = parent_sums
        .unwrap_or_else(|| Checkpoint::capture(&r.m, &regions, 1, vec![], vec![]).checksums);
    let dir = input.work.join("replay-checkpoints");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let (mut full, mut delta) = (Vec::new(), Vec::new());
    for i in 0..3 {
        let t = Instant::now();
        let ckpt = Checkpoint::capture(&r.m, &regions, 2, counters.clone(), applied.clone());
        ckpt.write_unsynced(&dir.join(format!("full-{i}")))
            .map_err(|e| format!("checkpoint write: {e}"))?;
        full.push(ms(t.elapsed()));
        let t = Instant::now();
        let d =
            DeltaCheckpoint::capture(&r.m, 2, 1, &parent_sums, counters.clone(), applied.clone());
        d.write_unsynced(&dir.join(format!("delta-{i}")))
            .map_err(|e| format!("delta write: {e}"))?;
        delta.push(ms(t.elapsed()));
    }
    let _ = std::fs::remove_dir_all(&dir);

    let t = &r.t;
    med("hash.chaining.txn_us", &t.chain_txn, out);
    med("hash.oa.insert_txn_us", &t.oa_txn, out);
    med("hash.oa.lookup_us", &t.lookup, out);
    med("core.fol.max_multiplicity", &t.multiplicity, out);
    out.push(metric(
        "core.fol.rounds_over_multiplicity",
        t.rounds as f64 / t.rounds_multiplicity.max(1) as f64,
        t.multiplicity.len(),
    ));
    med("core.decompose.fol1_us", &t.fol1, out);
    med("vm.integrity.resync_us", &t.resync, out);
    med("vm.journal.snapshot_us", &t.snapshot, out);
    med("vm.integrity.scrub_us", &t.scrub, out);
    med("serve.pool.commit_snapshot_us", &t.commit, out);
    med("serve.pool.digest_publish_us", &digest_end, out);
    // The bracket is priced against the transaction of the workload's own
    // write path.
    let txn = if input.batches.iter().any(|b| matches!(b, Batch::Chain(_))) {
        median(&t.chain_txn)
    } else {
        median(&t.oa_txn)
    };
    let bracket = median(&t.resync) + median(&t.snapshot) + median(&t.scrub);
    out.push(metric(
        "vm.integrity.bracket_share",
        bracket / txn,
        t.resync.len(),
    ));
    out.push(metric(
        "vm.tracked_words",
        regions.iter().map(|g| g.len()).sum::<usize>() as f64,
        1,
    ));
    med("persist.checkpoint.full_ms", &full, out);
    med("persist.checkpoint.delta_ms", &delta, out);
    let rec = &r.rec;
    out.push(metric(
        "core.recover.attempts_per_txn",
        rec.attempts as f64 / rec.txns.max(1) as f64,
        rec.txns,
    ));
    out.push(metric(
        "core.recover.useful_attempt_frac",
        rec.txns as f64 / rec.attempts.max(1) as f64,
        rec.attempts,
    ));
    out.push(metric("core.recover.replays", rec.replays as f64, rec.txns));
    for (name, n) in [
        "core.recover.final_rung.vector",
        "core.recover.final_rung.degraded_vector",
        "core.recover.final_rung.verified_replay",
        "core.recover.final_rung.forced_sequential",
        "core.recover.final_rung.scalar_tail",
    ]
    .into_iter()
    .zip(rec.rungs)
    {
        out.push(metric(name, n as f64, rec.txns));
    }
    errors.extend(r.errors);

    // Service per batch: the measured transaction or lookup, plus the
    // commit snapshot after a write and the digest republish after a
    // chain write.
    let writes = input
        .batches
        .iter()
        .filter(|b| !matches!(b, Batch::OaLookup(_)))
        .count();
    let chains = input
        .batches
        .iter()
        .filter(|b| matches!(b, Batch::Chain(_)))
        .count();
    let total_us =
        service_us + writes as f64 * median(&t.commit) + chains as f64 * median(&t.digest);
    Ok(Service {
        per_batch_us: total_us / replayed_batches.max(1) as f64,
        // One full image and three deltas per four cadence ticks of
        // `DELTA_DISTANCE` batches each (the server's defaults).
        checkpoint_us: 1e3 * (median(&full) + 3.0 * median(&delta)) / (4.0 * DELTA_DISTANCE as f64),
    })
}

/// Bursts of the workload's own requests against a fresh server: timed
/// in-process admission, then pipelined wire bursts and health probes.
fn server_replay(input: &Input<'_>, root: u64, out: &mut Vec<Metric>) -> Result<(), String> {
    let tracer = input.tracer;
    let burst = input.plan.burst;
    let bursts = (input.requests.len() / (2 * burst)).clamp(1, 16);
    let mut requests = input.requests.chunks(burst);
    let server = Server::start(input.cfg.clone());
    let mut admit = Vec::new();
    for chunk in requests.by_ref().take(bursts) {
        let items: Vec<_> = chunk
            .iter()
            .map(|r| (r.clone(), Priority::Normal, None))
            .collect();
        let t = Instant::now();
        let tickets = server.submit_many_with(items);
        let done = Instant::now();
        admit.push(us(done - t));
        tracer.span(root, "serve.submit_many_with", t, done, None);
        for ticket in tickets {
            ticket
                .and_then(|t| t.wait())
                .map_err(|e| format!("replayed request failed: {e}"))?;
        }
    }
    let net =
        NetServer::start(server, NetServerConfig::default()).map_err(|e| format!("bind: {e}"))?;
    let mut client = client(&net.local_addr().to_string(), 1);
    client.health().map_err(|e| format!("connect: {e}"))?;
    let (mut burst_ms, mut health) = (Vec::new(), Vec::new());
    for chunk in requests.take(bursts) {
        let t = Instant::now();
        let outcomes = client.call_many(chunk);
        let done = Instant::now();
        burst_ms.push(ms(done - t));
        tracer.span(root, "net.client.call_many", t, done, None);
        if let Some(Err(e)) = outcomes.into_iter().find(Result::is_err) {
            return Err(format!("replayed wire request failed: {e}"));
        }
        let t = Instant::now();
        client.health().map_err(|e| format!("health: {e}"))?;
        let done = Instant::now();
        health.push(us(done - t));
        tracer.span(root, "net.client.health", t, done, None);
    }
    drop(client);
    net.shutdown();
    med("serve.queue.admit_us", &admit, out);
    med("net.client.burst_ms", &burst_ms, out);
    med("net.health_rtt_us", &health, out);
    Ok(())
}

fn persist_replay(
    input: &Input<'_>,
    root: u64,
    out: &mut Vec<Metric>,
    errors: &mut Vec<String>,
) -> Result<(), String> {
    let tracer = input.tracer;
    let cfg = &input.cfg;
    // A durable twin of the workload's server (without its fault plan:
    // persistence cost does not depend on FOL faults) takes the workload's
    // requests. Its log is read after a few bursts, before the first
    // checkpoint lets compaction delete the records.
    let twin_dir = input.work.join("replay-durable");
    let _ = std::fs::remove_dir_all(&twin_dir);
    let twin = ServerConfig {
        durability: Some(fol_serve::DurabilityConfig::new(&twin_dir)),
        fault_plan: None,
        ..cfg.clone()
    };
    let (server, _) = Server::try_start(twin.clone()).map_err(|e| e.to_string())?;
    let mut acked = 0u64;
    let mut records = Vec::new();
    for (b, chunk) in input.requests.chunks(input.plan.burst).take(64).enumerate() {
        if b == 4 {
            records = wal::replay(&twin_dir, REQUEST_LOG_PREFIX)
                .map_err(|e| format!("log replay: {e}"))?
                .records;
        }
        let items = chunk
            .iter()
            .map(|r| (r.clone(), Priority::Normal, None))
            .collect();
        for t in server.submit_many_with(items) {
            match t.and_then(|t| t.wait()) {
                Ok(Response::ChainInserted { .. } | Response::OaInserted { .. }) => acked += 1,
                Ok(_) => {}
                Err(e) => return Err(format!("durable replay request failed: {e}")),
            }
        }
    }
    server.shutdown();
    if records.is_empty() {
        records = wal::replay(&twin_dir, REQUEST_LOG_PREFIX)
            .map_err(|e| format!("log replay: {e}"))?
            .records;
    }
    let (mut admits, mut completes) = (Vec::new(), Vec::new());
    for r in &records {
        match decode_record(&r.payload) {
            Ok(DurRecord::Admit { .. }) => admits.push(r.payload.clone()),
            Ok(DurRecord::Complete { .. }) => completes.push(r.payload.clone()),
            Err(e) => errors.push(format!("undecodable log record: {e}")),
        }
    }
    if admits.is_empty() || completes.is_empty() {
        return Err("the durable replay logged no request records".into());
    }

    // Recovery is timed on the run's own directory when it has one.
    let (dir, restart_cfg) = match &input.durable_dir {
        Some(d) => (d.clone(), None),
        None => (twin_dir.clone(), Some(twin)),
    };
    let (mut replay_ms, mut plan_ms) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let t = Instant::now();
        wal::replay(&dir, REQUEST_LOG_PREFIX).map_err(|e| format!("log replay: {e}"))?;
        replay_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        for w in 0..cfg.workers {
            RecoveryPlanner::new(&dir, worker_prefix(w))
                .plan()
                .map_err(|e| format!("recovery plan: {e}"))?;
        }
        plan_ms.push(ms(t.elapsed()));
    }
    // Each record is framed by a 4-byte length and a 4-byte CRC.
    let framed: usize = records.iter().map(|r| r.payload.len() + 8).sum();
    out.push(metric(
        "persist.wal.bytes_per_request",
        framed as f64 / admits.len() as f64,
        admits.len(),
    ));
    med("persist.restart.wal_replay_ms", &replay_ms, out);
    med("persist.restart.plan_ms", &plan_ms, out);
    // Directory bytes per acknowledged key: the run's own measurements, or
    // the twin directory's.
    let disk = if input.disk_bytes_per_key.is_empty() {
        vec![dir_bytes(&twin_dir) as f64 / acked.max(1) as f64]
    } else {
        input.disk_bytes_per_key.clone()
    };
    med("persist.disk_bytes_per_key", &disk, out);

    // Log appends of the directory's own records, batch-boundary fsync.
    let log_dir = input.work.join("replay-wal");
    let _ = std::fs::remove_dir_all(&log_dir);
    let mut log = Wal::open(&log_dir, "loadbench", FsyncPolicy::Batch, 1 << 20)
        .map_err(|e| format!("open log: {e}"))?;
    let mut append = Vec::new();
    let t_log = Instant::now();
    for p in admits.iter().take(2048) {
        let t = Instant::now();
        log.append(p).map_err(|e| format!("append: {e}"))?;
        append.push(us(t.elapsed()));
    }
    let group = (input.coalesce.round() as usize).max(1);
    let mut commit = Vec::new();
    for chunk in completes.chunks(group).take(256) {
        let t = Instant::now();
        log.append_all(chunk).map_err(|e| format!("append: {e}"))?;
        log.commit().map_err(|e| format!("commit: {e}"))?;
        commit.push(us(t.elapsed()));
    }
    drop(log);
    tracer.span(root, "persist.wal", t_log, Instant::now(), None);
    let _ = std::fs::remove_dir_all(&log_dir);
    med("persist.wal.append_us", &append, out);
    med("persist.wal.group_commit_us", &commit, out);

    // Restart: the run's own measurements, or the twin directory's.
    let restart = match restart_cfg {
        None => input.restart_s.clone(),
        Some(twin) => {
            let t = Instant::now();
            let (r, answer) = timed_restart(twin)?;
            tracer.span(root, "persist.restart", t, Instant::now(), None);
            if let Err(e) = answer {
                errors.push(format!("restart of the replay directory: {e}"));
            }
            vec![r]
        }
    };
    med("persist.restart_s", &restart, out);
    let _ = std::fs::remove_dir_all(&twin_dir);

    let buf: Vec<u8> = (0..64 * 1024u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
        .collect();
    let mut crc = Vec::new();
    for _ in 0..16 {
        let t = Instant::now();
        black_box(crc32(black_box(&buf)));
        crc.push(t.elapsed().as_nanos() as f64 / 64.0);
    }
    med("persist.frame.crc32_ns_per_kib", &crc, out);
    Ok(())
}

/// Encode and decode costs of the workload's own wire messages.
fn wire_codec(input: &Input<'_>, out: &mut Vec<Metric>) {
    let requests: Vec<&Request> = input.requests.iter().take(4096).collect();
    let n = requests.len().max(1) as f64;
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t = Instant::now();
        for (i, r) in requests.iter().enumerate() {
            let msg = ClientMsg::Submit {
                client_id: 1,
                seq: i as u64,
                acked_floor: i as u64,
                deadline_millis: None,
                shard: fol_serve::NO_SHARD,
                map_epoch: 0,
                request: (*r).clone(),
            };
            black_box(frame_bytes(&msg.encode()));
        }
        enc.push(t.elapsed().as_nanos() as f64 / n);
        let mut stream = Vec::new();
        for (i, r) in requests.iter().enumerate() {
            let response = match r {
                Request::OaLookup { keys } => Response::OaLookedUp {
                    found: vec![true; keys.len()],
                },
                Request::OaInsert { .. } => Response::OaInserted {
                    iterations: 1,
                    probes: 1,
                },
                _ => Response::ChainInserted { rounds: 10 },
            };
            let msg = ServerMsg::Result {
                seq: i as u64,
                outcome: WireOutcome::Ok(response),
            };
            stream.extend(frame_bytes(&msg.encode()));
        }
        let mut cursor = std::io::Cursor::new(stream);
        let t = Instant::now();
        while let Ok(Some(payload)) = read_frame(&mut cursor, "replay") {
            let _ = black_box(ServerMsg::decode(&payload));
        }
        dec.push(t.elapsed().as_nanos() as f64 / n);
    }
    med("net.wire.encode_ns", &enc, out);
    med("net.wire.decode_ns", &dec, out);
}
