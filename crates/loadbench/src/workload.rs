//! The four workloads, their sizes and server configurations, and the
//! measurement log one run of them produces.

use crate::stats::percentile;
use fol_serve::{DurabilityConfig, Request, Response, Server, ServerConfig, StatsSnapshot};
use fol_vm::FaultPlan;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Scatter-lane drop rate of `ingest-faulty`, per 65 536 lane writes. At
/// this rate most coalesced transactions walk the recovery ladder to its
/// degraded-lane holds, so the latency distribution has one dominant mode
/// and its median is stable from run to run (at half the rate the median
/// falls between a fast and a slow mode and moves by a quarter between
/// runs).
const FAULTY_DROP_RATE: u16 = 1024;

/// Gather bit-flip rate of `ingest-faulty`, per 65 536 gathered lanes.
const FAULTY_FLIP_RATE: u16 = 128;

/// One traffic mix the benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop chain inserts over loopback TCP into a durable server.
    IngestDurable,
    /// Closed-loop in-process chain inserts of Zipf-skewed keys.
    IngestHot,
    /// Open-loop lookups and inserts over one connection.
    MixedOpen,
    /// Closed-loop in-process chain inserts under an injected fault plan.
    IngestFaulty,
}

impl Workload {
    /// Every workload, in the order `run` executes them.
    pub const ALL: [Workload; 4] = [
        Workload::IngestDurable,
        Workload::IngestHot,
        Workload::MixedOpen,
        Workload::IngestFaulty,
    ];

    /// The command-line and `BENCHMARK.json` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestDurable => "ingest-durable",
            Workload::IngestHot => "ingest-hot",
            Workload::MixedOpen => "mixed-open",
            Workload::IngestFaulty => "ingest-faulty",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sizes and rates of one run. [`Plan::full`] is the benchmark;
/// [`Plan::tiny`] runs the same code on inputs small enough for a test.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Measured seconds: ingest workloads repeat their fixed work until at
    /// least this much has been measured; the open loop runs this long
    /// after its warm-up.
    pub seconds: f64,
    /// Ingest: keys inserted into a fresh server per repetition.
    pub keys_per_rep: usize,
    /// Ingest: repetitions measured even when `seconds` passes sooner.
    pub min_reps: usize,
    /// Requests per client burst (ingest) and per replay burst.
    pub burst: usize,
    /// Times the mixed-open set-up (start plus preload) is run; the
    /// median is reported. Ingest workloads set up once per repetition.
    pub setups: usize,
    /// Mixed-open: offered requests per second.
    pub rate: f64,
    /// Mixed-open: unmeasured lead-in.
    pub warmup: Duration,
    /// Mixed-open: length of one measured window.
    pub window: Duration,
    /// Mixed-open: keys `0, 2, 4, …` preloaded before the run.
    pub preload: usize,
    /// Chain buckets per worker.
    pub chain_buckets: usize,
    /// Chain arena capacity (keys) per worker.
    pub chain_capacity: usize,
    /// Open-addressing table slots.
    pub oa_slots: usize,
}

impl Plan {
    /// The benchmark's sizes for `workload`, measuring `seconds`.
    pub fn full(workload: Workload, seconds: f64) -> Plan {
        let base = Plan {
            workload,
            seconds,
            keys_per_rep: 1 << 14,
            min_reps: 3,
            burst: 64,
            setups: 1,
            rate: 1500.0,
            warmup: Duration::from_secs(2),
            window: Duration::from_secs(2),
            preload: 1 << 15,
            chain_buckets: 256,
            chain_capacity: 1 << 14,
            oa_slots: 4096,
        };
        match workload {
            Workload::IngestDurable => Plan {
                keys_per_rep: 1 << 16,
                chain_buckets: 1024,
                chain_capacity: 1 << 17,
                ..base
            },
            Workload::IngestHot => base,
            // An idle worker scrubs one tracked region per wake-up, and a
            // submit that arrives mid-scrub waits for the next idle tick.
            // With 2^17 slots the table's scrub slice is about as long as
            // the 0.67 ms between requests, so the median latency flips
            // between two modes from run to run; at 2^16 (half-full after
            // the preload) the slice stays well inside the gap.
            Workload::MixedOpen => Plan {
                setups: 7,
                oa_slots: 1 << 16,
                ..base
            },
            Workload::IngestFaulty => Plan {
                keys_per_rep: 1 << 10,
                min_reps: 4,
                chain_buckets: 1024,
                chain_capacity: 1 << 15,
                ..base
            },
        }
    }

    /// The same workload shrunk for a smoke test: a few thousand requests,
    /// two repetitions or one window.
    pub fn tiny(workload: Workload) -> Plan {
        Plan {
            seconds: 0.0,
            keys_per_rep: 1536,
            min_reps: 2,
            setups: 2,
            rate: 1200.0,
            warmup: Duration::from_millis(100),
            window: Duration::from_millis(1000),
            preload: 1024,
            chain_capacity: 4096,
            oa_slots: 4096,
            ..Plan::full(workload, 0.0)
        }
    }

    /// Mixed-open windows measured (at least one).
    pub fn windows(&self) -> usize {
        ((self.seconds / self.window.as_secs_f64()).floor() as usize).max(1)
    }

    /// Mixed-open key space: the preloaded even keys plus as many odd
    /// keys, fresh insert candidates.
    pub fn key_space(&self) -> u64 {
        2 * self.preload as u64
    }

    /// The server configuration the workload runs against. `seed` seeds
    /// the fault plan of `ingest-faulty`; `dir` is the durability
    /// directory of `ingest-durable` (and of the persistence replay).
    pub fn server_config(&self, seed: u64, dir: Option<&Path>) -> ServerConfig {
        let ingest = ServerConfig {
            workers: 2,
            max_batch: 64,
            max_wait: Duration::from_micros(200),
            chain_buckets: self.chain_buckets,
            chain_capacity: self.chain_capacity,
            oa_slots: self.oa_slots,
            ..ServerConfig::default()
        };
        let mut cfg = match self.workload {
            Workload::IngestDurable | Workload::IngestHot => ingest,
            Workload::IngestFaulty => ServerConfig {
                fault_plan: Some(
                    FaultPlan::dropped_lanes(seed, FAULTY_DROP_RATE)
                        .with_gather_flips(FAULTY_FLIP_RATE),
                ),
                ..ingest
            },
            Workload::MixedOpen => ServerConfig {
                workers: 1,
                chain_buckets: self.chain_buckets,
                chain_capacity: self.chain_capacity,
                oa_slots: self.oa_slots,
                ..ServerConfig::default()
            },
        };
        cfg.durability = dir.map(DurabilityConfig::new);
        cfg
    }
}

/// Counter deltas from `Server::stats`, summed over a run's servers.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// Coalesced batches executed.
    pub batches: u64,
    /// Requests those batches carried.
    pub coalesced_requests: u64,
    /// Submissions refused as overloaded.
    pub overloaded: u64,
    /// Idle-time scrub slices.
    pub scrub_slices: u64,
    /// Full checkpoint images written.
    pub checkpoints_written: u64,
    /// Delta checkpoints written.
    pub delta_checkpoints_written: u64,
    /// Generations deleted by compaction.
    pub generations_pruned: u64,
    /// Log segments deleted by compaction.
    pub wal_segments_pruned: u64,
}

impl Counters {
    /// Adds `after - before`.
    pub fn add_delta(&mut self, before: &StatsSnapshot, after: &StatsSnapshot) {
        self.add(&Counters {
            batches: after.batches - before.batches,
            coalesced_requests: after.coalesced_requests - before.coalesced_requests,
            overloaded: after.overloaded - before.overloaded,
            scrub_slices: after.scrub_slices - before.scrub_slices,
            checkpoints_written: after.checkpoints_written - before.checkpoints_written,
            delta_checkpoints_written: after.delta_checkpoints_written
                - before.delta_checkpoints_written,
            generations_pruned: after.generations_pruned - before.generations_pruned,
            wal_segments_pruned: after.wal_segments_pruned - before.wal_segments_pruned,
        });
    }

    /// Adds another set of deltas.
    pub fn add(&mut self, other: &Counters) {
        self.batches += other.batches;
        self.coalesced_requests += other.coalesced_requests;
        self.overloaded += other.overloaded;
        self.scrub_slices += other.scrub_slices;
        self.checkpoints_written += other.checkpoints_written;
        self.delta_checkpoints_written += other.delta_checkpoints_written;
        self.generations_pruned += other.generations_pruned;
        self.wal_segments_pruned += other.wal_segments_pruned;
    }

    /// Requests per batch, the realized coalescing factor.
    pub fn coalesce_factor(&self) -> f64 {
        self.coalesced_requests as f64 / self.batches.max(1) as f64
    }
}

/// What one measured phase of a workload observed.
#[derive(Debug, Default)]
pub struct Phase {
    /// Throughput per repetition (ingest) or window (open loop), req/s.
    pub rates: Vec<f64>,
    /// Median latency per repetition or window, ms.
    pub p50s: Vec<f64>,
    /// 99th-percentile latency per repetition or window, ms.
    pub p99s: Vec<f64>,
    /// Latency samples behind the quantiles.
    pub latency_samples: u64,
    /// Set-up times, s.
    pub setups: Vec<f64>,
    /// Requests attempted in the measured part.
    pub attempted: u64,
    /// Of those, refused or failed.
    pub failed: u64,
    /// Seconds measured.
    pub measured_s: f64,
    /// Repetitions or windows measured.
    pub units: usize,
    /// Server counter deltas over the measured part.
    pub counters: Counters,
    /// How late each send was against its intended time, ms.
    pub late_ms: Vec<f64>,
    /// `Server::submit_many_with` durations (in-process ingest), µs.
    pub admit_us: Vec<f64>,
    /// `NetClient::call_many` durations (wire ingest), ms.
    pub burst_ms: Vec<f64>,
    /// Health round trips on the running server, µs.
    pub health_us: Vec<f64>,
    /// FOL rounds (or open-addressing iterations) reported per acked write.
    pub rounds: Vec<f64>,
    /// Restart of the durability directory to the first ack, s.
    pub restart_s: Vec<f64>,
    /// Durability-directory bytes per acked key.
    pub disk_bytes_per_key: Vec<f64>,
    /// A durability directory kept for the persistence replay.
    pub kept_dir: Option<PathBuf>,
    /// Oracle failures; any entry makes the run incorrect.
    pub errors: Vec<String>,
}

impl Phase {
    /// Folds another phase's observations into this one.
    pub fn absorb(&mut self, other: Phase) {
        self.rates.extend(other.rates);
        self.p50s.extend(other.p50s);
        self.p99s.extend(other.p99s);
        self.latency_samples += other.latency_samples;
        self.setups.extend(other.setups);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.measured_s += other.measured_s;
        self.units += other.units;
        self.counters.add(&other.counters);
        self.late_ms.extend(other.late_ms);
        self.admit_us.extend(other.admit_us);
        self.burst_ms.extend(other.burst_ms);
        self.health_us.extend(other.health_us);
        self.rounds.extend(other.rounds);
        self.restart_s.extend(other.restart_s);
        self.disk_bytes_per_key.extend(other.disk_bytes_per_key);
        if other.kept_dir.is_some() {
            self.kept_dir = other.kept_dir;
        }
        self.errors.extend(other.errors);
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in `d`.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Sums the sizes of the regular files directly in `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Checks a `Digest` answer against the keys the run saw acknowledged.
pub fn check_digest(
    what: &str,
    answer: Result<Response, String>,
    acked: &[fol_vm::Word],
) -> Option<String> {
    let want = (fol_serve::keys_digest(acked), acked.len() as u64);
    match answer {
        Ok(Response::ClassDigest { digest, count }) if (digest, count) == want => None,
        Ok(other) => Some(format!(
            "{what}: digest answer {other:?}, acked keys give digest {} over {} keys",
            want.0, want.1
        )),
        Err(e) => Some(format!("{what}: digest request failed: {e}")),
    }
}

/// Submits one chain digest request and waits for it: the first
/// acknowledgement a fresh server gives.
pub fn chain_digest(server: &Server) -> Result<Response, String> {
    server
        .call(Request::Digest {
            class: fol_serve::WorkloadClass::Chain,
        })
        .map_err(|e| e.to_string())
}

/// A client for `addr` whose timeouts outlast the slowest batch of any
/// workload, so a slow acknowledgement is measured rather than retried.
pub fn client(addr: &str, client_id: u64) -> fol_net::NetClient {
    fol_net::NetClient::new(
        addr,
        fol_net::NetClientConfig {
            client_id,
            io_timeout: Duration::from_secs(10),
            call_deadline: Duration::from_secs(120),
            ..fol_net::NetClientConfig::default()
        },
    )
}

/// Restarts a durable server on its directory and times it to the first
/// acknowledgement given after the log's tail has been re-applied. Returns
/// the time and that acknowledgement: the chain digest.
pub fn timed_restart(cfg: ServerConfig) -> Result<(f64, Result<Response, String>), String> {
    let t0 = std::time::Instant::now();
    let (server, report) = Server::try_start(cfg).map_err(|e| format!("restart: {e}"))?;
    while (server.stats().completed as usize) < report.replayed {
        std::thread::sleep(Duration::from_micros(100));
    }
    let answer = chain_digest(&server);
    let elapsed = t0.elapsed().as_secs_f64();
    server.shutdown();
    Ok((elapsed, answer))
}

/// Records one repetition's or window's throughput and latency quantiles.
pub fn push_unit(
    p: &mut Phase,
    latency: &[f64],
    acked: usize,
    elapsed: Duration,
) -> Result<(), String> {
    p.rates.push(acked as f64 / elapsed.as_secs_f64());
    p.p50s
        .push(percentile(latency, 0.50).ok_or("too few requests for a median")?);
    p.p99s.push(
        percentile(latency, 0.99).ok_or("too few requests per repetition or window for a p99")?,
    );
    p.latency_samples += latency.len() as u64;
    p.measured_s += elapsed.as_secs_f64();
    p.units += 1;
    Ok(())
}
