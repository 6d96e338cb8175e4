//! The metric catalog: every metric the benchmark reports, with its unit,
//! its direction and — for end-to-end metrics — the bound by which it may
//! worsen before a change counts as a regression. `BENCHMARK.json` at the
//! repository root lists exactly these (a test holds the two together).

use crate::result::Metric;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (throughput, useful-work shares).
    Higher,
    /// Smaller is better (latency, cost, waste).
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One catalogued metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Stable name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound as a share of the baseline median (end-to-end
    /// metrics only; per-layer metrics carry no bound).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: what a user of the serving stack sees. Every
/// workload reports every one of them (medians across repetitions or
/// windows), with tracing off. Every bound is the largest the benchmark
/// format allows: on the two-core host the median of a closed-loop run
/// moves by up to a quarter between runs (see the README). The p99 is not
/// among them: on `mixed-open` it spread by up to 38 % over ten runs of the
/// same code, so it is reported, unbounded, as `loadgen.latency_p99_ms`.
pub const END_TO_END: &[MetricDef] = &[
    e2e("throughput_rps", "1/s", Higher, 0.25),
    e2e("p50_ms", "ms", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Per-layer metrics, grouped by crate. Every workload reports every one
/// of them in a traced run; see the README for each one's source (the
/// real run or the replay) and the end-to-end metric it should move.
pub const PER_LAYER: &[MetricDef] = &[
    // Harness.
    layer("loadgen.latency_p99_ms", "ms", Lower),
    layer("loadgen.late_p99_ms", "ms", Lower),
    layer("trace.overhead_frac", "frac", Lower),
    layer("trace.coverage", "frac", Higher),
    // fol-net.
    layer("net.wire.encode_ns", "ns", Lower),
    layer("net.wire.decode_ns", "ns", Lower),
    layer("net.client.burst_ms", "ms", Lower),
    layer("net.health_rtt_us", "us", Lower),
    // fol-serve.
    layer("serve.queue.admit_us", "us", Lower),
    layer("serve.queue.coalesce_factor", "req/batch", Higher),
    layer("serve.queue.batches", "count", Lower),
    layer("serve.queue.overloaded", "count", Lower),
    layer("serve.pool.digest_publish_us", "us", Lower),
    layer("serve.pool.commit_snapshot_us", "us", Lower),
    layer("serve.scrub_slices", "count", Lower),
    // fol-hash.
    layer("hash.chaining.txn_us", "us", Lower),
    layer("hash.oa.insert_txn_us", "us", Lower),
    layer("hash.oa.lookup_us", "us", Lower),
    // fol-core.
    layer("core.fol.rounds_per_batch", "rounds", Lower),
    layer("core.fol.max_multiplicity", "count", Lower),
    layer("core.fol.rounds_over_multiplicity", "ratio", Lower),
    layer("core.decompose.fol1_us", "us", Lower),
    layer("core.recover.attempts_per_txn", "count", Lower),
    layer("core.recover.useful_attempt_frac", "frac", Higher),
    layer("core.recover.replays", "count", Lower),
    layer("core.recover.final_rung.vector", "count", Higher),
    layer("core.recover.final_rung.degraded_vector", "count", Lower),
    layer("core.recover.final_rung.verified_replay", "count", Lower),
    layer("core.recover.final_rung.forced_sequential", "count", Lower),
    layer("core.recover.final_rung.scalar_tail", "count", Lower),
    // fol-vm.
    layer("vm.integrity.resync_us", "us", Lower),
    layer("vm.journal.snapshot_us", "us", Lower),
    layer("vm.integrity.scrub_us", "us", Lower),
    layer("vm.integrity.bracket_share", "frac", Lower),
    layer("vm.tracked_words", "words", Lower),
    // fol-persist.
    layer("persist.wal.append_us", "us", Lower),
    layer("persist.wal.group_commit_us", "us", Lower),
    layer("persist.wal.bytes_per_request", "B", Lower),
    layer("persist.checkpoint.full_ms", "ms", Lower),
    layer("persist.checkpoint.delta_ms", "ms", Lower),
    layer("persist.checkpoints_written", "count", Lower),
    layer("persist.delta_checkpoints_written", "count", Lower),
    layer("persist.generations_pruned", "count", Lower),
    layer("persist.wal_segments_pruned", "count", Lower),
    layer("persist.restart.plan_ms", "ms", Lower),
    layer("persist.restart.wal_replay_ms", "ms", Lower),
    layer("persist.restart_s", "s", Lower),
    layer("persist.disk_bytes_per_key", "B/key", Lower),
    layer("persist.frame.crc32_ns_per_kib", "ns/KiB", Lower),
];

/// A measured value of the catalogued metric `name`, with its unit.
///
/// # Panics
///
/// Panics if `name` is not catalogued: every metric the benchmark reports
/// is listed here and in `BENCHMARK.json`.
pub fn metric(name: &str, value: f64, samples: usize) -> Metric {
    let def = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("{name} is not catalogued"));
    Metric {
        name: name.to_string(),
        value,
        unit: def.unit.to_string(),
        samples: samples as u64,
    }
}
