//! # fol-loadbench: the repository benchmark
//!
//! Four seeded serving workloads drive the FOL serving stack through its
//! public APIs only — [`fol_serve::Server`], [`fol_net::NetServer`] and
//! [`fol_net::NetClient`], raw [`fol_net::wire`] frames, and the layer
//! functions of `fol-hash`, `fol-core`, `fol-vm` and `fol-persist`:
//!
//! * an untraced run reports the end-to-end metrics of
//!   [`catalog::END_TO_END`] after checking every acknowledged answer;
//! * a traced run repeats the workload with spans recorded at the
//!   benchmark's own calls into each layer, replays the run's batches
//!   layer by layer ([`replay`]), and reports the per-layer metrics of
//!   [`catalog::PER_LAYER`] plus a span file.
//!
//! See `README.md` in this crate for why each workload exists and what
//! each metric means.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod compare;
pub mod gen;
pub mod ingest;
pub mod json;
pub mod mixed;
pub mod replay;
pub mod result;
pub mod stats;
pub mod trace;
pub mod workload;

use catalog::metric;
use result::{Metric, RunResult, Stamp};
use stats::{median, percentile};
use std::path::{Path, PathBuf};
use trace::Tracer;
pub use workload::{Phase, Plan, Workload};

/// Seconds one benchmark run measures (`run_seconds` in
/// `BENCHMARK.json`, and the default of `--seconds`).
pub const RUN_SECONDS: f64 = 25.0;

/// How to run one workload.
#[derive(Clone, Debug)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Directory for span files and the run's scratch files.
    pub out: PathBuf,
    /// Source revision to stamp the result with.
    pub rev: String,
}

/// Runs `plan` and returns its result. Errors are failures of the
/// harness itself (a socket that would not bind, a server that refused
/// to start); a wrong answer from the system under test is reported in
/// the result as `correct == false`, with the reasons on standard error.
pub fn run(plan: &Plan, opts: &Options) -> Result<RunResult, String> {
    let work = opts.out.join(format!(
        "work-{}-{}",
        plan.workload.name(),
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let result = if opts.trace {
        traced(plan, opts, &work)
    } else {
        untraced(plan, opts, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn result_of(plan: &Plan, opts: &Options, phases: &[&Phase], metrics: Vec<Metric>) -> RunResult {
    let errors: Vec<&String> = phases.iter().flat_map(|p| &p.errors).collect();
    for e in &errors {
        eprintln!("oracle: {e}");
    }
    RunResult {
        workload: plan.workload.name().to_string(),
        seed: opts.seed,
        seconds: plan.seconds,
        trace: opts.trace,
        correct: errors.is_empty(),
        attempted: phases.iter().map(|p| p.attempted).sum(),
        failed: phases.iter().map(|p| p.failed).sum(),
        metrics,
        stamp: Stamp::here(&opts.rev, plan.server_config(opts.seed, None).backend),
    }
}

fn untraced(plan: &Plan, opts: &Options, work: &Path) -> Result<RunResult, String> {
    let off = Tracer::new(false);
    let phase = match plan.workload {
        Workload::MixedOpen => mixed::run(plan, opts.seed, &off)?,
        _ => single(ingest::run(plan, opts.seed, &[&off], work, false)?),
    };
    let samples = phase.latency_samples as usize;
    let metrics = vec![
        metric("throughput_rps", median(&phase.rates), phase.units),
        metric("p50_ms", median(&phase.p50s), samples),
        metric("setup_s", median(&phase.setups), phase.setups.len()),
    ];
    Ok(result_of(plan, opts, &[&phase], metrics))
}

fn single(mut phases: Vec<Phase>) -> Phase {
    phases.pop().expect("one phase per tracer")
}

fn traced(plan: &Plan, opts: &Options, work: &Path) -> Result<RunResult, String> {
    // Untraced and traced measurements share the run's time; their
    // difference is the tracing overhead.
    let off = Tracer::new(false);
    let tracer = Tracer::new(true);
    let (traced_plan, quiet, phase) = match plan.workload {
        Workload::MixedOpen => {
            let half = Plan {
                seconds: plan.seconds / 2.0,
                setups: 1,
                ..plan.clone()
            };
            let quiet = mixed::run(&half, opts.seed, &off)?;
            let phase = mixed::run(&half, opts.seed, &tracer)?;
            (half, quiet, phase)
        }
        _ => {
            let paired = Plan {
                min_reps: 1,
                ..plan.clone()
            };
            let mut phases = ingest::run(&paired, opts.seed, &[&off, &tracer], work, true)?;
            let phase = single(phases.split_off(1));
            (paired, single(phases), phase)
        }
    };

    let replayed = replay::run(replay::input_for(
        &traced_plan,
        opts.seed,
        &phase,
        work,
        &tracer,
    ))?;
    if let Some(dir) = &phase.kept_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    for e in &replayed.errors {
        eprintln!("replay: {e}");
    }

    let units = phase.units.max(1) as f64;
    let c = phase.counters;
    let workers = plan.server_config(opts.seed, None).workers as f64;
    let late = percentile(&phase.late_ms, 0.99)
        .unwrap_or_else(|| phase.late_ms.iter().copied().fold(0.0, f64::max));
    let mut metrics = vec![
        // Untraced, like the end-to-end metrics: from the run's untraced half.
        metric(
            "loadgen.latency_p99_ms",
            median(&quiet.p99s),
            quiet.latency_samples as usize,
        ),
        metric("loadgen.late_p99_ms", late, phase.late_ms.len()),
        metric(
            "trace.overhead_frac",
            median(&phase.p50s) / median(&quiet.p50s) - 1.0,
            phase.units + quiet.units,
        ),
        metric(
            "trace.coverage",
            replayed.service_us_per_batch * c.batches as f64 / (phase.measured_s * 1e6 * workers),
            c.batches as usize,
        ),
        metric(
            "serve.queue.coalesce_factor",
            c.coalesce_factor(),
            c.batches as usize,
        ),
        metric("serve.queue.batches", c.batches as f64 / units, phase.units),
        metric(
            "serve.queue.overloaded",
            c.overloaded as f64 / units,
            phase.units,
        ),
        metric(
            "serve.scrub_slices",
            c.scrub_slices as f64 / units,
            phase.units,
        ),
        metric(
            "core.fol.rounds_per_batch",
            phase.rounds.iter().sum::<f64>() / phase.rounds.len().max(1) as f64,
            phase.rounds.len(),
        ),
        metric(
            "persist.checkpoints_written",
            c.checkpoints_written as f64 / units,
            phase.units,
        ),
        metric(
            "persist.delta_checkpoints_written",
            c.delta_checkpoints_written as f64 / units,
            phase.units,
        ),
        metric(
            "persist.generations_pruned",
            c.generations_pruned as f64 / units,
            phase.units,
        ),
        metric(
            "persist.wal_segments_pruned",
            c.wal_segments_pruned as f64 / units,
            phase.units,
        ),
    ];
    metrics.extend(replayed.metrics);
    // Where the run itself crossed a boundary, its own timings replace the
    // replay's.
    for (name, values) in [
        ("serve.queue.admit_us", &phase.admit_us),
        ("net.client.burst_ms", &phase.burst_ms),
        ("net.health_rtt_us", &phase.health_us),
    ] {
        if !values.is_empty() {
            let m = metrics
                .iter_mut()
                .find(|m| m.name == name)
                .expect("the replay reports every boundary metric");
            m.value = median(values);
            m.samples = values.len() as u64;
        }
    }
    let order = |m: &Metric| {
        catalog::PER_LAYER
            .iter()
            .position(|d| d.name == m.name)
            .expect("replay metrics are catalogued")
    };
    metrics.sort_by_key(order);
    let spans = opts
        .out
        .join(format!("trace-{}.jsonl", plan.workload.name()));
    tracer
        .write_jsonl(&spans)
        .map_err(|e| format!("write {}: {e}", spans.display()))?;
    let mut result = result_of(plan, opts, &[&quiet, &phase], metrics);
    result.correct &= replayed.errors.is_empty();
    Ok(result)
}
