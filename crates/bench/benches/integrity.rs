//! Integrity pricing: what does silent-corruption defense cost on the happy
//! path? Three rows, same FOL program (decompose 4096 aliased targets into
//! a 1024-cell domain, then apply), no faults injected:
//!
//!   * `baseline`         — no tracked regions, ELS audit off: the machine
//!     exactly as it priced before the integrity layer existed.
//!   * `checksums`        — the work area checksum-tracked, audit off: every
//!     scatter/store pays the incremental region and block digest update,
//!     and commit pays the footprint scrub (here every block: 4096 targets
//!     over 1024 cells touch them all) plus folding the write set into the
//!     committed image.
//!   * `checksums+audit`  — tracking plus the per-round ELS gather audit;
//!     informational (the audit can be switched off per policy).
//!
//! A fourth section prices **audit sampling** (`RetryPolicy::audit_rate`):
//! at rates N ∈ {1, 4, 16} it reports the happy-path cost of a 1-in-N
//! sampled audit next to its detection latency — how many label rounds a
//! *persistent* ELS violation survives before a sampled round convicts it —
//! so the artifact exposes the traffic-vs-latency trade the knob buys.
//!
//! A fifth, informational section sweeps **tracked size at a fixed batch**:
//! a chaining table grows from 256 to 16384 buckets (capacity scaled alike,
//! so the tracked words grow 64×) while every transaction inserts 64 keys.
//! The bracket scrubs only the blocks a batch touches, so per-batch time
//! should stay near flat; the row reports the largest table's time over the
//! smallest's.
//!
//! The run asserts the tentpole's pricing claim — checksum upkeep must stay
//! within 10% of baseline — and writes a JSON artifact for CI. The audit rows
//! and the sweep are reported but not gated: full-rate auditing doubles the
//! gather traffic by design, and the sweep is a trend, not a threshold.
//!
//! The three priced rows are sampled round-robin, one calibrated chunk of
//! runs per row per round, and each row reports its median sample. Timed
//! one after the other, each over about two seconds, host drift between
//! the rows landed in the ratio the gate bounds (on a 2-vCPU host six runs
//! read −24 to +52 %); interleaved, the rows share it.

use fol_bench::harness::bench;
use fol_bench::workloads::{duplicated_targets, uniform_keys};
use fol_core::error::Validation;
use fol_core::recover::{txn_apply_rounds, ExecMode, RetryPolicy};
use fol_hash::chaining::{txn_insert_all, ChainTable};
use fol_vm::{Addr, CostModel, ElsAuditor, Machine, Word};
use std::hint::black_box;
use std::time::{Duration, Instant};

const N: usize = 4096;
const DOMAIN: usize = 1024;

/// Rounds of interleaved sampling of the priced rows (see `main`).
const ROUNDS: usize = 31;
/// Target wall-clock time of one sample.
const SAMPLE: Duration = Duration::from_millis(40);

/// Happy-path policy: single `Vector` rung, one attempt, validation off.
/// `audit_rate` 0 disables the ELS audit; `n` samples 1-in-`n` rounds.
fn policy(audit_rate: usize) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 1,
        ladder: vec![ExecMode::Vector],
        validation: Validation::Off,
        audit_rate,
        ..RetryPolicy::default()
    }
}

/// One full transactional run; `track` opts the work area into checksums.
fn run_once(targets: &[usize], track: bool, audit_rate: usize) {
    let mut m = Machine::new(CostModel::unit());
    let work = m.alloc(DOMAIN, "W");
    if track {
        m.track_region(work);
    }
    let mut data = vec![0i64; DOMAIN];
    let out = txn_apply_rounds(
        &mut m,
        work,
        &mut data,
        black_box(targets),
        &policy(audit_rate),
        |c, _| *c += 1,
    )
    .expect("no faults injected");
    black_box((data, out));
}

/// Median nanoseconds per run of each `(track, audit_rate)` config,
/// sampled round-robin: every round times one chunk of runs per config, the
/// chunk sized so a sample takes about [`SAMPLE`], so host drift lands on
/// every row alike instead of on whichever row it overlapped.
fn interleaved_ns(targets: &[usize], configs: &[(bool, usize)]) -> Vec<f64> {
    let chunks: Vec<u32> = configs
        .iter()
        .map(|&(track, rate)| {
            run_once(targets, track, rate); // warm-up, untimed
            let start = Instant::now();
            for _ in 0..4 {
                run_once(targets, track, rate);
            }
            let once = start.elapsed().as_secs_f64() / 4.0;
            (SAMPLE.as_secs_f64() / once).clamp(1.0, 100_000.0) as u32
        })
        .collect();
    let mut samples = vec![Vec::with_capacity(ROUNDS); configs.len()];
    for _ in 0..ROUNDS {
        for (i, &(track, rate)) in configs.iter().enumerate() {
            let start = Instant::now();
            for _ in 0..chunks[i] {
                run_once(targets, track, rate);
            }
            samples[i].push(start.elapsed().as_nanos() as f64 / f64::from(chunks[i]));
        }
    }
    samples
        .into_iter()
        .map(|mut v| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        })
        .collect()
}

/// Rounds a persistent ELS violation survives under a 1-in-`rate` sampled
/// auditor, averaged over `seeds`, plus the fraction of rounds audited.
/// Every round scatters one label and gathers back a phantom the scatter
/// never wrote — the worst case the full-rate auditor catches in round one.
fn detection_latency(rate: u64, seeds: &[u64]) -> (f64, f64) {
    const MAX_ROUNDS: u64 = 4096;
    let mut total_rounds = 0u64;
    let mut total_audited = 0u64;
    let mut total_seen = 0u64;
    for &seed in seeds {
        let mut aud = ElsAuditor::with_rate(rate, seed);
        let mut caught = MAX_ROUNDS;
        for round in 0..MAX_ROUNDS {
            let addr = 100 + round as Addr;
            aud.note_scatter(&[addr], &[7]);
            if aud.check_gather("W", &[addr], &[-1]).is_err() {
                caught = round + 1;
                break;
            }
        }
        assert!(caught < MAX_ROUNDS, "persistent corruption must be caught");
        total_rounds += caught;
        total_audited += aud.rounds_audited();
        total_seen += aud.rounds_seen();
    }
    (
        total_rounds as f64 / seeds.len() as f64,
        total_audited as f64 / total_seen as f64,
    )
}

/// Mean microseconds per 64-key chaining transaction on a table of
/// `buckets` buckets and `64 × buckets` nodes: 20 warm-up batches, then 200
/// timed ones; best of three fresh tables.
fn chain_batch_us(buckets: usize) -> f64 {
    const BATCH: usize = 64;
    const WARM: usize = 20;
    const TIMED: usize = 200;
    let policy = RetryPolicy::default();
    (0..3u64)
        .map(|rep| {
            let mut m = Machine::new(CostModel::unit());
            let mut t = ChainTable::alloc(&mut m, buckets, 64 * buckets);
            let keys = uniform_keys((WARM + TIMED) * BATCH, Word::MAX >> 8, 7 + rep);
            let mut batches = keys.chunks(BATCH);
            for batch in batches.by_ref().take(WARM) {
                txn_insert_all(&mut m, &mut t, batch, &policy).expect("no faults injected");
            }
            let start = Instant::now();
            for batch in batches {
                txn_insert_all(&mut m, &mut t, batch, &policy).expect("no faults injected");
            }
            start.elapsed().as_secs_f64() * 1e6 / TIMED as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let targets = duplicated_targets(N, DOMAIN, 42);
    let configs: [(&str, bool, usize); 3] = [
        ("baseline", false, 0),
        ("checksums", true, 0),
        ("checksums+audit", true, 1),
    ];

    // The rows are sampled round-robin (see the module docs), so drift
    // between them cannot pass or fail the overhead gate.
    let ns = interleaved_ns(&targets, &configs.map(|(_, track, rate)| (track, rate)));
    let rows: Vec<(&str, f64)> = configs.iter().map(|c| c.0).zip(ns).collect();
    for (label, ns) in &rows {
        println!(
            "{:<48} {ns:>14.1} ns/iter  (median of {ROUNDS} interleaved)",
            format!("integrity/{label}")
        );
    }

    let ns_of = |name: &str| {
        rows.iter()
            .find(|(l, _)| *l == name)
            .map(|&(_, ns)| ns)
            .expect("row present")
    };
    let checksum_overhead = ns_of("checksums") / ns_of("baseline");
    let audit_overhead = ns_of("checksums+audit") / ns_of("baseline");
    println!(
        "checksum upkeep: {:.1}% over baseline; with ELS audit: {:.1}%",
        (checksum_overhead - 1.0) * 100.0,
        (audit_overhead - 1.0) * 100.0
    );
    assert!(
        checksum_overhead <= 1.10,
        "checksum upkeep must stay within 10% of baseline (got {:.1}%)",
        (checksum_overhead - 1.0) * 100.0
    );

    // Audit sampling: happy-path cost and detection latency at 1-in-N.
    let seeds: Vec<u64> = (1..=32).collect();
    let mut sampling: Vec<(usize, f64, f64, f64)> = Vec::new();
    for rate in [1usize, 4, 16] {
        let m = bench(&format!("integrity/audit-rate-{rate}"), || {
            run_once(&targets, true, rate)
        });
        let (latency, fraction) = detection_latency(rate as u64, &seeds);
        println!(
            "audit 1-in-{rate}: {:.0} ns/iter, detection latency {latency:.1} rounds, \
             {:.1}% of rounds audited",
            m.ns_per_iter,
            fraction * 100.0
        );
        sampling.push((rate, m.ns_per_iter, latency, fraction));
    }
    // Sanity: the full-rate auditor convicts a persistent violation in the
    // very first round, and sampled rates trade latency for traffic.
    assert!(
        (sampling[0].2 - 1.0).abs() < f64::EPSILON,
        "rate 1 must detect in round one"
    );
    assert!(
        sampling[2].3 < sampling[0].3,
        "1-in-16 must audit fewer rounds than 1-in-1"
    );

    // Tracked-size sweep at batch 64 (informational).
    let mut sweep: Vec<(usize, usize, f64)> = Vec::new();
    for buckets in [256usize, 1024, 4096, 16384] {
        let tracked_words = 2 * buckets + 2 * 64 * buckets;
        let us = chain_batch_us(buckets);
        println!(
            "chain txn, batch 64, {buckets:>5} buckets ({tracked_words:>8} tracked words): {us:>8.1} us/batch"
        );
        sweep.push((buckets, tracked_words, us));
    }
    let flatness = sweep[sweep.len() - 1].2 / sweep[0].2;
    println!(
        "tracked words x{:.0}: per-batch time x{flatness:.2}",
        sweep[sweep.len() - 1].1 as f64 / sweep[0].1 as f64
    );

    // JSON artifact for CI (hand-rolled; the workspace is dependency-free).
    let mut body = format!(
        "{{\"bench\":\"integrity\",{},\"rows\":[",
        fol_bench::report::engine_fields(Machine::new(CostModel::unit()).backend_kind())
    );
    for (i, (label, ns)) in rows.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"config\":\"{label}\",\"ns_per_iter\":{ns:.1}}}"
        ));
    }
    body.push_str(&format!(
        "],\"overhead\":{{\"checksums\":{checksum_overhead:.4},\"checksums_audit\":{audit_overhead:.4}}}"
    ));
    body.push_str(",\"audit_sampling\":[");
    for (i, (rate, ns, latency, fraction)) in sampling.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"rate\":{rate},\"ns_per_iter\":{ns:.1},\"detection_latency_rounds\":{latency:.2},\"audited_fraction\":{fraction:.4}}}"
        ));
    }
    body.push_str("],\"tracked_size_sweep\":{\"batch\":64,\"rows\":[");
    for (i, (buckets, words, us)) in sweep.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"buckets\":{buckets},\"tracked_words\":{words},\"us_per_batch\":{us:.2}}}"
        ));
    }
    body.push_str(&format!("],\"largest_over_smallest\":{flatness:.4}}}}}"));
    let dir = std::env::var("BENCH_ARTIFACT_DIR").unwrap_or_else(|_| "target/bench".into());
    let _ = std::fs::create_dir_all(&dir);
    let path = format!("{dir}/integrity.json");
    std::fs::write(&path, body + "\n").expect("write bench artifact");
    println!("artifact: {path}");
}
