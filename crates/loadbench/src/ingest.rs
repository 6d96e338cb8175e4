//! The closed-loop ingest workloads: two load threads, each sending
//! bursts of single-key chain inserts and waiting for the whole burst
//! before sending the next. Every repetition inserts the same fixed
//! number of keys into a fresh server, because the per-batch cost grows
//! with the keys already stored.

use crate::gen::{self, SplitMix};
use crate::trace::Tracer;
use crate::workload::{
    chain_digest, check_digest, client, dir_bytes, ms, push_unit, timed_restart, us, Phase, Plan,
    Workload,
};
use fol_net::{NetClient, NetServer, NetServerConfig};
use fol_serve::{Priority, Request, Response, Server, ServerConfig, WorkloadClass};
use fol_vm::Word;
use std::path::Path;
use std::time::{Duration, Instant};

/// Load threads per run (the benchmark host has two cores).
const THREADS: usize = 2;

/// Distinct keys behind the Zipf stream of `ingest-hot`.
const HOT_DISTINCT: usize = 4096;

/// Zipf exponent of `ingest-hot`.
const HOT_SKEW: f64 = 1.1;

/// The keys repetition `rep` inserts, in send order (thread `t` sends the
/// `t`-th half).
pub fn keys(plan: &Plan, seed: u64, rep: usize) -> Vec<Word> {
    let mut rng: SplitMix = gen::stream(seed, 0x1000 + rep as u64);
    match plan.workload {
        Workload::IngestHot => gen::zipf_keys(&mut rng, plan.keys_per_rep, HOT_DISTINCT, HOT_SKEW),
        _ => gen::uniform_keys(&mut rng, plan.keys_per_rep),
    }
}

/// What one load thread saw.
#[derive(Default)]
struct ThreadLog {
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    admit_us: Vec<f64>,
    burst_ms: Vec<f64>,
    health_us: Vec<f64>,
    rounds: Vec<f64>,
    acked: Vec<Word>,
    failed: u64,
}

/// Request spans are kept for one burst in this many, to bound the span
/// file; burst spans are kept for every burst.
const REQUEST_SPAN_EVERY: usize = 16;

/// Runs repetitions until `plan.seconds` are measured in total and every
/// tracer ran at least `plan.min_reps` of them. Repetitions alternate over
/// `tracers` (a traced and an untraced one measure the tracing overhead
/// without drift between them), each pair on the same keys, and each
/// tracer's repetitions form one phase. With `keep_dir` the newest traced
/// repetition's durability directory is left for the persistence replay.
pub fn run(
    plan: &Plan,
    seed: u64,
    tracers: &[&Tracer],
    work: &Path,
    keep_dir: bool,
) -> Result<Vec<Phase>, String> {
    let n = tracers.len();
    let mut phases: Vec<Phase> = (0..n).map(|_| Phase::default()).collect();
    let mut rep = 0;
    while rep < plan.min_reps * n || phases.iter().map(|p| p.measured_s).sum::<f64>() < plan.seconds
    {
        let tracer = tracers[rep % n];
        let keys = keys(plan, seed, rep / n);
        let fault_seed = seed ^ (((rep / n) as u64) << 40);
        let out = if plan.workload == Workload::IngestDurable {
            let dir = work.join(format!("durable-{rep}"));
            let cfg = plan.server_config(fault_seed, Some(&dir));
            wire_rep(plan, cfg, &keys, tracer, &dir, keep_dir && tracer.enabled())?
        } else {
            inproc_rep(plan, plan.server_config(fault_seed, None), &keys, tracer)?
        };
        let phase = &mut phases[rep % n];
        // Only the newest kept directory survives.
        if let (Some(old), Some(_)) = (&phase.kept_dir, &out.kept_dir) {
            let _ = std::fs::remove_dir_all(old);
        }
        phase.absorb(out);
        rep += 1;
    }
    Ok(phases)
}

/// Fills the per-repetition rate and latency quantiles from the threads'
/// logs and folds their observations into `p`.
fn finish_rep(p: &mut Phase, logs: Vec<ThreadLog>, elapsed: Duration) -> Result<Vec<Word>, String> {
    let mut latency = Vec::new();
    let mut acked = Vec::new();
    for log in logs {
        latency.extend(log.latency_ms);
        p.late_ms.extend(log.late_ms);
        p.admit_us.extend(log.admit_us);
        p.burst_ms.extend(log.burst_ms);
        p.health_us.extend(log.health_us);
        p.rounds.extend(log.rounds);
        acked.extend(log.acked);
        p.failed += log.failed;
    }
    p.attempted += latency.len() as u64;
    push_unit(p, &latency, acked.len(), elapsed)?;
    Ok(acked)
}

fn inproc_rep(
    plan: &Plan,
    cfg: ServerConfig,
    keys: &[Word],
    tracer: &Tracer,
) -> Result<Phase, String> {
    let mut p = Phase::default();
    let t0 = Instant::now();
    let server = Server::start(cfg);
    let first = chain_digest(&server);
    p.setups.push(t0.elapsed().as_secs_f64());
    p.errors.extend(check_digest("fresh server", first, &[]));

    let before = server.stats();
    let rep_span = tracer.reserve();
    let start = Instant::now();
    let logs: Vec<ThreadLog> = std::thread::scope(|s| {
        let server = &server;
        let handles: Vec<_> = keys
            .chunks(keys.len().div_ceil(THREADS))
            .map(|share| {
                s.spawn(move || inproc_thread(server, share, plan.burst, tracer, rep_span))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let end = Instant::now();
    tracer.record(rep_span, 0, "loadbench.repetition", start, end, None);
    p.counters.add_delta(&before, &server.stats());
    let acked = finish_rep(&mut p, logs, end - start)?;
    p.errors
        .extend(check_digest("after ingest", chain_digest(&server), &acked));
    server.shutdown();
    Ok(p)
}

fn inproc_thread(
    server: &Server,
    share: &[Word],
    burst: usize,
    tracer: &Tracer,
    parent: u64,
) -> ThreadLog {
    let mut log = ThreadLog::default();
    let mut ready = Instant::now();
    for (b, chunk) in share.chunks(burst).enumerate() {
        let items: Vec<_> = chunk
            .iter()
            .map(|&k| {
                (
                    Request::ChainInsert { keys: vec![k] },
                    Priority::Normal,
                    None,
                )
            })
            .collect();
        let sent = Instant::now();
        log.late_ms.push(ms(sent - ready));
        let burst_span = tracer.reserve();
        let tickets = server.submit_many_with(items);
        let admitted = Instant::now();
        log.admit_us.push(us(admitted - sent));
        tracer.span(burst_span, "serve.submit_many_with", sent, admitted, None);
        for (ticket, &key) in tickets.into_iter().zip(chunk) {
            let outcome = ticket.and_then(|t| t.wait());
            let done = Instant::now();
            log.latency_ms.push(ms(done - sent));
            if b % REQUEST_SPAN_EVERY == 0 {
                tracer.span(burst_span, "client.request", sent, done, Some(key as u64));
            }
            match outcome {
                Ok(Response::ChainInserted { rounds }) => {
                    log.rounds.push(rounds as f64);
                    log.acked.push(key);
                }
                _ => log.failed += 1,
            }
        }
        ready = Instant::now();
        tracer.record(burst_span, parent, "client.burst", sent, ready, None);
    }
    log
}

fn remote_digest(client: &mut NetClient) -> Result<Response, String> {
    client
        .digest(WorkloadClass::Chain)
        .map(|(digest, count)| Response::ClassDigest { digest, count })
        .map_err(|e| e.to_string())
}

fn wire_rep(
    plan: &Plan,
    cfg: ServerConfig,
    keys: &[Word],
    tracer: &Tracer,
    dir: &Path,
    keep_dir: bool,
) -> Result<Phase, String> {
    let mut p = Phase::default();
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;

    let t0 = Instant::now();
    let (server, _) = Server::try_start(cfg.clone()).map_err(|e| e.to_string())?;
    let net = NetServer::start(server, NetServerConfig::default())
        .map_err(|e| format!("bind loopback: {e}"))?;
    let addr = net.local_addr().to_string();
    let mut clients: Vec<NetClient> = (1..=THREADS as u64).map(|id| client(&addr, id)).collect();
    for c in &mut clients {
        c.health().map_err(|e| format!("connect: {e}"))?;
    }
    let first = remote_digest(&mut clients[0]);
    p.setups.push(t0.elapsed().as_secs_f64());
    p.errors.extend(check_digest("fresh server", first, &[]));

    let before = net.stats();
    let rep_span = tracer.reserve();
    let start = Instant::now();
    let results: Vec<(NetClient, ThreadLog)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(keys.chunks(keys.len().div_ceil(THREADS)))
            .enumerate()
            .map(|(t, (client, share))| {
                s.spawn(move || wire_thread(client, share, plan.burst, tracer, rep_span, t == 0))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let end = Instant::now();
    tracer.record(rep_span, 0, "loadbench.repetition", start, end, None);
    p.counters.add_delta(&before, &net.stats());
    let (mut clients, logs): (Vec<NetClient>, Vec<ThreadLog>) = results.into_iter().unzip();
    let acked = finish_rep(&mut p, logs, end - start)?;
    p.errors.extend(check_digest(
        "after ingest",
        remote_digest(&mut clients[0]),
        &acked,
    ));
    drop(clients);
    net.shutdown();
    p.disk_bytes_per_key
        .push(dir_bytes(dir) as f64 / acked.len().max(1) as f64);

    let (restart, answer) = timed_restart(cfg)?;
    p.restart_s.push(restart);
    p.errors
        .extend(check_digest("after restart", answer, &acked));
    if keep_dir {
        p.kept_dir = Some(dir.to_path_buf());
    } else {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(p)
}

fn wire_thread(
    mut client: NetClient,
    share: &[Word],
    burst: usize,
    tracer: &Tracer,
    parent: u64,
    probes_health: bool,
) -> (NetClient, ThreadLog) {
    let mut log = ThreadLog::default();
    let mut ready = Instant::now();
    for (b, chunk) in share.chunks(burst).enumerate() {
        let requests: Vec<Request> = chunk
            .iter()
            .map(|&k| Request::ChainInsert { keys: vec![k] })
            .collect();
        let sent = Instant::now();
        log.late_ms.push(ms(sent - ready));
        let outcomes = client.call_many(&requests);
        let done = Instant::now();
        log.burst_ms.push(ms(done - sent));
        let burst_span = tracer.span(parent, "net.client.call_many", sent, done, None);
        for (outcome, &key) in outcomes.into_iter().zip(chunk) {
            log.latency_ms.push(ms(done - sent));
            if b % REQUEST_SPAN_EVERY == 0 {
                tracer.span(burst_span, "client.request", sent, done, Some(key as u64));
            }
            match outcome {
                Ok(Response::ChainInserted { rounds }) => {
                    log.rounds.push(rounds as f64);
                    log.acked.push(key);
                }
                _ => log.failed += 1,
            }
        }
        if tracer.enabled() && probes_health && b % REQUEST_SPAN_EVERY == 0 {
            let h0 = Instant::now();
            if client.health().is_ok() {
                let h1 = Instant::now();
                log.health_us.push(us(h1 - h0));
                tracer.span(parent, "net.client.health", h0, h1, None);
            }
        }
        ready = Instant::now();
    }
    (client, log)
}
