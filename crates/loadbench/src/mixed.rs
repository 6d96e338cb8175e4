//! The open-loop `mixed-open` workload: one connection, one writer thread
//! sending raw submit frames on a fixed schedule whatever the server does,
//! one reader thread matching results to requests. Every request is timed
//! from when it was due, so a stall is charged to the requests queued
//! behind it.

use crate::gen;
use crate::trace::Tracer;
use crate::workload::{ms, push_unit, us, Phase, Plan};
use fol_net::wire::{frame_bytes, read_frame, ClientMsg, ReadFrameError, ServerMsg, WireOutcome};
use fol_net::{NetServer, NetServerConfig};
use fol_serve::{Priority, Request, Response, Server, NO_SHARD};
use fol_vm::Word;
use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Write as _};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One in ten requests is an insert.
const WRITE_EVERY: u64 = 10;

/// A health probe rides along every this many requests in a traced run.
const HEALTH_EVERY: usize = 256;

/// Keys per preload request.
const PRELOAD_CHUNK: usize = 512;

/// One generated request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Membership test of one key, uniform over the key space.
    Lookup(Word),
    /// Insert of one fresh odd key.
    Insert(Word),
}

impl Op {
    /// The wire request.
    pub fn request(self) -> Request {
        match self {
            Op::Lookup(k) => Request::OaLookup { keys: vec![k] },
            Op::Insert(k) => Request::OaInsert { keys: vec![k] },
        }
    }
}

/// The request stream of one run: warm-up plus every measured window, at
/// `plan.rate`. Lookups are uniform over `[0, key_space)`; inserts take
/// the odd keys in a seeded order, each once.
pub fn ops(plan: &Plan, seed: u64) -> Vec<Op> {
    let span = plan.warmup.as_secs_f64() + plan.windows() as f64 * plan.window.as_secs_f64();
    let total = (span * plan.rate).ceil() as usize;
    let mut rng = gen::stream(seed, 0x2000);
    let mut fresh: Vec<Word> = (0..plan.preload as Word).map(|i| 2 * i + 1).collect();
    rng.shuffle(&mut fresh);
    let mut fresh = fresh.into_iter();
    (0..total)
        .map(|_| {
            if rng.below(WRITE_EVERY) == 0 {
                if let Some(k) = fresh.next() {
                    return Op::Insert(k);
                }
            }
            Op::Lookup(rng.below(plan.key_space()) as Word)
        })
        .collect()
}

/// The keys present before the run: `0, 2, 4, …`.
pub fn preload_keys(plan: &Plan) -> Vec<Word> {
    (0..plan.preload as Word).map(|i| 2 * i).collect()
}

/// How the server answered one open-loop request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// A lookup's answer.
    Found(bool),
    /// An insert landed; the carrying transaction's iterations.
    Inserted(usize),
    /// Refused, failed, or an unexpected answer.
    Failed,
}

fn preload(server: &Server, plan: &Plan) -> Result<(), String> {
    let items = preload_keys(plan)
        .chunks(PRELOAD_CHUNK)
        .map(|c| {
            (
                Request::OaInsert { keys: c.to_vec() },
                Priority::Normal,
                None,
            )
        })
        .collect();
    for t in server.submit_many_with(items) {
        match t.and_then(|t| t.wait()) {
            Ok(Response::OaInserted { .. }) => {}
            other => return Err(format!("preload failed: {other:?}")),
        }
    }
    Ok(())
}

fn send(stream: &mut TcpStream, msg: &ClientMsg) -> Result<(), String> {
    stream
        .write_all(&frame_bytes(&msg.encode()))
        .map_err(|e| format!("write: {e}"))
}

fn receive(reader: &mut BufReader<TcpStream>) -> Result<ServerMsg, String> {
    match read_frame(reader, "loadbench response") {
        Ok(Some(payload)) => ServerMsg::decode(&payload).map_err(|e| e.to_string()),
        Ok(None) => Err("server closed the connection".into()),
        Err(ReadFrameError::Io { error, .. }) => Err(format!("read: {error}")),
        Err(ReadFrameError::Frame(e)) => Err(e.to_string()),
    }
}

/// Starts, preloads and connects one server, timing it to the first
/// acknowledgement (a health round trip on the fresh connection).
fn set_up(plan: &Plan, seed: u64) -> Result<(NetServer, TcpStream, f64), String> {
    let t0 = Instant::now();
    let server = Server::start(plan.server_config(seed, None));
    preload(&server, plan)?;
    let net =
        NetServer::start(server, NetServerConfig::default()).map_err(|e| format!("bind: {e}"))?;
    let mut stream = TcpStream::connect(net.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .and_then(|()| stream.set_write_timeout(Some(Duration::from_secs(10))))
        .map_err(|e| format!("socket options: {e}"))?;
    send(&mut stream, &ClientMsg::Health)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    match receive(&mut reader)? {
        ServerMsg::Health { .. } => Ok((net, stream, t0.elapsed().as_secs_f64())),
        other => Err(format!("expected a health answer, got {other:?}")),
    }
}

/// Runs `plan.setups` set-ups (keeping the last), then the open loop.
pub fn run(plan: &Plan, seed: u64, tracer: &Tracer) -> Result<Phase, String> {
    let mut p = Phase::default();
    let mut live = None;
    for s in 0..plan.setups.max(1) {
        let (net, stream, setup) = set_up(plan, seed)?;
        p.setups.push(setup);
        if s + 1 < plan.setups {
            drop(stream);
            net.shutdown();
        } else {
            live = Some((net, stream));
        }
    }
    let (net, stream) = live.expect("at least one set-up");
    let ops = ops(plan, seed);
    let start = Instant::now() + Duration::from_millis(5);
    // Counters are read at the end of the warm-up, so they cover the
    // measured windows only.
    let run = open_loop(
        &stream,
        &ops,
        start,
        plan.rate,
        tracer,
        (plan.warmup, || net.stats()),
    );
    let after = net.stats();
    drop(stream);
    net.shutdown();
    let (run, before) = run?;
    p.counters.add_delta(&before, &after);
    p.health_us = run.health_us;
    let samples = run.samples;

    // Windows: requests due in [warmup + w·window, warmup + (w+1)·window).
    let windows = plan.windows();
    let mut in_window: Vec<Vec<usize>> = vec![Vec::new(); windows];
    for (i, sample) in samples.iter().enumerate() {
        let Some(since) = (sample.due - start).checked_sub(plan.warmup) else {
            continue;
        };
        let w = (since.as_secs_f64() / plan.window.as_secs_f64()) as usize;
        if w < windows {
            in_window[w].push(i);
        }
    }
    for (w, members) in in_window.iter().enumerate() {
        let w_start = start + plan.warmup + plan.window * w as u32;
        let w_span = tracer.reserve();
        let mut latency = Vec::with_capacity(members.len());
        let mut last_ack = w_start;
        for &i in members {
            let sample = &samples[i];
            p.attempted += 1;
            p.late_ms
                .push(ms(sample.sent.saturating_duration_since(sample.due)));
            match (latency_ms(sample), &sample.answer) {
                (Some(l), Some((at, _))) => {
                    latency.push(l);
                    last_ack = last_ack.max(*at);
                    tracer.span(w_span, "client.request", sample.due, *at, Some(i as u64));
                }
                _ => p.failed += 1,
            }
        }
        tracer.record(w_span, 0, "loadbench.window", w_start, last_ack, None);
        push_unit(&mut p, &latency, latency.len(), last_ack - w_start)?;
    }
    for (op, sample) in ops.iter().zip(&samples) {
        if let (Op::Insert(_), Some((_, Outcome::Inserted(iterations)))) = (op, &sample.answer) {
            p.rounds.push(*iterations as f64);
        }
    }
    p.errors.extend(check_lookups(plan, &ops, &samples));
    Ok(p)
}

/// What one open-loop request saw.
#[derive(Clone, Debug)]
pub struct Sample {
    /// When the schedule said to send it.
    pub due: Instant,
    /// When the writer actually sent it.
    pub sent: Instant,
    /// When its answer arrived, and what it was.
    pub answer: Option<(Instant, Outcome)>,
}

/// A request's latency, ms, counted from when it was due — so the wait a
/// stall imposes on the requests queued behind it is charged to them.
/// `None` for a request that failed or was never answered.
pub fn latency_ms(sample: &Sample) -> Option<f64> {
    match &sample.answer {
        Some((at, Outcome::Found(_) | Outcome::Inserted(_))) => {
            Some(ms(at.saturating_duration_since(sample.due)))
        }
        _ => None,
    }
}

/// An open-loop run's observations.
#[derive(Debug)]
pub struct OpenLoop {
    /// One sample per request, in send order.
    pub samples: Vec<Sample>,
    /// Health round trips (traced runs), µs.
    pub health_us: Vec<f64>,
}

/// Sends `ops` over `stream` on a fixed schedule — request `i` is due at
/// `start + i / rate` — from a writer thread that never waits for an
/// answer, while a reader thread matches every result to its request.
/// `at.1` runs on the calling thread once `at.0` past `start` has passed,
/// and its value is returned alongside the samples.
pub fn open_loop<T>(
    stream: &TcpStream,
    ops: &[Op],
    start: Instant,
    rate: f64,
    tracer: &Tracer,
    at: (Duration, impl FnOnce() -> T),
) -> Result<(OpenLoop, T), String> {
    let total = ops.len();
    let interval = Duration::from_secs_f64(1.0 / rate);
    let due = |i: usize| start + interval * i as u32;
    let floor = AtomicU64::new(0);
    let health_sent: Mutex<VecDeque<Instant>> = Mutex::new(VecDeque::new());
    let write_half = stream.try_clone().map_err(|e| e.to_string())?;
    let read_half = stream.try_clone().map_err(|e| e.to_string())?;
    let (sent, received, value) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut out = write_half;
            let mut sent = Vec::with_capacity(total);
            for (i, op) in ops.iter().enumerate() {
                let now = Instant::now();
                if due(i) > now {
                    std::thread::sleep(due(i) - now);
                }
                let mut frames = Vec::new();
                if tracer.enabled() && i % HEALTH_EVERY == 0 {
                    frames.extend(frame_bytes(&ClientMsg::Health.encode()));
                    health_sent
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push_back(Instant::now());
                }
                let submit = ClientMsg::Submit {
                    client_id: 1,
                    seq: i as u64,
                    acked_floor: floor.load(Ordering::Relaxed),
                    deadline_millis: None,
                    shard: NO_SHARD,
                    map_epoch: 0,
                    request: op.request(),
                };
                frames.extend(frame_bytes(&submit.encode()));
                let at = Instant::now();
                if let Err(e) = out.write_all(&frames) {
                    let _ = out.shutdown(Shutdown::Both);
                    return Err(format!("write: {e}"));
                }
                sent.push(at);
            }
            Ok(sent)
        });
        let reader = s.spawn(|| {
            let mut reader = BufReader::new(read_half);
            let mut answers: Vec<Option<(Instant, Outcome)>> = vec![None; total];
            let mut health_us = Vec::new();
            let mut got = 0usize;
            let mut next_floor = 0usize;
            while got < total {
                match receive(&mut reader)? {
                    ServerMsg::Result { seq, outcome } => {
                        let at = Instant::now();
                        let i = seq as usize;
                        if i >= total || answers[i].is_some() {
                            continue;
                        }
                        answers[i] = Some((at, decode_outcome(outcome)));
                        got += 1;
                        while next_floor < total && answers[next_floor].is_some() {
                            next_floor += 1;
                        }
                        floor.store(next_floor as u64, Ordering::Relaxed);
                    }
                    ServerMsg::Health { .. } => {
                        let at = Instant::now();
                        let sent = health_sent
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .pop_front();
                        if let Some(sent) = sent {
                            health_us.push(us(at - sent));
                            tracer.span(0, "net.wire.health", sent, at, None);
                        }
                    }
                    other => return Err(format!("unexpected server message {other:?}")),
                }
            }
            Ok((answers, health_us))
        });
        let when = start + at.0;
        let now = Instant::now();
        if when > now {
            std::thread::sleep(when - now);
        }
        let value = (at.1)();
        let sent = writer.join().expect("writer thread panicked");
        let received = reader.join().expect("reader thread panicked");
        (sent, received, value)
    });
    let sent = sent?;
    let (answers, health_us) = received?;
    let samples = answers
        .into_iter()
        .zip(sent)
        .enumerate()
        .map(|(i, (answer, sent))| Sample {
            due: due(i),
            sent,
            answer,
        })
        .collect();
    Ok((OpenLoop { samples, health_us }, value))
}

fn decode_outcome(outcome: WireOutcome) -> Outcome {
    match outcome {
        WireOutcome::Ok(Response::OaLookedUp { found }) if found.len() == 1 => {
            Outcome::Found(found[0])
        }
        WireOutcome::Ok(Response::OaInserted { iterations, .. }) => Outcome::Inserted(iterations),
        WireOutcome::Ok(_) => Outcome::Failed,
        WireOutcome::Err(_) => Outcome::Failed,
        WireOutcome::Busy => Outcome::Failed,
    }
}

/// The lookup oracle. A preloaded key must be found; a key whose insert
/// was acknowledged before the lookup was sent must be found; a key never
/// inserted, or whose insert was sent only after the lookup's answer
/// arrived, must not be; an insert in flight may go either way.
fn check_lookups(plan: &Plan, ops: &[Op], samples: &[Sample]) -> Vec<String> {
    let mut errors = Vec::new();
    let mut inserted: HashMap<Word, usize> = HashMap::new();
    for (i, (op, sample)) in ops.iter().zip(samples).enumerate() {
        match (op, &sample.answer) {
            (Op::Insert(k), Some((_, Outcome::Inserted(_)))) => {
                inserted.insert(*k, i);
            }
            (Op::Insert(k), other) => {
                errors.push(format!("insert of {k} (request {i}) failed: {other:?}"))
            }
            _ => {}
        }
    }
    for (i, (op, sample)) in ops.iter().zip(samples).enumerate() {
        let Op::Lookup(k) = *op else { continue };
        let Some((answered, Outcome::Found(found))) = sample.answer else {
            errors.push(format!(
                "lookup of {k} (request {i}) failed: {:?}",
                sample.answer
            ));
            continue;
        };
        let must = if k % 2 == 0 && (k as u64) < plan.key_space() {
            Some(true)
        } else {
            match inserted.get(&k) {
                None => Some(false),
                Some(&j) => {
                    let insert = &samples[j];
                    if insert
                        .answer
                        .as_ref()
                        .is_some_and(|(at, _)| *at < sample.sent)
                    {
                        Some(true)
                    } else if insert.sent > answered {
                        Some(false)
                    } else {
                        None
                    }
                }
            }
        };
        if must.is_some_and(|m| m != found) {
            errors.push(format!(
                "lookup of {k} (request {i}) answered {found}, expected {}",
                !found
            ));
        }
        if errors.len() > 20 {
            break;
        }
    }
    errors
}
