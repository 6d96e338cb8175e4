//! The benchmark's own checks: deterministic inputs, the percentile rule,
//! open-loop accounting, the result format, and a tiny run of every
//! workload against the metric lists of `BENCHMARK.json`.

use fol_loadbench::catalog::{END_TO_END, PER_LAYER};
use fol_loadbench::json::Json;
use fol_loadbench::mixed::{self, Op, Outcome};
use fol_loadbench::result::{Metric, RunResult, Stamp};
use fol_loadbench::stats::percentile;
use fol_loadbench::trace::Tracer;
use fol_loadbench::{gen, ingest, run, Options, Plan, Workload};
use fol_net::wire::{frame_bytes, read_frame, ClientMsg, ServerMsg, WireOutcome};
use fol_serve::Response;
use std::io::{BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn listed_names(doc: &Json, table: &str) -> Vec<String> {
    doc.get(table)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {table} list"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("named")
                .to_string()
        })
        .collect()
}

#[test]
fn seeded_generators_are_deterministic() {
    for workload in Workload::ALL {
        let plan = Plan::full(workload, 25.0);
        assert_eq!(ingest::keys(&plan, 7, 0), ingest::keys(&plan, 7, 0));
        assert_ne!(ingest::keys(&plan, 7, 0), ingest::keys(&plan, 8, 0));
        assert_ne!(ingest::keys(&plan, 7, 0), ingest::keys(&plan, 7, 1));
    }
    let plan = Plan::full(Workload::MixedOpen, 25.0);
    assert_eq!(mixed::ops(&plan, 3), mixed::ops(&plan, 3));
    assert_ne!(mixed::ops(&plan, 3), mixed::ops(&plan, 4));
    let mut a = gen::stream(11, 1);
    let mut b = gen::stream(11, 1);
    assert_eq!(
        gen::zipf_keys(&mut a, 1000, 64, 1.1),
        gen::zipf_keys(&mut b, 1000, 64, 1.1)
    );
}

#[test]
fn mixed_open_inserts_fresh_keys_only() {
    let plan = Plan::full(Workload::MixedOpen, 25.0);
    let mut inserted: Vec<i64> = mixed::ops(&plan, 5)
        .into_iter()
        .filter_map(|op| match op {
            Op::Insert(k) => Some(k),
            Op::Lookup(_) => None,
        })
        .collect();
    let n = inserted.len();
    assert!(n > 0);
    assert!(
        inserted.iter().all(|k| k % 2 == 1),
        "preloaded keys are even"
    );
    inserted.sort_unstable();
    inserted.dedup();
    assert_eq!(inserted.len(), n, "each fresh key is inserted once");
}

#[test]
fn percentiles_need_ten_samples_beyond_them() {
    let v: Vec<f64> = (1..=1000).map(f64::from).collect();
    // 1000 samples: ten lie above the 990th.
    assert_eq!(percentile(&v, 0.99), Some(990.0));
    assert_eq!(percentile(&v[..999], 0.99), None);
    assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
    assert_eq!(percentile(&v[..19], 0.5), None);
    assert_eq!(percentile(&[], 0.5), None);
}

/// A stand-in server that answers every submit in order, but sits on
/// request `stall_at` for `stall` first.
fn stalling_mock(stall_at: u64, stall: Duration) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound").to_string();
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("one client");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut out = stream;
        while let Ok(Some(payload)) = read_frame(&mut reader, "mock") {
            if let Ok(ClientMsg::Submit { seq, .. }) = ClientMsg::decode(&payload) {
                if seq == stall_at {
                    std::thread::sleep(stall);
                }
                let answer = ServerMsg::Result {
                    seq,
                    outcome: WireOutcome::Ok(Response::OaLookedUp { found: vec![false] }),
                };
                if out.write_all(&frame_bytes(&answer.encode())).is_err() {
                    return;
                }
            }
        }
    });
    (addr, handle)
}

#[test]
fn an_open_loop_charges_a_stall_to_the_requests_behind_it() {
    const STALL_AT: usize = 100;
    let stall = Duration::from_millis(120);
    let (addr, mock) = stalling_mock(STALL_AT as u64, stall);
    let stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let ops = vec![Op::Lookup(1); 400];
    let start = Instant::now() + Duration::from_millis(5);
    let tracer = Tracer::new(false);
    let (run, ()) = mixed::open_loop(
        &stream,
        &ops,
        start,
        1000.0,
        &tracer,
        (Duration::ZERO, || ()),
    )
    .expect("open loop completes");
    drop(stream);
    mock.join().expect("mock exits");

    let samples = &run.samples;
    assert!(samples
        .iter()
        .all(|s| matches!(s.answer, Some((_, Outcome::Found(false))))));
    let released = samples[STALL_AT].answer.as_ref().expect("answered").0;
    assert!(released >= samples[STALL_AT].due + stall);
    // The writer kept its schedule through the stall instead of waiting
    // for answers...
    for s in &samples[STALL_AT + 1..STALL_AT + 50] {
        assert!(s.sent < released, "a request due mid-stall was held back");
    }
    // ...and each request due during the stall is charged, from its due
    // time, the part of the stall it queued behind.
    for s in &samples[STALL_AT + 1..STALL_AT + 50] {
        let latency = mixed::latency_ms(s).expect("answered");
        let queued = (released - s.due).as_secs_f64() * 1e3;
        assert!(
            latency >= queued,
            "latency {latency} ms < queued {queued} ms"
        );
    }
    let latency: Vec<f64> = samples.iter().filter_map(mixed::latency_ms).collect();
    assert!(percentile(&latency, 0.75).expect("400 samples") >= 20.0);
}

#[test]
fn result_json_round_trips() {
    let result = RunResult {
        workload: "ingest-hot".into(),
        seed: 42,
        seconds: 25.0,
        trace: false,
        correct: true,
        attempted: 1 << 40,
        failed: 3,
        metrics: vec![
            Metric {
                name: "p50_ms".into(),
                value: 0.917_593_123_456_789,
                unit: "ms".into(),
                samples: 573_440,
            },
            Metric {
                name: "setup_s".into(),
                value: 1.958_972e-7,
                unit: "s".into(),
                samples: 35,
            },
        ],
        stamp: Stamp {
            rev: "abc1234 \"dirty\"".into(),
            nproc: 2,
            cpu_features: vec!["sse2".into(), "avx2".into()],
            backend: "Sim".into(),
        },
    };
    let text = result.to_json().render();
    let back = RunResult::from_json(&Json::parse(&text).expect("parses")).expect("decodes");
    assert_eq!(back, result);
    let line = Json::parse(&result.summary_line()).expect("summary parses");
    let keys: Vec<&str> = match &line {
        Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("summary is an object"),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let doc = benchmark_json();
    let Json::Obj(members) = &doc else {
        panic!("BENCHMARK.json is an object")
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_f64),
        Some(fol_loadbench::RUN_SECONDS)
    );
    let workloads = listed_names(&doc, "workloads");
    assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
    for (table, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = doc.get(table).and_then(Json::as_arr).expect(table);
        assert_eq!(listed.len(), catalogue.len(), "{table} length");
        for (entry, def) in listed.iter().zip(catalogue) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(def.unit));
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(def.better.as_str())
            );
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                def.bound,
                "{}",
                def.name
            );
        }
    }
}

fn smoke(workload: Workload) {
    let doc = benchmark_json();
    let out: PathBuf =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("loadbench-smoke-{}", workload.name()));
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&out).expect("create smoke directory");
    for (trace, table) in [(false, "end_to_end"), (true, "per_layer")] {
        let opts = Options {
            seed: 3,
            trace,
            out: out.clone(),
            rev: "test".into(),
        };
        let result = run(&Plan::tiny(workload), &opts).expect("the tiny run completes");
        assert!(result.correct, "{} oracle failed", workload.name());
        assert_eq!(result.failed, 0);
        assert!(result.attempted > 0);
        let names: Vec<String> = result.metrics.iter().map(|m| m.name.clone()).collect();
        assert_eq!(
            names,
            listed_names(&doc, table),
            "{} {table}",
            workload.name()
        );
        assert!(result.metrics.iter().all(|m| m.value.is_finite()));
    }
    assert!(out
        .join(format!("trace-{}.jsonl", workload.name()))
        .is_file());
    let leftovers: Vec<_> = std::fs::read_dir(&out)
        .expect("read smoke directory")
        .filter_map(Result::ok)
        .filter(|e| e.path().is_dir())
        .collect();
    assert!(
        leftovers.is_empty(),
        "scratch directories left behind: {leftovers:?}"
    );
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn smoke_ingest_durable() {
    smoke(Workload::IngestDurable);
}

#[test]
fn smoke_ingest_hot() {
    smoke(Workload::IngestHot);
}

#[test]
fn smoke_mixed_open() {
    smoke(Workload::MixedOpen);
}

#[test]
fn smoke_ingest_faulty() {
    smoke(Workload::IngestFaulty);
}
