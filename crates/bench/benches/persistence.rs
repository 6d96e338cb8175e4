//! Pricing durability: what do the write-ahead request log and the
//! checkpoint cadence cost the serving layer?
//!
//! Three sections:
//!
//! * **End-to-end** (gated): a fixed traffic load — 512 chain-insert
//!   requests of 64 keys each — through a single-worker
//!   [`fol_serve::Server`], non-durable vs durable at each
//!   [`FsyncPolicy`]. The `Batch` row is the production setting (the
//!   submit path stays fsync-free; the worker syncs once per batch), and
//!   it is **gated at ≤ 15% overhead** over the non-durable baseline.
//!   `Always` (fsync per acknowledgement) and `Off` are reported for the
//!   durability/latency trade-off table.
//! * **WAL micro** (informational): raw ns per append+commit for a
//!   64-byte payload at each fsync policy, committing every 8 appends —
//!   the floor under the end-to-end rows.
//! * **Checkpoint micro** (informational): capture+write and load+verify
//!   of a machine with an 8 KiB tracked region — what one cadence tick
//!   costs and what restart pays per checkpoint.
//!
//! Emits a JSON artifact (`persistence.json`) for CI.

use fol_bench::harness::bench;
use fol_persist::{Checkpoint, FsyncPolicy, Wal};
use fol_serve::{DurabilityConfig, Request, Server, ServerConfig};
use fol_vm::{CostModel, Machine, Word};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const REQUESTS: usize = 512;
const KEYS_PER_REQUEST: usize = 64;
const PRODUCERS: usize = 4;

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

/// A fresh subdirectory per server run: `Wal::open` always starts a new
/// segment, so reusing one directory would grow the restart scan with
/// every iteration and skew the timing.
fn fresh_dir(root: &Path) -> PathBuf {
    let dir = root.join(format!("run-{}", NEXT_DIR.fetch_add(1, Ordering::Relaxed)));
    std::fs::create_dir_all(&dir).expect("bench tmp dir");
    dir
}

/// The full request load through a single-worker server; `durability`
/// None is the baseline the durable rows are priced against.
fn run_server(root: &Path, fsync: Option<FsyncPolicy>) {
    let durability = fsync.map(|policy| {
        DurabilityConfig::new(fresh_dir(root))
            .fsync(policy)
            .checkpoint_every(4)
    });
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 2 * REQUESTS,
        max_batch: 128,
        max_wait: Duration::from_millis(3),
        chain_buckets: 1024,
        chain_capacity: REQUESTS * KEYS_PER_REQUEST + REQUESTS * KEYS_PER_REQUEST / 4,
        durability,
        ..ServerConfig::default()
    });
    // Several producers, as in real serving: submission latency (which the
    // admission log adds to) overlaps across clients and with execution.
    std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let server = &server;
            s.spawn(move || {
                let tickets: Vec<_> = (p..REQUESTS)
                    .step_by(PRODUCERS)
                    .map(|r| {
                        let keys: Vec<Word> = (0..KEYS_PER_REQUEST)
                            .map(|j| (r * KEYS_PER_REQUEST + j) as Word)
                            .collect();
                        server.submit(Request::ChainInsert { keys }).unwrap()
                    })
                    .collect();
                for t in tickets {
                    t.wait().expect("no faults injected");
                }
            });
        }
    });
    drop(server);
}

/// Raw log cost: append a 64-byte payload, committing every 8 appends.
fn run_wal_appends(root: &Path, policy: FsyncPolicy) {
    let dir = fresh_dir(root);
    let mut wal = Wal::open(&dir, "bench", policy, 1 << 20).expect("open wal");
    let payload = [0x5Au8; 64];
    for i in 0..64u32 {
        wal.append(black_box(&payload)).expect("append");
        if (i + 1) % 8 == 0 {
            wal.commit().expect("commit");
        }
    }
}

fn checkpoint_machine() -> (Machine, Vec<fol_vm::Region>) {
    let mut m = Machine::new(CostModel::unit());
    let r = m.alloc(1024, "state"); // 8 KiB of Words
    for i in 0..1024 {
        m.s_write(r.at(i), (i as Word) * 31 - 7);
    }
    m.track_region(r);
    (m, vec![r])
}

/// Rounds of interleaved end-to-end sampling (see `main`).
const E2E_ROUNDS: usize = 9;

fn main() {
    let root = std::env::temp_dir().join(format!("fol-bench-persistence-{}", std::process::id()));
    std::fs::create_dir_all(&root).expect("bench root");

    // End-to-end: the durable server vs the non-durable baseline. One full
    // server run is tens of milliseconds of threads, condvars, and real
    // I/O, so instead of timing each variant in its own block (where
    // machine drift between blocks masquerades as overhead) the variants
    // are interleaved round-robin and the per-variant medians compared.
    let variants: [(&str, Option<FsyncPolicy>); 4] = [
        ("non-durable", None),
        ("fsync-batch", Some(FsyncPolicy::Batch)),
        ("fsync-always", Some(FsyncPolicy::Always)),
        ("fsync-off", Some(FsyncPolicy::Off)),
    ];
    let mut samples: [Vec<f64>; 4] = [vec![], vec![], vec![], vec![]];
    for (_, policy) in &variants {
        run_server(&root, *policy); // warm-up round, untimed
    }
    for _ in 0..E2E_ROUNDS {
        for (i, (_, policy)) in variants.iter().enumerate() {
            let start = std::time::Instant::now();
            run_server(&root, *policy);
            samples[i].push(start.elapsed().as_nanos() as f64);
        }
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    };
    let mut medians = [0.0f64; 4];
    for (i, (name, _)) in variants.iter().enumerate() {
        medians[i] = median(&mut samples[i]);
        println!(
            "persistence/serve/{name:<34} {:>14.1} ns/run  (median of {E2E_ROUNDS})",
            medians[i]
        );
    }
    let [baseline, batch, always, off] = medians;
    let overhead = |ns: f64| ns / baseline - 1.0;
    println!(
        "durability overhead vs non-durable: batch {:+.1}%  always {:+.1}%  off {:+.1}%",
        100.0 * overhead(batch),
        100.0 * overhead(always),
        100.0 * overhead(off),
    );

    // WAL micro floor.
    let wal_off = bench("persistence/wal-append/fsync-off", || {
        run_wal_appends(&root, FsyncPolicy::Off)
    });
    let wal_batch = bench("persistence/wal-append/fsync-batch", || {
        run_wal_appends(&root, FsyncPolicy::Batch)
    });
    let wal_always = bench("persistence/wal-append/fsync-always", || {
        run_wal_appends(&root, FsyncPolicy::Always)
    });

    // Checkpoint micro: one cadence tick, and what restart pays to load.
    let (m, regions) = checkpoint_machine();
    let ckpt_dir = fresh_dir(&root);
    let mut seq = 0u64;
    let capture_write = bench("persistence/checkpoint/capture+write", || {
        seq += 1;
        let c = Checkpoint::capture(&m, &regions, seq, vec![], vec![]);
        c.write(&ckpt_dir.join(Checkpoint::file_name("bench", seq)))
            .expect("write checkpoint");
    });
    let load_path = ckpt_dir.join(Checkpoint::file_name("bench", seq));
    let load_verify = bench("persistence/checkpoint/load+verify", || {
        let c = Checkpoint::load(black_box(&load_path)).expect("load checkpoint");
        c.verify().expect("verify checkpoint");
        black_box(c);
    });

    // JSON artifact for CI (hand-rolled; the workspace is dependency-free).
    let mut body = format!(
        "{{\"bench\":\"persistence\",{},\"end_to_end\":{{",
        fol_bench::report::engine_fields(ServerConfig::default().backend)
    );
    body.push_str(&format!(
        "\"baseline_ns\":{:.1},\"batch_ns\":{:.1},\"always_ns\":{:.1},\"off_ns\":{:.1},\
         \"batch_overhead\":{:.4},\"always_overhead\":{:.4},\"off_overhead\":{:.4}}}",
        baseline,
        batch,
        always,
        off,
        overhead(batch),
        overhead(always),
        overhead(off),
    ));
    body.push_str(&format!(
        ",\"wal_append\":{{\"off_ns\":{:.1},\"batch_ns\":{:.1},\"always_ns\":{:.1}}}",
        wal_off.ns_per_iter, wal_batch.ns_per_iter, wal_always.ns_per_iter
    ));
    body.push_str(&format!(
        ",\"checkpoint\":{{\"capture_write_ns\":{:.1},\"load_verify_ns\":{:.1}}}}}",
        capture_write.ns_per_iter, load_verify.ns_per_iter
    ));
    let dir = std::env::var("BENCH_ARTIFACT_DIR").unwrap_or_else(|_| "target/bench".into());
    let _ = std::fs::create_dir_all(&dir);
    let path = format!("{dir}/persistence.json");
    std::fs::write(&path, body + "\n").expect("write bench artifact");
    println!("artifact: {path}");

    let _ = std::fs::remove_dir_all(&root);

    // The production gate: at the `Batch` policy the submit path is
    // fsync-free and the worker syncs once per batch, so durable serving
    // must cost at most 15% over the non-durable baseline.
    let batch_overhead = overhead(batch);
    assert!(
        batch_overhead <= 0.15,
        "durable serving at FsyncPolicy::Batch must stay within 15% of the \
         non-durable baseline (got {:+.1}%)",
        100.0 * batch_overhead
    );
}
