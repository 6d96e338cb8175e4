//! Coalescing pricing: what does the serving layer's batch scheduler buy?
//!
//! The FOL method amortizes per-transaction overhead (the supervisor's
//! bracket, journaling, the footprint scrub, the post-condition) and
//! per-round vector start-up over the index vector's length, so 256
//! one-key transactions pay ~256× the fixed cost that one 256-key
//! transaction pays once. A pass sweeps the batch, not the structure: the
//! bracket scrubs only the blocks a transaction touched, so what is
//! amortized is per-transaction and per-round start-up, not a scan of the
//! table. Two sections:
//!
//! * **Machine-level** (gated): 256 chaining-insert requests of size
//!   s ∈ {1, 8, 64}, executed one-txn-per-request vs coalesced into a
//!   single `txn_insert_groups` batch (`max_batch` 256). The size-1 row —
//!   the serving layer's reason to exist — must show at least a 2×
//!   speedup.
//! * **End-to-end** (informational): the same size-1 traffic pushed
//!   through a real single-worker [`fol_serve::Server`], with coalescing
//!   on (`max_batch` 256) vs off (`max_batch` 1). Wall-clock through
//!   threads and condvars, so it is reported but not gated.
//!
//! Emits a JSON artifact (`serve.json`) for CI.

use fol_bench::harness::bench;
use fol_core::error::Validation;
use fol_core::recover::{ExecMode, RetryPolicy};
use fol_hash::chaining::{txn_insert_all, txn_insert_groups, ChainTable};
use fol_serve::{Request, Server, ServerConfig};
use fol_vm::{CostModel, Machine, Word};
use std::hint::black_box;
use std::time::Duration;

const REQUESTS: usize = 256;

/// Happy-path policy: single `Vector` rung, validation and audit off, so
/// the rows price coalescing itself rather than the defense layers.
fn policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 1,
        ladder: vec![ExecMode::Vector],
        validation: Validation::Off,
        audit_rate: 0,
        ..RetryPolicy::default()
    }
}

fn groups_of(size: usize) -> Vec<Vec<Word>> {
    (0..REQUESTS)
        .map(|r| (0..size).map(|j| (r * size + j) as Word).collect())
        .collect()
}

fn fresh_table(size: usize) -> (Machine, ChainTable) {
    let mut m = Machine::new(CostModel::unit());
    let capacity = REQUESTS * size;
    let table = ChainTable::alloc(&mut m, 512, capacity);
    (m, table)
}

/// One txn per request: the unbatched serving baseline.
fn run_per_request(groups: &[Vec<Word>], size: usize) {
    let (mut m, mut table) = fresh_table(size);
    let policy = policy();
    for g in groups {
        let out =
            txn_insert_all(&mut m, &mut table, black_box(g), &policy).expect("no faults injected");
        black_box(out);
    }
}

/// All requests coalesced into one transaction's index vector.
fn run_coalesced(groups: &[Vec<Word>], size: usize) {
    let (mut m, mut table) = fresh_table(size);
    let outs = txn_insert_groups(&mut m, &mut table, black_box(groups), &policy());
    for out in outs {
        out.expect("no faults injected");
    }
}

/// The same size-1 traffic through a real server; `max_batch` 1 disables
/// coalescing, so the pair isolates what the scheduler buys end-to-end.
/// `backend` selects the workers' lane engine — the per-backend sweep in
/// `main` prices the engines in wall-clock, not modelled cycles.
fn run_server(max_batch: usize, backend: fol_vm::BackendKind) {
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 2 * REQUESTS,
        max_batch,
        max_wait: Duration::from_micros(200),
        chain_buckets: 512,
        chain_capacity: 2 * REQUESTS,
        backend,
        ..ServerConfig::default()
    });
    let tickets: Vec<_> = (0..REQUESTS as Word)
        .map(|k| {
            server
                .submit(Request::ChainInsert { keys: vec![k] })
                .unwrap()
        })
        .collect();
    for t in tickets {
        t.wait().expect("no faults injected");
    }
    drop(server);
}

fn main() {
    let mut rows: Vec<(usize, f64, f64)> = Vec::new();
    for size in [1usize, 8, 64] {
        let groups = groups_of(size);
        let per = bench(&format!("serve/per-request/size-{size}"), || {
            run_per_request(&groups, size)
        });
        let coal = bench(&format!("serve/coalesced/size-{size}"), || {
            run_coalesced(&groups, size)
        });
        let speedup = per.ns_per_iter / coal.ns_per_iter;
        println!("size {size}: coalescing speedup {speedup:.1}x over one-txn-per-request");
        rows.push((size, per.ns_per_iter, coal.ns_per_iter));
    }

    let size1_speedup = rows[0].1 / rows[0].2;
    assert!(
        size1_speedup >= 2.0,
        "coalescing must be at least 2x faster than one-txn-per-request \
         for size-1 requests at max_batch 256 (got {size1_speedup:.2}x)"
    );

    // The end-to-end pair runs on the engine `Machine::new` builds, like
    // the gated rows above.
    let default_kind = Machine::new(CostModel::unit()).backend_kind();
    let batched = bench("serve/end-to-end/max-batch-256", || {
        run_server(256, default_kind)
    });
    let unbatched = bench("serve/end-to-end/max-batch-1", || {
        run_server(1, default_kind)
    });
    let e2e_speedup = unbatched.ns_per_iter / batched.ns_per_iter;
    println!("end-to-end: coalescing speedup {e2e_speedup:.1}x (informational)");

    // Per-backend wall-clock: the same coalesced end-to-end traffic on each
    // execution backend. Requesting avx2 on a machine without it resolves
    // to the scalar engine (typed fallback), so the row is labelled with
    // what actually ran.
    let mut backend_rows: Vec<(&str, f64)> = Vec::new();
    for kind in [fol_vm::BackendKind::Scalar, fol_vm::BackendKind::Avx2] {
        let ran = fol_simd::engine_for(kind).kind();
        if ran != kind {
            println!("serve/end-to-end/backend-avx2: SKIPPED (AVX2 not detected; scalar fallback already measured)");
            continue;
        }
        let m = bench(&format!("serve/end-to-end/backend-{ran}"), || {
            run_server(256, kind)
        });
        let ops_per_s = REQUESTS as f64 * 1e9 / m.ns_per_iter;
        println!("backend {ran}: {ops_per_s:.0} requests/s end-to-end");
        backend_rows.push((ran.as_str(), ops_per_s));
    }

    // JSON artifact for CI (hand-rolled; the workspace is dependency-free).
    let mut body = format!(
        "{{\"bench\":\"serve\",{},\"rows\":[",
        fol_bench::report::engine_fields(default_kind)
    );
    for (i, (size, per, coal)) in rows.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"request_size\":{size},\"per_request_ns\":{per:.1},\"coalesced_ns\":{coal:.1},\"speedup\":{:.3}}}",
            per / coal
        ));
    }
    body.push_str(&format!(
        "],\"end_to_end\":{{\"batched_ns\":{:.1},\"unbatched_ns\":{:.1},\"speedup\":{:.3}}},\"backends\":[",
        batched.ns_per_iter, unbatched.ns_per_iter, e2e_speedup
    ));
    for (i, (name, ops)) in backend_rows.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"backend\":\"{name}\",\"ops_per_s\":{ops:.0}}}"
        ));
    }
    body.push_str("]}");
    let dir = std::env::var("BENCH_ARTIFACT_DIR").unwrap_or_else(|_| "target/bench".into());
    let _ = std::fs::create_dir_all(&dir);
    let path = format!("{dir}/serve.json");
    std::fs::write(&path, body + "\n").expect("write bench artifact");
    println!("artifact: {path}");
}
