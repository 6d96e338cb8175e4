//! Pricing incremental durability: what do delta checkpoints buy, and what
//! does the generation walk cost at restart?
//!
//! Three sections:
//!
//! * **Checkpoint bytes at 1%-dirty steady state** (gated): a machine with
//!   128 tracked regions, one of which changes between cadence ticks. A
//!   full image serializes every region every tick; a delta serializes the
//!   dirty one plus per-region checksums. **Gated at ≥ 5× fewer bytes per
//!   delta** — the paper-promised cadence economics.
//! * **Time-to-first-ack after restart** (gated): two directories with the
//!   same committed contents, one written under an all-full-images cadence
//!   and one under the production delta cadence (a full image every 4th
//!   generation, so restart materializes base + up to 3 deltas). Each
//!   round restarts over a fresh copy and times `try_start` → first
//!   acknowledged request. Materializing the chain is **gated at ≤ 25%
//!   over** the full-image baseline.
//! * **Bounded disk across 10 cadences** (gated): a fixed-state workload
//!   driven through 10 full-image cadences with compaction on; total
//!   WAL + checkpoint bytes on disk must stop growing once retention and
//!   the WAL floor kick in (last sample ≤ 2× the post-warmup sample).
//!
//! Emits a JSON artifact (`restart.json`) for CI.

use fol_persist::{Checkpoint, DeltaCheckpoint, FsyncPolicy};
use fol_serve::{DurabilityConfig, Request, Server, ServerConfig};
use fol_vm::{CostModel, Machine, Word};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

fn fresh_dir(root: &Path) -> PathBuf {
    let dir = root.join(format!("run-{}", NEXT_DIR.fetch_add(1, Ordering::Relaxed)));
    std::fs::create_dir_all(&dir).expect("bench tmp dir");
    dir
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("copy dir");
    for entry in std::fs::read_dir(from).expect("read dir") {
        let path = entry.expect("dir entry").path();
        if path.is_file() {
            std::fs::copy(&path, to.join(path.file_name().unwrap())).expect("copy file");
        }
    }
}

/// Total bytes of durability artifacts (WAL segments, full images, deltas)
/// in a directory.
fn artifact_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("read dir")
        .filter_map(|e| e.ok())
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.ends_with(".wal") || name.ends_with(".ckpt") || name.ends_with(".delta")
        })
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

fn serve_config(dir: &Path, full_image_every: u64) -> ServerConfig {
    ServerConfig {
        workers: 1,
        queue_capacity: 256,
        max_batch: 16,
        max_wait: Duration::from_millis(1),
        idle_tick: Duration::from_millis(1),
        oa_slots: 1 << 14,
        durability: Some(
            DurabilityConfig::new(dir)
                .fsync(FsyncPolicy::Off)
                .checkpoint_every(1)
                .full_image_every(full_image_every),
        ),
        ..ServerConfig::default()
    }
}

/// Seed a directory with `requests` committed inserts under the given
/// cadence, leaving a clean shutdown's artifacts behind.
fn seed(dir: &Path, full_image_every: u64, requests: usize) {
    let (server, _) = Server::try_start(serve_config(dir, full_image_every)).expect("seed start");
    for r in 0..requests {
        let keys: Vec<Word> = (0..4).map(|j| (r * 4 + j) as Word).collect();
        server
            .call(Request::OaInsert { keys })
            .expect("seed insert");
    }
    server.shutdown();
}

/// Restart over `dir` and time from `try_start` to the first acknowledged
/// request — the recovery latency a client actually observes.
fn time_to_first_ack(dir: &Path, full_image_every: u64) -> f64 {
    let start = std::time::Instant::now();
    let (server, _) = Server::try_start(serve_config(dir, full_image_every)).expect("restart");
    server
        .call(Request::OaInsert {
            keys: vec![1_000_003],
        })
        .expect("first ack");
    let elapsed = start.elapsed().as_nanos() as f64;
    server.shutdown();
    elapsed
}

const REGIONS: usize = 128;
const REGION_WORDS: usize = 256;
const TTFA_ROUNDS: usize = 9;
const SEED_REQUESTS: usize = 64;

fn main() {
    let root = std::env::temp_dir().join(format!("fol-bench-restart-{}", std::process::id()));
    std::fs::create_dir_all(&root).expect("bench root");

    // --- Checkpoint bytes at 1%-dirty steady state ----------------------
    let mut m = Machine::new(CostModel::unit());
    let regions: Vec<_> = (0..REGIONS)
        .map(|_| m.alloc(REGION_WORDS, "state"))
        .collect();
    for (i, r) in regions.iter().enumerate() {
        for j in 0..REGION_WORDS {
            m.s_write(r.at(j), (i * REGION_WORDS + j) as Word);
        }
        m.track_region(*r);
    }
    let ckpt_dir = fresh_dir(&root);
    let full = Checkpoint::capture(&m, &regions, 1, vec![], vec![]);
    let full_path = ckpt_dir.join(Checkpoint::file_name("bench", 1));
    full.write(&full_path).expect("write full image");
    let full_bytes = std::fs::metadata(&full_path).expect("full image").len();

    // Steady state: each tick dirties one of the 128 regions (~0.8%).
    let mut parent_sums = full.checksums.clone();
    let mut parent_seq = 1u64;
    let mut delta_sizes: Vec<u64> = Vec::new();
    for tick in 0..10u64 {
        let r = &regions[(tick as usize * 37) % REGIONS];
        m.s_write(r.at(0), -(tick as Word) - 1);
        let seq = parent_seq + 1;
        let delta = DeltaCheckpoint::capture(&m, seq, parent_seq, &parent_sums, vec![], vec![]);
        let path = ckpt_dir.join(DeltaCheckpoint::file_name("bench", seq));
        delta.write(&path).expect("write delta");
        delta_sizes.push(std::fs::metadata(&path).expect("delta").len());
        parent_sums = delta.checksums.clone();
        parent_seq = seq;
    }
    delta_sizes.sort_unstable();
    let delta_bytes = delta_sizes[delta_sizes.len() / 2];
    let bytes_ratio = full_bytes as f64 / delta_bytes as f64;
    println!("restart/checkpoint-bytes/full                    {full_bytes:>14} B");
    println!(
        "restart/checkpoint-bytes/delta-1pct-dirty        {delta_bytes:>14} B  ({bytes_ratio:.1}x smaller)"
    );

    // --- Time-to-first-ack: delta chain vs full-image baseline ----------
    // The delta variant runs the production cadence (a full image every
    // 4th generation, so restart materializes base + up to 3 deltas); the
    // baseline cuts a full image every generation. Same committed
    // contents, same request history, different artifact shapes.
    let full_seed = fresh_dir(&root);
    let delta_seed = fresh_dir(&root);
    seed(&full_seed, 1, SEED_REQUESTS);
    seed(&delta_seed, 4, SEED_REQUESTS);
    let mut full_samples: Vec<f64> = Vec::new();
    let mut delta_samples: Vec<f64> = Vec::new();
    for _ in 0..=TTFA_ROUNDS {
        // Restart mutates the directory (new segments, new generations),
        // so every round measures a fresh byte-identical copy; the first
        // round of each variant is discarded below as warm-up.
        let a = fresh_dir(&root);
        copy_dir(&full_seed, &a);
        full_samples.push(time_to_first_ack(&a, 1));
        let b = fresh_dir(&root);
        copy_dir(&delta_seed, &b);
        delta_samples.push(time_to_first_ack(&b, 4));
    }
    full_samples.remove(0);
    delta_samples.remove(0);
    let median = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    };
    let full_ttfa = median(&mut full_samples);
    let delta_ttfa = median(&mut delta_samples);
    let ttfa_overhead = delta_ttfa / full_ttfa - 1.0;
    println!(
        "restart/time-to-first-ack/full-images            {full_ttfa:>14.1} ns  (median of {TTFA_ROUNDS})"
    );
    println!(
        "restart/time-to-first-ack/delta-chain            {delta_ttfa:>14.1} ns  ({:+.1}%)",
        100.0 * ttfa_overhead
    );

    // --- Bounded disk across 10 cadences --------------------------------
    // Fixed-state workload: the same keys re-inserted every round, so the
    // table stops changing and the only growth pressure is the log and the
    // generation files — exactly what compaction must bound.
    let disk_dir = fresh_dir(&root);
    let mut disk_series: Vec<u64> = Vec::new();
    {
        let (server, _) = Server::try_start(serve_config(&disk_dir, 4)).expect("disk start");
        for _round in 0..10 {
            // One full-image cadence per round: full_image_every=4 at
            // checkpoint_every=1 means 4 mutating batches per full image.
            for r in 0..4usize {
                let keys: Vec<Word> = (0..4).map(|j| (r * 4 + j) as Word).collect();
                server
                    .call(Request::OaInsert { keys })
                    .expect("disk insert");
            }
            disk_series.push(artifact_bytes(&disk_dir));
        }
        server.shutdown();
    }
    let warmup = disk_series[2];
    let last = *disk_series.last().unwrap();
    println!(
        "restart/disk-across-cadences                     {disk_series:?} B (warmup {warmup}, last {last})"
    );

    // --- JSON artifact ---------------------------------------------------
    let series: Vec<String> = disk_series.iter().map(|b| b.to_string()).collect();
    let body = format!(
        "{{\"bench\":\"restart\",{},\
          \"checkpoint_bytes\":{{\"full\":{full_bytes},\"delta_1pct\":{delta_bytes},\"ratio\":{bytes_ratio:.2}}},\
          \"time_to_first_ack\":{{\"full_ns\":{full_ttfa:.1},\"delta_ns\":{delta_ttfa:.1},\"overhead\":{ttfa_overhead:.4}}},\
          \"disk_bytes_per_cadence\":[{}]}}",
        fol_bench::report::engine_fields(ServerConfig::default().backend),
        series.join(",")
    );
    let dir = std::env::var("BENCH_ARTIFACT_DIR").unwrap_or_else(|_| "target/bench".into());
    let _ = std::fs::create_dir_all(&dir);
    let path = format!("{dir}/restart.json");
    std::fs::write(&path, body + "\n").expect("write bench artifact");
    println!("artifact: {path}");

    let _ = std::fs::remove_dir_all(&root);

    // The gates.
    assert!(
        bytes_ratio >= 5.0,
        "a 1%-dirty delta must be at least 5x smaller than a full image \
         (full {full_bytes} B, delta {delta_bytes} B, ratio {bytes_ratio:.1}x)"
    );
    assert!(
        ttfa_overhead <= 0.25,
        "restarting through the delta chain must stay within 25% of the \
         full-image baseline (got {:+.1}%)",
        100.0 * ttfa_overhead
    );
    assert!(
        last <= 2 * warmup.max(1),
        "disk must stop growing once compaction kicks in: \
         series {disk_series:?}"
    );
}
