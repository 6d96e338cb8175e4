//! SIGKILL crash/restart chaos suite: real child processes are killed at
//! chosen moments and the survivors' disks are what restart sees.
//!
//! Every cell follows the same shape: spawn this same test binary as a
//! child (`child_entrypoint` dispatches on `FOL_CRASH_ROLE`), let it make
//! durable progress against a tmpdir, SIGKILL it, optionally injure the
//! surviving files (torn tails, torn checkpoints, mid-log corruption), and
//! then restart **in-process** over the same directory. The invariants:
//!
//! * **No acknowledged request is lost.** A key whose insert the child
//!   acknowledged (recorded in an ack file *after* the server's reply)
//!   must be present after restart — recovered from a checkpoint or
//!   re-driven from the write-ahead request log.
//! * **Corrupt history is refused, typed.** A byte flip inside a sealed
//!   log segment or a torn checkpoint is never replayed around silently:
//!   the log refuses startup ([`ServeError::Persist`]); the checkpoint is
//!   refused with a typed reason and recovery falls back to the next
//!   oldest one plus the log.
//! * **A torn log tail is the accepted crash frontier**, surfaced in the
//!   [`fol_serve::RestartReport`], never an error.
//!
//! Each cell writes a small JSON summary to `target/crash/<cell>.json`
//! (override with `$CRASH_ARTIFACT_DIR`) so CI can attach the artifacts.
//! Tmpdirs are removed on drop; set `FOL_KEEP_CRASH_DIRS=1` to keep them
//! for a post-mortem.

use fol_persist::frame::{next_frame, Frame};
use fol_persist::wal;
use fol_persist::{Compactor, LogRecord};
use fol_serve::{
    decode_record, worker_prefix, DurRecord, DurabilityConfig, FsyncPolicy, Request, ServeError,
    Server, ServerConfig, SkipReason, WorkloadClass, REQUEST_LOG_PREFIX,
};
use fol_vm::Word;
use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------- plumbing

/// A per-cell scratch directory, removed when the cell ends (pass or fail)
/// unless `FOL_KEEP_CRASH_DIRS=1` asks for a post-mortem.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "fol-crash-restart-{}-{tag}-{n}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        if std::env::var_os("FOL_KEEP_CRASH_DIRS").is_none() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

/// Re-executes this test binary with `child_entrypoint` selected and the
/// role/dir passed through the environment. The child is a full, separate
/// OS process: killing it is a real SIGKILL, not a simulated panic.
fn spawn_child(role: &str, dir: &Path, extra: &[(&str, &str)]) -> Child {
    let exe = std::env::current_exe().expect("test binary path");
    let mut cmd = Command::new(exe);
    cmd.args(["child_entrypoint", "--exact", "--test-threads", "1"])
        .env("FOL_CRASH_ROLE", role)
        .env("FOL_CRASH_DIR", dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    for (k, v) in extra {
        cmd.env(k, v);
    }
    cmd.spawn().expect("spawn crash child")
}

fn wait_until(what: &str, deadline: Duration, mut done: impl FnMut() -> bool) {
    let start = Instant::now();
    while !done() {
        assert!(
            start.elapsed() < deadline,
            "timed out after {deadline:?} waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn kill(mut child: Child) {
    child.kill().expect("SIGKILL the crash child");
    child.wait().expect("reap the crash child");
}

/// Keys the child acknowledged, in ack order. The kill can land mid-line,
/// so a trailing partial line is ignored — an ack is an ack only once its
/// record is complete, exactly like the log's own framing.
fn read_acks(dir: &Path) -> Vec<Word> {
    let text = std::fs::read_to_string(dir.join("acks.txt")).unwrap_or_default();
    text.lines().filter_map(|l| l.parse().ok()).collect()
}

fn serve_config(dir: &Path, checkpoint_every: u64, segment_bytes: u64) -> ServerConfig {
    serve_config_with(dir, checkpoint_every, segment_bytes, FsyncPolicy::Off, 4)
}

fn serve_config_with(
    dir: &Path,
    checkpoint_every: u64,
    segment_bytes: u64,
    fsync: FsyncPolicy,
    full_image_every: u64,
) -> ServerConfig {
    let mut durability = DurabilityConfig::new(dir)
        .fsync(fsync)
        .checkpoint_every(checkpoint_every)
        .full_image_every(full_image_every);
    durability.segment_bytes = segment_bytes;
    ServerConfig {
        workers: 1,
        queue_capacity: 64,
        max_batch: 8,
        max_wait: Duration::from_millis(1),
        idle_tick: Duration::from_millis(1),
        oa_slots: 1 << 14,
        durability: Some(durability),
        ..ServerConfig::default()
    }
}

/// Checkpoint generations of worker 0 with the given extension (`"ckpt"` for
/// full images, `"delta"` for deltas), sorted by generation id.
fn generations(dir: &Path, ext: &str) -> Vec<(u64, PathBuf)> {
    let prefix = format!("{}-", worker_prefix(0));
    let suffix = format!(".{ext}");
    let mut out: Vec<(u64, PathBuf)> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter_map(|p| {
            let name = p.file_name()?.to_str()?.to_owned();
            let seq = name
                .strip_prefix(&prefix)?
                .strip_suffix(&suffix)?
                .parse()
                .ok()?;
            Some((seq, p))
        })
        .collect();
    out.sort_unstable();
    out
}

/// Byte-for-byte clone of a flat survivor directory, so destructive sweeps
/// (truncation points, injury variants) each work on a fresh copy.
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        if path.is_file() {
            std::fs::copy(&path, to.join(path.file_name().unwrap())).unwrap();
        }
    }
}

/// Restart over `dir`, assert every acknowledged key survived exactly once,
/// and return (recovered keys, restart report).
fn restart_and_audit(
    dir: &Path,
    checkpoint_every: u64,
    acked: &[Word],
    what: &str,
) -> (Vec<Word>, fol_serve::RestartReport) {
    let (server, restart) = Server::try_start(serve_config(dir, checkpoint_every, 1 << 20))
        .unwrap_or_else(|e| panic!("restart after {what} must succeed: {e}"));
    let report = server.shutdown();
    let keys = oa_keys(&report);
    assert!(
        keys.windows(2).all(|w| w[0] < w[1]),
        "replay must not double-apply after {what}: {keys:?}"
    );
    for k in acked {
        assert!(
            keys.binary_search(k).is_ok(),
            "acknowledged key {k} lost after {what}; recovered {} keys",
            keys.len()
        );
    }
    (keys, restart)
}

fn oa_keys(report: &fol_serve::ShutdownReport) -> Vec<Word> {
    let mut keys: Vec<Word> = report
        .dumps
        .iter()
        .filter(|d| d.class == WorkloadClass::OpenAddr)
        .flat_map(|d| d.keys.iter().copied())
        .collect();
    keys.sort_unstable();
    keys
}

/// One JSON artifact per cell; values arrive pre-rendered (numbers, bools,
/// or already-quoted strings).
fn write_cell_report(cell: &str, fields: &[(&str, String)]) {
    let dir = std::env::var_os("CRASH_ARTIFACT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/crash"));
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let mut s = format!("{{\n  \"cell\": \"{cell}\"");
    for (k, v) in fields {
        s.push_str(&format!(",\n  \"{k}\": {v}"));
    }
    s.push_str("\n}\n");
    let _ = std::fs::write(dir.join(format!("{cell}.json")), s);
}

// ------------------------------------------------------------ child roles

/// Child dispatch. In a normal test run (no `FOL_CRASH_ROLE`) this is a
/// no-op pass; under a role it runs that role's workload until the parent
/// kills it.
#[test]
fn child_entrypoint() {
    let role = match std::env::var("FOL_CRASH_ROLE") {
        Ok(r) => r,
        Err(_) => return,
    };
    let dir = PathBuf::from(std::env::var("FOL_CRASH_DIR").expect("FOL_CRASH_DIR"));
    match role.as_str() {
        "serve-insert" => child_serve_insert(&dir),
        other => panic!("unknown crash role {other:?}"),
    }
}

/// Runs a durable server and inserts distinct keys one at a time, appending
/// each key to `acks.txt` only *after* the server acknowledged it — the
/// client-side ack protocol the no-lost-ack cells audit against.
fn child_serve_insert(dir: &Path) {
    let every: u64 = std::env::var("FOL_CRASH_CKPT_EVERY")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let seg: u64 = std::env::var("FOL_CRASH_SEG_BYTES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1 << 20);
    let fsync: FsyncPolicy = std::env::var("FOL_CRASH_FSYNC")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(FsyncPolicy::Off);
    let full_every: u64 = std::env::var("FOL_CRASH_FULL_EVERY")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let mut config = serve_config_with(dir, every, seg, fsync, full_every);
    if let Some(slots) = std::env::var("FOL_CRASH_OA_SLOTS")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        config.oa_slots = slots;
    }
    let (server, _) = Server::try_start(config).expect("child start");
    let mut acks = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("acks.txt"))
        .expect("open ack file");
    for k in 0..10_000i64 {
        match server.call(Request::OaInsert { keys: vec![k] }) {
            Ok(_) => {
                writeln!(acks, "{k}").expect("record ack");
                acks.flush().expect("flush ack");
            }
            Err(e) => panic!("child insert {k}: {e}"),
        }
    }
    panic!("the parent was supposed to SIGKILL this child long before 10k inserts");
}

// ------------------------------------------------------------------ cells

/// SIGKILL mid-stream: every key the child's client saw acknowledged is
/// present after restart, exactly once, and a second restart reproduces a
/// byte-identical table — the replay is deterministic and idempotent.
#[test]
fn sigkill_mid_batch_loses_no_acknowledged_request() {
    let tmp = TempDir::new("no-lost-ack");
    let child = spawn_child("serve-insert", tmp.path(), &[("FOL_CRASH_CKPT_EVERY", "4")]);
    wait_until("48 acknowledged inserts", Duration::from_secs(60), || {
        read_acks(tmp.path()).len() >= 48
    });
    kill(child);
    let acked = read_acks(tmp.path());

    let (server, restart) = Server::try_start(serve_config(tmp.path(), 4, 1 << 20))
        .expect("restart over the crashed child's directory");
    let report = server.shutdown();
    let keys = oa_keys(&report);
    assert!(
        keys.windows(2).all(|w| w[0] < w[1]),
        "replay must not double-apply: duplicate key in {keys:?}"
    );
    for k in &acked {
        assert!(
            keys.binary_search(k).is_ok(),
            "acknowledged key {k} lost across the crash; recovered {} keys",
            keys.len()
        );
    }

    // Oracle check: recovery is a pure function of the surviving disk, so
    // restarting again over the (now clean) state must reproduce the same
    // table byte-for-byte.
    let (server2, _) = Server::try_start(serve_config(tmp.path(), 4, 1 << 20)).unwrap();
    let report2 = server2.shutdown();
    assert_eq!(oa_keys(&report2), keys, "recovery must be deterministic");

    write_cell_report(
        "sigkill_mid_batch",
        &[
            ("acked", acked.len().to_string()),
            ("recovered", keys.len().to_string()),
            ("replayed", restart.replayed.to_string()),
            ("torn_tail", restart.torn_tail.to_string()),
            ("acked_lost", "0".into()),
            ("passed", "true".into()),
        ],
    );
}

/// A torn write-ahead-log tail (the kill signature) is the accepted crash
/// frontier: surfaced in the restart report, with everything before the
/// tear — including every acknowledged key — intact.
#[test]
fn torn_wal_tail_is_surfaced_and_costs_no_acks() {
    let tmp = TempDir::new("torn-tail");
    let child = spawn_child("serve-insert", tmp.path(), &[("FOL_CRASH_CKPT_EVERY", "4")]);
    wait_until("24 acknowledged inserts", Duration::from_secs(60), || {
        read_acks(tmp.path()).len() >= 24
    });
    kill(child);
    let acked = read_acks(tmp.path());

    // Tear the newest segment mid-record. Only the final record can be
    // damaged, and a ripped-off completion is exactly what replay covers.
    // A compaction pass rotates the log, so a kill right after a rotation
    // leaves a bare header as the last segment: drop such trailing
    // segments first, leaving the log a kill mid-append would have left.
    let mut segs = wal::segments(tmp.path(), REQUEST_LOG_PREFIX).unwrap();
    while let Some((_, path)) = segs.last() {
        if std::fs::metadata(path).unwrap().len() > 20 {
            break;
        }
        std::fs::remove_file(path).unwrap();
        segs.pop();
    }
    let (_, path) = segs.last().expect("the child wrote a log");
    let len = std::fs::metadata(path).unwrap().len();
    assert!(len > 20, "segment too short to tear mid-record");
    std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .unwrap()
        .set_len(len - 3)
        .unwrap();

    let (server, restart) =
        Server::try_start(serve_config(tmp.path(), 4, 1 << 20)).expect("torn tail must not refuse");
    assert!(restart.torn_tail, "the tear is surfaced: {restart:?}");
    let report = server.shutdown();
    let keys = oa_keys(&report);
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "no duplicates");
    for k in &acked {
        assert!(
            keys.binary_search(k).is_ok(),
            "acknowledged key {k} lost to a torn tail"
        );
    }
    write_cell_report(
        "torn_wal_tail",
        &[
            ("acked", acked.len().to_string()),
            ("recovered", keys.len().to_string()),
            ("replayed", restart.replayed.to_string()),
            ("acked_lost", "0".into()),
            ("passed", "true".into()),
        ],
    );
}

/// A byte flip inside a *sealed* log segment is corruption, not a crash
/// frontier: startup over that history is refused with the typed
/// persistence error, never silently replayed around.
#[test]
fn corrupt_sealed_wal_segment_refuses_restart_typed() {
    let tmp = TempDir::new("corrupt-wal");
    // Tiny segments so the child seals several; a sealed segment admits no
    // torn-tail forgiveness.
    let child = spawn_child(
        "serve-insert",
        tmp.path(),
        &[
            ("FOL_CRASH_CKPT_EVERY", "4"),
            ("FOL_CRASH_SEG_BYTES", "2048"),
        ],
    );
    wait_until("64 acknowledged inserts", Duration::from_secs(60), || {
        read_acks(tmp.path()).len() >= 64
    });
    kill(child);

    let segs = wal::segments(tmp.path(), REQUEST_LOG_PREFIX).unwrap();
    assert!(
        segs.len() >= 2,
        "expected multiple sealed segments: {segs:?}"
    );
    let (_, first) = &segs[0];
    let mut bytes = std::fs::read(first).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(first, &bytes).unwrap();

    let err = match Server::try_start(serve_config(tmp.path(), 4, 2048)) {
        Err(e) => e,
        Ok(_) => panic!("corrupt sealed history must refuse startup"),
    };
    assert!(
        matches!(err, ServeError::Persist { .. }),
        "refusal must be typed: {err}"
    );
    write_cell_report(
        "corrupt_sealed_wal",
        &[
            ("segments", segs.len().to_string()),
            ("error", format!("{:?}", format!("{err}"))),
            ("passed", "true".into()),
        ],
    );
}

/// A torn checkpoint file (the mid-checkpoint-write kill) is refused with
/// a typed reason and recovery falls back to the next oldest checkpoint
/// plus the request log — still without losing one acknowledged key.
#[test]
fn torn_checkpoint_is_refused_and_recovery_falls_back() {
    let tmp = TempDir::new("torn-ckpt");
    // checkpoint_every=1 with keep=2 guarantees two checkpoint generations.
    let child = spawn_child("serve-insert", tmp.path(), &[("FOL_CRASH_CKPT_EVERY", "1")]);
    wait_until("32 acknowledged inserts", Duration::from_secs(60), || {
        read_acks(tmp.path()).len() >= 32
    });
    kill(child);
    let acked = read_acks(tmp.path());

    // Tear the newest checkpoint of the only worker in half — the torn
    // tmp-file rename race a real mid-write kill can leave behind.
    let prefix = format!("{}-", worker_prefix(0));
    let mut ckpts: Vec<PathBuf> = std::fs::read_dir(tmp.path())
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            name.starts_with(&prefix) && name.ends_with(".ckpt")
        })
        .collect();
    ckpts.sort();
    assert!(ckpts.len() >= 2, "expected two checkpoint generations");
    let newest = ckpts.last().unwrap();
    let len = std::fs::metadata(newest).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(newest)
        .unwrap()
        .set_len(len / 2)
        .unwrap();

    let (server, restart) = Server::try_start(serve_config(tmp.path(), 1, 1 << 20))
        .expect("a torn checkpoint must not block recovery");
    assert!(
        restart.checkpoints_refused >= 1,
        "the torn file is refused, typed: {restart:?}"
    );
    assert!(
        restart.checkpoints_restored >= 1,
        "recovery falls back to the older generation: {restart:?}"
    );
    let report = server.shutdown();
    let keys = oa_keys(&report);
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "no duplicates");
    for k in &acked {
        assert!(
            keys.binary_search(k).is_ok(),
            "acknowledged key {k} lost to a torn checkpoint"
        );
    }
    write_cell_report(
        "torn_checkpoint_fallback",
        &[
            ("acked", acked.len().to_string()),
            ("recovered", keys.len().to_string()),
            (
                "checkpoints_refused",
                restart.checkpoints_refused.to_string(),
            ),
            ("replayed", restart.replayed.to_string()),
            ("acked_lost", "0".into()),
            ("passed", "true".into()),
        ],
    );
}

// --------------------------------------------- delta-chain recovery cells

/// How the chaos cells classify WAL payloads for a standalone [`Compactor`]
/// run — the same mapping the serving layer uses internally: undecodable
/// payloads become an admission no image can ever cover, so their segment
/// is never judged deletable.
fn classify(payload: &[u8]) -> LogRecord {
    match decode_record(payload) {
        Ok(DurRecord::Admit { seq, .. }) => LogRecord::Admit { seq },
        Ok(DurRecord::Complete { seq, applied }) => LogRecord::Complete { seq, applied },
        Err(_) => LogRecord::Admit { seq: u64::MAX },
    }
}

/// SIGKILL while the cadence is deep in a delta chain (`full_image_every`
/// so large that only generation 1 is a full image): restart must
/// materialize base + every surviving delta, lose no acknowledged key, and
/// the restart report must account for the chain depth it walked.
#[test]
fn sigkill_mid_delta_chain_loses_no_acknowledged_request() {
    let tmp = TempDir::new("delta-chain");
    let child = spawn_child(
        "serve-insert",
        tmp.path(),
        &[
            ("FOL_CRASH_CKPT_EVERY", "1"),
            ("FOL_CRASH_FULL_EVERY", "1000"),
        ],
    );
    wait_until("24 acknowledged inserts", Duration::from_secs(60), || {
        read_acks(tmp.path()).len() >= 24
    });
    kill(child);
    let acked = read_acks(tmp.path());
    let deltas = generations(tmp.path(), "delta");
    assert!(
        generations(tmp.path(), "ckpt").len() == 1 && deltas.len() >= 2,
        "the cadence must have produced one base and a real delta chain"
    );

    let (keys, restart) = restart_and_audit(tmp.path(), 1, &acked, "a mid-delta-chain SIGKILL");
    assert!(
        restart.checkpoints_restored >= 1 && restart.deltas_applied >= 2,
        "recovery must come through the delta chain, not a cold replay: {restart:?}"
    );

    // Recovery is a pure function of the surviving disk.
    let (server2, _) = Server::try_start(serve_config(tmp.path(), 1, 1 << 20)).unwrap();
    let report2 = server2.shutdown();
    assert_eq!(oa_keys(&report2), keys, "recovery must be deterministic");

    write_cell_report(
        "sigkill_mid_delta_chain",
        &[
            ("acked", acked.len().to_string()),
            ("recovered", keys.len().to_string()),
            ("deltas_on_disk", deltas.len().to_string()),
            ("deltas_applied", restart.deltas_applied.to_string()),
            ("acked_lost", "0".into()),
            ("passed", "true".into()),
        ],
    );
}

/// SIGKILL inside a compaction pass: the mark-then-delete protocol means
/// the survivor directory may hold a `.compacting` marker and any prefix of
/// the intended deletions. Planting the marker reproduces the worst
/// interruption point deterministically; a standalone compactor run must
/// resume it (report it, finish the work, clear it), and restart over the
/// resumed directory loses nothing.
#[test]
fn sigkill_mid_compaction_resumes_the_marker_and_loses_nothing() {
    let tmp = TempDir::new("mid-compaction");
    // Aggressive cadence + tiny segments: real compaction churn while the
    // child runs, so the kill lands in a directory shaped by many passes.
    let child = spawn_child(
        "serve-insert",
        tmp.path(),
        &[
            ("FOL_CRASH_CKPT_EVERY", "1"),
            ("FOL_CRASH_FULL_EVERY", "2"),
            ("FOL_CRASH_SEG_BYTES", "2048"),
        ],
    );
    wait_until("32 acknowledged inserts", Duration::from_secs(60), || {
        read_acks(tmp.path()).len() >= 32
    });
    kill(child);
    let acked = read_acks(tmp.path());

    let compactor = Compactor::new(tmp.path(), REQUEST_LOG_PREFIX).keep_full_images(2);
    let killed_mid_pass = compactor.marker_path().exists();
    if !killed_mid_pass {
        // The kill rarely lands inside the (short) delete window; plant the
        // marker to simulate exactly that interruption point.
        std::fs::write(compactor.marker_path(), b"interrupted\n").unwrap();
    }
    let prefix = worker_prefix(0);
    let report = compactor
        .compact(&[prefix.as_str()], classify)
        .expect("resuming an interrupted pass must succeed");
    assert!(
        report.resumed_marker,
        "the interrupted pass is visible in the report: {report:?}"
    );
    assert!(
        !compactor.marker_path().exists(),
        "a completed pass clears its marker"
    );
    assert!(
        report.refusals.is_empty(),
        "nothing in this directory warrants a refusal: {report:?}"
    );

    let (keys, _) = restart_and_audit(tmp.path(), 1, &acked, "a mid-compaction SIGKILL");
    let (server2, _) = Server::try_start(serve_config(tmp.path(), 1, 1 << 20)).unwrap();
    let report2 = server2.shutdown();
    assert_eq!(oa_keys(&report2), keys, "recovery must be deterministic");

    write_cell_report(
        "sigkill_mid_compaction",
        &[
            ("acked", acked.len().to_string()),
            ("recovered", keys.len().to_string()),
            ("killed_mid_pass", killed_mid_pass.to_string()),
            ("resumed_marker", report.resumed_marker.to_string()),
            (
                "generations_removed",
                report.generations_removed.to_string(),
            ),
            (
                "wal_segments_removed",
                report.wal_segments_removed.to_string(),
            ),
            ("acked_lost", "0".into()),
            ("passed", "true".into()),
        ],
    );
}

/// A torn delta head (mid-delta-write kill signature, forced by truncating
/// the newest delta in half) is skipped with a typed [`SkipReason::Refused`]
/// and recovery falls back one link — still losing nothing.
#[test]
fn torn_delta_is_skipped_typed_and_recovery_falls_back() {
    let tmp = TempDir::new("torn-delta");
    let child = spawn_child(
        "serve-insert",
        tmp.path(),
        &[
            ("FOL_CRASH_CKPT_EVERY", "1"),
            ("FOL_CRASH_FULL_EVERY", "1000"),
        ],
    );
    wait_until("24 acknowledged inserts", Duration::from_secs(60), || {
        read_acks(tmp.path()).len() >= 24
    });
    kill(child);
    let acked = read_acks(tmp.path());

    let deltas = generations(tmp.path(), "delta");
    let (torn_seq, torn_path) = deltas.last().expect("a delta chain exists");
    let len = std::fs::metadata(torn_path).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(torn_path)
        .unwrap()
        .set_len(len / 2)
        .unwrap();

    let (keys, restart) = restart_and_audit(tmp.path(), 1, &acked, "a torn delta head");
    let skip = restart
        .skipped_generations
        .iter()
        .find(|s| s.seq == *torn_seq)
        .expect("the torn generation appears in the skip record");
    assert!(
        matches!(skip.reason, SkipReason::Refused { .. }),
        "a torn delta is a typed refusal: {:?}",
        skip.reason
    );
    assert!(
        restart.checkpoints_restored >= 1,
        "recovery fell back to the link below the tear: {restart:?}"
    );
    write_cell_report(
        "torn_delta_fallback",
        &[
            ("acked", acked.len().to_string()),
            ("recovered", keys.len().to_string()),
            ("skipped", restart.skipped_generations.len().to_string()),
            ("skip_reason", format!("{:?}", format!("{:?}", skip.reason))),
            ("acked_lost", "0".into()),
            ("passed", "true".into()),
        ],
    );
}

/// Deleting the head's *parent* delta leaves a link naming a generation
/// that no longer exists: the head is skipped with the typed
/// [`SkipReason::MissingParent`], and the next intact head plus widened WAL
/// replay recovers every acknowledged key.
#[test]
fn missing_parent_is_skipped_typed_and_replay_widens() {
    let tmp = TempDir::new("missing-parent");
    let child = spawn_child(
        "serve-insert",
        tmp.path(),
        &[
            ("FOL_CRASH_CKPT_EVERY", "1"),
            ("FOL_CRASH_FULL_EVERY", "1000"),
        ],
    );
    wait_until("24 acknowledged inserts", Duration::from_secs(60), || {
        read_acks(tmp.path()).len() >= 24
    });
    kill(child);
    let acked = read_acks(tmp.path());

    let deltas = generations(tmp.path(), "delta");
    assert!(deltas.len() >= 3, "need a chain deep enough to break");
    let (parent_seq, parent_path) = &deltas[deltas.len() - 2];
    std::fs::remove_file(parent_path).unwrap();

    let (keys, restart) = restart_and_audit(tmp.path(), 1, &acked, "a deleted parent delta");
    assert!(
        restart.skipped_generations.iter().any(|s| matches!(
            s.reason,
            SkipReason::MissingParent { parent_seq: p } if p == *parent_seq
        )),
        "the dangling link is typed MissingParent: {:?}",
        restart.skipped_generations
    );
    write_cell_report(
        "missing_parent_fallback",
        &[
            ("acked", acked.len().to_string()),
            ("recovered", keys.len().to_string()),
            ("skipped", restart.skipped_generations.len().to_string()),
            ("acked_lost", "0".into()),
            ("passed", "true".into()),
        ],
    );
}

/// Deleting a generation *deeper* in the chain orphans every head above it:
/// each is skipped (typed), the planner walks all the way down to the
/// newest head whose chain is intact, and the widened WAL replay covers the
/// difference.
#[test]
fn deleted_mid_chain_generation_widens_the_fallback() {
    let tmp = TempDir::new("mid-chain-delete");
    let child = spawn_child(
        "serve-insert",
        tmp.path(),
        &[
            ("FOL_CRASH_CKPT_EVERY", "1"),
            ("FOL_CRASH_FULL_EVERY", "1000"),
        ],
    );
    wait_until("32 acknowledged inserts", Duration::from_secs(60), || {
        read_acks(tmp.path()).len() >= 32
    });
    kill(child);
    let acked = read_acks(tmp.path());

    let deltas = generations(tmp.path(), "delta");
    assert!(deltas.len() >= 4, "need a chain deep enough to break twice");
    let (gone_seq, gone_path) = &deltas[deltas.len() - 3];
    std::fs::remove_file(gone_path).unwrap();

    let (keys, restart) =
        restart_and_audit(tmp.path(), 1, &acked, "a deleted mid-chain generation");
    let missing: Vec<_> = restart
        .skipped_generations
        .iter()
        .filter(|s| {
            matches!(
                s.reason,
                SkipReason::MissingParent { parent_seq: p } if p == *gone_seq
            )
        })
        .collect();
    assert!(
        missing.len() >= 2,
        "every head chained through the hole is skipped, typed: {:?}",
        restart.skipped_generations
    );
    write_cell_report(
        "mid_chain_delete_fallback",
        &[
            ("acked", acked.len().to_string()),
            ("recovered", keys.len().to_string()),
            ("skipped", restart.skipped_generations.len().to_string()),
            ("acked_lost", "0".into()),
            ("passed", "true".into()),
        ],
    );
}

/// A bit flip inside the newest *full image* poisons it and every delta
/// chained onto it: all of them are skipped, typed, and recovery falls back
/// a whole full-image generation — whose WAL coverage the compactor was
/// required to preserve — still losing nothing.
#[test]
fn bit_flipped_full_image_falls_back_a_full_generation() {
    let tmp = TempDir::new("bitflip-full");
    let child = spawn_child(
        "serve-insert",
        tmp.path(),
        &[("FOL_CRASH_CKPT_EVERY", "1"), ("FOL_CRASH_FULL_EVERY", "2")],
    );
    wait_until("32 acknowledged inserts", Duration::from_secs(60), || {
        read_acks(tmp.path()).len() >= 32
    });
    kill(child);
    let acked = read_acks(tmp.path());

    let fulls = generations(tmp.path(), "ckpt");
    assert!(fulls.len() >= 2, "retention keeps two full images");
    let (flipped_seq, newest_full) = fulls.last().unwrap();
    let mut bytes = std::fs::read(newest_full).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(newest_full, &bytes).unwrap();

    let (keys, restart) = restart_and_audit(tmp.path(), 1, &acked, "a bit-flipped full image");
    assert!(
        restart
            .skipped_generations
            .iter()
            .any(|s| s.seq == *flipped_seq && matches!(s.reason, SkipReason::Refused { .. })),
        "the corrupt image itself is refused, typed: {:?}",
        restart.skipped_generations
    );
    assert!(
        restart.checkpoints_restored >= 1,
        "recovery still restores from the older full image: {restart:?}"
    );
    write_cell_report(
        "bit_flipped_full_image",
        &[
            ("acked", acked.len().to_string()),
            ("recovered", keys.len().to_string()),
            ("skipped", restart.skipped_generations.len().to_string()),
            ("replayed", restart.replayed.to_string()),
            ("acked_lost", "0".into()),
            ("passed", "true".into()),
        ],
    );
}

/// The `FsyncPolicy::Batch` tear window, simulated as power loss: truncate
/// the log at every sampled point from the last acknowledged request's
/// completion record to end-of-file (the bytes a dying page cache could
/// legitimately drop) and restart over each truncation. Under Batch the
/// log is fsynced before acks demultiplex, so no cut in that window may
/// lose an acknowledged key.
#[test]
fn batch_fsync_tear_window_loses_no_acknowledged_request() {
    let tmp = TempDir::new("batch-tear");
    let child = spawn_child(
        "serve-insert",
        tmp.path(),
        &[
            ("FOL_CRASH_CKPT_EVERY", "4"),
            ("FOL_CRASH_FULL_EVERY", "1000"), // no rotation: one segment
            ("FOL_CRASH_FSYNC", "batch"),
        ],
    );
    wait_until("24 acknowledged inserts", Duration::from_secs(60), || {
        read_acks(tmp.path()).len() >= 24
    });
    kill(child);
    let acked = read_acks(tmp.path());

    // Only the *active* (last) segment can hold unsynced bytes; sealed
    // segments are never truncated by the sweep. Walk every surviving
    // segment's frames for the key→seq admission map, and record each
    // completion's frame *end* offset within the last segment — the kill
    // may leave a torn final frame there, which ends the walk cleanly.
    let segs = wal::segments(tmp.path(), REQUEST_LOG_PREFIX).unwrap();
    let seg_path = segs.last().expect("the child wrote a log").1.clone();
    let header = wal::WAL_MAGIC.len() + 4;
    let mut key_seq: HashMap<Word, u64> = HashMap::new();
    let mut complete_end: HashMap<u64, u64> = HashMap::new();
    let mut len = 0u64;
    for (_, path) in &segs {
        let last = *path == seg_path;
        let bytes = std::fs::read(path).unwrap();
        let mut pos = header;
        while pos < bytes.len() {
            let Ok(Frame::Ok(payload)) = next_frame(&bytes, &mut pos, "tear-window scan") else {
                break;
            };
            match decode_record(payload) {
                Ok(DurRecord::Admit {
                    seq,
                    request: Request::OaInsert { keys },
                    ..
                }) => {
                    key_seq.insert(keys[0], seq);
                }
                Ok(DurRecord::Complete { seq, .. }) if last => {
                    complete_end.insert(seq, pos as u64);
                }
                _ => {}
            }
        }
        if last {
            len = bytes.len() as u64;
        }
    }

    // The safe frontier: the last acknowledged completion's end offset in
    // the active segment. Batch fsyncs the log before replies demultiplex,
    // so everything at or before this offset is durable; everything after
    // it is the tear window power loss may drop. Acked keys whose records
    // live in sealed segments (or in a retained checkpoint image) impose
    // no constraint — the sweep never touches those bytes.
    let frontier = acked
        .iter()
        .filter_map(|k| complete_end.get(key_seq.get(k)?))
        .copied()
        .max()
        .unwrap_or(header as u64);
    assert!(frontier <= len);

    // Sweep the window (all points when small, sampled otherwise, always
    // including both ends), each on a fresh copy of the survivor dir.
    let window = len - frontier;
    let cuts: Vec<u64> = if window <= 24 {
        (frontier..=len).collect()
    } else {
        (0..=24).map(|i| frontier + (window * i) / 24).collect()
    };
    let mut acked_lost = 0usize;
    for (i, cut) in cuts.iter().enumerate() {
        let copy = TempDir::new(&format!("batch-tear-cut{i}"));
        copy_dir(tmp.path(), copy.path());
        std::fs::OpenOptions::new()
            .write(true)
            .open(copy.path().join(seg_path.file_name().unwrap()))
            .unwrap()
            .set_len(*cut)
            .unwrap();
        let (server, _) = Server::try_start(serve_config(copy.path(), 4, 1 << 20))
            .unwrap_or_else(|e| panic!("power loss at offset {cut} must not refuse restart: {e}"));
        let report = server.shutdown();
        let keys = oa_keys(&report);
        for k in &acked {
            if keys.binary_search(k).is_err() {
                acked_lost += 1;
                eprintln!("acked key {k} lost at cut offset {cut}");
            }
        }
    }
    assert_eq!(
        acked_lost, 0,
        "the Batch tear window must never cost an acknowledged request"
    );
    write_cell_report(
        "batch_fsync_tear_window",
        &[
            ("acked", acked.len().to_string()),
            ("window_bytes", window.to_string()),
            ("cuts", cuts.len().to_string()),
            ("acked_lost", acked_lost.to_string()),
            ("passed", "true".into()),
        ],
    );
}

// ------------------------------------------- background writer cell

/// Open-addressing slots of the background-write cell's child: a 1 MiB
/// table of non-zero sentinels, so every full image is a megabyte on its
/// way to disk and the writer thread is busy long enough to be hit.
const LARGE_OA_SLOTS: usize = 1 << 17;

/// True while `dir` holds a file whose name ends in `suffix`.
fn holds_artifact(dir: &Path, suffix: &str) -> bool {
    std::fs::read_dir(dir).is_ok_and(|entries| {
        entries
            .filter_map(|e| e.ok())
            .any(|e| e.file_name().to_string_lossy().ends_with(suffix))
    })
}

/// SIGKILL while the writer thread is writing an image or running a
/// compaction pass. Images are cut on the worker and written in the
/// background after the batch's acknowledgements, so the log commit
/// before the ack stays the only durability point: every cell restarts
/// with zero acknowledged requests lost, no key applied twice, the stray
/// `.tmp` of the interrupted write ignored, and a second restart
/// reproducing the first. Kill points: the first `.tmp` (an image or the
/// marker mid-write) or `.compacting` marker seen after a number of acks,
/// or a plain kill after that many acks.
#[test]
fn sigkill_during_a_background_image_write_loses_nothing() {
    let points: [(&str, usize); 6] = [
        (".tmp", 8),
        (".tmp", 24),
        (".compacting", 8),
        (".compacting", 24),
        ("", 16),
        ("", 40),
    ];
    let slots = LARGE_OA_SLOTS.to_string();
    let config = |dir: &Path| ServerConfig {
        oa_slots: LARGE_OA_SLOTS,
        ..serve_config(dir, 1, 1 << 20)
    };
    let (mut hits, mut acked_total, mut acked_lost) = (0usize, 0usize, 0usize);
    for (cell, (trigger, arm_after)) in points.iter().enumerate() {
        let tmp = TempDir::new(&format!("background-write-{cell}"));
        let child = spawn_child(
            "serve-insert",
            tmp.path(),
            &[
                ("FOL_CRASH_CKPT_EVERY", "1"),
                ("FOL_CRASH_OA_SLOTS", slots.as_str()),
            ],
        );
        wait_until("the arming acks", Duration::from_secs(60), || {
            read_acks(tmp.path()).len() >= *arm_after
        });
        let start = Instant::now();
        while !trigger.is_empty() && start.elapsed() < Duration::from_secs(5) {
            if holds_artifact(tmp.path(), trigger) {
                hits += 1;
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        kill(child);
        let acked = read_acks(tmp.path());
        acked_total += acked.len();

        // A write the kill interrupted leaves its temp file; plant a torn
        // one beside the newest generation when this kill left none.
        if !holds_artifact(tmp.path(), ".tmp") {
            let newest = generations(tmp.path(), "ckpt")
                .into_iter()
                .chain(generations(tmp.path(), "delta"))
                .max_by_key(|(seq, _)| *seq)
                .expect("the child wrote a generation");
            let bytes = std::fs::read(&newest.1).unwrap();
            let stray = tmp
                .path()
                .join(format!("{}-{:020}.tmp", worker_prefix(0), newest.0 + 1));
            std::fs::write(stray, &bytes[..bytes.len() / 2]).unwrap();
        }

        let (server, restart) = Server::try_start(config(tmp.path()))
            .unwrap_or_else(|e| panic!("cell {cell}: restart must succeed: {e}"));
        assert!(
            restart
                .skipped_generations
                .iter()
                .all(|s| s.path.extension().is_none_or(|x| x != "tmp")),
            "cell {cell}: a temp file is never a generation: {restart:?}"
        );
        let keys = oa_keys(&server.shutdown());
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "cell {cell}: replay must not double-apply: {keys:?}"
        );
        for k in &acked {
            if keys.binary_search(k).is_err() {
                acked_lost += 1;
                eprintln!("cell {cell}: acknowledged key {k} lost");
            }
        }
        let (server2, _) = Server::try_start(config(tmp.path())).unwrap();
        assert_eq!(
            oa_keys(&server2.shutdown()),
            keys,
            "cell {cell}: recovery must be deterministic"
        );
    }
    assert_eq!(
        acked_lost, 0,
        "a background write cost acknowledged requests"
    );
    write_cell_report(
        "sigkill_background_write",
        &[
            ("cells", points.len().to_string()),
            ("killed_on_artifact", hits.to_string()),
            ("acked", acked_total.to_string()),
            ("acked_lost", acked_lost.to_string()),
            ("passed", "true".into()),
        ],
    );
}
