//! The durable serving layer, in-process: restart continuity, log-driven
//! replay of acknowledged-but-unapplied requests, typed refusal of corrupt
//! history, and checkpoint-based panic respawn. (Real SIGKILL crash cells
//! live in the workspace-level `crash_restart` suite.)

use fol_persist::wal::{self, FsyncPolicy};
use fol_persist::RecoveryPlanner;
use fol_serve::{
    decode_record, worker_prefix, DurRecord, DurabilityConfig, Priority, Request, Response,
    ServeError, Server, ServerConfig, WorkloadClass, REQUEST_LOG_PREFIX,
};
use fol_vm::Word;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "fol-serve-durable-{}-{tag}-{n}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn durable_config(dir: &PathBuf, workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        queue_capacity: 256,
        max_batch: 32,
        max_wait: Duration::from_millis(1),
        idle_tick: Duration::from_millis(1),
        chain_buckets: 32,
        chain_capacity: 512,
        oa_slots: 128,
        bst_capacity: 256,
        durability: Some(
            DurabilityConfig::new(dir)
                .fsync(FsyncPolicy::Off)
                .checkpoint_every(1),
        ),
        ..ServerConfig::default()
    }
}

fn keys_of(report: &fol_serve::ShutdownReport, class: WorkloadClass) -> Vec<Word> {
    let mut keys: Vec<Word> = report
        .dumps
        .iter()
        .filter(|d| d.class == class)
        .flat_map(|d| d.keys.iter().copied())
        .collect();
    keys.sort_unstable();
    keys
}

#[test]
fn durable_run_logs_admissions_and_restarts_clean() {
    let dir = temp_dir("clean");
    let (server, restart) = Server::try_start(durable_config(&dir, 2)).unwrap();
    assert_eq!(restart, fol_serve::RestartReport::default(), "cold start");

    for k in 0..10 {
        assert!(server.call(Request::ChainInsert { keys: vec![k] }).is_ok());
    }
    assert!(server.call(Request::OaInsert { keys: vec![77] }).is_ok());
    let stats = server.stats();
    assert!(
        stats.wal_appends >= 22,
        "an admit and a complete per request: {stats:?}"
    );
    assert!(stats.checkpoints_written >= 1, "{stats:?}");
    assert!(
        stats.delta_checkpoints_written >= 1,
        "the cadence interleaves deltas between full images: {stats:?}"
    );
    drop(server);

    // The log on disk replays cleanly; compaction may have deleted sealed
    // segments wholly covered by retained durable images, so the surviving
    // record count is a lower bound of what was appended — never more.
    let replay = wal::replay(&dir, REQUEST_LOG_PREFIX).unwrap();
    assert!(replay.torn_tail.is_none());
    assert!(replay.records.len() as u64 <= stats.wal_appends);

    // A clean restart restores worker state from checkpoints and replays
    // nothing: every acknowledged request completed durably.
    let (server2, restart2) = Server::try_start(durable_config(&dir, 2)).unwrap();
    assert_eq!(restart2.replayed, 0, "{restart2:?}");
    assert!(restart2.checkpoints_restored >= 1, "{restart2:?}");
    assert!(restart2.next_seq >= 11);
    let report = server2.shutdown();
    assert_eq!(
        keys_of(&report, WorkloadClass::Chain),
        (0..10).collect::<Vec<Word>>(),
        "committed contents survived the restart via checkpoints"
    );
    assert_eq!(keys_of(&report, WorkloadClass::OpenAddr), vec![77]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn acknowledged_but_unapplied_requests_replay_on_restart() {
    // Simulate an incarnation killed after acknowledging three requests but
    // before executing them: freeze the log at the moment the tickets were
    // returned (admission records only) by copying a lingering server's
    // segments — an append-only log's past is byte-exact at every prefix.
    let dir = temp_dir("replay");
    let staging = temp_dir("replay-staging");
    {
        let cfg = ServerConfig {
            max_wait: Duration::from_secs(30), // linger: nothing executes yet
            ..durable_config(&staging, 1)
        };
        let (server, _) = Server::try_start(cfg).unwrap();
        let _t1 = server
            .submit(Request::ChainInsert { keys: vec![100] })
            .unwrap();
        let _t2 = server
            .submit(Request::ChainInsert { keys: vec![101] })
            .unwrap();
        let _t3 = server.submit(Request::OaInsert { keys: vec![55] }).unwrap();
        // The tickets exist, so the admits are on disk; the linger keeps
        // the requests queued. Freeze the log's state at this instant.
        for (_, path) in wal::segments(&staging, REQUEST_LOG_PREFIX).unwrap() {
            let name = path.file_name().unwrap();
            std::fs::copy(&path, dir.join(name)).unwrap();
        }
        server.shutdown();
    }

    let (server, restart) = Server::try_start(durable_config(&dir, 1)).unwrap();
    assert_eq!(restart.replayed, 3, "{restart:?}");
    let report = server.shutdown();
    assert_eq!(
        keys_of(&report, WorkloadClass::Chain),
        vec![100, 101],
        "acknowledged chain inserts were re-driven"
    );
    assert_eq!(keys_of(&report, WorkloadClass::OpenAddr), vec![55]);
    let stats = report.stats;
    assert_eq!(stats.wal_replayed, 3);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&staging).ok();
}

#[test]
fn corrupt_request_log_is_refused_typed() {
    let dir = temp_dir("corrupt");
    {
        let (server, _) = Server::try_start(durable_config(&dir, 1)).unwrap();
        for k in 0..5 {
            assert!(server.call(Request::ChainInsert { keys: vec![k] }).is_ok());
        }
        server.shutdown();
    }
    // Flip one byte in the middle of the first segment: corruption, not a
    // crash frontier.
    let segs = wal::segments(&dir, REQUEST_LOG_PREFIX).unwrap();
    let path = &segs[0].1;
    let mut bytes = std::fs::read(path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(path, &bytes).unwrap();

    let err = match Server::try_start(durable_config(&dir, 1)) {
        Err(e) => e,
        Ok(_) => panic!("corrupt history must not start"),
    };
    assert!(
        matches!(err, ServeError::Persist { .. }),
        "corrupt history must be refused typed, not replayed around: {err}"
    );
    assert!(err.to_string().contains("persistence"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_log_tail_is_the_accepted_crash_frontier() {
    let dir = temp_dir("torn");
    {
        let (server, _) = Server::try_start(durable_config(&dir, 1)).unwrap();
        for k in 0..6 {
            assert!(server.call(Request::ChainInsert { keys: vec![k] }).is_ok());
        }
        server.shutdown();
    }
    // Tear the newest segment that holds records mid-record: the kill
    // signature. A full-image cadence tick rotates the log, so the very
    // last segment can be a bare header — drop trailing empty segments
    // first (exactly what a kill right after a rotation leaves behind).
    let mut segs = wal::segments(&dir, REQUEST_LOG_PREFIX).unwrap();
    while let Some((_, path)) = segs.last() {
        if std::fs::metadata(path).unwrap().len() > 14 {
            break;
        }
        std::fs::remove_file(path).unwrap();
        segs.pop();
    }
    let (_, path) = segs.last().expect("some segment holds records");
    let len = std::fs::metadata(path).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    f.set_len(len - 3).unwrap();

    let (server, restart) = Server::try_start(durable_config(&dir, 1)).unwrap();
    assert!(
        restart.torn_tail,
        "the tear is surfaced, typed: {restart:?}"
    );
    let report = server.shutdown();
    assert_eq!(
        keys_of(&report, WorkloadClass::Chain),
        (0..6).collect::<Vec<Word>>(),
        "records before the tear (and the checkpoints) are intact"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn poison_pill_respawns_from_the_durable_checkpoint() {
    let dir = temp_dir("respawn");
    let (server, _) = Server::try_start(durable_config(&dir, 1)).unwrap();
    assert!(server
        .call(Request::ChainInsert {
            keys: vec![10, 11, 12]
        })
        .is_ok());
    assert!(server.call(Request::OaInsert { keys: vec![5, 6] }).is_ok());
    assert_eq!(
        server.call(Request::PoisonPill {
            class: WorkloadClass::Chain
        }),
        Err(ServeError::WorkerLost)
    );
    assert!(server.call(Request::ChainInsert { keys: vec![13] }).is_ok());
    assert_eq!(
        server.call(Request::OaLookup {
            keys: vec![5, 6, 7]
        }),
        Ok(Response::OaLookedUp {
            found: vec![true, true, false]
        })
    );
    let stats = server.stats();
    assert_eq!(stats.respawns, 1);
    assert_eq!(
        stats.durable_respawns, 1,
        "with checkpoint_every=1 the respawn must come from disk: {stats:?}"
    );
    let report = server.shutdown();
    assert_eq!(keys_of(&report, WorkloadClass::Chain), vec![10, 11, 12, 13]);
    std::fs::remove_dir_all(&dir).ok();
}

/// The lowest admission sequence left in the request log.
fn lowest_admission(dir: &Path) -> u64 {
    wal::replay(dir, REQUEST_LOG_PREFIX)
        .unwrap()
        .records
        .iter()
        .filter_map(|r| match decode_record(&r.payload) {
            Ok(DurRecord::Admit { seq, .. }) => Some(seq),
            _ => None,
        })
        .min()
        .expect("the log holds admissions")
}

/// An image's applied set is bounded by the retained log, not by the
/// server's history: sequences below the log floor, whose admission
/// records compaction deleted, are dropped before each cut.
#[test]
fn the_applied_set_stays_bounded_by_the_log() {
    let dir = temp_dir("bounded");
    let cfg = ServerConfig {
        durability: Some(
            DurabilityConfig::new(&dir)
                .fsync(FsyncPolicy::Off)
                .checkpoint_every(1)
                .full_image_every(4)
                .keep_full_images(2),
        ),
        ..durable_config(&dir, 1)
    };
    let (server, _) = Server::try_start(cfg.clone()).unwrap();
    let mut lengths = Vec::new();
    for k in 0..160 {
        assert!(server.call(Request::ChainInsert { keys: vec![k] }).is_ok());
        // Each call is one batch and one cadence tick. Wait until its
        // image is written and counted (and, after a full image, the
        // compaction pass has run), so the next admission lands after it.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let s = server.stats();
            if s.checkpoints_written + s.delta_checkpoints_written > k as u64 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "tick {k}: {s:?}");
            std::thread::sleep(Duration::from_millis(1));
        }
        if (k + 1) % 40 == 0 {
            let plan = RecoveryPlanner::new(&dir, worker_prefix(0)).plan().unwrap();
            let applied = plan.checkpoint.expect("an image is on disk").applied;
            let floor = lowest_admission(&dir);
            assert!(
                applied.iter().all(|&s| s >= floor),
                "after {} requests the newest image holds a sequence below the log's \
                 lowest admission {floor}: {applied:?}",
                k + 1
            );
            lengths.push((server.stats().checkpoints_written, applied.len()));
        }
    }
    assert_eq!(lengths[0].0, 10, "{lengths:?}");
    assert_eq!(lengths[3].0, 40, "{lengths:?}");
    assert!(
        lengths[3].1 <= lengths[0].1,
        "the applied set grew from {} to {} entries between 10 and 40 full images",
        lengths[0].1,
        lengths[3].1
    );
    drop(server);

    let (server, restart) = Server::try_start(cfg).unwrap();
    assert_eq!(restart.replayed, 0, "{restart:?}");
    let report = server.shutdown();
    assert_eq!(
        keys_of(&report, WorkloadClass::Chain),
        (0..160).collect::<Vec<Word>>()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A lost worker's outcome is in the log before its caller sees it: the
/// panic arm appends and commits the `applied = false` records first.
#[test]
fn a_lost_workers_outcome_is_logged_before_its_caller_sees_it() {
    let dir = temp_dir("lost-logged");
    let (server, _) = Server::try_start(durable_config(&dir, 1)).unwrap();
    for round in 0..5 {
        assert_eq!(
            server.call(Request::PoisonPill {
                class: WorkloadClass::Chain
            }),
            Err(ServeError::WorkerLost)
        );
        let records: Vec<DurRecord> = wal::replay(&dir, REQUEST_LOG_PREFIX)
            .unwrap()
            .records
            .iter()
            .map(|r| decode_record(&r.payload).unwrap())
            .collect();
        let pill = records
            .iter()
            .rev()
            .find_map(|r| match r {
                DurRecord::Admit {
                    seq,
                    request: Request::PoisonPill { .. },
                    ..
                } => Some(*seq),
                _ => None,
            })
            .expect("the pill was admitted");
        assert!(
            records.contains(&DurRecord::Complete {
                seq: pill,
                applied: false
            }),
            "round {round}: WorkerLost for {pill} reached its caller before the log"
        );
    }
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

/// A failed image write is counted, and the worker's next cut is a full
/// image rather than a delta chained onto a generation that never reached
/// disk. The write of generation 3 is made to fail by a directory squatting
/// on its temp-file name.
#[test]
fn a_failed_image_write_is_counted_and_the_next_cut_is_full() {
    let dir = temp_dir("failed-write");
    std::fs::create_dir_all(dir.join(format!("{}-{:020}.tmp", worker_prefix(0), 3))).unwrap();
    let cfg = durable_config(&dir, 1);
    let (server, _) = Server::try_start(cfg.clone()).unwrap();
    for k in 0..4 {
        assert!(server.call(Request::ChainInsert { keys: vec![k] }).is_ok());
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let s = server.stats();
            if s.checkpoints_written + s.delta_checkpoints_written + s.checkpoints_refused
                > k as u64
            {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "tick {k}: {s:?}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let stats = server.stats();
    assert_eq!(stats.checkpoints_refused, 1, "{stats:?}");
    assert_eq!(
        (stats.checkpoints_written, stats.delta_checkpoints_written),
        (2, 1),
        "generation 1 full, 2 a delta, 3 failed, 4 full: {stats:?}"
    );
    drop(server);

    let (server, restart) = Server::try_start(cfg).unwrap();
    assert_eq!(
        restart.deltas_applied, 0,
        "the head is the full image: {restart:?}"
    );
    let report = server.shutdown();
    assert_eq!(
        keys_of(&report, WorkloadClass::Chain),
        (0..4).collect::<Vec<Word>>()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A restart over a torn tail seals the torn segment behind a fresh one, so
/// it must cut the tear off first: the next restart then reads a whole log
/// and keeps every key the first restart held plus what came after.
#[test]
fn a_second_restart_after_a_torn_tail_is_accepted() {
    let dir = temp_dir("torn-twice");
    {
        let (server, _) = Server::try_start(durable_config(&dir, 1)).unwrap();
        for k in 0..5 {
            assert!(server.call(Request::ChainInsert { keys: vec![k] }).is_ok());
        }
        server.shutdown();
    }
    let segs = wal::segments(&dir, REQUEST_LOG_PREFIX).unwrap();
    let (_, path) = segs.last().expect("the server wrote a log");
    let len = std::fs::metadata(path).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    f.set_len(len - 3).unwrap();

    let (server, restart) = Server::try_start(durable_config(&dir, 1)).unwrap();
    assert!(restart.torn_tail, "the tear is surfaced: {restart:?}");
    assert!(server.call(Request::ChainInsert { keys: vec![5] }).is_ok());
    let first = keys_of(&server.shutdown(), WorkloadClass::Chain);
    assert!(first.contains(&5), "{first:?}");

    let (server, restart) = Server::try_start(durable_config(&dir, 1))
        .expect("the log the first restart left replays whole");
    assert!(!restart.torn_tail, "{restart:?}");
    assert_eq!(keys_of(&server.shutdown(), WorkloadClass::Chain), first);
    std::fs::remove_dir_all(&dir).ok();
}

/// The request log's records, decoded, in append order.
fn logged(dir: &Path) -> Vec<DurRecord> {
    wal::replay(dir, REQUEST_LOG_PREFIX)
        .unwrap()
        .records
        .iter()
        .map(|r| decode_record(&r.payload).unwrap())
        .collect()
}

/// A burst of one-key chain inserts, one per key.
fn inserts(keys: &[Word]) -> Vec<(Request, Priority, Option<Duration>)> {
    keys.iter()
        .map(|&k| {
            (
                Request::ChainInsert { keys: vec![k] },
                Priority::Normal,
                None,
            )
        })
        .collect()
}

/// The sequence the log admitted a one-key chain insert of `key` under.
fn admitted_seq(records: &[DurRecord], key: Word) -> Option<(usize, u64)> {
    records.iter().enumerate().find_map(|(i, r)| match r {
        DurRecord::Admit {
            seq,
            request: Request::ChainInsert { keys },
            ..
        } if keys[..] == [key] => Some((i, *seq)),
        _ => None,
    })
}

/// Group commit never acknowledges ahead of the log. Four threads send
/// bursts to a two-worker `FsyncPolicy::Batch` server; after every
/// acknowledgement the log holds the request's admission and, after it,
/// its applied completion. Admissions are logged in sequence order, and
/// no batch commit runs more than one sync. A burst that crosses the
/// queue's capacity is admitted and logged up to it and refused past it,
/// as per-item submission would.
#[test]
fn group_commit_never_acknowledges_ahead_of_the_log() {
    let dir = temp_dir("group-commit");
    let cfg = ServerConfig {
        durability: Some(
            DurabilityConfig::new(&dir)
                .fsync(FsyncPolicy::Batch)
                // No image, so no compaction pass deletes what the checks read.
                .checkpoint_every(u64::MAX),
        ),
        ..durable_config(&dir, 2)
    };
    let capacity = cfg.queue_capacity;
    let (server, _) = Server::try_start(cfg).unwrap();
    std::thread::scope(|s| {
        for t in 0..4 {
            let (server, dir) = (&server, &dir);
            s.spawn(move || {
                for burst in 0..6 {
                    let keys: Vec<Word> = (0..16).map(|i| t * 1000 + burst * 16 + i).collect();
                    let tickets = server.submit_many_with(inserts(&keys));
                    for (ticket, &key) in tickets.into_iter().zip(&keys) {
                        let outcome = ticket.and_then(|t| t.wait());
                        assert!(
                            matches!(outcome, Ok(Response::ChainInserted { .. })),
                            "{key}: {outcome:?}"
                        );
                        let records = logged(dir);
                        let (at, seq) = admitted_seq(&records, key)
                            .unwrap_or_else(|| panic!("{key} was acknowledged unlogged"));
                        let done = DurRecord::Complete { seq, applied: true };
                        assert!(
                            records[at..].contains(&done),
                            "{key} (seq {seq}) was acknowledged before its completion was logged"
                        );
                    }
                }
            });
        }
    });
    let admits: Vec<u64> = logged(&dir)
        .iter()
        .filter_map(|r| match r {
            DurRecord::Admit { seq, .. } => Some(*seq),
            DurRecord::Complete { .. } => None,
        })
        .collect();
    assert_eq!(admits.len(), 4 * 6 * 16);
    assert!(
        admits.windows(2).all(|w| w[0] < w[1]),
        "admissions are logged in sequence order"
    );
    let stats = server.stats();
    assert!(
        stats.wal_syncs > 0 && stats.wal_syncs <= stats.batches,
        "{stats:?}"
    );

    // The queue is empty: a burst past its capacity is admitted up to it.
    let keys: Vec<Word> = (0..capacity as Word + 8).map(|i| 100_000 + i).collect();
    let outcomes = server.submit_many_with(inserts(&keys));
    let records = logged(&dir);
    let mut tickets = Vec::new();
    for (i, (outcome, &key)) in outcomes.into_iter().zip(&keys).enumerate() {
        if i < capacity {
            tickets.push(outcome.expect("under capacity"));
            assert!(
                admitted_seq(&records, key).is_some(),
                "{key} admitted unlogged"
            );
        } else {
            assert_eq!(outcome.unwrap_err(), ServeError::Overloaded { capacity });
            assert!(
                admitted_seq(&records, key).is_none(),
                "{key} refused but logged"
            );
        }
    }
    for t in tickets {
        assert!(t.wait().is_ok());
    }
    let report = server.shutdown();
    assert_eq!(report.stats.overloaded, 8);
    assert_eq!(report.stats.submitted, 4 * 6 * 16 + capacity as u64);
    std::fs::remove_dir_all(&dir).ok();
}
