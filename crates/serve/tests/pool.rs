//! Pool lifecycle: graceful shutdown, deadline shedding, panic respawn,
//! fault-plan survival, and idle-scrub rot repair.

use fol_serve::{Priority, Request, Response, ServeError, Server, ServerConfig, WorkloadClass};
use fol_vm::{FaultPlan, Word};
use std::time::Duration;

fn small_config(workers: usize) -> ServerConfig {
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
        ..ServerConfig::default()
    }
}

fn chain_union(report: &fol_serve::ShutdownReport) -> Vec<Word> {
    let mut keys: Vec<Word> = report
        .dumps
        .iter()
        .filter(|d| d.class == WorkloadClass::Chain)
        .flat_map(|d| d.keys.iter().copied())
        .collect();
    keys.sort_unstable();
    keys
}

#[test]
fn graceful_shutdown_drains_every_queued_request() {
    // A long linger keeps lanes from flushing on their own: shutdown itself
    // must drain them.
    let server = Server::start(ServerConfig {
        max_wait: Duration::from_secs(10),
        max_batch: 1024,
        ..small_config(2)
    });
    let tickets: Vec<_> = (0..40)
        .map(|k| {
            server
                .submit(Request::ChainInsert { keys: vec![k] })
                .unwrap()
        })
        .collect();
    let report = server.shutdown();
    for t in tickets {
        assert!(
            matches!(t.wait(), Ok(Response::ChainInserted { .. })),
            "queued requests are flushed, not dropped, at shutdown"
        );
    }
    assert_eq!(report.stats.submitted, 40);
    assert_eq!(report.stats.completed, 40);
    assert_eq!(chain_union(&report), (0..40).collect::<Vec<Word>>());
}

#[test]
fn deadline_expired_requests_get_typed_deadline_exceeded() {
    // Linger far longer than the deadline: the request can only leave the
    // queue by being load-shed.
    let server = Server::start(ServerConfig {
        max_wait: Duration::from_secs(5),
        ..small_config(1)
    });
    let doomed = server
        .submit_with(
            Request::BstInsert { keys: vec![1] },
            Priority::Normal,
            Some(Duration::from_millis(2)),
        )
        .unwrap();
    assert_eq!(doomed.wait(), Err(ServeError::DeadlineExceeded));
    let stats = server.stats();
    assert_eq!(stats.deadline_expired, 1);
    assert_eq!(stats.completed, 1, "shed requests still count as completed");
    drop(server);
}

/// A caller never sees its outcome before the server counts it: the
/// worker bumps `completed` before it completes a batch's tickets, and the
/// deadline purge bumps both counters (and logs the shed) before it
/// completes the shed tickets. The window is a few instructions wide, so a
/// build that completes first passes this test most of the time too.
#[test]
fn an_outcome_is_counted_before_its_caller_sees_it() {
    let server = Server::start(ServerConfig {
        chain_capacity: 1_000,
        ..small_config(2)
    });
    for i in 0..1_000u64 {
        assert!(server
            .call(Request::ChainInsert {
                keys: vec![i as Word]
            })
            .is_ok());
        let completed = server.stats().completed;
        assert!(
            completed > i,
            "call {i} returned with completed = {completed}"
        );
    }
    drop(server);

    let server = Server::start(ServerConfig {
        max_wait: Duration::from_secs(5),
        ..small_config(1)
    });
    for shed in 1..=20u64 {
        let doomed = server
            .submit_with(
                Request::BstInsert { keys: vec![1] },
                Priority::Normal,
                Some(Duration::from_millis(1)),
            )
            .unwrap();
        assert_eq!(doomed.wait(), Err(ServeError::DeadlineExceeded));
        let stats = server.stats();
        assert_eq!(stats.deadline_expired, shed, "{stats:?}");
        assert_eq!(stats.completed, shed, "{stats:?}");
    }
    drop(server);
}

#[test]
fn poison_pill_respawns_worker_from_committed_state() {
    let server = Server::start(small_config(1));
    // Establish committed state.
    assert!(server
        .call(Request::ChainInsert {
            keys: vec![10, 11, 12]
        })
        .is_ok());
    assert!(server.call(Request::OaInsert { keys: vec![5, 6] }).is_ok());
    // Kill the (only) worker mid-batch.
    assert_eq!(
        server.call(Request::PoisonPill {
            class: WorkloadClass::Chain
        }),
        Err(ServeError::WorkerLost)
    );
    // The respawned worker serves again, on top of the committed state.
    assert!(server.call(Request::ChainInsert { keys: vec![13] }).is_ok());
    assert_eq!(
        server.call(Request::OaLookup {
            keys: vec![5, 6, 7]
        }),
        Ok(Response::OaLookedUp {
            found: vec![true, true, false]
        }),
        "open-addressing contents survived the panic via the committed image"
    );
    let stats = server.stats();
    assert_eq!(stats.respawns, 1);
    let report = server.shutdown();
    assert_eq!(chain_union(&report), vec![10, 11, 12, 13]);
}

#[test]
fn pool_survives_an_adversarial_fault_plan() {
    // Dropped lanes + torn writes on every worker's machine: the recovery
    // ladder (not luck) is what keeps results correct.
    let server = Server::start(ServerConfig {
        fault_plan: Some(
            FaultPlan::dropped_lanes(11, 3000).with_torn_writes(2000, fol_vm::AmalgamMode::Or),
        ),
        ..small_config(2)
    });
    let tickets: Vec<_> = (0..30)
        .map(|k| {
            server
                .submit(Request::ChainInsert {
                    keys: vec![k, k + 100],
                })
                .unwrap()
        })
        .collect();
    for t in tickets {
        assert!(
            t.wait().is_ok(),
            "the ladder must absorb injected faults without failing requests"
        );
    }
    let report = server.shutdown();
    let mut expected: Vec<Word> = (0..30).flat_map(|k| [k, k + 100]).collect();
    expected.sort_unstable();
    assert_eq!(chain_union(&report), expected);
}

#[test]
fn idle_scrub_detects_and_repairs_injected_rot_between_bursts() {
    let server = Server::start(small_config(1));
    // Burst 1: establish committed contents.
    assert!(server
        .call(Request::ChainInsert {
            keys: vec![1, 2, 3, 4]
        })
        .is_ok());
    // Rot lands while the server is idle.
    assert_eq!(
        server.call(Request::InjectRot {
            class: WorkloadClass::Chain
        }),
        Ok(Response::RotInjected)
    );
    // Give the idle scrub time to cycle every tracked region.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let stats = server.stats();
        if stats.rot_repaired >= 1 {
            assert!(stats.rot_detected >= 1);
            assert!(stats.scrub_slices >= 1);
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "idle scrub never caught the injected rot"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // Burst 2 runs on repaired state: the earlier keys are intact.
    assert!(server.call(Request::ChainInsert { keys: vec![5] }).is_ok());
    let report = server.shutdown();
    assert_eq!(chain_union(&report), vec![1, 2, 3, 4, 5]);
}

#[test]
fn digest_requests_reflect_acknowledged_content_across_shards_and_respawns() {
    // Two servers with different worker counts (different chain shard
    // layouts) apply the same logical traffic; their digests must agree —
    // the cross-replica comparison primitive the network layer votes on.
    let a = Server::start(small_config(1));
    let b = Server::start(small_config(3));
    for server in [&a, &b] {
        for k in 0..20 {
            assert!(server
                .call(Request::ChainInsert {
                    keys: vec![k, k] // duplicates must accumulate, not cancel
                })
                .is_ok());
        }
        assert!(server.call(Request::OaInsert { keys: vec![7, 9] }).is_ok());
        assert!(server.call(Request::BstInsert { keys: vec![3, 1] }).is_ok());
    }
    let digest_of = |s: &Server, class| match s.call(Request::Digest { class }) {
        Ok(Response::ClassDigest { digest, count }) => (digest, count),
        other => panic!("digest request failed: {other:?}"),
    };
    for class in [
        WorkloadClass::Chain,
        WorkloadClass::OpenAddr,
        WorkloadClass::Bst,
    ] {
        let da = digest_of(&a, class);
        let db = digest_of(&b, class);
        assert_eq!(da, db, "{class:?} digest differs across shard layouts");
        assert!(da.1 > 0, "{class:?} digest covers no keys");
    }
    assert_eq!(digest_of(&a, WorkloadClass::Chain).1, 40);
    // An empty class digests as (0, 0) — and distinct content must
    // (overwhelmingly) not collide with it.
    let empty = Server::start(small_config(2));
    assert_eq!(digest_of(&empty, WorkloadClass::Bst), (0, 0));
    drop(empty);

    // A worker killed mid-batch republishes its shard on respawn: the
    // digest still covers exactly the acknowledged keys.
    assert_eq!(
        a.call(Request::PoisonPill {
            class: WorkloadClass::Chain
        }),
        Err(ServeError::WorkerLost)
    );
    assert_eq!(
        digest_of(&a, WorkloadClass::Chain),
        digest_of(&b, WorkloadClass::Chain),
        "respawn changed the acknowledged chain digest"
    );
    drop(a);
    drop(b);
}

#[test]
fn admission_rejections_do_not_poison_coalesced_siblings() {
    // Three requests land in one batch; the middle one is malformed (a
    // negative key). Only it fails, and with a typed Rejected.
    let server = Server::start(ServerConfig {
        max_wait: Duration::from_millis(50),
        ..small_config(1)
    });
    let a = server
        .submit(Request::OaInsert { keys: vec![1, 2] })
        .unwrap();
    let bad = server.submit(Request::OaInsert { keys: vec![-7] }).unwrap();
    let c = server.submit(Request::OaInsert { keys: vec![3] }).unwrap();
    assert!(a.wait().is_ok());
    assert!(
        matches!(bad.wait(), Err(ServeError::Rejected { reason }) if reason.contains("negative"))
    );
    assert!(c.wait().is_ok());
    assert_eq!(
        server.call(Request::OaLookup {
            keys: vec![1, 2, 3]
        }),
        Ok(Response::OaLookedUp {
            found: vec![true, true, true]
        })
    );
    drop(server);
}
