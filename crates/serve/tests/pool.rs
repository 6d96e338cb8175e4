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

/// A control request is never coalesced, so it is served as soon as it is
/// queued, whatever the linger: a 2 s `max_wait` must not delay it.
#[test]
fn control_requests_do_not_wait_out_the_linger() {
    let server = Server::start(ServerConfig {
        max_wait: Duration::from_secs(2),
        ..small_config(2)
    });
    let start = std::time::Instant::now();
    let digest = server.call(Request::Digest {
        class: WorkloadClass::Chain,
    });
    let digest_took = start.elapsed();
    assert_eq!(
        digest,
        Ok(Response::ClassDigest {
            digest: fol_serve::keys_digest(&[]),
            count: 0
        })
    );
    let start = std::time::Instant::now();
    let keys = server.call(Request::ShardKeys {
        class: WorkloadClass::Chain,
        shards: 4,
        shard: 1,
    });
    let keys_took = start.elapsed();
    assert_eq!(keys, Ok(Response::Keys { keys: Vec::new() }));
    assert!(
        digest_took < Duration::from_millis(200),
        "Digest took {digest_took:?}"
    );
    assert!(
        keys_took < Duration::from_millis(200),
        "ShardKeys took {keys_took:?}"
    );
}

/// A worker fills every slot of a batch before it wakes the waiting
/// callers. Callers that wait their tickets in any order — here a seeded
/// shuffle per burst — still each get their own outcome, every outcome is
/// counted, and the table holds every key.
#[test]
fn every_ticket_completes_whatever_order_its_caller_waits_in() {
    const THREADS: u64 = 4;
    const BURSTS: u64 = 500;
    const BURST: u64 = 64;
    let server = Server::start(ServerConfig {
        queue_capacity: 1024,
        max_batch: 64,
        max_wait: Duration::from_micros(200),
        chain_buckets: 1024,
        chain_capacity: (THREADS * BURSTS * BURST) as usize,
        ..small_config(2)
    });
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let server = &server;
            s.spawn(move || {
                let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ t;
                for b in 0..BURSTS {
                    let first = (t * BURSTS + b) * BURST;
                    let items = (first..first + BURST)
                        .map(|k| {
                            let r = Request::ChainInsert {
                                keys: vec![k as Word],
                            };
                            (r, Priority::Normal, None)
                        })
                        .collect();
                    let mut tickets: Vec<_> = server
                        .submit_many_with(items)
                        .into_iter()
                        .map(|t| t.expect("under capacity"))
                        .enumerate()
                        .collect();
                    // Fisher-Yates under a xorshift: a seeded wait order.
                    for i in (1..tickets.len()).rev() {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        tickets.swap(i, (rng % (i as u64 + 1)) as usize);
                    }
                    for (_, ticket) in tickets {
                        assert!(matches!(ticket.wait(), Ok(Response::ChainInserted { .. })));
                    }
                }
            });
        }
    });
    let submitted = THREADS * BURSTS * BURST;
    let stats = server.stats();
    assert_eq!(stats.submitted, submitted);
    assert_eq!(stats.completed, submitted);
    let all: Vec<Word> = (0..submitted as Word).collect();
    assert_eq!(
        server.call(Request::Digest {
            class: WorkloadClass::Chain
        }),
        Ok(Response::ClassDigest {
            digest: fol_serve::keys_digest(&all),
            count: submitted
        })
    );
    assert_eq!(chain_union(&server.shutdown()), all);
}

/// Workers build their machines on their own threads, yet a build that
/// panics still fails `Server::start` with that panic, as it did when the
/// builds ran on the caller's thread: whether every worker's build fails or
/// only one's while the others already serve. `start` runs on a thread of
/// its own so a start that hangs fails the test instead of stalling it.
#[test]
fn a_worker_that_cannot_build_fails_start_with_its_panic() {
    // Every worker allocates a chain shard; on two workers only worker 1
    // owns the open-addressing table.
    let every_worker = ServerConfig {
        chain_capacity: usize::MAX / 4,
        ..small_config(2)
    };
    let one_worker = ServerConfig {
        oa_slots: usize::MAX / 4,
        ..small_config(2)
    };
    for config in [every_worker, one_worker] {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let start = std::panic::AssertUnwindSafe(|| Server::start(config).shutdown());
            let panic = std::panic::catch_unwind(start).err().map(|p| {
                p.downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| p.downcast_ref::<String>().cloned())
                    .unwrap_or_default()
            });
            let _ = tx.send(panic);
        });
        let panic = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("start must return or panic, not hang");
        let message = panic.expect("a worker that cannot build fails start");
        assert!(message.contains("capacity overflow"), "{message}");
    }
}
