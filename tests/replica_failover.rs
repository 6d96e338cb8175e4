//! Replicated serving on the cluster path: a replica set is a
//! [`fol_net::ShardMap`] with `replication = 3` over three nodes, driven by
//! a [`fol_net::ClusterClient`]. Each map has several shards, so every node
//! leads some replica groups and follows in others.
//!
//! The invariants, in the order the cells check them:
//!
//! * **a majority masks a dead node** — with one replica SIGKILLed mid-batch
//!   under seeded wire faults, or shut down while it leads groups, every
//!   write keeps resolving `Ok` on the surviving majority;
//! * **failover is typed eviction** — the dead node is evicted as
//!   [`EvictReason::Unresponsive`] after its strikes run out;
//! * **zero acknowledged-but-lost, zero double-applied** — each survivor's
//!   final dump is byte-equal to the scalar oracle (the sorted acknowledged
//!   keys), and a write whose outcome the client never learned is stored
//!   once, not once per route attempt;
//! * **the quorum never shrinks** — with two of three replicas struck out
//!   the survivor alone acknowledges nothing and wins no digest vote;
//! * **digest voting detects real divergence** — a node holding a key
//!   smuggled in behind the client's back is evicted as
//!   [`EvictReason::DigestMinority`], both digests attached;
//! * **rejoin is digest-verified** — a node that missed writes catches up
//!   and votes with the majority again; a node ahead of the majority is
//!   refused, typed, until its content converges.
//!
//! The SIGKILL is a real one against a child OS process (re-exec of this
//! test binary, dispatched on `FOL_NET_ROLE`). Cells write JSON artifacts
//! next to the chaos matrix's (`target/net-chaos/`, override
//! `$NET_CHAOS_ARTIFACT_DIR`) carrying `lost_acks` and `dup_applies`.

use fol_net::{
    ClusterClient, EvictReason, NetClient, NetClientConfig, NetError, NetServer, NetServerConfig,
    RejoinError, ShardMap, WireFaultPlan,
};
use fol_serve::{
    keys_digest, Request, Response, Server, ServerConfig, ShutdownReport, WorkloadClass,
};
use fol_vm::Word;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------- plumbing

const SHARDS: u32 = 8;
const VNODES: u32 = 64;
const CLASSES: [WorkloadClass; 3] = [
    WorkloadClass::Chain,
    WorkloadClass::OpenAddr,
    WorkloadClass::Bst,
];

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "fol-replica-failover-{}-{tag}-{n}",
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
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn small_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_capacity: 256,
        max_batch: 32,
        max_wait: Duration::from_millis(1),
        idle_tick: Duration::from_millis(1),
        chain_buckets: 32,
        chain_capacity: 2048,
        oa_slots: 256,
        bst_capacity: 512,
        ..ServerConfig::default()
    }
}

/// Writes a cell's artifact: its acked count, the `(lost_acks, dup_applies)`
/// audit of its survivors' dumps, and any cell-specific `fields`.
fn write_cell_report(cell: &str, acked: usize, audit: (usize, usize), fields: &[(&str, &str)]) {
    let dir = std::env::var_os("NET_CHAOS_ARTIFACT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/net-chaos"));
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let mut s = format!(
        "{{\n  \"cell\": \"{cell}\",\n  \"replicas\": 3,\n  \"shards\": {SHARDS},\n  \
         \"acked\": {acked},\n  \"lost_acks\": {},\n  \"dup_applies\": {}",
        audit.0, audit.1
    );
    for (k, v) in fields {
        s.push_str(&format!(",\n  \"{k}\": {v}"));
    }
    s.push_str(&format!(",\n  \"passed\": {}\n}}\n", audit == (0, 0)));
    let _ = std::fs::write(dir.join(format!("{cell}.json")), s);
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

/// An in-process node on `bind` (`"127.0.0.1:0"` picks a free port).
fn spawn_node(bind: &str) -> NetServer {
    NetServer::start(
        Server::start(small_config()),
        NetServerConfig {
            bind: bind.to_string(),
            ..NetServerConfig::default()
        },
    )
    .expect("bind node")
}

/// A loopback address the OS just proved free, so a node can come up on
/// it later under the identity the map already hashed.
fn reserve_addr() -> String {
    let l = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve port");
    l.local_addr().expect("reserved addr").to_string()
}

/// A client that gives up on a dead node quickly.
fn fast_cfg(client_id: u64) -> NetClientConfig {
    NetClientConfig {
        client_id,
        connect_timeout: Duration::from_millis(100),
        io_timeout: Duration::from_millis(300),
        call_deadline: Duration::from_millis(600),
        ..NetClientConfig::default()
    }
}

/// A three-replica map over `addrs`, installed on `up` of them.
fn replicated_map(addrs: &[String], up: &[usize]) -> ShardMap {
    let map = ShardMap::build(addrs.to_vec(), SHARDS, VNODES, 3);
    for &i in up {
        let cfg = NetClientConfig {
            client_id: 900 + i as u64,
            ..NetClientConfig::default()
        };
        NetClient::new(map.nodes[i].clone(), cfg)
            .install_map(&map, i as u32)
            .expect("map install");
    }
    map
}

/// Three in-process nodes under a three-replica map.
fn cluster() -> (Vec<NetServer>, Vec<String>, ShardMap) {
    let nets: Vec<NetServer> = (0..3).map(|_| spawn_node("127.0.0.1:0")).collect();
    let addrs: Vec<String> = nets.iter().map(|n| n.local_addr().to_string()).collect();
    let map = replicated_map(&addrs, &[0, 1, 2]);
    (nets, addrs, map)
}

/// Single-key chain inserts of `keys`, one request each.
fn inserts(keys: impl IntoIterator<Item = Word>) -> Vec<Request> {
    keys.into_iter()
        .map(|k| Request::ChainInsert { keys: vec![k] })
        .collect()
}

/// A write stamped for `map`, sent behind the cluster client's back.
fn smuggle(addr: &str, map: &ShardMap, key: Word) {
    let r = NetClient::new(addr.to_string(), fast_cfg(666)).call_many_tagged(
        &[(
            Request::ChainInsert { keys: vec![key] },
            map.shard_of_key(key),
        )],
        map.epoch,
    );
    assert!(r[0].is_ok(), "the smuggled insert lands: {:?}", r[0]);
}

/// The `(digest, count)` of the oracle's keys in `shard`.
fn oracle_digest(map: &ShardMap, oracle: &[Word], shard: u32) -> (u64, u64) {
    let keys: Vec<Word> = oracle
        .iter()
        .copied()
        .filter(|&k| map.shard_of_key(k) == shard)
        .collect();
    (keys_digest(&keys), keys.len() as u64)
}

fn chain_dump(report: &ShutdownReport) -> Vec<Word> {
    let mut keys: Vec<Word> = report
        .dumps
        .iter()
        .filter(|d| d.class == WorkloadClass::Chain)
        .flat_map(|d| d.keys.iter().copied())
        .collect();
    keys.sort_unstable();
    keys
}

/// `(lost_acks, dup_applies)` of sorted survivor dumps against the sorted
/// acknowledged multiset: acked keys a dump lacks, and dump entries beyond
/// the acked multiset, summed over the dumps.
fn audit(dumps: &[Vec<Word>], acked: &[Word]) -> (usize, usize) {
    let (mut lost, mut dups) = (0, 0);
    for dump in dumps {
        let mut dump = dump.iter().peekable();
        for a in acked {
            while dump.next_if(|&d| d < a).is_some() {
                dups += 1;
            }
            if dump.next_if_eq(&a).is_none() {
                lost += 1;
            }
        }
        dups += dump.count();
    }
    (lost, dups)
}

fn assert_evicted_unresponsive(cc: &ClusterClient, node: usize) {
    let status = cc.status();
    assert!(
        matches!(status[node].evicted, Some(EvictReason::Unresponsive { .. })),
        "node {node} evicted as unresponsive: {status:?}"
    );
}

fn evicted(cc: &ClusterClient) -> Vec<usize> {
    (0..cc.map().nodes.len())
        .filter(|&i| cc.status()[i].evicted.is_some())
        .collect()
}

// ------------------------------------------------------------- child side

/// Child dispatch: under `FOL_NET_ROLE` this process is one replica; in a
/// normal test run it is a no-op pass.
#[test]
fn child_entrypoint() {
    if std::env::var("FOL_NET_ROLE").as_deref() != Ok("replica") {
        return;
    }
    let dir = PathBuf::from(std::env::var("FOL_NET_DIR").expect("FOL_NET_DIR"));
    let seed: u64 = std::env::var("FOL_NET_SEED")
        .expect("FOL_NET_SEED")
        .parse()
        .expect("numeric seed");
    // Every replica misbehaves on its response writes, each with its own
    // deterministic plan.
    let net = NetServer::start(
        Server::start(small_config()),
        NetServerConfig {
            fault_plan: Some(WireFaultPlan {
                seed,
                drop_per_mille: 80,
                dup_per_mille: 60,
                flip_per_mille: 40,
                ..WireFaultPlan::default()
            }),
            ..NetServerConfig::default()
        },
    )
    .expect("replica bind");
    // Publish the picked port atomically (write + rename) so the parent
    // never reads a half-written file.
    let tmp = dir.join("addr.tmp");
    std::fs::write(&tmp, net.local_addr().to_string()).expect("write addr");
    std::fs::rename(&tmp, dir.join("addr.txt")).expect("publish addr");

    // Serve until a peer asks for shutdown over the wire, then drain and
    // publish the final chain dump — the survivor evidence the parent
    // audits against the oracle.
    while !net.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(5));
    }
    let body = chain_dump(&net.shutdown())
        .iter()
        .map(|k| k.to_string())
        .collect::<Vec<_>>()
        .join("\n");
    let tmp = dir.join("dump.tmp");
    std::fs::write(&tmp, body).expect("write dump");
    std::fs::rename(&tmp, dir.join("dump.txt")).expect("publish dump");
}

fn spawn_replica(dir: &Path, seed: u64) -> Child {
    let exe = std::env::current_exe().expect("test binary path");
    let mut cmd = Command::new(exe);
    let log = std::fs::File::create(dir.join("child.log")).expect("child log");
    cmd.args([
        "child_entrypoint",
        "--exact",
        "--test-threads",
        "1",
        "--nocapture",
    ])
    .env("FOL_NET_ROLE", "replica")
    .env("FOL_NET_DIR", dir)
    .env("FOL_NET_SEED", seed.to_string())
    .stdout(Stdio::null())
    .stderr(log);
    cmd.spawn().expect("spawn replica child")
}

fn read_addr(dir: &Path) -> Option<String> {
    std::fs::read_to_string(dir.join("addr.txt"))
        .ok()
        .map(|s| s.trim().to_string())
}

fn read_dump(dir: &Path) -> Vec<Word> {
    let text = std::fs::read_to_string(dir.join("dump.txt")).expect("survivor dump");
    text.lines().filter_map(|l| l.parse().ok()).collect()
}

// ------------------------------------------------------------------ cells

/// Three replica processes, seeded faults on every link, and one replica
/// SIGKILLed while a batch is in flight — the leader of some shards' groups
/// and a follower in the rest. Majority acks ride through; the dead node is
/// evicted typed; the survivors vote the oracle's digest on every shard and
/// drain to dumps byte-equal to the sorted acknowledged keys.
#[test]
fn sigkill_one_replica_mid_batch_masks_and_loses_nothing() {
    let dirs = [TempDir::new("r0"), TempDir::new("r1"), TempDir::new("r2")];
    let mut children: Vec<Child> = dirs
        .iter()
        .enumerate()
        .map(|(i, d)| spawn_replica(d.path(), 0xFA11 + i as u64))
        .collect();
    wait_until(
        "all replicas to publish ports",
        Duration::from_secs(30),
        || dirs.iter().all(|d| read_addr(d.path()).is_some()),
    );
    let addrs: Vec<String> = dirs.iter().map(|d| read_addr(d.path()).unwrap()).collect();
    // Installs cross the replicas' faulted response writers; a lost ack is
    // retried, and re-installing the same epoch is an idempotent ack.
    let map = replicated_map(&addrs, &[0, 1, 2]);
    let victim = map.owner(0);
    assert!(
        (0..SHARDS).any(|s| map.owner(s) != victim),
        "the victim must lead some groups and follow in others"
    );

    let mut cc = ClusterClient::new(
        map.clone(),
        NetClientConfig {
            client_id: 31,
            io_timeout: Duration::from_millis(200),
            connect_timeout: Duration::from_millis(300),
            call_deadline: Duration::from_secs(2),
            // The client side of every link misbehaves too.
            fault_plan: Some(WireFaultPlan {
                seed: 0xC0DE,
                drop_per_mille: 80,
                dup_per_mille: 60,
                ..WireFaultPlan::default()
            }),
            ..NetClientConfig::default()
        },
        2,
    );

    let mut acked: Vec<Word> = Vec::new();
    for bi in 0..6 {
        let keys: Vec<Word> = (bi * 8..bi * 8 + 8).collect();
        // Kill the victim *while batch 2 is in flight*: the killer thread
        // fires mid-call, so its sockets reset under the client's feet.
        let killer = (bi == 2).then(|| {
            let pid = children[victim].id();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
            })
        });
        let results = cc.call_many(&inserts(keys.iter().copied()));
        if let Some(k) = killer {
            k.join().unwrap();
        }
        for (&key, r) in keys.iter().zip(&results) {
            match r {
                Ok(Response::ChainInserted { .. }) => acked.push(key),
                other => panic!("batch {bi} key {key}: majority ack expected, got {other:?}"),
            }
        }
    }
    children[victim].wait().expect("reap the killed replica");
    assert_evicted_unresponsive(&cc, victim);
    assert_eq!(evicted(&cc), vec![victim], "only the victim is evicted");

    // The survivors vote one digest per shard, and it is the oracle's.
    let mut oracle = acked.clone();
    oracle.sort_unstable();
    for shard in 0..SHARDS {
        assert_eq!(
            cc.vote_shard_digest(WorkloadClass::Chain, shard),
            Ok(oracle_digest(&map, &oracle, shard)),
            "shard {shard}: the voted digest must equal the scalar oracle's"
        );
    }
    assert_eq!(
        evicted(&cc),
        vec![victim],
        "no survivor in a digest minority"
    );

    // Graceful drain: each survivor publishes its final dump, byte-equal
    // to the oracle — zero acknowledged-but-lost, nothing applied twice.
    let mut dumps = Vec::new();
    for (i, dir) in dirs.iter().enumerate() {
        if i == victim {
            continue;
        }
        let mut quitter = NetClient::new(
            addrs[i].clone(),
            NetClientConfig {
                client_id: 90 + i as u64,
                call_deadline: Duration::from_secs(2),
                ..NetClientConfig::default()
            },
        );
        // The ShutdownAck crosses the survivor's *faulted* response writer
        // and may be dropped; the child exiting is the authoritative ack.
        let wire_acked = quitter.request_shutdown().is_ok();
        wait_until(
            "the survivor to drain and exit",
            Duration::from_secs(30),
            || children[i].try_wait().expect("poll survivor").is_some(),
        );
        let status = children[i].wait().expect("reap survivor");
        assert!(
            status.success(),
            "survivor {i} must exit cleanly (wire-acked: {wire_acked}): {status:?}\nchild log:\n{}",
            std::fs::read_to_string(dir.path().join("child.log")).unwrap_or_default()
        );
        dumps.push(read_dump(dir.path()));
    }
    let audited = audit(&dumps, &oracle);
    write_cell_report(
        "replica_sigkill_mid_batch",
        acked.len(),
        audited,
        &[("killed", "1"), ("evicted_as", "\"unresponsive\"")],
    );
    for dump in &dumps {
        assert_eq!(
            dump, &oracle,
            "survivor dumps must be byte-equal to the acked oracle"
        );
    }
}

/// Digest-minority eviction: acknowledged traffic can never diverge a
/// replica (the ladder's last rung always completes), so a shard digest in
/// the minority means the node's state was corrupted or tampered with
/// out-of-band. Here a key is smuggled into one node behind the client's
/// back; the vote on its shard evicts it, typed, with the evidence attached.
#[test]
fn digest_minority_is_evicted_with_the_divergent_digest() {
    let (nets, addrs, map) = cluster();
    let mut cc = ClusterClient::new(map.clone(), fast_cfg(41), 2);

    let mut acked: Vec<Word> = (0..16).collect();
    assert!(cc.call_many(&inserts(0..16)).iter().all(|r| r.is_ok()));
    for shard in 0..SHARDS {
        assert_eq!(
            cc.vote_shard_digest(WorkloadClass::Chain, shard),
            Ok(oracle_digest(&map, &acked, shard))
        );
    }
    assert!(evicted(&cc).is_empty(), "agreement evicts nobody");

    smuggle(&addrs[2], &map, 999);
    let shard = map.shard_of_key(999);
    let clean = oracle_digest(&map, &acked, shard);
    assert_eq!(
        cc.vote_shard_digest(WorkloadClass::Chain, shard),
        Ok(clean),
        "the majority's digest wins"
    );
    assert_eq!(evicted(&cc), vec![2]);
    let mut diverged = acked.clone();
    diverged.push(999);
    assert_eq!(
        cc.status()[2].evicted,
        Some(EvictReason::DigestMinority {
            got: oracle_digest(&map, &diverged, shard),
            majority: clean,
        }),
        "the eviction carries both digests as evidence"
    );

    // The thinned cluster keeps serving on its majority.
    assert!(cc.call_many(&inserts(100..108)).iter().all(|r| r.is_ok()));
    acked.extend(100..108);

    let dumps: Vec<Vec<Word>> = nets
        .into_iter()
        .map(|n| chain_dump(&n.shutdown()))
        .collect();
    let audited = audit(&dumps[..2], &acked);
    write_cell_report(
        "replica_digest_minority",
        acked.len(),
        audited,
        &[("evicted", "1"), ("evicted_as", "\"digest-minority\"")],
    );
    assert_eq!(audited, (0, 0), "survivors hold exactly the acked keys");
}

/// A node that leads groups is shut down. Its groups keep a majority, so
/// every write is acknowledged, and each key lands exactly once on each
/// survivor — the router answers from the live members, not from the map's
/// fixed primary, and re-sends nothing that was already applied.
#[test]
fn a_dead_primary_is_masked_and_each_write_lands_once() {
    let (mut nets, _, map) = cluster();
    let victim = map.owner(0);
    drop(nets.remove(victim).shutdown());

    let mut cc = ClusterClient::new(map, fast_cfg(51), 1);
    for b in 0..3 {
        let keys = b * 16..b * 16 + 16;
        for (k, r) in keys.clone().zip(cc.call_many(&inserts(keys))) {
            assert!(r.is_ok(), "batch {b} key {k}: {r:?}");
        }
    }
    assert_evicted_unresponsive(&cc, victim);

    let acked: Vec<Word> = (0..48).collect();
    let dumps: Vec<Vec<Word>> = nets
        .into_iter()
        .map(|n| chain_dump(&n.shutdown()))
        .collect();
    let audited = audit(&dumps, &acked);
    write_cell_report("replica_dead_primary_masked", acked.len(), audited, &[]);
    assert_eq!(audited, (0, 0), "every key exactly once on each survivor");
}

/// Evictions never lower the quorum: with two of three replicas struck
/// out, the survivor alone is not a majority — writes are refused
/// `NoQuorum` and no digest vote is won by one answer.
#[test]
fn the_majority_holds_with_two_of_three_struck_out() {
    let (mut nets, _, map) = cluster();
    for net in nets.drain(1..) {
        drop(net.shutdown());
    }

    let mut cc = ClusterClient::new(map, fast_cfg(61), 1);
    let first = cc.call_many(&inserts(0..16));
    assert!(first.iter().all(|r| r.is_err()), "one ack is no majority");
    assert_evicted_unresponsive(&cc, 1);
    assert_evicted_unresponsive(&cc, 2);

    let refused = NetError::NoQuorum { live: 1, need: 2 };
    for r in cc.call_many(&inserts(16..32)) {
        assert_eq!(r, Err(refused.clone()));
    }
    for shard in 0..SHARDS {
        assert_eq!(
            cc.vote_shard_digest(WorkloadClass::Chain, shard),
            Err(refused.clone())
        );
    }
    for net in nets {
        drop(net.shutdown());
    }
}

/// A write whose every response is lost resolves as an error, and the node
/// holds it once: the router does not re-send an ambiguous outcome under a
/// fresh sequence number; only the node client retries, under the same one.
#[test]
fn an_unanswered_write_is_applied_once() {
    let server = Server::start(small_config());
    let gate = server.shard_gate().clone();
    let net = NetServer::start(
        server,
        NetServerConfig {
            fault_plan: Some(WireFaultPlan {
                seed: 7,
                drop_per_mille: 1000,
                ..WireFaultPlan::default()
            }),
            ..NetServerConfig::default()
        },
    )
    .expect("bind node");
    let map = ShardMap::build(vec![net.local_addr().to_string()], SHARDS, VNODES, 1);
    // Every response is dropped, so the map goes in behind the wire.
    gate.install(map.assignment_for(0));

    let mut cc = ClusterClient::new(map, fast_cfg(71), 0);
    let out = cc.call_many(&[Request::ChainInsert { keys: vec![7] }]);
    assert!(out[0].is_err(), "no answer ever arrives: {:?}", out[0]);
    drop(cc);
    assert_eq!(chain_dump(&net.shutdown()), vec![7], "stored once");
}

/// Crash-style eviction heals: a member that starts down misses
/// acknowledged writes, comes back empty, and `rejoin` ships the missing
/// keys and readmits it once every shard's class digests match a donor's.
/// The README's rejoin example is an excerpt of this cell.
#[test]
fn unresponsive_member_catches_up_and_rejoins() {
    let a = spawn_node("127.0.0.1:0");
    let b = spawn_node("127.0.0.1:0");
    let addr_c = reserve_addr();
    let addrs = vec![
        a.local_addr().to_string(),
        b.local_addr().to_string(),
        addr_c.clone(),
    ];
    let map = replicated_map(&addrs, &[0, 1]);
    let mut cc = ClusterClient::new(map, fast_cfg(81), 1);

    let seed = vec![
        Request::ChainInsert { keys: vec![1] },
        Request::ChainInsert { keys: vec![2] },
        Request::ChainInsert { keys: vec![3] },
        Request::OaInsert { keys: vec![10] },
        Request::OaInsert { keys: vec![11] },
        Request::BstInsert { keys: vec![5] },
    ];
    assert!(
        cc.call_many(&seed).iter().all(|r| r.is_ok()),
        "the majority acks"
    );
    assert_evicted_unresponsive(&cc, 2);
    // More acknowledged traffic the dead member misses entirely.
    assert!(cc.call_many(&inserts([4]))[0].is_ok());

    // C comes back empty and mapless: it "lost" its process state.
    let c = spawn_node(&addr_c);
    assert_eq!(cc.rejoin(&addr_c), Ok(()));
    assert!(
        evicted(&cc).is_empty(),
        "the caught-up member is readmitted"
    );

    // The readmitted member votes with the majority on every shard and
    // class — catch-up really converged the content.
    for class in CLASSES {
        for shard in 0..SHARDS {
            cc.vote_shard_digest(class, shard)
                .expect("3-way digest agreement");
        }
    }
    assert!(evicted(&cc).is_empty(), "no member lands in the minority");
    drop((a, b, c));
}

/// Diverged content does not heal by key shipping: a digest-minority
/// member holding a key the majority never acknowledged is refused, typed,
/// on every `rejoin`, and readmitted only once its content matches again.
#[test]
fn digest_minority_stays_out_until_content_converges() {
    let (nets, addrs, map) = cluster();
    let mut cc = ClusterClient::new(map.clone(), fast_cfg(91), 1);
    assert!(cc.call_many(&inserts(1..4)).iter().all(|r| r.is_ok()));

    // Corrupt C behind the client's back: a write the majority never saw.
    smuggle(&addrs[2], &map, 99);
    let shard = map.shard_of_key(99);
    cc.vote_shard_digest(WorkloadClass::Chain, shard)
        .expect("the majority still agrees");
    assert!(matches!(
        cc.status()[2].evicted,
        Some(EvictReason::DigestMinority { .. })
    ));

    // While C is ahead of the majority, every rejoin refuses it.
    for _ in 0..5 {
        assert_eq!(
            cc.rejoin(&addrs[2]),
            Err(RejoinError::Ahead {
                shard,
                class: WorkloadClass::Chain,
                extra: 1,
            })
        );
        assert_eq!(evicted(&cc), vec![2], "a diverged member stays out");
    }

    // Converge out of band: the majority adopts the same key.
    for addr in &addrs[..2] {
        smuggle(addr, &map, 99);
    }
    assert_eq!(
        cc.rejoin(&addrs[2]),
        Ok(()),
        "matching content is readmitted"
    );
    for s in 0..SHARDS {
        cc.vote_shard_digest(WorkloadClass::Chain, s)
            .expect("3-way digest agreement");
    }
    assert!(evicted(&cc).is_empty());
    for net in nets {
        drop(net.shutdown());
    }
}
