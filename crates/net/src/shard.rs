//! The cluster shard map: a consistent-hash ring with virtual nodes, and
//! the epoch-stamped router clients use to reach every key's replica group.
//!
//! The key space is partitioned into a **fixed** number of shards by
//! [`shard_of`] (re-exported from `fol-serve`, so router, gate and
//! extraction all agree). The *ring* assigns shards to server processes:
//! every node projects [`ShardMap::vnodes`] virtual points onto a `u64`
//! ring, and each shard walks clockwise from its own point collecting the
//! first [`ShardMap::replication`] distinct nodes — its replica group,
//! primary first. Fixed shards over a ring of vnodes is the classic
//! consistent-hashing construction (Chord-style): adding or removing a node
//! only reassigns the shards whose successor walk changed, which is the
//! *minimal movement* property the rebalance protocol depends on — every
//! other shard keeps its owner and its data never crosses the network.
//!
//! A map is versioned by its [`ShardMap::epoch`], bumped on every
//! membership change. Requests carry the epoch they were routed under;
//! servers refuse mismatches typed ([`fol_serve::ServeError::WrongEpoch`])
//! so a client that raced a rebalance refreshes its map and retries against
//! the new owner instead of silently writing to the old one.
//!
//! The assignment is **not** shipped on the wire: encode/decode carry only
//! the inputs (epoch, geometry, node list) and the receiver recomputes the
//! walk, so a corrupted or adversarial peer cannot smuggle an assignment
//! that disagrees with the ring.

use crate::client::{NetClient, NetClientConfig};
use crate::NetError;
use fol_persist::frame::{Dec, Enc};
use fol_persist::PersistError;
use fol_serve::{Request, Response, ServeError, WorkloadClass};
use fol_vm::Word;

pub use fol_serve::{shard_of, NO_SHARD};

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The versioned, epoch-stamped shard map: which server process owns (and
/// replicates) each of the fixed key-space shards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMap {
    /// Version of this map; bumped on every membership change. Requests
    /// are stamped with the epoch they were routed under.
    pub epoch: u64,
    /// Fixed number of key-space shards ([`shard_of`] partitions).
    pub shards: u32,
    /// Virtual ring points per node; more vnodes → better balance.
    pub vnodes: u32,
    /// Replica group size per shard (1 = no replication).
    pub replication: u32,
    /// Member addresses, in join order. Index into this list is the node
    /// id the assignment speaks.
    pub nodes: Vec<String>,
    assignment: Vec<Vec<u32>>,
}

impl ShardMap {
    /// Builds the epoch-1 map for an initial membership.
    ///
    /// # Panics
    ///
    /// Panics on an empty node list or zero shards/vnodes/replication —
    /// configuration errors, not recoverable state.
    pub fn build(nodes: Vec<String>, shards: u32, vnodes: u32, replication: u32) -> Self {
        assert!(!nodes.is_empty(), "a shard map needs at least one node");
        assert!(shards > 0 && vnodes > 0 && replication > 0);
        let assignment = assign(&nodes, shards, vnodes, replication);
        ShardMap {
            epoch: 1,
            shards,
            vnodes,
            replication,
            nodes,
            assignment,
        }
    }

    /// The replica group of `shard`, primary first.
    pub fn replicas(&self, shard: u32) -> &[u32] {
        &self.assignment[shard as usize]
    }

    /// The primary owner (node index) of `shard`.
    pub fn owner(&self, shard: u32) -> usize {
        self.assignment[shard as usize][0] as usize
    }

    /// The primary owner's address.
    pub fn owner_addr(&self, shard: u32) -> &str {
        &self.nodes[self.owner(shard)]
    }

    /// Routes a key: which shard it lives in under this map's geometry.
    pub fn shard_of_key(&self, key: Word) -> u32 {
        shard_of(key, self.shards)
    }

    /// The shards whose replica groups include node `node`.
    pub fn shards_of_node(&self, node: usize) -> Vec<u32> {
        (0..self.shards)
            .filter(|&s| self.replicas(s).contains(&(node as u32)))
            .collect()
    }

    /// The next epoch's map after `addr` joins. Ring points of surviving
    /// nodes are unchanged, so only the shards whose successor walk now
    /// meets the new node move.
    pub fn with_node_added(&self, addr: impl Into<String>) -> Self {
        let mut nodes = self.nodes.clone();
        nodes.push(addr.into());
        let assignment = assign(&nodes, self.shards, self.vnodes, self.replication);
        ShardMap {
            epoch: self.epoch + 1,
            nodes,
            assignment,
            ..*self
        }
    }

    /// The next epoch's map after `addr` is evicted.
    ///
    /// # Panics
    ///
    /// Panics when `addr` is not a member or is the last one.
    pub fn without_node(&self, addr: &str) -> Self {
        let nodes: Vec<String> = self.nodes.iter().filter(|n| *n != addr).cloned().collect();
        assert!(
            nodes.len() == self.nodes.len() - 1,
            "evicting a non-member: {addr}"
        );
        assert!(!nodes.is_empty(), "cannot evict the last node");
        let assignment = assign(&nodes, self.shards, self.vnodes, self.replication);
        ShardMap {
            epoch: self.epoch + 1,
            nodes,
            assignment,
            ..*self
        }
    }

    /// The shards whose **primary** owner differs between `self` and `next`
    /// (compared by address, so node reindexing does not read as movement):
    /// `(shard, from_addr, to_addr)` — exactly the handoffs a rebalance to
    /// `next` must perform.
    pub fn moved_shards(&self, next: &ShardMap) -> Vec<(u32, String, String)> {
        assert_eq!(self.shards, next.shards, "maps partition the same space");
        (0..self.shards)
            .filter_map(|s| {
                let from = self.owner_addr(s);
                let to = next.owner_addr(s);
                (from != to).then(|| (s, from.to_string(), to.to_string()))
            })
            .collect()
    }

    /// This node's slice of the map, in the form the serve-side gate
    /// installs: every shard whose replica group contains `node`.
    pub fn assignment_for(&self, node: usize) -> fol_serve::ShardAssignment {
        fol_serve::ShardAssignment {
            epoch: self.epoch,
            shards: self.shards,
            owned: self.shards_of_node(node),
        }
    }

    /// Serializes the map (inputs only; the assignment is recomputed on
    /// decode so a corrupt peer cannot ship a ring-inconsistent one).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.epoch);
        e.u32(self.shards);
        e.u32(self.vnodes);
        e.u32(self.replication);
        e.u32(self.nodes.len() as u32);
        for n in &self.nodes {
            e.str(n);
        }
        e.into_bytes()
    }

    /// Decodes and re-derives a map; every defect is typed.
    pub fn decode(bytes: &[u8]) -> Result<Self, PersistError> {
        let mut d = Dec::new(bytes);
        let epoch = d.u64("map.epoch")?;
        let shards = d.u32("map.shards")?;
        let vnodes = d.u32("map.vnodes")?;
        let replication = d.u32("map.replication")?;
        let n = d.u32("map.nodes.len")? as usize;
        if shards == 0 || vnodes == 0 || replication == 0 || n == 0 {
            return Err(PersistError::Malformed {
                what: "shard map: zero geometry or empty membership".into(),
            });
        }
        let mut nodes = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            nodes.push(d.str("map.node")?);
        }
        d.finish("shard map")?;
        let assignment = assign(&nodes, shards, vnodes, replication);
        Ok(ShardMap {
            epoch,
            shards,
            vnodes,
            replication,
            nodes,
            assignment,
        })
    }
}

/// The successor-walk assignment: ring points per node, shards walk to
/// their first `replication` distinct successors.
fn assign(nodes: &[String], shards: u32, vnodes: u32, replication: u32) -> Vec<Vec<u32>> {
    let mut ring: Vec<(u64, u32)> = Vec::with_capacity(nodes.len() * vnodes as usize);
    for (i, addr) in nodes.iter().enumerate() {
        let base = fnv1a(addr);
        for v in 0..vnodes as u64 {
            ring.push((mix(base ^ mix(v)), i as u32));
        }
    }
    // Ties (astronomically unlikely) break by node index: deterministic.
    ring.sort_unstable();
    let want = (replication as usize).min(nodes.len());
    (0..shards)
        .map(|s| {
            let point = mix(0x5AAD_F00D ^ s as u64);
            let start = ring.partition_point(|&(p, _)| p < point);
            let mut group = Vec::with_capacity(want);
            for k in 0..ring.len() {
                let node = ring[(start + k) % ring.len()].1;
                if !group.contains(&node) {
                    group.push(node);
                    if group.len() == want {
                        break;
                    }
                }
            }
            group
        })
        .collect()
}

/// How many attempts [`ClusterClient::call_many`] makes per request across
/// map refreshes before giving up with the last typed refusal.
const ROUTE_ATTEMPTS: usize = 3;

/// One node's pipelined batch: each request with its routing shard.
type Tagged = Vec<(Request, u32)>;

/// The classes a rejoin catches up and digest-checks.
const CLASSES: [WorkloadClass; 3] = [
    WorkloadClass::Chain,
    WorkloadClass::OpenAddr,
    WorkloadClass::Bst,
];

/// Why a node was evicted from the client's replica groups.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvictReason {
    /// Every answer of the node's last `max_strikes` exchanges was a
    /// transport failure (crash, partition, or persistent timeouts).
    Unresponsive {
        /// The final failure, rendered.
        last: String,
    },
    /// The node's shard digest disagreed with its group's majority.
    DigestMinority {
        /// What the node answered.
        got: (u64, u64),
        /// What the majority agreed on.
        majority: (u64, u64),
    },
}

/// One node's standing in a [`ClusterClient`]'s view.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeStatus {
    /// The node's address.
    pub addr: String,
    /// Consecutive all-transport-failure exchanges (reset by any answer).
    pub strikes: u32,
    /// Set while the node is evicted.
    pub evicted: Option<EvictReason>,
}

/// Why [`ClusterClient::rejoin`] refused to readmit a node. The node stays
/// evicted; every refusal is safe to retry once its cause is gone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RejoinError {
    /// The address is not a node of the client's map.
    NotMember,
    /// A probe, fetch or catch-up call failed.
    Net(NetError),
    /// No other live member of `shard`'s group is left to catch up from.
    NoDonor {
        /// The shard without a donor.
        shard: u32,
    },
    /// The node holds keys the donor lacks: it acknowledged (or invented)
    /// writes the majority never saw. Split-brain evidence, not lag.
    Ahead {
        /// The shard that diverged.
        shard: u32,
        /// The class that diverged.
        class: WorkloadClass,
        /// Keys the node holds beyond the donor's.
        extra: usize,
    },
    /// The node lacks keys but was evicted for divergent content; merging
    /// keys into it would launder the divergence, so its content must
    /// converge out of band first.
    Diverged {
        /// The shard that diverged.
        shard: u32,
        /// The class that diverged.
        class: WorkloadClass,
        /// Keys the node lacks.
        missing: usize,
    },
    /// After catch-up the node's digest still differs from the donor's.
    DigestMismatch {
        /// The shard that differs.
        shard: u32,
        /// The class that differs.
        class: WorkloadClass,
        /// The donor's `(digest, count)`.
        donor: (u64, u64),
        /// The node's `(digest, count)`.
        node: (u64, u64),
    },
}

impl std::fmt::Display for RejoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejoinError::Net(e) => write!(f, "rejoin call failed: {e}"),
            refusal => write!(f, "rejoin refused: {refusal:?}"),
        }
    }
}

impl std::error::Error for RejoinError {}

impl From<NetError> for RejoinError {
    fn from(e: NetError) -> Self {
        RejoinError::Net(e)
    }
}

/// The map-aware cluster client, and the one way to replicate: a replica
/// set is a [`ShardMap`] with `replication = N`.
///
/// * **Quorum.** A request's quorum is a majority of its shard's replica
///   group as the map assigns it; evictions never lower it.
/// * **Answer.** Each request goes to every non-evicted member of its
///   group. The caller gets the first `Ok` in group order once a quorum
///   answered `Ok`; else an error a quorum returned identically; else
///   [`NetError::NoQuorum`]. A group with fewer live members than its
///   quorum is refused `NoQuorum` without being sent.
/// * **Re-route.** Only a request every member refused with a typed
///   `WrongEpoch`/`NotOwner` (so nothing applied it) is re-sent, after a
///   map refresh; every other outcome is final, and ambiguous ones were
///   already retried inside [`NetClient`] under their own sequence number.
/// * **Strikes.** A node whose whole exchange failed in transport draws a
///   strike and, at `max_strikes`, is evicted
///   [`EvictReason::Unresponsive`]; [`ClusterClient::vote_shard_digest`]
///   evicts [`EvictReason::DigestMinority`]; [`ClusterClient::rejoin`]
///   readmits after a digest-verified catch-up.
pub struct ClusterClient {
    cfg: NetClientConfig,
    map: ShardMap,
    conns: Vec<Option<NetClient>>,
    strikes: Vec<u32>,
    evicted: Vec<Option<EvictReason>>,
    max_strikes: u32,
    /// Times a typed stale-map refusal forced a refresh-and-retry.
    pub stale_epoch_retries: u64,
}

impl ClusterClient {
    /// A client over `map`, striking out a node after `max_strikes`
    /// consecutive all-dead exchanges (0 = never).
    pub fn new(map: ShardMap, cfg: NetClientConfig, max_strikes: u32) -> Self {
        let n = map.nodes.len();
        ClusterClient {
            cfg,
            map,
            conns: (0..n).map(|_| None).collect(),
            strikes: vec![0; n],
            evicted: vec![None; n],
            max_strikes,
            stale_epoch_retries: 0,
        }
    }

    /// The map currently routed under.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Every node's address, strikes and eviction reason, in map order.
    pub fn status(&self) -> Vec<NodeStatus> {
        self.map
            .nodes
            .iter()
            .enumerate()
            .map(|(i, addr)| NodeStatus {
                addr: addr.clone(),
                strikes: self.strikes[i],
                evicted: self.evicted[i].clone(),
            })
            .collect()
    }

    /// Adopts `map`, reconciling per-node state by address (a surviving
    /// node keeps its connection, strikes and eviction across reindexing).
    pub fn install_map(&mut self, map: ShardMap) {
        let n = map.nodes.len();
        let mut conns: Vec<Option<NetClient>> = (0..n).map(|_| None).collect();
        let mut strikes = vec![0; n];
        let mut evicted = vec![None; n];
        for (new_i, addr) in map.nodes.iter().enumerate() {
            if let Some(old_i) = self.map.nodes.iter().position(|a| a == addr) {
                conns[new_i] = self.conns[old_i].take();
                strikes[new_i] = self.strikes[old_i];
                evicted[new_i] = self.evicted[old_i].take();
            }
        }
        self.map = map;
        self.conns = conns;
        self.strikes = strikes;
        self.evicted = evicted;
    }

    fn conn(&mut self, node: usize) -> &mut NetClient {
        if self.conns[node].is_none() {
            self.conns[node] = Some(NetClient::new(
                self.map.nodes[node].clone(),
                self.cfg.clone(),
            ));
        }
        self.conns[node].as_mut().unwrap()
    }

    /// Fetches the map from every reachable node and adopts the highest
    /// epoch seen. Errors only when no node answered.
    pub fn refresh_map(&mut self) -> Result<u64, NetError> {
        let mut best: Option<ShardMap> = None;
        let mut last_err = None;
        for node in 0..self.map.nodes.len() {
            if self.evicted[node].is_some() {
                continue;
            }
            match self.conn(node).fetch_map() {
                Ok(Some(m)) => {
                    if best.as_ref().is_none_or(|b| m.epoch > b.epoch) {
                        best = Some(m);
                    }
                }
                Ok(None) => {}
                Err(e) => last_err = Some(e),
            }
        }
        match best {
            Some(m) => {
                let epoch = m.epoch;
                if epoch > self.map.epoch {
                    self.install_map(m);
                }
                Ok(epoch)
            }
            None => Err(last_err.unwrap_or(NetError::NoQuorum { live: 0, need: 1 })),
        }
    }

    /// The routing shard of a request: its first key's. Multi-key requests
    /// must be pre-partitioned so all keys share a shard (debug-asserted);
    /// keyless control requests route [`NO_SHARD`].
    fn route(&self, request: &Request) -> u32 {
        let keys: &[Word] = match request {
            Request::ChainInsert { keys }
            | Request::OaInsert { keys }
            | Request::OaLookup { keys }
            | Request::BstInsert { keys } => keys,
            _ => &[],
        };
        let Some(&first) = keys.first() else {
            return NO_SHARD;
        };
        let shard = self.map.shard_of_key(first);
        debug_assert!(
            keys.iter().all(|&k| self.map.shard_of_key(k) == shard),
            "a routed request's keys must share one shard"
        );
        shard
    }

    /// A majority of `shard`'s replica group as the map assigns it. A
    /// keyless control request needs its one answer.
    fn quorum(&self, shard: u32) -> usize {
        if shard == NO_SHARD {
            1
        } else {
            self.map.replicas(shard).len() / 2 + 1
        }
    }

    /// The non-evicted members of `shard`'s group, in group order. A
    /// keyless request goes to the first live member of shard 0's group.
    fn live_group(&self, shard: u32) -> Vec<usize> {
        let group = self.map.replicas(if shard == NO_SHARD { 0 } else { shard });
        let live = group
            .iter()
            .map(|&n| n as usize)
            .filter(|&n| self.evicted[n].is_none());
        if shard == NO_SHARD {
            live.take(1).collect()
        } else {
            live.collect()
        }
    }

    /// Routes and executes a batch under the rules in the type docs.
    ///
    /// Each node receives one pipelined batch per attempt: every request
    /// whose live group contains it. The per-node exchanges run
    /// **concurrently** (one scoped worker per node, each owning that
    /// node's connection): sharding's whole throughput case is that
    /// independent nodes mutate in parallel, and a router that visited
    /// them one after another would serialize the cluster into one pipe.
    pub fn call_many(&mut self, requests: &[Request]) -> Vec<Result<Response, NetError>> {
        let mut out: Vec<Option<Result<Response, NetError>>> = vec![None; requests.len()];
        for attempt in 0..ROUTE_ATTEMPTS {
            // (request index, shard, live group) of every request to send.
            let mut routed: Vec<(usize, u32, Vec<usize>)> = Vec::new();
            for (i, request) in requests.iter().enumerate() {
                if out[i].is_some() {
                    continue;
                }
                let shard = self.route(request);
                let (group, need) = (self.live_group(shard), self.quorum(shard));
                if group.len() < need {
                    out[i] = Some(Err(NetError::NoQuorum {
                        live: group.len(),
                        need,
                    }));
                } else {
                    routed.push((i, shard, group));
                }
            }
            if routed.is_empty() {
                break;
            }
            let mut batches: Vec<(usize, Vec<usize>)> = Vec::new();
            for (r, (_, _, group)) in routed.iter().enumerate() {
                for &node in group {
                    match batches.iter_mut().find(|(n, _)| *n == node) {
                        Some((_, rs)) => rs.push(r),
                        None => batches.push((node, vec![r])),
                    }
                }
            }
            let tagged: Vec<(usize, Tagged)> = batches
                .iter()
                .map(|(node, rs)| {
                    let batch = rs
                        .iter()
                        .map(|&r| (requests[routed[r].0].clone(), routed[r].1))
                        .collect();
                    (*node, batch)
                })
                .collect();
            let exchanged = self.exchange(tagged);
            // Each routed request's answers, in group order.
            let mut answers: Vec<Vec<Option<Result<Response, NetError>>>> = routed
                .iter()
                .map(|(_, _, group)| vec![None; group.len()])
                .collect();
            for ((node, rs), results) in batches.iter().zip(exchanged) {
                self.note_exchange(*node, &results);
                for (&r, result) in rs.iter().zip(results) {
                    let slot = routed[r].2.iter().position(|m| m == node).expect("member");
                    answers[r][slot] = Some(result);
                }
            }
            let mut saw_stale = false;
            for ((i, shard, _), answers) in routed.iter().zip(answers) {
                let answers: Vec<Result<Response, NetError>> =
                    answers.into_iter().map(|a| a.expect("answered")).collect();
                if attempt + 1 < ROUTE_ATTEMPTS && answers.iter().all(is_stale_refusal) {
                    saw_stale = true; // nothing applied it: re-route
                } else {
                    out[*i] = Some(settle(answers, self.quorum(*shard)));
                }
            }
            if !saw_stale {
                break;
            }
            self.stale_epoch_retries += 1;
            let _ = self.refresh_map();
        }
        out.into_iter()
            .map(|o| o.expect("the last attempt settles every request"))
            .collect()
    }

    /// Runs one pipelined batch per node concurrently, under the current
    /// epoch, and returns each node's answers in batch order.
    fn exchange(&mut self, batches: Vec<(usize, Tagged)>) -> Vec<Vec<Result<Response, NetError>>> {
        let epoch = self.map.epoch;
        let mut workers: Vec<(usize, NetClient, Tagged)> = batches
            .into_iter()
            .map(|(node, batch)| {
                self.conn(node);
                let client = self.conns[node].take().expect("conn ensured");
                (node, client, batch)
            })
            .collect();
        let answers: Vec<Vec<Result<Response, NetError>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = workers
                .iter_mut()
                .map(|(_, client, batch)| {
                    scope.spawn(move || client.call_many_tagged(batch, epoch))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("cluster fan-out worker"))
                .collect()
        });
        for (node, client, _) in workers {
            self.conns[node] = Some(client);
        }
        answers
    }

    /// Strike bookkeeping for one exchange with `node`: a strike when every
    /// answer is a transport failure, a reset on any other answer.
    fn note_exchange(&mut self, node: usize, results: &[Result<Response, NetError>]) {
        let dead = !results.is_empty()
            && results.iter().all(|r| {
                matches!(
                    r,
                    Err(NetError::Io { .. }
                        | NetError::Frame(_)
                        | NetError::PeerRefused { .. }
                        | NetError::Deadline { .. })
                )
            });
        if !dead {
            self.strikes[node] = 0;
            return;
        }
        self.strikes[node] = self.strikes[node].saturating_add(1);
        if self.max_strikes > 0
            && self.strikes[node] >= self.max_strikes
            && self.evicted[node].is_none()
        {
            let last = results.last().and_then(|r| r.as_ref().err());
            self.evicted[node] = Some(EvictReason::Unresponsive {
                last: last.map(ToString::to_string).unwrap_or_default(),
            });
        }
    }

    /// One request to one node under the current epoch, tagged `shard`.
    fn ask(&mut self, node: usize, request: Request, shard: u32) -> Result<Response, NetError> {
        let epoch = self.map.epoch;
        let answer = self.conn(node).call_many_tagged(&[(request, shard)], epoch);
        self.note_exchange(node, &answer);
        answer.into_iter().next().expect("one request, one answer")
    }

    /// `node`'s `(digest, count)` of `class` restricted to `shard`.
    fn shard_digest(
        &mut self,
        node: usize,
        class: WorkloadClass,
        shard: u32,
    ) -> Result<(u64, u64), NetError> {
        let query = Request::ShardDigest {
            class,
            shards: self.map.shards,
            shard,
        };
        match self.ask(node, query, NO_SHARD)? {
            Response::ClassDigest { digest, count } => Ok((digest, count)),
            other => Err(unexpected(&other)),
        }
    }

    /// `node`'s sorted keys of `class` in `shard`.
    fn shard_keys(
        &mut self,
        node: usize,
        class: WorkloadClass,
        shard: u32,
    ) -> Result<Vec<Word>, NetError> {
        let query = Request::ShardKeys {
            class,
            shards: self.map.shards,
            shard,
        };
        match self.ask(node, query, NO_SHARD)? {
            Response::Keys { keys } => Ok(keys),
            other => Err(unexpected(&other)),
        }
    }

    /// Shard-scoped digest voting: asks every live member of `shard`'s
    /// group for the class digest restricted to that shard. The answer a
    /// majority of the group agrees on wins, and each member that answered
    /// otherwise is evicted [`EvictReason::DigestMinority`] with both
    /// digests recorded — quarantining that group's divergent replica
    /// without touching any other group. On a one-shard map this votes on
    /// the whole class. Errors `NoQuorum` when no answer reaches a majority.
    pub fn vote_shard_digest(
        &mut self,
        class: WorkloadClass,
        shard: u32,
    ) -> Result<(u64, u64), NetError> {
        let need = self.quorum(shard);
        let mut votes: Vec<(usize, (u64, u64))> = Vec::new();
        for node in self.live_group(shard) {
            if let Ok(v) = self.shard_digest(node, class, shard) {
                votes.push((node, v));
            }
        }
        let (majority, agree) = votes
            .iter()
            .map(|(_, v)| (*v, votes.iter().filter(|(_, w)| w == v).count()))
            .max_by_key(|(_, n)| *n)
            .unwrap_or_default();
        if agree < need {
            return Err(NetError::NoQuorum { live: agree, need });
        }
        for (node, got) in votes {
            if got != majority {
                self.evicted[node] = Some(EvictReason::DigestMinority { got, majority });
            }
        }
        Ok(majority)
    }

    /// Readmits an evicted node after a digest-verified catch-up (a no-op
    /// for a node that is not evicted).
    ///
    /// 1. **Preparation.** A health probe; a node serving an older map
    ///    epoch, or none (it restarted), is re-handed the client's map.
    /// 2. **Catch-up.** For each shard the node replicates and each class,
    ///    its keys are compared with a live group member's (the donor).
    ///    Keys the donor lacks refuse ([`RejoinError::Ahead`]). Missing
    ///    keys are shipped as one insert to an
    ///    [`EvictReason::Unresponsive`] node and refuse a
    ///    [`EvictReason::DigestMinority`] one ([`RejoinError::Diverged`]).
    /// 3. **Readmission.** Only when every shard's class digests then
    ///    equal the donor's.
    ///
    /// The rebalance handoff is not reused: extraction needs the donor's
    /// shard frozen, and an installed image carries the donor's dedupe
    /// records, whose sequence numbers name other requests here.
    pub fn rejoin(&mut self, addr: &str) -> Result<(), RejoinError> {
        let node = self
            .map
            .nodes
            .iter()
            .position(|a| a == addr)
            .ok_or(RejoinError::NotMember)?;
        let Some(reason) = self.evicted[node].clone() else {
            return Ok(());
        };
        let served = self
            .conn(node)
            .health()?
            .into_iter()
            .find(|(k, _)| k == "shard_epoch")
            .map_or(0, |(_, v)| v);
        if served < self.map.epoch {
            let map = self.map.clone();
            self.conn(node).install_map(&map, node as u32)?;
        }
        for shard in self.map.shards_of_node(node) {
            let donor = self
                .map
                .replicas(shard)
                .iter()
                .map(|&n| n as usize)
                .find(|&n| n != node && self.evicted[n].is_none())
                .ok_or(RejoinError::NoDonor { shard })?;
            for class in CLASSES {
                let want = self.shard_keys(donor, class, shard)?;
                let have = self.shard_keys(node, class, shard)?;
                let (missing, extra) = multiset_diff(&want, &have);
                if extra > 0 {
                    return Err(RejoinError::Ahead {
                        shard,
                        class,
                        extra,
                    });
                }
                if !missing.is_empty() {
                    if let EvictReason::DigestMinority { .. } = reason {
                        return Err(RejoinError::Diverged {
                            shard,
                            class,
                            missing: missing.len(),
                        });
                    }
                    let insert = match class {
                        WorkloadClass::Chain => Request::ChainInsert { keys: missing },
                        WorkloadClass::OpenAddr => Request::OaInsert { keys: missing },
                        WorkloadClass::Bst => Request::BstInsert { keys: missing },
                    };
                    self.ask(node, insert, shard)?;
                }
                let want = self.shard_digest(donor, class, shard)?;
                let got = self.shard_digest(node, class, shard)?;
                if want != got {
                    return Err(RejoinError::DigestMismatch {
                        shard,
                        class,
                        donor: want,
                        node: got,
                    });
                }
            }
        }
        self.evicted[node] = None;
        self.strikes[node] = 0;
        Ok(())
    }
}

/// True for a typed refusal that proves the server applied nothing: the
/// map was wrong, not the wire.
fn is_stale_refusal(r: &Result<Response, NetError>) -> bool {
    matches!(
        r,
        Err(NetError::Serve(
            ServeError::WrongEpoch { .. } | ServeError::NotOwner { .. }
        ))
    )
}

/// One request's outcome from its group's answers (in group order): the
/// first `Ok` once `quorum` answered `Ok`; else an error `quorum` members
/// returned identically; else `NoQuorum`.
fn settle(answers: Vec<Result<Response, NetError>>, quorum: usize) -> Result<Response, NetError> {
    let oks = answers.iter().filter(|a| a.is_ok()).count();
    if oks >= quorum {
        return answers
            .into_iter()
            .find(|a| a.is_ok())
            .expect("a quorum of oks");
    }
    let agreed = answers
        .iter()
        .find(|a| a.is_err() && answers.iter().filter(|b| b == a).count() >= quorum);
    match agreed {
        Some(e) => e.clone(),
        None => Err(NetError::NoQuorum {
            live: oks,
            need: quorum,
        }),
    }
}

fn unexpected(got: &Response) -> NetError {
    NetError::Frame(PersistError::Malformed {
        what: format!("shard query answered with {got:?}"),
    })
}

/// Sorted-multiset difference: keys in `donor` but not `mine` (with
/// multiplicity), plus the count of keys `mine` holds beyond `donor`.
fn multiset_diff(donor: &[Word], mine: &[Word]) -> (Vec<Word>, usize) {
    let (mut missing, mut extra) = (Vec::new(), 0);
    let mut mine = mine.iter().peekable();
    for k in donor {
        while mine.next_if(|&m| m < k).is_some() {
            extra += 1;
        }
        if mine.next_if_eq(&k).is_none() {
            missing.push(*k);
        }
    }
    (missing, extra + mine.count())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("10.0.0.{i}:9000")).collect()
    }

    #[test]
    fn maps_round_trip_and_rederive_the_same_assignment() {
        let m = ShardMap::build(addrs(5), 64, 64, 2);
        let back = ShardMap::decode(&m.encode()).expect("decode");
        assert_eq!(back, m);
        for s in 0..m.shards {
            assert_eq!(m.replicas(s).len(), 2);
            let g = m.replicas(s);
            assert_ne!(g[0], g[1], "replica groups hold distinct nodes");
        }
    }

    #[test]
    fn membership_changes_bump_the_epoch_and_move_few_shards() {
        let m = ShardMap::build(addrs(4), 128, 64, 1);
        let grown = m.with_node_added("10.0.0.9:9000");
        assert_eq!(grown.epoch, m.epoch + 1);
        let moved = m.moved_shards(&grown);
        // Every moved shard lands on the joiner; none shuffle between
        // survivors (the minimal-movement property).
        assert!(!moved.is_empty());
        for (_, _, to) in &moved {
            assert_eq!(to, "10.0.0.9:9000");
        }
        let shrunk = grown.without_node("10.0.0.9:9000");
        assert_eq!(shrunk.epoch, grown.epoch + 1);
        // Shrinking back restores exactly the original owners.
        let back_moved: Vec<_> = m
            .moved_shards(&shrunk)
            .into_iter()
            .filter(|(_, from, to)| from != to)
            .collect();
        assert!(back_moved.is_empty(), "{back_moved:?}");
    }

    #[test]
    fn decode_refuses_garbage_typed() {
        assert!(ShardMap::decode(&[]).is_err());
        let mut e = Enc::new();
        e.u64(1);
        e.u32(0); // zero shards
        e.u32(8);
        e.u32(1);
        e.u32(1);
        e.str("a");
        assert!(matches!(
            ShardMap::decode(&e.into_bytes()),
            Err(PersistError::Malformed { .. })
        ));
    }
}
