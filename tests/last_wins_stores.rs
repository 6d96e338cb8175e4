//! The last-wins store path against the canonical resolver.
//!
//! With no fault plan and the last-wins policy, a scatter (and always a
//! `scatter_ordered`) over journaled or tracked memory needs no resolver: it
//! stores the last surviving lane at each address, found by walking the
//! lanes backwards, with the tracked region resolved once per op. A
//! machine with a fault plan installed takes the canonical path instead:
//! winners resolved first, each stored once. `FaultPlan::benign` has every
//! rate at zero, so its twin injects nothing and the two must end every op
//! identical: memory, region and block digests, the journal's pre-images
//! and last words, the footprint scrub's verdict, and after a commit the
//! committed image (after an abort, the pre-transaction memory).

use fol_core::recover::RetryPolicy;
use fol_hash::chaining::{self, ChainTable};
use fol_vm::{CostModel, FaultPlan, Machine, Mask, Region, Snapshot, VReg, Word};
use std::collections::BTreeSet;

/// Deterministic coin source (xorshift64*).
struct Coins(u64);

impl Coins {
    fn next(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
    }
}

/// Two machines built alike: `fast` with no fault plan, `canon` with a
/// benign one.
struct Twins {
    fast: Machine,
    canon: Machine,
    /// Op targets: a tracked region, a slice of it, a tracked region with
    /// a tracked sub-region inside (every word there is in two tracked
    /// regions or beside one), and an untracked region.
    targets: Vec<Region>,
    tracked: Vec<Region>,
}

impl Twins {
    fn new(seed: u64) -> Self {
        let build = |plan: Option<FaultPlan>| {
            let mut m = Machine::new(CostModel::unit());
            m.set_fault_plan(plan);
            let solo = m.alloc(300, "solo");
            let nested = m.alloc(100, "nested");
            let loose = m.alloc(64, "loose");
            for (i, r) in [solo, nested, loose].into_iter().enumerate() {
                let words: Vec<Word> = (0..r.len() as Word).map(|w| w * 7 + i as Word).collect();
                m.mem_mut().write_region(r, &words);
            }
            let inner = nested.try_slice(20, 40).unwrap();
            m.track_region(solo);
            m.track_region(nested);
            m.track_region(inner);
            let targets = vec![solo, solo.try_slice(64, 100).unwrap(), nested, inner, loose];
            (m, targets, vec![solo, nested, inner])
        };
        let (fast, targets, tracked) = build(None);
        let (canon, _, _) = build(Some(FaultPlan::benign(seed)));
        Twins {
            fast,
            canon,
            targets,
            tracked,
        }
    }

    fn both(&mut self, f: impl Fn(&mut Machine)) {
        f(&mut self.fast);
        f(&mut self.canon);
    }

    fn assert_equal(&self, what: &str) {
        let (a, b) = (&self.fast, &self.canon);
        assert_eq!(a.mem().words(), b.mem().words(), "{what}: memory");
        for &r in &self.tracked {
            assert_eq!(
                a.checksum_of(r),
                b.checksum_of(r),
                "{what}: digest of {r:?}"
            );
            assert_eq!(
                a.block_digests(r),
                b.block_digests(r),
                "{what}: blocks of {r:?}"
            );
        }
        match (a.txn_journal(), b.txn_journal()) {
            (Some(ja), Some(jb)) => {
                let pre = |j: &fol_vm::WriteJournal| -> BTreeSet<(usize, Word)> {
                    j.addrs().map(|x| (x, j.pre_image(x).unwrap())).collect()
                };
                let last = |j: &fol_vm::WriteJournal| -> BTreeSet<(usize, Word)> {
                    j.entries_stored().collect()
                };
                assert_eq!(pre(ja), pre(jb), "{what}: journal pre-images");
                assert_eq!(last(ja), last(jb), "{what}: journal last words");
            }
            (None, None) => {}
            _ => panic!("{what}: one twin is in a transaction"),
        }
        assert_eq!(
            a.scrub_footprint(),
            b.scrub_footprint(),
            "{what}: footprint scrub"
        );
    }

    fn assert_committed_equal(&self, what: &str) {
        for &r in &self.tracked {
            assert_eq!(
                self.fast.committed_words(r),
                self.canon.committed_words(r),
                "{what}: committed image of {r:?}"
            );
        }
    }
}

/// A random scatter: `n` lanes over at most `n / mult` distinct targets,
/// so an index repeats up to `mult` times.
fn random_op(c: &mut Coins, len: usize) -> (VReg, VReg, Mask) {
    let n = 1 + c.next(64) as usize;
    let mult = 1 + c.next(16) as usize;
    let pool: Vec<Word> = (0..n.div_ceil(mult).min(len))
        .map(|_| c.next(len as u64) as Word)
        .collect();
    let idx: VReg = (0..n)
        .map(|_| pool[c.next(pool.len() as u64) as usize])
        .collect();
    let val: VReg = (0..n)
        .map(|_| c.next(1 << 20) as Word - (1 << 19))
        .collect();
    let mask: Mask = (0..n).map(|_| c.next(4) != 0).collect();
    (idx, val, mask)
}

fn run_ops(t: &mut Twins, c: &mut Coins, ops: usize, tag: &str) {
    for k in 0..ops {
        let target = t.targets[c.next(t.targets.len() as u64) as usize];
        let (idx, val, mask) = random_op(c, target.len());
        let kind = c.next(3);
        t.both(|m| match kind {
            0 => m.scatter(target, &idx, &val),
            1 => m.scatter_masked(target, &idx, &val, &mask),
            _ => m.scatter_ordered(target, &idx, &val),
        });
        t.assert_equal(&format!("{tag} op {k} (kind {kind}, {target:?})"));
    }
}

#[test]
fn last_wins_stores_end_where_the_canonical_resolver_ends() {
    for seed in 1..=12u64 {
        let mut t = Twins::new(seed);
        let mut c = Coins(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        for round in 0..12 {
            let tag = format!("seed {seed} round {round}");
            match c.next(3) {
                0 => run_ops(&mut t, &mut c, 8, &format!("{tag} outside")),
                choice => {
                    let all: Vec<Region> = t.targets.clone();
                    let before = Snapshot::capture(t.fast.mem(), &all);
                    t.both(|m| m.begin_txn().unwrap());
                    run_ops(&mut t, &mut c, 8, &format!("{tag} in txn"));
                    if choice == 1 {
                        t.both(|m| {
                            m.commit_txn().unwrap();
                        });
                        t.assert_equal(&format!("{tag} committed"));
                        t.assert_committed_equal(&format!("{tag} committed"));
                    } else {
                        t.both(|m| {
                            m.abort_txn().unwrap();
                        });
                        t.assert_equal(&format!("{tag} aborted"));
                        assert!(before.matches(t.fast.mem()), "{tag}: abort restores");
                        assert!(before.matches(t.canon.mem()), "{tag}: abort restores");
                    }
                }
            }
            t.assert_committed_equal(&format!("{tag} between transactions"));
            assert!(t.fast.scrub().is_ok() && t.canon.scrub().is_ok(), "{tag}");
        }
    }
}

#[test]
fn chain_transactions_agree_end_to_end() {
    let policy = RetryPolicy::default();
    for seed in 1..=4u64 {
        let mut runs = Vec::new();
        for plan in [None, Some(FaultPlan::benign(seed))] {
            let mut m = Machine::new(CostModel::unit());
            m.set_fault_plan(plan);
            let mut table = ChainTable::alloc(&mut m, 64, 4096);
            let mut c = Coins(seed | 1);
            let mut trail = Vec::new();
            for _ in 0..8 {
                // Zipf-ish keys: many collide on a few hot buckets.
                let groups: Vec<Vec<Word>> = (0..8)
                    .map(|_| (0..8).map(|_| (c.next(40) * c.next(40)) as Word).collect())
                    .collect();
                let outs = chaining::txn_insert_groups(&mut m, &mut table, &groups, &policy);
                trail.push(format!("{outs:?}"));
                let keys: Vec<Word> = (0..32).map(|_| c.next(5000) as Word).collect();
                let (rounds, report) =
                    chaining::txn_insert_all(&mut m, &mut table, &keys, &policy).unwrap();
                trail.push(format!(
                    "{rounds} {} {:?}",
                    report.attempts, report.final_mode
                ));
            }
            runs.push((m.content_digest(), trail, chaining::all_keys(&m, &table)));
        }
        assert_eq!(runs[0], runs[1], "seed {seed}");
    }
}
