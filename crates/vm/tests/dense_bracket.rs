//! Model test of the transaction bracket's per-address state: the write
//! journal and the ELS auditor keep it in dense address-indexed arrays that
//! one machine hands from transaction to transaction, so state left over
//! from an earlier transaction (or an earlier audited round) must never
//! leak into a later answer.
//!
//! One machine runs seeded scatters, masked scatters and scalar stores over
//! tracked and untracked regions, transaction after transaction, committing
//! and aborting in turn and allocating a region part-way. After every
//! transaction the journal, memory, the committed image, the digests and
//! the auditor's verdicts and counters are held to ordered-map models.

use fol_vm::integrity::{block_digests, digest_words, IntegrityError};
use fol_vm::{Addr, CostModel, Machine, Mask, Region, VReg, Word, WriteJournal};
use std::collections::BTreeMap;

/// SplitMix64 — deterministic case generator.
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % bound
    }

    fn word(&mut self) -> Word {
        self.below(9) as Word - 4
    }
}

/// What one open transaction's journal must answer.
#[derive(Default)]
struct JournalModel {
    first_writes: Vec<Addr>,
    pre: BTreeMap<Addr, Word>,
    last: BTreeMap<Addr, Word>,
    writes: u64,
}

/// The auditor's contract: per noted address, the labels of the latest
/// audited round that noted it, consumed by the first gather that reads it.
#[derive(Default)]
struct AuditModel {
    noted: BTreeMap<Addr, (u64, Vec<Word>)>,
    rounds: u64,
    checked: u64,
    violations: u64,
}

impl AuditModel {
    fn note(&mut self, lanes: &[(Addr, Word)]) {
        self.rounds += 1;
        for &(a, v) in lanes {
            let e = self.noted.entry(a).or_insert((self.rounds, Vec::new()));
            if e.0 != self.rounds {
                *e = (self.rounds, Vec::new());
            }
            e.1.push(v);
        }
    }

    fn check(&mut self, region: &str, lanes: &[(Addr, Word)]) -> Result<(), IntegrityError> {
        let mut first = None;
        for (lane, &(addr, got)) in lanes.iter().enumerate() {
            let Some((_, scattered)) = self.noted.remove(&addr) else {
                continue;
            };
            self.checked += 1;
            if !scattered.contains(&got) {
                self.violations += 1;
                first.get_or_insert(IntegrityError::GatherMismatch {
                    region: region.to_string(),
                    addr,
                    lane,
                    got,
                    scattered,
                });
            }
        }
        first.map_or(Ok(()), Err)
    }
}

/// The machine and its models, side by side.
struct Run {
    m: Machine,
    rng: Rng,
    /// `(region, tracked)`, in allocation order.
    regions: Vec<(Region, bool)>,
    mem: BTreeMap<Addr, Word>,
    image: BTreeMap<Addr, Word>,
    journal: JournalModel,
    audit: AuditModel,
}

impl Run {
    fn new(seed: u64) -> Self {
        let mut run = Run {
            m: Machine::new(CostModel::unit()),
            rng: Rng(seed),
            regions: Vec::new(),
            mem: BTreeMap::new(),
            image: BTreeMap::new(),
            journal: JournalModel::default(),
            audit: AuditModel::default(),
        };
        run.m.set_els_audit(true);
        run.alloc(300, "tracked.a", true);
        run.alloc(90, "untracked", false);
        run.alloc(45, "tracked.b", true);
        run
    }

    fn alloc(&mut self, len: usize, name: &str, tracked: bool) {
        let r = self.m.alloc(len, name);
        for a in r.base()..r.base() + len {
            self.mem.insert(a, 0);
            if tracked {
                self.image.insert(a, 0);
            }
        }
        if tracked {
            self.m.track_region(r);
        }
        self.regions.push((r, tracked));
    }

    /// One intercepted store, as the model sees it.
    fn model_store(&mut self, addr: Addr, w: Word) {
        let j = &mut self.journal;
        j.writes += 1;
        if !j.pre.contains_key(&addr) {
            j.first_writes.push(addr);
            j.pre.insert(addr, self.mem[&addr]);
        }
        j.last.insert(addr, w);
        self.mem.insert(addr, w);
    }

    fn pick_region(&mut self) -> Region {
        let i = self.rng.below(self.regions.len() as u64) as usize;
        self.regions[i].0
    }

    /// `(addr, word)` lanes into `region`, with repeats.
    fn lanes(&mut self, region: Region) -> (Vec<Word>, Vec<Word>) {
        let n = 1 + self.rng.below(40) as usize;
        // Draw from a narrow window so lanes collide.
        let span = 1 + self.rng.below(region.len() as u64);
        let lo = self.rng.below(region.len() as u64 - span + 1);
        let idx: Vec<Word> = (0..n)
            .map(|_| (lo + self.rng.below(span)) as Word)
            .collect();
        let vals: Vec<Word> = (0..n).map(|_| self.rng.word()).collect();
        (idx, vals)
    }

    /// A last-wins scatter of the live lanes: walking them backwards, the
    /// first lane met at an address is the one stored.
    fn model_scatter(&mut self, region: Region, idx: &[Word], vals: &[Word], live: &[bool]) {
        let mut seen = std::collections::BTreeSet::new();
        for p in (0..idx.len()).rev() {
            let addr = region.base() + idx[p] as usize;
            if live[p] && seen.insert(addr) {
                self.model_store(addr, vals[p]);
            }
        }
    }

    fn audit_note(&mut self, region: Region, idx: &[Word], vals: &[Word]) {
        let lanes: Vec<(Addr, Word)> = idx
            .iter()
            .zip(vals)
            .map(|(&i, &v)| (region.base() + i as usize, v))
            .collect();
        self.audit.note(&lanes);
        self.m
            .audit_note_scatter(region, &VReg::from_slice(idx), &VReg::from_slice(vals));
    }

    /// A gather check of `region` at `idx`, reading back what memory holds
    /// or, on a coin, a phantom value.
    fn audit_check(&mut self, region: Region, idx: &[Word]) {
        let got: Vec<Word> = idx
            .iter()
            .map(|&i| {
                let held = self.mem[&(region.base() + i as usize)];
                if self.rng.below(5) == 0 {
                    held + 100
                } else {
                    held
                }
            })
            .collect();
        let lanes: Vec<(Addr, Word)> = idx
            .iter()
            .zip(&got)
            .map(|(&i, &g)| (region.base() + i as usize, g))
            .collect();
        let name = self
            .m
            .mem()
            .name_of(region)
            .unwrap_or("(untitled)")
            .to_string();
        let want = self.audit.check(&name, &lanes);
        let got = self
            .m
            .audit_check_gather(region, &VReg::from_slice(idx), &VReg::from_vec(got));
        assert_eq!(got, want);
    }

    fn step(&mut self) {
        let region = self.pick_region();
        match self.rng.below(6) {
            0 | 1 => {
                let (idx, vals) = self.lanes(region);
                if self.rng.below(2) == 0 {
                    self.audit_note(region, &idx, &vals);
                }
                self.model_scatter(region, &idx, &vals, &vec![true; idx.len()]);
                self.m
                    .scatter(region, &VReg::from_slice(&idx), &VReg::from_slice(&vals));
            }
            2 => {
                let (idx, vals) = self.lanes(region);
                let live: Vec<bool> = idx.iter().map(|_| self.rng.below(3) > 0).collect();
                self.model_scatter(region, &idx, &vals, &live);
                self.m.scatter_masked(
                    region,
                    &VReg::from_slice(&idx),
                    &VReg::from_slice(&vals),
                    &Mask::from_slice(&live),
                );
            }
            3 => {
                let addr = region.at(self.rng.below(region.len() as u64) as usize);
                let w = self.rng.word();
                self.model_store(addr, w);
                self.m.s_write(addr, w);
            }
            4 => {
                let (idx, _) = self.lanes(region);
                self.audit_check(region, &idx);
            }
            _ => {
                // Notes a round it never checks: those heads stay live and
                // their labels pile up until the arena compacts.
                let (idx, vals) = self.lanes(region);
                self.audit_note(region, &idx, &vals);
            }
        }
        assert_eq!(self.m.els_auditor().unwrap().checked(), self.audit.checked);
        assert_eq!(
            self.m.els_auditor().unwrap().violations(),
            self.audit.violations
        );
        assert_eq!(
            self.m.els_auditor().unwrap().rounds_audited(),
            self.audit.rounds
        );
    }

    /// Every answer of `j` against the open transaction's model.
    fn check_journal(&self, j: &WriteJournal, what: &str) {
        let model = &self.journal;
        assert_eq!(
            j.addrs().collect::<Vec<_>>(),
            model.first_writes,
            "{what}: order"
        );
        assert_eq!(j.len(), model.first_writes.len(), "{what}: len");
        assert_eq!(j.is_empty(), model.first_writes.is_empty(), "{what}");
        assert_eq!(j.writes(), model.writes, "{what}: writes");
        let stored: Vec<(Addr, Word)> = model
            .first_writes
            .iter()
            .map(|a| (*a, model.last[a]))
            .collect();
        assert_eq!(
            j.entries_stored().collect::<Vec<_>>(),
            stored,
            "{what}: last words"
        );
        let mut rev: Vec<(Addr, Word)> = model
            .first_writes
            .iter()
            .map(|a| (*a, model.pre[a]))
            .collect();
        rev.reverse();
        assert_eq!(
            j.entries_rev().collect::<Vec<_>>(),
            rev,
            "{what}: undo order"
        );
        for &a in self.mem.keys() {
            assert_eq!(
                j.pre_image(a),
                model.pre.get(&a).copied(),
                "{what}: pre-image of {a}"
            );
        }
        assert_eq!(
            j.pre_image(self.m.mem().size() + 7),
            None,
            "{what}: past memory"
        );
    }

    /// Memory, the committed image and the digests against the models.
    fn check_state(&self, what: &str) {
        for &(r, tracked) in &self.regions {
            let words: Vec<Word> = (r.base()..r.base() + r.len())
                .map(|a| self.mem[&a])
                .collect();
            assert_eq!(
                self.m.mem().read_region(r),
                words,
                "{what}: memory of {r:?}"
            );
            if !tracked {
                assert_eq!(self.m.checksum_of(r), None);
                continue;
            }
            let image: Vec<Word> = (r.base()..r.base() + r.len())
                .map(|a| self.image[&a])
                .collect();
            assert_eq!(
                self.m.committed_words(r),
                Some(&image[..]),
                "{what}: image of {r:?}"
            );
            assert_eq!(
                self.m.checksum_of(r),
                Some(digest_words(r.base(), &words)),
                "{what}"
            );
            assert_eq!(
                self.m.block_digests(r),
                Some(&block_digests(r.base(), &words)[..]),
                "{what}: block digests of {r:?}"
            );
        }
        assert_eq!(self.m.scrub(), Ok(()), "{what}");
    }

    fn transaction(&mut self, t: usize) {
        self.m.begin_txn().unwrap();
        for _ in 0..1 + self.rng.below(8) {
            self.step();
        }
        let what = format!("transaction {t}");
        self.check_journal(self.m.txn_journal().expect("open"), &what);
        let commit = t.is_multiple_of(2);
        let closed = if commit {
            self.m.commit_txn().unwrap()
        } else {
            self.m.abort_txn().unwrap()
        };
        self.check_journal(&closed, &format!("{what}, closed"));
        let journal = std::mem::take(&mut self.journal);
        for (a, w) in journal.last {
            if commit {
                if self.image.contains_key(&a) {
                    self.image.insert(a, w);
                }
            } else {
                self.mem.insert(a, journal.pre[&a]);
            }
        }
        self.check_state(&what);
    }

    /// A scalar store between transactions: the image takes it at once.
    fn store_outside(&mut self) {
        let region = self.pick_region();
        let addr = region.at(self.rng.below(region.len() as u64) as usize);
        let w = self.rng.word();
        self.mem.insert(addr, w);
        if self.image.contains_key(&addr) {
            self.image.insert(addr, w);
        }
        self.m.s_write(addr, w);
        self.journal = JournalModel::default();
    }
}

fn run(seed: u64, transactions: usize) -> Run {
    let mut run = Run::new(seed);
    for t in 0..transactions {
        if t == transactions / 3 {
            // A region above every address the slot arrays have seen.
            run.alloc(130, "tracked.late", true);
        }
        if t % 7 == 3 {
            run.store_outside();
        }
        run.transaction(t);
    }
    run
}

#[test]
fn the_dense_journal_and_auditor_match_ordered_map_models() {
    for seed in 1..=6 {
        let run = run(seed, 60);
        assert!(
            run.audit.checked > 0 && run.audit.violations > 0,
            "seed {seed}"
        );
    }
}

#[test]
fn a_long_run_compacts_the_audit_arena_and_still_judges_exactly() {
    // About 20 labels per note and a live head that is never checked: well
    // over twice the arena's compaction threshold of 4096 labels, so the
    // arena compacts more than once with live heads of several rounds.
    let run = run(99, 1500);
    assert!(run.audit.rounds > 1000, "{}", run.audit.rounds);
    assert!(!run.audit.noted.is_empty());
}
