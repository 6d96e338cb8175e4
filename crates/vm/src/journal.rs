//! Write journaling and byte-exact snapshots — the machine's transaction
//! substrate.
//!
//! The fault layer ([`crate::fault`]) makes ELS violations *observable*; this
//! module makes them *recoverable*. While a transaction is open
//! ([`crate::Machine::begin_txn`]), every instruction-level store is
//! intercepted and the **pre-image** of the touched address is recorded on
//! first write (later writes to the same address keep the original
//! pre-image). [`crate::Machine::abort_txn`] replays the pre-images,
//! restoring memory byte-exact to its state at `begin_txn`;
//! [`crate::Machine::commit_txn`] discards them after folding each address's
//! last stored word into the machine's committed image.
//!
//! The journal is a *logical undo log of first writes*, the privatize-then-
//! reconcile structure of restartable parallel updates: the cost of an
//! aborted round is proportional to the storage that round touched, not to
//! the whole memory. [`Snapshot`] complements it as an independent oracle —
//! tests capture a snapshot before a transaction and assert the rollback
//! really was byte-exact.

use crate::memory::{Addr, Memory, Region};
use crate::vreg::Word;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-shift hasher for journal addresses. `note` runs on *every*
/// intercepted store, so SipHash's per-lookup cost is the journal's single
/// hottest line; addresses are small dense integers for which a Fibonacci
/// multiply is both collision-safe enough and several times cheaper.
#[derive(Default)]
pub(crate) struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic path (unused by usize keys, kept for completeness).
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_usize(&mut self, i: usize) {
        let x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = x ^ (x >> 29);
    }

    fn write_u64(&mut self, i: u64) {
        self.write_usize(i as usize);
    }
}

pub(crate) type AddrMap<V> = HashMap<Addr, V, BuildHasherDefault<AddrHasher>>;

/// A byte-exact copy of chosen regions, for before/after comparison.
///
/// Unlike [`WriteJournal`] (which records only what was written, as it is
/// written), a snapshot copies whole regions up front — an independent
/// ground truth the journal's rollback can be audited against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    regions: Vec<(Region, Vec<Word>)>,
}

impl Snapshot {
    /// Captures the current contents of `regions` (zero-length regions are
    /// allowed and compare trivially equal).
    pub fn capture(mem: &Memory, regions: &[Region]) -> Self {
        Self {
            regions: regions.iter().map(|&r| (r, mem.read_region(r))).collect(),
        }
    }

    /// True when every captured region currently holds exactly the captured
    /// contents.
    pub fn matches(&self, mem: &Memory) -> bool {
        self.regions
            .iter()
            .all(|(r, saved)| &mem.read_region(*r) == saved)
    }

    /// Addresses whose current contents differ from the capture, in address
    /// order — the forensic view of a torn or unrolled-back round.
    pub fn diff(&self, mem: &Memory) -> Vec<Addr> {
        let mut out = Vec::new();
        for (r, saved) in &self.regions {
            let now = mem.read_region(*r);
            for (i, (a, b)) in saved.iter().zip(&now).enumerate() {
                if a != b {
                    out.push(r.base() + i);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Writes the captured contents back into `mem` — the repair step for
    /// corruption that bypassed the journal (bit-rot strikes memory behind
    /// the store path, so a rollback alone cannot heal it). The caller owns
    /// resynchronizing any incremental checksums afterwards
    /// ([`crate::Machine::resync_integrity`]).
    pub fn restore(&self, mem: &mut Memory) {
        for (r, saved) in &self.regions {
            mem.write_region(*r, saved);
        }
    }

    /// The captured `(region, contents)` pairs, in capture order — the raw
    /// material the durability layer serializes into a checkpoint.
    pub fn parts(&self) -> &[(Region, Vec<Word>)] {
        &self.regions
    }

    /// Rebuilds a snapshot from serialized parts ([`Snapshot::parts`] is the
    /// inverse). Used by checkpoint loading: the deserialized snapshot is
    /// [`Snapshot::restore`]d into a machine rebuilt with the identical
    /// allocation sequence.
    pub fn from_parts(regions: Vec<(Region, Vec<Word>)>) -> Self {
        Self { regions }
    }

    /// Number of captured regions.
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    /// Total words captured.
    pub fn words(&self) -> usize {
        self.regions.iter().map(|(_, s)| s.len()).sum()
    }
}

/// First-write undo log of one open transaction.
///
/// Records, for every address stored to while the transaction is open, the
/// word that was there *before the first store* — everything needed to
/// restore memory byte-exact — and the word the *last* store wrote, which
/// is what a commit folds into the machine's committed image.
#[derive(Clone, Debug, Default)]
pub struct WriteJournal {
    /// `(pre-image, last stored word)` per touched address (the pre-image
    /// is the first write's).
    pre: AddrMap<(Word, Word)>,
    /// Touched addresses in first-write order, for deterministic iteration.
    order: Vec<Addr>,
    /// Total intercepted stores, including repeats to journaled addresses.
    writes: u64,
}

impl WriteJournal {
    /// An empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the pre-image of `addr` if this is its first write, and
    /// `stored` as its latest word; true on the first write. Called by the
    /// machine on every intercepted store.
    pub(crate) fn note(&mut self, addr: Addr, pre_image: Word, stored: Word) -> bool {
        use std::collections::hash_map::Entry;
        self.writes += 1;
        match self.pre.entry(addr) {
            Entry::Vacant(e) => {
                e.insert((pre_image, stored));
                self.order.push(addr);
                true
            }
            Entry::Occupied(mut e) => {
                e.get_mut().1 = stored;
                false
            }
        }
    }

    /// Restores every journaled pre-image into `mem` (idempotent: the
    /// journal keeps its entries, so a second rollback rewrites the same
    /// pre-images).
    pub(crate) fn rollback(&self, mem: &mut Memory) {
        // Reverse first-write order: cosmetic for a first-write log (each
        // address appears once), but the conventional direction for an undo
        // log.
        for &addr in self.order.iter().rev() {
            mem.write(addr, self.pre[&addr].0);
        }
    }

    /// The journaled `(addr, pre-image)` pairs in reverse first-write order
    /// — the order the journal's own rollback replays them. Exposed so the
    /// machine can roll back through its checksum-maintaining store path
    /// instead of writing behind the integrity layer's back.
    pub fn entries_rev(&self) -> impl Iterator<Item = (Addr, Word)> + '_ {
        self.order.iter().rev().map(move |&a| (a, self.pre[&a].0))
    }

    /// The journaled `(addr, last stored word)` pairs, in no particular
    /// order — what [`crate::Machine::commit_txn`] copies into the committed
    /// image. The stored word, not memory, is the source: rot that struck a
    /// journaled word after its store never reaches the image.
    pub fn entries_stored(&self) -> impl Iterator<Item = (Addr, Word)> + '_ {
        self.pre.iter().map(|(&a, &(_, stored))| (a, stored))
    }

    /// Number of distinct addresses journaled.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when no store has been intercepted.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Total intercepted stores (repeats included) — the write amplification
    /// the journal absorbed.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// The journaled pre-image of `addr`, if it was written.
    pub fn pre_image(&self, addr: Addr) -> Option<Word> {
        self.pre.get(&addr).map(|&(pre, _)| pre)
    }

    /// Journaled addresses in first-write order.
    pub fn addrs(&self) -> impl Iterator<Item = Addr> + '_ {
        self.order.iter().copied()
    }
}

impl fmt::Display for WriteJournal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "journal: {} addrs touched, {} stores intercepted",
            self.len(),
            self.writes
        )
    }
}

/// Transaction-control misuse, returned by the `*_txn` methods.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnError {
    /// `begin_txn` while a transaction is already open — the journal is a
    /// single-level undo log; nesting would silently merge undo scopes.
    NestedTransaction,
    /// `commit_txn`/`abort_txn` with no transaction open.
    NoTransaction,
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::NestedTransaction => {
                write!(
                    f,
                    "begin_txn: a transaction is already open (nesting is rejected)"
                )
            }
            TxnError::NoTransaction => write!(f, "commit/abort_txn: no open transaction"),
        }
    }
}

impl std::error::Error for TxnError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_records_first_write_pre_image_only() {
        let mut j = WriteJournal::new();
        j.note(5, 100, 777);
        j.note(5, 777, 8); // second write: pre-image must stay 100
        j.note(3, -1, 0);
        assert_eq!(j.len(), 2);
        assert_eq!(j.writes(), 3);
        assert_eq!(j.pre_image(5), Some(100));
        assert_eq!(j.pre_image(3), Some(-1));
        assert_eq!(j.pre_image(4), None);
        assert_eq!(j.addrs().collect::<Vec<_>>(), vec![5, 3]);
        let mut stored: Vec<_> = j.entries_stored().collect();
        stored.sort_unstable();
        assert_eq!(
            stored,
            vec![(3, 0), (5, 8)],
            "the latest stored word is kept for the commit"
        );
    }

    #[test]
    fn rollback_restores_pre_images() {
        let mut mem = Memory::new();
        let r = mem.alloc(4, "r");
        mem.write_region(r, &[1, 2, 3, 4]);
        let mut j = WriteJournal::new();
        j.note(r.at(1), 2, 99);
        mem.write(r.at(1), 99);
        j.note(r.at(3), 4, 98);
        mem.write(r.at(3), 98);
        j.rollback(&mut mem);
        assert_eq!(mem.read_region(r), vec![1, 2, 3, 4]);
    }

    #[test]
    fn snapshot_capture_matches_diff() {
        let mut mem = Memory::new();
        let a = mem.alloc(3, "a");
        let empty = mem.alloc(0, "empty");
        mem.write_region(a, &[7, 8, 9]);
        let snap = Snapshot::capture(&mem, &[a, empty]);
        assert_eq!(snap.num_regions(), 2);
        assert_eq!(snap.words(), 3);
        assert!(snap.matches(&mem));
        assert!(snap.diff(&mem).is_empty());
        mem.write(a.at(2), -5);
        assert!(!snap.matches(&mem));
        assert_eq!(snap.diff(&mem), vec![a.at(2)]);
        snap.restore(&mut mem);
        assert!(snap.matches(&mem), "restore repairs the divergence");
        assert_eq!(mem.read_region(a), vec![7, 8, 9]);
    }

    #[test]
    fn txn_error_displays() {
        assert!(TxnError::NestedTransaction
            .to_string()
            .contains("already open"));
        assert!(TxnError::NoTransaction
            .to_string()
            .contains("no open transaction"));
    }
}
