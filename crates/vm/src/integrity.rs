//! End-to-end integrity: incremental region checksums and the ELS auditor.
//!
//! FOL trusts two things the fault model (PR 1–3 plus this PR's read-side
//! extensions) can break: that memory still holds what was last stored
//! (bit-rot says otherwise) and that a gather faithfully returns the label
//! a scatter landed (flips, stale reads and torn gathers say otherwise).
//! This module supplies the detection machinery for both, owned by the
//! memory layer itself rather than bolted onto each workload:
//!
//! * **Incremental checksums** — the machine keeps one 64-bit XOR-of-hashes
//!   digest per *tracked* region ([`crate::Machine::track_region`]), and
//!   beside it one digest per [`BLOCK_WORDS`]-word block, both updated on
//!   every instruction-level store in O(1). Because a digest is an XOR over
//!   `mix(addr, word)` terms, a store updates it as
//!   `sum ^= mix(a, old) ^ mix(a, new)` with no rescan, and the region
//!   digest is always the XOR of its block digests. Bit-rot bypasses the
//!   store path by construction, so the incremental digests silently go
//!   stale — which is exactly what [`crate::Machine::scrub`] (every block)
//!   and [`crate::Machine::scrub_footprint`] (only the blocks the open
//!   transaction stored to or read) detect by recomputing digests from
//!   memory and comparing.
//! * **The committed image** — the machine also keeps a copy of every
//!   tracked word as of the last commit. Repair
//!   ([`crate::Machine::repair_from_image`], [`crate::Machine::scrub_blocks`])
//!   restores rotted blocks from it, and checkpoint images are cut from it,
//!   so a word rot changed is never adopted as committed state.
//! * **The ELS auditor** ([`ElsAuditor`]) — a round-boundary referee for
//!   FOL's scatter→gather handshake. Before a label scatter, the executor
//!   notes the set of competing labels per target address; at the paired
//!   gather it checks that every lane read back *some* noted label. A
//!   dropped write (gather returns the pre-image), a torn write (amalgam),
//!   a gather flip, a stale read or rot on the work area all surface here,
//!   at the round boundary — rounds earlier than an oracle compare would
//!   catch them.
//!
//! Both detectors report typed [`IntegrityError`]s, which `fol-core`
//! converts into its `FolError` taxonomy so the retry ladder can react
//! (snapshot repair, escalation to the scalar tail) instead of the run
//! silently returning corrupted data.

use crate::fault::hash3;
use crate::journal::AddrMap;
use crate::memory::{Addr, Region};
use crate::vreg::Word;
use std::collections::hash_map::Entry;

/// Words per integrity block: the unit of the block digests, of the
/// footprint a transaction records and of repair from the committed image.
/// A transaction's scattered stores touch up to one block per key, so the
/// footprint scrub costs `O(keys × BLOCK_WORDS)` whatever the structure's
/// size; small blocks keep that term below the FOL body it guards, while
/// the per-block bookkeeping (one digest, one footprint bit) stays
/// negligible against the words themselves.
pub const BLOCK_WORDS: usize = 32;

/// One term of a region digest: a seeded avalanche of `(addr, word)`.
/// Position-dependent, so swapping two cells' contents changes the digest.
#[inline]
pub fn mix(addr: Addr, word: Word) -> u64 {
    hash3(addr as u64, word as u64, 0xC0DE_C4EC)
}

/// The XOR-of-[`mix`] digest of a region's contents, recomputed from a
/// snapshot. The machine maintains the same quantity incrementally.
///
/// XOR is associative and commutative, so the terms fold through four
/// independent accumulators, which the CPU can overlap, and meet at the
/// end: the value is the one-accumulator fold's.
pub fn digest_words(base: Addr, words: &[Word]) -> u64 {
    let mut acc = [0u64; 4];
    let quads = words.chunks_exact(4);
    let tail = quads.remainder();
    let mut addr = base;
    for q in quads {
        acc[0] ^= mix(addr, q[0]);
        acc[1] ^= mix(addr + 1, q[1]);
        acc[2] ^= mix(addr + 2, q[2]);
        acc[3] ^= mix(addr + 3, q[3]);
        addr += 4;
    }
    for (i, &w) in tail.iter().enumerate() {
        acc[i] ^= mix(addr + i, w);
    }
    acc[0] ^ acc[1] ^ acc[2] ^ acc[3]
}

/// A typed integrity violation — the "never silently wrong" half of the
/// robustness contract. Everything the checksum and audit layers can
/// detect is reported through this enum, never as a bare panic and never
/// as silently corrupted data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IntegrityError {
    /// A tracked region's incremental checksum no longer matches its
    /// memory contents: something wrote to memory behind the store path's
    /// back (bit-rot, by construction the only way).
    ChecksumMismatch {
        /// Name of the allocation the region belongs to.
        region: String,
        /// Base address of the checked range: the tracked region for a
        /// full [`crate::Machine::scrub`], one block for a footprint scrub.
        base: Addr,
        /// Length of the checked range in words.
        len: usize,
        /// The incrementally maintained digest of the range (what memory
        /// *should* hold).
        expected: u64,
        /// The digest recomputed from memory (what it actually holds).
        actual: u64,
    },
    /// A gathered label was not among the labels scattered to its address
    /// this round — an amalgam, a phantom read, a dropped write's
    /// pre-image, or read-path corruption. The ELS condition, caught in
    /// the act.
    GatherMismatch {
        /// Name of the allocation the audited region belongs to.
        region: String,
        /// The audited address.
        addr: Addr,
        /// Original element position within the gather.
        lane: usize,
        /// The label the gather returned.
        got: Word,
        /// The labels actually scattered to `addr` (any of which would
        /// have satisfied ELS).
        scattered: Vec<Word>,
    },
}

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntegrityError::ChecksumMismatch {
                region,
                base,
                len,
                expected,
                actual,
            } => write!(
                f,
                "checksum mismatch on region \"{region}\" [{base}, {}): \
                 expected {expected:#018x}, memory digests to {actual:#018x} \
                 — something wrote behind the store path (bit-rot)",
                base + len
            ),
            IntegrityError::GatherMismatch {
                region,
                addr,
                lane,
                got,
                scattered,
            } => write!(
                f,
                "ELS audit: gather lane {lane} read {got} from \"{region}\" addr {addr}, \
                 but the round scattered {scattered:?} there — \
                 the stored-label-is-one-of-the-written-labels invariant (§3.2) is broken"
            ),
        }
    }
}

impl std::error::Error for IntegrityError {}

/// The ELS auditor: validates each FOL round's gathered labels against the
/// set of labels actually scattered.
///
/// Usage protocol (the machine wraps this behind
/// [`crate::Machine::audit_note_scatter`] / [`crate::Machine::audit_check_gather`]):
///
/// 1. Immediately before a label scatter, `note_scatter` records, per
///    target address, the multiset of competing labels. A later note for
///    the same address replaces the earlier one (the round's scatter is
///    the authority on what the cell may hold).
/// 2. Immediately after the paired gather, `check_gather` verifies each
///    lane's value is a member of its address's noted set, **consuming**
///    the entry either way. Consumption makes the audit pairwise: an
///    address checked once is not re-judged against a stale set when a
///    later, unrelated gather touches it (e.g. a payload read after the
///    round's winners overwrote the cell).
///
/// Addresses gathered without a noted scatter are skipped — the auditor
/// only judges the scatter→gather handshakes it was told about.
///
/// The noted labels live in one arena, threaded per address in lane order
/// from a head keyed by address; [`ElsAuditor::clear`] (or a note that
/// finds every earlier one consumed) empties it, so a clean round reuses
/// the arena's and the heads' storage and allocates nothing. A machine
/// keeps a disabled auditor's storage for the next one it enables
/// ([`crate::Machine::set_els_audit`]), so a transaction run that installs
/// an auditor reuses the storage of the run before it.
///
/// # Sampling
///
/// A full audit roughly doubles gather traffic (every round's labels are
/// mirrored host-side), which is the dominant cost of the defense. The
/// auditor therefore supports *seeded round sampling*
/// ([`ElsAuditor::with_rate`]): each `note_scatter` call opens one audited
/// round, and a rate-`N` auditor judges a deterministic, seed-selected
/// 1-in-`N` subset of rounds — the skipped rounds pay nothing (no notes,
/// and the paired `check_gather` finds no entries to judge). Detection
/// latency degrades gracefully: a *persistent* corrupter is still caught,
/// just up to `N-1` rounds later (the `integrity` bench prices this
/// trade-off at N ∈ {1, 4, 16}).
#[derive(Clone, Debug)]
pub struct ElsAuditor {
    /// Per noted address, its candidate labels: the ends of a list
    /// threaded through `labels`, from the most recent noted scatter.
    heads: AddrMap<Head>,
    /// Every noted label with the arena index of the next label noted for
    /// the same address in the same round ([`NIL`] ends the list).
    labels: Vec<(Word, u32)>,
    /// Arena length at which a note compacts away consumed labels; keeps
    /// a run that never clears bounded by the labels still live.
    compact_at: usize,
    /// Audit 1-in-`rate` rounds (1 = every round; never 0).
    rate: u64,
    /// Seed for the round-selection hash.
    seed: u64,
    rounds_seen: u64,
    rounds_audited: u64,
    checked: u64,
    violations: u64,
}

/// End of a label list in the auditor's arena.
const NIL: u32 = u32::MAX;

/// The smallest arena a note compacts.
const COMPACT_MIN: usize = 1 << 12;

/// One noted address: its first and last label in the arena, and the
/// audited round that noted them.
#[derive(Clone, Copy, Debug)]
struct Head {
    first: u32,
    last: u32,
    round: u64,
}

impl Default for ElsAuditor {
    fn default() -> Self {
        Self {
            heads: AddrMap::default(),
            labels: Vec::new(),
            compact_at: COMPACT_MIN,
            rate: 1,
            seed: 0,
            rounds_seen: 0,
            rounds_audited: 0,
            checked: 0,
            violations: 0,
        }
    }
}

impl ElsAuditor {
    /// A fresh auditor with no noted scatters, auditing every round.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh auditor that judges a seeded 1-in-`rate` sample of rounds.
    /// `rate` 0 or 1 both mean every round.
    pub fn with_rate(rate: u64, seed: u64) -> Self {
        Self {
            rate: rate.max(1),
            seed,
            ..Self::default()
        }
    }

    /// The configured sampling rate (1 = every round).
    pub fn rate(&self) -> u64 {
        self.rate
    }

    /// Rounds offered for auditing (one per `note_scatter` call).
    pub fn rounds_seen(&self) -> u64 {
        self.rounds_seen
    }

    /// Rounds the sampler actually selected for auditing.
    pub fn rounds_audited(&self) -> u64 {
        self.rounds_audited
    }

    /// Notes one label scatter: `vals[i]` competes for `addrs[i]`.
    /// Replaces any earlier note for the same addresses.
    ///
    /// Each call is one *round* for the sampler; a round the seeded sampler
    /// skips records nothing, so the paired gather check is free.
    pub fn note_scatter(&mut self, addrs: &[Addr], vals: &[Word]) {
        debug_assert_eq!(addrs.len(), vals.len());
        self.note_lanes(addrs.iter().copied().zip(vals.iter().copied()));
    }

    /// [`ElsAuditor::note_scatter`] over `(address, label)` lanes in lane
    /// order. The lanes are not drawn at all in a round the sampler skips.
    pub(crate) fn note_lanes(&mut self, lanes: impl Iterator<Item = (Addr, Word)>) {
        self.rounds_seen += 1;
        if self.rate > 1
            && !hash3(self.seed, self.rounds_seen, 0xA0D1_75A1).is_multiple_of(self.rate)
        {
            return;
        }
        self.rounds_audited += 1;
        if self.heads.is_empty() {
            self.labels.clear();
        } else if self.labels.len() >= self.compact_at {
            self.compact();
        }
        // A head noted by an earlier round starts over (the new round's
        // scatter replaces its candidates); one noted by this round grows.
        let round = self.rounds_audited;
        for (a, v) in lanes {
            let at = u32::try_from(self.labels.len()).expect("audit arena under 2^32 labels");
            self.labels.push((v, NIL));
            match self.heads.entry(a) {
                Entry::Occupied(mut e) if e.get().round == round => {
                    let h = e.get_mut();
                    self.labels[h.last as usize].1 = at;
                    h.last = at;
                }
                Entry::Occupied(mut e) => {
                    *e.get_mut() = Head {
                        first: at,
                        last: at,
                        round,
                    };
                }
                Entry::Vacant(e) => {
                    e.insert(Head {
                        first: at,
                        last: at,
                        round,
                    });
                }
            }
        }
    }

    /// Rebuilds the arena from the live heads, dropping consumed and
    /// replaced labels; the next compaction waits for twice the survivors.
    fn compact(&mut self) {
        let mut kept: Vec<(Word, u32)> = Vec::with_capacity(self.labels.len() / 2);
        for h in self.heads.values_mut() {
            let first = kept.len() as u32;
            let mut at = h.first;
            while at != NIL {
                let (v, next) = self.labels[at as usize];
                let here = kept.len() as u32;
                kept.push((v, if next == NIL { NIL } else { here + 1 }));
                at = next;
            }
            h.first = first;
            h.last = kept.len() as u32 - 1;
        }
        self.labels = kept;
        self.compact_at = COMPACT_MIN.max(2 * self.labels.len());
    }

    /// The candidate labels of one head, in lane order.
    fn candidates(&self, h: Head) -> impl Iterator<Item = Word> + '_ {
        let mut at = h.first;
        std::iter::from_fn(move || {
            if at == NIL {
                return None;
            }
            let (v, next) = self.labels[at as usize];
            at = next;
            Some(v)
        })
    }

    /// Checks one gather against the noted scatters: for each lane whose
    /// address has a noted candidate set, `got[i]` must be a member.
    /// Entries are consumed (checked at most once). Returns the first
    /// violation; `region` names the audited allocation for the error.
    pub fn check_gather(
        &mut self,
        region: &str,
        addrs: &[Addr],
        got: &[Word],
    ) -> Result<(), IntegrityError> {
        debug_assert_eq!(addrs.len(), got.len());
        self.check_lanes(addrs.iter().copied(), got, || region.to_string())
    }

    /// [`ElsAuditor::check_gather`] over the gathered lanes' addresses;
    /// `region` is asked for the allocation's name only when a lane
    /// violates.
    pub(crate) fn check_lanes(
        &mut self,
        addrs: impl Iterator<Item = Addr>,
        got: &[Word],
        region: impl FnOnce() -> String,
    ) -> Result<(), IntegrityError> {
        let mut first: Option<(Addr, usize, Word, Vec<Word>)> = None;
        for (lane, (addr, &g)) in addrs.zip(got).enumerate() {
            let Some(h) = self.heads.remove(&addr) else {
                continue;
            };
            self.checked += 1;
            if !self.candidates(h).any(|v| v == g) {
                self.violations += 1;
                if first.is_none() {
                    first = Some((addr, lane, g, self.candidates(h).collect()));
                }
            }
        }
        match first {
            Some((addr, lane, got, scattered)) => Err(IntegrityError::GatherMismatch {
                region: region(),
                addr,
                lane,
                got,
                scattered,
            }),
            None => Ok(()),
        }
    }

    /// Forgets all noted scatters (e.g. at a transaction boundary),
    /// keeping the counters.
    pub fn clear(&mut self) {
        self.heads.clear();
        self.labels.clear();
    }

    /// Restarts this auditor as [`ElsAuditor::with_rate`] would build it —
    /// no notes, counters at zero — keeping the heads' and the arena's
    /// storage for the next rounds.
    pub(crate) fn restart(&mut self, rate: u64, seed: u64) {
        self.clear();
        *self = Self {
            heads: std::mem::take(&mut self.heads),
            labels: std::mem::take(&mut self.labels),
            ..Self::with_rate(rate, seed)
        };
    }

    /// Number of (addr, gather) handshakes judged so far.
    pub fn checked(&self) -> u64 {
        self.checked
    }

    /// Number of handshakes that violated ELS.
    pub fn violations(&self) -> u64 {
        self.violations
    }
}

/// One tracked region and its incrementally maintained digest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrackedRegion {
    /// Name of the allocation the region belongs to.
    pub name: String,
    /// The tracked region.
    pub region: Region,
    /// The incremental XOR-of-[`mix`] digest (the XOR of the region's
    /// block digests).
    pub sum: u64,
}

/// What one bounded scrub pass ([`crate::Machine::scrub_blocks`]) did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockScrub {
    /// Blocks verified.
    pub checked: usize,
    /// Blocks whose digest mismatched and were restored from the
    /// committed image.
    pub repaired: usize,
    /// The cursor to resume from on the next pass.
    pub next: usize,
}

/// The private half of a tracked region: its block digests, its committed
/// image, and the footprint bits of the open transaction.
#[derive(Clone, Debug)]
pub(crate) struct RegionGuard {
    /// One XOR-of-[`mix`] digest per [`BLOCK_WORDS`]-word block.
    pub(crate) blocks: Vec<u64>,
    /// Every word of the region as of the last commit.
    pub(crate) image: Vec<Word>,
    /// One bit per block: set while the open transaction's footprint
    /// holds the block.
    pub(crate) touched: Vec<u64>,
}

impl RegionGuard {
    /// Digests and images `words`, the current contents of a region
    /// based at `base`.
    pub(crate) fn new(base: Addr, words: &[Word]) -> Self {
        let blocks = block_digests(base, words);
        let touched = vec![0; blocks.len().div_ceil(64)];
        // A zeroed allocation plus the non-zero words: a fresh region is
        // mostly zero, so most of the image's pages are never written here.
        let mut image = vec![0; words.len()];
        for (slot, &w) in image.iter_mut().zip(words) {
            if w != 0 {
                *slot = w;
            }
        }
        Self {
            blocks,
            image,
            touched,
        }
    }

    /// The region digest: the XOR of the block digests.
    pub(crate) fn sum(&self) -> u64 {
        self.blocks.iter().fold(0, |acc, &b| acc ^ b)
    }

    /// Adds block `b` to the footprint.
    #[inline]
    pub(crate) fn touch(&mut self, b: usize) {
        self.touched[b / 64] |= 1u64 << (b % 64);
    }

    /// The footprint's blocks, ascending.
    pub(crate) fn touched_blocks(&self) -> impl Iterator<Item = usize> + '_ {
        self.touched.iter().enumerate().flat_map(|(w, &bits)| {
            let mut rest = bits;
            std::iter::from_fn(move || {
                let i = (rest != 0).then(|| rest.trailing_zeros() as usize)?;
                rest &= rest - 1;
                Some(w * 64 + i)
            })
        })
    }
}

/// The word range of block `b` in a region of `len` words.
#[inline]
pub(crate) fn block_range(b: usize, len: usize) -> std::ops::Range<usize> {
    b * BLOCK_WORDS..((b + 1) * BLOCK_WORDS).min(len)
}

/// The block digests one checkpoint cut certified: per region, one digest
/// per [`BLOCK_WORDS`]-word block, XOR-ing to the region digest the cut's
/// checksum set records. A delta cut later compares the machine's
/// incremental block digests against it to find the blocks that changed
/// ([`crate::Machine::remember_cut`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CutBaseline {
    /// The cut's state digest: the XOR of its region digests.
    pub state: u64,
    /// The regions the cut certified, each with its block digests.
    pub regions: Vec<(Region, Vec<u64>)>,
}

impl CutBaseline {
    /// The block digests the cut certified for exactly `region`.
    pub fn blocks_of(&self, region: Region) -> Option<&[u64]> {
        self.regions
            .iter()
            .find(|(r, _)| *r == region)
            .map(|(_, b)| b.as_slice())
    }
}

/// The block digests of `words`, a region based at `base`: one
/// [`digest_words`] per [`BLOCK_WORDS`]-word chunk, XOR-ing to the digest
/// of the whole region.
pub fn block_digests(base: Addr, words: &[Word]) -> Vec<u64> {
    words
        .chunks(BLOCK_WORDS)
        .enumerate()
        .map(|(b, chunk)| digest_words(base + b * BLOCK_WORDS, chunk))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_position_dependent() {
        assert_ne!(mix(0, 5), mix(1, 5));
        assert_ne!(mix(0, 5), mix(0, 6));
        // Swapping two cells' contents changes the digest.
        let a = digest_words(10, &[1, 2]);
        let b = digest_words(10, &[2, 1]);
        assert_ne!(a, b);
    }

    #[test]
    fn four_accumulators_fold_to_the_one_accumulator_digest() {
        let words: Vec<Word> = (0..67)
            .map(|i| (i as Word).wrapping_mul(-0x61C8_8647))
            .collect();
        for base in [0, 1, 3, 1000, 1 << 20] {
            for len in 0..=words.len() {
                let one = words[..len]
                    .iter()
                    .enumerate()
                    .fold(0u64, |acc, (i, &w)| acc ^ mix(base + i, w));
                assert_eq!(
                    digest_words(base, &words[..len]),
                    one,
                    "base {base}, len {len}"
                );
            }
        }
    }

    #[test]
    fn digest_matches_incremental_update() {
        let mut words = vec![3, 1, 4, 1, 5];
        let mut sum = digest_words(100, &words);
        // Store 9 at offset 2, incrementally.
        sum ^= mix(102, words[2]) ^ mix(102, 9);
        words[2] = 9;
        assert_eq!(sum, digest_words(100, &words));
    }

    #[test]
    fn auditor_accepts_any_competing_label() {
        let mut aud = ElsAuditor::new();
        aud.note_scatter(&[7, 7, 9], &[1, 2, 3]);
        // Address 7 may hold 1 or 2 (ELS: one of the competitors), 9 holds 3.
        assert!(aud.check_gather("w", &[7, 9], &[2, 3]).is_ok());
        assert_eq!(aud.checked(), 2);
        assert_eq!(aud.violations(), 0);
    }

    #[test]
    fn auditor_flags_amalgams_and_pre_images() {
        let mut aud = ElsAuditor::new();
        aud.note_scatter(&[4, 4], &[0b01, 0b10]);
        // An XOR amalgam (0b11) is neither competitor.
        let err = aud.check_gather("w", &[4], &[0b11]).unwrap_err();
        match err {
            IntegrityError::GatherMismatch {
                addr,
                got,
                scattered,
                ..
            } => {
                assert_eq!(addr, 4);
                assert_eq!(got, 0b11);
                assert_eq!(scattered, vec![0b01, 0b10]);
            }
            other => panic!("wrong error: {other:?}"),
        }
        assert_eq!(aud.violations(), 1);
    }

    #[test]
    fn auditor_consumes_entries_and_skips_unnoted_addresses() {
        let mut aud = ElsAuditor::new();
        aud.note_scatter(&[5], &[8]);
        assert!(aud.check_gather("w", &[5], &[8]).is_ok());
        // Entry consumed: a later gather of addr 5 (now holding payload
        // data) is not judged against the stale label set.
        assert!(aud.check_gather("w", &[5], &[-123]).is_ok());
        // Never-noted addresses are skipped entirely.
        assert!(aud.check_gather("w", &[99], &[0]).is_ok());
        assert_eq!(aud.checked(), 1);
    }

    #[test]
    fn renoting_an_address_replaces_its_candidates() {
        let mut aud = ElsAuditor::new();
        aud.note_scatter(&[3], &[1]);
        aud.note_scatter(&[3], &[2]);
        // Only the latest round's label is acceptable.
        assert!(aud.check_gather("w", &[3], &[1]).is_err());
    }

    #[test]
    fn sampled_auditor_skips_rounds_deterministically() {
        let mut a = ElsAuditor::with_rate(4, 7);
        let mut b = ElsAuditor::with_rate(4, 7);
        for round in 0..64 {
            a.note_scatter(&[round], &[1]);
            b.note_scatter(&[round], &[1]);
        }
        assert_eq!(a.rounds_seen(), 64);
        assert_eq!(
            a.rounds_audited(),
            b.rounds_audited(),
            "seeded = replayable"
        );
        // Roughly 1-in-4 of rounds selected; the exact subset is seed-fixed.
        assert!(
            (8..=28).contains(&(a.rounds_audited() as i64)),
            "expected ~16 audited rounds, got {}",
            a.rounds_audited()
        );
        // A different seed selects a different subset (overwhelmingly).
        let mut c = ElsAuditor::with_rate(4, 8);
        let mut picks_c = 0;
        for round in 0..64 {
            c.note_scatter(&[round], &[1]);
            picks_c = c.rounds_audited();
        }
        assert!(picks_c > 0, "rate 4 over 64 rounds must sample something");
    }

    #[test]
    fn sampled_auditor_still_catches_persistent_corruption() {
        // A corrupter that poisons *every* round cannot hide from a 1-in-4
        // sampler for long: the first sampled round convicts it.
        let mut aud = ElsAuditor::with_rate(4, 3);
        let mut detected_at = None;
        for round in 0..32u64 {
            aud.note_scatter(&[100 + round as Addr], &[5]);
            // The gather always returns a phantom value no scatter wrote.
            if aud
                .check_gather("w", &[100 + round as Addr], &[-99])
                .is_err()
            {
                detected_at = Some(round);
                break;
            }
        }
        let at = detected_at.expect("persistent corruption must be detected");
        assert!(at < 16, "detection latency bounded by a few skip windows");
        assert!(aud.rounds_audited() >= 1);
    }

    #[test]
    fn skipped_rounds_cost_nothing_and_judge_nothing() {
        // Rate u64::MAX: statistically no round is sampled, so even a
        // blatant violation goes unjudged — the explicit cost/coverage
        // trade-off the policy knob exposes.
        let mut aud = ElsAuditor::with_rate(u64::MAX, 1);
        for round in 0..16u64 {
            aud.note_scatter(&[round as Addr], &[1]);
            assert!(aud.check_gather("w", &[round as Addr], &[-1]).is_ok());
        }
        assert_eq!(aud.checked(), 0);
        assert_eq!(aud.rounds_seen(), 16);
    }

    /// The auditor as it stood before the label arena: one heap vector of
    /// candidates per noted address, under the default hasher. The
    /// property test below holds the arena auditor to its judgements.
    struct ModelAuditor {
        expected: std::collections::HashMap<Addr, Vec<Word>>,
        rate: u64,
        seed: u64,
        rounds_seen: u64,
        rounds_audited: u64,
        checked: u64,
        violations: u64,
    }

    impl ModelAuditor {
        fn with_rate(rate: u64, seed: u64) -> Self {
            Self {
                expected: std::collections::HashMap::new(),
                rate: rate.max(1),
                seed,
                rounds_seen: 0,
                rounds_audited: 0,
                checked: 0,
                violations: 0,
            }
        }

        fn note_scatter(&mut self, addrs: &[Addr], vals: &[Word]) {
            self.rounds_seen += 1;
            if self.rate > 1
                && !hash3(self.seed, self.rounds_seen, 0xA0D1_75A1).is_multiple_of(self.rate)
            {
                return;
            }
            self.rounds_audited += 1;
            for &a in addrs {
                self.expected.remove(&a);
            }
            for (&a, &v) in addrs.iter().zip(vals) {
                self.expected.entry(a).or_default().push(v);
            }
        }

        fn check_gather(
            &mut self,
            region: &str,
            addrs: &[Addr],
            got: &[Word],
        ) -> Result<(), IntegrityError> {
            let mut first: Option<IntegrityError> = None;
            for (lane, (&addr, &g)) in addrs.iter().zip(got).enumerate() {
                let Some(candidates) = self.expected.remove(&addr) else {
                    continue;
                };
                self.checked += 1;
                if !candidates.contains(&g) {
                    self.violations += 1;
                    if first.is_none() {
                        first = Some(IntegrityError::GatherMismatch {
                            region: region.to_string(),
                            addr,
                            lane,
                            got: g,
                            scattered: candidates,
                        });
                    }
                }
            }
            match first {
                Some(e) => Err(e),
                None => Ok(()),
            }
        }

        fn clear(&mut self) {
            self.expected.clear();
        }
    }

    #[test]
    fn arena_auditor_judges_exactly_like_the_vector_model() {
        for (rate, seed) in [(1u64, 1u64), (1, 2), (3, 5), (1, 9)] {
            let mut aud = ElsAuditor::with_rate(rate, seed);
            let mut model = ModelAuditor::with_rate(rate, seed);
            let mut coin = 0u64;
            let mut draw = |n: u64| {
                coin += 1;
                hash3(seed, coin, 0x5EED) % n
            };
            for step in 0..4000 {
                match draw(20) {
                    0 => {
                        aud.clear();
                        model.clear();
                    }
                    1..=9 => {
                        let n = draw(24) as usize;
                        let addrs: Vec<Addr> = (0..n).map(|_| draw(40) as Addr).collect();
                        let vals: Vec<Word> = (0..n).map(|_| draw(6) as Word).collect();
                        aud.note_scatter(&addrs, &vals);
                        model.note_scatter(&addrs, &vals);
                    }
                    _ => {
                        let n = draw(24) as usize;
                        let addrs: Vec<Addr> = (0..n).map(|_| draw(40) as Addr).collect();
                        let got: Vec<Word> = (0..n).map(|_| draw(6) as Word).collect();
                        assert_eq!(
                            aud.check_gather("w", &addrs, &got),
                            model.check_gather("w", &addrs, &got),
                            "rate {rate} seed {seed} step {step}"
                        );
                    }
                }
                assert_eq!(aud.checked(), model.checked);
                assert_eq!(aud.violations(), model.violations);
                assert_eq!(aud.rounds_seen(), model.rounds_seen);
                assert_eq!(aud.rounds_audited(), model.rounds_audited);
            }
        }
    }

    #[test]
    fn unconsumed_notes_keep_the_arena_bounded_and_the_judgement_intact() {
        // A run that never clears and leaves most notes unconsumed: the
        // arena compacts to the live labels, and every live address still
        // judges against its latest candidates.
        let mut aud = ElsAuditor::new();
        for round in 0..20_000u64 {
            let a = (round % 97) as Addr;
            aud.note_scatter(&[a, a, 1000 + a], &[round as Word, -1, 7]);
        }
        assert!(aud.labels.len() < 2 * COMPACT_MIN, "{}", aud.labels.len());
        let last = 19_999u64;
        let a = (last % 97) as Addr;
        assert!(aud.check_gather("w", &[a], &[last as Word]).is_ok());
        assert!(aud.check_gather("w", &[1000 + a], &[7]).is_ok());
        let err = aud.check_gather("w", &[a + 1], &[0]).unwrap_err();
        match err {
            IntegrityError::GatherMismatch { scattered, .. } => {
                assert_eq!(scattered, vec![(last - 96) as Word, -1]);
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn integrity_errors_render_their_evidence() {
        let e = IntegrityError::ChecksumMismatch {
            region: "work".into(),
            base: 10,
            len: 4,
            expected: 0xAB,
            actual: 0xCD,
        };
        let s = e.to_string();
        assert!(s.contains("work"), "{s}");
        assert!(s.contains("bit-rot"), "{s}");
        let e = IntegrityError::GatherMismatch {
            region: "work".into(),
            addr: 12,
            lane: 5,
            got: 99,
            scattered: vec![3, 4],
        };
        let s = e.to_string();
        assert!(s.contains("lane 5 read 99"), "{s}");
        assert!(s.contains("[3, 4]"), "{s}");
    }
}
