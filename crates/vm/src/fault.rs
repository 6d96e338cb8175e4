//! Deterministic scatter fault injection — adversarial hardware models.
//!
//! FOL's correctness argument rests on the **ELS condition** (§3.2): a
//! conflicting vector indirect store lands exactly one of the competing
//! values. The [`crate::ConflictPolicy`] seam already lets tests choose *which*
//! write wins; this module goes further and models **broken** hardware, so
//! that the hardened, fallible execution paths in `fol-core` can be shown to
//! fail loudly (typed errors, detected invariant violations) rather than
//! silently produce a wrong decomposition.
//!
//! A [`FaultPlan`] is a pure function of `(seed, scatter sequence number,
//! lane / address)` — re-running the same program with the same plan replays
//! exactly the same faults, which keeps every adversarial test reproducible.
//! Two fault classes are modelled, both of which violate ELS:
//!
//! * **Dropped lanes** — a scatter element's write never reaches memory (a
//!   faulty pipe). The cell keeps its previous value, which is *not* one of
//!   the written values.
//! * **Torn writes** (generalized amalgams) — when several lanes target one
//!   address, the stored value is a bitwise combination
//!   ([`AmalgamMode`]) of the competing values instead of any single one of
//!   them. This generalizes the legacy [`crate::ConflictPolicy::BrokenAmalgam`]
//!   policy from "always XOR" to seeded, per-address, per-mode injection.
//!
//! Every injected fault is recorded in the machine's [`FaultLog`], so a test
//! can assert both that a run *survived* and that the adversary actually
//! *fired* (a plan whose probabilities never trigger proves nothing).
//!
//! Beyond the write-side classes above, a plan can also lie on the **read
//! side** and in **resident memory** — the silent-data-corruption models the
//! integrity layer ([`crate::integrity`]) exists to catch:
//!
//! * **Gather bit-flips** — a list-vector load returns the stored word with
//!   one seeded bit inverted (a flaky read pipe).
//! * **Stale reads** — a gather lane returns the *previous* value of its
//!   cell instead of the current one (a forwarding/coherence failure).
//! * **Torn gathers** — a gather lane returns an [`AmalgamMode`] combination
//!   of its own word and a neighbouring lane's word (crosstalk on the read
//!   bus).
//! * **Bit-rot** — resident words in checksummed regions decay spontaneously
//!   at scatter boundaries, at a rate that halves every
//!   [`FaultPlan::ROT_HALF_LIFE`] scatters (so retries eventually run on
//!   quiet memory). Rot bypasses the write journal *and* the incremental
//!   checksums on purpose: only a [`crate::Machine::scrub`] pass can see it.

use crate::memory::Addr;
use crate::vreg::Word;

/// How a torn write combines the values competing for one address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AmalgamMode {
    /// Bitwise XOR of all competing values (the classic torn-store model;
    /// matches [`crate::ConflictPolicy::BrokenAmalgam`]).
    #[default]
    Xor,
    /// Bitwise OR — models wired-OR bus contention.
    Or,
    /// Bitwise AND — models open-drain contention.
    And,
}

impl AmalgamMode {
    /// Combines `values` (at least one) into the torn result.
    pub fn combine(self, values: &[Word]) -> Word {
        let mut it = values.iter().copied();
        let first = it.next().unwrap_or(0);
        match self {
            AmalgamMode::Xor => it.fold(first, |a, b| a ^ b),
            AmalgamMode::Or => it.fold(first, |a, b| a | b),
            AmalgamMode::And => it.fold(first, |a, b| a & b),
        }
    }
}

/// A deterministic, seed-driven plan of scatter faults.
///
/// Rates are expressed in units of `1/65536`: a `drop_rate` of `8192` drops
/// roughly one lane in eight. Whether a particular lane or address faults is
/// a pure hash of the plan seed, the machine's scatter sequence number and
/// the lane index (or target address), so a plan is exactly reproducible and
/// independent of `HashMap` iteration order or host randomness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    drop_rate: u16,
    amalgam_rate: u16,
    mode: AmalgamMode,
    /// Half-open scatter-sequence window `[start, end)` the plan applies to;
    /// `None` means every scatter.
    window: Option<(u64, u64)>,
    /// Bitmask of *physical lanes* (bit `i` ⇔ lane `i`) that drop **every**
    /// write routed through them — the sticky-fault model of a permanently
    /// broken pipe, as opposed to the stochastic `drop_rate`.
    sticky_lanes: u64,
    /// Rate (per 65536) at which a gather lane returns its word with one
    /// seeded bit inverted.
    gather_flip_rate: u16,
    /// Rate (per 65536) at which a gather lane returns the previous value
    /// of its cell instead of the current one.
    stale_read_rate: u16,
    /// Rate (per 65536) at which a gather lane's word is combined
    /// ([`AmalgamMode`]) with a neighbouring lane's word.
    torn_gather_rate: u16,
    /// Initial rate (per 65536, halving every [`FaultPlan::ROT_HALF_LIFE`]
    /// scatters) at which resident words of checksummed regions decay.
    rot_rate: u16,
}

impl FaultPlan {
    /// Scatter-sequence half-life of the bit-rot rate: every this many
    /// scatters, the effective rot rate halves. Chosen so an aggressive rot
    /// plan has visibly decayed within one retry attempt and is effectively
    /// quiet after a handful — modelling transient environmental upset
    /// (and guaranteeing the retry ladder converges rather than racing an
    /// immortal adversary).
    pub const ROT_HALF_LIFE: u64 = 8;

    /// A plan that injects nothing (useful as a sweep baseline).
    pub fn benign(seed: u64) -> Self {
        Self {
            seed,
            drop_rate: 0,
            amalgam_rate: 0,
            mode: AmalgamMode::Xor,
            window: None,
            sticky_lanes: 0,
            gather_flip_rate: 0,
            stale_read_rate: 0,
            torn_gather_rate: 0,
            rot_rate: 0,
        }
    }

    /// A plan under which every physical lane in the `lanes` bitmask (bit
    /// `i` ⇔ lane `i`) drops **all** of its writes — a permanently broken
    /// pipe. Unlike the stochastic [`FaultPlan::dropped_lanes`] model, a
    /// sticky fault is a pure function of the lane alone, so the lane-health
    /// registry can localize it and a quarantine actually cures it.
    pub fn sticky_lanes(seed: u64, lanes: u64) -> Self {
        Self {
            sticky_lanes: lanes,
            ..Self::benign(seed)
        }
    }

    /// A plan that drops scatter lanes at `rate` (per 65536).
    pub fn dropped_lanes(seed: u64, rate: u16) -> Self {
        Self {
            drop_rate: rate,
            ..Self::benign(seed)
        }
    }

    /// A plan that tears conflicting writes at `rate` (per 65536) using
    /// `mode` to combine the competing values.
    pub fn torn_writes(seed: u64, rate: u16, mode: AmalgamMode) -> Self {
        Self {
            amalgam_rate: rate,
            mode,
            ..Self::benign(seed)
        }
    }

    /// A plan under which gather lanes return bit-flipped words at `rate`
    /// (per 65536).
    pub fn gather_flips(seed: u64, rate: u16) -> Self {
        Self {
            gather_flip_rate: rate,
            ..Self::benign(seed)
        }
    }

    /// A plan under which resident words of checksummed regions decay,
    /// starting at `rate` (per 65536) and halving every
    /// [`FaultPlan::ROT_HALF_LIFE`] scatters.
    pub fn bit_rot(seed: u64, rate: u16) -> Self {
        Self {
            rot_rate: rate,
            ..Self::benign(seed)
        }
    }

    /// Sets the lane-drop rate (per 65536), returning the modified plan.
    pub fn with_drop_rate(mut self, rate: u16) -> Self {
        self.drop_rate = rate;
        self
    }

    /// Sets the gather bit-flip rate (per 65536), returning the plan.
    pub fn with_gather_flips(mut self, rate: u16) -> Self {
        self.gather_flip_rate = rate;
        self
    }

    /// Sets the stale-read rate (per 65536), returning the plan.
    pub fn with_stale_reads(mut self, rate: u16) -> Self {
        self.stale_read_rate = rate;
        self
    }

    /// Sets the torn-gather rate (per 65536), returning the plan; the
    /// plan's [`AmalgamMode`] decides how the crosstalk combines.
    pub fn with_torn_gathers(mut self, rate: u16) -> Self {
        self.torn_gather_rate = rate;
        self
    }

    /// Sets the torn-write rate (per 65536) and mode, returning the plan.
    pub fn with_torn_writes(mut self, rate: u16, mode: AmalgamMode) -> Self {
        self.amalgam_rate = rate;
        self.mode = mode;
        self
    }

    /// Sets the sticky-lane bitmask (bit `i` ⇔ physical lane `i` drops all
    /// writes), returning the modified plan.
    pub fn with_sticky_lanes(mut self, lanes: u64) -> Self {
        self.sticky_lanes = lanes;
        self
    }

    /// The sticky-lane bitmask.
    pub fn sticky_lane_bits(&self) -> u64 {
        self.sticky_lanes
    }

    /// Restricts the plan to scatters whose sequence number falls in
    /// `[start, end)`.
    pub fn with_window(mut self, start: u64, end: u64) -> Self {
        self.window = Some((start, end));
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Replaces the plan's seed, keeping rates, mode and window — used by
    /// retry supervisors to draw a fresh fault pattern between attempts
    /// while preserving the failure model.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// True when the plan can violate the ELS condition (any nonzero rate
    /// or a nonempty sticky-lane set).
    pub fn violates_els(&self) -> bool {
        self.drop_rate > 0 || self.amalgam_rate > 0 || self.sticky_lanes != 0
    }

    /// True when the plan can corrupt the *read* path (gather flips, stale
    /// reads or torn gathers) — faults no write-side validation can see.
    pub fn corrupts_reads(&self) -> bool {
        self.gather_flip_rate > 0 || self.stale_read_rate > 0 || self.torn_gather_rate > 0
    }

    /// True when the plan decays resident memory.
    pub fn rots_memory(&self) -> bool {
        self.rot_rate > 0
    }

    /// True when the plan needs the machine to keep a shadow of pre-write
    /// values (only then can a stale read return something plausible).
    pub fn needs_stale_shadow(&self) -> bool {
        self.stale_read_rate > 0
    }

    /// The amalgam combination mode.
    pub fn mode(&self) -> AmalgamMode {
        self.mode
    }

    fn active_at(&self, sequence: u64) -> bool {
        match self.window {
            None => true,
            Some((start, end)) => sequence >= start && sequence < end,
        }
    }

    /// Decides whether the write of `lane` (original element position) in
    /// scatter `sequence` is dropped.
    pub fn lane_dropped(&self, sequence: u64, lane: usize) -> bool {
        self.active_at(sequence)
            && self.drop_rate > 0
            && (hash3(self.seed, sequence, lane as u64 ^ 0xD50F) & 0xFFFF) < self.drop_rate as u64
    }

    /// Decides whether the write routed through physical lane `lane` in
    /// scatter `sequence` is dropped by a **sticky** lane fault. Unlike
    /// [`FaultPlan::lane_dropped`] this is keyed on the physical lane the
    /// machine scheduled the element onto, not the element position, so a
    /// quarantine that steers elements away from the lane genuinely avoids
    /// the fault.
    pub fn sticky_dropped(&self, sequence: u64, lane: usize) -> bool {
        self.active_at(sequence) && lane < 64 && (self.sticky_lanes >> lane) & 1 == 1
    }

    /// Decides whether the conflicting writes to `addr` in scatter `sequence`
    /// tear; returns the amalgam to store if so. `values` are the competing
    /// values (the caller only consults the plan when there are at least two).
    pub fn torn_value(&self, sequence: u64, addr: Addr, values: &[Word]) -> Option<Word> {
        if values.len() < 2 || !self.active_at(sequence) || self.amalgam_rate == 0 {
            return None;
        }
        if (hash3(self.seed, sequence, addr as u64 ^ 0x7EA4) & 0xFFFF) < self.amalgam_rate as u64 {
            Some(self.mode.combine(values))
        } else {
            None
        }
    }

    /// Decides whether gather `sequence`'s `lane` returns a bit-flipped
    /// word; returns the bit index to invert if so. Keyed on the machine's
    /// *gather* sequence counter, so each gather draws fresh coins.
    pub fn gather_flipped(&self, sequence: u64, lane: usize) -> Option<u32> {
        if !self.active_at(sequence) || self.gather_flip_rate == 0 {
            return None;
        }
        let h = hash3(self.seed, sequence, lane as u64 ^ 0x61F1);
        ((h & 0xFFFF) < self.gather_flip_rate as u64).then_some(((h >> 16) % 64) as u32)
    }

    /// Decides whether gather `sequence`'s `lane` suffers a stale read
    /// (returns the cell's previous value instead of the current one).
    pub fn stale_read(&self, sequence: u64, lane: usize) -> bool {
        self.active_at(sequence)
            && self.stale_read_rate > 0
            && (hash3(self.seed, sequence, lane as u64 ^ 0x57A1) & 0xFFFF)
                < self.stale_read_rate as u64
    }

    /// Decides whether gather `sequence`'s `lane` tears against its
    /// neighbouring lane's word (crosstalk); the plan's [`AmalgamMode`]
    /// combines the two.
    pub fn torn_gather(&self, sequence: u64, lane: usize) -> bool {
        self.active_at(sequence)
            && self.torn_gather_rate > 0
            && (hash3(self.seed, sequence, lane as u64 ^ 0x7641) & 0xFFFF)
                < self.torn_gather_rate as u64
    }

    /// The effective bit-rot rate at scatter `sequence`: the initial rate
    /// halved once per elapsed [`FaultPlan::ROT_HALF_LIFE`] scatters.
    pub fn rot_rate_at(&self, sequence: u64) -> u64 {
        if !self.active_at(sequence) {
            return 0;
        }
        let halvings = (sequence / Self::ROT_HALF_LIFE).min(63) as u32;
        (self.rot_rate as u64) >> halvings
    }

    /// Decides whether the resident word at `addr` rots at scatter
    /// `sequence`; returns the bit index to invert if so.
    pub fn rotted(&self, sequence: u64, addr: Addr) -> Option<u32> {
        let rate = self.rot_rate_at(sequence);
        if rate == 0 {
            return None;
        }
        let h = hash3(self.seed, sequence, addr as u64 ^ 0xB17D);
        ((h & 0xFFFF) < rate).then_some(((h >> 16) % 64) as u32)
    }
}

/// One injected fault, as recorded in the [`FaultLog`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// The write of element `lane` in scatter `sequence` was dropped before
    /// reaching `addr`.
    LaneDropped {
        /// Scatter sequence number.
        sequence: u64,
        /// Original element position within the scatter.
        lane: usize,
        /// The address the write should have reached.
        addr: Addr,
    },
    /// Conflicting writes to `addr` in scatter `sequence` stored `amalgam`,
    /// a value no single lane wrote.
    TornWrite {
        /// Scatter sequence number.
        sequence: u64,
        /// The torn address.
        addr: Addr,
        /// The amalgam that was stored.
        amalgam: Word,
    },
    /// Gather `sequence`'s element `lane` read `addr` with bit `bit`
    /// inverted: memory held the right word, the read pipe lied.
    GatherFlip {
        /// Gather sequence number.
        sequence: u64,
        /// Original element position within the gather.
        lane: usize,
        /// The address that was read.
        addr: Addr,
        /// The bit that was inverted in the returned word.
        bit: u32,
    },
    /// Gather `sequence`'s element `lane` returned `stale`, the previous
    /// value of `addr`, instead of the current word.
    StaleRead {
        /// Gather sequence number.
        sequence: u64,
        /// Original element position within the gather.
        lane: usize,
        /// The address that was read.
        addr: Addr,
        /// The outdated value that was returned.
        stale: Word,
    },
    /// Gather `sequence`'s element `lane` returned an amalgam of its own
    /// word and a neighbouring lane's word (read-bus crosstalk).
    TornGather {
        /// Gather sequence number.
        sequence: u64,
        /// Original element position within the gather.
        lane: usize,
        /// The address that was read.
        addr: Addr,
        /// The crosstalk amalgam that was returned.
        amalgam: Word,
    },
    /// The resident word at `addr` decayed at scatter boundary `sequence`:
    /// bit `bit` inverted in memory itself, bypassing journal and
    /// checksums. Only a scrub pass can see this one.
    BitRot {
        /// Scatter sequence number at whose boundary the rot struck.
        sequence: u64,
        /// The decayed address.
        addr: Addr,
        /// The bit that was inverted in memory.
        bit: u32,
    },
}

/// A record of every fault a [`FaultPlan`] actually injected.
///
/// Adversarial tests assert on this to prove the adversary fired: a run that
/// "survives" a plan whose faults never triggered demonstrates nothing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultLog {
    events: Vec<FaultEvent>,
    dropped_lanes: u64,
    torn_writes: u64,
    gather_flips: u64,
    stale_reads: u64,
    torn_gathers: u64,
    bit_rots: u64,
}

impl FaultLog {
    /// All events, in injection order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of dropped lanes.
    pub fn dropped_lanes(&self) -> u64 {
        self.dropped_lanes
    }

    /// Number of torn writes.
    pub fn torn_writes(&self) -> u64 {
        self.torn_writes
    }

    /// Number of gather bit-flips.
    pub fn gather_flips(&self) -> u64 {
        self.gather_flips
    }

    /// Number of stale reads.
    pub fn stale_reads(&self) -> u64 {
        self.stale_reads
    }

    /// Number of torn gathers.
    pub fn torn_gathers(&self) -> u64 {
        self.torn_gathers
    }

    /// Number of resident words decayed by bit-rot.
    pub fn bit_rots(&self) -> u64 {
        self.bit_rots
    }

    /// Total faults on the read path (flips + stale reads + torn gathers).
    pub fn read_faults(&self) -> u64 {
        self.gather_flips + self.stale_reads + self.torn_gathers
    }

    /// True when no fault was injected.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total number of injected faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub(crate) fn record(&mut self, event: FaultEvent) {
        match event {
            FaultEvent::LaneDropped { .. } => self.dropped_lanes += 1,
            FaultEvent::TornWrite { .. } => self.torn_writes += 1,
            FaultEvent::GatherFlip { .. } => self.gather_flips += 1,
            FaultEvent::StaleRead { .. } => self.stale_reads += 1,
            FaultEvent::TornGather { .. } => self.torn_gathers += 1,
            FaultEvent::BitRot { .. } => self.bit_rots += 1,
        }
        self.events.push(event);
    }

    /// A one-line human-readable digest: event counts by kind plus the
    /// distinct scatter sequence numbers (rounds) the faults landed in.
    /// This is what [`crate::Tracer`] prints, so a recovery report and a
    /// trace can be correlated by eye.
    pub fn summary(&self) -> String {
        if self.is_empty() {
            return "no faults injected".to_string();
        }
        let mut seqs: Vec<u64> = self
            .events
            .iter()
            .map(|e| match e {
                FaultEvent::LaneDropped { sequence, .. }
                | FaultEvent::TornWrite { sequence, .. }
                | FaultEvent::GatherFlip { sequence, .. }
                | FaultEvent::StaleRead { sequence, .. }
                | FaultEvent::TornGather { sequence, .. }
                | FaultEvent::BitRot { sequence, .. } => *sequence,
            })
            .collect();
        seqs.sort_unstable();
        seqs.dedup();
        let shown: Vec<String> = seqs.iter().take(8).map(u64::to_string).collect();
        let ellipsis = if seqs.len() > 8 { ", …" } else { "" };
        let mut parts = vec![
            format!("{} dropped lane(s)", self.dropped_lanes),
            format!("{} torn write(s)", self.torn_writes),
        ];
        if self.read_faults() > 0 {
            parts.push(format!(
                "{} read fault(s) ({} flip, {} stale, {} torn)",
                self.read_faults(),
                self.gather_flips,
                self.stale_reads,
                self.torn_gathers
            ));
        }
        if self.bit_rots > 0 {
            parts.push(format!("{} rotted word(s)", self.bit_rots));
        }
        format!(
            "{} fault(s): {} across {} scatter(s) [seq {}{}]",
            self.len(),
            parts.join(", "),
            seqs.len(),
            shown.join(", "),
            ellipsis,
        )
    }
}

impl std::fmt::Display for FaultLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.summary())
    }
}

/// SplitMix64-style avalanche of three words — the deterministic coin every
/// fault decision flips. Public within the crate so the adversarial conflict
/// policy can share it.
pub(crate) fn hash3(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a
        .wrapping_add(b.wrapping_mul(0x9E3779B97F4A7C15))
        .wrapping_add(c.wrapping_mul(0xBF58476D1CE4E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benign_plan_never_fires() {
        let plan = FaultPlan::benign(7);
        assert!(!plan.violates_els());
        for seq in 0..64 {
            for lane in 0..64 {
                assert!(!plan.lane_dropped(seq, lane));
            }
            assert_eq!(plan.torn_value(seq, 3, &[1, 2]), None);
        }
    }

    #[test]
    fn drop_rate_is_roughly_honoured_and_deterministic() {
        let plan = FaultPlan::dropped_lanes(42, 16384); // ~25%
        let fired: Vec<bool> = (0..4096).map(|lane| plan.lane_dropped(1, lane)).collect();
        let count = fired.iter().filter(|&&f| f).count();
        assert!((600..1500).contains(&count), "~25% of 4096, got {count}");
        // Replaying gives the identical pattern.
        let replay: Vec<bool> = (0..4096).map(|lane| plan.lane_dropped(1, lane)).collect();
        assert_eq!(fired, replay);
        assert!(plan.violates_els());
    }

    #[test]
    fn torn_writes_combine_per_mode() {
        assert_eq!(AmalgamMode::Xor.combine(&[0b1100, 0b1010]), 0b0110);
        assert_eq!(AmalgamMode::Or.combine(&[0b1100, 0b1010]), 0b1110);
        assert_eq!(AmalgamMode::And.combine(&[0b1100, 0b1010]), 0b1000);
        let plan = FaultPlan::torn_writes(3, u16::MAX, AmalgamMode::Or);
        assert_eq!(plan.torn_value(0, 5, &[1, 2]), Some(3));
        // A lone writer can never tear.
        assert_eq!(plan.torn_value(0, 5, &[1]), None);
    }

    #[test]
    fn window_limits_the_blast_radius() {
        let plan = FaultPlan::dropped_lanes(9, u16::MAX).with_window(10, 20);
        assert!(!plan.lane_dropped(9, 0));
        assert!(plan.lane_dropped(10, 0));
        assert!(plan.lane_dropped(19, 0));
        assert!(!plan.lane_dropped(20, 0));
    }

    #[test]
    fn log_counts_by_kind() {
        let mut log = FaultLog::default();
        assert!(log.is_empty());
        log.record(FaultEvent::LaneDropped {
            sequence: 1,
            lane: 2,
            addr: 3,
        });
        log.record(FaultEvent::TornWrite {
            sequence: 1,
            addr: 3,
            amalgam: 7,
        });
        log.record(FaultEvent::TornWrite {
            sequence: 2,
            addr: 4,
            amalgam: 8,
        });
        assert_eq!(log.dropped_lanes(), 1);
        assert_eq!(log.torn_writes(), 2);
        assert_eq!(log.len(), 3);
        assert_eq!(log.events().len(), 3);
    }

    #[test]
    fn summary_digests_events_by_kind_and_round() {
        let mut log = FaultLog::default();
        assert_eq!(log.summary(), "no faults injected");
        log.record(FaultEvent::LaneDropped {
            sequence: 1,
            lane: 2,
            addr: 3,
        });
        log.record(FaultEvent::TornWrite {
            sequence: 1,
            addr: 3,
            amalgam: 7,
        });
        log.record(FaultEvent::TornWrite {
            sequence: 4,
            addr: 4,
            amalgam: 8,
        });
        let s = log.summary();
        assert!(s.contains("3 fault(s)"), "{s}");
        assert!(s.contains("1 dropped lane(s)"), "{s}");
        assert!(s.contains("2 torn write(s)"), "{s}");
        assert!(s.contains("2 scatter(s)"), "{s}");
        assert!(s.contains("seq 1, 4"), "{s}");
        assert_eq!(format!("{log}"), s);
    }

    #[test]
    fn with_seed_preserves_rates_and_window() {
        let plan = FaultPlan::dropped_lanes(1, 8192).with_window(5, 10);
        let reseeded = plan.clone().with_seed(2);
        assert_eq!(reseeded.seed(), 2);
        assert!(reseeded.violates_els());
        // Window carried over; pattern differs because the seed differs.
        assert!(!reseeded.lane_dropped(4, 0) || !plan.lane_dropped(4, 0));
        let pa: Vec<bool> = (0..512).map(|l| plan.lane_dropped(6, l)).collect();
        let pb: Vec<bool> = (0..512).map(|l| reseeded.lane_dropped(6, l)).collect();
        assert_ne!(pa, pb);
    }

    #[test]
    fn sticky_lanes_always_drop_and_only_those() {
        let plan = FaultPlan::sticky_lanes(3, (1 << 5) | (1 << 40));
        assert!(plan.violates_els());
        assert_eq!(plan.sticky_lane_bits(), (1 << 5) | (1 << 40));
        for seq in 0..64 {
            assert!(plan.sticky_dropped(seq, 5));
            assert!(plan.sticky_dropped(seq, 40));
            assert!(!plan.sticky_dropped(seq, 4));
            assert!(!plan.sticky_dropped(seq, 63));
            // Sticky faults are independent of the stochastic model.
            assert!(!plan.lane_dropped(seq, 5));
        }
        // Out-of-range lanes never stick.
        assert!(!plan.sticky_dropped(0, 64));
    }

    #[test]
    fn sticky_lanes_respect_the_window() {
        let plan = FaultPlan::benign(1)
            .with_sticky_lanes(1 << 2)
            .with_window(10, 20);
        assert!(!plan.sticky_dropped(9, 2));
        assert!(plan.sticky_dropped(10, 2));
        assert!(!plan.sticky_dropped(20, 2));
    }

    #[test]
    fn different_seeds_fault_differently() {
        let a = FaultPlan::dropped_lanes(1, 8192);
        let b = FaultPlan::dropped_lanes(2, 8192);
        let pa: Vec<bool> = (0..512).map(|l| a.lane_dropped(0, l)).collect();
        let pb: Vec<bool> = (0..512).map(|l| b.lane_dropped(0, l)).collect();
        assert_ne!(pa, pb);
    }

    #[test]
    fn gather_fault_predicates_are_deterministic_and_rated() {
        let plan = FaultPlan::gather_flips(11, 16384)
            .with_stale_reads(16384)
            .with_torn_gathers(16384);
        assert!(plan.corrupts_reads());
        assert!(!plan.violates_els(), "read faults are not write faults");
        assert!(plan.needs_stale_shadow());
        let flips: Vec<Option<u32>> = (0..4096).map(|l| plan.gather_flipped(1, l)).collect();
        let fired = flips.iter().filter(|f| f.is_some()).count();
        assert!((600..1500).contains(&fired), "~25% of 4096, got {fired}");
        assert!(flips.iter().flatten().all(|&b| b < 64));
        let replay: Vec<Option<u32>> = (0..4096).map(|l| plan.gather_flipped(1, l)).collect();
        assert_eq!(flips, replay);
        let stale = (0..4096).filter(|&l| plan.stale_read(1, l)).count();
        let torn = (0..4096).filter(|&l| plan.torn_gather(1, l)).count();
        assert!((600..1500).contains(&stale), "{stale}");
        assert!((600..1500).contains(&torn), "{torn}");
    }

    #[test]
    fn gather_faults_respect_the_window() {
        let plan = FaultPlan::gather_flips(5, u16::MAX).with_window(10, 20);
        assert!(plan.gather_flipped(9, 0).is_none());
        assert!(plan.gather_flipped(10, 0).is_some());
        assert!(plan.gather_flipped(20, 0).is_none());
    }

    #[test]
    fn bit_rot_rate_decays_by_half_lives() {
        let plan = FaultPlan::bit_rot(7, 32768);
        assert!(plan.rots_memory());
        assert!(!plan.violates_els());
        assert_eq!(plan.rot_rate_at(0), 32768);
        assert_eq!(plan.rot_rate_at(FaultPlan::ROT_HALF_LIFE - 1), 32768);
        assert_eq!(plan.rot_rate_at(FaultPlan::ROT_HALF_LIFE), 16384);
        assert_eq!(plan.rot_rate_at(4 * FaultPlan::ROT_HALF_LIFE), 2048);
        // After enough half-lives the adversary is genuinely gone.
        assert_eq!(plan.rot_rate_at(16 * FaultPlan::ROT_HALF_LIFE), 0);
        assert_eq!(plan.rotted(16 * FaultPlan::ROT_HALF_LIFE, 3), None);
        // Early on it fires deterministically at a roughly honoured rate.
        let fired = (0..4096u64)
            .filter(|&a| plan.rotted(1, a as Addr).is_some())
            .count();
        assert!((1300..2800).contains(&fired), "~50% of 4096, got {fired}");
    }

    #[test]
    fn read_and_rot_events_are_counted_by_kind() {
        let mut log = FaultLog::default();
        log.record(FaultEvent::GatherFlip {
            sequence: 1,
            lane: 0,
            addr: 2,
            bit: 5,
        });
        log.record(FaultEvent::StaleRead {
            sequence: 1,
            lane: 1,
            addr: 3,
            stale: -7,
        });
        log.record(FaultEvent::TornGather {
            sequence: 2,
            lane: 0,
            addr: 4,
            amalgam: 9,
        });
        log.record(FaultEvent::BitRot {
            sequence: 3,
            addr: 5,
            bit: 63,
        });
        assert_eq!(log.gather_flips(), 1);
        assert_eq!(log.stale_reads(), 1);
        assert_eq!(log.torn_gathers(), 1);
        assert_eq!(log.bit_rots(), 1);
        assert_eq!(log.read_faults(), 3);
        let s = log.summary();
        assert!(s.contains("3 read fault(s)"), "{s}");
        assert!(s.contains("1 rotted word(s)"), "{s}");
        assert!(s.contains("3 scatter(s)"), "{s}");
    }
}
