//! Per-lane health tracking — the substrate for graceful degradation.
//!
//! The fault model ([`crate::fault`]) can make individual *physical lanes*
//! misbehave: a sticky lane drops every write it is asked to perform, a
//! stochastic plan drops writes at a seeded rate. PRs 1–2 taught the stack to
//! detect such faults (validation) and to undo their damage (transactional
//! rollback), but recovery was all-or-nothing: one sick lane forced the
//! retry ladder off the vector unit entirely, even with 63 of 64 lanes
//! healthy.
//!
//! This module supplies the two missing pieces:
//!
//! * [`LaneSet`] — a `Copy` bitmask of the machine's [`LANE_COUNT`] physical
//!   lanes, used both as the machine's **execution mask** (which lanes
//!   participate in vector instructions) and as the quarantine set carried
//!   by `fol-core`'s `ExecMode::DegradedVector` rung.
//! * [`LaneHealthRegistry`] — per-lane exponentially-decayed fault scores,
//!   fed by the machine every time a scatter fault is attributed to a lane
//!   and every time a transaction rolls back. A lane whose score crosses the
//!   quarantine threshold is quarantined; a circuit breaker
//!   ([`Machine::probe_lane`](crate::Machine::probe_lane)) re-probes
//!   quarantined lanes with a sacrificial scatter–gather self-test and
//!   restores them on success.
//!
//! Scores are integer fixed-point and decay by halving per elapsed
//! [`half-life`](LaneHealthRegistry::with_half_life) of scatter sequence
//! numbers, so the registry is a pure function of the machine's instruction
//! stream — deterministic and replayable like everything else in the
//! simulator.

/// Number of physical vector lanes the simulated machine schedules elements
/// onto. Element `p` of a vector instruction executes on physical lane
/// `p mod LANE_COUNT` when every lane is active; quarantining lanes reduces
/// the effective width and remaps elements onto the surviving lanes.
pub const LANE_COUNT: usize = 64;

/// A set of physical lanes, packed into a `u64` bitmask (bit `i` ⇔ lane `i`).
///
/// `Copy` on purpose: `fol-core` embeds a `LaneSet` in its `ExecMode` enum,
/// which must stay `Copy` for the retry ladder.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LaneSet(u64);

impl LaneSet {
    /// The empty set.
    pub const fn empty() -> Self {
        Self(0)
    }

    /// Every lane of the machine.
    pub const fn all() -> Self {
        Self(u64::MAX)
    }

    /// The singleton set `{lane}`.
    ///
    /// # Panics
    /// Panics when `lane >= LANE_COUNT`.
    pub fn single(lane: usize) -> Self {
        assert!(lane < LANE_COUNT, "lane {lane} out of range");
        Self(1 << lane)
    }

    /// A set from a raw bitmask (bit `i` ⇔ lane `i`).
    pub const fn from_bits(bits: u64) -> Self {
        Self(bits)
    }

    /// The raw bitmask.
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// Adds `lane` to the set.
    ///
    /// # Panics
    /// Panics when `lane >= LANE_COUNT`.
    pub fn insert(&mut self, lane: usize) {
        assert!(lane < LANE_COUNT, "lane {lane} out of range");
        self.0 |= 1 << lane;
    }

    /// Removes `lane` from the set (no-op when absent or out of range).
    pub fn remove(&mut self, lane: usize) {
        if lane < LANE_COUNT {
            self.0 &= !(1 << lane);
        }
    }

    /// Whether `lane` is in the set.
    pub fn contains(self, lane: usize) -> bool {
        lane < LANE_COUNT && (self.0 >> lane) & 1 == 1
    }

    /// Number of lanes in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True when no lane is in the set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Set union.
    pub fn union(self, other: Self) -> Self {
        Self(self.0 | other.0)
    }

    /// Lanes in `self` but not in `other`.
    pub fn difference(self, other: Self) -> Self {
        Self(self.0 & !other.0)
    }

    /// Iterates the member lanes in ascending order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        (0..LANE_COUNT).filter(move |&l| self.contains(l))
    }
}

impl FromIterator<usize> for LaneSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = Self::empty();
        for lane in iter {
            s.insert(lane);
        }
        s
    }
}

impl std::fmt::Display for LaneSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return f.write_str("{}");
        }
        write!(f, "{{")?;
        for (i, lane) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{lane}")?;
        }
        write!(f, "}}")
    }
}

/// Weight added to a lane's score for each scatter fault attributed to it.
const FAULT_WEIGHT: u32 = 16;
/// Weight added to every already-implicated lane when a transaction rolls
/// back — rollbacks escalate suspicion on the lanes the fault log blames.
const ROLLBACK_WEIGHT: u32 = 8;

/// Per-lane fault accounting with exponential decay, quarantine and
/// circuit-breaker bookkeeping.
///
/// The [`Machine`](crate::Machine) owns one and feeds it automatically:
/// every scatter fault attributable to a physical lane bumps that lane's
/// score ([`LaneHealthRegistry::note_lane_fault`]); every transaction abort
/// bumps all currently-implicated lanes
/// ([`LaneHealthRegistry::note_rollback`]). When a score crosses the
/// threshold the lane is quarantined. Quarantine is advisory state — it does
/// not change machine behaviour by itself; a supervisor (fol-core's
/// `recover` module) reads [`LaneHealthRegistry::quarantined`] and installs
/// the complement as the machine's execution mask.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaneHealthRegistry {
    scores: [u32; LANE_COUNT],
    /// Scatter sequence at which each lane's score was last decayed.
    last_seen: [u64; LANE_COUNT],
    quarantined: LaneSet,
    threshold: u32,
    half_life: u64,
    probe_cooldown: u64,
    last_probe: [u64; LANE_COUNT],
    trips: u64,
    restores: u64,
}

impl Default for LaneHealthRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl LaneHealthRegistry {
    /// A registry with default tuning: threshold 48 (three faults in quick
    /// succession quarantine a lane), half-life 64 scatters, probe cooldown
    /// 4 scatters.
    pub fn new() -> Self {
        Self {
            scores: [0; LANE_COUNT],
            last_seen: [0; LANE_COUNT],
            quarantined: LaneSet::empty(),
            threshold: 48,
            half_life: 64,
            probe_cooldown: 4,
            last_probe: [0; LANE_COUNT],
            trips: 0,
            restores: 0,
        }
    }

    /// Replaces the score half-life (in scatter sequence numbers).
    pub fn with_half_life(mut self, half_life: u64) -> Self {
        self.half_life = half_life.max(1);
        self
    }

    /// Replaces the circuit breaker's re-probe cooldown (in scatter
    /// sequence numbers).
    pub fn with_probe_cooldown(mut self, cooldown: u64) -> Self {
        self.probe_cooldown = cooldown;
        self
    }

    /// Decays `lane`'s score to the present (`seq`), halving per elapsed
    /// half-life.
    fn decay(&mut self, lane: usize, seq: u64) {
        let elapsed = seq.saturating_sub(self.last_seen[lane]);
        let halvings = (elapsed / self.half_life).min(31) as u32;
        self.scores[lane] >>= halvings;
        self.last_seen[lane] = seq;
    }

    /// Attributes one scatter fault at sequence `seq` to physical `lane`.
    /// Quarantines the lane when its decayed score crosses the threshold.
    pub fn note_lane_fault(&mut self, lane: usize, seq: u64) {
        if lane >= LANE_COUNT {
            return;
        }
        self.decay(lane, seq);
        self.scores[lane] = self.scores[lane].saturating_add(FAULT_WEIGHT);
        if self.scores[lane] >= self.threshold && !self.quarantined.contains(lane) {
            self.quarantined.insert(lane);
            self.trips += 1;
        }
    }

    /// Correlates a transaction rollback with lane health: every lane with a
    /// nonzero score (i.e. implicated by the fault log since it last decayed
    /// out) is bumped by an extra weight, on the theory that the rollback
    /// was most likely their fault.
    pub fn note_rollback(&mut self, seq: u64) {
        for lane in 0..LANE_COUNT {
            if self.scores[lane] == 0 {
                continue;
            }
            self.decay(lane, seq);
            if self.scores[lane] == 0 {
                continue;
            }
            self.scores[lane] = self.scores[lane].saturating_add(ROLLBACK_WEIGHT);
            if self.scores[lane] >= self.threshold && !self.quarantined.contains(lane) {
                self.quarantined.insert(lane);
                self.trips += 1;
            }
        }
    }

    /// The current quarantine set.
    pub fn quarantined(&self) -> LaneSet {
        self.quarantined
    }

    /// The complement of the quarantine set over the machine's lanes.
    pub fn healthy(&self) -> LaneSet {
        LaneSet::from_bits(!self.quarantined.bits())
    }

    /// Whether `lane` is quarantined.
    pub fn is_quarantined(&self, lane: usize) -> bool {
        self.quarantined.contains(lane)
    }

    /// `lane`'s current (undecayed) score — diagnostic only.
    pub fn score(&self, lane: usize) -> u32 {
        if lane < LANE_COUNT {
            self.scores[lane]
        } else {
            0
        }
    }

    /// Manually quarantines `lane` (e.g. a test pinning a known-bad lane).
    pub fn quarantine(&mut self, lane: usize) {
        if lane < LANE_COUNT && !self.quarantined.contains(lane) {
            self.quarantined.insert(lane);
            self.trips += 1;
        }
    }

    /// Manually restores `lane`, clearing its score.
    pub fn restore(&mut self, lane: usize) {
        if self.quarantined.contains(lane) {
            self.quarantined.remove(lane);
            self.scores[lane] = 0;
            self.restores += 1;
        }
    }

    /// Whether the circuit breaker should re-probe `lane` at sequence
    /// `seq`: the lane is quarantined and at least the probe cooldown has
    /// elapsed since its last probe.
    pub fn probe_due(&self, lane: usize, seq: u64) -> bool {
        lane < LANE_COUNT
            && self.quarantined.contains(lane)
            && seq.saturating_sub(self.last_probe[lane]) >= self.probe_cooldown
    }

    /// Records the outcome of a circuit-breaker probe of `lane` at sequence
    /// `seq`. A passing probe restores the lane and clears its score; a
    /// failing probe leaves it quarantined and restarts the cooldown.
    pub fn record_probe(&mut self, lane: usize, seq: u64, passed: bool) {
        if lane >= LANE_COUNT {
            return;
        }
        self.last_probe[lane] = seq;
        if passed {
            self.restore(lane);
        }
    }

    /// Number of quarantine trips so far (manual and automatic).
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Number of restores so far (manual and probe-driven).
    pub fn restores(&self) -> u64 {
        self.restores
    }

    /// One-line digest, e.g. `"2 lane(s) quarantined {3,17}; 2 trip(s), 0
    /// restore(s)"`.
    pub fn summary(&self) -> String {
        format!(
            "{} lane(s) quarantined {}; {} trip(s), {} restore(s)",
            self.quarantined.len(),
            self.quarantined,
            self.trips,
            self.restores,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_set_basics() {
        let mut s = LaneSet::empty();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        s.insert(0);
        s.insert(63);
        s.insert(5);
        assert!(s.contains(0) && s.contains(5) && s.contains(63));
        assert!(!s.contains(6));
        assert_eq!(s.len(), 3);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 5, 63]);
        s.remove(5);
        assert!(!s.contains(5));
        assert_eq!(s.len(), 2);
        assert_eq!(LaneSet::all().len(), LANE_COUNT);
        assert!(!LaneSet::from_bits(0).contains(64));
    }

    #[test]
    fn lane_set_algebra_and_display() {
        let a: LaneSet = [1usize, 2, 3].into_iter().collect();
        let b = LaneSet::single(2);
        assert_eq!(a.union(b), a);
        assert_eq!(a.difference(b).iter().collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(format!("{}", a), "{1,2,3}");
        assert_eq!(format!("{}", LaneSet::empty()), "{}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn lane_set_insert_rejects_out_of_range() {
        LaneSet::empty().insert(LANE_COUNT);
    }

    #[test]
    fn repeated_faults_trip_quarantine() {
        let mut r = LaneHealthRegistry::new();
        assert!(r.quarantined().is_empty());
        for seq in 0..3 {
            r.note_lane_fault(7, seq);
        }
        assert!(r.is_quarantined(7), "score {}", r.score(7));
        assert_eq!(r.trips(), 1);
        // Other lanes unaffected.
        assert!(!r.is_quarantined(6));
        assert_eq!(r.quarantined(), LaneSet::single(7));
    }

    #[test]
    fn scores_decay_with_scatter_distance() {
        let mut r = LaneHealthRegistry::new().with_half_life(8);
        r.note_lane_fault(3, 0);
        r.note_lane_fault(3, 1);
        // Two faults close together: 32 < 48, still healthy.
        assert!(!r.is_quarantined(3));
        // A third fault far in the future lands on a decayed score.
        r.note_lane_fault(3, 1000);
        assert!(!r.is_quarantined(3), "decay must forgive ancient faults");
        assert_eq!(r.score(3), FAULT_WEIGHT);
    }

    #[test]
    fn rollback_escalates_implicated_lanes_only() {
        let mut r = LaneHealthRegistry::new();
        r.note_lane_fault(2, 10);
        r.note_lane_fault(2, 11);
        r.note_rollback(12);
        r.note_rollback(13);
        assert!(r.is_quarantined(2), "2×16 + 2×8 = 48 ≥ threshold");
        assert_eq!(r.score(0), 0, "clean lanes are never blamed");
    }

    #[test]
    fn probe_cooldown_and_restore() {
        let mut r = LaneHealthRegistry::new().with_probe_cooldown(10);
        r.quarantine(9);
        assert!(r.probe_due(9, 10));
        r.record_probe(9, 10, false);
        assert!(r.is_quarantined(9));
        assert!(!r.probe_due(9, 15), "cooldown not yet elapsed");
        assert!(r.probe_due(9, 20));
        r.record_probe(9, 20, true);
        assert!(!r.is_quarantined(9));
        assert_eq!(r.restores(), 1);
        assert_eq!(r.score(9), 0, "restore clears the score");
        assert!(!r.probe_due(9, 100), "healthy lanes are not probed");
    }

    #[test]
    fn summary_is_human_readable() {
        let mut r = LaneHealthRegistry::new();
        r.quarantine(1);
        r.quarantine(4);
        let s = r.summary();
        assert!(s.contains("2 lane(s) quarantined {1,4}"), "{s}");
        assert!(s.contains("2 trip(s)"), "{s}");
    }
}
