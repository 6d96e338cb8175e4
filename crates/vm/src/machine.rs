//! The simulated machine: memory + cost meter + conflict policy.
//!
//! Instruction methods are grouped the way a vector ISA manual would group
//! them: memory (contiguous), memory (indirect / list-vector), elementwise
//! ALU, compares and masks, data movement (compress/expand/select), and
//! reductions. Every method charges its cost through the [`CostModel`] and
//! records itself in [`Stats`] (and in the optional [`Tracer`]).
//!
//! Scalar baselines run on the *same* machine through the `s_*` methods so
//! that scalar and vector cycle counts are commensurable — the paper's
//! acceleration ratios are computed exactly this way (same machine, same
//! memory, two code paths).

use crate::backend::{self, BackendKind, LaneEngine, ScalarEngine};
use crate::conflict::{AdversaryState, ConflictPolicy};
use crate::cost::{CostModel, OpKind, Stats};
use crate::fault::{FaultEvent, FaultLog, FaultPlan};
use crate::health::{LaneHealthRegistry, LaneSet, LANE_COUNT};
use crate::integrity::{
    block_range, digest_words, mix, BlockScrub, CutBaseline, ElsAuditor, IntegrityError,
    RegionGuard, TrackedRegion, BLOCK_WORDS,
};
use crate::journal::{Snapshot, TxnError, WriteJournal};
use crate::memory::{Addr, Memory, Region};
use crate::trace::Tracer;
use crate::vreg::{Mask, VReg, Word};

/// Elementwise ALU operations (vector-vector or vector-scalar).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // arithmetic names are self-describing
pub enum AluOp {
    Add,
    Sub,
    Mul,
    /// Truncating division. Division by zero raises a
    /// [`MachineTrap::DivideByZero`]; the panicking instruction forms abort
    /// with the trap message, the `try_*` forms return it.
    Div,
    /// Remainder with the sign of the dividend (Rust `%`).
    Rem,
    /// Euclidean modulus (always non-negative) — the paper's `mod`.
    Mod,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Min,
    Max,
}

/// A typed machine trap — the simulator's analogue of a hardware exception.
///
/// Instructions that can trap exist in two forms: the classic panicking form
/// (`valu`, matching how an unhandled trap aborts a job) and a fallible
/// `try_*` form that returns the trap as a value, which the hardened
/// execution paths in `fol-core` surface as `FolError::Trap`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MachineTrap {
    /// Integer division, remainder or modulus by zero.
    DivideByZero {
        /// The trapping operation (`Div`, `Rem` or `Mod`).
        op: AluOp,
        /// Vector lane (element position) that trapped; 0 for scalar forms.
        lane: usize,
    },
}

impl std::fmt::Display for MachineTrap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineTrap::DivideByZero { op, lane } => {
                write!(f, "machine trap: {op:?} by zero in lane {lane}")
            }
        }
    }
}

impl std::error::Error for MachineTrap {}

impl AluOp {
    /// Applies the operation, returning `None` on a trapping condition
    /// (division, remainder or modulus by zero). All arithmetic wraps,
    /// including the `i64::MIN / -1` overflow corner.
    #[inline]
    pub fn checked_apply(self, a: Word, b: Word) -> Option<Word> {
        match self {
            AluOp::Add => Some(a.wrapping_add(b)),
            AluOp::Sub => Some(a.wrapping_sub(b)),
            AluOp::Mul => Some(a.wrapping_mul(b)),
            AluOp::Div => (b != 0).then(|| a.wrapping_div(b)),
            AluOp::Rem => (b != 0).then(|| a.wrapping_rem(b)),
            AluOp::Mod => (b != 0).then(|| a.wrapping_rem_euclid(b)),
            AluOp::And => Some(a & b),
            AluOp::Or => Some(a | b),
            AluOp::Xor => Some(a ^ b),
            AluOp::Shl => Some(a.wrapping_shl(b as u32)),
            AluOp::Shr => Some(a.wrapping_shr(b as u32)),
            AluOp::Min => Some(a.min(b)),
            AluOp::Max => Some(a.max(b)),
        }
    }

    /// Applies the operation, panicking with the trap message on a trapping
    /// condition (an unhandled trap aborts the job).
    #[inline]
    #[track_caller]
    pub fn apply(self, a: Word, b: Word) -> Word {
        self.checked_apply(a, b)
            .unwrap_or_else(|| panic!("{}", MachineTrap::DivideByZero { op: self, lane: 0 }))
    }
}

/// Comparison predicates producing masks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Applies the predicate to one element pair.
    #[inline]
    pub fn apply(self, a: Word, b: Word) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// What a tracked word change owes beyond its digests.
#[derive(Clone, Copy)]
enum Upkeep {
    /// An address's first store inside a transaction: its block joins the
    /// footprint.
    Footprint,
    /// A store outside a transaction: the committed image takes the word.
    Image,
    /// A repeated store inside a transaction (its block is already in the
    /// footprint), or a rollback to a pre-image (the image is left alone).
    DigestsOnly,
}

impl Upkeep {
    /// The upkeep of a store whose journal note returned `note` (`None`
    /// outside a transaction).
    #[inline]
    fn of_note(note: Option<bool>) -> Self {
        match note {
            Some(true) => Upkeep::Footprint,
            Some(false) => Upkeep::DigestsOnly,
            None => Upkeep::Image,
        }
    }
}

/// Where one op's words sit among the tracked regions, resolved once per
/// op ([`Machine::span_of`]).
#[derive(Clone, Copy)]
enum Span {
    /// No tracked region holds any word of the op's region.
    Untracked,
    /// Tracked region `i` holds the whole op's region, and no other
    /// tracked region holds any word of it.
    Tracked(usize),
    /// Anything else: each word finds its tracked regions itself.
    Mixed,
}

/// Folds one word change at `addr` — its digest delta `d` and its new
/// word — into tracked region `t` (which holds `addr`) and its guard `g`.
#[inline]
fn fold_change(
    t: &mut TrackedRegion,
    g: &mut RegionGuard,
    addr: Addr,
    d: u64,
    new: Word,
    upkeep: Upkeep,
) {
    let off = addr - t.region.base();
    let b = off / BLOCK_WORDS;
    t.sum ^= d;
    g.blocks[b] ^= d;
    match upkeep {
        Upkeep::Footprint => g.touch(b),
        Upkeep::Image => g.image[off] = new,
        Upkeep::DigestsOnly => {}
    }
}

/// The simulated vector machine.
pub struct Machine {
    mem: Memory,
    cost: CostModel,
    stats: Stats,
    policy: ConflictPolicy,
    scatter_seq: u64,
    tracer: Option<Tracer>,
    phases: Vec<(String, Stats)>,
    adversary: AdversaryState,
    fault_plan: Option<FaultPlan>,
    fault_log: FaultLog,
    /// Open transaction's undo log; `None` when no transaction is open.
    journal: Option<WriteJournal>,
    /// Execution mask: the physical lanes vector instructions may schedule
    /// elements onto. Always nonempty; defaults to every lane.
    active_lanes: LaneSet,
    /// Per-lane fault accounting, fed automatically by the scatter paths and
    /// by transaction aborts.
    health: LaneHealthRegistry,
    /// Ladder rung the retry supervisor starts its next run at; see
    /// [`Machine::start_rung`]. Volatile: a fresh machine holds 0.
    start_rung: usize,
    /// Cached sacrificial region for [`Machine::probe_lane`].
    probe_region: Option<Region>,
    /// Checksummed regions: incremental digests maintained by every
    /// instruction-level store, verified by [`Machine::scrub`].
    tracked: Vec<TrackedRegion>,
    /// Per tracked region (same index): block digests, committed image
    /// and the open transaction's footprint bits (every tracked block it
    /// stored to or read).
    guards: Vec<RegionGuard>,
    /// The block digests of the last two checkpoint cuts of distinct state
    /// ([`Machine::remember_cut`]), oldest first. Behind a lock because
    /// cuts are taken through `&Machine`.
    cuts: std::sync::Mutex<Vec<std::sync::Arc<CutBaseline>>>,
    /// Scratch of [`Machine::store_last_wins`]: one bit per word of the
    /// op's region, set for the addresses the op already stored and
    /// cleared again before the op returns. Grown on first use to the
    /// largest region scattered into.
    stored_scratch: Vec<u64>,
    /// The ELS auditor, when round auditing is enabled
    /// ([`Machine::set_els_audit`]); `None` costs nothing on the hot paths.
    auditor: Option<ElsAuditor>,
    /// The last disabled auditor, whose storage the next enabled one
    /// reuses: a transaction run installs an auditor and drops it again.
    parked_auditor: Option<ElsAuditor>,
    /// Gather sequence counter — the read-side analogue of `scatter_seq`,
    /// so gather faults draw fresh deterministic coins per instruction.
    gather_seq: u64,
    /// Previous value of each written address, kept only while the fault
    /// plan can serve stale reads (so the fault has something real to
    /// return).
    stale_shadow: std::collections::HashMap<Addr, Word>,
    /// The execution backend performing data-plane compute on the paths
    /// where the control plane (faults, journal, checksums, non-last-wins
    /// policies) cannot observe how elements are computed. Every engine is
    /// held to bit-identical results; see [`crate::backend`].
    engine: Box<dyn LaneEngine>,
}

impl Machine {
    /// A machine with the given cost model, default ([`ConflictPolicy::LastWins`])
    /// conflict policy and tracing off.
    pub fn new(cost: CostModel) -> Self {
        Self {
            mem: Memory::new(),
            cost,
            stats: Stats::new(),
            policy: ConflictPolicy::default(),
            scatter_seq: 0,
            tracer: None,
            phases: Vec::new(),
            adversary: AdversaryState::new(),
            fault_plan: None,
            fault_log: FaultLog::default(),
            journal: None,
            active_lanes: LaneSet::all(),
            health: LaneHealthRegistry::new(),
            start_rung: 0,
            probe_region: None,
            tracked: Vec::new(),
            guards: Vec::new(),
            cuts: std::sync::Mutex::new(Vec::new()),
            stored_scratch: Vec::new(),
            auditor: None,
            parked_auditor: None,
            gather_seq: 0,
            stale_shadow: std::collections::HashMap::new(),
            engine: Box::new(ScalarEngine),
        }
    }

    /// A machine with an explicit conflict policy.
    pub fn with_policy(cost: CostModel, policy: ConflictPolicy) -> Self {
        Self {
            policy,
            ..Self::new(cost)
        }
    }

    /// A machine computing on an explicit execution backend (see
    /// [`crate::backend`]; the default is the portable [`ScalarEngine`]).
    pub fn with_engine(cost: CostModel, engine: Box<dyn LaneEngine>) -> Self {
        Self {
            engine,
            ..Self::new(cost)
        }
    }

    /// The active execution backend's stable name (`"scalar"` or `"avx2"`).
    pub fn engine_name(&self) -> &'static str {
        self.engine.kind().as_str()
    }

    /// The active execution backend's [`BackendKind`].
    pub fn backend_kind(&self) -> BackendKind {
        self.engine.kind()
    }

    // ------------------------------------------------------------------
    // Configuration, statistics, memory plumbing
    // ------------------------------------------------------------------

    /// The active conflict policy.
    pub fn policy(&self) -> &ConflictPolicy {
        &self.policy
    }

    /// Replaces the conflict policy (e.g. to re-run a workload under another
    /// ELS-conforming interleaving). The adversary's cross-scatter memory is
    /// reset so runs under the new policy start fresh.
    pub fn set_policy(&mut self, policy: ConflictPolicy) {
        self.policy = policy;
        self.adversary.reset();
    }

    /// Installs (or with `None`, removes) a scatter [`FaultPlan`]. Faults
    /// injected from here on are recorded in [`Machine::fault_log`].
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault_plan = plan;
    }

    /// The active fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// The faults injected so far.
    pub fn fault_log(&self) -> &FaultLog {
        &self.fault_log
    }

    /// Clears the fault log (the plan stays installed).
    pub fn clear_fault_log(&mut self) {
        self.fault_log = FaultLog::default();
    }

    // ------------------------------------------------------------------
    // Lane health & execution masks (graceful degradation)
    // ------------------------------------------------------------------

    /// The execution mask: physical lanes vector instructions may use.
    pub fn active_lanes(&self) -> LaneSet {
        self.active_lanes
    }

    /// Installs an execution mask. Elements of every subsequent vector
    /// instruction are scheduled round-robin onto the active lanes only, so
    /// the same program runs at reduced effective width — index vectors are
    /// *not* rewritten, sick lanes are simply never used, and the cost model
    /// charges proportionally more chimes per element.
    ///
    /// An empty set is coerced to all lanes (a machine with zero lanes
    /// cannot execute anything).
    pub fn set_active_lanes(&mut self, lanes: LaneSet) {
        self.active_lanes = if lanes.is_empty() {
            LaneSet::all()
        } else {
            lanes
        };
    }

    /// The per-lane health registry (fault scores, quarantine set).
    pub fn health(&self) -> &LaneHealthRegistry {
        &self.health
    }

    /// Mutable access to the health registry (manual quarantine/restore).
    pub fn health_mut(&mut self) -> &mut LaneHealthRegistry {
        &mut self.health
    }

    /// The start-rung hint of `fol-core`'s retry supervisor: the index into
    /// its escalation ladder (by default `Vector`, `DegradedVector`,
    /// `ScalarTail`) at which the next supervised run on this machine
    /// starts, clamped to the ladder's last rung. A commit records the rung
    /// it committed on. A first-attempt commit steps it back one rung,
    /// unless it committed on `DegradedVector`, which folds in the current
    /// quarantine and so already runs at full width once every lane is
    /// restored. A run that starts on `DegradedVector` and fails there
    /// moves on to the next rung at once; a later degraded failure holds
    /// the rung while the quarantine grows. Volatile like the health
    /// registry: it lives only in memory, so a fresh (or restarted) machine
    /// starts at rung 0.
    pub fn start_rung(&self) -> usize {
        self.start_rung
    }

    /// Replaces the start-rung hint (see [`Machine::start_rung`]).
    pub fn set_start_rung(&mut self, rung: usize) {
        self.start_rung = rung;
    }

    /// The physical lane element `p` of a vector instruction executes on
    /// under the current execution mask: the `(p mod w)`-th active lane,
    /// where `w` is the mask's population count.
    pub fn physical_lane(&self, p: usize) -> usize {
        if self.active_lanes == LaneSet::all() {
            return p % LANE_COUNT;
        }
        let w = self.active_lanes.len();
        let target = p % w;
        self.active_lanes
            .iter()
            .nth(target)
            .expect("active_lanes is never empty")
    }

    /// Circuit-breaker self-test: routes a small sacrificial scatter–gather
    /// exclusively through physical `lane` and checks every write landed.
    /// The probe uses a dedicated scratch region (never workload memory),
    /// records its outcome in the health registry
    /// ([`LaneHealthRegistry::record_probe`] — a passing probe restores a
    /// quarantined lane), and returns whether the lane behaved.
    ///
    /// The probe's scatter and gather charge cycles and bump the scatter
    /// sequence like any other instruction: sacrificing a little throughput
    /// to re-earn trust in a lane is exactly the trade the circuit breaker
    /// makes.
    pub fn probe_lane(&mut self, lane: usize) -> bool {
        const PROBE_N: usize = 8;
        assert!(lane < LANE_COUNT, "lane {lane} out of range");
        let region = match self.probe_region {
            Some(r) => r,
            None => {
                let r = self.mem.alloc_scratch(PROBE_N);
                self.probe_region = Some(r);
                r
            }
        };
        let prev = self.active_lanes;
        self.active_lanes = LaneSet::single(lane);
        // A per-probe nonce keeps stale values from an earlier probe of the
        // same lane from masquerading as a successful write-back.
        let nonce = (self.scatter_seq as Word).wrapping_mul(0x9E37) ^ ((lane as Word) << 16);
        let idx: VReg = (0..PROBE_N).map(|i| i as Word).collect();
        let val: VReg = (0..PROBE_N).map(|i| nonce ^ (i as Word + 1)).collect();
        self.scatter(region, &idx, &val);
        let back = self.gather(region, &idx);
        self.active_lanes = prev;
        let ok = back.as_slice() == val.as_slice();
        let seq = self.scatter_seq;
        self.health.record_probe(lane, seq, ok);
        ok
    }

    /// Runs the circuit breaker over every quarantined lane whose probe
    /// cooldown has elapsed, restoring the lanes that pass their self-test.
    /// Returns the set of restored lanes.
    pub fn reprobe_quarantined(&mut self) -> LaneSet {
        let mut restored = LaneSet::empty();
        for lane in self.health.quarantined().iter().collect::<Vec<_>>() {
            if self.health.probe_due(lane, self.scatter_seq) && self.probe_lane(lane) {
                restored.insert(lane);
            }
        }
        restored
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Statistics accumulated since `since` (a clone of an earlier
    /// [`Machine::stats`]).
    pub fn stats_since(&self, since: &Stats) -> Stats {
        since.delta(&self.stats)
    }

    /// Resets the cycle meter (memory contents are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = Stats::new();
    }

    /// Runs `f` as a named phase, recording its cycle delta separately
    /// (retrievable via [`Machine::phases`]). Phases nest by concatenation,
    /// not hierarchy: each call appends one entry.
    pub fn measure_phase<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        let before = self.stats.clone();
        let out = f(self);
        let delta = before.delta(&self.stats);
        self.phases.push((name.to_string(), delta));
        out
    }

    /// Phase deltas recorded by [`Machine::measure_phase`], in order.
    pub fn phases(&self) -> &[(String, Stats)] {
        &self.phases
    }

    /// Clears recorded phases.
    pub fn clear_phases(&mut self) {
        self.phases.clear();
    }

    /// Turns instruction tracing on (clearing any previous trace).
    pub fn enable_trace(&mut self) {
        self.tracer = Some(Tracer::new());
    }

    /// Turns tracing off, returning the recording if there was one.
    pub fn take_trace(&mut self) -> Option<Tracer> {
        self.tracer.take()
    }

    /// Allocates a zeroed region (free; see [`Memory::alloc`]).
    pub fn alloc(&mut self, len: usize, name: &str) -> Region {
        self.mem.alloc(len, name)
    }

    /// Direct memory access for setup/assertions — no cycles charged.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable direct memory access for setup — no cycles charged.
    ///
    /// Writes through this handle **bypass the transaction journal** by
    /// design: it is setup/oracle access, not instruction execution. Inside
    /// an open transaction, mutate memory only through instruction methods
    /// (scatter, vstore, `s_write`, …) or the rollback will not cover it.
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    // ------------------------------------------------------------------
    // Transactions (journaled rollback)
    // ------------------------------------------------------------------

    /// Opens a transaction: from here until [`Machine::commit_txn`] or
    /// [`Machine::abort_txn`], every instruction-level store records the
    /// pre-image of its target address in a [`WriteJournal`].
    ///
    /// Journaling is a recovery mechanism, not a simulated instruction: it
    /// charges no cycles (a real machine would checkpoint through hardware
    /// or OS facilities outside the vector pipeline's cost model; the
    /// *modelled* overhead of the software journal is measured separately by
    /// the recovery benchmark).
    ///
    /// Nesting is rejected with [`TxnError::NestedTransaction`] — the
    /// journal is a single-level undo log.
    pub fn begin_txn(&mut self) -> Result<(), TxnError> {
        if self.journal.is_some() {
            return Err(TxnError::NestedTransaction);
        }
        self.journal = Some(WriteJournal::new());
        Ok(())
    }

    /// True while a transaction is open.
    pub fn in_txn(&self) -> bool {
        self.journal.is_some()
    }

    /// The open transaction's journal, for inspection mid-transaction.
    pub fn txn_journal(&self) -> Option<&WriteJournal> {
        self.journal.as_ref()
    }

    /// Closes the open transaction keeping all writes, returning the
    /// journal (useful for write-set statistics). The committed image
    /// receives every journaled word's last stored value — a cost
    /// proportional to the write set, not to the tracked regions.
    pub fn commit_txn(&mut self) -> Result<WriteJournal, TxnError> {
        let j = self.journal.take().ok_or(TxnError::NoTransaction)?;
        if !self.tracked.is_empty() {
            for (addr, w) in j.entries_stored() {
                for (t, g) in self.tracked.iter().zip(&mut self.guards) {
                    if t.region.contains(addr) {
                        g.image[addr - t.region.base()] = w;
                    }
                }
            }
        }
        self.clear_footprint();
        Ok(j)
    }

    /// Closes the open transaction restoring every journaled pre-image —
    /// memory is byte-exact as it was at [`Machine::begin_txn`] (for
    /// everything written through instruction methods; [`Machine::mem_mut`]
    /// writes bypass the journal). Returns the journal that was replayed.
    pub fn abort_txn(&mut self) -> Result<WriteJournal, TxnError> {
        let j = self.journal.take().ok_or(TxnError::NoTransaction)?;
        if self.tracked.is_empty() {
            j.rollback(&mut self.mem);
        } else {
            // Roll back through the checksum-maintaining path so tracked
            // digests stay in sync with the restored pre-images. Rot that
            // struck during the transaction is *not* absorbed: its term
            // stays folded into the digest, so a post-abort scrub still
            // reports the corruption. The committed image is untouched.
            for (addr, pre) in j.entries_rev() {
                let old = self.mem.read(addr);
                self.update_digests(addr, old, pre, Upkeep::DigestsOnly);
                self.mem.write(addr, pre);
            }
        }
        self.clear_footprint();
        // A rollback corroborates the fault log: lanes it has implicated
        // since their scores last decayed out get bumped towards quarantine.
        self.health.note_rollback(self.scatter_seq);
        Ok(j)
    }

    /// The single choke point for instruction-level stores: journals the
    /// pre-image when a transaction is open, maintains the incremental
    /// checksum of every tracked region the address falls in, feeds the
    /// stale-read shadow when the fault plan needs one, then writes.
    #[inline]
    fn store(&mut self, addr: Addr, w: Word) {
        let needs_old = self.journal.is_some()
            || !self.tracked.is_empty()
            || self
                .fault_plan
                .as_ref()
                .is_some_and(FaultPlan::needs_stale_shadow);
        if needs_old {
            let old = self.mem.read(addr);
            let upkeep = Upkeep::of_note(self.journal.as_mut().map(|j| j.note(addr, old, w)));
            if !self.tracked.is_empty() {
                self.update_digests(addr, old, w, upkeep);
            }
            if self
                .fault_plan
                .as_ref()
                .is_some_and(FaultPlan::needs_stale_shadow)
            {
                self.stale_shadow.insert(addr, old);
            }
        }
        self.mem.write(addr, w);
    }

    /// Folds one word change at `addr` into the region and block digests
    /// of every tracked region holding it, plus the `upkeep` the change
    /// owes beyond the digests.
    #[inline]
    fn update_digests(&mut self, addr: Addr, old: Word, new: Word, upkeep: Upkeep) {
        let d = mix(addr, old) ^ mix(addr, new);
        for (t, g) in self.tracked.iter_mut().zip(&mut self.guards) {
            if t.region.contains(addr) {
                fold_change(t, g, addr, d, new, upkeep);
            }
        }
    }

    /// Resolves where `region`'s words sit among the tracked regions.
    fn span_of(&self, region: Region) -> Span {
        let (lo, hi) = (region.base(), region.base() + region.len());
        let mut hit = None;
        for (i, t) in self.tracked.iter().enumerate() {
            let (a, b) = (t.region.base(), t.region.base() + t.region.len());
            if a < hi && lo < b {
                if hit.is_some() {
                    return Span::Mixed;
                }
                hit = Some(i);
            }
        }
        let Some(i) = hit else {
            return Span::Untracked;
        };
        let t = self.tracked[i].region;
        if t.base() <= lo && hi <= t.base() + t.len() {
            Span::Tracked(i)
        } else {
            Span::Mixed
        }
    }

    /// Stores `lanes` — `(address, word)` pairs inside `region`, already
    /// bounds-checked, in element order — last-wins, the paper's `VSTX`:
    /// where several lanes hit one address the last one lands. Walking the
    /// lanes backwards, the first lane met at an address is that one, so
    /// it is stored and the earlier lanes there, which it would overwrite,
    /// are skipped (a bit per region word, in a scratch kept between ops,
    /// marks the addresses already stored). Each store owes what
    /// [`Machine::store`] owes (journal note, digest delta, footprint mark
    /// or image word), but the tracked region is found once per op, not
    /// once per word. With no fault plan this ends exactly where resolving
    /// the winners by policy ends: memory, each address's first pre-image
    /// and last word in the journal, the digests, the footprint and the
    /// image.
    fn store_last_wins(
        &mut self,
        region: Region,
        lanes: impl DoubleEndedIterator<Item = (Addr, Word)> + Clone,
    ) {
        debug_assert!(
            self.fault_plan.is_none(),
            "faulted scatters resolve canonically"
        );
        let base = region.base();
        let mut stored = std::mem::take(&mut self.stored_scratch);
        let words = region.len().div_ceil(64);
        if stored.len() < words {
            stored.resize(words, 0);
        }
        let winners = lanes.clone().rev().filter(|&(addr, _)| {
            let (word, bit) = ((addr - base) / 64, 1u64 << ((addr - base) % 64));
            let first = stored[word] & bit == 0;
            stored[word] |= bit;
            first
        });
        match self.span_of(region) {
            Span::Mixed => {
                for (addr, w) in winners {
                    self.store(addr, w);
                }
            }
            span => {
                let mut guard = match span {
                    Span::Tracked(i) => Some((&mut self.tracked[i], &mut self.guards[i])),
                    _ => None,
                };
                for (addr, w) in winners {
                    let old = self.mem.read(addr);
                    let note = self.journal.as_mut().map(|j| j.note(addr, old, w));
                    if let Some((t, g)) = &mut guard {
                        let d = mix(addr, old) ^ mix(addr, w);
                        fold_change(t, g, addr, d, w, Upkeep::of_note(note));
                    }
                    self.mem.write(addr, w);
                }
            }
        }
        for (addr, _) in lanes {
            stored[(addr - base) / 64] = 0;
        }
        self.stored_scratch = stored;
    }

    /// True when reads must join a footprint: a transaction is open and
    /// something is tracked.
    #[inline]
    fn recording(&self) -> bool {
        self.journal.is_some() && !self.tracked.is_empty()
    }

    /// Adds the tracked blocks overlapping `[lo, lo + len)` to the open
    /// transaction's footprint.
    fn note_read_span(&mut self, lo: Addr, len: usize) {
        if len == 0 || !self.recording() {
            return;
        }
        for (t, g) in self.tracked.iter().zip(&mut self.guards) {
            let r = t.region;
            let (a, b) = (lo.max(r.base()), (lo + len).min(r.base() + r.len()));
            if a < b {
                for blk in (a - r.base()) / BLOCK_WORDS..=(b - 1 - r.base()) / BLOCK_WORDS {
                    g.touch(blk);
                }
            }
        }
    }

    /// Adds the tracked blocks a gather of `idx` from `region` read to the
    /// footprint. A dense gather — at least as many indices as the region
    /// spans blocks — marks the whole span instead of each index: a
    /// superset, so the footprint scrub checks a little more, never less.
    fn note_gather(&mut self, region: Region, idx: &[Word]) {
        if !self.recording() {
            return;
        }
        if idx.len() >= region.len().div_ceil(BLOCK_WORDS) {
            self.note_read_span(region.base(), region.len());
            return;
        }
        // Gathers bounds-check their indices first, so this is exact.
        match self.span_of(region) {
            Span::Untracked => {}
            Span::Tracked(t) => {
                let off = region.base() - self.tracked[t].region.base();
                let g = &mut self.guards[t];
                for &i in idx {
                    g.touch((off + i as usize) / BLOCK_WORDS);
                }
            }
            Span::Mixed => {
                for (t, g) in self.tracked.iter().zip(&mut self.guards) {
                    for &i in idx {
                        let addr = region.base() + i as usize;
                        if t.region.contains(addr) {
                            g.touch((addr - t.region.base()) / BLOCK_WORDS);
                        }
                    }
                }
            }
        }
    }

    fn clear_footprint(&mut self) {
        for g in &mut self.guards {
            g.touched.fill(0);
        }
    }

    /// The open transaction's footprint as `(tracked index, block)` pairs.
    fn footprint(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.guards
            .iter()
            .enumerate()
            .flat_map(|(i, g)| g.touched_blocks().map(move |b| (i, b)))
    }

    /// The digest memory holds for block `b` of tracked region `i`.
    fn block_digest_of_memory(&self, i: usize, b: usize) -> u64 {
        let r = self.tracked[i].region;
        let range = block_range(b, r.len());
        let base = r.base() + range.start;
        digest_words(base, &self.mem.words()[base..base + range.len()])
    }

    /// Restores block `b` of tracked region `i` from the committed image
    /// and recomputes its digest.
    fn repair_block(&mut self, i: usize, b: usize) {
        let r = self.tracked[i].region;
        let range = block_range(b, r.len());
        let base = r.base() + range.start;
        let g = &mut self.guards[i];
        let words = &g.image[range.clone()];
        self.mem.words_mut()[base..base + range.len()].copy_from_slice(words);
        let fresh = digest_words(base, words);
        self.tracked[i].sum ^= g.blocks[b] ^ fresh;
        g.blocks[b] = fresh;
    }

    // ------------------------------------------------------------------
    // Integrity: checksummed regions, scrub, ELS audit
    // ------------------------------------------------------------------

    /// Starts checksum tracking for `region`: the machine maintains an
    /// incremental digest of its contents, and one per
    /// [`BLOCK_WORDS`]-word block, on every instruction-level store in
    /// O(1) per store, and copies the current contents into its committed
    /// image. Tracking a region also exposes it to the fault plan's bit-rot
    /// — resident decay strikes the memory the integrity layer claims to
    /// protect, which is exactly the adversary [`Machine::scrub`] exists to
    /// catch.
    ///
    /// Re-tracking an already-tracked region recomputes nothing: a rescan
    /// would adopt whatever memory holds, rot included. Like journaling,
    /// integrity upkeep is a recovery mechanism, not a simulated
    /// instruction: no cycles are charged (its real cost is priced by the
    /// `integrity` bench).
    ///
    /// # Panics
    /// Panics inside a transaction: tracking happens between transactions,
    /// so the committed image never holds an uncommitted word.
    pub fn track_region(&mut self, region: Region) {
        assert!(
            !self.in_txn(),
            "track_region: regions are tracked between transactions"
        );
        if self.tracked.iter().any(|t| t.region == region) {
            return;
        }
        let name = self.mem.name_of(region).unwrap_or("(untitled)").to_string();
        let guard = RegionGuard::new(
            region.base(),
            &self.mem.words()[region.base()..region.base() + region.len()],
        );
        let sum = guard.sum();
        self.tracked.push(TrackedRegion { name, region, sum });
        self.guards.push(guard);
    }

    /// The tracked regions and their incremental digests.
    pub fn tracked_regions(&self) -> &[TrackedRegion] {
        &self.tracked
    }

    /// The incrementally maintained digest of each [`BLOCK_WORDS`]-word
    /// block of `region`, when it is tracked. Between transactions these
    /// are the digests of the committed image's blocks; they XOR to
    /// [`Machine::checksum_of`].
    pub fn block_digests(&self, region: Region) -> Option<&[u64]> {
        self.tracked
            .iter()
            .zip(&self.guards)
            .find(|(t, _)| t.region == region)
            .map(|(_, g)| g.blocks.as_slice())
    }

    /// Remembers the block digests a checkpoint cut certified, so a later
    /// delta whose parent is that cut can carry only the blocks that
    /// changed since it. Two cuts are kept: a cadence's delta names the
    /// newest, and a caller that cuts a full image beside it (at the same
    /// state) still finds the older parent. A cut whose state digest is
    /// already remembered replaces that entry. The record is volatile: a
    /// rebuilt machine remembers nothing until a cut (or a restore) is
    /// recorded on it, and a delta whose parent cut is not remembered
    /// falls back to whole dirty regions.
    pub fn remember_cut(&self, cut: CutBaseline) {
        let mut cuts = self
            .cuts
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        cuts.retain(|c| c.state != cut.state);
        cuts.push(std::sync::Arc::new(cut));
        if cuts.len() > 2 {
            cuts.remove(0);
        }
    }

    /// The remembered cut whose state digest is `state`, if any.
    pub fn cut_baseline(&self, state: u64) -> Option<std::sync::Arc<CutBaseline>> {
        self.cuts
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .find(|c| c.state == state)
            .cloned()
    }

    /// The incrementally maintained digest of `region`, if tracked.
    pub fn checksum_of(&self, region: Region) -> Option<u64> {
        self.tracked
            .iter()
            .find(|t| t.region == region)
            .map(|t| t.sum)
    }

    /// Walks every block of every tracked region, recomputing its digest
    /// from memory and comparing against the incrementally maintained one.
    /// A divergence means something wrote to memory behind the store path —
    /// bit-rot, by construction — and is reported as a typed
    /// [`IntegrityError::ChecksumMismatch`] naming the region.
    pub fn scrub(&self) -> Result<(), IntegrityError> {
        for (i, (t, g)) in self.tracked.iter().zip(&self.guards).enumerate() {
            let clean =
                (0..g.blocks.len()).all(|b| self.block_digest_of_memory(i, b) == g.blocks[b]);
            if !clean {
                return Err(IntegrityError::ChecksumMismatch {
                    region: t.name.clone(),
                    base: t.region.base(),
                    len: t.region.len(),
                    expected: t.sum,
                    actual: digest_words(t.region.base(), &self.mem.read_region(t.region)),
                });
            }
        }
        Ok(())
    }

    /// Verifies only the open transaction's footprint: every tracked block
    /// it stored to or read (through `gather`, `vload`, `s_read` and their
    /// variants). What an attempt commits depends on nothing else, so this
    /// is the pre-commit check at a cost proportional to the attempt, not
    /// to the tracked regions. Rot elsewhere is left for [`Machine::scrub`]
    /// (or the next transaction whose footprint reaches it). The error
    /// names the first mismatching block. `Ok` outside a transaction.
    pub fn scrub_footprint(&self) -> Result<(), IntegrityError> {
        for (i, b) in self.footprint() {
            let actual = self.block_digest_of_memory(i, b);
            let expected = self.guards[i].blocks[b];
            if actual != expected {
                let t = &self.tracked[i];
                let range = block_range(b, t.region.len());
                return Err(IntegrityError::ChecksumMismatch {
                    region: t.name.clone(),
                    base: t.region.base() + range.start,
                    len: range.len(),
                    expected,
                    actual,
                });
            }
        }
        Ok(())
    }

    /// Blocks in the open transaction's footprint (0 outside one).
    #[cfg(test)]
    fn footprint_blocks(&self) -> usize {
        self.footprint().count()
    }

    /// Restores every block whose digest mismatches from the committed
    /// image and recomputes its digest; returns the number of blocks
    /// repaired. Afterwards [`Machine::scrub`] is clean and every tracked
    /// word equals the committed image.
    ///
    /// # Panics
    /// Panics inside a transaction (the image lags the open transaction's
    /// stores, so restoring from it would undo them).
    pub fn repair_from_image(&mut self) -> usize {
        let total: usize = self.guards.iter().map(|g| g.blocks.len()).sum();
        self.scrub_blocks(0, total).repaired
    }

    /// One bounded scrub pass: verifies `count` blocks starting at
    /// `cursor` (an index into every tracked block, region after region,
    /// wrapping) and repairs each mismatching one from the committed image.
    /// The idle scrubber's unit of work — bounded, so a burst that arrives
    /// mid-pass never waits for a whole region.
    ///
    /// # Panics
    /// Panics inside a transaction, like [`Machine::repair_from_image`].
    pub fn scrub_blocks(&mut self, cursor: usize, count: usize) -> BlockScrub {
        assert!(
            !self.in_txn(),
            "scrub_blocks: repair runs between transactions"
        );
        let total: usize = self.guards.iter().map(|g| g.blocks.len()).sum();
        let mut out = BlockScrub::default();
        if total == 0 {
            return out;
        }
        let mut pos = cursor % total;
        for _ in 0..count.min(total) {
            let (mut i, mut b) = (0, pos);
            while b >= self.guards[i].blocks.len() {
                b -= self.guards[i].blocks.len();
                i += 1;
            }
            out.checked += 1;
            if self.block_digest_of_memory(i, b) != self.guards[i].blocks[b] {
                self.repair_block(i, b);
                out.repaired += 1;
            }
            pos = (pos + 1) % total;
        }
        out.next = pos;
        out
    }

    /// Resynchronizes every tracked digest, and the committed image, to the
    /// current memory contents — the accept-what-is step after an external
    /// restore (a checkpoint or snapshot written over the regions).
    ///
    /// # Panics
    /// Panics inside a transaction: the image must never hold an
    /// uncommitted word.
    pub fn resync_integrity(&mut self) {
        assert!(
            !self.in_txn(),
            "resync_integrity: the committed image is refreshed between transactions"
        );
        for (t, g) in self.tracked.iter_mut().zip(&mut self.guards) {
            let r = t.region;
            *g = RegionGuard::new(r.base(), &self.mem.words()[r.base()..r.base() + r.len()]);
            t.sum = g.sum();
        }
    }

    /// The committed image of `region` — its words as of the last commit
    /// (or the last store outside a transaction) — when it lies inside a
    /// tracked region; `None` otherwise.
    pub fn committed_words(&self, region: Region) -> Option<&[Word]> {
        self.tracked
            .iter()
            .zip(&self.guards)
            .find(|(t, _)| {
                t.region.contains(region.base())
                    && region.base() + region.len() <= t.region.base() + t.region.len()
            })
            .map(|(t, g)| {
                let off = region.base() - t.region.base();
                &g.image[off..off + region.len()]
            })
    }

    /// A [`Snapshot`] of `regions` cut from the committed image (live
    /// memory for a region outside every tracked one). Rot the footprint
    /// scrub has not reached yet is not in it.
    pub fn committed_snapshot(&self, regions: &[Region]) -> Snapshot {
        Snapshot::from_parts(
            regions
                .iter()
                .map(|&r| {
                    let words = self
                        .committed_words(r)
                        .map_or_else(|| self.mem.read_region(r), <[Word]>::to_vec);
                    (r, words)
                })
                .collect(),
        )
    }

    /// A digest of current memory *contents*: recomputed from the tracked
    /// regions (all allocations when nothing is tracked), so two machines
    /// or executions agree iff the bytes agree — the incremental sums are
    /// deliberately not used here, because rot desynchronizes them.
    pub fn content_digest(&self) -> u64 {
        let mut acc = 0u64;
        if self.tracked.is_empty() {
            for (_, r) in self.mem.allocations() {
                acc ^= digest_words(r.base(), &self.mem.read_region(*r));
            }
        } else {
            for t in &self.tracked {
                acc ^= digest_words(t.region.base(), &self.mem.read_region(t.region));
            }
        }
        acc
    }

    /// Enables or disables the [`ElsAuditor`]. While enabled, executors may
    /// bracket their label rounds with [`Machine::audit_note_scatter`] /
    /// [`Machine::audit_check_gather`]; while disabled both are free no-ops.
    /// Disabling discards the auditor and its counters (its storage is
    /// kept for the next auditor enabled).
    pub fn set_els_audit(&mut self, on: bool) {
        if on {
            if self.auditor.is_none() {
                self.auditor = Some(self.fresh_auditor(1, 0));
            }
        } else if let Some(a) = self.auditor.take() {
            self.parked_auditor = Some(a);
        }
    }

    /// An auditor as [`ElsAuditor::with_rate`] builds it, in the parked
    /// auditor's storage when there is one.
    fn fresh_auditor(&mut self, rate: u64, seed: u64) -> ElsAuditor {
        match self.parked_auditor.take() {
            Some(mut a) => {
                a.restart(rate, seed);
                a
            }
            None => ElsAuditor::with_rate(rate, seed),
        }
    }

    /// Enables the [`ElsAuditor`] with seeded 1-in-`rate` round sampling
    /// (rate 1 = every round, the [`Machine::set_els_audit`] behaviour;
    /// rate 0 disables auditing). A sampled-out round records no notes and
    /// judges no gathers, so its audit cost is zero — the knob trades
    /// detection latency against the audit's gather-mirroring traffic.
    /// Replaces any existing auditor (counters restart).
    pub fn set_els_audit_rate(&mut self, rate: usize, seed: u64) {
        self.set_els_audit(false);
        if rate > 0 {
            self.auditor = Some(self.fresh_auditor(rate as u64, seed));
        }
    }

    /// The ELS auditor, when enabled.
    pub fn els_auditor(&self) -> Option<&ElsAuditor> {
        self.auditor.as_ref()
    }

    /// Forgets the auditor's noted scatters, keeping its counters — called
    /// at attempt boundaries so a rolled-back round's notes do not judge
    /// the retry's gathers. No-op when auditing is off.
    pub fn audit_clear_notes(&mut self) {
        if let Some(a) = &mut self.auditor {
            a.clear();
        }
    }

    /// Notes a label scatter with the auditor (no-op when auditing is off):
    /// records, per target address, the labels about to compete there. Call
    /// immediately before the scatter.
    #[track_caller]
    pub fn audit_note_scatter(&mut self, region: Region, idx: &VReg, vals: &VReg) {
        let Some(a) = &mut self.auditor else {
            return;
        };
        let lanes = idx.iter().zip(vals.iter());
        a.note_lanes(lanes.map(|(i, v)| (Self::region_addr(region, i), v)));
    }

    /// Masked form of [`Machine::audit_note_scatter`]: only lanes with a
    /// true mask bit are noted (the others are suppressed and never reach
    /// memory).
    #[track_caller]
    pub fn audit_note_scatter_masked(
        &mut self,
        region: Region,
        idx: &VReg,
        vals: &VReg,
        mask: &Mask,
    ) {
        let Some(a) = &mut self.auditor else {
            return;
        };
        let lanes = idx.iter().zip(vals.iter()).enumerate();
        let lanes = lanes.filter(|&(p, _)| mask.get(p));
        a.note_lanes(lanes.map(|(_, (i, v))| (Self::region_addr(region, i), v)));
    }

    /// Checks a gather against the noted scatters (no-op `Ok` when auditing
    /// is off): every lane whose address was noted must have read back one
    /// of the noted labels; entries are consumed either way. Call
    /// immediately after the paired gather with the values it returned.
    #[track_caller]
    pub fn audit_check_gather(
        &mut self,
        region: Region,
        idx: &VReg,
        got: &VReg,
    ) -> Result<(), IntegrityError> {
        let Some(a) = &mut self.auditor else {
            return Ok(());
        };
        let mem = &self.mem;
        a.check_lanes(
            idx.iter().map(|i| Self::region_addr(region, i)),
            got.as_slice(),
            || mem.name_of(region).unwrap_or("(untitled)").to_string(),
        )
    }

    /// Logs an injected fault and, when tracing is on, pins a human-readable
    /// note to the instruction that suffered it — so a trace and a recovery
    /// report (see [`FaultLog::summary`]) can be correlated line by line.
    fn record_fault(&mut self, event: FaultEvent) {
        if let Some(t) = &mut self.tracer {
            let note = match &event {
                FaultEvent::LaneDropped {
                    sequence,
                    lane,
                    addr,
                } => {
                    format!("fault: lane {lane} dropped in scatter #{sequence} (addr {addr})")
                }
                FaultEvent::TornWrite {
                    sequence,
                    addr,
                    amalgam,
                } => {
                    format!("fault: torn write at addr {addr} in scatter #{sequence} (amalgam {amalgam})")
                }
                FaultEvent::GatherFlip {
                    sequence,
                    lane,
                    addr,
                    bit,
                } => {
                    format!("fault: gather #{sequence} lane {lane} read addr {addr} with bit {bit} flipped")
                }
                FaultEvent::StaleRead {
                    sequence,
                    lane,
                    addr,
                    stale,
                } => {
                    format!("fault: gather #{sequence} lane {lane} read stale value {stale} from addr {addr}")
                }
                FaultEvent::TornGather {
                    sequence,
                    lane,
                    addr,
                    amalgam,
                } => {
                    format!("fault: gather #{sequence} lane {lane} tore addr {addr} against its neighbour (amalgam {amalgam})")
                }
                FaultEvent::BitRot {
                    sequence,
                    addr,
                    bit,
                } => {
                    format!(
                        "fault: bit {bit} of addr {addr} rotted at scatter boundary #{sequence}"
                    )
                }
            };
            t.annotate(note);
        }
        self.fault_log.record(event);
    }

    #[inline]
    fn charge_vector(&mut self, kind: OpKind, n: usize) {
        // The execution mask reduces the effective width: with w of the
        // LANE_COUNT lanes active, n elements need ceil(n·LANE_COUNT/w)
        // lane-slots' worth of chimes. At full width this is exactly n.
        let w = self.active_lanes.len();
        let n_eff = if w == LANE_COUNT {
            n
        } else {
            (n * LANE_COUNT).div_ceil(w)
        };
        let cycles = self.cost.vector_cost(kind, n_eff);
        self.stats.record_vector(kind, n_eff, cycles);
        if let Some(t) = &mut self.tracer {
            t.record(kind, n_eff, cycles);
        }
    }

    #[inline]
    fn charge_scalar(&mut self, kind: OpKind, count: u64) {
        let cycles = self.cost.scalar_cost(kind, count);
        self.stats.record_scalar(kind, count, cycles);
        if let Some(t) = &mut self.tracer {
            t.record(kind, count as usize, cycles);
        }
    }

    #[inline]
    #[track_caller]
    fn region_addr(region: Region, idx: Word) -> Addr {
        let i =
            usize::try_from(idx).unwrap_or_else(|_| panic!("negative index {idx} into {region:?}"));
        assert!(i < region.len(), "index {i} out of bounds of {region:?}");
        region.base() + i
    }

    // ------------------------------------------------------------------
    // Vector memory: contiguous
    // ------------------------------------------------------------------

    /// Loads `region[offset .. offset+n]` into a vector.
    #[track_caller]
    pub fn vload(&mut self, region: Region, offset: usize, n: usize) -> VReg {
        let r = self.checked_slice("vload", region, offset, n);
        self.charge_vector(OpKind::VLoad, n);
        self.note_read_span(r.base(), r.len());
        VReg::from_vec(self.mem.read_region(r))
    }

    /// Stores a vector to `region[offset ..]`.
    #[track_caller]
    pub fn vstore(&mut self, region: Region, offset: usize, v: &VReg) {
        let r = self.checked_slice("vstore", region, offset, v.len());
        self.charge_vector(OpKind::VStore, v.len());
        if self.journal.is_some() || !self.tracked.is_empty() {
            for (i, w) in v.iter().enumerate() {
                self.store(r.base() + i, w);
            }
        } else {
            self.mem.write_region(r, v.as_slice());
        }
    }

    /// Bounds-checks `region[offset .. offset+n]`, panicking with the
    /// instruction name and the owning allocation's name on a bad range —
    /// so a workload's overrun reports "`vstore` overruns `work`", not a
    /// bare index panic downstream.
    #[track_caller]
    fn checked_slice(&self, what: &str, region: Region, offset: usize, n: usize) -> Region {
        region.try_slice(offset, n).unwrap_or_else(|e| {
            let name = self.mem.name_of(region).unwrap_or("(untitled)");
            panic!("{what} on region {name:?}: {e}")
        })
    }

    /// Fills all of `region` with `value` (a broadcast store — how the
    /// paper's programs initialize `C` to `unentered`).
    pub fn vfill(&mut self, region: Region, value: Word) {
        self.charge_vector(OpKind::VStore, region.len());
        for i in 0..region.len() {
            self.store(region.base() + i, value);
        }
    }

    /// Materializes an immediate vector (charged as a contiguous load).
    pub fn vimm(&mut self, elems: &[Word]) -> VReg {
        self.charge_vector(OpKind::VLoad, elems.len());
        VReg::from_slice(elems)
    }

    /// Strided load: `n` elements starting at `region[offset]`, `stride`
    /// words apart. Real pipelined machines stream strided accesses at
    /// unit-stride speed when the stride avoids bank conflicts; charged as
    /// a contiguous load.
    ///
    /// # Panics
    /// Panics when the last element falls outside the region or `stride == 0`.
    #[track_caller]
    pub fn vload_strided(
        &mut self,
        region: Region,
        offset: usize,
        stride: usize,
        n: usize,
    ) -> VReg {
        assert!(stride > 0, "stride must be positive");
        if n > 0 {
            let last = offset + (n - 1) * stride;
            assert!(last < region.len(), "strided load overruns {region:?}");
        }
        self.charge_vector(OpKind::VLoad, n);
        let base = region.base() + offset;
        for i in 0..n {
            self.note_read_span(base + i * stride, 1);
        }
        (0..n).map(|i| self.mem.read(base + i * stride)).collect()
    }

    /// Strided store: writes `v` to `region[offset]`, `region[offset+stride]`, …
    ///
    /// # Panics
    /// Panics when the last element falls outside the region or `stride == 0`.
    #[track_caller]
    pub fn vstore_strided(&mut self, region: Region, offset: usize, stride: usize, v: &VReg) {
        assert!(stride > 0, "stride must be positive");
        if !v.is_empty() {
            let last = offset + (v.len() - 1) * stride;
            assert!(last < region.len(), "strided store overruns {region:?}");
        }
        self.charge_vector(OpKind::VStore, v.len());
        for (i, w) in v.iter().enumerate() {
            self.store(region.base() + offset + i * stride, w);
        }
    }

    // ------------------------------------------------------------------
    // Vector memory: indirect (list-vector instructions)
    // ------------------------------------------------------------------

    /// List-vector load: `result[i] = region[idx[i]]`.
    ///
    /// An installed [`FaultPlan`] with read-side rates can corrupt what the
    /// gather *returns* (memory itself is untouched): seeded bit-flips,
    /// stale reads (the cell's previous value) and torn gathers (an
    /// amalgam of the lane's word and its neighbour's). Every injected
    /// read fault is recorded in the [`FaultLog`].
    #[track_caller]
    pub fn gather(&mut self, region: Region, idx: &VReg) -> VReg {
        self.charge_vector(OpKind::VGather, idx.len());
        self.gather_seq += 1;
        let seq = self.gather_seq;
        let plan = match &self.fault_plan {
            Some(p) if p.corrupts_reads() => p.clone(),
            _ => {
                // Data-plane fast path: no read-side fault can observe how
                // the elements are fetched, so the active engine gathers
                // over the region's word window (bounds reported exactly
                // like the addressed path).
                let words = &self.mem.words()[region.base()..region.base() + region.len()];
                let out = VReg::from_vec(self.engine.gather(words, region, idx.as_slice()));
                self.note_gather(region, idx.as_slice());
                return out;
            }
        };
        let addrs: Vec<Addr> = idx.iter().map(|i| Self::region_addr(region, i)).collect();
        self.note_gather(region, idx.as_slice());
        let mut out: Vec<Word> = addrs.iter().map(|&a| self.mem.read(a)).collect();
        let truth = out.clone();
        for lane in 0..out.len() {
            let addr = addrs[lane];
            let mut faulted = false;
            if plan.stale_read(seq, lane) {
                if let Some(&stale) = self.stale_shadow.get(&addr) {
                    if stale != out[lane] {
                        out[lane] = stale;
                        faulted = true;
                        self.record_fault(FaultEvent::StaleRead {
                            sequence: seq,
                            lane,
                            addr,
                            stale,
                        });
                    }
                }
            }
            if out.len() > 1 && plan.torn_gather(seq, lane) {
                let neighbour = truth[(lane + 1) % truth.len()];
                let amalgam = plan.mode().combine(&[out[lane], neighbour]);
                if amalgam != out[lane] {
                    out[lane] = amalgam;
                    faulted = true;
                    self.record_fault(FaultEvent::TornGather {
                        sequence: seq,
                        lane,
                        addr,
                        amalgam,
                    });
                }
            }
            if let Some(bit) = plan.gather_flipped(seq, lane) {
                out[lane] ^= 1 << bit;
                faulted = true;
                self.record_fault(FaultEvent::GatherFlip {
                    sequence: seq,
                    lane,
                    addr,
                    bit,
                });
            }
            if faulted {
                // Read faults implicate the physical lane just as write
                // faults do, so the quarantine machinery sees them.
                let phys = self.physical_lane(lane);
                self.health.note_lane_fault(phys, self.scatter_seq);
            }
        }
        VReg::from_vec(out)
    }

    /// List-vector store (`VIST`): `region[idx[i]] = val[i]`.
    ///
    /// Duplicate indices are resolved by the machine's [`ConflictPolicy`];
    /// per the ELS condition exactly one competing element lands.
    #[track_caller]
    pub fn scatter(&mut self, region: Region, idx: &VReg, val: &VReg) {
        self.scatter_inner(region, idx, val, None, OpKind::VScatter);
    }

    /// Masked list-vector store: elements with a false mask bit are
    /// suppressed (the paper's `where M do A[idx] := v end where`).
    #[track_caller]
    pub fn scatter_masked(&mut self, region: Region, idx: &VReg, val: &VReg, mask: &Mask) {
        assert_eq!(
            idx.len(),
            mask.len(),
            "scatter_masked: index/mask length mismatch"
        );
        self.scatter_inner(region, idx, val, Some(mask), OpKind::VScatter);
    }

    /// Ordered list-vector store (`VSTX`): on duplicate indices the
    /// highest-numbered element wins, regardless of the machine policy. The
    /// paper's footnote 7 uses this stronger guarantee to build the
    /// order-preserving FOL variant.
    ///
    /// An installed [`FaultPlan`] applies here too: lanes may be dropped and
    /// conflicting writes may tear, modelling a `VSTX` whose ordering
    /// circuitry is broken.
    #[track_caller]
    pub fn scatter_ordered(&mut self, region: Region, idx: &VReg, val: &VReg) {
        assert_eq!(
            idx.len(),
            val.len(),
            "scatter_ordered: index/value length mismatch"
        );
        self.charge_vector(OpKind::VScatterOrdered, idx.len());
        self.scatter_seq += 1;
        let seq = self.scatter_seq;
        if self.fault_plan.is_none() {
            // Ordered semantics are exactly last-wins in element order.
            if self.journal.is_none() && self.tracked.is_empty() {
                // Data-plane fast path: with no fault plan, journal or
                // checksummed region active nothing can observe how the
                // stores are issued.
                let words = &mut self.mem.words_mut()[region.base()..region.base() + region.len()];
                self.engine
                    .scatter_last_wins(words, region, idx.as_slice(), val.as_slice());
            } else {
                for i in idx.iter() {
                    Self::region_addr(region, i);
                }
                let base = region.base();
                let lanes = idx.as_slice().iter().zip(val.as_slice());
                self.store_last_wins(region, lanes.map(|(&i, &v)| (base + i as usize, v)));
            }
            return;
        }
        self.apply_bit_rot(seq);
        let plan = self.fault_plan.clone();
        // Surviving (address, value) pairs in element order, after lane drops.
        let mut survivors: Vec<(Addr, Word)> = Vec::with_capacity(idx.len());
        for (lane, (i, v)) in idx.iter().zip(val.iter()).enumerate() {
            let addr = Self::region_addr(region, i);
            if let Some(p) = &plan {
                let phys = self.physical_lane(lane);
                if p.sticky_dropped(seq, phys) || p.lane_dropped(seq, lane) {
                    self.health.note_lane_fault(phys, seq);
                    self.record_fault(FaultEvent::LaneDropped {
                        sequence: seq,
                        lane,
                        addr,
                    });
                    continue;
                }
            }
            survivors.push((addr, v));
        }
        for &(addr, v) in &survivors {
            self.store(addr, v);
        }
        if let Some(p) = &plan {
            self.tear_conflicts(p, seq, &survivors);
        }
    }

    /// Applies the plan's bit-rot to every tracked region at one scatter
    /// boundary. Rot writes **directly to memory**, bypassing the store
    /// choke point — and with it the write journal and the incremental
    /// checksums — which is the whole model: silent resident-memory decay
    /// that only a [`Machine::scrub`] pass (or a failed audit downstream)
    /// can reveal. Only tracked (checksummed) regions are exposed; tracking
    /// a region opts it into both the protection and the hazard.
    fn apply_bit_rot(&mut self, seq: u64) {
        let plan = match &self.fault_plan {
            Some(p) if p.rot_rate_at(seq) > 0 => p.clone(),
            _ => return,
        };
        let regions: Vec<Region> = self.tracked.iter().map(|t| t.region).collect();
        for region in regions {
            for i in 0..region.len() {
                let addr = region.base() + i;
                if let Some(bit) = plan.rotted(seq, addr) {
                    let w = self.mem.read(addr) ^ (1 << bit);
                    self.mem.write(addr, w);
                    self.record_fault(FaultEvent::BitRot {
                        sequence: seq,
                        addr,
                        bit,
                    });
                }
            }
        }
    }

    /// Applies the plan's torn-write faults over the surviving writes of one
    /// scatter: conflicted addresses selected by the plan get an amalgam of
    /// all competing values instead of the policy's winner.
    fn tear_conflicts(&mut self, plan: &FaultPlan, seq: u64, survivors: &[(Addr, Word)]) {
        let mut order: Vec<Addr> = Vec::new();
        let mut groups: std::collections::HashMap<Addr, Vec<Word>> =
            std::collections::HashMap::with_capacity(survivors.len());
        for &(addr, v) in survivors {
            let g = groups.entry(addr).or_default();
            if g.is_empty() {
                order.push(addr);
            }
            g.push(v);
        }
        for addr in order {
            let values = &groups[&addr];
            if let Some(amalgam) = plan.torn_value(seq, addr, values) {
                self.store(addr, amalgam);
                self.record_fault(FaultEvent::TornWrite {
                    sequence: seq,
                    addr,
                    amalgam,
                });
            }
        }
    }

    #[track_caller]
    fn scatter_inner(
        &mut self,
        region: Region,
        idx: &VReg,
        val: &VReg,
        mask: Option<&Mask>,
        kind: OpKind,
    ) {
        assert_eq!(idx.len(), val.len(), "scatter: index/value length mismatch");
        self.charge_vector(kind, idx.len());
        self.scatter_seq += 1;
        let seq = self.scatter_seq;
        if self.fault_plan.is_none() && self.policy == ConflictPolicy::LastWins {
            // Under last-wins, duplicate resolution is element order.
            if self.journal.is_none() && self.tracked.is_empty() {
                // Data-plane fast path: with no fault plan, journal or
                // checksummed region active the store choke point has
                // nothing to record — the lanes are written directly.
                let words = &mut self.mem.words_mut()[region.base()..region.base() + region.len()];
                match mask {
                    Some(m) => backend::scatter_last_wins_masked(
                        words,
                        region,
                        idx.as_slice(),
                        val.as_slice(),
                        m.as_slice(),
                    ),
                    None => {
                        self.engine
                            .scatter_last_wins(words, region, idx.as_slice(), val.as_slice())
                    }
                }
            } else {
                // Journal or checksums active: the surviving lanes are
                // stored last-wins in element order, the tracked region
                // resolved once for the op. Bounds are checked before any
                // store.
                let live = |p: &usize| mask.is_none_or(|m| m.get(*p));
                for (_, i) in idx.iter().enumerate().filter(|(p, _)| live(p)) {
                    Self::region_addr(region, i);
                }
                let base = region.base();
                let lanes = idx.as_slice().iter().zip(val.as_slice()).enumerate();
                let lanes = lanes.filter(|(p, _)| live(p));
                self.store_last_wins(region, lanes.map(|(_, (&i, &v))| (base + i as usize, v)));
            }
            return;
        }
        // A fault plan or another policy takes the canonical path: winners
        // are resolved first and each is stored once, so every backend
        // shares faulted-path behaviour by construction.
        self.apply_bit_rot(seq);
        let plan = self.fault_plan.clone();
        // Filtered lanes: original element position, target address, value —
        // mask-suppressed lanes first, then fault-dropped lanes.
        let mut positions: Vec<usize> = Vec::with_capacity(idx.len());
        let mut addrs: Vec<Addr> = Vec::with_capacity(idx.len());
        let mut vals: Vec<Word> = Vec::with_capacity(idx.len());
        for (p, i) in idx.iter().enumerate() {
            if !mask.is_none_or(|m| m.get(p)) {
                continue;
            }
            let addr = Self::region_addr(region, i);
            if let Some(plan) = &plan {
                let phys = self.physical_lane(p);
                if plan.sticky_dropped(seq, phys) || plan.lane_dropped(seq, p) {
                    self.health.note_lane_fault(phys, seq);
                    self.record_fault(FaultEvent::LaneDropped {
                        sequence: seq,
                        lane: p,
                        addr,
                    });
                    continue;
                }
            }
            positions.push(p);
            addrs.push(addr);
            vals.push(val.get(p));
        }
        if self.policy == ConflictPolicy::BrokenAmalgam {
            // ELS violation: conflicting writes XOR together. A lone writer
            // still stores its own value (0 ^ v = v).
            let mut acc: std::collections::HashMap<Addr, Word> =
                std::collections::HashMap::with_capacity(addrs.len());
            for (&addr, &v) in addrs.iter().zip(&vals) {
                *acc.entry(addr).or_insert(0) ^= v;
            }
            for (addr, w) in acc {
                self.store(addr, w);
            }
            return;
        }
        let mut writes: Vec<(Addr, Word)> = Vec::with_capacity(addrs.len());
        let policy = self.policy.clone();
        let state = matches!(policy, ConflictPolicy::Adversarial(_)).then_some(&mut self.adversary);
        policy.resolve_with_state(&addrs, seq, state, |filtered_pos, addr| {
            writes.push((addr, vals[filtered_pos]));
        });
        for (addr, w) in writes {
            self.store(addr, w);
        }
        if let Some(p) = &plan {
            let survivors: Vec<(Addr, Word)> =
                addrs.iter().copied().zip(vals.iter().copied()).collect();
            self.tear_conflicts(p, seq, &survivors);
        }
    }

    // ------------------------------------------------------------------
    // Elementwise ALU
    // ------------------------------------------------------------------

    /// Elementwise `op` on two vectors of equal length.
    ///
    /// # Panics
    /// Panics on a lane trap (division by zero) — use [`Machine::try_valu`]
    /// to observe the trap as a value instead.
    #[track_caller]
    pub fn valu(&mut self, op: AluOp, a: &VReg, b: &VReg) -> VReg {
        self.try_valu(op, a, b).unwrap_or_else(|t| panic!("{t}"))
    }

    /// Fallible form of [`Machine::valu`]: returns the first lane trap
    /// instead of panicking. Cycles are charged either way (the pipeline
    /// issues before the trap is detected).
    #[track_caller]
    pub fn try_valu(&mut self, op: AluOp, a: &VReg, b: &VReg) -> Result<VReg, MachineTrap> {
        assert_eq!(a.len(), b.len(), "valu: length mismatch");
        self.charge_vector(OpKind::VAlu, a.len());
        self.engine
            .alu(op, a.as_slice(), b.as_slice())
            .map(VReg::from_vec)
            .map_err(|lane| MachineTrap::DivideByZero { op, lane })
    }

    /// Elementwise `op` between a vector and a broadcast scalar.
    ///
    /// # Panics
    /// Panics on a lane trap (division by zero) — use
    /// [`Machine::try_valu_s`] to observe the trap as a value instead.
    #[track_caller]
    pub fn valu_s(&mut self, op: AluOp, a: &VReg, s: Word) -> VReg {
        self.try_valu_s(op, a, s).unwrap_or_else(|t| panic!("{t}"))
    }

    /// Fallible form of [`Machine::valu_s`].
    pub fn try_valu_s(&mut self, op: AluOp, a: &VReg, s: Word) -> Result<VReg, MachineTrap> {
        self.charge_vector(OpKind::VAlu, a.len());
        self.engine
            .alu_s(op, a.as_slice(), s)
            .map(VReg::from_vec)
            .map_err(|lane| MachineTrap::DivideByZero { op, lane })
    }

    /// Masked elementwise `op`: where the mask is false the result keeps `a`.
    /// Masked-off lanes never execute, so they cannot trap — the idiomatic
    /// guard for division (`where b /= 0 do a / b`).
    ///
    /// # Panics
    /// Panics on a trap in an *active* lane — use
    /// [`Machine::try_valu_masked`] to observe it as a value instead.
    #[track_caller]
    pub fn valu_masked(&mut self, op: AluOp, a: &VReg, b: &VReg, mask: &Mask) -> VReg {
        self.try_valu_masked(op, a, b, mask)
            .unwrap_or_else(|t| panic!("{t}"))
    }

    /// Fallible form of [`Machine::valu_masked`].
    #[track_caller]
    pub fn try_valu_masked(
        &mut self,
        op: AluOp,
        a: &VReg,
        b: &VReg,
        mask: &Mask,
    ) -> Result<VReg, MachineTrap> {
        assert_eq!(a.len(), b.len(), "valu_masked: length mismatch");
        assert_eq!(a.len(), mask.len(), "valu_masked: mask length mismatch");
        self.charge_vector(OpKind::VAlu, a.len());
        backend::alu_masked(op, a.as_slice(), b.as_slice(), mask.as_slice())
            .map(VReg::from_vec)
            .map_err(|lane| MachineTrap::DivideByZero { op, lane })
    }

    /// Broadcast: a vector of `n` copies of `s`.
    pub fn vsplat(&mut self, s: Word, n: usize) -> VReg {
        self.charge_vector(OpKind::VAlu, n);
        VReg::from_vec(backend::splat(s, n))
    }

    /// Index generation: `[start, start+1, …, start+n-1]` (the paper's
    /// subscript labels are exactly `iota`).
    pub fn iota(&mut self, start: Word, n: usize) -> VReg {
        self.charge_vector(OpKind::VIota, n);
        VReg::from_vec(backend::iota(start, n))
    }

    // ------------------------------------------------------------------
    // Compares, masks, selection
    // ------------------------------------------------------------------

    /// Elementwise compare of two vectors, producing a mask.
    #[track_caller]
    pub fn vcmp(&mut self, op: CmpOp, a: &VReg, b: &VReg) -> Mask {
        assert_eq!(a.len(), b.len(), "vcmp: length mismatch");
        self.charge_vector(OpKind::VCmp, a.len());
        Mask::from_vec(self.engine.cmp(op, a.as_slice(), b.as_slice()))
    }

    /// Elementwise compare against a broadcast scalar.
    pub fn vcmp_s(&mut self, op: CmpOp, a: &VReg, s: Word) -> Mask {
        self.charge_vector(OpKind::VCmp, a.len());
        Mask::from_vec(self.engine.cmp_s(op, a.as_slice(), s))
    }

    /// Mask conjunction.
    #[track_caller]
    pub fn mask_and(&mut self, a: &Mask, b: &Mask) -> Mask {
        assert_eq!(a.len(), b.len(), "mask_and: length mismatch");
        self.charge_vector(OpKind::VMaskOp, a.len());
        Mask::from_vec(backend::mask_and(a.as_slice(), b.as_slice()))
    }

    /// Mask disjunction.
    #[track_caller]
    pub fn mask_or(&mut self, a: &Mask, b: &Mask) -> Mask {
        assert_eq!(a.len(), b.len(), "mask_or: length mismatch");
        self.charge_vector(OpKind::VMaskOp, a.len());
        Mask::from_vec(backend::mask_or(a.as_slice(), b.as_slice()))
    }

    /// Mask negation.
    pub fn mask_not(&mut self, a: &Mask) -> Mask {
        self.charge_vector(OpKind::VMaskOp, a.len());
        Mask::from_vec(backend::mask_not(a.as_slice()))
    }

    /// Merge: `mask[i] ? a[i] : b[i]`.
    #[track_caller]
    pub fn select(&mut self, mask: &Mask, a: &VReg, b: &VReg) -> VReg {
        assert_eq!(a.len(), b.len(), "select: length mismatch");
        assert_eq!(a.len(), mask.len(), "select: mask length mismatch");
        self.charge_vector(OpKind::VAlu, a.len());
        VReg::from_vec(backend::select(mask.as_slice(), a.as_slice(), b.as_slice()))
    }

    /// `countTrue(M)`: population count of a mask, charged as a reduction.
    pub fn count_true(&mut self, mask: &Mask) -> usize {
        self.charge_vector(OpKind::VReduce, mask.len());
        mask.popcount()
    }

    // ------------------------------------------------------------------
    // Data movement: compress / expand
    // ------------------------------------------------------------------

    /// `A where M`: the elements of `a` whose mask bit is true, packed left
    /// (Fortran-90 `pack`). The workhorse of FOL's "delete processed
    /// pointers from V" step.
    #[track_caller]
    pub fn compress(&mut self, a: &VReg, mask: &Mask) -> VReg {
        assert_eq!(a.len(), mask.len(), "compress: mask length mismatch");
        self.charge_vector(OpKind::VCompress, a.len());
        VReg::from_vec(self.engine.compress(a.as_slice(), mask.as_slice()))
    }

    /// Compress a mask by another mask (needed when narrowing bookkeeping
    /// masks alongside their data vectors).
    #[track_caller]
    pub fn compress_mask(&mut self, a: &Mask, mask: &Mask) -> Mask {
        assert_eq!(a.len(), mask.len(), "compress_mask: mask length mismatch");
        self.charge_vector(OpKind::VCompress, a.len());
        Mask::from_vec(backend::compress_mask(a.as_slice(), mask.as_slice()))
    }

    /// Inverse of [`Machine::compress`]: distributes the elements of `a`
    /// (length = number of true bits) into the true positions of `mask`;
    /// false positions receive `fill`.
    #[track_caller]
    pub fn expand(&mut self, a: &VReg, mask: &Mask, fill: Word) -> VReg {
        assert_eq!(
            a.len(),
            mask.popcount(),
            "expand: data length != mask popcount"
        );
        self.charge_vector(OpKind::VExpand, mask.len());
        let mut it = a.iter();
        mask.iter()
            .map(|m| {
                if m {
                    it.next().expect("length checked above")
                } else {
                    fill
                }
            })
            .collect()
    }

    /// Concatenates two vectors (models compressing two working sets into
    /// adjacent storage — one streaming pass, charged as a store).
    pub fn vconcat(&mut self, a: &VReg, b: &VReg) -> VReg {
        self.charge_vector(OpKind::VStore, a.len() + b.len());
        a.iter().chain(b.iter()).collect()
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Inclusive prefix (cumulative) sum — the S-810 family's first-order
    /// recurrence macro instruction, charged at `prefix_factor` per element.
    /// Distribution counting sort depends on this running at vector speed.
    pub fn vprefix_sum(&mut self, a: &VReg) -> VReg {
        self.charge_vector(OpKind::VPrefix, a.len());
        VReg::from_vec(backend::prefix_sum(a.as_slice()))
    }

    /// Sum of all elements (wrapping).
    pub fn vsum(&mut self, a: &VReg) -> Word {
        self.charge_vector(OpKind::VReduce, a.len());
        self.engine.sum(a.as_slice())
    }

    /// Minimum element, or `None` for an empty vector.
    pub fn vmin(&mut self, a: &VReg) -> Option<Word> {
        self.charge_vector(OpKind::VReduce, a.len());
        backend::min(a.as_slice())
    }

    /// Maximum element, or `None` for an empty vector.
    pub fn vmax(&mut self, a: &VReg) -> Option<Word> {
        self.charge_vector(OpKind::VReduce, a.len());
        backend::max(a.as_slice())
    }

    // ------------------------------------------------------------------
    // Scalar operations (for baselines running on the same machine)
    // ------------------------------------------------------------------

    /// Scalar load.
    #[track_caller]
    pub fn s_read(&mut self, addr: Addr) -> Word {
        self.charge_scalar(OpKind::SLoad, 1);
        self.note_read_span(addr, 1);
        self.mem.read(addr)
    }

    /// Scalar store.
    #[track_caller]
    pub fn s_write(&mut self, addr: Addr, w: Word) {
        self.charge_scalar(OpKind::SStore, 1);
        self.store(addr, w);
    }

    /// Scalar load with a sequential access pattern (streaming loops over
    /// arrays), charged at the cheaper `scalar_mem_seq` rate.
    #[track_caller]
    pub fn s_read_seq(&mut self, addr: Addr) -> Word {
        self.charge_scalar(OpKind::SLoadSeq, 1);
        self.note_read_span(addr, 1);
        self.mem.read(addr)
    }

    /// Scalar store with a sequential access pattern.
    #[track_caller]
    pub fn s_write_seq(&mut self, addr: Addr, w: Word) {
        self.charge_scalar(OpKind::SStoreSeq, 1);
        self.store(addr, w);
    }

    /// Charges `count` scalar ALU operations (register arithmetic the
    /// baseline would execute; the values live in host variables).
    pub fn s_alu(&mut self, count: u64) {
        self.charge_scalar(OpKind::SAlu, count);
    }

    /// Charges `count` scalar compares.
    pub fn s_cmp(&mut self, count: u64) {
        self.charge_scalar(OpKind::SCmp, count);
    }

    /// Charges `count` scalar branches (loop back-edges, if/else).
    pub fn s_branch(&mut self, count: u64) {
        self.charge_scalar(OpKind::SBranch, count);
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("mem", &self.mem)
            .field("policy", &self.policy)
            .field("cycles", &self.stats.cycles())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(CostModel::unit())
    }

    #[test]
    fn vload_vstore_roundtrip() {
        let mut m = machine();
        let r = m.alloc(6, "r");
        let v = m.vimm(&[1, 2, 3]);
        m.vstore(r, 2, &v);
        assert_eq!(m.mem().read_region(r), vec![0, 0, 1, 2, 3, 0]);
        let back = m.vload(r, 2, 3);
        assert_eq!(back.as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn vfill_initializes() {
        let mut m = machine();
        let r = m.alloc(4, "r");
        m.vfill(r, 9);
        assert_eq!(m.mem().read_region(r), vec![9, 9, 9, 9]);
    }

    #[test]
    fn gather_reads_through_indices() {
        let mut m = machine();
        let r = m.alloc(5, "r");
        m.mem_mut().write_region(r, &[10, 11, 12, 13, 14]);
        let idx = m.vimm(&[4, 0, 2, 2]);
        let g = m.gather(r, &idx);
        assert_eq!(g.as_slice(), &[14, 10, 12, 12]);
    }

    #[test]
    fn scatter_last_wins_policy() {
        let mut m = Machine::with_policy(CostModel::unit(), ConflictPolicy::LastWins);
        let r = m.alloc(4, "r");
        let idx = m.vimm(&[1, 1, 3]);
        let val = m.vimm(&[100, 200, 300]);
        m.scatter(r, &idx, &val);
        assert_eq!(m.mem().read_region(r), vec![0, 200, 0, 300]);
    }

    #[test]
    fn scatter_first_wins_policy() {
        let mut m = Machine::with_policy(CostModel::unit(), ConflictPolicy::FirstWins);
        let r = m.alloc(4, "r");
        let idx = m.vimm(&[1, 1, 3]);
        let val = m.vimm(&[100, 200, 300]);
        m.scatter(r, &idx, &val);
        assert_eq!(m.mem().read_region(r), vec![0, 100, 0, 300]);
    }

    #[test]
    fn scatter_arbitrary_satisfies_els() {
        for seed in 0..16 {
            let mut m = Machine::with_policy(CostModel::unit(), ConflictPolicy::Arbitrary(seed));
            let r = m.alloc(2, "r");
            let idx = m.vimm(&[0, 0, 0]);
            let val = m.vimm(&[7, 8, 9]);
            m.scatter(r, &idx, &val);
            let w = m.mem().read(r.base());
            assert!(
                [7, 8, 9].contains(&w),
                "stored {w} is not one of the written values"
            );
        }
    }

    #[test]
    fn scatter_masked_suppresses() {
        let mut m = machine();
        let r = m.alloc(3, "r");
        let idx = m.vimm(&[0, 1, 2]);
        let val = m.vimm(&[5, 6, 7]);
        let mask = Mask::from_slice(&[true, false, true]);
        m.scatter_masked(r, &idx, &val, &mask);
        assert_eq!(m.mem().read_region(r), vec![5, 0, 7]);
    }

    #[test]
    fn scatter_ordered_ignores_policy() {
        let mut m = Machine::with_policy(CostModel::unit(), ConflictPolicy::FirstWins);
        let r = m.alloc(1, "r");
        let idx = m.vimm(&[0, 0]);
        let val = m.vimm(&[1, 2]);
        m.scatter_ordered(r, &idx, &val);
        assert_eq!(
            m.mem().read(r.base()),
            2,
            "VSTX semantics: element order, last wins"
        );
    }

    #[test]
    fn alu_ops() {
        let mut m = machine();
        let a = m.vimm(&[6, -7, 8]);
        let b = m.vimm(&[3, 2, -5]);
        assert_eq!(m.valu(AluOp::Add, &a, &b).as_slice(), &[9, -5, 3]);
        assert_eq!(m.valu(AluOp::Sub, &a, &b).as_slice(), &[3, -9, 13]);
        assert_eq!(m.valu(AluOp::Mul, &a, &b).as_slice(), &[18, -14, -40]);
        assert_eq!(m.valu(AluOp::Div, &a, &b).as_slice(), &[2, -3, -1]);
        assert_eq!(m.valu(AluOp::Rem, &a, &b).as_slice(), &[0, -1, 3]);
        assert_eq!(m.valu(AluOp::Mod, &a, &b).as_slice(), &[0, 1, 3]);
        assert_eq!(m.valu(AluOp::Min, &a, &b).as_slice(), &[3, -7, -5]);
        assert_eq!(m.valu(AluOp::Max, &a, &b).as_slice(), &[6, 2, 8]);
        assert_eq!(m.valu_s(AluOp::And, &a, 31).as_slice(), &[6, 25, 8]);
    }

    #[test]
    fn masked_alu_keeps_unmasked() {
        let mut m = machine();
        let a = m.vimm(&[1, 2, 3]);
        let b = m.vimm(&[10, 10, 10]);
        let mask = Mask::from_slice(&[true, false, true]);
        let r = m.valu_masked(AluOp::Add, &a, &b, &mask);
        assert_eq!(r.as_slice(), &[11, 2, 13]);
    }

    #[test]
    fn compares_and_masks() {
        let mut m = machine();
        let a = m.vimm(&[1, 5, 5]);
        let b = m.vimm(&[1, 2, 9]);
        let eq = m.vcmp(CmpOp::Eq, &a, &b);
        assert_eq!(eq.as_slice(), &[true, false, false]);
        let ge = m.vcmp_s(CmpOp::Ge, &a, 5);
        assert_eq!(ge.as_slice(), &[false, true, true]);
        let both = m.mask_and(&eq, &ge);
        assert_eq!(both.popcount(), 0);
        let either = m.mask_or(&eq, &ge);
        assert_eq!(either.popcount(), 3);
        let neither = m.mask_not(&either);
        assert_eq!(neither.popcount(), 0);
        assert_eq!(m.count_true(&either), 3);
    }

    #[test]
    fn select_merges() {
        let mut m = machine();
        let a = m.vimm(&[1, 2, 3]);
        let b = m.vimm(&[9, 9, 9]);
        let mask = Mask::from_slice(&[false, true, false]);
        assert_eq!(m.select(&mask, &a, &b).as_slice(), &[9, 2, 9]);
    }

    #[test]
    fn compress_and_expand_are_inverse() {
        let mut m = machine();
        let a = m.vimm(&[10, 20, 30, 40]);
        let mask = Mask::from_slice(&[true, false, false, true]);
        let c = m.compress(&a, &mask);
        assert_eq!(c.as_slice(), &[10, 40]);
        let e = m.expand(&c, &mask, -1);
        assert_eq!(e.as_slice(), &[10, -1, -1, 40]);
        let cm = m.compress_mask(&Mask::from_slice(&[true, true, false, false]), &mask);
        assert_eq!(cm.as_slice(), &[true, false]);
    }

    #[test]
    fn iota_and_splat() {
        let mut m = machine();
        assert_eq!(m.iota(3, 4).as_slice(), &[3, 4, 5, 6]);
        assert_eq!(m.vsplat(7, 3).as_slice(), &[7, 7, 7]);
    }

    #[test]
    fn strided_load_store() {
        let mut m = machine();
        let r = m.alloc(7, "r");
        m.mem_mut().write_region(r, &[0, 1, 2, 3, 4, 5, 6]);
        let v = m.vload_strided(r, 1, 2, 3);
        assert_eq!(v.as_slice(), &[1, 3, 5]);
        let w = m.vimm(&[10, 30, 50]);
        m.vstore_strided(r, 0, 3, &w);
        assert_eq!(m.mem().read_region(r), vec![10, 1, 2, 30, 4, 5, 50]);
        assert!(m.vload_strided(r, 0, 1, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "overruns")]
    fn strided_overrun_panics() {
        let mut m = machine();
        let r = m.alloc(4, "r");
        let _ = m.vload_strided(r, 0, 2, 3);
    }

    #[test]
    fn broken_amalgam_stores_an_amalgam() {
        let mut m = Machine::with_policy(CostModel::unit(), ConflictPolicy::BrokenAmalgam);
        let r = m.alloc(2, "r");
        let idx = m.vimm(&[0, 0, 1]);
        let val = m.vimm(&[0b1100, 0b1010, 7]);
        m.scatter(r, &idx, &val);
        // Conflicting slot holds the XOR amalgam — a value nobody wrote.
        assert_eq!(m.mem().read(r.base()), 0b0110);
        // Lone writer is unaffected.
        assert_eq!(m.mem().read(r.base() + 1), 7);
    }

    #[test]
    fn phase_measurement() {
        let mut m = Machine::new(CostModel::s810());
        let r = m.alloc(8, "r");
        m.measure_phase("load", |m| {
            let _ = m.vload(r, 0, 8);
        });
        m.measure_phase("scalar", |m| {
            let _ = m.s_read(r.base());
        });
        let phases = m.phases();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].0, "load");
        assert!(phases[0].1.vector_cycles > 0);
        assert_eq!(phases[0].1.scalar_cycles, 0);
        assert!(phases[1].1.scalar_cycles > 0);
        assert_eq!(
            phases[0].1.cycles() + phases[1].1.cycles(),
            m.stats().cycles()
        );
        m.clear_phases();
        assert!(m.phases().is_empty());
    }

    #[test]
    fn vconcat_joins() {
        let mut m = machine();
        let a = m.vimm(&[1, 2]);
        let b = m.vimm(&[3]);
        assert_eq!(m.vconcat(&a, &b).as_slice(), &[1, 2, 3]);
        let e = VReg::empty();
        assert_eq!(m.vconcat(&e, &b).as_slice(), &[3]);
    }

    #[test]
    fn prefix_sum() {
        let mut m = machine();
        let a = m.vimm(&[1, 2, 3, -1]);
        assert_eq!(m.vprefix_sum(&a).as_slice(), &[1, 3, 6, 5]);
        let e = VReg::empty();
        assert!(m.vprefix_sum(&e).is_empty());
        assert!(m.stats().count(OpKind::VPrefix) == 2);
    }

    #[test]
    fn reductions() {
        let mut m = machine();
        let a = m.vimm(&[3, -1, 4]);
        assert_eq!(m.vsum(&a), 6);
        assert_eq!(m.vmin(&a), Some(-1));
        assert_eq!(m.vmax(&a), Some(4));
        let e = VReg::empty();
        assert_eq!(m.vmin(&e), None);
    }

    #[test]
    fn scalar_ops_charge_scalar_cycles() {
        let mut m = Machine::new(CostModel::s810());
        let r = m.alloc(1, "r");
        m.s_write(r.base(), 5);
        assert_eq!(m.s_read(r.base()), 5);
        m.s_alu(3);
        m.s_cmp(2);
        m.s_branch(1);
        let s = m.stats();
        assert_eq!(s.vector_cycles, 0);
        let c = &m.cost;
        assert_eq!(
            s.scalar_cycles,
            2 * c.scalar_mem + 3 * c.scalar_alu + 2 * c.scalar_alu + c.scalar_branch
        );
    }

    #[test]
    fn stats_since_measures_a_section() {
        let mut m = Machine::new(CostModel::s810());
        let r = m.alloc(8, "r");
        let _ = m.vload(r, 0, 8);
        let t0 = m.stats().clone();
        let _ = m.vload(r, 0, 4);
        let d = m.stats_since(&t0);
        assert_eq!(d.count(OpKind::VLoad), 1);
        assert_eq!(d.vector_elements, 4);
    }

    #[test]
    fn trace_records_instructions() {
        let mut m = machine();
        m.enable_trace();
        let r = m.alloc(4, "r");
        let idx = m.vimm(&[0, 1]);
        let _ = m.gather(r, &idx);
        let t = m.take_trace().expect("trace enabled");
        assert_eq!(t.count(OpKind::VLoad), 1); // vimm
        assert_eq!(t.count(OpKind::VGather), 1);
        assert!(t.is_fully_vector());
    }

    #[test]
    fn divide_by_zero_is_a_typed_trap() {
        let mut m = machine();
        let a = m.vimm(&[6, 7]);
        let b = m.vimm(&[3, 0]);
        for op in [AluOp::Div, AluOp::Rem, AluOp::Mod] {
            assert_eq!(
                m.try_valu(op, &a, &b),
                Err(MachineTrap::DivideByZero { op, lane: 1 }),
                "{op:?} must trap on the zero lane"
            );
            assert_eq!(
                m.try_valu_s(op, &a, 0),
                Err(MachineTrap::DivideByZero { op, lane: 0 })
            );
        }
        // Masked-off lanes never execute, so they cannot trap.
        let mask = Mask::from_slice(&[true, false]);
        let r = m
            .try_valu_masked(AluOp::Div, &a, &b, &mask)
            .expect("masked lane must not trap");
        assert_eq!(r.as_slice(), &[2, 7]);
    }

    #[test]
    #[should_panic(expected = "machine trap")]
    fn unhandled_trap_aborts() {
        let mut m = machine();
        let a = m.vimm(&[1]);
        let b = m.vimm(&[0]);
        let _ = m.valu(AluOp::Div, &a, &b);
    }

    #[test]
    fn division_min_by_minus_one_wraps() {
        let mut m = machine();
        let a = m.vimm(&[Word::MIN]);
        let b = m.vimm(&[-1]);
        assert_eq!(m.valu(AluOp::Div, &a, &b).as_slice(), &[Word::MIN]);
        assert_eq!(m.valu(AluOp::Rem, &a, &b).as_slice(), &[0]);
    }

    #[test]
    fn fault_plan_drops_lanes_and_logs() {
        use crate::fault::{FaultEvent, FaultPlan};
        let mut m = machine();
        m.set_fault_plan(Some(FaultPlan::dropped_lanes(11, u16::MAX)));
        let r = m.alloc(4, "r");
        m.vfill(r, -1);
        let idx = m.vimm(&[0, 1, 2]);
        let val = m.vimm(&[10, 20, 30]);
        m.scatter(r, &idx, &val);
        // Every lane dropped: memory untouched, every drop logged.
        assert_eq!(m.mem().read_region(r), vec![-1, -1, -1, -1]);
        assert_eq!(m.fault_log().dropped_lanes(), 3);
        assert!(matches!(
            m.fault_log().events()[0],
            FaultEvent::LaneDropped { lane: 0, .. }
        ));
        m.clear_fault_log();
        assert!(m.fault_log().is_empty());
        assert!(m.fault_plan().is_some());
    }

    #[test]
    fn fault_plan_tears_conflicting_writes_only() {
        use crate::fault::{AmalgamMode, FaultPlan};
        let mut m = machine();
        m.set_fault_plan(Some(FaultPlan::torn_writes(5, u16::MAX, AmalgamMode::Xor)));
        let r = m.alloc(2, "r");
        let idx = m.vimm(&[0, 0, 1]);
        let val = m.vimm(&[0b1100, 0b1010, 7]);
        m.scatter(r, &idx, &val);
        // Conflicted slot tears to the XOR amalgam; the lone writer is clean.
        assert_eq!(m.mem().read(r.base()), 0b0110);
        assert_eq!(m.mem().read(r.base() + 1), 7);
        assert_eq!(m.fault_log().torn_writes(), 1);
    }

    #[test]
    fn fault_plan_applies_to_ordered_scatter() {
        use crate::fault::FaultPlan;
        let mut m = machine();
        m.set_fault_plan(Some(FaultPlan::dropped_lanes(2, u16::MAX)));
        let r = m.alloc(2, "r");
        m.vfill(r, -5);
        let idx = m.vimm(&[0, 1]);
        let val = m.vimm(&[1, 2]);
        m.scatter_ordered(r, &idx, &val);
        assert_eq!(m.mem().read_region(r), vec![-5, -5]);
        assert_eq!(m.fault_log().dropped_lanes(), 2);
    }

    #[test]
    fn benign_fault_plan_changes_nothing() {
        use crate::fault::FaultPlan;
        let mut m = Machine::with_policy(CostModel::unit(), ConflictPolicy::LastWins);
        m.set_fault_plan(Some(FaultPlan::benign(1)));
        let r = m.alloc(4, "r");
        let idx = m.vimm(&[1, 1, 3]);
        let val = m.vimm(&[100, 200, 300]);
        m.scatter(r, &idx, &val);
        assert_eq!(m.mem().read_region(r), vec![0, 200, 0, 300]);
        assert!(m.fault_log().is_empty());
    }

    #[test]
    fn adversarial_scatter_satisfies_els() {
        for seed in 0..16 {
            let mut m = Machine::with_policy(CostModel::unit(), ConflictPolicy::Adversarial(seed));
            let r = m.alloc(2, "r");
            let idx = m.vimm(&[0, 0, 0]);
            let val = m.vimm(&[7, 8, 9]);
            m.scatter(r, &idx, &val);
            let w = m.mem().read(r.base());
            assert!(
                [7, 8, 9].contains(&w),
                "stored {w} is not one of the written values"
            );
        }
    }

    #[test]
    fn txn_abort_restores_scatter_byte_exact() {
        use crate::journal::Snapshot;
        let mut m = Machine::with_policy(CostModel::unit(), ConflictPolicy::LastWins);
        let r = m.alloc(6, "r");
        m.mem_mut().write_region(r, &[1, 2, 3, 4, 5, 6]);
        let snap = Snapshot::capture(m.mem(), &[r]);
        m.begin_txn().unwrap();
        let idx = m.vimm(&[0, 0, 3]);
        let val = m.vimm(&[100, 200, 300]);
        m.scatter(r, &idx, &val);
        m.vfill(r, -9);
        assert!(!snap.matches(m.mem()));
        let j = m.abort_txn().unwrap();
        assert!(snap.matches(m.mem()), "diff at {:?}", snap.diff(m.mem()));
        assert!(!m.in_txn());
        assert_eq!(j.len(), 6);
    }

    #[test]
    fn txn_commit_keeps_writes() {
        let mut m = machine();
        let r = m.alloc(2, "r");
        m.begin_txn().unwrap();
        m.s_write(r.base(), 42);
        m.s_write_seq(r.at(1), 43);
        let j = m.commit_txn().unwrap();
        assert_eq!(m.mem().read_region(r), vec![42, 43]);
        assert_eq!(j.len(), 2);
        assert_eq!(j.pre_image(r.base()), Some(0));
    }

    #[test]
    fn txn_misuse_is_typed() {
        use crate::journal::TxnError;
        let mut m = machine();
        assert_eq!(m.commit_txn().unwrap_err(), TxnError::NoTransaction);
        assert_eq!(m.abort_txn().unwrap_err(), TxnError::NoTransaction);
        m.begin_txn().unwrap();
        assert_eq!(m.begin_txn().unwrap_err(), TxnError::NestedTransaction);
        assert!(m.in_txn());
        m.commit_txn().unwrap();
    }

    #[test]
    fn txn_journal_covers_faulted_writes() {
        use crate::fault::{AmalgamMode, FaultPlan};
        use crate::journal::Snapshot;
        let mut m = machine();
        m.set_fault_plan(Some(FaultPlan::torn_writes(3, u16::MAX, AmalgamMode::Xor)));
        let r = m.alloc(2, "r");
        m.mem_mut().write_region(r, &[5, 6]);
        let snap = Snapshot::capture(m.mem(), &[r]);
        m.begin_txn().unwrap();
        let idx = m.vimm(&[0, 0, 1]);
        let val = m.vimm(&[0b1100, 0b1010, 7]);
        m.scatter(r, &idx, &val);
        assert_eq!(m.fault_log().torn_writes(), 1);
        m.abort_txn().unwrap();
        assert!(snap.matches(m.mem()), "torn write must roll back too");
    }

    #[test]
    fn txn_overlapping_scatters_keep_first_pre_image() {
        use crate::journal::Snapshot;
        let mut m = Machine::with_policy(CostModel::unit(), ConflictPolicy::LastWins);
        let r = m.alloc(4, "r");
        m.mem_mut().write_region(r, &[10, 20, 30, 40]);
        let snap = Snapshot::capture(m.mem(), &[r]);
        m.begin_txn().unwrap();
        // Two scatters in one round whose target sets overlap at cells 1 and
        // 2: the journal must keep the pre-images from *before the first*
        // scatter, not the intermediate values the second one clobbered.
        let idx_a = m.vimm(&[0, 1, 2]);
        let val_a = m.vimm(&[-1, -2, -3]);
        m.scatter(r, &idx_a, &val_a);
        let idx_b = m.vimm(&[1, 2, 3]);
        let val_b = m.vimm(&[-4, -5, -6]);
        m.scatter(r, &idx_b, &val_b);
        assert_eq!(m.mem().read_region(r), vec![-1, -4, -5, -6]);
        let j = m.abort_txn().unwrap();
        assert_eq!(j.len(), 4, "overlap must not double-journal");
        assert_eq!(
            j.pre_image(r.at(1)),
            Some(20),
            "first-write pre-image survives overlap"
        );
        assert_eq!(j.pre_image(r.at(2)), Some(30));
        assert!(snap.matches(m.mem()), "diff at {:?}", snap.diff(m.mem()));
    }

    #[test]
    fn txn_rolls_back_after_divide_by_zero_mid_round() {
        use crate::journal::Snapshot;
        let mut m = machine();
        let r = m.alloc(3, "r");
        m.mem_mut().write_region(r, &[7, 8, 9]);
        let snap = Snapshot::capture(m.mem(), &[r]);
        m.begin_txn().unwrap();
        // A round that stores, then traps: the partial stores must unwind.
        m.vfill(r, 111);
        let num = m.vimm(&[6, 6]);
        let den = m.vimm(&[2, 0]);
        let trap = m.try_valu(AluOp::Div, &num, &den).unwrap_err();
        assert!(matches!(trap, MachineTrap::DivideByZero { lane: 1, .. }));
        assert!(m.in_txn(), "a trap must not silently close the transaction");
        m.abort_txn().unwrap();
        assert!(
            snap.matches(m.mem()),
            "mid-round trap left residue: {:?}",
            snap.diff(m.mem())
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn valu_length_mismatch_panics() {
        let mut m = machine();
        let a = m.vimm(&[1]);
        let b = m.vimm(&[1, 2]);
        let _ = m.valu(AluOp::Add, &a, &b);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_oob_panics() {
        let mut m = machine();
        let r = m.alloc(2, "r");
        let idx = m.vimm(&[5]);
        let _ = m.gather(r, &idx);
    }

    #[test]
    #[should_panic(expected = "negative index")]
    fn scatter_negative_index_panics() {
        let mut m = machine();
        let r = m.alloc(2, "r");
        let idx = m.vimm(&[-1]);
        let val = m.vimm(&[0]);
        m.scatter(r, &idx, &val);
    }

    // ------------------------------------------------------------------
    // Lane health, execution masks, degradation
    // ------------------------------------------------------------------

    #[test]
    fn physical_lane_schedule_round_robins_over_active_lanes() {
        use crate::health::{LaneSet, LANE_COUNT};
        let mut m = machine();
        assert_eq!(m.physical_lane(0), 0);
        assert_eq!(m.physical_lane(LANE_COUNT + 3), 3);
        // Quarantine lane 0: elements remap onto the 63 survivors.
        m.set_active_lanes(LaneSet::all().difference(LaneSet::single(0)));
        assert_eq!(m.physical_lane(0), 1);
        assert_eq!(m.physical_lane(62), 63);
        assert_eq!(m.physical_lane(63), 1, "wraps over the reduced width");
        // An empty mask is coerced to full width.
        m.set_active_lanes(LaneSet::empty());
        assert_eq!(m.active_lanes(), LaneSet::all());
    }

    #[test]
    fn sticky_lane_drops_its_writes_and_feeds_the_health_registry() {
        use crate::fault::FaultPlan;
        let mut m = machine();
        m.set_fault_plan(Some(FaultPlan::sticky_lanes(1, 1 << 2)));
        let r = m.alloc(8, "r");
        let idx = m.vimm(&[0, 1, 2, 3]);
        let val = m.vimm(&[10, 20, 30, 40]);
        m.scatter(r, &idx, &val);
        // Element 2 rode physical lane 2 and was dropped; the rest landed.
        assert_eq!(m.mem().read_region(r)[..4], [10, 20, 0, 40]);
        assert_eq!(m.fault_log().dropped_lanes(), 1);
        assert!(m.health().score(2) > 0, "fault attributed to lane 2");
        assert_eq!(m.health().score(1), 0);
    }

    #[test]
    fn execution_mask_steers_elements_off_a_sticky_lane() {
        use crate::fault::FaultPlan;
        use crate::health::LaneSet;
        let mut m = machine();
        m.set_fault_plan(Some(FaultPlan::sticky_lanes(1, 1 << 2)));
        m.set_active_lanes(LaneSet::all().difference(LaneSet::single(2)));
        let r = m.alloc(8, "r");
        let idx = m.vimm(&[0, 1, 2, 3]);
        let val = m.vimm(&[10, 20, 30, 40]);
        m.scatter(r, &idx, &val);
        // Same program, same index vector — but no element uses lane 2, so
        // every write lands.
        assert_eq!(m.mem().read_region(r)[..4], [10, 20, 30, 40]);
        assert!(m.fault_log().is_empty());
    }

    #[test]
    fn repeated_sticky_faults_quarantine_the_lane_automatically() {
        use crate::fault::FaultPlan;
        let mut m = machine();
        m.set_fault_plan(Some(FaultPlan::sticky_lanes(1, 1 << 5)));
        let r = m.alloc(8, "r");
        // Element position 5 of each 8-long scatter rides physical lane 5.
        for _ in 0..3 {
            let idx = m.vimm(&[0, 1, 2, 3, 4, 5, 6, 7]);
            let val = m.vimm(&[0, 1, 2, 3, 4, 9, 6, 7]);
            m.scatter(r, &idx, &val);
        }
        assert!(m.health().is_quarantined(5), "{}", m.health().summary());
        assert!(!m.health().is_quarantined(4));
    }

    #[test]
    fn degraded_width_charges_proportionally_more_cycles() {
        use crate::health::LaneSet;
        let mut m = machine();
        let r = m.alloc(64, "r");
        let idx = m.vimm(&vec![0; 64]);
        let full = m.stats().clone();
        let _ = m.gather(r, &idx);
        let full_cycles = m.stats_since(&full).vector_cycles;
        m.set_active_lanes(LaneSet::from_bits(0xFFFF_FFFF)); // 32 of 64 lanes
        let half = m.stats().clone();
        let _ = m.gather(r, &idx);
        let half_cycles = m.stats_since(&half).vector_cycles;
        assert!(
            half_cycles > full_cycles,
            "half-width gather must cost more: {half_cycles} vs {full_cycles}"
        );
    }

    #[test]
    fn probe_restores_a_healthy_lane_and_keeps_a_sick_one_quarantined() {
        use crate::fault::FaultPlan;
        let mut m = machine();
        m.set_fault_plan(Some(FaultPlan::sticky_lanes(1, 1 << 3)));
        m.health_mut().quarantine(3);
        assert!(!m.probe_lane(3), "a sticky lane fails its self-test");
        assert!(m.health().is_quarantined(3));
        // The fault clears (say the pipe was reseated): the probe passes and
        // the circuit breaker restores the lane.
        m.set_fault_plan(None);
        assert!(m.probe_lane(3));
        assert!(!m.health().is_quarantined(3));
        assert_eq!(m.health().restores(), 1);
    }

    #[test]
    fn reprobe_quarantined_runs_the_breaker_over_due_lanes() {
        use crate::health::{LaneHealthRegistry, LaneSet};
        let mut m = machine();
        *m.health_mut() = LaneHealthRegistry::new().with_probe_cooldown(0);
        m.health_mut().quarantine(1);
        m.health_mut().quarantine(7);
        let restored = m.reprobe_quarantined();
        assert_eq!(restored, LaneSet::from_bits((1 << 1) | (1 << 7)));
        assert!(m.health().quarantined().is_empty());
        // Probes used scratch memory, not any workload region.
        assert!(m.mem().allocations().iter().any(|(n, _)| n == "(scratch)"));
    }

    #[test]
    fn probe_writes_are_journaled_like_any_store() {
        use crate::journal::Snapshot;
        let mut m = machine();
        // Materialize the scratch region before the snapshot so the probe's
        // writes land inside snapshotted memory.
        assert!(m.probe_lane(0));
        let scratch = m
            .mem()
            .allocations()
            .iter()
            .find(|(n, _)| n == "(scratch)")
            .map(|&(_, r)| r)
            .unwrap();
        let snap = Snapshot::capture(m.mem(), &[scratch]);
        m.begin_txn().unwrap();
        assert!(m.probe_lane(4));
        m.abort_txn().unwrap();
        assert!(
            snap.matches(m.mem()),
            "sacrificial probe writes must roll back: {:?}",
            snap.diff(m.mem())
        );
    }

    #[test]
    fn txn_misuse_never_corrupts_the_undo_log() {
        use crate::journal::Snapshot;
        let mut m = machine();
        let r = m.alloc(4, "r");
        m.mem_mut().write_region(r, &[1, 2, 3, 4]);
        let snap = Snapshot::capture(m.mem(), &[r]);
        m.begin_txn().unwrap();
        let idx = m.vimm(&[0, 1]);
        let val = m.vimm(&[10, 20]);
        m.scatter(r, &idx, &val);
        // A rejected nested begin must not reset or truncate the live
        // journal…
        assert_eq!(m.begin_txn().unwrap_err(), TxnError::NestedTransaction);
        let idx = m.vimm(&[2]);
        let val = m.vimm(&[30]);
        m.scatter(r, &idx, &val);
        // …so the eventual abort still restores everything, including the
        // writes from before the misuse.
        m.abort_txn().unwrap();
        assert!(snap.matches(m.mem()), "diff: {:?}", snap.diff(m.mem()));
        // Misuse with no transaction open is inert: typed errors, memory
        // untouched, and a fresh transaction still works.
        for _ in 0..3 {
            assert_eq!(m.commit_txn().unwrap_err(), TxnError::NoTransaction);
            assert_eq!(m.abort_txn().unwrap_err(), TxnError::NoTransaction);
        }
        assert!(snap.matches(m.mem()));
        m.begin_txn().unwrap();
        m.vfill(r, 9);
        m.abort_txn().unwrap();
        assert!(snap.matches(m.mem()));
    }

    #[test]
    fn rollback_escalates_fault_implicated_lanes() {
        use crate::fault::FaultPlan;
        let mut m = machine();
        m.set_fault_plan(Some(FaultPlan::sticky_lanes(1, 1 << 6)));
        let r = m.alloc(8, "r");
        m.begin_txn().unwrap();
        let idx = m.vimm(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let val = m.vimm(&[1, 1, 1, 1, 1, 1, 1, 1]);
        m.scatter(r, &idx, &val);
        let before = m.health().score(6);
        assert!(before > 0);
        m.abort_txn().unwrap();
        assert!(
            m.health().score(6) > before,
            "the rollback corroborates the fault log"
        );
        assert_eq!(m.health().score(0), 0, "unimplicated lanes stay clean");
    }

    // ------------------------------------------------------------------
    // Integrity: checksums, scrub, bit-rot, gather faults, ELS audit
    // ------------------------------------------------------------------

    #[test]
    fn incremental_checksum_tracks_every_store_path() {
        let mut m = machine();
        let r = m.alloc(8, "r");
        m.track_region(r);
        // Scatter, vstore, vfill, strided store — every instruction-level
        // store path must keep the incremental digest in sync.
        let idx = m.vimm(&[0, 3, 5]);
        let val = m.vimm(&[10, 20, 30]);
        m.scatter(r, &idx, &val);
        let v = m.vimm(&[7, 8]);
        m.vstore(r, 6, &v);
        m.vfill(r, 1);
        let v = m.vimm(&[4, 5]);
        m.vstore_strided(r, 1, 3, &v);
        let expected = crate::integrity::digest_words(r.base(), &m.mem().read_region(r));
        assert_eq!(m.checksum_of(r), Some(expected));
        assert!(m.scrub().is_ok());
    }

    #[test]
    fn scrub_catches_out_of_band_writes() {
        let mut m = machine();
        let r = m.alloc(4, "table");
        m.track_region(r);
        assert!(m.scrub().is_ok());
        // Writing behind the store path (as bit-rot does) diverges the sums.
        m.mem_mut().write(r.at(2), 99);
        let err = m.scrub().unwrap_err();
        match &err {
            IntegrityError::ChecksumMismatch { region, len, .. } => {
                assert_eq!(region, "table");
                assert_eq!(*len, 4);
            }
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
        // Resync accepts the current contents as the new truth.
        m.resync_integrity();
        assert!(m.scrub().is_ok());
    }

    #[test]
    fn bit_rot_strikes_only_tracked_regions_and_is_caught_by_scrub() {
        use crate::fault::FaultPlan;
        let mut m = machine();
        let tracked = m.alloc(64, "tracked");
        let untracked = m.alloc(64, "untracked");
        m.track_region(tracked);
        m.set_fault_plan(Some(FaultPlan::bit_rot(7, 0x4000)));
        let before_untracked = m.mem().read_region(untracked);
        // Drive scatters until rot lands somewhere.
        let idx = m.vimm(&[0, 1, 2, 3]);
        let val = m.vimm(&[1, 1, 1, 1]);
        for _ in 0..8 {
            m.scatter(tracked, &idx, &val);
        }
        let rots = m.fault_log().bit_rots();
        assert!(rots > 0, "rot at ~25%/word over 8 scatters must land");
        assert_eq!(
            m.mem().read_region(untracked),
            before_untracked,
            "untracked regions never rot"
        );
        assert!(
            m.scrub().is_err(),
            "scrub must notice decayed tracked words"
        );
    }

    #[test]
    fn gather_faults_fire_and_are_logged() {
        use crate::fault::FaultPlan;
        let mut m = machine();
        let r = m.alloc(16, "r");
        m.mem_mut().write_region(r, &(1..=16).collect::<Vec<_>>());
        let plan = FaultPlan::gather_flips(3, 0x2000)
            .with_stale_reads(0x2000)
            .with_torn_gathers(0x2000);
        m.set_fault_plan(Some(plan));
        let idx = m.vimm(&[0, 1, 2, 3, 4, 5, 6, 7]);
        // Overwrite first so the stale shadow has old values to serve.
        let val = m.vimm(&[91, 92, 93, 94, 95, 96, 97, 98]);
        m.scatter(r, &idx, &val);
        let mut corrupt = 0;
        for _ in 0..16 {
            let got = m.gather(r, &idx);
            corrupt += got.iter().zip(val.iter()).filter(|(g, v)| g != v).count();
        }
        assert!(corrupt > 0, "read faults at 12.5%/lane must corrupt lanes");
        let log = m.fault_log();
        assert_eq!(
            log.read_faults(),
            log.gather_flips() + log.stale_reads() + log.torn_gathers()
        );
        assert!(log.read_faults() > 0);
    }

    #[test]
    fn auditor_passes_clean_rounds_and_is_free_when_off() {
        let mut m = machine();
        let r = m.alloc(8, "work");
        let idx = m.vimm(&[0, 3, 3, 5]);
        let labels = m.vimm(&[1, 2, 3, 4]);
        // Disabled: wrappers are inert.
        m.audit_note_scatter(r, &idx, &labels);
        let junk = m.vimm(&[0, 0, 0, 0]);
        assert!(m.audit_check_gather(r, &idx, &junk).is_ok());
        assert!(m.els_auditor().is_none());
        // Enabled: a faithful scatter/gather round passes.
        m.set_els_audit(true);
        m.audit_note_scatter(r, &idx, &labels);
        m.scatter(r, &idx, &labels);
        let got = m.gather(r, &idx);
        m.audit_check_gather(r, &idx, &got).unwrap();
        let audit = m.els_auditor().unwrap();
        // Duplicate-index lanes share one address entry, checked (and
        // consumed) once: 3 distinct addresses, not 4 lanes.
        assert_eq!(audit.checked(), 3);
        assert_eq!(audit.violations(), 0);
    }

    /// The acceptance table: every injected amalgam must be flagged. Torn
    /// writes under each amalgam mode produce a stored word that is none of
    /// the competing labels; the auditor must flag 100% of them.
    #[test]
    fn auditor_flags_every_injected_amalgam() {
        use crate::fault::{AmalgamMode, FaultPlan};
        for mode in [AmalgamMode::Or, AmalgamMode::And, AmalgamMode::Xor] {
            let mut flagged = 0u32;
            let mut injected = 0u32;
            for seed in 1..=16u64 {
                let mut m = machine();
                let r = m.alloc(8, "work");
                m.set_els_audit(true);
                m.set_fault_plan(Some(FaultPlan::torn_writes(seed, 0xFFFF, mode)));
                // Labels chosen so every amalgam differs from both inputs.
                let idx = m.vimm(&[2, 2, 6, 6]);
                let labels = m.vimm(&[0b01, 0b10, 0b0101, 0b1010]);
                m.audit_note_scatter(r, &idx, &labels);
                m.scatter(r, &idx, &labels);
                let torn = m.fault_log().torn_writes() as u32;
                if torn == 0 {
                    continue;
                }
                injected += torn;
                let got = m.gather(r, &idx);
                if m.audit_check_gather(r, &idx, &got).is_err() {
                    // One check_gather reports the first violation; the
                    // counter has them all.
                    flagged += m.els_auditor().unwrap().violations() as u32;
                }
            }
            assert!(injected > 0, "tearing at 100% must inject amalgams");
            assert_eq!(
                flagged, injected,
                "auditor must flag 100% of {mode:?} amalgams"
            );
        }
    }

    #[test]
    fn auditor_tolerates_payload_overwrites_between_rounds() {
        let mut m = machine();
        let r = m.alloc(8, "work");
        m.set_els_audit(true);
        // Round 1: labels, checked and consumed.
        let idx = m.vimm(&[1, 1, 4]);
        let labels = m.vimm(&[10, 20, 30]);
        m.audit_note_scatter(r, &idx, &labels);
        m.scatter(r, &idx, &labels);
        let got = m.gather(r, &idx);
        m.audit_check_gather(r, &idx, &got).unwrap();
        // A payload scatter to the same addresses (BST winner-pointer style)
        // must not trip the next audit: round 1's notes were consumed.
        let payload = m.vimm(&[777, 777, 777]);
        m.scatter(r, &idx, &payload);
        let got = m.gather(r, &idx);
        assert!(m.audit_check_gather(r, &idx, &got).is_ok());
        assert_eq!(m.els_auditor().unwrap().violations(), 0);
    }

    /// A disabled auditor's storage is reused by the next one enabled, yet
    /// the new auditor starts as a fresh one: no notes left from the old
    /// one judge its gathers, and its counters and rate are its own.
    #[test]
    fn a_reenabled_auditor_starts_fresh() {
        let mut m = machine();
        let r = m.alloc(8, "work");
        m.set_els_audit(true);
        let idx = m.vimm(&[2, 6]);
        let labels = m.vimm(&[10, 20]);
        m.audit_note_scatter(r, &idx, &labels);
        m.set_els_audit(false);
        m.set_els_audit_rate(4, 9);
        let audit = m.els_auditor().unwrap();
        assert_eq!(audit.rate(), 4);
        assert_eq!((audit.rounds_seen(), audit.checked()), (0, 0));
        m.set_els_audit(false);
        m.set_els_audit(true);
        let junk = m.vimm(&[0, 0]);
        assert!(m.audit_check_gather(r, &idx, &junk).is_ok());
        assert_eq!(m.els_auditor().unwrap().checked(), 0);
        m.audit_note_scatter(r, &idx, &labels);
        assert!(m.audit_check_gather(r, &idx, &junk).is_err());
    }

    #[test]
    fn masked_audit_notes_only_live_lanes() {
        let mut m = machine();
        let r = m.alloc(8, "work");
        m.set_els_audit(true);
        let idx = m.vimm(&[0, 1, 2]);
        let vals = m.vimm(&[5, 6, 7]);
        let mask = Mask::from_slice(&[true, false, true]);
        m.audit_note_scatter_masked(r, &idx, &vals, &mask);
        m.scatter_masked(r, &idx, &vals, &mask);
        let got = m.gather(r, &idx);
        // Lane 1 was suppressed: its read (of the old 0) must not be judged
        // against the never-stored 6.
        assert!(m.audit_check_gather(r, &idx, &got).is_ok());
        assert_eq!(m.els_auditor().unwrap().checked(), 2);
    }

    #[test]
    fn abort_keeps_tracked_checksums_in_sync() {
        let mut m = machine();
        let r = m.alloc(8, "r");
        m.mem_mut().write_region(r, &[1, 2, 3, 4, 5, 6, 7, 8]);
        m.track_region(r);
        m.begin_txn().unwrap();
        let idx = m.vimm(&[0, 2, 2, 7]);
        let val = m.vimm(&[10, 20, 30, 40]);
        m.scatter(r, &idx, &val);
        m.abort_txn().unwrap();
        assert_eq!(m.mem().read_region(r), vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(
            m.scrub().is_ok(),
            "rollback must flow through the checksum-maintaining path"
        );
    }

    #[test]
    fn remembered_cuts_keep_the_two_newest_states() {
        let m = machine();
        let cut = |state| CutBaseline {
            state,
            regions: vec![(Region::from_raw(0, 32), vec![state])],
        };
        m.remember_cut(cut(1));
        m.remember_cut(cut(2));
        m.remember_cut(cut(1)); // same state: replaces, does not evict 2
        assert!(m.cut_baseline(2).is_some());
        m.remember_cut(cut(3)); // evicts the oldest, 2
        assert!(m.cut_baseline(2).is_none());
        assert_eq!(
            m.cut_baseline(1)
                .unwrap()
                .blocks_of(Region::from_raw(0, 32)),
            Some(&[1u64][..])
        );
        assert!(m
            .cut_baseline(3)
            .unwrap()
            .blocks_of(Region::from_raw(0, 16))
            .is_none());
    }

    #[test]
    fn content_digest_reflects_memory_not_stale_sums() {
        let mut m = machine();
        let r = m.alloc(4, "r");
        m.track_region(r);
        let d0 = m.content_digest();
        m.mem_mut().write(r.at(0), 5); // behind the store path
        let d1 = m.content_digest();
        assert_ne!(d0, d1, "content digest is recomputed, not incremental");
        // Untracked machines digest every allocation.
        let mut n = machine();
        let s = n.alloc(4, "s");
        let e0 = n.content_digest();
        n.mem_mut().write(s.at(1), 9);
        assert_ne!(n.content_digest(), e0);
    }

    /// A region of `blocks` integrity blocks holding `0, 1, 2, …`, tracked.
    fn tracked_ramp(m: &mut Machine, blocks: usize) -> Region {
        let r = m.alloc(blocks * BLOCK_WORDS, "ramp");
        m.mem_mut()
            .write_region(r, &(0..r.len() as Word).collect::<Vec<_>>());
        m.track_region(r);
        r
    }

    #[test]
    fn region_digest_is_the_xor_of_block_digests_on_every_store_path() {
        let mut m = machine();
        let r = tracked_ramp(&mut m, 4);
        let idx = m.vimm(&[1, 40, 100, 127]);
        let val = m.vimm(&[-1, -2, -3, -4]);
        m.scatter(r, &idx, &val);
        m.begin_txn().unwrap();
        m.s_write(r.at(70), 9);
        m.commit_txn().unwrap();
        m.begin_txn().unwrap();
        m.s_write(r.at(5), 11);
        m.abort_txn().unwrap();
        let g = &m.guards[0];
        let from_blocks = crate::integrity::block_digests(r.base(), &m.mem().read_region(r));
        assert_eq!(g.blocks, from_blocks, "block digests track every store");
        assert_eq!(m.checksum_of(r), Some(g.sum()));
        assert_eq!(g.image, m.mem().read_region(r), "image = committed memory");
    }

    #[test]
    fn footprint_holds_stored_and_read_blocks_only() {
        let mut m = machine();
        let r = tracked_ramp(&mut m, 8);
        m.begin_txn().unwrap();
        m.s_write(r.at(3), 7); // block 0
        let idx = m.vimm(&[2 * BLOCK_WORDS as Word + 1]);
        let _ = m.gather(r, &idx); // block 2
        let _ = m.vload(r, 5 * BLOCK_WORDS, 2); // block 5
        let _ = m.s_read(r.at(7 * BLOCK_WORDS)); // block 7
        assert_eq!(m.footprint_blocks(), 4);
        // Rot outside the footprint is not the footprint scrub's business…
        let w = m.mem().read(r.at(4 * BLOCK_WORDS));
        m.mem_mut().write(r.at(4 * BLOCK_WORDS), w ^ 1);
        assert!(m.scrub_footprint().is_ok());
        // …rot in a block the attempt only read is.
        let w = m.mem().read(r.at(2 * BLOCK_WORDS + 9));
        m.mem_mut().write(r.at(2 * BLOCK_WORDS + 9), w ^ 1);
        match m.scrub_footprint() {
            Err(IntegrityError::ChecksumMismatch { base, len, .. }) => {
                assert_eq!((base, len), (r.at(2 * BLOCK_WORDS), BLOCK_WORDS));
            }
            other => panic!("footprint scrub must name block 2: {other:?}"),
        }
        m.commit_txn().unwrap();
        assert_eq!(m.footprint_blocks(), 0, "commit clears the footprint");
        assert!(m.scrub().is_err(), "the full scrub sees both rotted blocks");
        assert_eq!(m.repair_from_image(), 2);
        assert!(m.scrub().is_ok());
        let mut want: Vec<Word> = (0..r.len() as Word).collect();
        want[3] = 7;
        assert_eq!(
            m.mem().read_region(r),
            want,
            "repair restores committed words"
        );
    }

    #[test]
    fn retracking_and_commit_never_adopt_rot() {
        let mut m = machine();
        let r = tracked_ramp(&mut m, 2);
        let w = m.mem().read(r.at(1));
        m.mem_mut().write(r.at(1), w ^ 4); // rot before the transaction
        m.track_region(r); // re-tracking recomputes nothing
        assert!(m.scrub().is_err());
        m.begin_txn().unwrap();
        m.s_write(r.at(40), 5);
        // Rot strikes the stored word after its store: the commit folds the
        // stored word, not memory, into the image.
        m.mem_mut().write(r.at(40), 6);
        m.commit_txn().unwrap();
        assert_eq!(m.committed_words(r).unwrap()[1], 1);
        assert_eq!(m.committed_words(r).unwrap()[40], 5);
        let snap = m.committed_snapshot(&[r]);
        assert_eq!(snap.parts()[0].1[40], 5, "snapshots are cut from the image");
        assert_eq!(m.repair_from_image(), 2);
        assert_eq!(m.mem().read(r.at(1)), 1);
        assert_eq!(m.mem().read(r.at(40)), 5);
    }

    #[test]
    fn bounded_scrub_passes_wrap_and_repair() {
        let mut m = machine();
        let a = tracked_ramp(&mut m, 3);
        let b = m.alloc(BLOCK_WORDS + 1, "b");
        m.track_region(b); // 2 blocks: 5 in total
        let w = m.mem().read(b.at(BLOCK_WORDS));
        m.mem_mut().write(b.at(BLOCK_WORDS), w ^ 1);
        let first = m.scrub_blocks(0, 4);
        assert_eq!((first.checked, first.repaired, first.next), (4, 0, 4));
        let second = m.scrub_blocks(first.next, 4);
        assert_eq!((second.checked, second.repaired), (4, 1));
        assert_eq!(second.next, 3, "the cursor wraps over every tracked block");
        assert!(m.scrub().is_ok());
        assert_eq!(
            m.mem().read_region(a),
            (0..a.len() as Word).collect::<Vec<_>>()
        );
    }
}
