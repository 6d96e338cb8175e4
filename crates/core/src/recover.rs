//! Transactional FOL rounds: retry with escalation, journaled rollback.
//!
//! The fallible paths in [`crate::decompose`] and [`crate::parallel`] turn
//! ELS violations (see [`fol_vm::fault`]) into typed errors instead of wrong
//! answers — but they stop there: a faulted run leaves the work area dirty
//! and the caller with nothing but the error. This module closes the loop:
//!
//! 1. **Transactions** — every attempt runs inside a machine transaction
//!    ([`fol_vm::Machine::begin_txn`]); a failed attempt is rolled back
//!    byte-exact before the next one starts.
//! 2. **Retry with escalation** — a [`RetryPolicy`] bounds the attempts and
//!    names an escalation ladder of [`ExecMode`]s. The default ladder has
//!    three rungs, [`ExecMode::Vector`] → [`ExecMode::DegradedVector`] →
//!    [`ExecMode::ScalarTail`]: first the full-width vector path; then the
//!    same vector program with the machine's quarantined lanes masked out
//!    of the execution schedule (sticky per-lane faults are *routed
//!    around*, not retreated from); finally the scalar path, which bypasses
//!    the vector scatter unit entirely and is therefore immune to every
//!    fault a [`fol_vm::FaultPlan`] can inject. A run starts at the rung
//!    the machine's previous committed run predicts
//!    ([`fol_vm::Machine::start_rung`]), and attempts follow each other
//!    without sleeping: in-process faults come from a seeded plan reseeded
//!    per attempt, so waiting would clear nothing (the paper's own livelock
//!    remedy, FOL\* §3.3, is a scalar tail, not a timed retry). Two rules
//!    steer the rung: a failed `DegradedVector` attempt that is not the
//!    run's first holds its rung while the quarantine grows, and a
//!    first-attempt commit steps the next run's start back one rung, except
//!    on `DegradedVector`, which keeps it.
//! 3. **Graceful degradation** — the machine's
//!    [`fol_vm::LaneHealthRegistry`] correlates fault-log entries and
//!    rollbacks to physical lanes; when the supervisor reaches a
//!    [`ExecMode::DegradedVector`] rung it folds the registry's quarantine
//!    set into the rung's own, and after every failed attempt it runs the
//!    lane circuit breaker ([`fol_vm::Machine::reprobe_quarantined`]) —
//!    before that attempt's repair scrub, so whatever the probe scatters
//!    disturb is repaired too — and lanes whose faults have cleared rejoin
//!    the next attempt's schedule.
//! 4. **Livelock watchdog** — an optional [`WatchdogConfig`] arms a
//!    [`Watchdog`] per attempt: when the FOL survivor set fails to shrink
//!    for `stall_rounds` consecutive detection passes, or the attempt's
//!    wall-clock deadline expires, the attempt dies with
//!    [`FolError::Stalled`] and the supervisor returns
//!    [`RecoveryError::Watchdog`] *immediately* — a stalled machine is not
//!    an escalation candidate, it is a fault to report.
//! 5. **Post-condition validation** — each attempt's decomposition is
//!    re-checked against the ELS round-trip contract at the policy's
//!    [`Validation`] level before any host data is touched; host data is
//!    mutated only after the whole attempt has succeeded (all-or-nothing).
//!
//! The outcome of a supervised run is a [`RecoveryReport`]: how many
//! attempts ran, how many completed rounds were rolled back and replayed,
//! which mode finally succeeded, how long each attempt took
//! ([`AttemptRecord`]), and how many faults the adversary injected along
//! the way — correlatable with [`fol_vm::FaultLog::summary`] and the fault
//! annotations in a [`fol_vm::Tracer`]. Reports serialize to JSON
//! ([`RecoveryReport::to_json`]) without any external dependency, so a CI
//! chaos artifact is self-describing.

use crate::decompose::try_fol1_machine_observed;
use crate::error::{validate_decomposition, FolError, Validation};
use crate::parallel::{try_apply_rounds, try_par_apply_rounds};
use crate::Decomposition;
use fol_vm::{BackendKind, ConflictPolicy, IntegrityError, LaneSet, Machine, Region, Word};
use std::fmt;
use std::time::{Duration, Instant};

/// How one attempt executes the FOL detection loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// The normal full-width vector path ([`crate::decompose::try_fol1_machine`]): fastest,
    /// but exposed to every scatter fault.
    Vector,
    /// The vector path at reduced effective width: the `quarantined` lanes
    /// are removed from the machine's execution mask for the duration of
    /// the attempt, so the *same program* runs with its elements scheduled
    /// onto the remaining healthy lanes — no index vectors are rewritten.
    /// Throughput drops by `64/(64-|quarantined|)`, charged faithfully by
    /// the cost model; sticky per-lane faults simply never fire. An empty
    /// set degenerates to [`ExecMode::Vector`]. The supervisor unions in
    /// the machine's own [`fol_vm::LaneHealthRegistry`] quarantine set when
    /// it reaches this rung.
    DegradedVector {
        /// Lanes excluded from the execution schedule for this attempt.
        quarantined: LaneSet,
    },
    /// Retired: runs, displays and is reported exactly as
    /// [`ExecMode::DegradedVector`] ([`run_transaction`] turns a rung of
    /// this mode into one). It was a replay-voting rung between
    /// `DegradedVector` and `ScalarTail` that rescued no run `ScalarTail`
    /// would not. The variant is kept because the benchmark's replay
    /// counts commits on every variant by name.
    VerifiedReplay {
        /// Lanes excluded from the execution schedule, as in
        /// [`ExecMode::DegradedVector`].
        quarantined: LaneSet,
    },
    /// Retired: runs exactly as [`ExecMode::ScalarTail`]. It was a
    /// singleton-scatter rung that rescued no run `ScalarTail` would not.
    /// Kept for the same reason as [`ExecMode::VerifiedReplay`].
    ForcedSequential,
    /// Scalar stores and loads only (`s_write`/`s_read`). The vector
    /// scatter unit is never touched, so no [`fol_vm::FaultPlan`] fault can
    /// fire: this rung always completes. Writes remain journaled.
    ScalarTail,
}

impl fmt::Display for ExecMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecMode::DegradedVector { quarantined } | ExecMode::VerifiedReplay { quarantined } => {
                write!(f, "DegradedVector{quarantined}")
            }
            unit => fmt::Debug::fmt(unit, f),
        }
    }
}

/// Bounded retry with an escalation ladder.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts before giving up (at least 1).
    pub max_attempts: usize,
    /// Escalation rungs in order. A run starts on the machine's start-rung
    /// hint (clamped to the last rung; see [`run_transaction`]), each failed
    /// attempt moves one rung down, and attempts beyond the ladder's end
    /// stay on its last rung.
    pub ladder: Vec<ExecMode>,
    /// Reseed the machine's seeded conflict policy and fault plan between
    /// attempts, so a retry draws a fresh interleaving / fault pattern
    /// instead of replaying the one that just failed. Deterministic: the
    /// new seeds are a pure function of the old seed and the attempt
    /// number. Original seeds are restored when the supervisor returns.
    pub reseed: bool,
    /// Validation level for each attempt's post-condition check.
    pub validation: Validation,
    /// Livelock watchdog armed per attempt by the transactional entry
    /// points. `None` (the default) means no watchdog: only the round
    /// budget bounds non-convergence.
    pub watchdog: Option<WatchdogConfig>,
    /// ELS-audit sampling rate for the supervised run: `0` disables the
    /// auditor, `1` (the default) audits every label round, `N > 1` audits a
    /// seeded 1-in-`N` sample of rounds. Executors that bracket their label
    /// rounds with [`fol_vm::Machine::audit_note_scatter`] /
    /// [`fol_vm::Machine::audit_check_gather`] get round-boundary detection
    /// of amalgams, phantom reads and read-path corruption on the sampled
    /// rounds; sampled-out rounds pay nothing, so the knob trades the
    /// audit's gather-mirroring traffic (which roughly doubles gather cost
    /// at rate 1) against detection latency — a persistent corrupter is
    /// still caught, up to `N-1` rounds late. Independent of
    /// [`RetryPolicy::validation`] so the integrity bench can price each
    /// mechanism separately.
    pub audit_rate: usize,
    /// Seed for the audit sampler's round selection (deterministic given
    /// the seed and the round index; irrelevant at rates 0 and 1).
    pub audit_seed: u64,
}

impl Default for RetryPolicy {
    /// Three attempts, one per rung of the three-rung ladder (`Vector`,
    /// then `DegradedVector` with the machine's own quarantine set, then
    /// `ScalarTail`), reseeding between attempts, validating the whole FOL
    /// contract, auditing every round, no watchdog. A failed
    /// `DegradedVector` attempt that is not the run's first holds its rung
    /// while the quarantine grows, and a first-attempt commit steps the
    /// next run's start back one rung unless it committed on
    /// `DegradedVector` (see [`run_transaction`]).
    fn default() -> Self {
        Self {
            max_attempts: 3,
            ladder: vec![
                ExecMode::Vector,
                ExecMode::DegradedVector {
                    quarantined: LaneSet::empty(),
                },
                ExecMode::ScalarTail,
            ],
            reseed: true,
            validation: Validation::Full,
            watchdog: None,
            audit_rate: 1,
            audit_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never escalates: `attempts` tries, all on the vector
    /// path (useful when reseeding alone is expected to clear the fault).
    pub fn vector_only(attempts: usize) -> Self {
        Self {
            max_attempts: attempts.max(1),
            ladder: vec![ExecMode::Vector],
            ..Self::default()
        }
    }

    /// The mode of rung `rung` (0-based), clamped to the ladder's last
    /// rung; an empty ladder runs [`ExecMode::Vector`].
    pub fn mode_for(&self, rung: usize) -> ExecMode {
        if self.ladder.is_empty() {
            return ExecMode::Vector;
        }
        self.ladder[rung.min(self.ladder.len() - 1)]
    }
}

/// Limits the livelock watchdog enforces on every attempt. See
/// [`RetryPolicy::watchdog`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Trip after this many consecutive detection passes in which the live
    /// set failed to shrink. `0` disables the stall counter.
    pub stall_rounds: usize,
    /// Trip once this much wall-clock time has elapsed since the attempt
    /// started. `None` disables the deadline.
    pub deadline: Option<Duration>,
}

impl Default for WatchdogConfig {
    /// Three stalled passes, no deadline.
    fn default() -> Self {
        Self {
            stall_rounds: 3,
            deadline: None,
        }
    }
}

/// Per-attempt livelock watchdog: observes the live count at every FOL
/// detection pass (via [`decompose_with_mode_watched`]) and converts
/// non-convergence into [`FolError::Stalled`].
///
/// Progress in FOL is the survivor set shrinking; a pass after which it has
/// not is a stalled pass. The wall-clock deadline runs from
/// [`Watchdog::start`], so it bounds one *attempt*, not the whole retry
/// ladder.
#[derive(Debug)]
pub struct Watchdog {
    config: WatchdogConfig,
    started: Instant,
    last_live: Option<usize>,
    stalled: usize,
}

impl Watchdog {
    /// Arms a watchdog; the deadline clock starts now.
    pub fn start(config: &WatchdogConfig) -> Self {
        Self {
            config: *config,
            started: Instant::now(),
            last_live: None,
            stalled: 0,
        }
    }

    /// Feeds one detection pass's live count. Returns [`FolError::Stalled`]
    /// when the deadline has expired or the live count has now failed to
    /// shrink for `stall_rounds` consecutive observations.
    pub fn observe(&mut self, live: usize) -> Result<(), FolError> {
        if let Some(deadline) = self.config.deadline {
            if self.started.elapsed() >= deadline {
                return Err(FolError::Stalled {
                    stalled_rounds: self.stalled,
                    live,
                    deadline_expired: true,
                });
            }
        }
        match self.last_live {
            Some(prev) if live >= prev => self.stalled += 1,
            _ => self.stalled = 0,
        }
        self.last_live = Some(live);
        if self.config.stall_rounds > 0 && self.stalled >= self.config.stall_rounds {
            return Err(FolError::Stalled {
                stalled_rounds: self.stalled,
                live,
                deadline_expired: false,
            });
        }
        Ok(())
    }
}

/// One attempt's entry in [`RecoveryReport::attempt_trace`]: which mode it
/// ran under, how long it took wall-clock, and whether it succeeded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AttemptRecord {
    /// Mode the attempt executed under (after the supervisor folded the
    /// machine's quarantine set into a `DegradedVector` rung).
    pub mode: ExecMode,
    /// Wall-clock duration of the attempt, nanoseconds.
    pub duration_ns: u64,
    /// True when the attempt committed.
    pub ok: bool,
}

/// What a supervised run did: the audit trail of recovery.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// Attempts that ran (1 = first try succeeded).
    pub attempts: usize,
    /// Completed rounds that were rolled back and re-executed across all
    /// failed attempts (from [`FolError::completed_rounds`]).
    pub rounds_replayed: usize,
    /// Mode of the last attempt (the successful one, if any).
    pub final_mode: ExecMode,
    /// Mode of the first attempt: the rung the machine's start-rung hint
    /// ([`fol_vm::Machine::start_rung`]) picked, with the quarantine folded
    /// in as for any attempt.
    pub start_mode: ExecMode,
    /// The error each failed attempt died with, in order.
    pub errors: Vec<FolError>,
    /// Fault events the machine's [`fol_vm::FaultLog`] gained during the
    /// run — how much adversity was actually absorbed.
    pub faults_consumed: usize,
    /// Per-attempt mode, wall-clock duration and outcome, in order — the
    /// part of the audit trail that prices each rung of the ladder.
    pub attempt_trace: Vec<AttemptRecord>,
    /// Silent-corruption detections: attempts that died with a typed
    /// [`FolError::Integrity`] plus post-attempt scrubs that caught a
    /// tracked work area diverging from its checksum (bit-rot). Each
    /// detection was repaired (restore from the committed image) or
    /// escalated — never
    /// passed through.
    pub corruption_detected: usize,
    /// Always 0: it counted the replay votes of the retired
    /// [`ExecMode::VerifiedReplay`] rung. Kept because the benchmark's
    /// replay reads it.
    pub replays: usize,
    /// The execution backend the machine computed on — recovery is
    /// backend-generic, and the report says which lanes actually ran
    /// (typed degradation means this can be [`BackendKind::Scalar`] even
    /// when AVX2 was requested).
    pub backend: BackendKind,
}

impl RecoveryReport {
    /// True when success required surviving at least one failed attempt.
    pub fn recovered(&self) -> bool {
        !self.errors.is_empty()
    }

    /// Hand-rolled JSON encoding (the workspace is dependency-free); used
    /// by the chaos suite to dump the report of a failing run as a CI
    /// artifact.
    pub fn to_json(&self) -> String {
        let errors: Vec<String> = self
            .errors
            .iter()
            .map(|e| format!("\"{}\"", json_escape(&e.to_string())))
            .collect();
        let trace: Vec<String> = self
            .attempt_trace
            .iter()
            .map(|a| {
                format!(
                    "{{\"mode\":\"{}\",\"duration_ns\":{},\"ok\":{}}}",
                    a.mode, a.duration_ns, a.ok
                )
            })
            .collect();
        format!(
            "{{\"attempts\":{},\"rounds_replayed\":{},\"final_mode\":\"{}\",\
             \"start_mode\":\"{}\",\"recovered\":{},\"faults_consumed\":{},\
             \"corruption_detected\":{},\"replays\":{},\"backend\":\"{}\",\
             \"errors\":[{}],\"attempt_trace\":[{}]}}",
            self.attempts,
            self.rounds_replayed,
            self.final_mode,
            self.start_mode,
            self.recovered(),
            self.faults_consumed,
            self.corruption_detected,
            self.replays,
            self.backend,
            errors.join(","),
            trace.join(","),
        )
    }
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} attempt(s), {} round(s) replayed, finished in {} mode, {} fault(s) consumed",
            self.attempts, self.rounds_replayed, self.final_mode, self.faults_consumed
        )?;
        if self.corruption_detected > 0 {
            write!(f, ", {} corruption(s) detected", self.corruption_detected)?;
        }
        Ok(())
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The supervisor failed. Memory was rolled back to its pre-transaction
/// state in every case; the [`RecoveryReport`] says what was tried. The
/// report is boxed so every `Result<_, RecoveryError>` stays two words wide.
#[derive(Clone, Debug)]
pub enum RecoveryError {
    /// Every attempt the [`RetryPolicy`] allowed failed.
    Exhausted {
        /// The audit trail of the failed recovery.
        report: Box<RecoveryReport>,
    },
    /// The livelock watchdog tripped ([`FolError::Stalled`]): the attempt
    /// was rolled back and the supervisor returned immediately without
    /// burning the remaining escalation rungs — a machine that has stopped
    /// making progress needs operator attention, not more retries.
    Watchdog {
        /// The audit trail up to and including the tripped attempt.
        report: Box<RecoveryReport>,
    },
}

impl RecoveryError {
    /// The audit trail, whichever way the supervisor failed.
    pub fn report(&self) -> &RecoveryReport {
        match self {
            RecoveryError::Exhausted { report } | RecoveryError::Watchdog { report } => report,
        }
    }

    /// Consumes the error, yielding the audit trail.
    pub fn into_report(self) -> RecoveryReport {
        match self {
            RecoveryError::Exhausted { report } | RecoveryError::Watchdog { report } => *report,
        }
    }
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Exhausted { report } => {
                write!(f, "recovery exhausted: {report}")?;
                if let Some(last) = report.errors.last() {
                    write!(f, "; last error: {last}")?;
                }
                Ok(())
            }
            RecoveryError::Watchdog { report } => {
                write!(f, "recovery watchdog tripped: {report}")?;
                if let Some(last) = report.errors.last() {
                    write!(f, "; cause: {last}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Why one group of a coalesced batch did not land.
///
/// Batched entry points (`txn_insert_groups` in the workload crates, the
/// `fol-serve` scheduler) coalesce many independent requests into one
/// transaction and must report an outcome *per group*, not per batch. A group
/// either never enters the machine ([`GroupError::Rejected`], an admission
/// decision made from host-visible state alone) or enters and fails its own
/// isolated transaction after [`split_retry`] bisection
/// ([`GroupError::Recovery`]).
#[derive(Clone, Debug)]
pub enum GroupError {
    /// The group was refused admission before any transaction opened:
    /// capacity would be exceeded, keys are malformed, or the group conflicts
    /// with an already-admitted sibling. Machine state is untouched for this
    /// group.
    Rejected {
        /// Human-readable admission verdict.
        reason: String,
    },
    /// The group was admitted, and the supervised transaction covering it
    /// (after bisection isolated it from its siblings) failed. Memory was
    /// rolled back for the failing group; siblings committed or failed on
    /// their own merits.
    Recovery(RecoveryError),
}

impl fmt::Display for GroupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroupError::Rejected { reason } => write!(f, "group rejected: {reason}"),
            GroupError::Recovery(e) => write!(f, "group failed: {e}"),
        }
    }
}

impl std::error::Error for GroupError {}

impl From<RecoveryError> for GroupError {
    fn from(e: RecoveryError) -> Self {
        GroupError::Recovery(e)
    }
}

/// Executes a coalesced batch with per-item failure isolation by bisection.
///
/// `exec` is called with a contiguous slice of `items`. On `Ok(r)` every item
/// in the slice is credited with a clone of `r`; on `Err` a single-item slice
/// takes the error as its own, while a longer slice is split in half and each
/// half retried independently. Because every `exec` failure rolls back (the
/// callers wrap `run_transaction`), bisection costs at most
/// `O(F · log N)` extra transactions for `F` genuinely-bad items — and a
/// *single* adversarial item can never poison its siblings: they land via
/// the sibling halves.
///
/// Returns one `Result` per item, in input order. The happy path (whole batch
/// commits) calls `exec` exactly once.
pub fn split_retry<I, R, E>(
    items: &[I],
    exec: &mut dyn FnMut(&[I]) -> Result<R, E>,
) -> Vec<Result<R, E>>
where
    R: Clone,
{
    let mut out = Vec::with_capacity(items.len());
    split_retry_into(items, exec, &mut out);
    out
}

fn split_retry_into<I, R, E>(
    items: &[I],
    exec: &mut dyn FnMut(&[I]) -> Result<R, E>,
    out: &mut Vec<Result<R, E>>,
) where
    R: Clone,
{
    if items.is_empty() {
        return;
    }
    match exec(items) {
        Ok(r) => {
            for _ in 0..items.len() - 1 {
                out.push(Ok(r.clone()));
            }
            out.push(Ok(r));
        }
        Err(e) if items.len() == 1 => out.push(Err(e)),
        Err(_) => {
            let mid = items.len() / 2;
            split_retry_into(&items[..mid], exec, out);
            split_retry_into(&items[mid..], exec, out);
        }
    }
}

/// Derives a fresh, deterministic seed for retry attempt `attempt`.
fn derive_seed(seed: u64, attempt: usize) -> u64 {
    let mut z = seed ^ (attempt as u64).wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z ^ (z >> 27)
}

/// Runs `body` under the retry supervisor.
///
/// Each attempt opens a machine transaction, runs `body(machine, mode)`,
/// and either commits (returning the body's value plus the
/// [`RecoveryReport`]) or rolls memory back byte-exact and escalates to the
/// next rung of the ladder. When [`RetryPolicy::reseed`] is set, seeded
/// conflict policies and fault plans get a fresh deterministic seed per
/// retry; the original seeds are restored before returning. Attempts
/// follow each other immediately: the supervisor never sleeps.
///
/// # Where a run starts
///
/// The first attempt runs on rung `min(m.start_rung(), ladder.len() - 1)`
/// ([`fol_vm::Machine::start_rung`]): the rung a run committed on predicts
/// the rung the next run on the same machine needs. A commit records its
/// rung as the hint. A first-attempt commit steps it back one rung toward
/// [`ExecMode::Vector`], so a machine whose faults have cleared walks back
/// to the full-width path one clean run at a time — except on
/// [`ExecMode::DegradedVector`], which keeps the hint: that rung folds in
/// the current quarantine, so it already runs at full width once every
/// lane is restored. A failed run leaves the hint unchanged. The hint is
/// volatile: a fresh machine starts at rung 0.
///
/// # Lane health
///
/// When the attempt's rung is [`ExecMode::DegradedVector`], the machine's
/// current quarantine set is folded into the rung's own before `body` sees
/// it — so the mode the body (and the report) carries names the lanes that
/// were actually masked. After a failed attempt the lane circuit breaker
/// ([`fol_vm::Machine::reprobe_quarantined`]) re-probes quarantined lanes
/// whose cooldown has elapsed, *before* that failure's scrub and repair, so
/// whatever a probe scatter disturbs is repaired before the next attempt
/// reads it. A failed degraded attempt that is not the run's first holds
/// its rung, without consuming ladder budget, only while the quarantine it
/// leaves is larger than at the start of the run and after every earlier
/// failure: the evidence indicts the stale mask, not the rung. A run that
/// starts on the degraded rung and fails there moves on at once, since its
/// start already carried the quarantine the last commit needed. Each hold
/// needs a strictly wider quarantine, so holds are bounded by the lane
/// count.
///
/// A [`FolError::Stalled`] from `body` (the armed [`Watchdog`] tripping) is
/// fatal: the attempt is rolled back and the supervisor returns
/// [`RecoveryError::Watchdog`] without trying further rungs.
///
/// # Integrity
///
/// When `m` tracks regions, an attempt commits only after
/// [`fol_vm::Machine::scrub_footprint`] verified every tracked block it
/// stored to or read, so a committed result never depends on a rotted
/// word. A failed attempt runs the full [`fol_vm::Machine::scrub`] and
/// repairs mismatching blocks from the machine's committed image, so on
/// exhaustion tracked memory equals that image byte for byte: the pre-call
/// state, with rot that predates the call repaired rather than adopted.
/// Rot outside a committing attempt's footprint is left alone — never
/// resynced over, never copied into the image — and stays a mismatch that
/// [`fol_vm::Machine::scrub`] reports until an idle scrub or the next
/// transaction whose footprint reaches its block repairs it. The bracket
/// costs what the attempt touched, not what is tracked.
///
/// # Panics
/// Panics when a transaction is already open on `m` — the supervisor owns
/// the transaction for the duration of the run, and nesting is a caller bug.
pub fn run_transaction<R, F>(
    m: &mut Machine,
    policy: &RetryPolicy,
    mut body: F,
) -> Result<(R, RecoveryReport), RecoveryError>
where
    F: FnMut(&mut Machine, ExecMode) -> Result<R, FolError>,
{
    assert!(
        !m.in_txn(),
        "run_transaction: a transaction is already open on this machine"
    );
    let base_policy = m.policy().clone();
    let base_plan = m.fault_plan().cloned();
    let faults_before = m.fault_log().len();
    let attempts = policy.max_attempts.max(1);
    // Integrity. The auditor is enabled for the run (and restored on exit)
    // so workload hooks judge every round. Nothing is resynced or copied up
    // front: each attempt's commit is certified by the footprint scrub over
    // the blocks it stored to or read, and a failed attempt's repair source
    // is the machine's committed image, which rot never reaches.
    let audit_was_on = m.els_auditor().is_some();
    if policy.audit_rate > 0 {
        m.set_els_audit_rate(policy.audit_rate, policy.audit_seed);
    }
    let tracking = !m.tracked_regions().is_empty();
    let last_rung = policy.ladder.len().saturating_sub(1);
    let mut rung = m.start_rung().min(last_rung);
    let mut report = RecoveryReport {
        attempts: 0,
        rounds_replayed: 0,
        final_mode: policy.mode_for(rung),
        start_mode: policy.mode_for(rung),
        errors: Vec::new(),
        faults_consumed: 0,
        attempt_trace: Vec::new(),
        corruption_detected: 0,
        replays: 0,
        backend: m.backend_kind(),
    };
    let mut result = None;
    let mut watchdog_tripped = false;
    // The widest quarantine of the run so far (at its start and after each
    // failure); a degraded rung is held only past this high-water mark.
    let mut widest = m.health().quarantined().len();
    let mut budget_spent = 0usize;
    while budget_spent < attempts {
        let quarantined = m.health().quarantined();
        let mode = match policy.mode_for(rung) {
            ExecMode::DegradedVector { quarantined: q }
            | ExecMode::VerifiedReplay { quarantined: q } => ExecMode::DegradedVector {
                quarantined: q.union(quarantined),
            },
            other => other,
        };
        let attempt = report.attempts;
        report.attempts += 1;
        report.final_mode = mode;
        if attempt == 0 {
            report.start_mode = mode;
        }
        if policy.reseed && attempt > 0 {
            match base_policy {
                ConflictPolicy::Arbitrary(s) => {
                    m.set_policy(ConflictPolicy::Arbitrary(derive_seed(s, attempt)));
                }
                ConflictPolicy::Adversarial(s) => {
                    m.set_policy(ConflictPolicy::Adversarial(derive_seed(s, attempt)));
                }
                _ => {}
            }
            if let Some(plan) = &base_plan {
                m.set_fault_plan(Some(
                    plan.clone().with_seed(derive_seed(plan.seed(), attempt)),
                ));
            }
        }
        let started = Instant::now();
        m.audit_clear_notes();
        m.begin_txn()
            .expect("run_transaction: transaction state already checked");
        let exec = match body(m, mode) {
            Ok(r) => commit_certified(m).map(|()| r),
            Err(e) => {
                abort(m);
                Err(e)
            }
        };
        report.attempt_trace.push(AttemptRecord {
            mode,
            duration_ns: started.elapsed().as_nanos() as u64,
            ok: exec.is_ok(),
        });
        let e = match exec {
            Ok(r) => {
                result = Some(r);
                break;
            }
            Err(e) => e,
        };
        report.rounds_replayed += e.completed_rounds();
        let integrity_err = matches!(e, FolError::Integrity(_));
        if integrity_err {
            report.corruption_detected += 1;
        }
        watchdog_tripped = matches!(e, FolError::Stalled { .. });
        report.errors.push(e);
        // Circuit breaker: quarantined lanes whose probe cooldown has
        // elapsed get a sacrificial scatter–gather self-test, and healthy
        // ones rejoin the next attempt's schedule. A probe is a scatter,
        // which bit-rot may strike, so it runs before the repair below.
        m.reprobe_quarantined();
        // Repair: a rollback cannot heal rot (it bypasses the journal), so
        // when the tracked regions have decayed, the rotted blocks are
        // restored from the committed image — the exhaustion contract
        // (tracked memory back to its pre-call committed state, byte-exact)
        // holds even under resident corruption, and rot that predates the
        // call is repaired, never adopted.
        if tracking && m.scrub().is_err() {
            if !integrity_err {
                report.corruption_detected += 1;
            }
            m.repair_from_image();
        }
        if watchdog_tripped {
            break;
        }
        // Hold a degraded rung only while its quarantine keeps growing: the
        // failure then indicts the stale mask, not the rung. A run that
        // started on the degraded rung already carried the quarantine its
        // predecessor committed with, so it moves on.
        let width = m.health().quarantined().len();
        let degraded = matches!(mode, ExecMode::DegradedVector { .. });
        if !(degraded && attempt > 0 && width > widest) {
            rung += 1;
            budget_spent += 1;
        }
        widest = widest.max(width);
    }
    // Restore the caller's seeds and auditor state whatever happened.
    m.set_policy(base_policy);
    m.set_fault_plan(base_plan);
    if policy.audit_rate > 0 {
        if audit_was_on {
            // The caller had a (full-rate) auditor installed before the run;
            // reinstate one. Sampling state is not preserved across runs.
            m.set_els_audit(true);
        } else {
            m.set_els_audit(false);
        }
    }
    report.faults_consumed = m.fault_log().len() - faults_before;
    match result {
        Some(r) => {
            // The next run starts where this one committed; a first-attempt
            // commit steps the hint back toward Vector, except on the
            // degraded rung, which runs at full width once the breaker has
            // restored every lane.
            let committed = rung.min(last_rung);
            let degraded = matches!(report.final_mode, ExecMode::DegradedVector { .. });
            m.set_start_rung(if report.attempts == 1 && !degraded {
                committed.saturating_sub(1)
            } else {
                committed
            });
            Ok((r, report))
        }
        None if watchdog_tripped => Err(RecoveryError::Watchdog {
            report: Box::new(report),
        }),
        None => Err(RecoveryError::Exhausted {
            report: Box::new(report),
        }),
    }
}

/// Commits the open transaction once [`fol_vm::Machine::scrub_footprint`]
/// has verified every tracked block it stored to or read; aborts it with a
/// typed [`FolError::Integrity`] otherwise, so rot in the footprint is
/// never certified. Free when nothing is tracked.
fn commit_certified(m: &mut Machine) -> Result<(), FolError> {
    match m.scrub_footprint() {
        Ok(()) => {
            m.commit_txn()
                .expect("run_transaction: commit of the open transaction");
            Ok(())
        }
        Err(e) => {
            abort(m);
            Err(FolError::Integrity(e))
        }
    }
}

fn abort(m: &mut Machine) {
    m.abort_txn()
        .expect("run_transaction: abort of the open transaction");
}

/// Runs `f` with the given lanes removed from the machine's execution mask,
/// restoring the previous mask afterwards whatever `f` returns.
///
/// This is the primitive behind [`ExecMode::DegradedVector`], exported so a
/// workload's own vectorized phases (payload scatters, conflict-free
/// permutations) can run under the same reduced-width schedule as the
/// decomposition that produced their rounds. Removing every lane would leave
/// nothing to schedule on; [`fol_vm::Machine::set_active_lanes`] coerces an
/// empty mask back to full width, so the degenerate case stays safe.
pub fn with_lane_mask<R>(
    m: &mut Machine,
    quarantined: LaneSet,
    f: impl FnOnce(&mut Machine) -> R,
) -> R {
    let prev = m.active_lanes();
    m.set_active_lanes(prev.difference(quarantined));
    let r = f(m);
    m.set_active_lanes(prev);
    r
}

/// FOL1 under an explicit [`ExecMode`]; all modes produce a decomposition
/// satisfying the same contract, validated at `validation` before returning.
pub fn decompose_with_mode(
    m: &mut Machine,
    work: Region,
    index_vec: &[Word],
    mode: ExecMode,
    validation: Validation,
) -> Result<Decomposition, FolError> {
    decompose_with_mode_watched(m, work, index_vec, mode, validation, &mut |_| Ok(()))
}

/// [`decompose_with_mode`] with a per-pass observer — the hook the armed
/// [`Watchdog`] uses. `observe` is called with the live count at the top of
/// every detection pass in *every* mode (the scalar tail included);
/// an `Err` aborts the decomposition with that error.
pub fn decompose_with_mode_watched(
    m: &mut Machine,
    work: Region,
    index_vec: &[Word],
    mode: ExecMode,
    validation: Validation,
    observe: &mut dyn FnMut(usize) -> Result<(), FolError>,
) -> Result<Decomposition, FolError> {
    match mode {
        ExecMode::Vector => {
            let labels = m.iota(0, index_vec.len());
            try_fol1_machine_observed(m, work, index_vec, &labels, validation, observe)
        }
        ExecMode::DegradedVector { quarantined } | ExecMode::VerifiedReplay { quarantined } => {
            with_lane_mask(m, quarantined, |m| {
                let labels = m.iota(0, index_vec.len());
                try_fol1_machine_observed(m, work, index_vec, &labels, validation, observe)
            })
        }
        ExecMode::ForcedSequential | ExecMode::ScalarTail => {
            fol1_scalar(m, work, index_vec, validation, observe)
        }
    }
}

fn check_bounds(index_vec: &[Word], domain: usize) -> Result<(), FolError> {
    for (position, &target) in index_vec.iter().enumerate() {
        if target < 0 || target as usize >= domain {
            return Err(FolError::TargetOutOfBounds {
                round: None,
                position,
                target,
                domain,
            });
        }
    }
    Ok(())
}

/// FOL1 on the scalar unit only: labels are written with `s_write` and read
/// back with `s_read`, so the vector scatter unit — the only place a
/// [`fol_vm::FaultPlan`] hooks — is never exercised. The last writer per
/// cell survives each pass, every pass retires at least one element per
/// distinct live cell, and the loop provably terminates within the round
/// budget. Scalar writes still flow through the transaction journal.
fn fol1_scalar(
    m: &mut Machine,
    work: Region,
    index_vec: &[Word],
    validation: Validation,
    observe: &mut dyn FnMut(usize) -> Result<(), FolError>,
) -> Result<Decomposition, FolError> {
    check_bounds(index_vec, work.len())?;
    let n = index_vec.len();
    let mut live: Vec<(usize, usize)> = index_vec
        .iter()
        .enumerate()
        .map(|(p, &t)| (p, t as usize))
        .collect();
    let mut rounds: Vec<Vec<usize>> = Vec::new();
    while !live.is_empty() {
        if rounds.len() >= n {
            return Err(FolError::RoundBudgetExceeded {
                budget: n,
                live: live.len(),
                completed_rounds: rounds.len(),
            });
        }
        observe(live.len())?;
        for &(pos, t) in &live {
            m.s_write(work.base() + t, pos as Word);
        }
        let mut survivors: Vec<usize> = Vec::new();
        let mut rest: Vec<(usize, usize)> = Vec::with_capacity(live.len());
        for &(pos, t) in &live {
            if m.s_read(work.base() + t) == pos as Word {
                survivors.push(pos);
            } else {
                rest.push((pos, t));
            }
        }
        if survivors.is_empty() {
            return Err(FolError::NoSurvivors {
                iteration: rounds.len(),
                live: live.len(),
            });
        }
        rounds.push(survivors);
        live = rest;
    }
    let d = Decomposition::new(rounds);
    let targets: Vec<usize> = index_vec.iter().map(|&t| t as usize).collect();
    validate_decomposition(&d, &targets, work.len(), validation)?;
    Ok(d)
}

/// The host-stage content digest: an order-dependent hash of the staged
/// scratch vector, the host-side analogue of
/// [`fol_vm::Machine::content_digest`]. The machine's digest covers machine
/// memory only; the staged host mirror that `txn_apply_rounds` builds lives
/// outside every tracked region, so corruption striking it between apply
/// and commit would previously land in the caller's data silently. The
/// digest closes that window.
fn stage_digest<T: std::hash::Hash>(items: &[T]) -> u64 {
    use std::hash::Hasher;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    h.write_usize(items.len());
    for item in items {
        item.hash(&mut h);
    }
    h.finish()
}

/// Transactional [`crate::parallel::try_apply_rounds`]: decomposes
/// `targets` on the machine, validates the result, applies `f` — and if
/// anything fails, rolls the machine back byte-exact, escalates per
/// `policy`, and tries again. `data` is written only after an attempt has
/// fully succeeded, so on `Err` both machine memory and host data are
/// exactly as before the call.
///
/// The staged host scratch is covered by the same content-digest discipline
/// as machine memory: the digest is taken immediately after the rounds are
/// applied and re-verified before the attempt stages its result, so
/// host-mirror corruption in that window surfaces as a typed
/// [`fol_vm::IntegrityError::ChecksumMismatch`] (region `"(host stage)"`)
/// and the attempt rolls back and escalates instead of committing corrupt
/// data. This is why `T: Hash`.
pub fn txn_apply_rounds<T, F>(
    m: &mut Machine,
    work: Region,
    data: &mut [T],
    targets: &[usize],
    policy: &RetryPolicy,
    f: F,
) -> Result<(Decomposition, RecoveryReport), RecoveryError>
where
    T: Clone + std::hash::Hash,
    F: FnMut(&mut T, usize),
{
    txn_apply_rounds_hooked(m, work, data, targets, policy, f, &mut |_| {})
}

/// [`txn_apply_rounds`] with a fault-injection hook for the host-stage
/// digest window: `stage_hook` runs on the staged scratch *after* the
/// digest is taken and *before* it is verified — exactly the interval the
/// digest defends. Chaos tests flip a staged byte here and assert the typed
/// detection; production code calls [`txn_apply_rounds`], whose hook is a
/// no-op.
#[doc(hidden)]
pub fn txn_apply_rounds_hooked<T, F>(
    m: &mut Machine,
    work: Region,
    data: &mut [T],
    targets: &[usize],
    policy: &RetryPolicy,
    mut f: F,
    stage_hook: &mut dyn FnMut(&mut [T]),
) -> Result<(Decomposition, RecoveryReport), RecoveryError>
where
    T: Clone + std::hash::Hash,
    F: FnMut(&mut T, usize),
{
    let apply = |scratch: &mut [T], d: &Decomposition| {
        try_apply_rounds(scratch, targets, d, policy.validation, &mut f)
    };
    txn_staged_apply(m, work, data, targets, policy, apply, stage_hook)
}

/// Transactional [`crate::parallel::try_par_apply_rounds`]: like
/// [`txn_apply_rounds`] but each round's unit processes run with real data
/// parallelism on scoped threads.
pub fn txn_par_apply_rounds<T, F>(
    m: &mut Machine,
    work: Region,
    data: &mut [T],
    targets: &[usize],
    policy: &RetryPolicy,
    f: F,
) -> Result<(Decomposition, RecoveryReport), RecoveryError>
where
    T: Clone + Send + std::hash::Hash,
    F: Fn(&mut T, usize) + Sync,
{
    let apply = |scratch: &mut [T], d: &Decomposition| {
        try_par_apply_rounds(scratch, targets, d, policy.validation, &f)
    };
    txn_staged_apply(m, work, data, targets, policy, apply, &mut |_| {})
}

/// The one staged-apply body behind [`txn_apply_rounds_hooked`] and
/// [`txn_par_apply_rounds`]: per attempt, decompose `targets` under the
/// rung's mode and the policy's watchdog, `apply` the rounds to a scratch
/// copy of `data`, and check the scratch's host-stage digest across
/// `stage_hook`. `data` takes the scratch only after a committed attempt.
fn txn_staged_apply<T: Clone + std::hash::Hash>(
    m: &mut Machine,
    work: Region,
    data: &mut [T],
    targets: &[usize],
    policy: &RetryPolicy,
    mut apply: impl FnMut(&mut [T], &Decomposition) -> Result<(), FolError>,
    stage_hook: &mut dyn FnMut(&mut [T]),
) -> Result<(Decomposition, RecoveryReport), RecoveryError> {
    let index_vec: Vec<Word> = targets.iter().map(|&t| t as Word).collect();
    let mut staged: Option<Vec<T>> = None;
    let shadow: &[T] = data;
    let (d, report) = run_transaction(m, policy, |m, mode| {
        let mut wd = policy.watchdog.as_ref().map(Watchdog::start);
        let d = decompose_with_mode_watched(
            m,
            work,
            &index_vec,
            mode,
            policy.validation,
            &mut |live| wd.as_mut().map_or(Ok(()), |w| w.observe(live)),
        )?;
        let mut scratch = shadow.to_vec();
        apply(&mut scratch, &d)?;
        let expected = stage_digest(&scratch);
        stage_hook(&mut scratch);
        let actual = stage_digest(&scratch);
        if actual != expected {
            return Err(FolError::Integrity(IntegrityError::ChecksumMismatch {
                region: "(host stage)".to_string(),
                base: 0,
                len: scratch.len(),
                expected,
                actual,
            }));
        }
        staged = Some(scratch);
        Ok(d)
    })?;
    data.clone_from_slice(&staged.expect("txn_staged_apply: success always stages data"));
    Ok((d, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference_decompose;
    use crate::theory;
    use fol_vm::{AmalgamMode, CostModel, FaultPlan, LaneSet, Snapshot};

    fn machine() -> Machine {
        Machine::new(CostModel::unit())
    }

    const V: &[Word] = &[5, 2, 5, 5, 2, 9, 0, 5];

    fn check_valid(d: &Decomposition, v: &[Word]) {
        assert!(theory::is_disjoint_cover(d, v.len()));
        assert!(theory::rounds_target_distinct_words(d, v));
        assert!(theory::is_minimal(d, v));
    }

    fn all_modes() -> [ExecMode; 3] {
        [
            ExecMode::Vector,
            ExecMode::DegradedVector {
                quarantined: LaneSet::from_bits(0b1010),
            },
            ExecMode::ScalarTail,
        ]
    }

    #[test]
    fn all_modes_produce_valid_minimal_decompositions() {
        for mode in all_modes() {
            let mut m = machine();
            let work = m.alloc(10, "work");
            let d = decompose_with_mode(&mut m, work, V, mode, Validation::Full)
                .unwrap_or_else(|e| panic!("{mode}: {e}"));
            check_valid(&d, V);
            assert_eq!(
                m.active_lanes(),
                fol_vm::LaneSet::all(),
                "{mode}: the mask must be restored"
            );
        }
    }

    #[test]
    fn modes_reject_out_of_bounds_targets() {
        for mode in all_modes() {
            let mut m = machine();
            let work = m.alloc(4, "work");
            let err = decompose_with_mode(&mut m, work, &[99], mode, Validation::Off).unwrap_err();
            assert!(
                matches!(err, FolError::TargetOutOfBounds { target: 99, .. }),
                "{mode}"
            );
        }
    }

    #[test]
    fn degraded_mode_routes_around_a_sticky_lane() {
        // A permanently dead physical lane defeats the full-width vector
        // path on a large enough input, but the degraded rung masks the lane
        // out of the schedule and the same program completes.
        let n = 256;
        let index_vec: Vec<Word> = (0..n).map(|i| (i % 97) as Word).collect();
        let mut m = machine();
        m.set_fault_plan(Some(FaultPlan::sticky_lanes(3, 1 << 5)));
        let work = m.alloc(97, "work");
        let degraded = ExecMode::DegradedVector {
            quarantined: LaneSet::single(5),
        };
        let d = decompose_with_mode(&mut m, work, &index_vec, degraded, Validation::Full)
            .expect("masking the sticky lane must route every write around it");
        check_valid(&d, &index_vec);
        assert!(
            m.fault_log().is_empty(),
            "the sticky lane never entered the schedule, so no fault fired"
        );
    }

    #[test]
    fn with_lane_mask_restores_on_every_path() {
        let mut m = machine();
        let q = LaneSet::from_bits(0b11);
        with_lane_mask(&mut m, q, |m| {
            assert_eq!(m.active_lanes().len(), 62);
        });
        assert_eq!(m.active_lanes(), LaneSet::all());
    }

    #[test]
    fn scalar_tail_is_immune_to_all_scatter_faults() {
        let mut m = machine();
        m.set_fault_plan(Some(
            FaultPlan::dropped_lanes(3, u16::MAX).with_torn_writes(u16::MAX, AmalgamMode::Or),
        ));
        let work = m.alloc(10, "work");
        let d = decompose_with_mode(&mut m, work, V, ExecMode::ScalarTail, Validation::Full)
            .expect("the scalar tail never touches the scatter unit");
        check_valid(&d, V);
        assert!(m.fault_log().is_empty());
    }

    #[test]
    fn supervisor_first_try_success_is_attempt_one() {
        let mut m = machine();
        let work = m.alloc(10, "work");
        let policy = RetryPolicy::default();
        let (d, report) = run_transaction(&mut m, &policy, |m, mode| {
            decompose_with_mode(m, work, V, mode, Validation::Full)
        })
        .unwrap();
        check_valid(&d, V);
        assert_eq!(report.attempts, 1);
        assert_eq!(report.final_mode, ExecMode::Vector);
        assert!(!report.recovered());
        assert!(!m.in_txn(), "transaction must be closed");
    }

    #[test]
    fn supervisor_escalates_past_hostile_faults() {
        // Drop + tear at maximum rate: the vector rung fails, but the
        // ladder bottoms out in ScalarTail, which always completes.
        let mut m = machine();
        m.set_fault_plan(Some(
            FaultPlan::dropped_lanes(7, u16::MAX).with_torn_writes(u16::MAX, AmalgamMode::Xor),
        ));
        let work = m.alloc(10, "work");
        let policy = RetryPolicy::default();
        let (d, report) = run_transaction(&mut m, &policy, |m, mode| {
            decompose_with_mode(m, work, V, mode, Validation::Full)
        })
        .expect("the ladder must bottom out in a completing mode");
        check_valid(&d, V);
        assert!(report.recovered());
        assert!(report.attempts >= 2);
        assert!(
            report.faults_consumed > 0,
            "the adversary must actually have fired"
        );
        // The caller's plan is restored even though retries reseeded it.
        assert_eq!(m.fault_plan().unwrap().seed(), 7);
    }

    #[test]
    fn supervisor_rolls_back_failed_attempts_byte_exact() {
        let mut m = machine();
        let work = m.alloc(10, "work");
        let snap = Snapshot::capture(m.mem(), &[work]);
        let policy = RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        };
        let err = run_transaction(&mut m, &policy, |m, mode| -> Result<(), FolError> {
            // Dirty the work area, then fail: the journal must undo it.
            let _ = decompose_with_mode(m, work, V, mode, Validation::Off)?;
            Err(FolError::NoSurvivors {
                iteration: 1,
                live: 3,
            })
        })
        .unwrap_err();
        assert!(matches!(err, RecoveryError::Exhausted { .. }));
        assert_eq!(err.report().attempts, 2);
        assert_eq!(err.report().errors.len(), 2);
        assert_eq!(err.report().attempt_trace.len(), 2);
        assert!(err.report().attempt_trace.iter().all(|a| !a.ok));
        assert!(
            snap.matches(m.mem()),
            "every attempt must be rolled back byte-exact"
        );
        assert!(!m.in_txn());
    }

    #[test]
    fn report_json_is_well_formed() {
        let report = RecoveryReport {
            attempts: 2,
            rounds_replayed: 3,
            final_mode: ExecMode::ScalarTail,
            start_mode: ExecMode::DegradedVector {
                quarantined: LaneSet::from_bits((1 << 3) | (1 << 17)),
            },
            errors: vec![FolError::NoSurvivors {
                iteration: 1,
                live: 4,
            }],
            faults_consumed: 5,
            corruption_detected: 1,
            replays: 0,
            backend: BackendKind::Avx2,
            attempt_trace: vec![
                AttemptRecord {
                    mode: ExecMode::DegradedVector {
                        quarantined: LaneSet::from_bits((1 << 3) | (1 << 17)),
                    },
                    duration_ns: 1200,
                    ok: false,
                },
                AttemptRecord {
                    mode: ExecMode::ScalarTail,
                    duration_ns: 3400,
                    ok: true,
                },
            ],
        };
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        for field in [
            "\"attempts\":2",
            "\"rounds_replayed\":3",
            "\"faults_consumed\":5",
            "\"corruption_detected\":1",
            "\"replays\":0",
            "\"backend\":\"avx2\"",
            "\"final_mode\":\"ScalarTail\"",
            "\"start_mode\":\"DegradedVector{3,17}\"",
            "\"recovered\":true",
            "\"errors\":[\"",
            "\"attempt_trace\":[{",
            "{\"mode\":\"DegradedVector{3,17}\",\"duration_ns\":1200,\"ok\":false}",
            "\"duration_ns\":3400",
        ] {
            assert!(json.contains(field), "{field} missing from {json}");
        }
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn watchdog_counts_consecutive_stalls_only() {
        let mut wd = Watchdog::start(&WatchdogConfig {
            stall_rounds: 2,
            deadline: None,
        });
        assert!(wd.observe(10).is_ok(), "first observation seeds the meter");
        assert!(wd.observe(8).is_ok(), "shrink resets");
        assert!(wd.observe(8).is_ok(), "first stall");
        assert!(wd.observe(7).is_ok(), "shrink resets the streak");
        assert!(wd.observe(7).is_ok());
        let err = wd.observe(9).unwrap_err();
        assert!(
            matches!(
                err,
                FolError::Stalled {
                    stalled_rounds: 2,
                    live: 9,
                    deadline_expired: false
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn watchdog_deadline_trips_and_is_fatal_with_rollback() {
        // A hostile plan the vector rung can never survive, plus a zero
        // deadline: the very first observation trips. The supervisor must
        // return RecoveryError::Watchdog without burning the remaining
        // rungs, and memory must be back to the snapshot.
        let targets: Vec<usize> = V.iter().map(|&t| t as usize).collect();
        let mut m = machine();
        m.set_fault_plan(Some(FaultPlan::dropped_lanes(5, u16::MAX)));
        let work = m.alloc(10, "work");
        let snap = Snapshot::capture(m.mem(), &[work]);
        let policy = RetryPolicy {
            watchdog: Some(WatchdogConfig {
                stall_rounds: 0,
                deadline: Some(std::time::Duration::ZERO),
            }),
            ..RetryPolicy::default()
        };
        let mut counts = vec![0u32; 10];
        let err = txn_apply_rounds(&mut m, work, &mut counts, &targets, &policy, |c, _| *c += 1)
            .unwrap_err();
        assert!(matches!(err, RecoveryError::Watchdog { .. }), "{err}");
        assert_eq!(
            err.report().attempts,
            1,
            "a tripped watchdog must not escalate"
        );
        assert!(matches!(
            err.report().errors.last(),
            Some(FolError::Stalled {
                deadline_expired: true,
                ..
            })
        ));
        assert!(err.to_string().contains("watchdog"));
        assert!(counts.iter().all(|&c| c == 0), "host data untouched");
        assert!(snap.matches(m.mem()), "machine memory rolled back");
        assert!(!m.in_txn());
    }

    #[test]
    fn default_ladder_reaches_degraded_vector_under_sticky_faults() {
        // End-to-end tentpole scenario: a sticky physical lane sinks the
        // full-width attempt, the health registry quarantines it, and the
        // DegradedVector rung completes — never reaching the sequential
        // fallbacks.
        let n = 256;
        let targets: Vec<usize> = (0..n).map(|i| i % 97).collect();
        let mut m = machine();
        m.set_fault_plan(Some(FaultPlan::sticky_lanes(9, 1 << 13)));
        let work = m.alloc(97, "work");
        let mut counts = vec![0u32; 97];
        let (d, report) = txn_apply_rounds(
            &mut m,
            work,
            &mut counts,
            &targets,
            &RetryPolicy::default(),
            |c, _| *c += 1,
        )
        .expect("the degraded rung must absorb a single dead lane");
        let mut expect = vec![0u32; 97];
        for &t in &targets {
            expect[t] += 1;
        }
        assert_eq!(counts, expect);
        assert!(d.num_rounds() >= 1);
        assert!(report.recovered(), "the vector rung must have failed first");
        match report.final_mode {
            ExecMode::DegradedVector { quarantined } => {
                assert!(
                    quarantined.contains(13),
                    "the sticky lane must be in the rung's quarantine set: {quarantined}"
                );
            }
            other => panic!("expected DegradedVector, finished in {other}"),
        }
        assert!(
            m.health().is_quarantined(13),
            "the registry keeps the lane out until a probe passes"
        );
    }

    /// A body that fails on every default-ladder rung before `ok_from` and
    /// commits on it and every later one. It runs no scatter, so the
    /// quarantine stays empty and each mode equals its ladder rung.
    fn fails_until(ok_from: usize) -> impl FnMut(&mut Machine, ExecMode) -> Result<(), FolError> {
        let ladder = RetryPolicy::default().ladder;
        move |_, mode| {
            let rung = ladder
                .iter()
                .position(|r| *r == mode)
                .expect("a default-ladder mode");
            if rung >= ok_from {
                Ok(())
            } else {
                Err(FolError::NoSurvivors {
                    iteration: 0,
                    live: 1,
                })
            }
        }
    }

    #[test]
    fn a_fresh_machine_starts_at_rung_zero() {
        let mut m = machine();
        assert_eq!(m.start_rung(), 0);
        let ((), report) = run_transaction(&mut m, &RetryPolicy::default(), fails_until(0))
            .expect("a clean body commits");
        assert_eq!(report.start_mode, ExecMode::Vector);
        assert_eq!(report.attempts, 1);
    }

    #[test]
    fn the_next_run_starts_on_the_committing_rung_and_steps_back_on_clean_commits() {
        let mut m = machine();
        let policy = RetryPolicy::default();
        // Two failures, then a commit on rung 2 (ScalarTail).
        let ((), report) = run_transaction(&mut m, &policy, fails_until(2)).unwrap();
        assert_eq!(report.attempts, 3);
        assert_eq!(report.final_mode, ExecMode::ScalarTail);
        assert_eq!(m.start_rung(), 2, "a commit on rung k sets the hint to k");
        // Each clean run starts where the hint says and commits on its first
        // attempt. That steps the hint one rung back toward Vector, except
        // on DegradedVector, which keeps it: with no lane quarantined it
        // already runs at full width.
        for (expect, next) in [(2, 1), (1, 1), (1, 1)] {
            let ((), report) = run_transaction(&mut m, &policy, fails_until(0)).unwrap();
            assert_eq!(report.attempts, 1);
            assert_eq!(report.start_mode, policy.mode_for(expect), "hint {expect}");
            assert_eq!(report.final_mode, report.start_mode);
            assert_eq!(m.start_rung(), next);
        }
    }

    #[test]
    fn a_run_that_starts_degraded_does_not_hold_its_first_failure() {
        // The first attempt starts on DegradedVector, widens the quarantine
        // and fails. A later attempt would hold the rung; the first moves
        // straight on to ScalarTail, because the start already carried the
        // quarantine the previous commit needed.
        let mut m = machine();
        m.set_start_rung(1);
        let ((), report) = run_transaction(&mut m, &RetryPolicy::default(), |m, mode| {
            if mode == ExecMode::ScalarTail {
                return Ok(());
            }
            m.health_mut().quarantine(7);
            Err(FolError::NoSurvivors {
                iteration: 0,
                live: 1,
            })
        })
        .unwrap();
        let modes: Vec<ExecMode> = report.attempt_trace.iter().map(|a| a.mode).collect();
        assert_eq!(
            modes,
            [
                ExecMode::DegradedVector {
                    quarantined: LaneSet::empty()
                },
                ExecMode::ScalarTail
            ]
        );
        assert!(m.health().is_quarantined(7), "the quarantine grew");
        assert_eq!(m.start_rung(), 2);
    }

    #[test]
    fn fault_free_runs_stay_on_vector() {
        let mut m = machine();
        let work = m.alloc(10, "work");
        m.track_region(work);
        for run in 0..100 {
            let (_, report) = run_transaction(&mut m, &RetryPolicy::default(), |m, mode| {
                decompose_with_mode(m, work, V, mode, Validation::Full)
            })
            .unwrap();
            assert_eq!(report.attempts, 1, "run {run}");
            assert_eq!(report.final_mode, ExecMode::Vector, "run {run}");
        }
        assert_eq!(m.start_rung(), 0);
    }

    #[test]
    fn a_hint_beyond_a_shorter_ladder_clamps_to_its_last_rung() {
        let mut m = machine();
        m.set_start_rung(4);
        let ((), report) =
            run_transaction(&mut m, &RetryPolicy::vector_only(2), fails_until(0)).unwrap();
        assert_eq!(report.start_mode, ExecMode::Vector);
        assert_eq!(report.attempts, 1);
        let two_rungs = RetryPolicy {
            ladder: vec![ExecMode::Vector, ExecMode::ScalarTail],
            ..RetryPolicy::default()
        };
        m.set_start_rung(4);
        let ((), report) = run_transaction(&mut m, &two_rungs, fails_until(0)).unwrap();
        assert_eq!(report.start_mode, ExecMode::ScalarTail);
        assert_eq!(m.start_rung(), 0, "the first-attempt commit stepped back");
    }

    #[test]
    fn failed_runs_leave_the_hint_unchanged() {
        let mut m = machine();
        m.set_start_rung(2);
        let err =
            run_transaction(&mut m, &RetryPolicy::default(), fails_until(usize::MAX)).unwrap_err();
        assert!(matches!(err, RecoveryError::Exhausted { .. }), "{err}");
        assert_eq!(m.start_rung(), 2);
        let err = run_transaction(&mut m, &RetryPolicy::default(), |_, _| -> Result<(), _> {
            Err(FolError::Stalled {
                stalled_rounds: 3,
                live: 1,
                deadline_expired: false,
            })
        })
        .unwrap_err();
        assert!(matches!(err, RecoveryError::Watchdog { .. }), "{err}");
        assert_eq!(m.start_rung(), 2);
    }

    /// One chain-shaped batch: FOL over 64 bucket indices in a 1 024-word
    /// work area, then a payload scatter of every key that must land in
    /// full, as a chain insert's node writes must.
    fn chain_batch(m: &mut Machine, work: Region, arena: Region, seed: u64) -> RecoveryReport {
        let keys: Vec<Word> = (0..64)
            .map(|i| (derive_seed(seed, i) >> 1) as Word)
            .collect();
        let buckets: Vec<Word> = keys.iter().map(|k| k % 1024).collect();
        let (_, report) = run_transaction(m, &RetryPolicy::default(), |m, mode| {
            let d = decompose_with_mode(m, work, &buckets, mode, Validation::Full)?;
            let idx = m.iota(0, keys.len());
            let vals = m.vimm(&keys);
            match mode {
                ExecMode::ScalarTail => {
                    for (i, &k) in keys.iter().enumerate() {
                        m.s_write(arena.at(i), k);
                    }
                }
                ExecMode::DegradedVector { quarantined } => {
                    with_lane_mask(m, quarantined, |m| m.scatter(arena, &idx, &vals));
                }
                _ => m.scatter(arena, &idx, &vals),
            }
            if m.mem().read_region(arena) != keys {
                return Err(FolError::PostConditionFailed {
                    what: "payload landed",
                });
            }
            Ok(d)
        })
        .expect("the ladder bottoms out in the scalar tail");
        report
    }

    #[test]
    fn a_chain_batch_under_lane_drops_settles_within_ten_attempts() {
        for seed in 1..=3 {
            let mut m = machine();
            m.set_fault_plan(Some(FaultPlan::dropped_lanes(seed, 1024)));
            let work = m.alloc(1024, "work");
            let arena = m.alloc(64, "arena");
            m.track_region(work);
            m.track_region(arena);
            let report = chain_batch(&mut m, work, arena, seed);
            assert!(
                report.attempts <= 10,
                "seed {seed}: {} attempts: {report}",
                report.attempts
            );
        }
    }

    #[test]
    fn three_sticky_lanes_still_end_in_degraded_vector() {
        let sticky = [5, 13, 40];
        let n = 256;
        let targets: Vec<usize> = (0..n).map(|i| i % 97).collect();
        let mut m = machine();
        m.set_fault_plan(Some(FaultPlan::sticky_lanes(
            9,
            sticky.iter().map(|l| 1u64 << l).sum(),
        )));
        let work = m.alloc(97, "work");
        let mut counts = vec![0u32; 97];
        let (_, report) = txn_apply_rounds(
            &mut m,
            work,
            &mut counts,
            &targets,
            &RetryPolicy::default(),
            |c, _| *c += 1,
        )
        .expect("the degraded rung absorbs three dead lanes");
        match report.final_mode {
            ExecMode::DegradedVector { quarantined } => {
                for lane in sticky {
                    assert!(quarantined.contains(lane), "lane {lane} in {quarantined}");
                }
            }
            other => panic!("expected DegradedVector, finished in {other}: {report}"),
        }
        for lane in sticky {
            assert!(m.health().is_quarantined(lane), "{}", m.health().summary());
        }
    }

    #[test]
    fn txn_apply_rounds_matches_reference_and_reports() {
        let targets: Vec<usize> = V.iter().map(|&t| t as usize).collect();
        let mut m = machine();
        let work = m.alloc(10, "work");
        let mut counts = vec![0u32; 10];
        let (d, report) = txn_apply_rounds(
            &mut m,
            work,
            &mut counts,
            &targets,
            &RetryPolicy::default(),
            |c, _| *c += 1,
        )
        .unwrap();
        let mut expect = vec![0u32; 10];
        for &t in &targets {
            expect[t] += 1;
        }
        assert_eq!(counts, expect);
        assert_eq!(d.num_rounds(), reference_decompose(V).num_rounds());
        assert_eq!(report.attempts, 1);
    }

    #[test]
    fn txn_par_apply_rounds_survives_faults_and_leaves_no_partial_state() {
        let targets: Vec<usize> = V.iter().map(|&t| t as usize).collect();
        let mut m = machine();
        m.set_fault_plan(Some(FaultPlan::dropped_lanes(21, 20000)));
        let work = m.alloc(10, "work");
        let mut counts = vec![0u32; 10];
        let (_, report) = txn_par_apply_rounds(
            &mut m,
            work,
            &mut counts,
            &targets,
            &RetryPolicy::default(),
            |c, _| *c += 1,
        )
        .expect("default ladder absorbs lane drops");
        let mut expect = vec![0u32; 10];
        for &t in &targets {
            expect[t] += 1;
        }
        assert_eq!(
            counts, expect,
            "host data exactly matches the scalar reference"
        );
        assert!(report.attempts >= 1);
    }

    #[test]
    fn txn_apply_rounds_exhaustion_leaves_data_untouched() {
        let targets: Vec<usize> = V.iter().map(|&t| t as usize).collect();
        let mut m = machine();
        // Vector-only ladder under a 100% drop plan without reseeding: every
        // attempt replays the identical failure.
        m.set_fault_plan(Some(FaultPlan::dropped_lanes(5, u16::MAX)));
        let work = m.alloc(10, "work");
        let snap = Snapshot::capture(m.mem(), &[work]);
        let policy = RetryPolicy {
            max_attempts: 3,
            ladder: vec![ExecMode::Vector],
            reseed: false,
            validation: Validation::Full,
            watchdog: None,
            audit_rate: 1,
            audit_seed: 0,
        };
        let mut counts = vec![0u32; 10];
        let err = txn_apply_rounds(&mut m, work, &mut counts, &targets, &policy, |c, _| *c += 1)
            .unwrap_err();
        assert_eq!(err.report().attempts, 3);
        assert!(counts.iter().all(|&c| c == 0), "host data untouched");
        assert!(snap.matches(m.mem()), "machine memory rolled back");
        assert!(err.to_string().contains("recovery exhausted"));
    }

    #[test]
    fn mode_for_clamps_to_ladder_tail() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.mode_for(0), ExecMode::Vector);
        assert_eq!(
            policy.mode_for(1),
            ExecMode::DegradedVector {
                quarantined: LaneSet::empty()
            }
        );
        assert_eq!(policy.mode_for(2), ExecMode::ScalarTail);
        assert_eq!(policy.mode_for(3), ExecMode::ScalarTail);
        assert_eq!(policy.mode_for(99), ExecMode::ScalarTail);
        assert_eq!(
            RetryPolicy {
                ladder: vec![],
                ..policy
            }
            .mode_for(5),
            ExecMode::Vector
        );
    }

    #[test]
    fn exhaustion_under_bit_rot_restores_memory_byte_exact() {
        // Resident decay strikes the tracked work area behind the journal's
        // back, so a rollback alone cannot honor the exhaustion contract —
        // the supervisor must repair from its pre-run snapshot. Every failed
        // attempt is charged to the corruption counter, via either the ELS
        // auditor (a gathered label no scatter wrote) or the pre-commit
        // scrub.
        let mut m = machine();
        m.set_fault_plan(Some(FaultPlan::bit_rot(3, u16::MAX)));
        let work = m.alloc(10, "work");
        m.track_region(work);
        let snap = Snapshot::capture(m.mem(), &[work]);
        let policy = RetryPolicy {
            max_attempts: 2,
            ladder: vec![ExecMode::Vector],
            reseed: false,
            validation: Validation::Off,
            watchdog: None,
            audit_rate: 1,
            audit_seed: 0,
        };
        let err = run_transaction(&mut m, &policy, |m, mode| {
            decompose_with_mode(m, work, V, mode, Validation::Off)
        })
        .unwrap_err();
        assert_eq!(err.report().attempts, 2);
        assert_eq!(err.report().corruption_detected, 2);
        assert!(
            err.report()
                .errors
                .iter()
                .all(|e| matches!(e, FolError::Integrity(_))),
            "rot must surface as typed integrity errors: {:?}",
            err.report().errors
        );
        assert!(
            snap.matches(m.mem()),
            "the snapshot repair must leave memory byte-exact despite rot"
        );
        assert!(!m.in_txn());
    }

    #[test]
    fn default_ladder_escapes_resident_bit_rot() {
        // End-to-end: rot at maximum rate sinks every scatter-based rung,
        // but the scalar tail writes through `s_write` — the fault layer
        // hooks only the scatter unit — so the default ladder still lands on
        // a correct answer, and every corrupted attempt was detected, never
        // silently committed.
        let targets: Vec<usize> = V.iter().map(|&t| t as usize).collect();
        let mut m = machine();
        m.set_fault_plan(Some(FaultPlan::bit_rot(17, u16::MAX)));
        let work = m.alloc(10, "work");
        m.track_region(work);
        let mut counts = vec![0u32; 10];
        let (d, report) = txn_apply_rounds(
            &mut m,
            work,
            &mut counts,
            &targets,
            &RetryPolicy::default(),
            |c, _| *c += 1,
        )
        .expect("the ladder must bottom out past resident rot");
        check_valid(&d, V);
        let mut expect = vec![0u32; 10];
        for &t in &targets {
            expect[t] += 1;
        }
        assert_eq!(counts, expect, "the committed answer is oracle-equal");
        assert!(
            report.corruption_detected >= 1,
            "rot at maximum rate must have been detected at least once"
        );
        assert!(report.recovered());
    }

    #[test]
    fn split_retry_happy_path_calls_exec_once() {
        let items = [1, 2, 3, 4];
        let mut calls = 0;
        let out = split_retry(&items, &mut |s: &[i32]| -> Result<i32, ()> {
            calls += 1;
            Ok(s.iter().sum())
        });
        assert_eq!(calls, 1, "whole batch commits in one transaction");
        assert_eq!(out.len(), 4);
        assert!(
            out.iter().all(|r| *r == Ok(10)),
            "every item gets the batch result"
        );
    }

    #[test]
    fn split_retry_bisection_isolates_single_bad_item() {
        // Item 6 is adversarial: any slice containing it fails. Bisection
        // must land every sibling and blame only item 6.
        let items: Vec<i32> = (0..9).collect();
        let mut calls = 0;
        let out = split_retry(&items, &mut |s: &[i32]| -> Result<usize, i32> {
            calls += 1;
            if s.contains(&6) {
                Err(6)
            } else {
                Ok(s.len())
            }
        });
        assert_eq!(out.len(), 9);
        for (i, r) in out.iter().enumerate() {
            if i == 6 {
                assert_eq!(*r, Err(6), "the bad item takes the error");
            } else {
                assert!(r.is_ok(), "sibling {i} must not be poisoned");
            }
        }
        // log2(9) bisection: far fewer probes than one-txn-per-item.
        assert!(calls <= 9, "bisection stays sub-linear, got {calls} calls");
    }

    #[test]
    fn split_retry_reports_every_failure_when_all_items_are_bad() {
        let items = [1, 2, 3];
        let out = split_retry(&items, &mut |s: &[i32]| -> Result<(), i32> { Err(s[0]) });
        assert_eq!(out, vec![Err(1), Err(2), Err(3)]);
    }

    #[test]
    fn split_retry_empty_slice_is_a_no_op() {
        let items: [i32; 0] = [];
        let mut calls = 0;
        let out = split_retry(&items, &mut |_s: &[i32]| -> Result<(), ()> {
            calls += 1;
            Ok(())
        });
        assert!(out.is_empty());
        assert_eq!(calls, 0);
    }

    #[test]
    fn group_error_display_and_conversion() {
        let rej = GroupError::Rejected {
            reason: "capacity".into(),
        };
        assert!(rej.to_string().contains("group rejected: capacity"));
        let policy = RetryPolicy {
            max_attempts: 1,
            ladder: vec![ExecMode::Vector],
            reseed: false,
            validation: Validation::Full,
            watchdog: None,
            audit_rate: 1,
            audit_seed: 0,
        };
        let mut m = machine();
        m.set_fault_plan(Some(FaultPlan::dropped_lanes(5, u16::MAX)));
        let work = m.alloc(10, "work");
        let err = run_transaction(&mut m, &policy, |m, mode| {
            decompose_with_mode(m, work, V, mode, Validation::Full)
        })
        .unwrap_err();
        let ge: GroupError = err.into();
        assert!(matches!(ge, GroupError::Recovery(_)));
        assert!(ge.to_string().contains("group failed"));
    }
}
