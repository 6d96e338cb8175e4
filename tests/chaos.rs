//! Chaos suite: every workload × fault plan × seed must either complete
//! with output identical to its scalar reference, or return a typed error
//! after a byte-exact rollback — never a silent wrong answer.
//!
//! Two regimes are swept:
//!
//! * **Full ladder** (the default [`RetryPolicy`]): the last rung is
//!   `ScalarTail`, which no scatter fault can touch, so *every* cell must
//!   complete — even under 100% fault rates — and the result must match
//!   the host-side oracle exactly.
//! * **Restricted ladder** (`vector_only`, no reseed) under total lane
//!   loss: every attempt must fail, and the machine memory the workload
//!   touched must read back byte-identical to a pre-transaction
//!   [`Snapshot`] — the journaled-rollback guarantee.
//!
//! When a cell fails, the run's [`RecoveryReport`] is serialized to
//! `target/chaos/recovery_report.json` (or `$CHAOS_ARTIFACT_DIR`) so CI
//! can attach it as an artifact.

use fol_core::recover::{
    txn_apply_rounds, txn_apply_rounds_hooked, ExecMode, RecoveryError, RecoveryReport,
    RetryPolicy, WatchdogConfig,
};
use fol_graph::components::{txn_components, union_find_components, Components};
use fol_hash::chaining::{all_keys, txn_insert_all as txn_chain_insert, ChainTable};
use fol_hash::open_addressing::{
    contains, init_table, stored_keys, txn_insert_all as txn_oa_insert,
};
use fol_hash::ProbeStrategy;
use fol_sort::dist_count::txn_sort;
use fol_tree::bst::{txn_insert_all as txn_bst_insert, Bst};
use fol_tree::rewrite::{txn_rewrite_to_normal_form, OpTree};
use fol_vm::{AmalgamMode, CostModel, FaultPlan, Machine, Region, Snapshot, Word};

/// The fault matrix: benign, light drops, light tears, mixed, and hostile.
fn fault_plans(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("benign", FaultPlan::benign(seed)),
        ("drops-3%", FaultPlan::dropped_lanes(seed, 2000)),
        (
            "tears-3%",
            FaultPlan::torn_writes(seed, 2000, AmalgamMode::Xor),
        ),
        (
            "mixed-12%",
            FaultPlan::dropped_lanes(seed, 8000).with_torn_writes(8000, AmalgamMode::Or),
        ),
        (
            "hostile-46%",
            FaultPlan::dropped_lanes(seed, 30000).with_torn_writes(30000, AmalgamMode::And),
        ),
    ]
}

const SEEDS: [u64; 3] = [1, 42, 20260806];

/// The read-side/memory corruption matrix: gather-unit faults (flips, stale
/// reads, torn gathers) and resident bit-rot, light and total. These never
/// touch the scatter unit, so the pre-integrity chaos suite above is blind
/// to them — detection rides entirely on the ELS auditor, the per-region
/// checksums, and the verified-replay rung.
fn corruption_plans(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("gather-flips-3%", FaultPlan::gather_flips(seed, 2000)),
        ("gather-flips-100%", FaultPlan::gather_flips(seed, 65535)),
        (
            "stale-reads-12%",
            FaultPlan::benign(seed).with_stale_reads(8000),
        ),
        (
            "torn-gathers-12%",
            FaultPlan::benign(seed).with_torn_gathers(8000),
        ),
        ("bit-rot-3%", FaultPlan::bit_rot(seed, 2000)),
        ("bit-rot-100%", FaultPlan::bit_rot(seed, 65535)),
        (
            "rot+flips-12%",
            FaultPlan::bit_rot(seed, 8000).with_gather_flips(8000),
        ),
    ]
}

/// Serializes a failing run's report for the CI artifact, then panics with
/// the cell's identity.
fn fail_cell(workload: &str, plan: &str, seed: u64, report: &RecoveryReport, why: &str) -> ! {
    let dir = std::env::var("CHAOS_ARTIFACT_DIR").unwrap_or_else(|_| "target/chaos".into());
    let _ = std::fs::create_dir_all(&dir);
    let path = format!("{dir}/recovery_report.json");
    let body = format!(
        "{{\"workload\":\"{workload}\",\"plan\":\"{plan}\",\"seed\":{seed},\"reason\":\"{why}\",\"report\":{}}}\n",
        report.to_json()
    );
    let _ = std::fs::write(&path, body);
    panic!("chaos cell failed: {workload} / {plan} / seed {seed}: {why} (report at {path})");
}

fn machine_with(plan: FaultPlan) -> Machine {
    let mut m = Machine::new(CostModel::unit());
    m.set_fault_plan(Some(plan));
    m
}

fn keys_for(seed: u64, n: usize, modulus: Word) -> Vec<Word> {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 16) as Word).rem_euclid(modulus)
        })
        .collect()
}

#[test]
fn chaining_always_completes_and_matches_reference() {
    for seed in SEEDS {
        for (name, plan) in fault_plans(seed) {
            let keys = keys_for(seed ^ 0xC4A1, 28, 1000);
            let mut m = machine_with(plan);
            let mut t = ChainTable::alloc(&mut m, 11, 32);
            match txn_chain_insert(&mut m, &mut t, &keys, &RetryPolicy::default()) {
                Ok((_, report)) => {
                    let mut expect = keys.clone();
                    expect.sort_unstable();
                    if all_keys(&m, &t) != expect {
                        fail_cell("chaining", name, seed, &report, "contents diverge");
                    }
                }
                Err(e) => fail_cell("chaining", name, seed, e.report(), "full ladder exhausted"),
            }
            assert!(!m.in_txn(), "chaining/{name}/{seed}: txn left open");
        }
    }
}

#[test]
fn open_addressing_always_completes_and_matches_reference() {
    for seed in SEEDS {
        for (name, plan) in fault_plans(seed) {
            // Distinct keys (the workload's precondition).
            let keys: Vec<Word> = (0..24).map(|i| (i * 97 + seed as Word % 89) + 1).collect();
            let mut m = machine_with(plan);
            let table = m.alloc(67, "table");
            init_table(&mut m, table);
            let probe = ProbeStrategy::KeyDependent;
            match txn_oa_insert(&mut m, table, &keys, probe, &RetryPolicy::default()) {
                Ok((_, report)) => {
                    let snap = m.mem().read_region(table);
                    let mut expect = keys.clone();
                    expect.sort_unstable();
                    if stored_keys(&snap) != expect
                        || keys.iter().any(|&k| !contains(&snap, k, probe))
                    {
                        fail_cell("open_addressing", name, seed, &report, "contents diverge");
                    }
                }
                Err(e) => fail_cell(
                    "open_addressing",
                    name,
                    seed,
                    e.report(),
                    "full ladder exhausted",
                ),
            }
            assert!(!m.in_txn(), "open_addressing/{name}/{seed}: txn left open");
        }
    }
}

#[test]
fn bst_always_completes_and_matches_reference() {
    for seed in SEEDS {
        for (name, plan) in fault_plans(seed) {
            let keys = keys_for(seed ^ 0xB57, 24, 200);
            let mut m = machine_with(plan);
            let mut t = Bst::alloc(&mut m, 32);
            match txn_bst_insert(&mut m, &mut t, &keys, &RetryPolicy::default()) {
                Ok((_, report)) => {
                    let mut expect = keys.clone();
                    expect.sort_unstable();
                    if t.inorder(&m) != expect {
                        fail_cell("bst", name, seed, &report, "inorder diverges");
                    }
                }
                Err(e) => fail_cell("bst", name, seed, e.report(), "full ladder exhausted"),
            }
            assert!(!m.in_txn(), "bst/{name}/{seed}: txn left open");
        }
    }
}

#[test]
fn rewrite_always_completes_and_matches_reference() {
    for seed in SEEDS {
        for (name, plan) in fault_plans(seed) {
            let symbols = keys_for(seed ^ 0x5EED, 14, 512);
            let mut m = machine_with(plan);
            let t = OpTree::right_comb(&mut m, &symbols);
            let before_leaves = t.leaves_inorder(&m);
            let before_val = t.eval_affine(&m);
            match txn_rewrite_to_normal_form(&mut m, &t, &RetryPolicy::default()) {
                Ok((_, report)) => {
                    if !t.is_normal_form(&m)
                        || t.leaves_inorder(&m) != before_leaves
                        || t.eval_affine(&m) != before_val
                    {
                        fail_cell("rewrite", name, seed, &report, "normal form diverges");
                    }
                }
                Err(e) => fail_cell("rewrite", name, seed, e.report(), "full ladder exhausted"),
            }
            assert!(!m.in_txn(), "rewrite/{name}/{seed}: txn left open");
        }
    }
}

#[test]
fn dist_count_always_completes_and_matches_reference() {
    for seed in SEEDS {
        for (name, plan) in fault_plans(seed) {
            let data = keys_for(seed ^ 0xD157, 48, 32);
            let mut expect = data.clone();
            expect.sort_unstable();
            let mut m = machine_with(plan);
            let a = m.alloc(data.len(), "A");
            m.mem_mut().write_region(a, &data);
            match txn_sort(&mut m, a, 32, &RetryPolicy::default()) {
                Ok((_, report)) => {
                    if m.mem().read_region(a) != expect {
                        fail_cell("dist_count", name, seed, &report, "output not sorted input");
                    }
                }
                Err(e) => fail_cell(
                    "dist_count",
                    name,
                    seed,
                    e.report(),
                    "full ladder exhausted",
                ),
            }
            assert!(!m.in_txn(), "dist_count/{name}/{seed}: txn left open");
        }
    }
}

#[test]
fn components_always_completes_and_matches_reference() {
    for seed in SEEDS {
        for (name, plan) in fault_plans(seed) {
            let n = 16usize;
            let ends = keys_for(seed ^ 0xC0C0, 40, n as Word);
            let edges: Vec<(Word, Word)> = ends.chunks(2).map(|c| (c[0], c[1])).collect();
            let expect = union_find_components(n, &edges);
            let mut m = machine_with(plan);
            let g = Components::new(&mut m, n, &edges);
            match txn_components(&mut m, &g, &RetryPolicy::default()) {
                Ok((_, report)) => {
                    if g.labelling(&m) != expect {
                        fail_cell("components", name, seed, &report, "labelling diverges");
                    }
                }
                Err(e) => fail_cell(
                    "components",
                    name,
                    seed,
                    e.report(),
                    "full ladder exhausted",
                ),
            }
            assert!(!m.in_txn(), "components/{name}/{seed}: txn left open");
        }
    }
}

/// Restricted-ladder regime: with only the `Vector` rung and total lane
/// loss, every attempt must fail — and every byte the workload could have
/// touched must read back exactly as captured before the transaction.
#[test]
fn exhaustion_restores_snapshots_byte_exact() {
    let doomed = |seed: u64| FaultPlan::dropped_lanes(seed, 65535);
    let policy = {
        let mut p = RetryPolicy::vector_only(2);
        p.reseed = false;
        p
    };

    for seed in SEEDS {
        // Chaining: pre-populate, snapshot, fail, compare.
        {
            let mut m = machine_with(doomed(seed));
            let mut t = ChainTable::alloc(&mut m, 7, 24);
            // Pre-population must not fight the fault plan: scalar path.
            fol_hash::chaining::scalar_insert_all(&mut m, &mut t, &[500, 501, 502]);
            let regions: Vec<Region> = vec![t.heads, t.work, t.arena];
            let snap = Snapshot::capture(m.mem(), &regions);
            let used_before = t.used_nodes;
            let err = txn_chain_insert(&mut m, &mut t, &keys_for(seed, 8, 100), &policy)
                .expect_err("vector-only under 100% drops must exhaust");
            assert_eq!(err.report().attempts, 2);
            assert!(
                snap.matches(m.mem()),
                "chaining rollback not byte-exact (seed {seed})"
            );
            assert_eq!(t.used_nodes, used_before);
        }
        // BST.
        {
            let mut m = machine_with(doomed(seed));
            let mut t = Bst::alloc(&mut m, 16);
            fol_tree::bst::scalar_insert_all(&mut m, &mut t, &[40, 10, 90]);
            let snap = Snapshot::capture(m.mem(), &[t.keys, t.links]);
            let err = txn_bst_insert(&mut m, &mut t, &keys_for(seed, 6, 100), &policy)
                .expect_err("vector-only under 100% drops must exhaust");
            assert!(!err.report().errors.is_empty());
            assert!(
                snap.matches(m.mem()),
                "bst rollback not byte-exact (seed {seed})"
            );
            assert_eq!(t.used, 3);
        }
        // Distribution counting sort.
        {
            let data = keys_for(seed ^ 7, 12, 8);
            let mut m = machine_with(doomed(seed));
            let a = m.alloc(data.len(), "A");
            m.mem_mut().write_region(a, &data);
            let snap = Snapshot::capture(m.mem(), &[a]);
            let _ = txn_sort(&mut m, a, 8, &policy)
                .expect_err("vector-only under 100% drops must exhaust");
            assert!(
                snap.matches(m.mem()),
                "dist_count rollback not byte-exact (seed {seed})"
            );
        }
        // Components.
        {
            let mut m = machine_with(doomed(seed));
            let g = Components::new(&mut m, 6, &[(0, 1), (2, 3), (4, 5), (1, 2)]);
            let snap = Snapshot::capture(m.mem(), &[g.labels, g.work]);
            let _ = txn_components(&mut m, &g, &policy)
                .expect_err("vector-only under 100% drops must exhaust");
            assert!(
                snap.matches(m.mem()),
                "components rollback not byte-exact (seed {seed})"
            );
        }
    }
}

/// Sticky-lane regime (the quarantine tentpole): one physical lane drops
/// *every* scatter write routed through it — a fault no reseed can dodge.
/// The health registry must quarantine the lane during the vector attempt,
/// and the `DegradedVector` rung must then finish every workload
/// oracle-equal at reduced width, never falling to the sequential rungs.
#[test]
fn sticky_lane_faults_converge_in_degraded_vector_mode() {
    const LANE: usize = 5;
    let sticky = |seed: u64| FaultPlan::sticky_lanes(seed, 1u64 << LANE);
    let check = |workload: &str, seed: u64, m: &Machine, report: &RecoveryReport, lane: usize| {
        match report.final_mode {
            ExecMode::DegradedVector { quarantined } if quarantined.contains(lane) => {}
            other => fail_cell(
                workload,
                "sticky-lane",
                seed,
                report,
                &format!("expected DegradedVector quarantining lane {lane}, finished in {other}"),
            ),
        }
        assert!(
            m.health().is_quarantined(lane),
            "{workload}/sticky/{seed}: registry lost the quarantine"
        );
    };

    for seed in SEEDS {
        // Chaining.
        {
            let keys = keys_for(seed ^ 0xC4A1, 28, 1000);
            let mut m = machine_with(sticky(seed));
            let mut t = ChainTable::alloc(&mut m, 11, 32);
            let (_, report) = txn_chain_insert(&mut m, &mut t, &keys, &RetryPolicy::default())
                .expect("degraded rung must absorb a sticky lane");
            let mut expect = keys.clone();
            expect.sort_unstable();
            assert_eq!(all_keys(&m, &t), expect, "chaining/sticky/{seed}");
            check("chaining", seed, &m, &report, LANE);
        }
        // Open addressing.
        {
            let keys: Vec<Word> = (0..24).map(|i| (i * 97 + seed as Word % 89) + 1).collect();
            let mut m = machine_with(sticky(seed));
            let table = m.alloc(67, "table");
            init_table(&mut m, table);
            let probe = ProbeStrategy::KeyDependent;
            let (_, report) = txn_oa_insert(&mut m, table, &keys, probe, &RetryPolicy::default())
                .expect("degraded rung must absorb a sticky lane");
            let snap = m.mem().read_region(table);
            let mut expect = keys.clone();
            expect.sort_unstable();
            assert_eq!(stored_keys(&snap), expect, "open_addressing/sticky/{seed}");
            check("open_addressing", seed, &m, &report, LANE);
        }
        // BST insert.
        {
            let keys = keys_for(seed ^ 0xB57, 24, 200);
            let mut m = machine_with(sticky(seed));
            let mut t = Bst::alloc(&mut m, 32);
            let (_, report) = txn_bst_insert(&mut m, &mut t, &keys, &RetryPolicy::default())
                .expect("degraded rung must absorb a sticky lane");
            let mut expect = keys.clone();
            expect.sort_unstable();
            assert_eq!(t.inorder(&m), expect, "bst/sticky/{seed}");
            check("bst", seed, &m, &report, LANE);
        }
        // Tree rewrite.
        {
            // A right comb rewrites one site per pass, so every scatter is
            // a singleton riding physical lane 0 — stick *that* lane.
            let symbols = keys_for(seed ^ 0x5EED, 30, 512);
            let mut m = machine_with(FaultPlan::sticky_lanes(seed, 1));
            let t = OpTree::right_comb(&mut m, &symbols);
            let before_leaves = t.leaves_inorder(&m);
            let before_val = t.eval_affine(&m);
            let (_, report) = txn_rewrite_to_normal_form(&mut m, &t, &RetryPolicy::default())
                .expect("degraded rung must absorb a sticky lane");
            assert!(t.is_normal_form(&m), "rewrite/sticky/{seed}");
            assert_eq!(t.leaves_inorder(&m), before_leaves, "rewrite/sticky/{seed}");
            assert_eq!(t.eval_affine(&m), before_val, "rewrite/sticky/{seed}");
            check("rewrite", seed, &m, &report, 0);
        }
        // Distribution-counting sort.
        {
            let data = keys_for(seed ^ 0xD157, 48, 32);
            let mut expect = data.clone();
            expect.sort_unstable();
            let mut m = machine_with(sticky(seed));
            let a = m.alloc(data.len(), "A");
            m.mem_mut().write_region(a, &data);
            let (_, report) = txn_sort(&mut m, a, 32, &RetryPolicy::default())
                .expect("degraded rung must absorb a sticky lane");
            assert_eq!(m.mem().read_region(a), expect, "dist_count/sticky/{seed}");
            check("dist_count", seed, &m, &report, LANE);
        }
        // Connected components.
        {
            let n = 16usize;
            let ends = keys_for(seed ^ 0xC0C0, 40, n as Word);
            let edges: Vec<(Word, Word)> = ends.chunks(2).map(|c| (c[0], c[1])).collect();
            let expect = union_find_components(n, &edges);
            let mut m = machine_with(sticky(seed));
            let g = Components::new(&mut m, n, &edges);
            let (_, report) = txn_components(&mut m, &g, &RetryPolicy::default())
                .expect("degraded rung must absorb a sticky lane");
            assert_eq!(g.labelling(&m), expect, "components/sticky/{seed}");
            check("components", seed, &m, &report, LANE);
        }
    }
}

/// Watchdog regime: a seeded livelock (total lane loss plus a zero
/// wall-clock deadline) must surface as the typed
/// [`RecoveryError::Watchdog`] — not an exhausted ladder — after a
/// byte-exact journaled rollback.
#[test]
fn watchdog_converts_livelock_into_typed_error_with_rollback() {
    for seed in SEEDS {
        let mut m = machine_with(FaultPlan::dropped_lanes(seed, 65535));
        let work = m.alloc(8, "work");
        let snap = Snapshot::capture(m.mem(), &[work]);
        let policy = RetryPolicy {
            watchdog: Some(WatchdogConfig {
                stall_rounds: 0,
                deadline: Some(std::time::Duration::ZERO),
            }),
            ..RetryPolicy::default()
        };
        let targets: Vec<usize> = (0..8).map(|i| i % 3).collect();
        let mut counts = vec![0u32; 8];
        let err = txn_apply_rounds(&mut m, work, &mut counts, &targets, &policy, |c, _| *c += 1)
            .expect_err("zero deadline must trip on the first pass");
        match &err {
            RecoveryError::Watchdog { report } => {
                assert_eq!(
                    report.attempts, 1,
                    "watchdog must not escalate (seed {seed})"
                );
                assert!(matches!(
                    report.errors.last(),
                    Some(fol_core::FolError::Stalled { .. })
                ));
            }
            RecoveryError::Exhausted { report } => fail_cell(
                "watchdog",
                "livelock",
                seed,
                report,
                "ladder exhausted instead of tripping the watchdog",
            ),
        }
        assert!(
            counts.iter().all(|&c| c == 0),
            "host data touched (seed {seed})"
        );
        assert!(
            snap.matches(m.mem()),
            "watchdog rollback not byte-exact (seed {seed})"
        );
        assert!(!m.in_txn());
    }
}

/// Host-stage corruption regime: the staging scratch `txn_apply_rounds`
/// builds between applying the rounds and committing lives *outside* every
/// tracked machine region — flipping a byte there must surface as the typed
/// `ChecksumMismatch` on the `"(host stage)"` pseudo-region, roll the
/// attempt back, and (because the corrupter strikes every attempt) exhaust
/// the ladder with the caller's data untouched. A one-shot corrupter must
/// instead be absorbed by a retry, with the final data exactly right.
#[test]
fn host_stage_corruption_is_detected_typed_and_rolled_back() {
    use fol_core::FolError;
    use fol_vm::IntegrityError;
    let targets: Vec<usize> = (0..16).map(|i| i % 5).collect();

    // Persistent corrupter: every attempt's stage is poisoned, so every
    // rung fails the stage digest and the ladder exhausts.
    {
        let mut m = Machine::new(CostModel::unit());
        let work = m.alloc(8, "work");
        let mut counts = vec![0u32; 16];
        let before = counts.clone();
        let err = txn_apply_rounds_hooked(
            &mut m,
            work,
            &mut counts,
            &targets,
            &RetryPolicy::default(),
            |c, _| *c += 1,
            &mut |stage: &mut [u32]| stage[3] ^= 0x40,
        )
        .expect_err("a corrupted stage must never commit");
        let report = err.report();
        assert_eq!(
            report.corruption_detected as usize,
            report.errors.len(),
            "every failure is a detected corruption"
        );
        for e in &report.errors {
            match e {
                FolError::Integrity(IntegrityError::ChecksumMismatch { region, .. }) => {
                    assert_eq!(region, "(host stage)", "typed to the host-stage region");
                }
                other => panic!("wrong error class for a stage flip: {other}"),
            }
        }
        assert_eq!(counts, before, "caller data untouched after exhaustion");
        assert!(!m.in_txn());
    }

    // One-shot corrupter: the first attempt is poisoned, the retry is
    // clean — the supervisor absorbs it and the final data is exact.
    {
        let mut m = Machine::new(CostModel::unit());
        let work = m.alloc(8, "work");
        let mut counts = vec![0u32; 16];
        let mut strikes = 1u32;
        let (_, report) = txn_apply_rounds_hooked(
            &mut m,
            work,
            &mut counts,
            &targets,
            &RetryPolicy::default(),
            |c, _| *c += 1,
            &mut |stage: &mut [u32]| {
                if strikes > 0 {
                    strikes -= 1;
                    stage[0] = stage[0].wrapping_add(1);
                }
            },
        )
        .expect("a transient stage flip must be absorbed by retry");
        assert_eq!(report.attempts, 2);
        assert_eq!(report.corruption_detected, 1);
        let mut expect = vec![0u32; 16];
        for &t in &targets {
            expect[t] += 1;
        }
        assert_eq!(
            counts, expect,
            "retried result is exact: every element lands on its target once"
        );
    }
}

/// Reports must round-trip sensible audit data: attempts counted, errors
/// recorded in order, fault events consumed, and the JSON form well-formed
/// enough for the CI artifact.
#[test]
fn recovery_reports_carry_a_usable_audit_trail() {
    let mut m =
        machine_with(FaultPlan::dropped_lanes(77, 30000).with_torn_writes(30000, AmalgamMode::Xor));
    let mut t = ChainTable::alloc(&mut m, 7, 32);
    let keys = keys_for(99, 20, 300);
    let (_, report) = txn_chain_insert(&mut m, &mut t, &keys, &RetryPolicy::default())
        .expect("full ladder completes");
    assert!(report.recovered());
    assert_eq!(report.errors.len(), report.attempts - 1);
    assert!(
        report.faults_consumed > 0,
        "hostile plan must have injected something"
    );
    let json = report.to_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"attempts\":"));
    assert!(json.contains("\"final_mode\":"));
    // The machine's fault log digests the same story for humans.
    assert!(!m.fault_log().summary().is_empty());
}

/// Outcome of one corruption cell, for the oracle-equal-or-typed contract.
enum CellOutcome {
    /// Completed and the oracle check passed.
    OracleEqual(RecoveryReport),
    /// Refused with a typed error (after byte-exact restore).
    TypedRefusal(RecoveryReport),
}

/// Asserts the corruption-regime contract on one finished cell: a completed
/// run must be oracle-equal (checked by the caller before constructing
/// [`CellOutcome::OracleEqual`]), a refusal must carry typed errors, and at
/// total fault rates the integrity layer must actually have fired — a
/// first-try success would mean the faults were silently absorbed.
fn check_corruption_cell(workload: &str, plan: &str, seed: u64, total: bool, out: &CellOutcome) {
    let report = match out {
        CellOutcome::OracleEqual(r) => r,
        CellOutcome::TypedRefusal(r) => {
            if r.errors.is_empty() {
                fail_cell(workload, plan, seed, r, "refusal without a typed error");
            }
            r
        }
    };
    if total && report.attempts == 1 && report.corruption_detected == 0 {
        fail_cell(
            workload,
            plan,
            seed,
            report,
            "total-rate corruption neither detected nor escalated",
        );
    }
}

/// Corruption regime (the integrity tentpole): gather faults and resident
/// bit-rot across every workload, every seed. Each cell must either
/// complete with output identical to the host oracle, or refuse with a
/// typed error — a silently wrong answer fails the cell. The full default
/// ladder ends in `ScalarTail`, whose reads and writes bypass both the
/// gather unit and the scatter-hooked rot, so completion is the expected
/// outcome; refusals are tolerated only if typed.
#[test]
fn corruption_cells_are_oracle_equal_or_typed() {
    for seed in SEEDS {
        for (name, plan) in corruption_plans(seed) {
            let total = name.contains("100%");
            // Chaining.
            {
                let keys = keys_for(seed ^ 0xC4A1, 28, 1000);
                let mut m = machine_with(plan.clone());
                let mut t = ChainTable::alloc(&mut m, 11, 32);
                let out = match txn_chain_insert(&mut m, &mut t, &keys, &RetryPolicy::default()) {
                    Ok((_, report)) => {
                        let mut expect = keys.clone();
                        expect.sort_unstable();
                        if all_keys(&m, &t) != expect {
                            fail_cell("chaining", name, seed, &report, "contents diverge");
                        }
                        CellOutcome::OracleEqual(report)
                    }
                    Err(e) => CellOutcome::TypedRefusal(e.into_report()),
                };
                check_corruption_cell("chaining", name, seed, total, &out);
                assert!(!m.in_txn(), "chaining/{name}/{seed}: txn left open");
            }
            // Open addressing.
            {
                let keys: Vec<Word> = (0..24).map(|i| (i * 97 + seed as Word % 89) + 1).collect();
                let mut m = machine_with(plan.clone());
                let table = m.alloc(67, "table");
                init_table(&mut m, table);
                let probe = ProbeStrategy::KeyDependent;
                let out = match txn_oa_insert(&mut m, table, &keys, probe, &RetryPolicy::default())
                {
                    Ok((_, report)) => {
                        let snap = m.mem().read_region(table);
                        let mut expect = keys.clone();
                        expect.sort_unstable();
                        if stored_keys(&snap) != expect
                            || keys.iter().any(|&k| !contains(&snap, k, probe))
                        {
                            fail_cell("open_addressing", name, seed, &report, "contents diverge");
                        }
                        CellOutcome::OracleEqual(report)
                    }
                    Err(e) => CellOutcome::TypedRefusal(e.into_report()),
                };
                check_corruption_cell("open_addressing", name, seed, total, &out);
                assert!(!m.in_txn(), "open_addressing/{name}/{seed}: txn left open");
            }
            // BST insert.
            {
                let keys = keys_for(seed ^ 0xB57, 24, 200);
                let mut m = machine_with(plan.clone());
                let mut t = Bst::alloc(&mut m, 32);
                let out = match txn_bst_insert(&mut m, &mut t, &keys, &RetryPolicy::default()) {
                    Ok((_, report)) => {
                        let mut expect = keys.clone();
                        expect.sort_unstable();
                        if t.inorder(&m) != expect {
                            fail_cell("bst", name, seed, &report, "inorder diverges");
                        }
                        CellOutcome::OracleEqual(report)
                    }
                    Err(e) => CellOutcome::TypedRefusal(e.into_report()),
                };
                check_corruption_cell("bst", name, seed, total, &out);
                assert!(!m.in_txn(), "bst/{name}/{seed}: txn left open");
            }
            // Tree rewrite.
            {
                let symbols = keys_for(seed ^ 0x5EED, 14, 512);
                let mut m = machine_with(plan.clone());
                let t = OpTree::right_comb(&mut m, &symbols);
                let before_leaves = t.leaves_inorder(&m);
                let before_val = t.eval_affine(&m);
                let out = match txn_rewrite_to_normal_form(&mut m, &t, &RetryPolicy::default()) {
                    Ok((_, report)) => {
                        if !t.is_normal_form(&m)
                            || t.leaves_inorder(&m) != before_leaves
                            || t.eval_affine(&m) != before_val
                        {
                            fail_cell("rewrite", name, seed, &report, "normal form diverges");
                        }
                        CellOutcome::OracleEqual(report)
                    }
                    Err(e) => CellOutcome::TypedRefusal(e.into_report()),
                };
                check_corruption_cell("rewrite", name, seed, total, &out);
                assert!(!m.in_txn(), "rewrite/{name}/{seed}: txn left open");
            }
            // Distribution-counting sort.
            {
                let data = keys_for(seed ^ 0xD157, 48, 32);
                let mut expect = data.clone();
                expect.sort_unstable();
                let mut m = machine_with(plan.clone());
                let a = m.alloc(data.len(), "A");
                m.mem_mut().write_region(a, &data);
                let out = match txn_sort(&mut m, a, 32, &RetryPolicy::default()) {
                    Ok((_, report)) => {
                        if m.mem().read_region(a) != expect {
                            fail_cell("dist_count", name, seed, &report, "output not sorted input");
                        }
                        CellOutcome::OracleEqual(report)
                    }
                    Err(e) => CellOutcome::TypedRefusal(e.into_report()),
                };
                check_corruption_cell("dist_count", name, seed, total, &out);
                assert!(!m.in_txn(), "dist_count/{name}/{seed}: txn left open");
            }
            // Connected components.
            {
                let n = 16usize;
                let ends = keys_for(seed ^ 0xC0C0, 40, n as Word);
                let edges: Vec<(Word, Word)> = ends.chunks(2).map(|c| (c[0], c[1])).collect();
                let expect = union_find_components(n, &edges);
                let mut m = machine_with(plan.clone());
                let g = Components::new(&mut m, n, &edges);
                let out = match txn_components(&mut m, &g, &RetryPolicy::default()) {
                    Ok((_, report)) => {
                        if g.labelling(&m) != expect {
                            fail_cell("components", name, seed, &report, "labelling diverges");
                        }
                        CellOutcome::OracleEqual(report)
                    }
                    Err(e) => CellOutcome::TypedRefusal(e.into_report()),
                };
                check_corruption_cell("components", name, seed, total, &out);
                assert!(!m.in_txn(), "components/{name}/{seed}: txn left open");
            }
        }
    }
}

/// Bit-rot exhaustion regime: rot strikes the tracked work areas behind the
/// journal's back, so a plain rollback cannot satisfy the exhaustion
/// contract — the supervisor's repair from the machine's committed image
/// must. With only the `Vector`
/// rung available, every attempt must fail *typed* (auditor or scrub), and
/// the workload's memory must still read back byte-exact.
#[test]
fn bit_rot_exhaustion_restores_snapshots_byte_exact() {
    let rotting = |seed: u64| FaultPlan::bit_rot(seed, 65535);
    let policy = {
        let mut p = RetryPolicy::vector_only(2);
        p.reseed = false;
        p
    };

    for seed in SEEDS {
        // Chaining.
        {
            let mut m = machine_with(rotting(seed));
            let mut t = ChainTable::alloc(&mut m, 7, 24);
            fol_hash::chaining::scalar_insert_all(&mut m, &mut t, &[500, 501, 502]);
            let regions: Vec<Region> = vec![t.heads, t.work, t.arena];
            let snap = Snapshot::capture(m.mem(), &regions);
            let err = txn_chain_insert(&mut m, &mut t, &keys_for(seed, 8, 100), &policy)
                .expect_err("vector-only under total rot must exhaust");
            assert!(
                err.report().corruption_detected > 0,
                "rot must be charged to the corruption counter (seed {seed})"
            );
            assert!(
                snap.matches(m.mem()),
                "chaining rot repair not byte-exact (seed {seed})"
            );
        }
        // Distribution-counting sort.
        {
            let data = keys_for(seed ^ 7, 12, 8);
            let mut m = machine_with(rotting(seed));
            let a = m.alloc(data.len(), "A");
            m.mem_mut().write_region(a, &data);
            let snap = Snapshot::capture(m.mem(), &[a]);
            let err = txn_sort(&mut m, a, 8, &policy)
                .expect_err("vector-only under total rot must exhaust");
            assert!(
                err.report().corruption_detected > 0,
                "rot must be charged to the corruption counter (seed {seed})"
            );
            assert!(
                snap.matches(m.mem()),
                "dist_count rot repair not byte-exact (seed {seed})"
            );
        }
    }
}

/// One cell of the breaker-rot sweep: a 14-leaf right comb, lane 3 in
/// quarantine with its probe cooldown elapsed (8 scatters on a side region),
/// resident bit-rot at `rate`, and a one-attempt `ScalarTail` ladder. The
/// circuit breaker probes with a scatter, which rot may strike; the scalar
/// tail must never read what it struck unrepaired. Ok must be oracle-equal;
/// a refusal must be typed and leave the tree as it was.
fn breaker_rot_cell(seed: u64, rate: u16) -> Result<(), String> {
    let symbols: Vec<Word> = (1..=14).collect();
    let mut m = Machine::new(CostModel::unit());
    let t = OpTree::right_comb(&mut m, &symbols);
    let before_leaves = t.leaves_inorder(&m);
    let before_val = t.eval_affine(&m);
    m.set_fault_plan(Some(FaultPlan::bit_rot(seed, rate)));
    m.health_mut().quarantine(3);
    let side = m.alloc(8, "side");
    for i in 0..8 {
        let idx = m.iota(0, 8);
        let vals = m.vsplat(i, 8);
        m.scatter(side, &idx, &vals);
    }
    let policy = RetryPolicy {
        max_attempts: 1,
        ladder: vec![ExecMode::ScalarTail],
        ..RetryPolicy::default()
    };
    let outcome = txn_rewrite_to_normal_form(&mut m, &t, &policy);
    let equal = t.leaves_inorder(&m) == before_leaves && t.eval_affine(&m) == before_val;
    match outcome {
        Ok(_) if equal && t.is_normal_form(&m) => Ok(()),
        Ok((_, report)) => Err(format!("committed a diverging tree: {}", report.to_json())),
        Err(_) if equal => Ok(()),
        Err(e) => Err(format!("refusal left the tree changed: {e}")),
    }
}

/// The breaker-rot sweep (seeds 1–8 × rot rates 2 000/8 000/20 000). Each
/// cell runs on its own thread under a 10 s limit, so a hang fails the
/// test instead of stalling the suite.
#[test]
fn breaker_probe_rot_never_reaches_the_scalar_tail() {
    use std::sync::mpsc::{channel, RecvTimeoutError};
    for seed in 1..=8u64 {
        for rate in [2_000u16, 8_000, 20_000] {
            let (tx, rx) = channel();
            let cell = std::thread::spawn(move || {
                let _ = tx.send(breaker_rot_cell(seed, rate));
            });
            let verdict = match rx.recv_timeout(std::time::Duration::from_secs(10)) {
                Ok(verdict) => verdict,
                // A hung cell cannot be joined; it ends with the test process.
                Err(RecvTimeoutError::Timeout) => Err("did not return within 10 s".into()),
                Err(RecvTimeoutError::Disconnected) => Err("panicked".into()),
            };
            if let Err(why) = verdict {
                panic!("seed {seed} rate {rate}: {why}");
            }
            cell.join()
                .expect("a cell that returned its verdict exits cleanly");
        }
    }
}

// ---------------------------------------------------------------------------
// Coalesced-batch isolation: the serving layer merges independent requests
// into one index vector, so a single adversarial request must not be able to
// take its siblings down with it.
// ---------------------------------------------------------------------------

/// The adversary: re-inserting a key the table already stores. The vector
/// rungs dedup it (the FOL label check treats "slot already holds my key"
/// as won), which diverges from the duplicate-storing scalar reference and
/// trips the stored-keys post-condition; only the scalar tail can complete
/// it. Two regimes, both proving sibling isolation:
///
/// * **Restricted ladder** (vector-only, no reseed, benign faults): the
///   adversarial group must fail *typed* after bisection isolates it, its
///   siblings must all land, and the table must end oracle-equal to the
///   innocent union — one poisoned request cannot fail a coalesced batch.
/// * **Full ladder** under the whole fault matrix: every group completes
///   (the scalar tail absorbs both injected faults and the duplicate), and
///   the table matches the scalar reference exactly — duplicate stored
///   twice, like `scalar_insert_all` would.
#[test]
fn a_single_adversarial_key_cannot_poison_a_coalesced_batch() {
    use fol_core::recover::GroupError;
    use fol_hash::open_addressing::txn_insert_groups;

    let groups: Vec<Vec<Word>> = vec![
        vec![1, 2],
        vec![3],
        vec![777], // the adversary: already stored
        vec![4, 5, 6],
        vec![7],
        vec![8, 9],
        vec![10],
        vec![11, 12],
    ];
    let innocent: Vec<Word> = vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 777];

    // Regime A: restricted ladder — the adversary fails typed, alone.
    {
        let policy = RetryPolicy {
            reseed: false,
            ..RetryPolicy::vector_only(2)
        };
        let mut m = Machine::new(CostModel::unit());
        let table = m.alloc(64, "oa.table");
        init_table(&mut m, table);
        txn_oa_insert(&mut m, table, &[777], ProbeStrategy::KeyDependent, &policy)
            .expect("preload on a clean machine");
        let outs = txn_insert_groups(&mut m, table, &groups, ProbeStrategy::KeyDependent, &policy);
        assert_eq!(outs.len(), groups.len());
        for (i, out) in outs.iter().enumerate() {
            if groups[i] == [777] {
                assert!(
                    matches!(out, Err(GroupError::Recovery(_))),
                    "adversarial group must fail typed: {out:?}"
                );
            } else {
                assert!(
                    out.is_ok(),
                    "sibling group {i} poisoned by the adversary: {out:?}"
                );
            }
        }
        assert_eq!(
            stored_keys(&m.mem().read_region(table)),
            innocent,
            "table must hold exactly the innocent union plus the preload"
        );
    }

    // Regime B: full ladder x fault matrix — everything completes, and the
    // result matches the duplicate-storing scalar reference.
    let policy = RetryPolicy::default();
    for seed in SEEDS {
        for (plan_name, plan) in fault_plans(seed) {
            let mut m = Machine::new(CostModel::unit());
            m.set_fault_plan(Some(plan));
            let table = m.alloc(64, "oa.table");
            init_table(&mut m, table);
            txn_oa_insert(&mut m, table, &[777], ProbeStrategy::KeyDependent, &policy)
                .expect("preload under the full ladder always completes");
            let outs =
                txn_insert_groups(&mut m, table, &groups, ProbeStrategy::KeyDependent, &policy);
            for (i, out) in outs.iter().enumerate() {
                assert!(
                    out.is_ok(),
                    "full ladder must complete group {i} ({plan_name}, seed {seed}): {out:?}"
                );
            }
            let mut expected = innocent.clone();
            expected.push(777); // scalar-reference semantics: duplicate stored twice
            expected.sort_unstable();
            assert_eq!(
                stored_keys(&m.mem().read_region(table)),
                expected,
                "table must match the scalar reference ({plan_name}, seed {seed})"
            );
        }
    }
}
