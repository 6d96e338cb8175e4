//! Differential harness: the six FOL workloads × the chaos matrix, run on
//! the scalar and AVX2 backends, must produce `content_digest`-equal
//! structures — bit-identical memory, not just equivalent answers.
//!
//! Faults are injected by the machine's control plane from a seeded plan,
//! so the same (workload, plan, seed) cell sees the same fault sequence on
//! every backend; any digest divergence is therefore the engine's fault.
//! Each cell also compares the workload-level oracle output (stored keys,
//! inorder walks, labellings …) and the outcome shape, so a backend that
//! fails where another completes is caught even before digests.
//!
//! On machines without AVX2, `engine_for(Avx2)` resolves to the scalar
//! engine (typed fallback), so the suite compares the scalar engine with
//! itself — the configuration the CI `simd` job runs with
//! `--no-default-features`. The kernel tables in `fol_vm::backend` and
//! `tests/edge_tables.rs` check the scalar engine against definitions
//! written in the tests, so that build is still checked against
//! something other than itself.

use fol_core::recover::RetryPolicy;
use fol_graph::components::{txn_components, union_find_components, Components};
use fol_hash::chaining::{all_keys, txn_insert_all as txn_chain_insert, ChainTable};
use fol_hash::open_addressing::{init_table, stored_keys, txn_insert_all as txn_oa_insert};
use fol_hash::ProbeStrategy;
use fol_simd::{engine_for, BackendKind};
use fol_sort::dist_count::txn_sort;
use fol_tree::bst::{txn_insert_all as txn_bst_insert, Bst};
use fol_tree::rewrite::{txn_rewrite_to_normal_form, OpTree};
use fol_vm::{AmalgamMode, CostModel, FaultPlan, Machine, Word};

const SEEDS: [u64; 3] = [1, 42, 20260806];

const BACKENDS: [BackendKind; 2] = [BackendKind::Scalar, BackendKind::Avx2];

/// The scatter-side fault matrix, mirroring the repo-level chaos suite.
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

/// The read-side/memory corruption matrix, mirroring the chaos suite.
fn corruption_plans(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("gather-flips-3%", FaultPlan::gather_flips(seed, 2000)),
        (
            "stale-reads-12%",
            FaultPlan::benign(seed).with_stale_reads(8000),
        ),
        (
            "torn-gathers-12%",
            FaultPlan::benign(seed).with_torn_gathers(8000),
        ),
        ("bit-rot-3%", FaultPlan::bit_rot(seed, 2000)),
        (
            "rot+flips-12%",
            FaultPlan::bit_rot(seed, 8000).with_gather_flips(8000),
        ),
    ]
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

/// One backend's observation of a cell: did it complete, what did the
/// workload-level oracle see, and what do the bytes hash to.
#[derive(Debug, PartialEq, Eq)]
struct Observation {
    completed: bool,
    oracle: Vec<Word>,
    digest: u64,
}

/// Runs `work` once per backend on a fresh machine seeded with the same
/// fault plan, then requires all observations identical to the first
/// backend's.
fn assert_backends_agree(
    cell: &str,
    plan: &FaultPlan,
    work: impl Fn(&mut Machine) -> (bool, Vec<Word>),
) {
    let mut reference: Option<(BackendKind, Observation)> = None;
    for kind in BACKENDS {
        let mut m = Machine::with_engine(CostModel::unit(), engine_for(kind));
        m.set_fault_plan(Some(plan.clone()));
        let (completed, oracle) = work(&mut m);
        assert!(!m.in_txn(), "{cell} [{kind}]: txn left open");
        let obs = Observation {
            completed,
            oracle,
            digest: m.content_digest(),
        };
        match &reference {
            None => reference = Some((kind, obs)),
            Some((ref_kind, ref_obs)) => assert_eq!(
                ref_obs, &obs,
                "{cell}: backend {kind} diverges from {ref_kind}"
            ),
        }
    }
}

/// Every plan in both matrices, for the sweep tests below.
fn all_plans(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    let mut plans = fault_plans(seed);
    plans.extend(corruption_plans(seed));
    plans
}

#[test]
fn chaining_is_digest_equal_across_backends() {
    for seed in SEEDS {
        for (name, plan) in all_plans(seed) {
            let keys = keys_for(seed ^ 0xC4A1, 28, 1000);
            assert_backends_agree(&format!("chaining/{name}/{seed}"), &plan, |m| {
                let mut t = ChainTable::alloc(m, 11, 32);
                match txn_chain_insert(m, &mut t, &keys, &RetryPolicy::default()) {
                    Ok(_) => (true, all_keys(m, &t)),
                    Err(_) => (false, vec![]),
                }
            });
        }
    }
}

#[test]
fn open_addressing_is_digest_equal_across_backends() {
    for seed in SEEDS {
        for (name, plan) in all_plans(seed) {
            let keys: Vec<Word> = (0..24).map(|i| (i * 97 + seed as Word % 89) + 1).collect();
            assert_backends_agree(&format!("open_addressing/{name}/{seed}"), &plan, |m| {
                let table = m.alloc(67, "table");
                init_table(m, table);
                let probe = ProbeStrategy::KeyDependent;
                match txn_oa_insert(m, table, &keys, probe, &RetryPolicy::default()) {
                    Ok(_) => (true, stored_keys(&m.mem().read_region(table))),
                    Err(_) => (false, vec![]),
                }
            });
        }
    }
}

#[test]
fn bst_is_digest_equal_across_backends() {
    for seed in SEEDS {
        for (name, plan) in all_plans(seed) {
            let keys = keys_for(seed ^ 0xB57, 24, 200);
            assert_backends_agree(&format!("bst/{name}/{seed}"), &plan, |m| {
                let mut t = Bst::alloc(m, 32);
                match txn_bst_insert(m, &mut t, &keys, &RetryPolicy::default()) {
                    Ok(_) => (true, t.inorder(m)),
                    Err(_) => (false, vec![]),
                }
            });
        }
    }
}

#[test]
fn rewrite_is_digest_equal_across_backends() {
    for seed in SEEDS {
        for (name, plan) in all_plans(seed) {
            let symbols = keys_for(seed ^ 0x5EED, 14, 512);
            assert_backends_agree(&format!("rewrite/{name}/{seed}"), &plan, |m| {
                let t = OpTree::right_comb(m, &symbols);
                match txn_rewrite_to_normal_form(m, &t, &RetryPolicy::default()) {
                    Ok(_) => {
                        let mut oracle = t.leaves_inorder(m);
                        let (a, b) = t.eval_affine(m);
                        oracle.extend([a, b, t.is_normal_form(m) as Word]);
                        (true, oracle)
                    }
                    Err(_) => (false, vec![]),
                }
            });
        }
    }
}

#[test]
fn dist_count_is_digest_equal_across_backends() {
    for seed in SEEDS {
        for (name, plan) in all_plans(seed) {
            let data = keys_for(seed ^ 0xD157, 48, 32);
            assert_backends_agree(&format!("dist_count/{name}/{seed}"), &plan, |m| {
                let a = m.alloc(data.len(), "A");
                m.mem_mut().write_region(a, &data);
                match txn_sort(m, a, 32, &RetryPolicy::default()) {
                    Ok(_) => (true, m.mem().read_region(a)),
                    Err(_) => (false, vec![]),
                }
            });
        }
    }
}

#[test]
fn components_is_digest_equal_across_backends() {
    for seed in SEEDS {
        for (name, plan) in all_plans(seed) {
            let n = 16usize;
            let ends = keys_for(seed ^ 0xC0C0, 40, n as Word);
            let edges: Vec<(Word, Word)> = ends.chunks(2).map(|c| (c[0], c[1])).collect();
            let expect = union_find_components(n, &edges);
            assert_backends_agree(&format!("components/{name}/{seed}"), &plan, |m| {
                let g = Components::new(m, n, &edges);
                match txn_components(m, &g, &RetryPolicy::default()) {
                    Ok(_) => {
                        let labelling = g.labelling(m);
                        assert_eq!(labelling, expect, "labelling must also be oracle-equal");
                        (true, labelling)
                    }
                    Err(_) => (false, vec![]),
                }
            });
        }
    }
}
