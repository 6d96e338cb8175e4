//! Compile-and-run check for the README "Real hardware lanes" snippet —
//! if the backend-selection API drifts, this test fails before the docs
//! lie.

use fol_core::recover::RetryPolicy;
use fol_hash::open_addressing::{init_table, txn_insert_all};
use fol_hash::ProbeStrategy;
use fol_serve::{Server, ServerConfig};
use fol_simd::{best_available, engine_for, BackendKind};
use fol_vm::{CostModel, Machine, Word};

#[test]
fn readme_backend_snippet() {
    // Pick the fastest backend this CPU can run. Selection degrades typed,
    // never silently: asking for Avx2 on a machine without it hands back the
    // scalar engine, and engine_name() reports what actually ran.
    let mut m = Machine::with_engine(CostModel::unit(), engine_for(best_available()));
    assert!(matches!(m.engine_name(), "avx2" | "scalar"));

    // The whole stack is backend-agnostic: same transactional insert, same
    // journal, same checksums — and byte-identical memory and the same
    // modelled cycles at the end.
    let keys: Vec<Word> = (1..=24).collect();
    let table = m.alloc(67, "table");
    init_table(&mut m, table);
    txn_insert_all(
        &mut m,
        table,
        &keys,
        ProbeStrategy::KeyDependent,
        &RetryPolicy::default(),
    )
    .unwrap();

    let mut portable = Machine::new(CostModel::unit());
    assert_eq!(portable.engine_name(), "scalar");
    let table = portable.alloc(67, "table");
    init_table(&mut portable, table);
    txn_insert_all(
        &mut portable,
        table,
        &keys,
        ProbeStrategy::KeyDependent,
        &RetryPolicy::default(),
    )
    .unwrap();
    assert_eq!(m.content_digest(), portable.content_digest());
    assert_eq!(m.stats().cycles(), portable.stats().cycles());

    // The serving pool takes the same selector through its config, and
    // defaults to the fastest engine available.
    assert_eq!(ServerConfig::default().backend, best_available());
    let server = Server::start(ServerConfig {
        backend: BackendKind::Scalar, // or keep the default
        ..ServerConfig::default()
    });
    server.shutdown();
}
