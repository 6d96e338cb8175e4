//! Compile-and-run check for the README "Serving traffic" snippet — if the
//! public API drifts, this test fails before the docs lie.

use fol_serve::{Request, Response, Server, ServerConfig};

#[test]
fn readme_serve_snippet() {
    let server = Server::start(ServerConfig::default());

    // Submit small independent requests. A free worker takes whatever is
    // queued into one large-index-vector transaction, so they coalesce as far
    // as a backlog builds while the workers are busy (a coalesced batch is
    // measured ~50x faster than one-txn-per-request at size 1 — `cargo bench
    // --bench serve`).
    let tickets: Vec<_> = (0..256)
        .map(|k| {
            server
                .submit(Request::ChainInsert { keys: vec![k] })
                .unwrap()
        })
        .collect();
    for t in tickets {
        assert!(matches!(t.wait(), Ok(Response::ChainInserted { .. })));
    }

    // Every outcome is per-request and typed: overload and deadline refusals,
    // admission rejections, isolated transaction failures — never a silent drop.
    server.call(Request::OaInsert { keys: vec![7, 9] }).unwrap();
    let found = server.call(Request::OaLookup { keys: vec![7, 8] }).unwrap();
    assert_eq!(
        found,
        Response::OaLookedUp {
            found: vec![true, false]
        }
    );

    let report = server.shutdown(); // drains the queue, dumps the structures
    assert_eq!(report.stats.submitted, report.stats.completed);
}
