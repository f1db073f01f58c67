//! The rediscovery gate (live workspace): facts that earlier PRs
//! hand-encoded as comments next to `[policy] lock_order` must now
//! fall out of the interprocedural analysis with zero policy hints —
//! `callgraph::analyze` never reads `lock_order` or `[[allow]]`, so
//! everything asserted here is derived purely from the call graph.
//!
//! The two facts under test:
//!
//! 1. `SlotMap::with_conn` holds the per-connection `conn` lock while
//!    invoking caller-supplied callbacks, and the client's event
//!    callback acquires `stats` — so `conn -> stats` is a real edge,
//!    carried through a callback parameter across crate-internal
//!    function boundaries.
//! 2. The supplier staging path's `read_ahead` acquires `store`; every
//!    caller (the stage-job worker, the serve path) therefore holds
//!    `store` transitively even though no `lock(&…store)` appears in
//!    its own body.

use std::path::Path;
use xtask::policy::Policy;
use xtask::{callgraph, scan_analysis_files, Config};

fn live_analysis() -> callgraph::Analysis {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .expect("workspace root");
    // The policy supplies only the scan scope (member opt-outs and the
    // sync-primitive layer); lock ranking and allows never reach the
    // call-graph pass.
    let policy = Policy::load(&root.join("crates/xtask/allow.toml")).expect("policy loads");
    let config = Config::for_workspace(&root, &policy).expect("workspace members discovered");
    let files = scan_analysis_files(&config).expect("analysis scope scans");
    callgraph::analyze(&files, &policy.primitive_files)
}

#[test]
fn rediscovers_conn_to_stats_callback_edge() {
    let a = live_analysis();
    let edge = a
        .edges
        .iter()
        .find(|e| e.held == "conn" && e.acquired == "stats")
        .unwrap_or_else(|| {
            panic!(
                "conn -> stats must be discovered through the with_conn callback; edges found: {:?}",
                a.edges
                    .iter()
                    .map(|e| format!("{} -> {}", e.held, e.acquired))
                    .collect::<Vec<_>>()
            )
        });
    assert!(
        edge.chain.iter().any(|frame| frame.contains("with_conn")),
        "the witness chain walks through the callback-invoking wrapper: {:?}",
        edge.chain
    );
}

#[test]
fn rediscovers_read_ahead_store_acquisition_in_callers() {
    let a = live_analysis();
    // `read_ahead` itself acquires `store` directly…
    let ra = a
        .transitive_acquires
        .iter()
        .find(|(f, _)| f.ends_with("read_ahead"))
        .unwrap_or_else(|| panic!("read_ahead analyzed: {:?}", a.transitive_acquires.keys()));
    assert!(
        ra.1.contains_key("store"),
        "read_ahead acquires store: {:?}",
        ra.1.keys()
    );
    // …and both staging-path callers inherit the acquisition. The
    // stage-job worker's own body never mentions the store lock, so
    // its witness chain MUST pass through `read_ahead`; the reactor-job
    // path also reaches the store through its direct reads, so only
    // membership is asserted.
    for caller in ["run_stage_job", "run_reactor_job"] {
        let (name, acquires) = a
            .transitive_acquires
            .iter()
            .find(|(f, _)| f.as_str() == caller || f.ends_with(&format!("::{caller}")))
            .unwrap_or_else(|| panic!("{caller} analyzed"));
        let chain = acquires
            .get("store")
            .unwrap_or_else(|| panic!("{name} transitively acquires store: {:?}", acquires.keys()));
        if caller == "run_stage_job" {
            assert!(
                chain.iter().any(|frame| frame.contains("read_ahead")),
                "{name}'s witness chain passes through read_ahead: {chain:?}"
            );
        }
    }
}

/// The full flagship edge, end to end: the callback-carried
/// `conn -> stats` acquisition is visible to the lock-order lint with
/// an EMPTY documented order — it surfaces as an undocumented-lock
/// finding, proving the lint consumes discovered edges rather than
/// policy annotations.
#[test]
fn empty_lock_order_surfaces_discovered_edges_as_undocumented() {
    let a = live_analysis();
    let policy = Policy::parse("[policy]\nlock_order = []\n").expect("empty policy");
    let findings = xtask::lints::lockorder::check(&a.edges, &policy);
    // `store` is deliberately absent: the live workspace never nests
    // it (the staging path drops it before `staged`/`seg_lens`), so no
    // edge can exist — the edge set above is the complete nesting map.
    for lock in ["conn", "stats", "inner", "objects"] {
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains(&format!("`{lock}`"))),
            "`{lock}` participates in discovered nesting, so an empty order must flag it"
        );
    }
}
