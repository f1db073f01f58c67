//! The rediscovery gate (live workspace): facts that earlier PRs
//! hand-encoded as comments next to `[policy] lock_order` must now
//! fall out of the interprocedural analysis with zero policy hints —
//! `callgraph::analyze` never reads `lock_order` or `[[allow]]`, so
//! everything asserted here is derived purely from the call graph.
//!
//! The fact under test: the MOF store's range read,
//! `MofStore::read_segment_range`, acquires the store's own IndexCache
//! lock `indexes`; the supplier's worker paths (the stage-job worker,
//! the reactor-job path) therefore take `indexes` transitively even
//! though no `lock(&…indexes)` appears in their own bodies. (Edges
//! carried through a callback parameter are covered on a fixture by
//! `callgraph::tests::callback_edge_is_rediscovered`.)

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
fn rediscovers_the_index_cache_acquisition_in_worker_callers() {
    let a = live_analysis();
    let find = |name: &str| {
        a.transitive_acquires
            .iter()
            .find(|(f, _)| f.as_str() == name || f.ends_with(&format!("::{name}")))
            .unwrap_or_else(|| panic!("{name} analyzed: {:?}", a.transitive_acquires.keys()))
    };
    // The store's range read takes its IndexCache lock…
    let (_, read) = find("MofStore::read_segment_range");
    assert!(
        read.contains_key("indexes"),
        "MofStore::read_segment_range acquires indexes: {:?}",
        read.keys()
    );
    // …and both worker-side callers inherit the acquisition. Neither
    // body mentions the lock, so each witness chain MUST pass through
    // the store's range read.
    for caller in ["run_stage_job", "run_reactor_job"] {
        let (name, acquires) = find(caller);
        let chain = acquires.get("indexes").unwrap_or_else(|| {
            panic!(
                "{name} transitively acquires indexes: {:?}",
                acquires.keys()
            )
        });
        assert!(
            chain
                .iter()
                .any(|frame| frame.contains("MofStore::read_segment_range")),
            "{name}'s witness chain passes through MofStore::read_segment_range: {chain:?}"
        );
    }
}

/// The reactor answers memory-tier hits by calling into the hybrid
/// store. The nonblocking lint must resolve that call across the crate
/// boundary — `serve_request` inherits the store's `inner` lock through
/// `read_memory_range` — and find no blocking primitive behind it,
/// while the store's durable read path next to it does reach file I/O.
#[test]
fn reactor_memory_hit_reaches_the_hybrid_lock_and_nothing_blocking() {
    let a = live_analysis();
    let find = |name: &str| {
        a.transitive_acquires
            .iter()
            .find(|(f, _)| f.as_str() == name || f.ends_with(&format!("::{name}")))
            .unwrap_or_else(|| panic!("{name} analyzed: {:?}", a.transitive_acquires.keys()))
    };
    let (_, memory_read) = find("read_memory_range");
    assert!(
        memory_read.contains_key("inner"),
        "read_memory_range acquires inner: {:?}",
        memory_read.keys()
    );
    let (name, serve) = find("serve_request");
    let chain = serve
        .get("inner")
        .unwrap_or_else(|| panic!("{name} transitively acquires inner: {:?}", serve.keys()));
    assert!(
        chain
            .iter()
            .any(|frame| frame.contains("read_memory_range")),
        "{name}'s witness chain passes through read_memory_range: {chain:?}"
    );
    let blocking_from = |name: &str| {
        a.reachable_blocking
            .iter()
            .filter(|r| r.from_fn == name || r.from_fn.ends_with(&format!("::{name}")))
            .map(|r| format!("{} at {}:{}", r.what, r.file.display(), r.line))
            .collect::<Vec<_>>()
    };
    for clean in ["serve_request", "read_memory_range"] {
        let reach = blocking_from(clean);
        assert!(reach.is_empty(), "{clean} reaches blocking I/O: {reach:?}");
    }
    let durable = blocking_from("read_segment_range");
    assert!(
        durable.iter().any(|r| r.starts_with("file read")),
        "read_segment_range's positioned spill reads are seen as file I/O: {durable:?}"
    );
}

/// Discovered nesting, end to end: the hybrid store's `manifest ->
/// counts` acquisition (a crash-plan counter consulted while the
/// manifest writer is held) is visible to the lock-order lint with an
/// EMPTY documented order — it surfaces as an undocumented-lock
/// finding, proving the lint consumes discovered edges rather than
/// policy annotations.
#[test]
fn empty_lock_order_surfaces_discovered_edges_as_undocumented() {
    let a = live_analysis();
    let policy = Policy::parse("[policy]\nlock_order = []\n").expect("empty policy");
    let findings = xtask::lints::lockorder::check(&a.edges, &policy);
    // `indexes` and `stats` are deliberately absent: the live workspace
    // never nests them (the MOF store's IndexCache lock is held only to
    // look up or insert an entry; `stats` is taken only with nothing
    // held), so no edge can exist.
    for lock in ["manifest", "counts"] {
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains(&format!("`{lock}`"))),
            "`{lock}` participates in discovered nesting, so an empty order must flag it"
        );
    }
}
