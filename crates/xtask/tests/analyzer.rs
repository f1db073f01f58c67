//! End-to-end analyzer tests: each lint family fires on the seeded
//! fixture violations under `tests/fixtures/bad/`, stays silent on the
//! fixed counterparts under `tests/fixtures/good/`, and — the
//! regression that matters — the live workspace analyzes clean under
//! its committed policy.

use std::path::{Path, PathBuf};
use xtask::policy::Policy;
use xtask::{analyze, Config, Report};

fn fixture_root(which: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(which)
}

fn fixture_config(root: &Path) -> Config {
    Config {
        root: root.to_path_buf(),
        panic_dirs: vec!["crates/dataplane/src".into()],
        determinism_dirs: vec!["crates/sim/src".into()],
        analysis_dirs: vec!["crates/dataplane/src".into()],
        print_dirs: vec!["crates/dataplane/src".into()],
    }
}

fn fixture_policy(allows: &str) -> Policy {
    let text = format!(
        "[policy]\nlock_order = [\"alpha\", \"beta\", \"delta\", \"epsilon\"]\n\
         primitive_files = [\"crates/dataplane/src/sync.rs\"]\n\
         durability_files = [\"crates/dataplane/src/durable.rs\"]\n{allows}"
    );
    Policy::parse(&text).expect("fixture policy parses")
}

fn run(which: &str, policy: &Policy) -> Report {
    let root = fixture_root(which);
    analyze(&fixture_config(&root), policy).expect("analysis runs")
}

fn count(report: &Report, lint: &str, needle: &str) -> usize {
    report
        .findings
        .iter()
        .filter(|f| f.lint == lint && format!("{f}").contains(needle))
        .count()
}

#[test]
fn bad_fixture_trips_every_panic_pattern() {
    let r = run("bad", &fixture_policy(""));
    for needle in [".unwrap()", ".expect(", "panic!", "unreachable!"] {
        assert_eq!(
            count(&r, "panic", needle),
            1,
            "exactly one seeded `{needle}` violation"
        );
    }
    assert_eq!(
        count(&r, "panic", "indexing"),
        2,
        "one index + one slice violation"
    );
    // The in-test unwrap and the string-literal mention must NOT fire:
    // all panic findings live in panics.rs outside its test module.
    assert!(r
        .findings
        .iter()
        .filter(|f| f.lint == "panic")
        .all(|f| f.file.ends_with("panics.rs")));
}

#[test]
fn bad_fixture_trips_determinism() {
    let r = run("bad", &fixture_policy(""));
    for needle in [
        "Instant::now",
        "SystemTime",
        "thread::sleep",
        "rand::random",
    ] {
        assert_eq!(
            count(&r, "determinism", needle),
            1,
            "exactly one seeded `{needle}` violation"
        );
    }
    assert!(r
        .findings
        .iter()
        .filter(|f| f.lint == "determinism")
        .all(|f| f.file.ends_with("clock.rs")));
}

#[test]
fn bad_fixture_trips_every_print_macro_exactly_once() {
    let r = run("bad", &fixture_policy(""));
    for needle in [
        "`println!`",
        "`eprintln!`",
        "`print!`",
        "`eprint!`",
        "`dbg!`",
    ] {
        assert_eq!(
            count(&r, "print", needle),
            1,
            "exactly one seeded `{needle}` violation"
        );
    }
    // The in-test println and the string-literal mention must NOT fire,
    // and no print finding may leak out of the seeded file.
    assert!(r
        .findings
        .iter()
        .filter(|f| f.lint == "print")
        .all(|f| f.file.ends_with("prints.rs")));
    // The print fixture must not muddy the panic family's counts.
    assert!(r
        .findings
        .iter()
        .filter(|f| f.lint == "panic")
        .all(|f| !f.file.ends_with("prints.rs")));
}

#[test]
fn bad_fixture_trips_lockorder_cycle_order_and_undocumented() {
    let r = run("bad", &fixture_policy(""));
    assert_eq!(count(&r, "lock-order", "cycle"), 1, "ABBA cycle reported");
    assert!(
        count(&r, "lock-order", "contrary to the documented order") >= 1,
        "reverse acquisition reported"
    );
    assert_eq!(
        count(&r, "lock-order", "`gamma`"),
        1,
        "undocumented lock reported"
    );
}

#[test]
fn bad_fixture_trips_cross_function_lock_order() {
    let r = run("bad", &fixture_policy(""));
    let cross: Vec<_> = r
        .findings
        .iter()
        .filter(|f| {
            f.lint == "lock-order"
                && f.message.contains("`delta`")
                && f.message.contains("contrary to the documented order")
        })
        .collect();
    assert_eq!(
        cross.len(),
        1,
        "epsilon -> delta inversion crosses drain -> refill: {:#?}",
        r.findings
            .iter()
            .map(|f| format!("{f}"))
            .collect::<Vec<_>>()
    );
    assert!(
        cross[0].chain.iter().any(|fr| fr.contains("C::drain")),
        "the finding names the caller that held `epsilon`: {:?}",
        cross[0].chain
    );
}

#[test]
fn bad_fixture_trips_blocking_under_lock() {
    let r = run("bad", &fixture_policy(""));
    assert_eq!(count(&r, "blocking", "thread sleep"), 1);
    assert_eq!(count(&r, "blocking", "stream write"), 1);
    let transitive: Vec<_> = r
        .findings
        .iter()
        .filter(|f| f.lint == "blocking" && f.message.contains("file write"))
        .collect();
    assert_eq!(
        transitive.len(),
        1,
        "fs::write reached through persist -> flush_to_disk: {:#?}",
        r.findings
            .iter()
            .map(|f| format!("{f}"))
            .collect::<Vec<_>>()
    );
    assert!(
        transitive[0]
            .chain
            .iter()
            .any(|fr| fr.contains("C::persist")),
        "the finding names the lock holder up the call graph: {:?}",
        transitive[0].chain
    );
}

#[test]
fn bad_fixture_trips_durability_rules() {
    let r = run("bad", &fixture_policy(""));
    assert_eq!(
        count(&r, "durability", "publishing `rename`"),
        1,
        "unsynced publish reported once"
    );
    assert_eq!(
        count(&r, "durability", "bare `fs::write`"),
        1,
        "one-shot write reported once"
    );
    let unsynced: Vec<_> = r
        .findings
        .iter()
        .filter(|f| f.lint == "durability" && f.message.contains("no sync anywhere"))
        .collect();
    assert_eq!(unsynced.len(), 1, "sync-free append reported once");
    assert!(
        unsynced[0]
            .chain
            .iter()
            .any(|fr| fr.contains("append_record")),
        "the witness chain names the offending function: {:?}",
        unsynced[0].chain
    );
    assert!(r
        .findings
        .iter()
        .filter(|f| f.lint == "durability")
        .all(|f| f.file.ends_with("durable.rs")));
}

#[test]
fn durability_waiver_is_audited_like_any_other() {
    let allows = r#"
[[allow]]
lint = "durability"
file = "crates/dataplane/src/durable.rs"
contains = "f.write_all(b"
reason = "fixture: the deferred barrier lives in the caller"
"#;
    let r = run("bad", &fixture_policy(allows));
    assert_eq!(count(&r, "durability", "no sync anywhere"), 0, "waived");
    assert_eq!(
        count(&r, "durability", "publishing `rename`"),
        1,
        "other durability findings still fire"
    );
    assert!(r.stale_allows.is_empty());
}

#[test]
fn bad_fixture_trips_guard_balance() {
    let r = run("bad", &fixture_policy(""));
    assert_eq!(count(&r, "guard-balance", "`let _ =`"), 1);
    assert_eq!(count(&r, "guard-balance", "mem::forget"), 1);
    assert_eq!(count(&r, "guard-balance", "G::smuggle"), 1);
    assert!(r
        .findings
        .iter()
        .filter(|f| f.lint == "guard-balance")
        .all(|f| f.file.ends_with("guards.rs")));
}

#[test]
fn bad_fixture_trips_hygiene() {
    let r = run("bad", &fixture_policy(""));
    assert_eq!(
        count(&r, "hygiene", "unsafe"),
        3,
        "fence (a plain file + one named like an audited entry) + root manifest"
    );
    assert_eq!(
        count(&r, "hygiene", "dataplane/src/hw.rs"),
        1,
        "the audited list names paths, not file names"
    );
    assert_eq!(
        count(&r, "hygiene", "dataplane/Cargo.toml"),
        1,
        "missing [lints] opt-in flagged on exactly the one bad manifest"
    );
}

#[test]
fn good_fixture_is_clean() {
    let r = run("good", &fixture_policy(""));
    assert!(
        r.findings.is_empty(),
        "fixed fixtures must produce no findings, got: {:#?}",
        r.findings
            .iter()
            .map(|f| format!("{f}"))
            .collect::<Vec<_>>()
    );
    assert!(r.clean());
}

#[test]
fn allow_entry_suppresses_exactly_its_finding() {
    let allows = r#"
[[allow]]
lint = "panic"
file = "crates/dataplane/src/panics.rs"
contains = "v.unwrap()"
reason = "fixture: exercised by analyzer tests"
"#;
    let policy = fixture_policy(allows);
    let r = run("bad", &policy);
    assert_eq!(count(&r, "panic", ".unwrap()"), 0, "suppressed");
    assert_eq!(count(&r, "panic", ".expect("), 1, "others still fire");
    assert_eq!(r.allowed.len(), 1);
    assert!(r.stale_allows.is_empty());
}

#[test]
fn stale_allow_entry_is_fatal() {
    let allows = r#"
[[allow]]
lint = "panic"
file = "crates/dataplane/src/panics.rs"
contains = "no_such_line_anywhere"
reason = "fixture: intentionally stale"
"#;
    let policy = fixture_policy(allows);
    let r = run("bad", &policy);
    assert_eq!(r.stale_allows.len(), 1);
    assert!(!r.clean(), "stale allowlist entries must fail the build");
    // And on the otherwise-clean fixture too.
    let r = run("good", &policy);
    assert!(r.findings.is_empty());
    assert_eq!(r.stale_allows.len(), 1);
    assert!(!r.clean());
}

#[test]
fn allow_entry_without_reason_is_rejected() {
    let text = "[policy]\nlock_order = []\n\n[[allow]]\nlint = \"panic\"\nfile = \"x.rs\"\ncontains = \"y\"\n";
    let err = Policy::parse(text);
    assert!(err.is_err(), "entries must carry a justification");
}

/// The regression gate: the live workspace, under its committed
/// `allow.toml`, analyzes clean. If this fails, either fix the code or
/// add an audited allowlist entry — the same contract CI enforces via
/// `cargo xtask analyze`.
#[test]
fn live_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .expect("workspace root");
    let policy = Policy::load(&root.join("crates/xtask/allow.toml")).expect("policy loads");
    let config = Config::for_workspace(&root, &policy).expect("workspace members discovered");
    let r = analyze(&config, &policy).expect("analysis runs");
    assert!(
        r.findings.is_empty() && r.stale_allows.is_empty(),
        "live workspace must analyze clean; findings: {:#?}, stale: {:#?}",
        r.findings
            .iter()
            .map(|f| format!("{f}"))
            .collect::<Vec<_>>(),
        r.stale_allows
    );
}
