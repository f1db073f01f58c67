//! CLI entry point:
//! `cargo xtask analyze [--root PATH] [-v]`.

use std::path::PathBuf;
use std::process::ExitCode;
use xtask::policy::Policy;
use xtask::{analyze, Config};

const USAGE: &str = "usage: cargo xtask analyze [--root PATH] [-v]";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if cmd != "analyze" {
        eprintln!("unknown subcommand `{cmd}`; available: analyze");
        return ExitCode::FAILURE;
    }
    let mut root: Option<PathBuf> = None;
    let mut verbose = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "-v" | "--verbose" => verbose = true,
            other => {
                eprintln!("unknown flag `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    // Under `cargo xtask`, the working directory is already the
    // workspace root; fall back to the manifest's grandparent when the
    // binary is run directly from target/.
    let root = root.unwrap_or_else(|| {
        let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        if cwd.join("Cargo.toml").is_file() && cwd.join("crates").is_dir() {
            cwd
        } else {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .canonicalize()
                .unwrap_or(cwd)
        }
    });

    let policy_path = root.join("crates/xtask/allow.toml");
    let policy = match Policy::load(&policy_path) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("xtask: {e}");
            return ExitCode::FAILURE;
        }
    };
    let config = match Config::for_workspace(&root, &policy) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("xtask: cannot discover workspace members: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = match analyze(&config, &policy) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask: analysis failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if verbose {
        for f in xtask::lints::hygiene::UNSAFE_ALLOWED {
            println!("unsafe-allowed  {f}");
        }
        for f in &report.allowed {
            println!("allowed  {f}");
        }
    }
    for f in &report.findings {
        println!("{f}");
    }
    for a in &report.stale_allows {
        println!(
            "[stale-allow] allow.toml:{}: entry (lint={}, file={}, contains=\"{}\") matched nothing; remove it",
            a.defined_at, a.lint, a.file, a.contains
        );
    }
    if report.clean() {
        println!(
            "xtask analyze: clean ({} audited exemption{}, `unsafe` allowed in {} files)",
            report.allowed.len(),
            if report.allowed.len() == 1 { "" } else { "s" },
            xtask::lints::hygiene::UNSAFE_ALLOWED.len(),
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "xtask analyze: {} violation{} ({} stale allowlist entr{})",
            report.findings.len(),
            if report.findings.len() == 1 { "" } else { "s" },
            report.stale_allows.len(),
            if report.stale_allows.len() == 1 {
                "y"
            } else {
                "ies"
            },
        );
        ExitCode::FAILURE
    }
}
