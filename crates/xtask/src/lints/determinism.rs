//! Determinism lint for the simulated-time crates.
//!
//! The DES engine, the simulator drivers in `mapred/sim`, and the JBS
//! engine models in `core` must be bit-reproducible from a seed: the
//! paper-claims tests (Figs. 4/5, consolidated fetching) compare exact
//! numbers across runs, and CI replays chaos schedules by seed. Wall
//! clocks, real sleeps, and OS entropy all break that, so inside those
//! crates they are denied outside `#[cfg(test)]`:
//!
//! * `Instant::now` / `SystemTime` — simulated time (`SimTime`) only;
//! * `thread::sleep` — time advances via the event queue, never the OS;
//! * `thread_rng` / `from_entropy` / `rand::random` — all randomness
//!   flows through seeded `DetRng` streams.
//!
//! (`crates/transport` is real-time by design and is *not* in scope.)

use super::Finding;
use crate::lexer::ScannedFile;
use std::path::Path;

/// Substring patterns denied in simulated-time code.
const DENIED: &[(&str, &str)] = &[
    (
        "Instant::now",
        "wall-clock reads break replay; use simulated time (`SimTime`)",
    ),
    (
        "SystemTime",
        "wall-clock reads break replay; use simulated time (`SimTime`)",
    ),
    (
        "thread::sleep",
        "real sleeps break replay; advance time via the event queue",
    ),
    (
        "thread_rng",
        "OS entropy breaks replay; use a seeded `DetRng` stream",
    ),
    (
        "from_entropy",
        "OS entropy breaks replay; use a seeded `DetRng` stream",
    ),
    (
        "rand::random",
        "OS entropy breaks replay; use a seeded `DetRng` stream",
    ),
];

/// Run the determinism lint over one scanned file.
pub fn check(path: &Path, scanned: &ScannedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    for line in &scanned.lines {
        if line.in_test {
            continue;
        }
        for (pat, why) in DENIED {
            if line.code.contains(pat) {
                findings.push(Finding {
                    lint: "determinism",
                    file: path.to_path_buf(),
                    line: line.number,
                    message: format!("`{pat}`: {why} — `{}`", line.raw.trim()),
                    code: line.code.clone(),
                    chain: Vec::new(),
                });
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;
    use std::path::PathBuf;

    #[test]
    fn flags_wall_clock_and_entropy() {
        let src = "fn f() { let t = Instant::now(); thread::sleep(d); let r = thread_rng(); }";
        let f = check(&PathBuf::from("x.rs"), &scan(src));
        assert_eq!(f.len(), 3, "{f:?}");
    }

    #[test]
    fn seeded_rng_and_test_code_pass() {
        let src = "fn f() { let r = DetRng::new(7); }\n#[cfg(test)]\nmod t { fn g() { let t = Instant::now(); } }\n";
        let f = check(&PathBuf::from("x.rs"), &scan(src));
        assert!(f.is_empty(), "{f:?}");
    }
}
