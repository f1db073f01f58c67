//! The lint families of `cargo xtask analyze`.
//!
//! Every lint produces [`Finding`]s; the driver in `lib.rs` applies the
//! allowlist, reports stale allowlist entries, and turns any surviving
//! finding into a nonzero exit.

pub mod blocking;
pub mod determinism;
pub mod durability;
pub mod guardbalance;
pub mod hygiene;
pub mod lockorder;
pub mod nonblocking;
pub mod panics;
pub mod print;

use std::fmt;
use std::path::PathBuf;

/// One rule violation at one call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Lint family (`panic`, `lock-order`, `blocking`, `nonblocking`,
    /// `guard-balance`, `determinism`, `durability`, `hygiene`,
    /// `print`).
    pub lint: &'static str,
    /// File the violation is in.
    pub file: PathBuf,
    /// 1-based line (0 for file-level findings).
    pub line: usize,
    /// What was matched and why it is denied.
    pub message: String,
    /// The masked source line, for allowlist matching.
    pub code: String,
    /// Call-chain frames (`Fn (file:line)`) for interprocedural
    /// findings; empty for findings local to one function.
    pub chain: Vec<String>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}:{}: {}",
            self.lint,
            self.file.display(),
            self.line,
            self.message
        )?;
        if !self.chain.is_empty() {
            write!(f, "\n    via {}", self.chain.join("\n     -> "))?;
        }
        Ok(())
    }
}
