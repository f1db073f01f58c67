//! Synchronization layer for the dataplane, swappable to the loom model
//! checker.
//!
//! Every mutex on the dataplane is acquired through [`lock`], which
//! gives the crate two properties at once:
//!
//! * **poison tolerance** — a fetch worker that panicked while holding a
//!   connection must not wedge every later fetch (the data a dataplane
//!   mutex guards is a connection or cache, not an invariant that a
//!   panic can half-update);
//! * **a syntactic anchor** — `cargo xtask analyze`'s lock-order lint
//!   treats each `lock(&path)` call as an acquisition of the lock named
//!   by `path`'s last segment and checks the crate-wide acquisition
//!   graph against the documented order in `crates/xtask/allow.toml`.
//!
//! Building with `RUSTFLAGS="--cfg loom"` swaps these types for the
//! vendored loom model checker's (see `shims/loom`), under which the
//! `loom_` tests (dispatch queue, breaker, staging, iosched, reactor
//! completions) explore every bounded interleaving of the production
//! logic. The loom `Mutex::lock` also returns `std::sync::LockResult`,
//! so this one [`lock`] body serves both builds.

#[cfg(loom)]
pub(crate) use loom::sync::{Condvar, Mutex, MutexGuard};

#[cfg(not(loom))]
pub(crate) use std::sync::{Condvar, Mutex, MutexGuard};

/// Lock a mutex, tolerating poison.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Wait on `cv` until woken, tolerating poison. The guard is released
/// for the duration of the wait and reacquired on wake — the same
/// contract as `std::sync::Condvar::wait`, which `cargo xtask analyze`
/// recognizes when judging blocking-under-lock.
pub(crate) fn wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(|e| e.into_inner())
}
