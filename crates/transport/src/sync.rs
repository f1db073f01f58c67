//! Synchronization layer for the dataplane, swappable to the loom model
//! checker.
//!
//! Every mutex on the dataplane is acquired through [`lock`], which
//! gives the crate two properties at once:
//!
//! * **poison tolerance** — a thread that panicked while holding a
//!   dataplane lock must not wedge every later fetch (the data a
//!   dataplane mutex guards is a queue or cache, not an invariant that
//!   a panic can half-update);
//! * **a syntactic anchor** — `cargo xtask analyze`'s lock-order lint
//!   treats each `lock(&path)` call as an acquisition of the lock named
//!   by `path`'s last segment and checks the crate-wide acquisition
//!   graph against the documented order in `crates/xtask/allow.toml`.
//!
//! Building with `RUSTFLAGS="--cfg loom"` swaps these types for the
//! vendored loom model checker's (see `shims/loom`), under which the
//! `loom_` tests (the mailbox under the client's submissions and the
//! reactor's completions, staging, iosched) explore every bounded
//! interleaving of the production logic. The loom `Mutex::lock` also returns `std::sync::LockResult`,
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

/// A closable many-producer mailbox drained by one event loop: the
/// client's submissions and the supplier's disk-worker completions.
/// Producers [`Mailbox::push`]; the loop takes everything queued at once
/// with [`Mailbox::drain`], in push order. [`Mailbox::close`] drains and
/// refuses every later push, handing the item back to its producer, so
/// an item is taken by the loop, drained by the closer, or refused —
/// exactly one of the three, never lost.
pub(crate) struct Mailbox<T> {
    slots: Mutex<Slots<T>>,
}

struct Slots<T> {
    items: Vec<T>,
    closed: bool,
}

impl<T> Mailbox<T> {
    pub(crate) fn new() -> Self {
        Mailbox {
            slots: Mutex::new(Slots {
                items: Vec::new(),
                closed: false,
            }),
        }
    }

    /// Queue `item`, or hand it back if the mailbox is closed. `Ok(true)`
    /// if the mailbox was empty: a loop that takes its mail after taking
    /// its wake-ups needs one wake-up per `Ok(true)`, not one per item.
    pub(crate) fn push(&self, item: T) -> Result<bool, T> {
        let mut slots = lock(&self.slots);
        if slots.closed {
            return Err(item);
        }
        slots.items.push(item);
        Ok(slots.items.len() == 1)
    }

    /// Take everything currently queued, oldest first.
    pub(crate) fn drain(&self) -> Vec<T> {
        std::mem::take(&mut lock(&self.slots).items)
    }

    /// Drain, and refuse all future pushes.
    pub(crate) fn close(&self) -> Vec<T> {
        let mut slots = lock(&self.slots);
        slots.closed = true;
        std::mem::take(&mut slots.items)
    }

    /// Has [`Mailbox::close`] run?
    pub(crate) fn is_closed(&self) -> bool {
        lock(&self.slots).closed
    }
}
