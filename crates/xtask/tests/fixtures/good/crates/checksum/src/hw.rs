//! Fixture: `unsafe` in a file on the audited list
//! (`crates/checksum/src/hw.rs`) — the hygiene fence must stay silent.
//! Scanned, never compiled.

#![allow(unsafe_code)]

pub fn peek(p: *const u8) -> u8 {
    // SAFETY: fixture only.
    unsafe { *p }
}
