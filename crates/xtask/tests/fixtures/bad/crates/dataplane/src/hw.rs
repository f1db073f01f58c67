//! Fixture: `unsafe` in a file that only shares its *name* with an
//! audited entry (`crates/checksum/src/hw.rs`) — the list names whole
//! paths, so the hygiene fence must flag this one. Scanned, never
//! compiled.

pub fn peek(p: *const u8) -> u8 {
    unsafe { *p }
}
