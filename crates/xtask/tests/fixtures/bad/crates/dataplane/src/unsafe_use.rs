//! Fixture: `unsafe` outside the audited list and shims/ — the hygiene
//! fence must flag it. Scanned, never compiled.

pub fn peek(p: *const u8) -> u8 {
    unsafe { *p }
}
