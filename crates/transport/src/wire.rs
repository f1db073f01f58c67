//! The JBS fetch wire protocol.
//!
//! A fetch request addresses a byte range of one reducer's segment in one
//! MOF — the unit the NetMerger's transport buffers work in. Responses are
//! length-framed so a connection can carry many request/response exchanges
//! (connections are cached and reused, unlike Hadoop's per-fetch HTTP).
//!
//! ```text
//! v2 request  := MAGIC2 u32 | id u64 | mof u64 | reducer u32 | offset u64 | len u64
//! v3 request  := MAGIC3 u32 | flags u8 | id u64 | mof u64 | reducer u32 | offset u64 | len u64
//! response    := status u8 | id u64 | len u64 | ext | payload[...]
//! ```
//!
//! `len` is a range of 1 to the supplier's transport buffer
//! (`buffer_bytes`, 128 KiB by default): a longer request is served
//! short at that cap, and a range past the segment's end comes back
//! empty. The supplier answers `len == 0` with [`Status::BadRequest`],
//! so no request ever reads an unbounded range.
//!
//! `id` is a client-chosen request identifier echoed verbatim in the
//! response. The server answers requests strictly in arrival order, so
//! ids are not needed for reordering — they exist so a *pipelined*
//! client with several requests in flight on one connection can verify
//! that responses stay in lockstep with its outstanding window; an id
//! mismatch means the stream desynchronized and the connection must be
//! torn down rather than trusted.
//!
//! ## Version 3: integrity and overload extensions
//!
//! A v3 request differs from v2 only in its magic and one `flags` byte
//! ([`FLAG_BYPASS_CACHE`]: the supplier must re-read from disk instead
//! of serving staged DataCache bytes — the targeted re-fetch a client
//! issues after a checksum mismatch, so poisoned cache contents are
//! never re-served). A server answers in the dialect the *request* was
//! framed in, so old and new peers interoperate per-exchange:
//!
//! * [`Status::OkCrc`] (v3 only) — the 17-byte header is followed by a
//!   12-byte extension: `crc32c u32 | seg_len u64`, then the payload.
//!   `crc32c` covers exactly the payload bytes; `seg_len` is the total
//!   length of the addressed segment, which lets the client end a
//!   chunked segment fetch there without an end-of-segment request,
//!   account for expected bytes, and turn a truncation landing exactly
//!   on a chunk boundary (indistinguishable from clean EOF in v2) into
//!   a typed error.
//! * [`Status::Busy`] (v3 only) — admission control: the supplier is
//!   shedding load. No payload; the header's `len` field carries a
//!   retry-after hint in milliseconds instead of a payload length.
//!
//! The dialect is the client's configuration, not a negotiation: a
//! client with `ClientConfig::checksum` set frames every request in v3,
//! one without it frames every request in v2, and no failure switches
//! a client from one to the other.

use bytes::Buf;
use std::io::{self, IoSlice, Read, Write};

/// Protocol magic ("JBS2" — v2 added pipelined request ids).
pub const REQUEST_MAGIC: u32 = 0x4A42_5332;

/// Protocol magic ("JBS3" — v3 added checksums, busy frames, flags).
pub const REQUEST_MAGIC_V3: u32 = 0x4A42_5333;

/// Size of an encoded v2 request.
pub const REQUEST_LEN: usize = 4 + 8 + 8 + 4 + 8 + 8;

/// Size of an encoded v3 request (v2 plus the flags byte).
pub const REQUEST_LEN_V3: usize = REQUEST_LEN + 1;

/// Size of an encoded response header (status, id, payload length).
pub const RESPONSE_HEADER_LEN: usize = 1 + 8 + 8;

/// Size of the v3 integrity extension following an [`Status::OkCrc`]
/// header: payload CRC32C (u32) + total segment length (u64).
pub const CRC_EXT_LEN: usize = 4 + 8;

/// Request flag (v3): bypass the supplier's staged DataCache and re-read
/// the range from disk. Set on the targeted re-fetch after a checksum
/// mismatch so poisoned cache bytes are not served twice.
pub const FLAG_BYPASS_CACHE: u8 = 1;

/// Upper bound on a response payload. A length header above this is
/// treated as frame corruption rather than an allocation request —
/// without it, a single flipped header bit would make the client try
/// to allocate (and then block reading) up to 2^64 bytes.
pub const MAX_PAYLOAD: usize = 64 << 20;

/// Which request dialect a peer spoke. The server echoes the dialect of
/// each request; the client tracks one per peer (see `client.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireVersion {
    /// "JBS2": no checksum, no flags, no busy frames.
    V2,
    /// "JBS3": flags byte, `OkCrc` integrity frames, `Busy` frames.
    V3,
}

/// Response status codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Payload follows.
    Ok = 0,
    /// Unknown MOF or reducer.
    NotFound = 1,
    /// Malformed request.
    BadRequest = 2,
    /// Payload follows, preceded by the v3 integrity extension
    /// (`crc32c u32 | seg_len u64`).
    OkCrc = 3,
    /// Supplier is shedding load; retry after the hinted delay. The
    /// header's `len` field carries the hint in milliseconds.
    Busy = 4,
}

impl Status {
    /// Strict decode: an unknown byte is corruption, not a status. (A
    /// corrupted status byte must not masquerade as a legitimate
    /// `BadRequest` verdict from the server — that would turn a
    /// retryable frame error into a permanent one.)
    fn from_u8(v: u8) -> Option<Status> {
        match v {
            0 => Some(Status::Ok),
            1 => Some(Status::NotFound),
            2 => Some(Status::BadRequest),
            3 => Some(Status::OkCrc),
            4 => Some(Status::Busy),
            _ => None,
        }
    }
}

/// One fetch request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchRequest {
    /// Client-chosen id, echoed in the response.
    pub id: u64,
    /// MOF id.
    pub mof: u64,
    /// Reducer (partition) number.
    pub reducer: u32,
    /// Segment-relative byte offset.
    pub offset: u64,
    /// Bytes requested: 1 to the supplier's transport buffer, which
    /// caps a longer request; 0 is answered with [`Status::BadRequest`].
    pub len: u64,
    /// v3 request flags ([`FLAG_BYPASS_CACHE`]); dropped on the v2
    /// frame, which has no flags byte.
    pub flags: u8,
}

impl FetchRequest {
    /// Does this request carry the cache-bypass flag?
    pub fn bypass_cache(&self) -> bool {
        self.flags & FLAG_BYPASS_CACHE != 0
    }

    /// Encode to the legacy v2 wire format (flags are dropped).
    pub fn encode(&self) -> [u8; REQUEST_LEN] {
        let mut out = [0u8; REQUEST_LEN];
        let mut put = Put::new(&mut out);
        put.u32(REQUEST_MAGIC);
        self.put_fields(&mut put);
        out
    }

    /// Encode to the v3 wire format (magic + flags byte).
    pub fn encode_v3(&self) -> [u8; REQUEST_LEN_V3] {
        let mut out = [0u8; REQUEST_LEN_V3];
        let mut put = Put::new(&mut out);
        put.u32(REQUEST_MAGIC_V3);
        put.u8(self.flags);
        self.put_fields(&mut put);
        out
    }

    /// The fields both dialects share, in wire order after the magic
    /// (and, in v3, the flags byte).
    fn put_fields(&self, put: &mut Put<'_>) {
        put.u64(self.id);
        put.u64(self.mof);
        put.u32(self.reducer);
        put.u64(self.offset);
        put.u64(self.len);
    }

    /// Decode either request dialect, reporting which one was spoken.
    pub fn decode(mut buf: &[u8]) -> io::Result<(Self, WireVersion)> {
        if buf.len() < 4 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "short request",
            ));
        }
        let magic = buf.get_u32();
        let (version, need) = match magic {
            REQUEST_MAGIC => (WireVersion::V2, REQUEST_LEN - 4),
            REQUEST_MAGIC_V3 => (WireVersion::V3, REQUEST_LEN_V3 - 4),
            _ => return Err(io::Error::new(io::ErrorKind::InvalidData, "bad magic")),
        };
        if buf.len() < need {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "short request",
            ));
        }
        let flags = match version {
            WireVersion::V2 => 0,
            WireVersion::V3 => buf.get_u8(),
        };
        Ok((
            FetchRequest {
                id: buf.get_u64(),
                mof: buf.get_u64(),
                reducer: buf.get_u32(),
                offset: buf.get_u64(),
                len: buf.get_u64(),
                flags,
            },
            version,
        ))
    }

    /// Write this request as a v2 frame.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&self.encode())
    }

    /// Write this request in the given dialect.
    pub fn write_versioned<W: Write>(&self, w: &mut W, version: WireVersion) -> io::Result<()> {
        match version {
            WireVersion::V2 => w.write_all(&self.encode()),
            WireVersion::V3 => w.write_all(&self.encode_v3()),
        }
    }

    /// Read one request (either dialect) from a stream. Returns
    /// `Ok(None)` on clean EOF before any byte (the peer closed a
    /// reused connection).
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Option<(Self, WireVersion)>> {
        let mut buf = [0u8; REQUEST_LEN_V3];
        // The magic tells us how much more to read.
        if !fill(r, buf.get_mut(..4).unwrap_or_default(), true)? {
            return Ok(None);
        }
        let magic = buf
            .get(..4)
            .and_then(|b| b.try_into().ok())
            .map(u32::from_be_bytes)
            .unwrap_or(0);
        let total = match magic {
            REQUEST_MAGIC => REQUEST_LEN,
            REQUEST_MAGIC_V3 => REQUEST_LEN_V3,
            _ => return Err(io::Error::new(io::ErrorKind::InvalidData, "bad magic")),
        };
        fill(r, buf.get_mut(4..total).unwrap_or_default(), false)?;
        Self::decode(buf.get(..total).unwrap_or_default()).map(Some)
    }
}

/// A big-endian writer over a fixed array: each field lands in place,
/// with no intermediate buffer. The arrays are sized for exactly the
/// fields put into them, so a put never runs out of room.
struct Put<'a> {
    out: &'a mut [u8],
    used: usize,
}

impl<'a> Put<'a> {
    fn new(out: &'a mut [u8]) -> Self {
        Put { out, used: 0 }
    }

    fn bytes(&mut self, field: &[u8]) {
        if let Some(dst) = self.out.get_mut(self.used..self.used + field.len()) {
            dst.copy_from_slice(field);
            self.used += field.len();
        }
    }

    fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_be_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_be_bytes());
    }
}

/// Read exactly `buf.len()` bytes, looping on `Interrupted`. Returns
/// `Ok(false)` on clean EOF before any byte iff `eof_ok`; mid-buffer
/// EOF is always `UnexpectedEof`.
fn fill<R: Read>(r: &mut R, buf: &mut [u8], eof_ok: bool) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(buf.get_mut(filled..).unwrap_or_default()) {
            Ok(0) if filled == 0 && eof_ok => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "truncated request",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// One fetch response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchResponse {
    /// Outcome.
    pub status: Status,
    /// Echo of the request's id.
    pub id: u64,
    /// Segment bytes (empty unless `status` is `Ok`/`OkCrc`).
    pub payload: Vec<u8>,
    /// CRC32C over `payload`; meaningful iff `status == OkCrc`.
    pub crc: u32,
    /// Total length of the addressed segment; meaningful iff
    /// `status == OkCrc`. Lets the client account expected bytes and
    /// detect truncation that lands exactly on a chunk boundary.
    pub seg_len: u64,
    /// Retry-after hint in milliseconds; meaningful iff
    /// `status == Busy`.
    pub retry_after_ms: u64,
}

/// Encode a response head from its parts, without a [`FetchResponse`]
/// in hand: status, request id, the header's `len` field (payload
/// length, or the retry-after hint for `Busy`), and for `OkCrc` the
/// integrity extension `(crc32c, seg_len)`. The reactor uses this to
/// frame payloads that stay resident in the DataCache slab — there is
/// no owned payload `Vec` to hang a `FetchResponse` on.
pub(crate) fn encode_head_parts(
    status: Status,
    id: u64,
    len_field: u64,
    crc_seg: Option<(u32, u64)>,
) -> ([u8; RESPONSE_HEADER_LEN + CRC_EXT_LEN], usize) {
    let mut out = [0u8; RESPONSE_HEADER_LEN + CRC_EXT_LEN];
    let mut put = Put::new(&mut out);
    put.u8(status as u8);
    put.u64(id);
    put.u64(len_field);
    if let Some((crc, seg_len)) = crc_seg {
        put.u32(crc);
        put.u64(seg_len);
    }
    let used = put.used;
    (out, used)
}

/// How much segment-buffer growth a peer's declaration may buy before
/// any of it is backed by verified bytes (see [`reserve_tail`]).
pub(crate) const RESERVE_STEP: usize = 4 << 20;

/// Make room at the end of `buf` for a payload of `incoming` bytes that
/// the peer says is the start of `declared` more.
///
/// `declared` comes off the wire (`seg_len`, or a payload length), so it
/// is a hint and never an allocation request: it is honoured up to the
/// larger of [`RESERVE_STEP`] and what `buf` already holds — bytes that
/// did arrive and verify. An honest segment is reserved once, or grows
/// geometrically if it is large; a peer declaring `u64::MAX` costs one
/// step. When that is less than `incoming`, reading grows `buf` as
/// bytes really arrive.
pub(crate) fn reserve_tail(buf: &mut Vec<u8>, incoming: usize, declared: u64) {
    if buf.capacity() - buf.len() >= incoming {
        return;
    }
    let trusted = RESERVE_STEP.max(buf.len());
    buf.reserve(usize::try_from(declared).unwrap_or(usize::MAX).min(trusted));
}

/// The length of the response frame at the start of `buf` — header,
/// v3 extension and payload — if every byte of it is there. `None`
/// while any of it has yet to arrive, and for a head that
/// `ResponseHead::read_from` would reject (that reader reports it). A
/// reader holding buffered bytes asks this whether it can take the
/// next frame without blocking.
pub fn response_frame_len(buf: &[u8]) -> Option<usize> {
    let mut hdr = buf.get(..RESPONSE_HEADER_LEN)?;
    let status = Status::from_u8(hdr.get_u8())?;
    let _id = hdr.get_u64();
    let len = hdr.get_u64();
    if len > MAX_PAYLOAD as u64 {
        return None;
    }
    let body = match status {
        Status::Busy => 0,
        Status::OkCrc => CRC_EXT_LEN + len as usize,
        Status::Ok | Status::NotFound | Status::BadRequest => len as usize,
    };
    let total = RESPONSE_HEADER_LEN + body;
    (buf.len() >= total).then_some(total)
}

/// Everything of a response frame that precedes its payload: the
/// 17-byte header and, for [`Status::OkCrc`], the integrity extension.
/// Decoding it first tells the reader which request the frame answers
/// and how long the payload is *before* any payload byte is read, so
/// the payload can land in the buffer it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ResponseHead {
    pub(crate) status: Status,
    /// Echo of the request's id.
    pub(crate) id: u64,
    /// Payload bytes that follow (0 for `Busy`, whose `len` field is
    /// the retry hint).
    pub(crate) len: usize,
    /// CRC32C over the payload; meaningful iff `status == OkCrc`.
    pub(crate) crc: u32,
    /// Total length of the addressed segment; meaningful iff
    /// `status == OkCrc`.
    pub(crate) seg_len: u64,
    /// Retry-after hint in milliseconds; meaningful iff
    /// `status == Busy`.
    pub(crate) retry_after_ms: u64,
}

impl ResponseHead {
    /// Decode one head from a stream. Never panics: an unknown status
    /// byte or an implausible payload length is reported as
    /// `InvalidData` (frame corruption).
    pub(crate) fn read_from<R: Read>(r: &mut R) -> io::Result<Self> {
        let mut hdr = [0u8; RESPONSE_HEADER_LEN];
        r.read_exact(&mut hdr)?;
        let mut buf = hdr.as_slice();
        let status_byte = buf.get_u8();
        let status = Status::from_u8(status_byte).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("invalid status byte {status_byte:#04x}"),
            )
        })?;
        let id = buf.get_u64();
        let len = buf.get_u64();
        if len > MAX_PAYLOAD as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("payload length {len} exceeds cap {MAX_PAYLOAD}"),
            ));
        }
        let mut head = ResponseHead {
            status,
            id,
            len: len as usize,
            crc: 0,
            seg_len: 0,
            retry_after_ms: 0,
        };
        match status {
            Status::Busy => {
                head.len = 0;
                head.retry_after_ms = len;
            }
            Status::OkCrc => {
                let mut ext = [0u8; CRC_EXT_LEN];
                r.read_exact(&mut ext)?;
                let mut ebuf = ext.as_slice();
                head.crc = ebuf.get_u32();
                head.seg_len = ebuf.get_u64();
            }
            Status::Ok | Status::NotFound | Status::BadRequest => {}
        }
        Ok(head)
    }

    /// Bytes of the segment the peer declares from `offset` (where this
    /// frame's payload starts) to the segment's end. A v2 frame
    /// declares nothing beyond its own payload.
    pub(crate) fn declared_remaining(&self, offset: u64) -> u64 {
        match self.status {
            Status::OkCrc => self.seg_len.saturating_sub(offset),
            _ => self.len as u64,
        }
    }

    /// Does `payload` match the carried checksum? Always true for
    /// non-`OkCrc` frames (v2 carries nothing to verify).
    pub(crate) fn crc_ok(&self, payload: &[u8]) -> bool {
        self.status != Status::OkCrc || jbs_checksum::crc32c(payload) == self.crc
    }

    /// Read this frame's payload onto the end of `buf`: straight into
    /// its spare capacity, with no intermediate buffer and no zero-fill.
    /// On error `buf` may hold a partial payload past its old length.
    fn read_payload<R: Read>(&self, r: &mut R, buf: &mut Vec<u8>) -> io::Result<()> {
        let got = r.by_ref().take(self.len as u64).read_to_end(buf)?;
        if got < self.len {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated response payload",
            ));
        }
        Ok(())
    }

    /// Read this frame's payload onto the end of `buf` and verify it
    /// where it lies. `Ok(true)`: `buf` grew by exactly `self.len`
    /// bytes, all of them verified (or unverifiable: v2). `Ok(false)`:
    /// the payload failed its CRC32C. `Err`: the stream failed
    /// mid-payload. In both failure cases `buf` is cut back to the
    /// length it came in with, so bytes that did not verify are never
    /// in it once this returns.
    pub(crate) fn read_verified<R: Read>(&self, r: &mut R, buf: &mut Vec<u8>) -> io::Result<bool> {
        let start = buf.len();
        let verified = self
            .read_payload(r, buf)
            .map(|()| self.crc_ok(buf.get(start..).unwrap_or_default()));
        if !matches!(verified, Ok(true)) {
            buf.truncate(start);
        }
        verified
    }
}

impl FetchResponse {
    /// A successful v2 response to request `id` (no checksum).
    pub fn ok(id: u64, payload: Vec<u8>) -> Self {
        FetchResponse {
            status: Status::Ok,
            id,
            payload,
            crc: 0,
            seg_len: 0,
            retry_after_ms: 0,
        }
    }

    /// A successful v3 response: payload checksummed at the supplier,
    /// total segment length carried for expected-byte accounting.
    pub fn ok_crc(id: u64, payload: Vec<u8>, seg_len: u64) -> Self {
        let crc = jbs_checksum::crc32c(&payload);
        FetchResponse {
            status: Status::OkCrc,
            id,
            payload,
            crc,
            seg_len,
            retry_after_ms: 0,
        }
    }

    /// An overload response: no payload, retry after `retry_after_ms`.
    pub fn busy(id: u64, retry_after_ms: u64) -> Self {
        FetchResponse {
            status: Status::Busy,
            id,
            payload: Vec::new(),
            crc: 0,
            seg_len: 0,
            // The hint travels in the header's len field, which the
            // reader bounds at MAX_PAYLOAD; clamp so a large hint is
            // never mistaken for corruption.
            retry_after_ms: retry_after_ms.min(60_000),
        }
    }

    /// An error response to request `id`.
    pub fn error(id: u64, status: Status) -> Self {
        FetchResponse {
            status,
            id,
            payload: Vec::new(),
            crc: 0,
            seg_len: 0,
            retry_after_ms: 0,
        }
    }

    /// Does the payload match the carried checksum? Always true for
    /// non-`OkCrc` frames (v2 carries nothing to verify).
    pub fn crc_ok(&self) -> bool {
        self.status != Status::OkCrc || jbs_checksum::crc32c(&self.payload) == self.crc
    }

    /// Header plus (for `OkCrc`) the integrity extension: everything
    /// that precedes the payload on the wire.
    fn encode_head(&self) -> ([u8; RESPONSE_HEADER_LEN + CRC_EXT_LEN], usize) {
        let len_field = if self.status == Status::Busy {
            self.retry_after_ms
        } else {
            self.payload.len() as u64
        };
        let crc_seg = (self.status == Status::OkCrc).then_some((self.crc, self.seg_len));
        encode_head_parts(self.status, self.id, len_field, crc_seg)
    }

    /// Write the frame to a stream.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let (head, used) = self.encode_head();
        w.write_all(head.get(..used).unwrap_or_default())?;
        w.write_all(&self.payload)
    }

    /// Write head + payload in one vectored syscall where the sink
    /// supports it, avoiding the copy of payload bytes into a combined
    /// frame buffer. Handles partial vectored writes and `Interrupted`.
    pub fn write_vectored_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let (head, used) = self.encode_head();
        let total = used + self.payload.len();
        let mut written = 0usize;
        while written < total {
            let n = if written < used {
                let bufs = [
                    IoSlice::new(head.get(written..used).unwrap_or_default()),
                    IoSlice::new(&self.payload),
                ];
                w.write_vectored(&bufs)
            } else {
                let off = written - used;
                w.write(self.payload.get(off..).unwrap_or_default())
            };
            match n {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "response frame write stalled",
                    ))
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Read a full response from a stream: the response head
    /// (`ResponseHead::read_from`) plus the payload into a `Vec` of its own. Never panics: an
    /// unknown status byte or an implausible payload length is reported
    /// as `InvalidData` (frame corruption) without allocating. The
    /// payload is *not* verified here; see [`Self::crc_ok`].
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Self> {
        let head = ResponseHead::read_from(r)?;
        let mut payload = Vec::new();
        reserve_tail(&mut payload, head.len, head.len as u64);
        head.read_payload(r, &mut payload)?;
        Ok(FetchResponse {
            status: head.status,
            id: head.id,
            payload,
            crc: head.crc,
            seg_len: head.seg_len,
            retry_after_ms: head.retry_after_ms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = FetchRequest {
            id: 0xDEAD_BEEF,
            mof: 7,
            reducer: 3,
            offset: 4096,
            len: 128 << 10,
            flags: 0,
        };
        let enc = req.encode();
        assert_eq!(enc.len(), REQUEST_LEN);
        assert_eq!(FetchRequest::decode(&enc).unwrap(), (req, WireVersion::V2));
    }

    #[test]
    fn v3_request_roundtrip_carries_flags() {
        let req = FetchRequest {
            id: 5,
            mof: 7,
            reducer: 3,
            offset: 4096,
            len: 128 << 10,
            flags: FLAG_BYPASS_CACHE,
        };
        let enc = req.encode_v3();
        assert_eq!(enc.len(), REQUEST_LEN_V3);
        let (back, version) = FetchRequest::decode(&enc).unwrap();
        assert_eq!(back, req);
        assert_eq!(version, WireVersion::V3);
        assert!(back.bypass_cache());
    }

    #[test]
    fn v2_frame_drops_flags() {
        let req = FetchRequest {
            id: 0,
            mof: 1,
            reducer: 2,
            offset: 0,
            len: 4096,
            flags: FLAG_BYPASS_CACHE,
        };
        let (back, _) = FetchRequest::decode(&req.encode()).unwrap();
        assert!(!back.bypass_cache());
    }

    #[test]
    fn request_rejects_bad_magic() {
        let mut enc = FetchRequest {
            id: 0,
            mof: 1,
            reducer: 2,
            offset: 0,
            len: 4096,
            flags: 0,
        }
        .encode();
        enc[0] ^= 0xF0;
        assert!(FetchRequest::decode(&enc).is_err());
        assert!(FetchRequest::decode(&enc[..8]).is_err());
    }

    #[test]
    fn request_stream_roundtrip_and_eof() {
        let req = FetchRequest {
            id: 3,
            mof: 9,
            reducer: 1,
            offset: 64,
            len: 4096,
            flags: 0,
        };
        let mut buf = Vec::new();
        req.write_to(&mut buf).unwrap();
        req.write_versioned(&mut buf, WireVersion::V3).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(
            FetchRequest::read_from(&mut cursor).unwrap(),
            Some((req, WireVersion::V2))
        );
        assert_eq!(
            FetchRequest::read_from(&mut cursor).unwrap(),
            Some((req, WireVersion::V3))
        );
        // Clean EOF after full requests -> None.
        assert_eq!(FetchRequest::read_from(&mut cursor).unwrap(), None);
    }

    #[test]
    fn truncated_request_is_an_error() {
        for version in [WireVersion::V2, WireVersion::V3] {
            let req = FetchRequest {
                id: 3,
                mof: 9,
                reducer: 1,
                offset: 64,
                len: 4096,
                flags: 0,
            };
            let mut buf = Vec::new();
            req.write_versioned(&mut buf, version).unwrap();
            buf.truncate(buf.len() - 3);
            let mut cursor = std::io::Cursor::new(buf);
            assert!(FetchRequest::read_from(&mut cursor).is_err());
        }
    }

    #[test]
    fn response_roundtrip() {
        let resp = FetchResponse::ok(11, vec![1, 2, 3, 4, 5]);
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        let back = FetchResponse::read_from(&mut std::io::Cursor::new(buf)).unwrap();
        assert_eq!(back, resp);
        assert_eq!(back.id, 11);
    }

    #[test]
    fn okcrc_roundtrip_and_verify() {
        let resp = FetchResponse::ok_crc(11, vec![1, 2, 3, 4, 5], 999);
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        let back = FetchResponse::read_from(&mut std::io::Cursor::new(buf)).unwrap();
        assert_eq!(back, resp);
        assert_eq!(back.seg_len, 999);
        assert!(back.crc_ok());
    }

    #[test]
    fn payload_flip_fails_crc_but_reads_cleanly() {
        let resp = FetchResponse::ok_crc(4, (0..=255u8).collect(), 256);
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        // Flip one payload byte, past header + extension: the frame
        // still parses (structure intact) but the checksum catches it.
        let n = buf.len();
        buf[n - 10] ^= 0x01;
        let back = FetchResponse::read_from(&mut std::io::Cursor::new(buf)).unwrap();
        assert!(!back.crc_ok());
    }

    /// The 29 bytes the parent of the hardware-CRC change (slice-by-8
    /// only) put before this 40 000-byte payload: long enough to cross
    /// the kernel's 3 × 8 KiB and 3 × 256 B interleaved blocks and its
    /// tail. The wire format does not depend on which CRC path sealed
    /// or verifies a frame.
    #[test]
    fn v3_frame_sealed_by_the_table_loop_still_verifies() {
        const HEAD: [u8; RESPONSE_HEADER_LEN + CRC_EXT_LEN] = [
            0x03, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x9C, 0x40, 0x4F, 0x8B, 0xCB, 0x52, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x9C,
            0x40,
        ];
        let payload: Vec<u8> = (0..40_000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let mut frame = HEAD.to_vec();
        frame.extend_from_slice(&payload);

        let back = FetchResponse::read_from(&mut frame.as_slice()).unwrap();
        assert_eq!(back.crc, 0x4F8B_CB52);
        assert!(back.crc_ok());
        assert_eq!(back.payload, payload);

        let resealed = FetchResponse::ok_crc(0x0102_0304_0506_0708, payload, 0x1_0000_9C40);
        let mut out = Vec::new();
        resealed.write_to(&mut out).unwrap();
        assert_eq!(out, frame);
    }

    /// `read_verified` appends to what the buffer already holds, and
    /// takes back everything it appended when the payload does not
    /// verify or the stream ends inside it.
    #[test]
    fn read_verified_leaves_only_verified_bytes_behind() {
        let payload: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        let mut frame = Vec::new();
        FetchResponse::ok_crc(1, payload.clone(), 9000)
            .write_to(&mut frame)
            .unwrap();
        let mut buf = vec![0xEE; 7];

        let mut r = frame.as_slice();
        let head = ResponseHead::read_from(&mut r).unwrap();
        assert_eq!((head.len, head.seg_len), (5000, 9000));
        assert_eq!(head.declared_remaining(4000), 5000);
        assert!(head.read_verified(&mut r, &mut buf).unwrap());
        assert_eq!(buf.len(), 7 + 5000);
        assert_eq!(&buf[7..], &payload[..]);

        let mut flipped = frame.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x80;
        let mut r = flipped.as_slice();
        let head = ResponseHead::read_from(&mut r).unwrap();
        assert!(!head.read_verified(&mut r, &mut buf).unwrap());
        assert_eq!(buf.len(), 7 + 5000, "unverified bytes were taken back");

        let mut r = &frame[..frame.len() - 100];
        let head = ResponseHead::read_from(&mut r).unwrap();
        let err = head.read_verified(&mut r, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(buf.len(), 7 + 5000, "a half-read payload was taken back");
    }

    /// A declared length buys at most one step of capacity until bytes
    /// back it; verified bytes then let the buffer grow geometrically.
    #[test]
    fn reservation_is_bounded_by_what_has_arrived() {
        let mut buf = Vec::new();
        reserve_tail(&mut buf, 128 << 10, u64::MAX);
        assert!(buf.capacity() >= RESERVE_STEP && buf.capacity() < 2 * RESERVE_STEP);

        let mut exact = Vec::new();
        reserve_tail(&mut exact, 128 << 10, 2_000_000);
        assert!(exact.capacity() >= 2_000_000 && exact.capacity() < RESERVE_STEP);
        let cap = exact.capacity();
        reserve_tail(&mut exact, 128 << 10, u64::MAX);
        assert_eq!(exact.capacity(), cap, "room enough: nothing reserved");

        let mut grown = vec![0u8; 3 * RESERVE_STEP];
        grown.shrink_to_fit();
        reserve_tail(&mut grown, 128 << 10, u64::MAX);
        assert!(grown.capacity() >= 6 * RESERVE_STEP && grown.capacity() < 7 * RESERVE_STEP);
    }

    #[test]
    fn busy_roundtrip_carries_hint() {
        let resp = FetchResponse::busy(7, 250);
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        assert_eq!(buf.len(), RESPONSE_HEADER_LEN);
        let back = FetchResponse::read_from(&mut std::io::Cursor::new(buf)).unwrap();
        assert_eq!(back.status, Status::Busy);
        assert_eq!(back.retry_after_ms, 250);
        assert!(back.payload.is_empty());
    }

    #[test]
    fn busy_hint_is_clamped() {
        let resp = FetchResponse::busy(7, u64::MAX);
        assert!(resp.retry_after_ms <= 60_000);
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        assert!(FetchResponse::read_from(&mut std::io::Cursor::new(buf)).is_ok());
    }

    #[test]
    fn vectored_write_matches_plain_write() {
        for payload in [Vec::new(), vec![7u8; 3], vec![0xA5; 64 << 10]] {
            for resp in [
                FetchResponse::ok(42, payload.clone()),
                FetchResponse::ok_crc(42, payload.clone(), payload.len() as u64),
            ] {
                let mut plain = Vec::new();
                resp.write_to(&mut plain).unwrap();
                let mut vectored = Vec::new();
                resp.write_vectored_to(&mut vectored).unwrap();
                assert_eq!(plain, vectored);
            }
        }
    }

    /// A sink that accepts one byte per call, forcing the vectored
    /// writer through every partial-write resume point (header split,
    /// header/payload boundary, payload split).
    struct TrickleSink(Vec<u8>);

    impl Write for TrickleSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            match buf.first() {
                Some(&b) => {
                    self.0.push(b);
                    Ok(1)
                }
                None => Ok(0),
            }
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            for b in bufs {
                if let Some(&byte) = b.first() {
                    self.0.push(byte);
                    return Ok(1);
                }
            }
            Ok(0)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vectored_write_survives_partial_writes() {
        for resp in [
            FetchResponse::ok(9, (0..=255u8).collect()),
            FetchResponse::ok_crc(9, (0..=255u8).collect(), 256),
        ] {
            let mut sink = TrickleSink(Vec::new());
            resp.write_vectored_to(&mut sink).unwrap();
            let mut plain = Vec::new();
            resp.write_to(&mut plain).unwrap();
            assert_eq!(sink.0, plain);
        }
    }

    #[test]
    fn error_response_roundtrip() {
        let resp = FetchResponse::error(3, Status::NotFound);
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        let back = FetchResponse::read_from(&mut std::io::Cursor::new(buf)).unwrap();
        assert_eq!(back.status, Status::NotFound);
        assert_eq!(back.id, 3);
        assert!(back.payload.is_empty());
    }

    #[test]
    fn unknown_status_byte_is_corruption() {
        let resp = FetchResponse::ok(0, vec![1, 2, 3]);
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        buf[0] = 0xEE;
        let err = FetchResponse::read_from(&mut std::io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_length_header_is_corruption_not_allocation() {
        let resp = FetchResponse::ok(0, vec![9; 16]);
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        // Flip a high byte of the length field (after status + id): the
        // decoder must reject it before trying to allocate petabytes.
        buf[1 + 8] ^= 0xFF;
        let err = FetchResponse::read_from(&mut std::io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn many_exchanges_on_one_stream() {
        let mut buf = Vec::new();
        for i in 0..10u64 {
            let req = FetchRequest {
                id: i,
                mof: i,
                reducer: i as u32,
                offset: i << 12,
                len: 4096,
                flags: 0,
            };
            let version = if i % 2 == 0 {
                WireVersion::V2
            } else {
                WireVersion::V3
            };
            req.write_versioned(&mut buf, version).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for i in 0..10u64 {
            let (req, version) = FetchRequest::read_from(&mut cursor).unwrap().unwrap();
            assert_eq!(req.mof, i);
            assert_eq!(req.id, i);
            let expect = if i % 2 == 0 {
                WireVersion::V2
            } else {
                WireVersion::V3
            };
            assert_eq!(version, expect);
        }
        assert_eq!(FetchRequest::read_from(&mut cursor).unwrap(), None);
    }
}
