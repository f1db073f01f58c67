//! The JBS fetch wire protocol.
//!
//! A fetch request addresses a byte range of one reducer's segment in one
//! MOF — the unit the NetMerger's transport buffers work in. Responses are
//! length-framed so a connection can carry many request/response exchanges
//! (connections are cached and reused, unlike Hadoop's per-fetch HTTP).
//!
//! ```text
//! request   := MAGIC u32 | flags u8 | id u64 | mof u64 | reducer u32 | offset u64 | len u64
//! response  := status u8 | id u64 | len u64 | ext | payload[...]
//! ext       := crc32c u32 | seg_len u64     (OkCrc only; empty otherwise)
//! ```
//!
//! `MAGIC` is "JBS3"; any other magic is a framing error. `len` is a
//! range of 1 to the supplier's transport buffer (`buffer_bytes`,
//! 128 KiB by default): a longer request is served short at that cap,
//! and a range past the segment's end comes back empty. The supplier
//! answers `len == 0` with [`Status::BadRequest`], so no request ever
//! reads an unbounded range. `flags` carries [`FLAG_BYPASS_CACHE`]: the
//! supplier must re-read from disk instead of serving staged DataCache
//! bytes — the targeted re-fetch a client issues after a checksum
//! mismatch, so poisoned cache contents are never re-served.
//!
//! `id` is a client-chosen request identifier echoed verbatim in the
//! response. The server answers requests strictly in arrival order, so
//! ids are not needed for reordering — they exist so a *pipelined*
//! client with several requests in flight on one connection can verify
//! that responses stay in lockstep with its outstanding window; an id
//! mismatch means the stream desynchronized and the connection must be
//! torn down rather than trusted.
//!
//! Every data response is one [`Status::OkCrc`] frame: the 17-byte
//! header, then `crc32c` over exactly the payload bytes and `seg_len`,
//! the total length of the addressed segment, then the payload.
//! `seg_len` lets the client end a chunked segment fetch there without
//! an end-of-segment request, account for expected bytes, and turn a
//! truncation landing exactly on a chunk boundary into a typed error.
//! [`Status::Busy`] is admission control: the supplier is shedding load,
//! and the header's `len` field carries a retry-after hint in
//! milliseconds instead of a payload length. Error frames carry no
//! payload.

use bytes::Buf;
use std::io::{self, IoSlice, Read, Write};

/// Protocol magic ("JBS3").
pub const REQUEST_MAGIC_V3: u32 = 0x4A42_5333;

/// Size of an encoded request: magic, flags, id, mof, reducer, offset,
/// len.
pub const REQUEST_LEN_V3: usize = 4 + 1 + 8 + 8 + 4 + 8 + 8;

/// Size of an encoded response header (status, id, payload length).
pub const RESPONSE_HEADER_LEN: usize = 1 + 8 + 8;

/// Size of the integrity extension following an [`Status::OkCrc`]
/// header: payload CRC32C (u32) + total segment length (u64).
pub const CRC_EXT_LEN: usize = 4 + 8;

/// Request flag: bypass the supplier's staged DataCache and re-read
/// the range from disk. Set on the targeted re-fetch after a checksum
/// mismatch so poisoned cache bytes are not served twice.
pub const FLAG_BYPASS_CACHE: u8 = 1;

/// Upper bound on a response payload. A length header above this is
/// treated as frame corruption rather than an allocation request —
/// without it, a single flipped header bit would make the client try
/// to allocate (and then block reading) up to 2^64 bytes.
pub const MAX_PAYLOAD: usize = 64 << 20;

/// Response status codes. Byte 0 is no status: like any unknown byte,
/// it decodes as corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Unknown MOF or reducer.
    NotFound = 1,
    /// Malformed request.
    BadRequest = 2,
    /// Payload follows, preceded by the integrity extension
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
    /// Request flags ([`FLAG_BYPASS_CACHE`]).
    pub flags: u8,
}

impl FetchRequest {
    /// Does this request carry the cache-bypass flag?
    pub fn bypass_cache(&self) -> bool {
        self.flags & FLAG_BYPASS_CACHE != 0
    }

    /// Encode to the wire format.
    pub fn encode_v3(&self) -> [u8; REQUEST_LEN_V3] {
        let mut out = [0u8; REQUEST_LEN_V3];
        let mut put = Put::new(&mut out);
        put.u32(REQUEST_MAGIC_V3);
        put.u8(self.flags);
        put.u64(self.id);
        put.u64(self.mof);
        put.u32(self.reducer);
        put.u64(self.offset);
        put.u64(self.len);
        out
    }

    /// Decode the request at the start of `buf`, which may hold more
    /// bytes after it. A wrong magic is `InvalidData` as soon as its
    /// four bytes are there; a frame still arriving is `UnexpectedEof`.
    pub fn decode(mut buf: &[u8]) -> io::Result<Self> {
        // The reactor meets a frame still arriving after every batch it
        // reads, so that error is a bare kind: it allocates nothing.
        let short = || io::Error::from(io::ErrorKind::UnexpectedEof);
        if buf.len() < 4 {
            return Err(short());
        }
        if buf.get_u32() != REQUEST_MAGIC_V3 {
            return Err(bad_magic());
        }
        if buf.len() < REQUEST_LEN_V3 - 4 {
            return Err(short());
        }
        Ok(FetchRequest {
            flags: buf.get_u8(),
            id: buf.get_u64(),
            mof: buf.get_u64(),
            reducer: buf.get_u32(),
            offset: buf.get_u64(),
            len: buf.get_u64(),
        })
    }

    /// Write this request to a stream.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&self.encode_v3())
    }

    /// Read one request from a stream. Returns `Ok(None)` on clean EOF
    /// before any byte (the peer closed a reused connection).
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Option<Self>> {
        let mut buf = [0u8; REQUEST_LEN_V3];
        let (magic, rest) = buf.split_at_mut(4);
        if !fill(r, magic, true)? {
            return Ok(None);
        }
        // Refuse a foreign magic before waiting on the rest of a frame
        // that may never come.
        if *magic != REQUEST_MAGIC_V3.to_be_bytes() {
            return Err(bad_magic());
        }
        fill(r, rest, false)?;
        Self::decode(&buf).map(Some)
    }
}

/// The error for a request whose magic is not "JBS3".
fn bad_magic() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, "bad magic")
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
    /// Segment bytes (empty unless `status` is `OkCrc`).
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
/// integrity extension and payload — if every byte of it is there. `None`
/// while any of it has yet to arrive, and for a head that
/// `ResponseHead::decode` would reject (that decoder reports it).
pub fn response_frame_len(buf: &[u8]) -> Option<usize> {
    let (head, used) = ResponseHead::decode(buf).ok()??;
    let total = used + head.len;
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
        let mut bytes = [0u8; RESPONSE_HEADER_LEN + CRC_EXT_LEN];
        let (hdr, ext) = bytes.split_at_mut(RESPONSE_HEADER_LEN);
        r.read_exact(hdr)?;
        if Self::decode(hdr)?.is_none() {
            r.read_exact(ext)?;
        }
        Self::decode(&bytes)?
            .map(|(head, _)| head)
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "truncated response head"))
    }

    /// Decode the head at the start of `buf`, and how many bytes it
    /// took: `Ok(None)` while part of it has yet to arrive. The header
    /// is judged as soon as its 17 bytes are there, so an unknown status
    /// byte or an implausible payload length is `InvalidData` (frame
    /// corruption) without waiting on an extension that may never come.
    pub(crate) fn decode(buf: &[u8]) -> io::Result<Option<(Self, usize)>> {
        let Some(mut hdr) = buf.get(..RESPONSE_HEADER_LEN) else {
            return Ok(None);
        };
        let status_byte = hdr.get_u8();
        let status = Status::from_u8(status_byte).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("invalid status byte {status_byte:#04x}"),
            )
        })?;
        let id = hdr.get_u64();
        let len = hdr.get_u64();
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
                let end = RESPONSE_HEADER_LEN + CRC_EXT_LEN;
                let Some(mut ext) = buf.get(RESPONSE_HEADER_LEN..end) else {
                    return Ok(None);
                };
                head.crc = ext.get_u32();
                head.seg_len = ext.get_u64();
                return Ok(Some((head, end)));
            }
            Status::NotFound | Status::BadRequest => {}
        }
        Ok(Some((head, RESPONSE_HEADER_LEN)))
    }

    /// Bytes of the segment the peer declares from `offset` (where this
    /// frame's payload starts) to the segment's end: none for a frame
    /// that carries no `seg_len`, which therefore may carry no payload.
    pub(crate) fn declared_remaining(&self, offset: u64) -> u64 {
        self.seg_len.saturating_sub(offset)
    }

    /// Read the rest of this frame's payload onto the end of `buf`, whose
    /// bytes from `start` on are the payload so far: straight into its
    /// spare capacity, with no intermediate buffer and no zero-fill. On
    /// error `buf` may hold a partial payload past `start`.
    fn read_payload<R: Read>(&self, r: &mut R, buf: &mut Vec<u8>, start: usize) -> io::Result<()> {
        let want = self.len.saturating_sub(buf.len().saturating_sub(start));
        let got = r.by_ref().take(want as u64).read_to_end(buf)?;
        if got < want {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated response payload",
            ));
        }
        Ok(())
    }

    /// Read the rest of this frame's payload onto the end of `buf`, whose
    /// bytes from `start` on are the payload so far, and once it is whole
    /// check it against the carried CRC32C where it lies, if `verify`.
    /// `Ok(true)`: `buf` holds exactly `self.len` payload bytes past
    /// `start`, all of them verified (or taken unchecked). `Ok(false)`:
    /// the payload failed its CRC32C. An `Err` of kind `WouldBlock`: a
    /// nonblocking reader ran dry, and `buf` keeps what arrived so that a
    /// later call resumes. Any other `Err`: the stream failed
    /// mid-payload. In both failure cases `buf` is cut back to `start`,
    /// so bytes that did not verify are never in it once this returns.
    pub(crate) fn read_verified<R: Read>(
        &self,
        r: &mut R,
        buf: &mut Vec<u8>,
        start: usize,
        verify: bool,
    ) -> io::Result<bool> {
        let verified = self.read_payload(r, buf, start).map(|()| {
            !verify || jbs_checksum::crc32c(buf.get(start..).unwrap_or_default()) == self.crc
        });
        match &verified {
            Ok(true) => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            _ => buf.truncate(start),
        }
        verified
    }
}

impl FetchResponse {
    /// A successful response: payload checksummed at the supplier,
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
    /// `Busy` and error frames, which carry no payload.
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
        head.read_payload(r, &mut payload, 0)?;
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
        let enc = req.encode_v3();
        assert_eq!(enc.len(), REQUEST_LEN_V3);
        assert_eq!(FetchRequest::decode(&enc).unwrap(), req);
        assert!(!req.bypass_cache());
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
        let back = FetchRequest::decode(&enc).unwrap();
        assert_eq!(back, req);
        assert!(back.bypass_cache());
    }

    /// A foreign magic is `InvalidData` from its first four bytes on,
    /// in the decoder and in the stream reader — the retired "JBS2"
    /// magic included.
    #[test]
    fn request_rejects_bad_magic() {
        let enc = FetchRequest {
            id: 0,
            mof: 1,
            reducer: 2,
            offset: 0,
            len: 4096,
            flags: 0,
        }
        .encode_v3();
        let mut flipped = enc;
        flipped[0] ^= 0xF0;
        let mut jbs2 = enc;
        jbs2[3] = b'2';
        for bad in [flipped, jbs2] {
            for cut in [4, 8, REQUEST_LEN_V3] {
                let err = FetchRequest::decode(&bad[..cut]).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{cut} bytes");
            }
            let err = FetchRequest::read_from(&mut &bad[..4]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
        let err = FetchRequest::decode(&enc[..REQUEST_LEN_V3 - 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "still arriving");
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
        req.write_to(&mut buf).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(FetchRequest::read_from(&mut cursor).unwrap(), Some(req));
        assert_eq!(FetchRequest::read_from(&mut cursor).unwrap(), Some(req));
        // Clean EOF after full requests -> None.
        assert_eq!(FetchRequest::read_from(&mut cursor).unwrap(), None);
    }

    #[test]
    fn truncated_request_is_an_error() {
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
        buf.truncate(buf.len() - 3);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(FetchRequest::read_from(&mut cursor).is_err());
    }

    #[test]
    fn response_roundtrip() {
        let resp = FetchResponse::ok_crc(11, vec![1, 2, 3, 4, 5], 5);
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
    /// verify or the stream ends inside it. A nonblocking reader that
    /// runs dry mid-payload leaves the bytes so far for the next call.
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
        assert!(head.read_verified(&mut r, &mut buf, 7, true).unwrap());
        assert_eq!(buf.len(), 7 + 5000);
        assert_eq!(&buf[7..], &payload[..]);

        let mut flipped = frame.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x80;
        let mut r = flipped.as_slice();
        let head = ResponseHead::read_from(&mut r).unwrap();
        assert!(!head
            .read_verified(&mut r, &mut buf, 7 + 5000, true)
            .unwrap());
        assert_eq!(buf.len(), 7 + 5000, "unverified bytes were taken back");
        // With the comparison skipped, the same bytes are taken as read.
        let mut r = flipped.as_slice();
        let head = ResponseHead::read_from(&mut r).unwrap();
        let mut unchecked = Vec::new();
        assert!(head
            .read_verified(&mut r, &mut unchecked, 0, false)
            .unwrap());
        assert_eq!(unchecked, flipped[flipped.len() - 5000..]);

        let mut r = &frame[..frame.len() - 100];
        let head = ResponseHead::read_from(&mut r).unwrap();
        let err = head
            .read_verified(&mut r, &mut buf, 7 + 5000, true)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(buf.len(), 7 + 5000, "a half-read payload was taken back");

        /// Yields its bytes, then `WouldBlock` where EOF would be.
        struct Dry<'a>(&'a [u8]);
        impl Read for Dry<'_> {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                match self.0.read(out)? {
                    0 => Err(io::ErrorKind::WouldBlock.into()),
                    n => Ok(n),
                }
            }
        }
        let (first, rest) = frame[RESPONSE_HEADER_LEN + CRC_EXT_LEN..].split_at(3000);
        let mut resumed = Vec::new();
        let err = head.read_verified(&mut Dry(first), &mut resumed, 0, true);
        assert_eq!(err.unwrap_err().kind(), io::ErrorKind::WouldBlock);
        assert_eq!(
            resumed,
            payload[..3000],
            "bytes so far stay for the next call"
        );
        assert!(head
            .read_verified(&mut Dry(rest), &mut resumed, 0, true)
            .unwrap());
        assert_eq!(resumed, payload);
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
                FetchResponse::ok_crc(42, payload.clone(), payload.len() as u64),
                FetchResponse::busy(42, 25),
                FetchResponse::error(42, Status::NotFound),
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
            FetchResponse::ok_crc(9, (0..=255u8).collect(), 256),
            FetchResponse::busy(9, 25),
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

    /// An unknown status byte is corruption — byte 0 included, which
    /// no frame carries.
    #[test]
    fn unknown_status_byte_is_corruption() {
        let resp = FetchResponse::ok_crc(0, vec![1, 2, 3], 3);
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        for status in [0xEE, 0x00] {
            buf[0] = status;
            assert_eq!(response_frame_len(&buf), None, "{status:#04x}");
            let err = FetchResponse::read_from(&mut buf.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{status:#04x}");
        }
    }

    #[test]
    fn oversized_length_header_is_corruption_not_allocation() {
        let resp = FetchResponse::ok_crc(0, vec![9; 16], 16);
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
                flags: (i % 2) as u8,
            };
            req.write_to(&mut buf).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for i in 0..10u64 {
            let req = FetchRequest::read_from(&mut cursor).unwrap().unwrap();
            assert_eq!(req.mof, i);
            assert_eq!(req.id, i);
            assert_eq!(req.flags, (i % 2) as u8);
        }
        assert_eq!(FetchRequest::read_from(&mut cursor).unwrap(), None);
    }

    /// The one dialect, byte for byte: a request and the `OkCrc`,
    /// `Busy` and `NotFound` frames, as the two-dialect codec wrote
    /// them before v2 was retired.
    #[test]
    fn frames_match_their_golden_bytes() {
        let req = FetchRequest {
            id: 0x0102_0304_0506_0708,
            mof: 0x1112_1314_1516_1718,
            reducer: 0x2122_2324,
            offset: 0x3132_3334_3536_3738,
            len: 128 << 10,
            flags: FLAG_BYPASS_CACHE,
        };
        const REQ: [u8; REQUEST_LEN_V3] = [
            0x4A, 0x42, 0x53, 0x33, 0x01, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x11,
            0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18, 0x21, 0x22, 0x23, 0x24, 0x31, 0x32, 0x33,
            0x34, 0x35, 0x36, 0x37, 0x38, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00,
        ];
        assert_eq!(req.encode_v3(), REQ);
        assert_eq!(FetchRequest::decode(&REQ).unwrap(), req);

        const OK_CRC: [u8; 40] = [
            0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x0B, 0xFB, 0xCF, 0xDB, 0x77, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
            0x00, 0x4A, 0x42, 0x53, 0x20, 0x73, 0x68, 0x75, 0x66, 0x66, 0x6C, 0x65,
        ];
        const BUSY: [u8; RESPONSE_HEADER_LEN] = [
            0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x19,
        ];
        const NOT_FOUND: [u8; RESPONSE_HEADER_LEN] = [
            0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00,
        ];
        for (resp, golden) in [
            (
                FetchResponse::ok_crc(7, b"JBS shuffle".to_vec(), 1 << 32),
                &OK_CRC[..],
            ),
            (FetchResponse::busy(8, 25), &BUSY[..]),
            (FetchResponse::error(9, Status::NotFound), &NOT_FOUND[..]),
        ] {
            let mut out = Vec::new();
            resp.write_to(&mut out).unwrap();
            assert_eq!(out, golden, "{:?}", resp.status);
            assert_eq!(FetchResponse::read_from(&mut &golden[..]).unwrap(), resp);
        }
    }
}
