//! Property tests of the fetch wire protocol: encode/decode round-trips
//! for every representable request and response (including the pipelined
//! request ids and the integrity extension), and — the property the
//! fault-injection harness leans on — decoding NEVER panics on arbitrary
//! or truncated bytes, it returns an error.

use jbs_transport::wire::{
    response_frame_len, FetchRequest, FetchResponse, Status, MAX_PAYLOAD, REQUEST_LEN_V3,
};
use proptest::prelude::*;
use std::io::Cursor;

proptest! {
    /// Any request round-trips through the fixed-size encoding, flags
    /// included.
    #[test]
    fn request_roundtrips(
        id in any::<u64>(),
        mof in any::<u64>(),
        reducer in any::<u32>(),
        offset in any::<u64>(),
        len in any::<u64>(),
        flags in any::<u8>(),
    ) {
        let req = FetchRequest { id, mof, reducer, offset, len, flags };
        let enc = req.encode_v3();
        prop_assert_eq!(enc.len(), REQUEST_LEN_V3);
        prop_assert_eq!(FetchRequest::decode(&enc).unwrap(), req);
        // And through the streaming reader.
        let mut cursor = Cursor::new(enc.to_vec());
        prop_assert_eq!(FetchRequest::read_from(&mut cursor).unwrap(), Some(req));
        prop_assert_eq!(FetchRequest::read_from(&mut cursor).unwrap(), None);
    }

    /// Any response with an in-cap payload round-trips through the frame,
    /// id included — by both the plain and the vectored writer.
    #[test]
    fn response_roundtrips(
        id in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 0..4096),
        seg_len in any::<u64>(),
        status_pick in 0u8..4,
    ) {
        let resp = match status_pick {
            0 => FetchResponse::error(id, Status::NotFound),
            1 => FetchResponse::error(id, Status::BadRequest),
            2 => FetchResponse::ok_crc(id, payload, seg_len),
            _ => FetchResponse::busy(id, seg_len % 60_000),
        };
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        let back = FetchResponse::read_from(&mut Cursor::new(&buf)).unwrap();
        prop_assert_eq!(&back, &resp);
        prop_assert_eq!(back.id, id);
        prop_assert!(back.crc_ok());
        let mut vbuf = Vec::new();
        resp.write_vectored_to(&mut vbuf).unwrap();
        prop_assert_eq!(vbuf, buf);
    }

    /// Decoding arbitrary garbage never panics — it errors or (by fluke)
    /// parses, but the process survives either way.
    #[test]
    fn request_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        let _ = FetchRequest::decode(&bytes);
        let _ = FetchRequest::read_from(&mut Cursor::new(bytes));
    }

    /// Reading a response frame from arbitrary garbage never panics and
    /// never allocates past the payload cap (the bytes on the reader are
    /// far fewer than MAX_PAYLOAD, so an over-cap length header must be
    /// rejected before allocation, not discovered by OOM).
    #[test]
    fn response_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        if let Ok(resp) = FetchResponse::read_from(&mut Cursor::new(&bytes)) {
            prop_assert!(resp.payload.len() <= MAX_PAYLOAD);
            prop_assert!(resp.payload.len() <= bytes.len());
        }
    }

    /// The buffered-frame check never panics on arbitrary bytes, and
    /// never claims more bytes than it was shown.
    #[test]
    fn frame_len_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        if let Some(n) = response_frame_len(&bytes) {
            prop_assert!(n <= bytes.len());
        }
    }

    /// On an encoded frame followed by anything, the check measures
    /// exactly that frame; on every strict prefix of it, the frame is
    /// not complete — in every status, so a reader draining buffered
    /// frames never blocks inside one it was told had arrived.
    #[test]
    fn frame_len_measures_exactly_one_frame(
        id in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 0..4096),
        seg_len in any::<u64>(),
        status_pick in 0u8..4,
        trailing in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let resp = match status_pick {
            0 => FetchResponse::error(id, Status::NotFound),
            1 => FetchResponse::error(id, Status::BadRequest),
            2 => FetchResponse::ok_crc(id, payload, seg_len),
            _ => FetchResponse::busy(id, seg_len % 60_000),
        };
        let mut frame = Vec::new();
        resp.write_to(&mut frame).unwrap();
        let len = frame.len();
        for cut in 0..len {
            prop_assert_eq!(response_frame_len(&frame[..cut]), None, "prefix of {}", cut);
        }
        frame.extend_from_slice(&trailing);
        prop_assert_eq!(response_frame_len(&frame), Some(len));
    }

    /// Every truncation of a valid request frame is a clean error, and
    /// every truncation of a valid response frame is a clean error.
    #[test]
    fn truncations_error_cleanly(
        id in any::<u64>(),
        mof in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 1..512),
        cut_frac in 0u8..100,
    ) {
        let req = FetchRequest { id, mof, reducer: 1, offset: 0, len: 0, flags: 0 };
        let enc = req.encode_v3();
        let cut = (enc.len() - 1) * cut_frac as usize / 100;
        prop_assert!(FetchRequest::decode(&enc[..cut]).is_err());
        if cut > 0 {
            prop_assert!(FetchRequest::read_from(&mut Cursor::new(enc[..cut].to_vec())).is_err());
        }

        let resp = FetchResponse::ok_crc(id, payload.clone(), payload.len() as u64);
        let mut frame = Vec::new();
        resp.write_to(&mut frame).unwrap();
        let cut = (frame.len() - 1) * cut_frac as usize / 100;
        frame.truncate(cut);
        prop_assert!(FetchResponse::read_from(&mut Cursor::new(frame)).is_err());
    }

    /// Single-bit flips in a request frame either fail the magic check or
    /// decode to a *different* request — corruption is never silently the
    /// same request (headers have no unused bits the decoder ignores).
    /// With the id field this also covers the pipelining invariant: a
    /// flipped id bit yields a request whose echo will not match the
    /// client's outstanding window. A flip in the magic — "JBS3" to
    /// "JBS2" among them — is always a framing error.
    #[test]
    fn request_bitflips_never_alias(
        id in any::<u64>(),
        mof in any::<u64>(),
        reducer in any::<u32>(),
        offset in any::<u64>(),
        len in any::<u64>(),
        flags in any::<u8>(),
        bit in 0usize..(8 * REQUEST_LEN_V3),
    ) {
        let req = FetchRequest { id, mof, reducer, offset, len, flags };
        let mut enc = req.encode_v3();
        enc[bit / 8] ^= 1 << (bit % 8);
        match FetchRequest::decode(&enc) {
            Err(_) => prop_assert!(bit < 32, "only a magic flip fails: bit {}", bit),
            Ok(decoded) => prop_assert_ne!(decoded, req),
        }
    }

    /// The same property through the streaming reader the reactor and
    /// the blocking server read requests with: a flipped "JBS3" magic is
    /// refused before the rest of the frame is read, and any other flip
    /// yields a different request — never the one that was sent.
    #[test]
    fn v3_request_bitflips_never_alias(
        id in any::<u64>(),
        mof in any::<u64>(),
        reducer in any::<u32>(),
        offset in any::<u64>(),
        len in any::<u64>(),
        flags in any::<u8>(),
        bit in 0usize..(8 * REQUEST_LEN_V3),
    ) {
        let req = FetchRequest { id, mof, reducer, offset, len, flags };
        let mut enc = req.encode_v3();
        enc[bit / 8] ^= 1 << (bit % 8);
        match FetchRequest::read_from(&mut Cursor::new(enc.to_vec())) {
            Err(_) => prop_assert!(bit < 32, "only a magic flip fails: bit {}", bit),
            Ok(None) => prop_assert!(false, "a whole frame is never a clean end"),
            Ok(Some(decoded)) => prop_assert_ne!(decoded, req),
        }
    }

    /// Single-bit flips in a response *header* never alias either: the
    /// decoder rejects the frame, or the decoded (status, id, length)
    /// triple differs from what was sent.
    #[test]
    fn response_header_bitflips_never_alias(
        id in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 0..64),
        seg_len in any::<u64>(),
        bit in 0usize..(8 * 17),
    ) {
        let resp = FetchResponse::ok_crc(id, payload, seg_len);
        let mut frame = Vec::new();
        resp.write_to(&mut frame).unwrap();
        frame[bit / 8] ^= 1 << (bit % 8);
        match FetchResponse::read_from(&mut Cursor::new(&frame)) {
            Err(_) => {}
            Ok(decoded) => prop_assert!(
                decoded.status != resp.status
                    || decoded.id != resp.id
                    || decoded.payload.len() != resp.payload.len()
            ),
        }
    }

    /// The integrity guarantee the wire rests on: EVERY single-bit
    /// flip anywhere in an `OkCrc` frame — header, extension, or payload —
    /// is detected. Either the frame fails structurally, or the carried
    /// checksum no longer matches the payload, or the decoded metadata
    /// visibly differs; a flip can never hand the client silently-wrong
    /// bytes that pass verification.
    #[test]
    fn okcrc_bitflips_always_detected(
        id in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 0..256),
        seg_len in any::<u64>(),
        flip_frac in 0u32..1_000_000,
    ) {
        let resp = FetchResponse::ok_crc(id, payload, seg_len);
        let mut frame = Vec::new();
        resp.write_to(&mut frame).unwrap();
        let bit = (flip_frac as u64 * (frame.len() as u64 * 8) / 1_000_000) as usize;
        frame[bit / 8] ^= 1 << (bit % 8);
        match FetchResponse::read_from(&mut Cursor::new(&frame)) {
            Err(_) => {} // structural rejection
            Ok(decoded) => prop_assert!(
                !decoded.crc_ok()
                    || decoded.status != resp.status
                    || decoded.id != resp.id
                    || decoded.seg_len != resp.seg_len
                    || decoded.payload.len() != resp.payload.len(),
                "bit flip {} survived verification", bit
            ),
        }
    }
}
