//! The `CUSZPSV1` wire protocol — byte-level framing shared by the
//! server and the blocking client.
//!
//! The normative specification lives in `docs/SERVICE.md`; this module
//! is the single in-tree implementation of it. All multi-byte integers
//! are **little-endian**, matching the `CUSZP1`/`CUSZPCH1` stream
//! formats (`docs/FORMAT.md`).
//!
//! A connection is one tenant session:
//!
//! 1. Client sends a 32-byte hello ([`Tenant::encode_hello`]) declaring
//!    its dtype, error bound, and largest request payload.
//! 2. Server replies with 8 bytes: accept/reject plus the *effective*
//!    payload cap (the tenant's ask clamped to the server's limit).
//! 3. Request/response frames flow until either side closes. Requests
//!    are `op:u8 | len:u32 | payload`; responses are
//!    `status:u8 | len:u32 | payload`.
//!
//! Compressed payloads on the wire are always single-chunk `CUSZPCH1`
//! containers, so a response can be stored to disk or handed to
//! [`cuszp_core::chunk_ref_iter`] as-is.

use cuszp_core::{DType, ErrorBound};
use std::io::{ErrorKind, IoSlice, Write};

/// Handshake magic — first 8 bytes a client sends.
pub const HANDSHAKE_MAGIC: [u8; 8] = *b"CUSZPSV1";

/// Size of the client hello: magic(8) + tenant_id(8) + dtype(1) +
/// bound_mode(1) + flags(1) + reserved(1) + bound(8) + max_payload(4).
/// The flags byte currently defines bit 0 = hybrid second stage
/// ([`HELLO_FLAG_HYBRID`]); all other flag bits and the reserved byte
/// must be zero.
pub const HANDSHAKE_BYTES: usize = 32;

/// Hello flags-byte bit (byte 18, bit 0): opt this connection into the
/// `CUSZPHY1` hybrid second stage. Compress responses become raw hybrid
/// frames instead of single-chunk `CUSZPCH1` containers, and decompress
/// requests may carry either format.
pub const HELLO_FLAG_HYBRID: u8 = 1;

/// Size of the server's handshake reply: status(1) + code(1) +
/// reserved(2) + effective max_payload(4).
pub const HANDSHAKE_REPLY_BYTES: usize = 8;

/// Request frame header: op(1) + payload length(4).
pub const REQUEST_HEADER_BYTES: usize = 5;

/// Response frame header: status(1) + payload length(4).
pub const RESPONSE_HEADER_BYTES: usize = 5;

/// Request op: compress the payload (raw little-endian elements).
pub const OP_COMPRESS: u8 = b'C';
/// Request op: decompress the payload (one `CUSZPCH1` container).
pub const OP_DECOMPRESS: u8 = b'D';
/// Request op: return the plain-text metrics snapshot (empty payload).
pub const OP_METRICS: u8 = b'M';

/// Response status: success; payload is the result.
pub const STATUS_OK: u8 = 0;
/// Response status: admission queue full — request **not** processed,
/// payload empty; retry later.
pub const STATUS_BUSY: u8 = 1;
/// Response status: request rejected; payload is a UTF-8 message.
pub const STATUS_ERR: u8 = 2;

/// Hello `bound_mode` byte for [`ErrorBound::Abs`].
pub const BOUND_ABS: u8 = 0;
/// Hello `bound_mode` byte for [`ErrorBound::Rel`].
pub const BOUND_REL: u8 = 1;

/// Handshake reject code: hello did not start with [`HANDSHAKE_MAGIC`].
pub const HS_BAD_MAGIC: u8 = 1;
/// Handshake reject code: unknown dtype byte.
pub const HS_BAD_DTYPE: u8 = 2;
/// Handshake reject code: bound not finite/positive, or unknown mode,
/// or undefined flag bits / nonzero reserved byte.
pub const HS_BAD_BOUND: u8 = 3;
/// Handshake reject code: `max_payload` was zero.
pub const HS_BAD_CAP: u8 = 4;

/// Per-connection tenant configuration, as carried by the handshake.
///
/// `max_payload` bounds the raw-bytes side of every request on the
/// connection: a compress request's payload and a decompress request's
/// *decoded* size must both fit. The server clamps it to its own limit
/// and echoes the effective value in the handshake reply — it is also
/// the shape the connection's scratch arena is pre-warmed to, which is
/// what makes steady-state requests allocation-free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tenant {
    /// Operator-assigned tenant identity (opaque to the codec).
    pub tenant_id: u64,
    /// Element type of every payload on this connection.
    pub dtype: DType,
    /// Error bound applied to every compress request. REL bounds are
    /// resolved against each request's own value range.
    pub bound: ErrorBound,
    /// Largest raw payload (bytes) this connection will move.
    pub max_payload: u32,
    /// Opt into the `CUSZPHY1` hybrid second stage: compress responses
    /// are raw hybrid frames (when the entropy stage wins) and
    /// decompress requests may carry either a `CUSZPCH1` container or a
    /// hybrid frame. Carried as bit 0 of the hello flags byte.
    pub hybrid: bool,
}

impl Tenant {
    /// Serialize this tenant as the 32-byte client hello.
    pub fn encode_hello(&self) -> [u8; HANDSHAKE_BYTES] {
        let mut b = [0u8; HANDSHAKE_BYTES];
        b[0..8].copy_from_slice(&HANDSHAKE_MAGIC);
        b[8..16].copy_from_slice(&self.tenant_id.to_le_bytes());
        b[16] = self.dtype.to_byte();
        let (mode, bound) = match self.bound {
            ErrorBound::Abs(d) => (BOUND_ABS, d),
            ErrorBound::Rel(l) => (BOUND_REL, l),
        };
        b[17] = mode;
        b[18] = if self.hybrid { HELLO_FLAG_HYBRID } else { 0 };
        // b[19] reserved, zero.
        b[20..28].copy_from_slice(&bound.to_le_bytes());
        b[28..32].copy_from_slice(&self.max_payload.to_le_bytes());
        b
    }

    /// Parse and validate a client hello; `Err` is the handshake reject
    /// code to send back.
    pub fn decode_hello(b: &[u8; HANDSHAKE_BYTES]) -> Result<Tenant, u8> {
        if b[0..8] != HANDSHAKE_MAGIC {
            return Err(HS_BAD_MAGIC);
        }
        let tenant_id = u64::from_le_bytes(b[8..16].try_into().unwrap());
        let dtype = DType::from_byte(b[16]).ok_or(HS_BAD_DTYPE)?;
        let bound_raw = f64::from_le_bytes(b[20..28].try_into().unwrap());
        if b[18] & !HELLO_FLAG_HYBRID != 0
            || b[19] != 0
            || !bound_raw.is_finite()
            || bound_raw <= 0.0
        {
            return Err(HS_BAD_BOUND);
        }
        let hybrid = b[18] & HELLO_FLAG_HYBRID != 0;
        let bound = match b[17] {
            BOUND_ABS => ErrorBound::Abs(bound_raw),
            BOUND_REL => ErrorBound::Rel(bound_raw),
            _ => return Err(HS_BAD_BOUND),
        };
        let max_payload = u32::from_le_bytes(b[28..32].try_into().unwrap());
        if max_payload == 0 {
            return Err(HS_BAD_CAP);
        }
        Ok(Tenant {
            tenant_id,
            dtype,
            bound,
            max_payload,
            hybrid,
        })
    }
}

/// Serialize the server's handshake reply. An accepted handshake is
/// `(STATUS_OK, 0, effective_cap)`; a rejection is
/// `(STATUS_ERR, code, 0)` followed by connection close.
pub fn encode_handshake_reply(
    status: u8,
    code: u8,
    max_payload: u32,
) -> [u8; HANDSHAKE_REPLY_BYTES] {
    let mut b = [0u8; HANDSHAKE_REPLY_BYTES];
    b[0] = status;
    b[1] = code;
    b[4..8].copy_from_slice(&max_payload.to_le_bytes());
    b
}

/// Serialize a request frame header.
pub fn encode_request_header(op: u8, len: u32) -> [u8; REQUEST_HEADER_BYTES] {
    let mut b = [0u8; REQUEST_HEADER_BYTES];
    b[0] = op;
    b[1..5].copy_from_slice(&len.to_le_bytes());
    b
}

/// Serialize a response frame header.
pub fn encode_response_header(status: u8, len: u32) -> [u8; RESPONSE_HEADER_BYTES] {
    let mut b = [0u8; RESPONSE_HEADER_BYTES];
    b[0] = status;
    b[1..5].copy_from_slice(&len.to_le_bytes());
    b
}

/// Serialize the 20-byte `CUSZPCH1` header of a **single-chunk**
/// container whose one frame is `frame_len` bytes: container magic +
/// `num_chunks = 1` + the one-entry frame-length table. Writing this
/// header followed by the raw `CUSZP1` frame produces a byte stream
/// identical to [`cuszp_core::chunked::ChunkedCompressed::to_bytes`]
/// for a one-chunk container — without materializing it.
pub fn single_chunk_container_header(frame_len: u64) -> [u8; 20] {
    let mut b = [0u8; 20];
    b[0..8].copy_from_slice(&cuszp_core::chunked::CHUNK_MAGIC);
    b[8..12].copy_from_slice(&1u32.to_le_bytes());
    b[12..20].copy_from_slice(&frame_len.to_le_bytes());
    b
}

/// Total wire size of a single-chunk container around a `frame_len`-byte
/// `CUSZP1` frame.
pub fn single_chunk_container_len(frame_len: usize) -> usize {
    20 + frame_len
}

/// Write one frame given as consecutive `parts` (header, then payload
/// pieces) with gathered writes, so the whole frame usually leaves in a
/// single `writev`. A header written on its own would wake the peer
/// before its payload exists, costing each message an extra pair of
/// context switches whose timing depends on the scheduler.
pub(crate) fn write_frame<const N: usize>(
    w: &mut impl Write,
    parts: [&[u8]; N],
) -> std::io::Result<()> {
    let mut slices = parts.map(IoSlice::new);
    let mut rest = &mut slices[..];
    IoSlice::advance_slices(&mut rest, 0);
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_roundtrip() {
        let t = Tenant {
            tenant_id: 0xDEAD_BEEF_0042,
            dtype: DType::F64,
            bound: ErrorBound::Rel(1e-3),
            max_payload: 1 << 20,
            hybrid: false,
        };
        assert_eq!(Tenant::decode_hello(&t.encode_hello()), Ok(t));
        let abs = Tenant {
            bound: ErrorBound::Abs(0.5),
            dtype: DType::F32,
            ..t
        };
        assert_eq!(Tenant::decode_hello(&abs.encode_hello()), Ok(abs));
        let hybrid = Tenant { hybrid: true, ..t };
        let hello = hybrid.encode_hello();
        assert_eq!(hello[18], HELLO_FLAG_HYBRID);
        assert_eq!(Tenant::decode_hello(&hello), Ok(hybrid));
    }

    #[test]
    fn hello_rejects_each_bad_field() {
        let good = Tenant {
            tenant_id: 7,
            dtype: DType::F32,
            bound: ErrorBound::Abs(0.01),
            max_payload: 4096,
            hybrid: false,
        }
        .encode_hello();

        let mut b = good;
        b[0] = b'X';
        assert_eq!(Tenant::decode_hello(&b), Err(HS_BAD_MAGIC));

        let mut b = good;
        b[16] = 9;
        assert_eq!(Tenant::decode_hello(&b), Err(HS_BAD_DTYPE));

        let mut b = good;
        b[17] = 5; // unknown bound mode
        assert_eq!(Tenant::decode_hello(&b), Err(HS_BAD_BOUND));

        let mut b = good;
        b[18] = 2; // undefined flag bit
        assert_eq!(Tenant::decode_hello(&b), Err(HS_BAD_BOUND));

        let mut b = good;
        b[19] = 1; // reserved must be zero
        assert_eq!(Tenant::decode_hello(&b), Err(HS_BAD_BOUND));

        let mut b = good;
        b[20..28].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(Tenant::decode_hello(&b), Err(HS_BAD_BOUND));

        let mut b = good;
        b[20..28].copy_from_slice(&(-1.0f64).to_le_bytes());
        assert_eq!(Tenant::decode_hello(&b), Err(HS_BAD_BOUND));

        let mut b = good;
        b[28..32].copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(Tenant::decode_hello(&b), Err(HS_BAD_CAP));
    }

    #[test]
    fn frame_headers_are_le() {
        let r = encode_request_header(OP_COMPRESS, 0x0102_0304);
        assert_eq!(r, [b'C', 0x04, 0x03, 0x02, 0x01]);
        let s = encode_response_header(STATUS_BUSY, 0);
        assert_eq!(s, [1, 0, 0, 0, 0]);
    }

    /// A writer that takes at most `cap` bytes per call and fails every
    /// other call with `Interrupted`, like a busy socket.
    struct Trickle {
        cap: usize,
        calls: usize,
        got: Vec<u8>,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(2) {
                return Err(ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(self.cap);
            self.got.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_survives_short_and_interrupted_writes() {
        let payload: Vec<u8> = (0..=255).collect();
        for cap in [1, 3, 5, 7, 300] {
            let mut w = Trickle {
                cap,
                calls: 0,
                got: Vec::new(),
            };
            write_frame(&mut w, [&b"HEAD!"[..], &[], &payload, b"T"]).unwrap();
            assert_eq!(&w.got[..5], b"HEAD!");
            assert_eq!(&w.got[5..261], &payload[..]);
            assert_eq!(&w.got[261..], b"T");
        }
        let mut w = Trickle {
            cap: 0,
            calls: 0,
            got: Vec::new(),
        };
        let e = write_frame(&mut w, [&b"x"[..]]).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::WriteZero);
        write_frame(&mut w, [&[][..], &[]]).unwrap();
        assert_eq!(w.calls, 1, "empty frames issue no write");
    }

    #[test]
    fn single_chunk_header_matches_container_serialization() {
        // Compare against the owned-container writer on a real stream.
        let data: Vec<f32> = (0..256).map(|i| (i as f32 * 0.1).sin()).collect();
        let c = cuszp_core::Cuszp::new().compress_chunked(&data, ErrorBound::Abs(0.01), 256);
        let owned = c.to_bytes();
        let frame = &owned[20..];
        let mut wire = Vec::new();
        wire.extend_from_slice(&single_chunk_container_header(frame.len() as u64));
        wire.extend_from_slice(frame);
        assert_eq!(wire, owned);
        assert_eq!(wire.len(), single_chunk_container_len(frame.len()));
    }
}
