//! A blocking client for the `CUSZPSV1` protocol with reusable wire
//! buffers: after the first request of each kind, a client performs no
//! heap allocations on the success path — matching the server's
//! zero-allocation steady state, which keeps load-generator
//! measurements honest.

use crate::protocol::*;
use crate::WireFloat;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Why a request did not produce a result.
#[derive(Debug)]
pub enum ServiceError {
    /// The server's admission queue was full; the request was **not**
    /// processed. Safe to retry.
    Busy,
    /// The server rejected the request; the message is available from
    /// [`Client::last_error`] until the next request.
    Remote,
    /// The connection failed.
    Io(std::io::Error),
}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        ServiceError::Io(e)
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Busy => write!(f, "server busy (admission queue full)"),
            ServiceError::Remote => write!(f, "server rejected the request"),
            ServiceError::Io(e) => write!(f, "connection error: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// A connected tenant session.
pub struct Client {
    stream: TcpStream,
    tenant: Tenant,
    /// Request payload staging (little-endian element bytes).
    wire: Vec<u8>,
    /// Response payload buffer; compressed containers are borrowed from
    /// it by [`Client::compress_f32`] / [`Client::compress_f64`].
    resp: Vec<u8>,
    /// Last `ERR` message from the server (reused).
    errmsg: String,
}

impl Client {
    /// Connect and perform the `CUSZPSV1` handshake. On success the
    /// client's buffers are pre-sized for the **effective** payload cap
    /// (the tenant's ask clamped by the server — see
    /// [`Client::effective_max_payload`]), so steady-state requests
    /// allocate nothing.
    pub fn connect(addr: impl ToSocketAddrs, tenant: Tenant) -> std::io::Result<Client> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.write_all(&tenant.encode_hello())?;
        let mut reply = [0u8; HANDSHAKE_REPLY_BYTES];
        stream.read_exact(&mut reply)?;
        if reply[0] != STATUS_OK {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("handshake rejected (code {})", reply[1]),
            ));
        }
        let effective = u32::from_le_bytes(reply[4..8].try_into().unwrap());
        let tenant = Tenant {
            max_payload: effective,
            ..tenant
        };
        let cap = effective as usize;
        let elems = cap / tenant.dtype.size();
        let cfg = cuszp_core::CuszpConfig::default();
        let chunk = cuszp_core::hybrid::DEFAULT_CHUNK_BLOCKS;
        // Hybrid tenants may receive raw CUSZPHY1 frames, whose
        // worst-case (chunk-table overhead) can exceed the container's.
        let (stream_cap, frame_cap) = match tenant.dtype {
            cuszp_core::DType::F32 => (
                cuszp_core::fast::max_stream_bytes::<f32>(elems, cfg),
                cuszp_core::hybrid::max_frame_bytes::<f32>(elems, cfg, chunk),
            ),
            cuszp_core::DType::F64 => (
                cuszp_core::fast::max_stream_bytes::<f64>(elems, cfg),
                cuszp_core::hybrid::max_frame_bytes::<f64>(elems, cfg, chunk),
            ),
        };
        let mut resp_cap = single_chunk_container_len(stream_cap).max(cap);
        if tenant.hybrid {
            resp_cap = resp_cap.max(frame_cap);
        }
        let wire = Vec::with_capacity(cap);
        let resp = Vec::with_capacity(resp_cap);
        Ok(Client {
            stream,
            tenant,
            wire,
            resp,
            errmsg: String::with_capacity(128),
        })
    }

    /// The payload cap actually in force on this connection (the
    /// handshake's clamped echo).
    pub fn effective_max_payload(&self) -> u32 {
        self.tenant.max_payload
    }

    /// The tenant configuration in force (with the effective cap).
    pub fn tenant(&self) -> Tenant {
        self.tenant
    }

    /// The server's message from the most recent `ERR` reply.
    pub fn last_error(&self) -> &str {
        &self.errmsg
    }

    /// Read one response frame into `self.resp`; maps BUSY/ERR to the
    /// error enum.
    fn read_response(&mut self) -> Result<(), ServiceError> {
        let mut hdr = [0u8; RESPONSE_HEADER_BYTES];
        self.stream.read_exact(&mut hdr)?;
        let len = u32::from_le_bytes(hdr[1..5].try_into().unwrap()) as usize;
        self.resp.clear();
        self.resp.resize(len, 0);
        self.stream.read_exact(&mut self.resp)?;
        match hdr[0] {
            STATUS_OK => Ok(()),
            STATUS_BUSY => Err(ServiceError::Busy),
            _ => {
                self.errmsg.clear();
                self.errmsg
                    .push_str(std::str::from_utf8(&self.resp).unwrap_or("<non-utf8 error>"));
                Err(ServiceError::Remote)
            }
        }
    }

    fn compress_impl<T: WireFloat>(&mut self, data: &[T]) -> Result<&[u8], ServiceError> {
        self.wire.clear();
        T::extend_le(data, &mut self.wire);
        let header = encode_request_header(OP_COMPRESS, self.wire.len() as u32);
        write_frame(&mut self.stream, [&header, &self.wire])?;
        self.read_response()?;
        Ok(&self.resp)
    }

    fn decompress_impl<T: WireFloat>(
        &mut self,
        container: &[u8],
        out: &mut Vec<T>,
    ) -> Result<(), ServiceError> {
        let header = encode_request_header(OP_DECOMPRESS, container.len() as u32);
        write_frame(&mut self.stream, [&header, container])?;
        self.read_response()?;
        if !self.resp.len().is_multiple_of(T::WIRE_SIZE) {
            return Err(ServiceError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "decompress reply is not a whole number of elements",
            )));
        }
        out.clear();
        T::extend_from_le(&self.resp, out);
        Ok(())
    }

    /// Compress `data` under the tenant's bound; returns the single-chunk
    /// `CUSZPCH1` container — or, for hybrid tenants whose entropy stage
    /// won, a raw `CUSZPHY1` frame — borrowed from the client's reused
    /// response buffer (copy it out to keep it past the next request).
    /// Either payload is accepted back by [`Client::decompress_f32`].
    pub fn compress_f32(&mut self, data: &[f32]) -> Result<&[u8], ServiceError> {
        self.compress_impl(data)
    }

    /// [`Client::compress_f32`] for `f64` tenants.
    pub fn compress_f64(&mut self, data: &[f64]) -> Result<&[u8], ServiceError> {
        self.compress_impl(data)
    }

    /// Decompress a `CUSZPCH1` container (or, on hybrid connections, a
    /// `CUSZPHY1` frame) into `out` (cleared first). An `OK` reply that
    /// is not a whole number of elements is an
    /// [`std::io::ErrorKind::InvalidData`] error, never truncated data.
    pub fn decompress_f32(
        &mut self,
        container: &[u8],
        out: &mut Vec<f32>,
    ) -> Result<(), ServiceError> {
        self.decompress_impl(container, out)
    }

    /// [`Client::decompress_f32`] for `f64` tenants.
    pub fn decompress_f64(
        &mut self,
        container: &[u8],
        out: &mut Vec<f64>,
    ) -> Result<(), ServiceError> {
        self.decompress_impl(container, out)
    }

    /// Fetch the server's plain-text metrics snapshot into `out`
    /// (cleared first).
    pub fn metrics_into(&mut self, out: &mut String) -> Result<(), ServiceError> {
        self.stream
            .write_all(&encode_request_header(OP_METRICS, 0))?;
        self.read_response()?;
        out.clear();
        out.push_str(std::str::from_utf8(&self.resp).unwrap_or(""));
        Ok(())
    }
}
