//! # cuszp-service — a multi-tenant, zero-allocation compression service
//!
//! A TCP front-end over the cuSZp host codec: clients connect, declare a
//! tenant configuration (dtype, error bound, payload cap) in one
//! handshake, then stream compress/decompress requests as
//! length-prefixed frames. Responses carry single-chunk `CUSZPCH1`
//! containers, so anything the service emits is directly consumable by
//! [`cuszp_core::chunk_ref_iter`] or storable on disk. Tenants that set
//! the hello's hybrid flag ([`protocol::HELLO_FLAG_HYBRID`]) opt into
//! the `CUSZPHY1` entropy second stage: compress responses become raw
//! hybrid frames whenever the stage wins, and decompress requests may
//! carry either format.
//!
//! The design goals, in order:
//!
//! 1. **Zero steady-state allocations.** Every connection owns a
//!    [`Scratch`] arena plus staging buffers, all pre-warmed at
//!    handshake time to the tenant's declared payload cap
//!    ([`Scratch::warm_for`] / [`cuszp_core::fast::max_stream_bytes`]).
//!    A request runs the codec on the connection thread that read it,
//!    over that arena, and the reply is written from the same buffers —
//!    after the first request, a connection's request loop performs
//!    **no heap operations** (proven by `tests/zero_alloc.rs`).
//! 2. **Bounded admission.** Before running the codec a request takes a
//!    slot from the server's admission gate: at most
//!    [`ServiceConfig::workers`] requests run the codec at once, at most
//!    [`ServiceConfig::queue_depth`] more wait for a slot, and anything
//!    beyond that gets an immediate `BUSY` reply, never a stalled
//!    client. The gate is the only admission policy — there is no
//!    hidden buffering.
//! 3. **Honest overload and shutdown.** [`Server::shutdown`] stops
//!    accepting, half-closes live connections so in-flight requests
//!    drain and their responses are delivered, then joins every
//!    connection thread.
//!
//! Live counters — request counts, socket and codec byte totals, the
//! achieved compression ratio, and a p50/p99 service-latency histogram —
//! are exported in Prometheus-style plain text over the in-band
//! `M` (metrics) op. See `docs/SERVICE.md` for the operator guide and
//! the normative wire-format description.
//!
//! ```no_run
//! use cuszp_service::{Client, ServiceConfig, Server, Tenant};
//! use cuszp_core::{DType, ErrorBound};
//!
//! let server = Server::start(ServiceConfig::default()).unwrap();
//! let tenant = Tenant {
//!     tenant_id: 1,
//!     dtype: DType::F32,
//!     bound: ErrorBound::Abs(1e-2),
//!     max_payload: 1 << 20,
//!     hybrid: false,
//! };
//! let mut client = Client::connect(server.addr(), tenant).unwrap();
//! let data: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.02).sin()).collect();
//! let container = client.compress_f32(&data).unwrap().to_vec();
//! let mut restored = Vec::new();
//! client.decompress_f32(&container, &mut restored).unwrap();
//! assert_eq!(restored.len(), data.len());
//! server.shutdown();
//! ```

#![deny(missing_docs)]

pub mod client;
pub mod metrics;
pub mod protocol;

pub use client::{Client, ServiceError};
pub use metrics::{LatencyHistogram, ServiceMetrics, LATENCY_BUCKETS};
pub use protocol::Tenant;

use cuszp_core::fast;
use cuszp_core::hybrid::{self, HybridScratch, DEFAULT_CHUNK_BLOCKS, HYBRID_MAGIC};
use cuszp_core::{chunk_ref_iter, CuszpConfig, DType, ErrorBound, FloatData, Scratch};
use protocol::*;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address; use port `0` to let the OS pick (read it back from
    /// [`Server::addr`]).
    pub addr: String,
    /// Requests that may run the codec at once (each on its own
    /// connection thread); `0` is treated as `1`.
    pub workers: usize,
    /// Requests that may wait for a codec slot beyond the ones running;
    /// `0` makes admission a rendezvous (a request is admitted only when
    /// a slot is free right now). Once the bound is hit, further
    /// requests get `BUSY`.
    pub queue_depth: usize,
    /// Server-wide cap on a connection's raw payload size; tenant asks
    /// are clamped to this.
    pub max_payload: u32,
    /// Codec configuration applied to every compress request.
    pub codec: CuszpConfig,
    /// Artificial minimum per-job service time, applied while the
    /// request holds its codec slot. `ZERO` (the default) for production;
    /// nonzero makes overload deterministic for tests and lets the load
    /// generator emulate slower codecs.
    pub service_floor: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_depth: 2,
            max_payload: 16 << 20,
            codec: CuszpConfig::default(),
            service_floor: Duration::ZERO,
        }
    }
}

/// Little-endian wire conversion for the two element types the codec
/// supports. Both directions convert a whole buffer in one pass, which
/// the compiler vectorises. Kept crate-private: the public API speaks
/// `f32`/`f64`.
pub(crate) trait WireFloat: FloatData {
    /// Element size on the wire, in bytes.
    const WIRE_SIZE: usize;
    /// Append the little-endian bytes of every element of `src` to `out`.
    fn extend_le(src: &[Self], out: &mut Vec<u8>);
    /// Append one element per whole `WIRE_SIZE` bytes of `src` to `out`.
    /// A trailing partial element is ignored: callers reject ragged
    /// payloads first.
    fn extend_from_le(src: &[u8], out: &mut Vec<Self>);
}

macro_rules! wire_float {
    ($t:ty) => {
        impl WireFloat for $t {
            const WIRE_SIZE: usize = std::mem::size_of::<$t>();
            fn extend_le(src: &[$t], out: &mut Vec<u8>) {
                out.extend(src.iter().flat_map(|v| v.to_le_bytes()));
            }
            fn extend_from_le(src: &[u8], out: &mut Vec<$t>) {
                out.extend(
                    src.chunks_exact(Self::WIRE_SIZE)
                        .map(|b| <$t>::from_le_bytes(b.try_into().unwrap())),
                );
            }
        }
    };
}

wire_float!(f32);
wire_float!(f64);

/// A connection's session arena: every buffer a request needs, warmed
/// once at handshake and reused by every request on the connection.
struct ConnBufs {
    tenant: Tenant,
    codec: CuszpConfig,
    /// Raw request payload as read off the socket.
    input: Vec<u8>,
    /// Typed staging for the tenant's dtype (only one is ever used).
    f32s: Vec<f32>,
    f64s: Vec<f64>,
    /// Response payload: a `CUSZP1` frame or raw `CUSZPHY1` hybrid frame
    /// (compress) or raw LE bytes (decompress).
    out: Vec<u8>,
    /// Hybrid tenants' first-stage staging: the plain `CUSZP1` frame the
    /// entropy stage re-encodes from (and the fallback response when the
    /// stage does not win).
    stage: Vec<u8>,
    /// Hybrid chunk staging, warmed alongside `scratch`.
    hs: HybridScratch,
    scratch: Scratch,
}

impl ConnBufs {
    fn new(tenant: Tenant, codec: CuszpConfig) -> ConnBufs {
        let mut b = ConnBufs {
            tenant,
            codec,
            input: Vec::new(),
            f32s: Vec::new(),
            f64s: Vec::new(),
            out: Vec::new(),
            stage: Vec::new(),
            hs: HybridScratch::new(),
            scratch: Scratch::new(),
        };
        b.warm();
        b
    }

    /// Pre-size every buffer for the tenant's declared payload cap, so
    /// the first request — and all that follow — run allocation-free.
    fn warm(&mut self) {
        let cap = self.tenant.max_payload as usize;
        let elems = cap / self.tenant.dtype.size();
        self.input.reserve(cap);
        let (stream_cap, frame_cap) = match self.tenant.dtype {
            DType::F32 => {
                self.f32s.reserve(elems);
                self.scratch.warm_for::<f32>(elems, self.codec);
                if self.tenant.hybrid {
                    self.hs
                        .warm_for::<f32>(elems, self.codec, hybrid::AUTO_CHUNK_MAX_BLOCKS);
                }
                (
                    fast::max_stream_bytes::<f32>(elems, self.codec),
                    hybrid::max_frame_bytes::<f32>(elems, self.codec, DEFAULT_CHUNK_BLOCKS),
                )
            }
            DType::F64 => {
                self.f64s.reserve(elems);
                self.scratch.warm_for::<f64>(elems, self.codec);
                if self.tenant.hybrid {
                    self.hs
                        .warm_for::<f64>(elems, self.codec, hybrid::AUTO_CHUNK_MAX_BLOCKS);
                }
                (
                    fast::max_stream_bytes::<f64>(elems, self.codec),
                    hybrid::max_frame_bytes::<f64>(elems, self.codec, DEFAULT_CHUNK_BLOCKS),
                )
            }
        };
        // `out` carries a compressed frame (plain or hybrid) or decoded
        // raw bytes; hybrid tenants stage the plain frame separately.
        let out_cap = if self.tenant.hybrid {
            self.stage.reserve(stream_cap);
            stream_cap.max(frame_cap)
        } else {
            stream_cap
        };
        self.out.reserve(out_cap.max(cap));
    }
}

/// Compress `input` (raw LE elements) for element type `T`; `floats` is
/// the matching typed staging buffer. Hybrid tenants run the `CUSZPHY1`
/// second stage over the plain frame staged in `stage`; when the stage
/// does not shrink the frame, the plain frame is the response (and ships
/// container-wrapped as usual).
#[allow(clippy::too_many_arguments)]
fn process_compress_typed<T: WireFloat>(
    input: &[u8],
    floats: &mut Vec<T>,
    scratch: &mut Scratch,
    stage: &mut Vec<u8>,
    hs: &mut HybridScratch,
    out: &mut Vec<u8>,
    bound: ErrorBound,
    codec: CuszpConfig,
    hybrid_stage: bool,
) -> Result<(), &'static str> {
    if !input.len().is_multiple_of(T::WIRE_SIZE) {
        return Err("compress payload is not a whole number of elements");
    }
    floats.clear();
    T::extend_from_le(input, floats);
    let eb = match bound {
        ErrorBound::Abs(d) => d,
        ErrorBound::Rel(l) => {
            let eb = l * cuszp_core::value_range(floats);
            if !eb.is_finite() || eb <= 0.0 {
                return Err("REL bound cannot resolve: empty, constant, or non-finite data");
            }
            eb
        }
    };
    if hybrid_stage {
        let r = fast::compress_into(scratch, floats, eb, codec, stage);
        let level = cuszp_core::simd::resolve_level(codec.simd);
        hybrid::encode_at(&r, hybrid::auto_chunk_blocks(&r), level, hs, out);
        if out.len() >= stage.len() {
            out.clear();
            out.extend_from_slice(stage);
        }
    } else {
        fast::compress_into(scratch, floats, eb, codec, out);
    }
    Ok(())
}

/// Decompress `input` (one `CUSZPCH1` container, or — for hybrid
/// tenants — a raw `CUSZPHY1` frame) for element type `T`, leaving raw
/// LE bytes in `out`.
fn process_decompress_typed<T: WireFloat>(
    input: &[u8],
    floats: &mut Vec<T>,
    scratch: &mut Scratch,
    hs: &mut HybridScratch,
    out: &mut Vec<u8>,
    cap: u32,
    hybrid_stage: bool,
) -> Result<(), &'static str> {
    if hybrid_stage && input.starts_with(&HYBRID_MAGIC) {
        let r = hybrid::HybridRef::parse(input).map_err(|_| "malformed CUSZPHY1 frame")?;
        if r.dtype != T::DTYPE {
            return Err("hybrid frame dtype does not match tenant dtype");
        }
        let total = r.num_elements as usize;
        if total
            .checked_mul(T::WIRE_SIZE)
            .is_none_or(|b| b as u64 > cap as u64)
        {
            return Err("decoded size exceeds tenant payload cap");
        }
        floats.clear();
        floats.resize(total, T::from_f64(0.0));
        hybrid::decode_into(&r, hs, scratch, floats).map_err(|_| "corrupt CUSZPHY1 chunk")?;
        out.clear();
        T::extend_le(floats, out);
        return Ok(());
    }
    // Pass 1: framing + totals. `chunk_ref_iter` validates the container
    // table up front; per-chunk headers are validated as we walk.
    let mut total = 0usize;
    for chunk in chunk_ref_iter(input).map_err(|_| "malformed CUSZPCH1 container")? {
        let chunk = chunk.map_err(|_| "malformed chunk in container")?;
        if chunk.dtype != T::DTYPE {
            return Err("container dtype does not match tenant dtype");
        }
        total += chunk.num_elements as usize;
    }
    if total
        .checked_mul(T::WIRE_SIZE)
        .is_none_or(|b| b as u64 > cap as u64)
    {
        return Err("decoded size exceeds tenant payload cap");
    }
    // Pass 2: decode each chunk into its slice of the staging buffer.
    floats.clear();
    floats.resize(total, T::from_f64(0.0));
    let mut at = 0usize;
    for chunk in chunk_ref_iter(input).expect("validated in pass 1") {
        let chunk = chunk.expect("validated in pass 1");
        let n = chunk.num_elements as usize;
        fast::decompress_into(chunk, scratch, &mut floats[at..at + n]);
        at += n;
    }
    out.clear();
    T::extend_le(floats, out);
    Ok(())
}

/// Run one admitted request's codec work over the session arena,
/// leaving the response payload in `b.out`.
fn process(b: &mut ConnBufs, compress: bool) -> Result<(), &'static str> {
    let ConnBufs {
        tenant,
        codec,
        input,
        f32s,
        f64s,
        out,
        stage,
        hs,
        scratch,
    } = b;
    let (cap, hybrid) = (tenant.max_payload, tenant.hybrid);
    match (compress, tenant.dtype) {
        (true, DType::F32) => process_compress_typed(
            input,
            f32s,
            scratch,
            stage,
            hs,
            out,
            tenant.bound,
            *codec,
            hybrid,
        ),
        (true, DType::F64) => process_compress_typed(
            input,
            f64s,
            scratch,
            stage,
            hs,
            out,
            tenant.bound,
            *codec,
            hybrid,
        ),
        (false, DType::F32) => process_decompress_typed(input, f32s, scratch, hs, out, cap, hybrid),
        (false, DType::F64) => process_decompress_typed(input, f64s, scratch, hs, out, cap, hybrid),
    }
}

/// The server's admission gate, shared by every connection thread: at
/// most `workers` requests run the codec at once and at most
/// `queue_depth` more wait for a slot; anything beyond that is refused.
/// The lock is held only to update the counts, never across codec work.
struct Admission {
    workers: usize,
    queue_depth: usize,
    state: Mutex<Gate>,
    /// Signalled each time a slot frees.
    freed: Condvar,
}

/// Admission counts, guarded by [`Admission::state`].
#[derive(Default)]
struct Gate {
    running: usize,
    waiting: usize,
    /// Requests that ran the codec to completion, over the server's
    /// lifetime.
    processed: u64,
}

impl Admission {
    fn new(workers: usize, queue_depth: usize) -> Admission {
        Admission {
            workers: workers.max(1),
            queue_depth,
            state: Mutex::new(Gate::default()),
            freed: Condvar::new(),
        }
    }

    /// The gate's counts. Nothing panics while holding the lock, and a
    /// poisoned gate must not turn into a server that refuses everything.
    fn lock(&self) -> MutexGuard<'_, Gate> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Take a codec slot, waiting for one while the queue has room.
    /// `None` means the request gets `BUSY`.
    fn enter(&self) -> Option<Slot<'_>> {
        let mut g = self.lock();
        if g.running == self.workers {
            if g.waiting == self.queue_depth {
                return None;
            }
            g.waiting += 1;
            g = self
                .freed
                .wait_while(g, |g| g.running == self.workers)
                .unwrap_or_else(PoisonError::into_inner);
            g.waiting -= 1;
        }
        g.running += 1;
        Some(Slot(self))
    }

    fn processed(&self) -> u64 {
        self.lock().processed
    }
}

/// A held codec slot. Dropping it — after the codec returns, or while
/// unwinding out of a panicking codec — frees the slot and wakes one
/// waiting request.
struct Slot<'a>(&'a Admission);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let mut g = self.0.lock();
        g.running -= 1;
        if !std::thread::panicking() {
            g.processed += 1;
        }
        drop(g);
        self.0.freed.notify_one();
    }
}

/// A running compression service. Dropping the server shuts it down;
/// prefer calling [`Server::shutdown`] explicitly to observe the drain.
pub struct Server {
    addr: SocketAddr,
    metrics: Arc<ServiceMetrics>,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    accept: Option<JoinHandle<()>>,
    admission: Arc<Admission>,
}

impl Server {
    /// Bind, spawn the accept loop, and return a handle. The server is
    /// ready for connections when this returns.
    pub fn start(cfg: ServiceConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;

        let metrics = Arc::new(ServiceMetrics::new());
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let admission = Arc::new(Admission::new(cfg.workers, cfg.queue_depth));

        let accept = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let metrics = Arc::clone(&metrics);
            let admission = Arc::clone(&admission);
            std::thread::spawn(move || accept_loop(listener, stop, conns, metrics, admission, cfg))
        };

        Ok(Server {
            addr,
            metrics,
            stop,
            conns,
            accept: Some(accept),
            admission,
        })
    }

    /// The bound address (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared handle to the live metrics (also scrapeable in-band via
    /// the `M` op).
    pub fn metrics(&self) -> Arc<ServiceMetrics> {
        Arc::clone(&self.metrics)
    }

    fn shutdown_impl(&mut self) -> u64 {
        // 1. Stop admitting new connections. The accept loop blocks in
        //    `accept`; one throwaway connection wakes it to see the flag.
        self.stop.store(true, Ordering::SeqCst);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect(wake);
        // 2. Half-close live connections: handlers finish the request
        //    they are on (its response is still written — the write side
        //    stays open), then see EOF and exit.
        for c in self.conns.lock().expect("conn registry").iter() {
            let _ = c.shutdown(Shutdown::Read);
        }
        // 3. The accept thread joins every handler; a request waiting
        //    for a codec slot still runs before its handler exits.
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.admission.processed()
    }

    /// Graceful shutdown: stop accepting, drain in-flight requests
    /// (their responses are delivered), join every thread. Returns the
    /// total number of requests that ran the codec over the server's
    /// lifetime.
    pub fn shutdown(mut self) -> u64 {
        self.shutdown_impl()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.shutdown_impl();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    metrics: Arc<ServiceMetrics>,
    admission: Arc<Admission>,
    cfg: ServiceConfig,
) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        let Ok(stream) = stream else { break };
        // Register under the lock, re-checking the stop flag inside it:
        // `shutdown` sets the flag *then* wakes this loop and walks the
        // registry, so a connection is either registered (and will be
        // half-closed) or refused — never orphaned.
        {
            let mut reg = conns.lock().expect("conn registry");
            if stop.load(Ordering::SeqCst) {
                break;
            }
            if let Ok(clone) = stream.try_clone() {
                reg.push(clone);
            }
        }
        let admission = Arc::clone(&admission);
        let metrics = Arc::clone(&metrics);
        let server_cap = cfg.max_payload;
        let codec = cfg.codec;
        let floor = cfg.service_floor;
        handlers.push(std::thread::spawn(move || {
            handle_conn(stream, &admission, metrics, server_cap, codec, floor);
        }));
    }
    for h in handlers {
        let _ = h.join();
    }
}

/// One connection's lifetime: handshake, then the request loop. All
/// steady-state I/O reuses the session arena; the only allocations
/// happen during the handshake warm-up.
fn handle_conn(
    mut stream: TcpStream,
    admission: &Admission,
    metrics: Arc<ServiceMetrics>,
    server_cap: u32,
    codec: CuszpConfig,
    floor: Duration,
) {
    metrics.total_connections.fetch_add(1, Ordering::Relaxed);
    metrics.active_connections.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_nodelay(true);

    let result = run_session(&mut stream, admission, &metrics, server_cap, codec, floor);
    let _ = result; // all exits are normal teardown: EOF, error reply, or shutdown
    metrics.active_connections.fetch_sub(1, Ordering::Relaxed);
}

fn run_session(
    stream: &mut TcpStream,
    admission: &Admission,
    metrics: &ServiceMetrics,
    server_cap: u32,
    codec: CuszpConfig,
    floor: Duration,
) -> std::io::Result<()> {
    // --- Handshake ---------------------------------------------------
    let mut hello = [0u8; HANDSHAKE_BYTES];
    stream.read_exact(&mut hello)?;
    let tenant = match Tenant::decode_hello(&hello) {
        Ok(t) => t,
        Err(code) => {
            stream.write_all(&encode_handshake_reply(STATUS_ERR, code, 0))?;
            metrics.errors.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
    };
    let effective = tenant.max_payload.min(server_cap);
    let tenant = Tenant {
        max_payload: effective,
        ..tenant
    };
    stream.write_all(&encode_handshake_reply(STATUS_OK, 0, effective))?;

    // --- Session arena (the connection's entire allocation budget) ---
    let mut bufs = ConnBufs::new(tenant, codec);
    let mut metrics_text = String::with_capacity(8192);

    // --- Request loop ------------------------------------------------
    loop {
        let mut hdr = [0u8; REQUEST_HEADER_BYTES];
        if stream.read_exact(&mut hdr).is_err() {
            return Ok(()); // client EOF or shutdown half-close
        }
        let op = hdr[0];
        let len = u32::from_le_bytes(hdr[1..5].try_into().unwrap());
        let t0 = Instant::now();

        match op {
            OP_METRICS if len == 0 => {
                metrics_text.clear();
                metrics.render_text(&mut metrics_text);
                let body = metrics_text.as_bytes();
                let header = encode_response_header(STATUS_OK, body.len() as u32);
                write_frame(stream, [&header, body])?;
                metrics
                    .bytes_in
                    .fetch_add(REQUEST_HEADER_BYTES as u64, Ordering::Relaxed);
                metrics.bytes_out.fetch_add(
                    (RESPONSE_HEADER_BYTES + body.len()) as u64,
                    Ordering::Relaxed,
                );
            }
            OP_COMPRESS | OP_DECOMPRESS => {
                if len as u64 > tenant.max_payload as u64 {
                    // The oversized payload was never read — the stream
                    // position is untrusted, so reply and close.
                    reply_err(stream, metrics, "request exceeds tenant payload cap")?;
                    return Ok(());
                }
                bufs.input.clear();
                bufs.input.resize(len as usize, 0);
                if stream.read_exact(&mut bufs.input).is_err() {
                    return Ok(());
                }
                metrics.bytes_in.fetch_add(
                    (REQUEST_HEADER_BYTES + len as usize) as u64,
                    Ordering::Relaxed,
                );

                // The slot is released at the end of this block, before
                // the reply is written: a client that reads slowly never
                // holds a codec slot.
                let result = match admission.enter() {
                    Some(_slot) => {
                        let result = process(&mut bufs, op == OP_COMPRESS);
                        if !floor.is_zero() {
                            std::thread::sleep(floor);
                        }
                        result
                    }
                    None => {
                        stream.write_all(&encode_response_header(STATUS_BUSY, 0))?;
                        metrics.busy_rejections.fetch_add(1, Ordering::Relaxed);
                        metrics
                            .bytes_out
                            .fetch_add(RESPONSE_HEADER_BYTES as u64, Ordering::Relaxed);
                        continue;
                    }
                };
                write_codec_response(stream, metrics, &bufs.out, result, op, len)?;
                metrics.latency.record(t0.elapsed());
            }
            _ => {
                // Unknown op: the `len` field is untrusted — reply and
                // close rather than resynchronize.
                reply_err(stream, metrics, "unknown request op")?;
                return Ok(());
            }
        }
    }
}

/// Write an `ERR` response carrying a static message.
fn reply_err(
    stream: &mut TcpStream,
    metrics: &ServiceMetrics,
    msg: &'static str,
) -> std::io::Result<()> {
    metrics.errors.fetch_add(1, Ordering::Relaxed);
    let header = encode_response_header(STATUS_ERR, msg.len() as u32);
    write_frame(stream, [&header, msg.as_bytes()])?;
    metrics.bytes_out.fetch_add(
        (RESPONSE_HEADER_BYTES + msg.len()) as u64,
        Ordering::Relaxed,
    );
    Ok(())
}

/// Write the response for a processed codec request and account for it.
/// `out` is the response payload on success; `req_len` is the request
/// payload length (the raw size of a compress request, the stream size
/// of a decompress request).
fn write_codec_response(
    stream: &mut TcpStream,
    metrics: &ServiceMetrics,
    out: &[u8],
    result: Result<(), &'static str>,
    op: u8,
    req_len: u32,
) -> std::io::Result<()> {
    match result {
        Ok(()) if op == OP_COMPRESS => {
            // Response payload: a single-chunk CUSZPCH1 container,
            // written as header + frame without materializing it — or,
            // when the hybrid second stage won, the raw self-framing
            // CUSZPHY1 frame.
            let wrap = single_chunk_container_header(out.len() as u64);
            let wrap: &[u8] = if out.starts_with(&HYBRID_MAGIC) {
                &[]
            } else {
                &wrap
            };
            let total = wrap.len() + out.len();
            let header = encode_response_header(STATUS_OK, total as u32);
            write_frame(stream, [&header, wrap, out])?;
            metrics.compress_requests.fetch_add(1, Ordering::Relaxed);
            metrics
                .raw_bytes
                .fetch_add(req_len as u64, Ordering::Relaxed);
            metrics
                .stream_bytes
                .fetch_add(total as u64, Ordering::Relaxed);
            metrics
                .bytes_out
                .fetch_add((RESPONSE_HEADER_BYTES + total) as u64, Ordering::Relaxed);
        }
        Ok(()) => {
            // Decompress: payload is the raw little-endian elements.
            let header = encode_response_header(STATUS_OK, out.len() as u32);
            write_frame(stream, [&header, out])?;
            metrics.decompress_requests.fetch_add(1, Ordering::Relaxed);
            metrics
                .raw_bytes
                .fetch_add(out.len() as u64, Ordering::Relaxed);
            metrics
                .stream_bytes
                .fetch_add(req_len as u64, Ordering::Relaxed);
            metrics.bytes_out.fetch_add(
                (RESPONSE_HEADER_BYTES + out.len()) as u64,
                Ordering::Relaxed,
            );
        }
        Err(msg) => reply_err(stream, metrics, msg)?,
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_codec_frees_its_slot() {
        let gate = Admission::new(1, 0);
        let unwound = std::panic::catch_unwind(|| {
            let _slot = gate.enter().expect("the only slot is free");
            assert!(gate.enter().is_none(), "a full rendezvous gate refuses");
            panic!("codec panicked while holding the slot");
        });
        assert!(unwound.is_err());
        assert!(
            gate.enter().is_some(),
            "unwinding out of the codec must free its slot"
        );
        assert_eq!(gate.processed(), 1, "only the completed request counts");
    }

    /// The IEEE special cases followed by xorshift64 bit patterns.
    fn bit_patterns(specials: &[u64]) -> Vec<u64> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut bits = specials.to_vec();
        bits.extend((0..4099).map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }));
        bits
    }

    /// `extend_le`/`extend_from_le` against per-element
    /// `to_le_bytes`/`from_le_bytes`, compared bit for bit; both append
    /// after existing contents.
    fn check_wire<T: WireFloat>(
        vals: &[T],
        to_le: impl Fn(T) -> Vec<u8>,
        from_le: impl Fn(&[u8]) -> T,
        bits: impl Fn(T) -> u64,
    ) {
        let mut want = vec![0xA5];
        for &v in vals {
            want.extend(to_le(v));
        }
        let mut bytes = vec![0xA5];
        T::extend_le(vals, &mut bytes);
        assert_eq!(bytes, want);

        let mut back = vec![vals[0]];
        T::extend_from_le(&bytes[1..], &mut back);
        assert_eq!(back.len(), vals.len() + 1);
        for (i, (&got, chunk)) in back[1..]
            .iter()
            .zip(bytes[1..].chunks_exact(T::WIRE_SIZE))
            .enumerate()
        {
            assert_eq!(bits(got), bits(from_le(chunk)), "element {i}");
            assert_eq!(bits(got), bits(vals[i]), "element {i}");
        }
    }

    #[test]
    fn bulk_wire_conversion_is_bit_exact() {
        let f32s: Vec<f32> = bit_patterns(&[
            0x0000_0000, // +0
            0x8000_0000, // -0
            0x7F80_0000, // +inf
            0xFF80_0000, // -inf
            0x0000_0001, // smallest subnormal
            0x807F_FFFF, // largest negative subnormal
            0x7FC0_0000, // quiet NaN
            0x7FA0_1234, // signalling NaN with payload
            0xFFC0_BEEF, // negative quiet NaN with payload
        ])
        .into_iter()
        .map(|b| f32::from_bits(b as u32))
        .collect();
        check_wire(
            &f32s,
            |v| v.to_le_bytes().to_vec(),
            |b| f32::from_le_bytes(b.try_into().unwrap()),
            |v| v.to_bits() as u64,
        );

        let f64s: Vec<f64> = bit_patterns(&[
            0x0000_0000_0000_0000,
            0x8000_0000_0000_0000,
            0x7FF0_0000_0000_0000,
            0xFFF0_0000_0000_0000,
            0x0000_0000_0000_0001,
            0x800F_FFFF_FFFF_FFFF,
            0x7FF8_0000_0000_0000,
            0x7FF4_0000_DEAD_BEEF,
            0xFFF8_0000_0000_1234,
        ])
        .into_iter()
        .map(f64::from_bits)
        .collect();
        check_wire(
            &f64s,
            |v| v.to_le_bytes().to_vec(),
            |b| f64::from_le_bytes(b.try_into().unwrap()),
            f64::to_bits,
        );
    }
}
