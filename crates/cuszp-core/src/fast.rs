//! The optimized host codec — byte-identical to [`crate::host_ref`],
//! restructured for speed.
//!
//! `host_ref` walks the pipeline step by step per block (quantize →
//! plan → sign map → abs pass → bit-by-bit shuffle) and grows the payload
//! `Vec` as it goes. This module instead mirrors the GPU kernel's own
//! **two-phase** structure on the host (paper §4.3):
//!
//! - **Phase 1** fuses quantize + Lorenzo + `(F, CmpL)` planning +
//!   encoding per *tile* of blocks: residuals live in a small reused
//!   scratch that stays cache-resident (never a data-sized buffer), the
//!   quantization arithmetic runs through [`crate::simd`] (AVX-512 when
//!   the host has it, bit-exact scalar otherwise), and each block's sign
//!   map + bit planes are emitted into the worker's staging buffer the
//!   moment the tile is planned — the host analogue of the GPU kernel
//!   encoding into shared memory before the global offsets exist.
//! - An exclusive **prefix sum** over the per-block `CmpL` table — the
//!   host edition of the paper's Global Synchronization step — fixes
//!   every block's payload offset.
//! - **Phase 2** places each worker's staged bytes at its scanned offset
//!   in the final payload. Staged bytes are already exactly the final
//!   bytes (fraction ⓑ is a plain concatenation), so placement is a
//!   bulk copy.
//!
//! The bit-plane work itself is word-parallel twice over: per 8-value
//! group, the magnitudes' byte matrix is transposed
//! ([`crate::bitshuffle::byte_transpose8x8`]) to expose each 8-plane
//! chunk as one `u64`, each chunk is bit-transposed
//! ([`crate::bitshuffle::transpose8x8`]), and a second byte transpose
//! across groups turns the results into whole plane *rows*, stored with
//! word writes instead of strided byte writes. Decoding runs the same
//! three transposes backwards (each is an involution).
//!
//! ## The error bound
//!
//! Compression is lossy in one step only, the quantizer: every element
//! `d` becomes `q = round(d / 2eb)` (ties away from zero), and decoding
//! returns `q·2eb`, within `eb` of `d` (paper §4.1). Every tier of
//! [`simd::quantize_blocks`] returns exactly [`crate::host_ref`]'s `q`,
//! so the bound and the bytes are the reference's. The AVX-512 tier gets
//! `q` without dividing. It multiplies by `fl(1/2eb)`; the product is
//! within 3u·|y| of the quotient `y` (u = 2⁻⁵³). Where a lane lies
//! within `2⁻⁵⁰·|y'| + 2⁻¹⁰²²` of a half-integer, the product's rounding
//! is not provably the quotient's, and the vector is redone with the
//! exact divide. Everything after the quantizer (Lorenzo, fixed-length
//! planes, GS) is lossless.
//!
//! ## Entry points
//!
//! Four codec functions carry every path; the rest forward to them:
//!
//! - [`compress_with`] — owned output, `threads` workers, caller arena
//!   ([`compress`] is its one-thread, fresh-arena form);
//! - [`compress_into`] — sequential, into a caller-owned output buffer;
//! - [`decompress_into_threaded_at`] — full decode, `threads` workers, an
//!   explicit SIMD tier ([`decompress_into`] is its one-thread,
//!   default-tier form);
//! - [`decompress_blocks_into`] — partial decode of a block range.
//!
//! Both decoders share one validate-and-Eq-2-offset-scan preamble; only
//! the full decode additionally demands the payload length match Eq 2
//! exactly. The owned `CUSZPCH1` restore
//! ([`crate::Cuszp::decompress_chunked`]) runs the one-thread full decode
//! on whole chunks, one group of chunks per core.
//!
//! ## The zero-allocation steady state
//!
//! Every working buffer the codec needs — the per-block `(F, CmpL)`
//! table, the Eq-2 prefix-sum workspace, and per-worker residual /
//! staging buffers — lives in a caller-owned [`Scratch`] arena that is
//! grown monotonically and reused across calls. [`compress_into`],
//! [`decompress_into`] and [`decompress_blocks_into`] write their
//! results into caller-owned memory as well, so after the first call
//! with a given shape (*warm-up*), a single-threaded call performs
//! **zero heap allocations** — the host analogue of the paper's
//! no-intermediate-buffer, single-kernel design, and the property the
//! ultra-fast CPU compressors (SZx) identify as decisive for small
//! payloads. The `crates/alloc-counter` allocator proves it executable
//! (`cuszp-core/tests/alloc_count.rs`). Threaded calls reuse per-worker
//! arenas but still pay `std::thread` spawn allocations.
//!
//! The [`compress_into`] output buffer is reserved **up front from the
//! Eq-2 size table bound** — `CmpL(max_F(dtype))` per block, the same
//! dtype-bounded budget the device kernel allocates its payload from —
//! so its capacity depends only on the call's *shape* (element count,
//! block length, dtype), never on how well the content compresses: a
//! warm buffer never reallocates no matter how compressibility varies
//! between calls. Worker staging instead grows by each tile's exact
//! `CmpL` sum, known before any byte of the tile is staged, so cold
//! owned-API calls fault in only the pages they fill.
//!
//! No per-block heap allocation happens in either direction. Because
//! blocks are independent once the offsets are known — the same argument
//! the paper's GS step makes for the GPU — both [`compress_with`] and
//! [`decompress_into_threaded_at`] take a worker count whose output is
//! **bit-identical to the sequential path by construction**: workers own
//! disjoint block ranges and their staged bytes land at disjoint,
//! precomputed byte ranges.

use crate::bitshuffle::{byte_transpose8x8, transpose8x8};
use crate::config::{CuszpConfig, SimdLevel};
use crate::dtype::FloatData;
use crate::encode::cmp_bytes_for;
use crate::format::{Compressed, CompressedRef};

use crate::{simd, tune};

/// Resolve a requested worker count: `0` means the host's parallelism.
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Run one job per worker range: `first` on the calling thread, the
/// `rest` on scoped threads. A single range never spawns, so the
/// sequential paths stay free of thread and heap traffic.
fn run_workers<F: FnOnce() + Send>(ranges: usize, first: F, rest: impl Iterator<Item = F>) {
    if ranges == 1 {
        first();
    } else {
        std::thread::scope(|s| {
            for job in rest {
                s.spawn(job);
            }
            first();
        });
    }
}

/// Ensure `v` holds at least `n` elements (monotonic growth — capacity is
/// never released) and hand back the first `n`.
fn grow<T: Copy + Default>(v: &mut Vec<T>, n: usize) -> &mut [T] {
    if v.len() < n {
        v.resize(n, T::default());
    }
    &mut v[..n]
}

/// One worker's private buffers: cache-resident residual/quantization
/// tile, per-tile max table, and the phase-1 staging bytes.
#[derive(Debug, Default)]
struct WorkerScratch {
    /// Residuals on compression, quantization integers on decompression.
    resid: Vec<i64>,
    /// Per-block max residual magnitude within the current tile.
    maxes: Vec<u64>,
    /// Phase-1 staged payload fraction for this worker's block range.
    staging: Vec<u8>,
}

/// Reusable workspace for the zero-allocation codec entry points.
///
/// Holds the per-block `(F, CmpL)` scratch table, the Eq-2 prefix-sum
/// workspace, the worker block ranges, and one `WorkerScratch` per
/// worker. Buffers grow monotonically and are reused verbatim across
/// calls — a *dirty* arena (left over from any prior call, any dtype,
/// any size) never changes results, only allocation behavior. After the
/// first call at a given shape, single-threaded [`compress_into`] /
/// [`decompress_into`] calls touch the heap zero times.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Per-block fixed lengths `F` (fraction ⓐ before it is emitted).
    fls: Vec<u8>,
    /// Per-block compressed sizes `CmpL` (Eq 2).
    cmps: Vec<u32>,
    /// Exclusive prefix sum of `cmps` — the GS-step workspace.
    offsets: Vec<u64>,
    /// Contiguous block ranges, one per worker.
    ranges: Vec<(usize, usize)>,
    /// Per-worker buffers (index parallel to `ranges`).
    workers: Vec<WorkerScratch>,
}

impl Scratch {
    /// Fresh, empty arena. All buffers are grown on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes currently held across all internal buffers (diagnostic —
    /// what a long-lived arena pins in memory).
    pub fn capacity_bytes(&self) -> usize {
        self.fls.capacity()
            + 4 * self.cmps.capacity()
            + 8 * self.offsets.capacity()
            + 16 * self.ranges.capacity()
            + self
                .workers
                .iter()
                .map(|w| 8 * w.resid.capacity() + 8 * w.maxes.capacity() + w.staging.capacity())
                .sum::<usize>()
    }

    /// Pre-grow every buffer a **sequential** [`compress_into`] /
    /// [`decompress_into`] call for an `elems`-element array will touch,
    /// so even the *first* request served with this arena performs zero
    /// heap operations. A long-running service calls this once per
    /// connection — at handshake time, when the tenant's declared maximum
    /// payload is known — moving the warm-up cost off the request path
    /// entirely (the arena lifecycle then matches the connection's).
    ///
    /// Warming is monotonic like every other arena operation: warming for
    /// a smaller shape after a larger one is a no-op, and an arena warmed
    /// for `elems` serves any request up to `elems` allocation-free.
    ///
    /// ```
    /// use cuszp_core::{fast, CuszpConfig, Scratch};
    /// let cfg = CuszpConfig::default();
    /// let mut scratch = Scratch::new();
    /// scratch.warm_for::<f32>(4096, cfg);
    /// let mut out = Vec::with_capacity(fast::max_stream_bytes::<f32>(4096, cfg));
    /// // This first call now performs zero heap allocations:
    /// let data = vec![1.5f32; 4096];
    /// fast::compress_into(&mut scratch, &data, 1e-3, cfg, &mut out);
    /// ```
    pub fn warm_for<T: crate::FloatData>(&mut self, elems: usize, cfg: CuszpConfig) {
        cfg.validate();
        let l = cfg.block_len;
        let num_blocks = elems.div_ceil(l);
        grow(&mut self.fls, num_blocks);
        grow(&mut self.cmps, num_blocks);
        grow(&mut self.offsets, num_blocks + 1);
        if self.workers.is_empty() {
            self.workers.resize_with(1, Default::default);
        }
        if self.ranges.capacity() == 0 {
            self.ranges.reserve(1);
        }
        // The codec grows the tile buffers to a full tile regardless of
        // the array size, so warming must match exactly — including the
        // autotuned tile size the compress path will resolve (calling
        // `tune::tile_elems` here also runs the one-shot probe, moving
        // that cost into warm-up where it belongs).
        let level = simd::resolve_level(cfg.simd);
        let blocks_per_tile = (tune::tile_elems(T::DTYPE, level) / l).max(1);
        let ws = &mut self.workers[0];
        grow(&mut ws.resid, blocks_per_tile * l);
        grow(&mut ws.maxes, blocks_per_tile);
    }

    /// Split `num_blocks` into at most `threads` contiguous non-empty
    /// ranges, reusing the range buffer.
    fn fill_ranges(&mut self, num_blocks: usize, threads: usize) {
        self.ranges.clear();
        if num_blocks == 0 {
            return;
        }
        let threads = threads.min(num_blocks).max(1);
        let per = num_blocks / threads;
        let extra = num_blocks % threads;
        let mut at = 0;
        for t in 0..threads {
            let len = per + usize::from(t < extra);
            if len > 0 {
                self.ranges.push((at, at + len));
                at += len;
            }
        }
        if self.workers.len() < self.ranges.len() {
            self.workers
                .resize_with(self.ranges.len(), Default::default);
        }
    }
}

/// Encode one block's sign map + bit planes into `out[..CmpL]`. Layout is
/// exactly `host_ref`'s (sign bytes, then the `F` bit planes of Fig 11);
/// only the traversal is word-parallel (see module docs).
fn encode_block(resid: &[i64], f: u8, out: &mut [u8]) {
    let bpp = resid.len() / 8; // bytes per plane = L/8
    let chunks = (f as usize).div_ceil(8);
    let (sign_bytes, planes) = out.split_at_mut(bpp);
    let mut j0 = 0usize;
    while j0 < bpp {
        let strip = (bpp - j0).min(8);
        // ys[t][g]: byte c = plane (8t+c) byte of strip group g.
        let mut ys = [[0u64; 8]; 8];
        for (g, group) in resid[8 * j0..8 * (j0 + strip)].chunks_exact(8).enumerate() {
            let mut s = 0u8;
            let mut m = [0u64; 8];
            for (i, &r) in group.iter().enumerate() {
                s |= u8::from(r < 0) << i;
                m[i] = r.unsigned_abs();
            }
            sign_bytes[j0 + g] = s;
            // limbs[t] = byte t of each of the 8 magnitudes — all eight
            // 8-plane chunks of the group from one byte transpose.
            let limbs = byte_transpose8x8(m);
            for (t, y) in ys.iter_mut().enumerate().take(chunks) {
                y[g] = transpose8x8(limbs[t]);
            }
        }
        // Across the strip: one more byte transpose turns per-group chunk
        // words into whole plane rows, stored with word-sized writes.
        for (t, y) in ys.iter().enumerate().take(chunks) {
            let rows = byte_transpose8x8(*y);
            let k0 = 8 * t;
            let n_planes = (f as usize - k0).min(8);
            for (c, row) in rows.iter().enumerate().take(n_planes) {
                planes[(k0 + c) * bpp + j0..][..strip].copy_from_slice(&row.to_le_bytes()[..strip]);
            }
        }
        j0 += strip;
    }
}

/// Phase 1 for blocks `[b0, b1)`: tile-fused quantize + Lorenzo + plan +
/// encode. Fills `fls`/`cmps` (the `(F, CmpL)` scratch table) and appends
/// every non-zero block's payload bytes to `staging` in block order.
///
/// The caller reserves `staging` from the Eq-2 dtype bound up front;
/// here it grows only by each tile's exact `CmpL` sum (known before the
/// tile's first staged byte), so it never reallocates once that
/// reservation is in place. `staging` may be a private worker buffer or
/// the final output itself (the sequential `compress_into` fast path
/// encodes straight into the serialized stream — no placement copy).
#[allow(clippy::too_many_arguments)]
fn plan_and_encode<T: FloatData>(
    data: &[T],
    eb: f64,
    lorenzo: bool,
    l: usize,
    b0: usize,
    fls: &mut [u8],
    cmps: &mut [u32],
    resid: &mut Vec<i64>,
    maxes: &mut Vec<u64>,
    staging: &mut Vec<u8>,
    level: SimdLevel,
    tile_elems: usize,
) {
    let num_blocks = fls.len();
    let blocks_per_tile = (tile_elems / l).max(1);
    let resid = grow(resid, blocks_per_tile * l);
    let maxes = grow(maxes, blocks_per_tile);
    let n = data.len();
    let vec_f = if l == 32 {
        simd::block32_max_f(level)
    } else {
        0
    };

    let mut i = 0;
    while i < num_blocks {
        let tile = (num_blocks - i).min(blocks_per_tile);
        let start = (b0 + i) * l;
        let end = (start + tile * l).min(n);
        simd::quantize_blocks(
            level,
            &data[start..end],
            l,
            eb,
            lorenzo,
            &mut resid[..tile * l],
            &mut maxes[..tile],
        );
        // Plan the whole tile first: the tile's staged size is exact
        // before a single byte is written.
        let mut tile_cmp = 0usize;
        for (k, &max_abs) in maxes[..tile].iter().enumerate() {
            let f = (64 - max_abs.leading_zeros()) as u8;
            let cmp = cmp_bytes_for(f, l);
            fls[i + k] = f;
            cmps[i + k] = cmp;
            tile_cmp += cmp as usize;
        }
        let mut at = staging.len();
        staging.resize(at + tile_cmp, 0);
        for (k, &f) in fls[i..i + tile].iter().enumerate() {
            if f == 0 {
                continue;
            }
            let cmp = cmps[i + k] as usize;
            let block = &resid[k * l..(k + 1) * l];
            if f <= vec_f {
                simd::encode_block32(level, block, f, &mut staging[at..at + cmp]);
            } else {
                encode_block(block, f, &mut staging[at..at + cmp]);
            }
            at += cmp;
        }
        i += tile;
    }
}

/// Upper bound on the serialized stream size ([`compress_into`]'s output)
/// for an `elems`-element array of `T`: header + one fixed-length byte
/// per block + the Eq-2 worst-case payload at [`crate::DType::max_fixed_len`].
/// This is exactly the reservation [`compress_into`] makes on its output
/// buffer, so a `Vec` pre-reserved to this size never reallocates —
/// which is how a service pre-warms a connection's response buffer at
/// handshake time.
pub fn max_stream_bytes<T: FloatData>(elems: usize, cfg: CuszpConfig) -> usize {
    let num_blocks = elems.div_ceil(cfg.block_len);
    let worst_block = cmp_bytes_for(T::DTYPE.max_fixed_len(), cfg.block_len) as usize;
    crate::format::HEADER_BYTES + num_blocks + num_blocks * worst_block
}

/// Compress `data` under an **absolute** error bound `eb`, sequentially.
/// Byte-identical to [`crate::host_ref::compress`].
pub fn compress<T: FloatData>(data: &[T], eb: f64, cfg: CuszpConfig) -> Compressed {
    compress_with(&mut Scratch::new(), data, eb, cfg, 1)
}

/// Panic unless `cfg` and `eb` describe an encodable stream.
fn check_encode_args(eb: f64, cfg: CuszpConfig) {
    cfg.validate();
    assert!(
        eb.is_finite() && eb > 0.0,
        "absolute bound must be positive"
    );
}

/// Compress into an **owned** [`Compressed`] with `threads` workers
/// (`0` ⇒ [`std::thread::available_parallelism`]) while reusing a caller
/// arena for every intermediate buffer — what a long-lived worker (e.g.
/// a `cuszp-pipeline` stream) runs per chunk: the only allocations left
/// are the two output `Vec`s the result itself owns, both sized exactly.
///
/// Workers own disjoint block ranges and stage their payload fraction in
/// block order, and the prefix-sum offsets place each staged range
/// exactly, so the stream is **bit-identical** to the sequential path for
/// every thread count.
pub fn compress_with<T: FloatData>(
    scratch: &mut Scratch,
    data: &[T],
    eb: f64,
    cfg: CuszpConfig,
    threads: usize,
) -> Compressed {
    check_encode_args(eb, cfg);
    let l = cfg.block_len;
    let num_blocks = data.len().div_ceil(l);
    let level = simd::resolve_level(cfg.simd);
    let tile_elems = tune::tile_elems(T::DTYPE, level);
    grow(&mut scratch.fls, num_blocks);
    grow(&mut scratch.cmps, num_blocks);
    scratch.fill_ranges(num_blocks, resolve_threads(threads));

    // Phase 1: each worker fills its slice of the (F, CmpL) table and
    // stages its payload fraction in its own arena. Staging grows by each
    // tile's exact `CmpL` sum (known before any byte of the tile is
    // staged), so a cold buffer faults in only the pages it fills —
    // reserving the Eq-2 worst case here would make every fresh-`Scratch`
    // owned call map and fault a dtype-bound-sized region.
    let ranges = &scratch.ranges;
    let mut fl_rest = &mut scratch.fls[..num_blocks];
    let mut cmp_rest = &mut scratch.cmps[..num_blocks];
    let mut jobs = ranges
        .iter()
        .zip(scratch.workers.iter_mut())
        .map(|(&(b0, b1), ws)| {
            let (fls, rest) = std::mem::take(&mut fl_rest).split_at_mut(b1 - b0);
            fl_rest = rest;
            let (cmps, rest) = std::mem::take(&mut cmp_rest).split_at_mut(b1 - b0);
            cmp_rest = rest;
            move || {
                ws.staging.clear();
                plan_and_encode(
                    data,
                    eb,
                    cfg.lorenzo,
                    l,
                    b0,
                    fls,
                    cmps,
                    &mut ws.resid,
                    &mut ws.maxes,
                    &mut ws.staging,
                    level,
                    tile_elems,
                )
            }
        });
    if let Some(first) = jobs.next() {
        run_workers(ranges.len(), first, jobs);
    }

    // Global Synchronization, host edition: the sum of the CmpL column is
    // the payload size. One worker: the staging buffer already *is* the
    // payload, in final byte order — move it out instead of copying (the
    // arena regrows it on the next call, which is the one allocation an
    // owned result needs anyway). Several workers: concatenate.
    let total: usize = scratch.cmps[..num_blocks].iter().map(|&c| c as usize).sum();
    let workers = &mut scratch.workers[..scratch.ranges.len()];
    let payload = if let [only] = workers {
        std::mem::take(&mut only.staging)
    } else {
        let mut payload = Vec::with_capacity(total);
        for ws in workers.iter() {
            payload.extend_from_slice(&ws.staging);
        }
        payload
    };
    debug_assert_eq!(payload.len(), total);
    Compressed {
        num_elements: data.len() as u64,
        block_len: l as u32,
        eb,
        lorenzo: cfg.lorenzo,
        dtype: T::DTYPE,
        fixed_lengths: scratch.fls[..num_blocks].to_vec(),
        payload,
    }
}

/// Compress into a caller-owned output buffer, sequentially: `out`
/// receives the full serialized stream (header + fraction ⓐ + payload,
/// exactly [`Compressed::to_bytes`]' layout) and the returned
/// [`CompressedRef`] borrows it. Payload bytes are encoded straight into
/// `out` — no staging buffer, no placement copy. With a warm [`Scratch`]
/// and a reused `out`, the call performs **zero heap allocations** — see
/// the module docs. Byte-identical to [`compress_with`] at every thread
/// count.
pub fn compress_into<'a, T: FloatData>(
    scratch: &mut Scratch,
    data: &[T],
    eb: f64,
    cfg: CuszpConfig,
    out: &'a mut Vec<u8>,
) -> CompressedRef<'a> {
    check_encode_args(eb, cfg);
    let l = cfg.block_len;
    let num_blocks = data.len().div_ceil(l);
    let header_bytes = crate::format::HEADER_BYTES;
    let meta = |fixed_lengths, payload| CompressedRef {
        num_elements: data.len() as u64,
        block_len: l as u32,
        eb,
        lorenzo: cfg.lorenzo,
        dtype: T::DTYPE,
        fixed_lengths,
        payload,
    };

    out.clear();
    // Reserve from the Eq-2 dtype bound rather than this payload's exact
    // size: capacity then depends only on the input *shape*, so a reused
    // `out` never reallocates once warm even when a later payload of the
    // same shape compresses worse than the warm-up one did.
    out.reserve(max_stream_bytes::<T>(data.len(), cfg));
    // The header depends only on metadata known up front.
    out.extend_from_slice(&meta(&[], &[]).header_bytes());
    out.resize(header_bytes + num_blocks, 0); // fraction-ⓐ placeholder

    if num_blocks > 0 {
        let level = simd::resolve_level(cfg.simd);
        grow(&mut scratch.fls, num_blocks);
        grow(&mut scratch.cmps, num_blocks);
        if scratch.workers.is_empty() {
            scratch.workers.resize_with(1, Default::default);
        }
        let ws = &mut scratch.workers[0];
        plan_and_encode(
            data,
            eb,
            cfg.lorenzo,
            l,
            0,
            &mut scratch.fls[..num_blocks],
            &mut scratch.cmps[..num_blocks],
            &mut ws.resid,
            &mut ws.maxes,
            out,
            level,
            tune::tile_elems(T::DTYPE, level),
        );
        out[header_bytes..header_bytes + num_blocks].copy_from_slice(&scratch.fls[..num_blocks]);
    }

    let (fixed_lengths, payload) = out[header_bytes..].split_at(num_blocks);
    meta(fixed_lengths, payload)
}

/// Decode one block's quantization integers from its payload bytes into
/// `q[..L]` — the exact inverse of [`encode_block`] plus the Lorenzo
/// prefix sum.
fn decode_block(payload: &[u8], f: u8, lorenzo: bool, l: usize, q: &mut [i64]) {
    let bpp = l / 8;
    let chunks = (f as usize).div_ceil(8);
    let (sign_bytes, planes) = payload.split_at(bpp);
    let mut acc = 0i64;
    let mut j0 = 0usize;
    while j0 < bpp {
        let strip = (bpp - j0).min(8);
        // Inverse of the encoder's strip step: plane rows → per-group
        // chunk words → per-group magnitude limbs.
        let mut ys = [[0u64; 8]; 8];
        for (t, y) in ys.iter_mut().enumerate().take(chunks) {
            let k0 = 8 * t;
            let n_planes = (f as usize - k0).min(8);
            let mut rows = [0u64; 8];
            for (c, row) in rows.iter_mut().enumerate().take(n_planes) {
                let mut bytes = [0u8; 8];
                bytes[..strip].copy_from_slice(&planes[(k0 + c) * bpp + j0..][..strip]);
                *row = u64::from_le_bytes(bytes);
            }
            *y = byte_transpose8x8(rows);
        }
        for g in 0..strip {
            let mut limbs = [0u64; 8];
            for (t, y) in ys.iter().enumerate().take(chunks) {
                limbs[t] = transpose8x8(y[g]);
            }
            let m = byte_transpose8x8(limbs); // m[i] = |residual i|
            let s = sign_bytes[j0 + g];
            let dst = &mut q[8 * (j0 + g)..8 * (j0 + g) + 8];
            for (i, out) in dst.iter_mut().enumerate() {
                let v = m[i] as i64;
                let r = if s & (1 << i) != 0 {
                    v.wrapping_neg()
                } else {
                    v
                };
                *out = if lorenzo {
                    acc = acc.wrapping_add(r);
                    acc
                } else {
                    r
                };
            }
        }
        j0 += strip;
    }
}

/// Decode blocks `[b0, b1)` from `payload` into `out` (the slice covering
/// elements `b0·L .. min(b1·L, N)`), block by block. Three exits:
///
/// - **Zero block** (`F = 0`): `dequantize(0)` is exactly `+0.0` for both
///   element types, so the block is a plain fill — sparse decode
///   degenerates to memset speed.
/// - **Fused vector path** (full `L = 32` block with `F` within the
///   tier's [`simd::block32_max_f`]): [`simd::decode_block32_to`] undoes
///   the bit-plane layout *and* dequantizes in registers, storing
///   finished elements straight to `out`. The quantization integers
///   never exist in memory, which removes the 16 B/element scratch
///   round trip the old tiled decode paid.
/// - **Portable strip codec** (everything else, including the ragged
///   final block): decode into the worker's integer scratch, then
///   dequantize that block.
#[allow(clippy::too_many_arguments)]
fn decode_blocks<T: FloatData>(
    fls: &[u8],
    offsets: &[u64],
    payload: &[u8],
    l: usize,
    b0: usize,
    n: usize,
    eb: f64,
    lorenzo: bool,
    level: SimdLevel,
    ws: &mut WorkerScratch,
    out: &mut [T],
) {
    let out_base = b0 * l;
    let vec_f = if l == 32 {
        simd::block32_max_f(level)
    } else {
        0
    };
    for (k, &f) in fls.iter().enumerate() {
        let start = (b0 + k) * l;
        let end = (start + l).min(n);
        let dst = &mut out[start - out_base..end - out_base];
        if f == 0 {
            dst.fill(T::from_f64(0.0));
            continue;
        }
        let off = offsets[b0 + k] as usize;
        let bytes = &payload[off..off + cmp_bytes_for(f, l) as usize];
        if f <= vec_f && dst.len() == l {
            simd::decode_block32_to(level, bytes, f, lorenzo, eb, dst);
        } else {
            let q = grow(&mut ws.resid, l);
            decode_block(bytes, f, lorenzo, l, q);
            simd::dequantize_slice(level, q, eb, dst);
        }
    }
}

/// The preamble both decoders share: validate `c`'s structure against
/// `T`, the block range (`None` ⇒ every block) and the output length,
/// then rebuild the range's payload offsets from fraction ⓐ via Eq 2
/// (Fig 2's offsets are never stored) into `scratch.offsets`. Offsets
/// before the range fold into a running sum; only the range's own slots
/// are written (slots below it are left stale — never read), and slot
/// `blocks.end` holds the span end. Returns that end offset, which each
/// caller checks against the payload before decoding: the decoder
/// slices the payload at these offsets without further bounds checks.
fn scan_offsets<T: FloatData>(
    c: &CompressedRef<'_>,
    blocks: Option<std::ops::Range<usize>>,
    out_len: usize,
    scratch: &mut Scratch,
) -> u64 {
    assert_eq!(c.dtype, T::DTYPE, "stream element type mismatch");
    let l = c.block_len as usize;
    assert!(
        l > 0 && l.is_multiple_of(8),
        "invalid stream: bad block length"
    );
    assert!(
        c.eb.is_finite() && c.eb > 0.0,
        "invalid stream: bad error bound"
    );
    let num_blocks = c.num_blocks();
    assert_eq!(
        c.fixed_lengths.len(),
        num_blocks,
        "invalid stream: fixed-length table size"
    );
    let (b0, b1) = blocks.map_or((0, num_blocks), |r| (r.start, r.end));
    assert!(b0 <= b1 && b1 <= num_blocks, "block range out of bounds");
    let n = c.num_elements as usize;
    assert_eq!(
        out_len,
        (b1 * l).min(n).saturating_sub(b0 * l),
        "output slice length != elements covered by the block range"
    );

    // Hard cap of the bit-plane layout (64-bit residual magnitudes), NOT
    // `DType::max_fixed_len()`: extreme f32 amplitude/bound combinations
    // legitimately push F past 33.
    let cmp = |f: u8| {
        assert!(f <= 64, "invalid stream: fixed length exceeds 64");
        cmp_bytes_for(f, l) as u64
    };
    let mut acc: u64 = c.fixed_lengths[..b0].iter().map(|&f| cmp(f)).sum();
    let offsets = grow(&mut scratch.offsets, b1 + 1);
    for (dst, &f) in offsets[b0..b1].iter_mut().zip(&c.fixed_lengths[b0..b1]) {
        *dst = acc;
        acc += cmp(f);
    }
    offsets[b1] = acc;
    acc
}

/// Decompress into a caller-owned slice, sequentially, reusing `scratch`
/// for the offset table and the tile buffer. With a warm arena the call
/// performs **zero heap allocations**. Accepts the borrowed stream form,
/// so a stream parsed out of a container ([`CompressedRef::parse`])
/// decodes without its payload ever being copied. Identical to
/// [`decompress_into_threaded_at`] with one thread at the default tier.
///
/// # Panics
/// Panics if the stream is structurally invalid, was compressed from a
/// different element type than `T`, or `out.len() != num_elements`.
pub fn decompress_into<T: FloatData>(c: CompressedRef<'_>, scratch: &mut Scratch, out: &mut [T]) {
    decompress_into_threaded_at(c, 1, scratch, None, out)
}

/// Decode **only** blocks `[blocks.start, blocks.end)` of a stream into
/// `out` — the block-granular random-access entry point.
///
/// `out` must cover exactly the elements those blocks hold:
/// `min(blocks.end·L, N) − blocks.start·L` (the final block may be
/// ragged). Returns the number of **payload bytes read** — the Eq-2 span
/// of the requested blocks — which is what a random-access store asserts
/// its bytes-touched accounting against: nothing outside that span plus
/// fraction ⓐ is ever dereferenced.
///
/// Like [`decompress_into`], the stream is accepted in borrowed form, so
/// a block read out of a container or a memory-mapped shard decodes
/// without the payload ever being copied; with a warm [`Scratch`] the
/// call performs **zero heap allocations**. Fraction ⓐ is scanned up to
/// `blocks.end` to rebuild the offsets (the per-block offset table is
/// never stored — paper Eq 2), so cost scales with the *position* of the
/// range in the F table but the payload traffic scales only with the
/// range *size*.
///
/// # Panics
/// Panics if the stream metadata is structurally invalid, the dtype
/// mismatches `T`, the block range is out of bounds, `out` has the wrong
/// length, or the payload ends before the requested span does.
pub fn decompress_blocks_into<T: FloatData>(
    c: CompressedRef<'_>,
    blocks: std::ops::Range<usize>,
    scratch: &mut Scratch,
    out: &mut [T],
) -> usize {
    let (b0, b1) = (blocks.start, blocks.end);
    let end = scan_offsets::<T>(&c, Some(blocks), out.len(), scratch);
    if b0 == b1 {
        return 0;
    }
    assert!(
        end <= c.payload.len() as u64,
        "invalid stream: payload shorter than the Eq-2 span of the requested blocks"
    );
    if scratch.workers.is_empty() {
        scratch.workers.resize_with(1, Default::default);
    }
    decode_blocks(
        &c.fixed_lengths[b0..b1],
        &scratch.offsets[..b1 + 1],
        c.payload,
        c.block_len as usize,
        b0,
        c.num_elements as usize,
        c.eb,
        c.lorenzo,
        simd::resolve_level(None),
        &mut scratch.workers[0],
        out,
    );
    (end - scratch.offsets[b0]) as usize
}

/// Decompress a whole stream into a caller-owned slice with `threads`
/// workers (`0` ⇒ host parallelism) at an explicit dispatch tier (`None`
/// ⇒ `CUSZP_SIMD`, then runtime detection — see [`simd::resolve_level`]).
/// Blocks decode independently at Eq-2 offsets, so the output is
/// identical for every thread count *and* every tier. Every element of
/// `out` is written and none is read, which is what lets
/// [`crate::Cuszp::decompress_threaded`] decode into uninitialised
/// memory.
///
/// # Panics
/// Panics if the stream is structurally invalid (including a payload
/// whose length disagrees with Eq 2 in either direction), was compressed
/// from a different element type than `T`, or
/// `out.len() != num_elements`.
pub fn decompress_into_threaded_at<T: FloatData>(
    c: CompressedRef<'_>,
    threads: usize,
    scratch: &mut Scratch,
    simd_level: Option<SimdLevel>,
    out: &mut [T],
) {
    // The exact-length check matters: the full decode trusts every block
    // offset for direct payload slicing.
    let total = scan_offsets::<T>(&c, None, out.len(), scratch);
    assert_eq!(
        total,
        c.payload.len() as u64,
        "invalid stream: payload length disagrees with Eq-2 accounting"
    );
    let (l, n, num_blocks) = (c.block_len as usize, out.len(), c.num_blocks());
    let level = simd::resolve_level(simd_level);
    scratch.fill_ranges(num_blocks, resolve_threads(threads));
    let offsets = &scratch.offsets[..num_blocks + 1];
    let mut out_rest = out;
    let mut jobs = scratch
        .ranges
        .iter()
        .zip(scratch.workers.iter_mut())
        .map(|(&(b0, b1), ws)| {
            let (mine, rest) = std::mem::take(&mut out_rest).split_at_mut((b1 * l).min(n) - b0 * l);
            out_rest = rest;
            let fls = &c.fixed_lengths[b0..b1];
            move || {
                decode_blocks(
                    fls, offsets, c.payload, l, b0, n, c.eb, c.lorenzo, level, ws, mine,
                )
            }
        });
    if let Some(first) = jobs.next() {
        run_workers(scratch.ranges.len(), first, jobs);
    }
}

/// Decode a container's streams, in order, into consecutive slices of
/// `out` — the chunk-parallel restore behind
/// [`crate::Cuszp::decompress_chunked`] and
/// [`crate::Cuszp::decompress_container_bytes`].
///
/// The chunks are split into `min(host parallelism, chunks.len())`
/// contiguous groups of **whole** chunks, balanced by element count. Each
/// group runs on one worker with its own [`Scratch`], decoding chunk by
/// chunk with one-thread [`decompress_into_threaded_at`] calls at
/// `simd_level`; the first group runs on the calling thread, so one chunk
/// (or one CPU) never spawns. Chunks decode independently, so the output
/// is identical for every core count, and every element of `out` is
/// written and none is read.
///
/// # Panics
/// Panics if `out.len()` differs from the chunks' total element count, or
/// on any per-chunk failure of [`decompress_into_threaded_at`] (dtype,
/// structure, exact payload length). A panicking worker is joined before
/// the panic propagates.
pub(crate) fn decompress_chunks_into<T: FloatData>(
    chunks: &[CompressedRef<'_>],
    simd_level: Option<SimdLevel>,
    out: &mut [T],
) {
    let total = out.len();
    // Checked, so every per-chunk count below is at most `total` and its
    // cast is exact: the groups' slices tile `out` with no gap.
    assert_eq!(
        chunks
            .iter()
            .try_fold(0u64, |acc, c| acc.checked_add(c.num_elements)),
        Some(total as u64),
        "output slice length != container elements"
    );
    let elems = |c: &CompressedRef<'_>| c.num_elements as usize;
    let groups = resolve_threads(0).min(chunks.len());
    let (mut chunks_rest, mut out_rest, mut done) = (chunks, out, 0usize);
    let mut jobs = (1..=groups).map(|g| {
        // Close group `g` once it brings the running element count to
        // `g/groups` of the total, leaving one chunk for each later
        // group; the last group takes whatever remains.
        let target = (total as u128 * g as u128 / groups as u128) as usize;
        let max_take = chunks_rest.len() - (groups - g);
        let (mut take, mut len) = (0, 0);
        while take < max_take && (take == 0 || g == groups || done + len < target) {
            len += elems(&chunks_rest[take]);
            take += 1;
        }
        done += len;
        let (mine, rest) = chunks_rest.split_at(take);
        chunks_rest = rest;
        let (mut dst, rest) = std::mem::take(&mut out_rest).split_at_mut(len);
        out_rest = rest;
        move || {
            let mut scratch = Scratch::new();
            for &c in mine {
                let (head, tail) = std::mem::take(&mut dst).split_at_mut(elems(&c));
                decompress_into_threaded_at(c, 1, &mut scratch, simd_level, head);
                dst = tail;
            }
        }
    });
    if let Some(first) = jobs.next() {
        run_workers(groups, first, jobs);
    }
}

/// One timed phase-1 pass for the autotuner ([`crate::tune`]): plan +
/// encode a synthetic wave with the given tile size at tier `level`,
/// best of three runs. Compression is the only tiled direction left
/// (decode is tile-free), so phase 1 is exactly what the tile tunes.
pub(crate) fn tune_probe(dtype: crate::DType, level: SimdLevel, tile_elems: usize) -> f64 {
    fn probe<T: FloatData>(level: SimdLevel, tile_elems: usize) -> f64 {
        const N: usize = 1 << 15;
        let data: Vec<T> = (0..N)
            .map(|i| {
                let x = i as f64;
                T::from_f64((x * 0.02).sin() * 40.0 + (x * 0.11).cos() * 3.0)
            })
            .collect();
        let num_blocks = N / 32;
        let mut fls = vec![0u8; num_blocks];
        let mut cmps = vec![0u32; num_blocks];
        let mut ws = WorkerScratch::default();
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            ws.staging.clear();
            let t0 = std::time::Instant::now();
            plan_and_encode(
                &data,
                1e-3,
                true,
                32,
                0,
                &mut fls,
                &mut cmps,
                &mut ws.resid,
                &mut ws.maxes,
                &mut ws.staging,
                level,
                tile_elems,
            );
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    }
    match dtype {
        crate::DType::F32 => probe::<f32>(level, tile_elems),
        crate::DType::F64 => probe::<f64>(level, tile_elems),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host_ref;

    fn wave(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * 0.02).sin() * 40.0 + (i as f32 * 0.11).cos() * 3.0)
            .collect()
    }

    /// Owned full decode at `threads` workers and tier `level`.
    fn decode<T: FloatData>(c: &Compressed, threads: usize, level: Option<SimdLevel>) -> Vec<T> {
        let mut out = vec![T::default(); c.num_elements as usize];
        decompress_into_threaded_at(c.as_ref(), threads, &mut Scratch::new(), level, &mut out);
        out
    }

    fn compress_owned<T: FloatData>(
        data: &[T],
        eb: f64,
        cfg: CuszpConfig,
        threads: usize,
    ) -> Compressed {
        compress_with(&mut Scratch::new(), data, eb, cfg, threads)
    }

    fn assert_identical(data: &[f32], eb: f64, cfg: CuszpConfig) {
        let reference = host_ref::compress(data, eb, cfg);
        let mut scratch = Scratch::new();
        let mut out = Vec::new();
        for threads in [1usize, 2, 5] {
            let fast = compress_owned(data, eb, cfg, threads);
            assert_eq!(fast, reference, "compress threads={threads}");
            let back: Vec<f32> = decode(&fast, threads, None);
            assert_eq!(
                back,
                host_ref::decompress::<f32>(&reference),
                "decompress threads={threads}"
            );
            // The arena entry points, with a deliberately dirty scratch
            // and reused output, must serialize and decode identically.
            let r = compress_into(&mut scratch, data, eb, cfg, &mut out);
            assert_eq!(r.to_owned(), reference, "compress_into threads={threads}");
            assert_eq!(out, reference.to_bytes(), "serialized threads={threads}");
            let mut into_back = vec![0f32; data.len()];
            decompress_into_threaded_at(
                reference.as_ref(),
                threads,
                &mut scratch,
                None,
                &mut into_back,
            );
            assert_eq!(into_back, back, "decompress_into threads={threads}");
        }
    }

    #[test]
    fn byte_identical_to_host_ref() {
        assert_identical(&wave(5000), 0.01, CuszpConfig::default());
    }

    #[test]
    fn tail_blocks_identical() {
        for n in [1usize, 7, 31, 32, 33, 100, 1023] {
            assert_identical(&wave(n), 0.005, CuszpConfig::default());
        }
    }

    #[test]
    fn no_lorenzo_identical() {
        let cfg = CuszpConfig {
            lorenzo: false,
            ..Default::default()
        };
        assert_identical(&wave(777), 0.02, cfg);
    }

    #[test]
    fn block_len_variants_identical() {
        for l in [8usize, 16, 64, 128] {
            let cfg = CuszpConfig {
                block_len: l,
                ..Default::default()
            };
            assert_identical(&wave(530), 0.01, cfg);
        }
    }

    #[test]
    fn spans_many_tiles_identical() {
        // > tile elements so tiling boundaries are exercised regardless
        // of which candidate the autotuner picked.
        assert_identical(
            &wave(3 * tune::DEFAULT_TILE_ELEMS + 17),
            0.01,
            CuszpConfig::default(),
        );
    }

    #[test]
    fn tile_size_never_changes_output() {
        // The autotuned tile is a pure performance knob: phase 1 must
        // produce identical plans and staged bytes at every tile size.
        let data = wave(10_000);
        let level = simd::resolve_level(None);
        let num_blocks = data.len().div_ceil(32);
        let mut base: Option<(Vec<u8>, Vec<u32>, Vec<u8>)> = None;
        for tile in [256usize, 2048, 8192, 32768, 1 << 20] {
            let mut fls = vec![0u8; num_blocks];
            let mut cmps = vec![0u32; num_blocks];
            let mut ws = WorkerScratch::default();
            plan_and_encode(
                &data,
                0.01,
                true,
                32,
                0,
                &mut fls,
                &mut cmps,
                &mut ws.resid,
                &mut ws.maxes,
                &mut ws.staging,
                level,
                tile,
            );
            let got = (fls, cmps, ws.staging);
            match &base {
                None => base = Some(got),
                Some(want) => assert_eq!(&got, want, "tile={tile}"),
            }
        }
    }

    #[test]
    fn forced_tiers_identical() {
        // Every tier at or below the detected one must produce the same
        // bytes and reconstructions as the scalar reference.
        let data = wave(4321);
        let reference = host_ref::compress(&data, 0.01, CuszpConfig::default());
        let full = host_ref::decompress::<f32>(&reference);
        for level in SimdLevel::ALL {
            if level > simd::detect_level() {
                continue;
            }
            let cfg = CuszpConfig {
                simd: Some(level),
                ..Default::default()
            };
            let c = compress(&data, 0.01, cfg);
            assert_eq!(c, reference, "compress at {level}");
            let back = decode::<f32>(&c, 1, Some(level));
            assert_eq!(back, full, "decompress at {level}");
        }
    }

    #[test]
    fn wide_residuals_identical() {
        // Large magnitudes + tiny bound pushes F past one 8-plane chunk.
        let data: Vec<f32> = (0..640).map(|i| (i as f32 * 0.37).sin() * 3.0e7).collect();
        assert_identical(&data, 1e-4, CuszpConfig::default());
    }

    #[test]
    fn empty_input() {
        let c = compress::<f32>(&[], 0.1, CuszpConfig::default());
        assert_eq!(c.num_blocks(), 0);
        assert!(decode::<f32>(&c, 1, None).is_empty());
        let mut scratch = Scratch::new();
        let mut out = Vec::new();
        let r = compress_into::<f32>(&mut scratch, &[], 0.1, CuszpConfig::default(), &mut out);
        assert_eq!(r.to_owned(), c);
        decompress_into::<f32>(c.as_ref(), &mut scratch, &mut []);
    }

    #[test]
    fn all_zero_blocks() {
        let data = vec![0.0f32; 256];
        let c = compress(&data, 0.001, CuszpConfig::default());
        assert!(c.payload.is_empty());
        assert_eq!(decode::<f32>(&c, 1, None), data);
    }

    #[test]
    fn f64_identical() {
        let data: Vec<f64> = (0..900).map(|i| (i as f64 * 0.013).sin() * 1e5).collect();
        let reference = host_ref::compress(&data, 0.5, CuszpConfig::default());
        let fast = compress_owned(&data, 0.5, CuszpConfig::default(), 3);
        assert_eq!(fast, reference);
        let back: Vec<f64> = decode(&fast, 3, None);
        assert_eq!(back, host_ref::decompress::<f64>(&reference));
    }

    #[test]
    fn auto_thread_count_works() {
        let data = wave(2048);
        let c = compress_owned(&data, 0.01, CuszpConfig::default(), 0);
        assert_eq!(c, host_ref::compress(&data, 0.01, CuszpConfig::default()));
        let back: Vec<f32> = decode(&c, 0, None);
        assert_eq!(back, host_ref::decompress::<f32>(&c));
    }

    #[test]
    fn dirty_arena_reused_across_shapes() {
        // One arena and one output buffer across wildly different shapes,
        // dtypes, and configs: results must match fresh-arena calls.
        let mut scratch = Scratch::new();
        let mut out = Vec::new();
        for n in [4096usize, 17, 1024, 40_000, 1] {
            let data = wave(n);
            let reference = compress(&data, 0.01, CuszpConfig::default());
            let r = compress_into(&mut scratch, &data, 0.01, CuszpConfig::default(), &mut out);
            assert_eq!(r.to_owned(), reference, "n={n}");
            let mut back = vec![0f32; n];
            decompress_into(reference.as_ref(), &mut scratch, &mut back);
            assert_eq!(back, decode::<f32>(&reference, 1, None), "n={n}");
        }
        let doubles: Vec<f64> = (0..999).map(|i| (i as f64 * 0.4).cos() * 77.0).collect();
        let reference = compress(&doubles, 0.05, CuszpConfig::default());
        let r = compress_into(
            &mut scratch,
            &doubles,
            0.05,
            CuszpConfig::default(),
            &mut out,
        );
        assert_eq!(r.to_owned(), reference);
        assert!(scratch.capacity_bytes() > 0);
    }

    #[test]
    fn compress_with_matches_plain() {
        let data = wave(9000);
        let mut scratch = Scratch::new();
        for threads in [1usize, 3] {
            let c = compress_with(&mut scratch, &data, 0.02, CuszpConfig::default(), threads);
            assert_eq!(c, compress(&data, 0.02, CuszpConfig::default()));
        }
    }

    #[test]
    fn compress_into_roundtrips_through_parse() {
        // The bytes in `out` are a complete wire-format stream.
        let data = wave(3210);
        let mut scratch = Scratch::new();
        let mut out = Vec::new();
        compress_into(&mut scratch, &data, 0.01, CuszpConfig::default(), &mut out);
        let parsed = CompressedRef::parse(&out).expect("well-formed stream");
        let mut back = vec![0f32; data.len()];
        decompress_into(parsed, &mut scratch, &mut back);
        assert_eq!(back, decode::<f32>(&parsed.to_owned(), 1, None));
    }

    #[test]
    #[should_panic(expected = "output slice length")]
    fn decompress_into_checks_output_length() {
        let c = compress(&wave(100), 0.01, CuszpConfig::default());
        let mut out = vec![0f32; 99];
        decompress_into(c.as_ref(), &mut Scratch::new(), &mut out);
    }

    #[test]
    fn block32_codec_matches_generic() {
        // Deterministic pseudo-random residuals exercising every f each
        // tier covers, signs, zeros, and the exact 2^f−1 magnitude
        // boundaries — the vector encoders must emit the generic strip
        // codec's bytes, and the fused decoders must reproduce generic
        // decode + dequantize for both element types.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let eb = 0.01;
        for level in [SimdLevel::Avx2, SimdLevel::Avx512] {
            if level > simd::detect_level() {
                continue;
            }
            for f in 1u8..=simd::block32_max_f(level) {
                for trial in 0..20 {
                    let top = if f == 64 { u64::MAX } else { (1u64 << f) - 1 };
                    let resid: Vec<i64> = (0..32)
                        .map(|i| {
                            let mag = if trial == 0 && i < 4 {
                                top
                            } else {
                                rng() & top
                            };
                            let v = mag as i64;
                            if rng() & 1 == 0 {
                                v.wrapping_neg()
                            } else {
                                v
                            }
                        })
                        .collect();
                    let cmp = cmp_bytes_for(f, 32) as usize;
                    let mut want = vec![0u8; cmp];
                    encode_block(&resid, f, &mut want);
                    let mut got = vec![0u8; cmp];
                    simd::encode_block32(level, &resid, f, &mut got);
                    assert_eq!(got, want, "encode {level} f={f} trial={trial}");

                    for lorenzo in [false, true] {
                        let mut q_want = vec![0i64; 32];
                        decode_block(&want, f, lorenzo, 32, &mut q_want);
                        let mut f32_want = vec![0f32; 32];
                        simd::dequantize_slice(SimdLevel::Scalar, &q_want, eb, &mut f32_want);
                        let mut f64_want = vec![0f64; 32];
                        simd::dequantize_slice(SimdLevel::Scalar, &q_want, eb, &mut f64_want);

                        let mut f32_got = vec![0f32; 32];
                        simd::decode_block32_to(level, &want, f, lorenzo, eb, &mut f32_got);
                        let mut f64_got = vec![0f64; 32];
                        simd::decode_block32_to(level, &want, f, lorenzo, eb, &mut f64_got);
                        let tag = format!("{level} f={f} lorenzo={lorenzo} trial={trial}");
                        assert_eq!(f32_got, f32_want, "fused f32 decode {tag}");
                        assert_eq!(f64_got, f64_want, "fused f64 decode {tag}");
                    }
                }
            }
        }
    }

    #[test]
    fn decompress_blocks_matches_full_decode_slices() {
        let data = wave(3 * 32 * 41 + 19); // ragged final block
        let cfg = CuszpConfig::default();
        let c = compress(&data, 0.01, cfg);
        let full: Vec<f32> = decode(&c, 1, None);
        let n = data.len();
        let l = cfg.block_len;
        let num_blocks = c.num_blocks();
        let mut scratch = Scratch::new();
        let mut tile = vec![0f32; n];
        for (b0, b1) in [
            (0usize, 1usize),
            (0, num_blocks),
            (5, 6),
            (7, 40),
            (num_blocks - 1, num_blocks), // the ragged tail alone
            (3, 3),                       // empty range
        ] {
            let covered = (b1 * l).min(n) - (b0 * l).min(n);
            let out = &mut tile[..covered];
            let read = decompress_blocks_into(c.as_ref(), b0..b1, &mut scratch, out);
            assert_eq!(out, &full[b0 * l..(b1 * l).min(n)], "blocks {b0}..{b1}");
            // Bytes read match the exported Eq-2 span exactly.
            assert_eq!(read, c.payload_span(b0..b1).unwrap().len());
        }
    }

    #[test]
    fn decompress_blocks_zero_and_wide_blocks() {
        // Mix zero blocks (F = 0) with wide residuals in one stream.
        let mut data = vec![0.0f32; 8 * 32];
        for (i, v) in data.iter_mut().enumerate().skip(3 * 32).take(32) {
            *v = (i as f32 * 0.37).sin() * 3.0e7;
        }
        let c = compress(&data, 1e-4, CuszpConfig::default());
        let full: Vec<f32> = decode(&c, 1, None);
        let mut scratch = Scratch::new();
        for b in 0..8 {
            let mut out = vec![0f32; 32];
            let read = decompress_blocks_into(c.as_ref(), b..b + 1, &mut scratch, &mut out);
            assert_eq!(out, full[b * 32..(b + 1) * 32], "block {b}");
            if b == 3 {
                assert!(read > 0);
            } else {
                assert_eq!(read, 0, "zero block {b} reads no payload");
            }
        }
    }

    #[test]
    #[should_panic(expected = "block range out of bounds")]
    fn decompress_blocks_rejects_out_of_range() {
        let c = compress(&wave(100), 0.01, CuszpConfig::default());
        let mut out = vec![0f32; 32];
        decompress_blocks_into(c.as_ref(), 4..5, &mut Scratch::new(), &mut out);
    }

    #[test]
    #[should_panic(expected = "payload shorter")]
    fn decompress_blocks_rejects_truncated_payload() {
        let mut c = compress(&wave(100), 0.01, CuszpConfig::default());
        c.payload.truncate(c.payload.len() - 1);
        // The last block is ragged: 100 − 3·32 = 4 elements.
        let mut out = vec![0f32; 4];
        decompress_blocks_into(c.as_ref(), 3..4, &mut Scratch::new(), &mut out);
    }

    #[test]
    fn more_threads_than_blocks() {
        let data = wave(40); // 2 blocks
        assert_identical(&data, 0.01, CuszpConfig::default());
        let c = compress_owned(&data, 0.01, CuszpConfig::default(), 16);
        assert_eq!(c, host_ref::compress(&data, 0.01, CuszpConfig::default()));
    }
}
