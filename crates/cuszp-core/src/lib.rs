//! # cuszp-core — the cuSZp error-bounded lossy compressor in Rust
//!
//! A faithful reimplementation of the SC '23 cuSZp pipeline:
//!
//! 1. **Quantization + Prediction** ([`quantize`]) — pre-quantization
//!    `r = round(d / 2eb)` (the only lossy step) followed by a 1-D 1-layer
//!    Lorenzo prediction inside each length-`L` block.
//! 2. **Fixed-length Encoding** ([`encode`]) — sign bitmap + per-block bit
//!    width `F` from the largest residual; all-zero blocks cost one byte.
//! 3. **Global Synchronization** — a decoupled-lookback prefix sum over
//!    per-block compressed sizes, run *inside* the same kernel
//!    ([`kernels`], using `gpu-sim`'s [`gpu_sim::ScanState`]).
//! 4. **Block Bit-shuffle** ([`bitshuffle`]) — bit-plane transposition so
//!    every output byte is built from uniform single-bit extracts.
//!
//! Both directions run as **one fused kernel** on the `gpu-sim` substrate
//! ([`kernels::compress_kernel`] / [`kernels::decompress_kernel`]); a
//! sequential reference codec ([`host_ref`]) produces byte-identical
//! streams and anchors the property tests. The [`Cuszp`] host API routes
//! through [`fast`], an optimized word-parallel codec that is
//! byte-identical to `host_ref` but restructured as the GPU kernel's
//! two-phase size-scan-then-write layout, with opt-in multithreading.
//!
//! ## Quick start
//!
//! ```
//! use cuszp_core::{Cuszp, ErrorBound};
//!
//! let data: Vec<f32> = (0..10_000).map(|i| (i as f32 * 0.01).sin()).collect();
//! let codec = Cuszp::new();
//! let compressed = codec.compress(&data, ErrorBound::Rel(1e-3));
//! let restored = codec.decompress(&compressed);
//!
//! let eb = compressed.eb; // resolved absolute bound
//! for (d, r) in data.iter().zip(&restored) {
//!     assert!((d - r).abs() as f64 <= eb * 1.000001);
//! }
//! assert!(compressed.stream_bytes() < 10_000 * 4 / 3); // ~3.5x on this signal
//! ```
//!
//! ## Entry points
//!
//! The host codec has one encode body, one full decode and one partial
//! decode; everything else is a thin wrapper over them:
//!
//! - **Encode** — [`fast::compress_with`] (owned, `threads` workers) and
//!   [`fast::compress_into`] (sequential, caller-owned output, zero heap
//!   operations once warm); [`fast::compress`] is the one-thread owned
//!   form.
//! - **Full decode** — [`fast::decompress_into_threaded_at`];
//!   [`fast::decompress_into`] is its one-thread, default-tier form, and
//!   [`Cuszp::decompress_threaded`] the owned one.
//! - **Chunked restore** — [`Cuszp::decompress_chunked`] and
//!   [`Cuszp::decompress_container_bytes`] split a `CUSZPCH1`
//!   container's chunks into whole-chunk groups, one per core, and run
//!   the one-thread full decode on each group into disjoint slices of one
//!   uninitialised output; one chunk decodes on the calling thread.
//! - **Partial decode** — [`fast::decompress_blocks_into`], the
//!   block-range read behind the shard store.
//! - **Hybrid stage** — [`hybrid::encode_at`] / [`hybrid::encode_with_at`]
//!   and [`hybrid::decode_into`] / [`hybrid::decode_blocks_into`] over
//!   the same primitives.
//!
//! [`Cuszp`] resolves [`ErrorBound`]s ([`value_range`] is the REL
//! denominator) and adds the serialized and chunked forms. Multi-field
//! datasets are stored as `cuszp-store` shards, one per field.
//!
//! The serialized forms of both the single-shot stream and the
//! `CUSZPCH1` chunked container are specified byte-for-byte in
//! `docs/FORMAT.md` at the repository root.

#![deny(missing_docs)]

pub mod bitshuffle;
pub mod chunked;
pub mod config;
pub mod dtype;
pub mod encode;
pub mod fast;
pub mod format;
pub mod host_ref;
pub mod hybrid;
pub mod kernels;
pub mod quantize;
pub mod simd;
pub mod tune;
pub mod verify;

pub use chunked::{chunk_ref_iter, chunk_refs, ChunkRefIter, ChunkedCompressed, ChunkedReader};
pub use config::{CuszpConfig, ErrorBound, SimdLevel, DEFAULT_BLOCK_LEN};
pub use dtype::{DType, FloatData};
pub use fast::Scratch;
pub use format::{Compressed, CompressedRef, FormatError};
pub use hybrid::{HybridRef, HybridScratch};
pub use kernels::{
    compress_kernel, compressed_h2d, decompress_kernel, DeviceCompressed, STEP_BB, STEP_FE,
    STEP_GS, STEP_QP,
};

use gpu_sim::{DeviceBuffer, Gpu};

/// Value range (max − min) of a dataset — the REL bound denominator.
///
/// Non-finite values (NaN, ±∞) are **skipped**: a single stray infinity
/// would otherwise make the range infinite and a REL bound unresolvable,
/// surfacing as a confusing "bound must be positive" panic far from the
/// cause. A dataset with no finite values has range `0.0` (like an empty
/// one), which [`ErrorBound::absolute`] rejects with a clear message.
///
/// Runs the tier-dispatched min/max kernel ([`simd::value_range_at`] at
/// [`simd::resolve_level`]`(None)`, so `CUSZP_SIMD` pins it), bit-identical
/// to the [`host_ref::value_range`] loop.
pub fn value_range<T: FloatData>(data: &[T]) -> f64 {
    simd::value_range_at(simd::resolve_level(None), data)
}

/// The `(min, max)` pair behind [`value_range`]: the smallest and
/// largest finite elements, widened to `f64`, or `(+∞, −∞)` when there
/// are none. Pairs of disjoint parts merge with `f64::min` / `f64::max`
/// into the whole's pair, so a range resolved part by part, as
/// `(max − min).max(0.0)`, equals [`value_range`] of the whole (up to
/// the sign of a zero range).
pub fn value_min_max<T: FloatData>(data: &[T]) -> (f64, f64) {
    simd::min_max_at(simd::resolve_level(None), data)
}

/// The cuSZp codec with a fixed configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cuszp {
    /// Block length and ablation switches.
    pub config: CuszpConfig,
}

impl Cuszp {
    /// Codec with the paper's default configuration (`L = 32`, Lorenzo on).
    pub fn new() -> Self {
        Self::default()
    }

    /// Codec with a custom configuration.
    pub fn with_config(config: CuszpConfig) -> Self {
        config.validate();
        Cuszp { config }
    }

    /// Resolve an [`ErrorBound`] to its absolute value for `data`.
    pub fn resolve_bound<T: FloatData>(&self, data: &[T], bound: ErrorBound) -> f64 {
        bound.absolute(value_range(data))
    }

    /// Compress on the host via the optimized word-parallel codec
    /// ([`fast`]), byte-identical to the sequential reference
    /// ([`host_ref`]). Accepts `f32` or `f64` data; the stream records
    /// which.
    pub fn compress<T: FloatData>(&self, data: &[T], bound: ErrorBound) -> Compressed {
        let eb = self.resolve_bound(data, bound);
        fast::compress(data, eb, self.config)
    }

    /// Compress into a caller-owned output buffer with a caller-owned
    /// [`Scratch`] arena — the zero-allocation steady-state entry point.
    ///
    /// `out` receives the complete serialized stream (the bytes are
    /// byte-identical to [`Cuszp::compress`] + [`Compressed::to_bytes`])
    /// and the returned [`CompressedRef`] borrows it. After the first
    /// call at a given shape, repeat calls perform **zero heap
    /// allocations** — see the [`fast`] module docs.
    pub fn compress_into<'a, T: FloatData>(
        &self,
        scratch: &mut Scratch,
        data: &[T],
        bound: ErrorBound,
        out: &'a mut Vec<u8>,
    ) -> CompressedRef<'a> {
        let eb = self.resolve_bound(data, bound);
        fast::compress_into(scratch, data, eb, self.config, out)
    }

    /// Decompress on the host to the stream's element type.
    pub fn decompress<T: FloatData>(&self, c: &Compressed) -> Vec<T> {
        self.decompress_threaded(c, 1)
    }

    /// Decompress on the host with `threads` workers (`0` ⇒ host
    /// parallelism). Identical output for every thread count.
    pub fn decompress_threaded<T: FloatData>(&self, c: &Compressed, threads: usize) -> Vec<T> {
        decode_owned(c.num_elements as usize, |out| {
            fast::decompress_into_threaded_at(
                c.as_ref(),
                threads,
                &mut Scratch::new(),
                self.config.simd,
                out,
            )
        })
    }

    /// Compress straight to serialized bytes, honoring
    /// [`CuszpConfig::hybrid`]: with the flag off this is
    /// [`Cuszp::compress`] + [`Compressed::to_bytes`] (a `CUSZP1`
    /// stream); with it on, the lossless second stage ([`hybrid`]) is
    /// applied and the `CUSZPHY1` frame is returned **when it is
    /// smaller** — otherwise the plain stream is kept, so the hybrid
    /// path never loses ratio to its own framing overhead. Decoders
    /// distinguish the two by magic ([`Cuszp::decompress_serialized`]).
    pub fn compress_serialized<T: FloatData>(&self, data: &[T], bound: ErrorBound) -> Vec<u8> {
        let eb = self.resolve_bound(data, bound);
        let c = fast::compress(data, eb, self.config);
        if self.config.hybrid {
            // Compare against the plain frame's *length* — materializing
            // the plain serialization just to lose the comparison would
            // double peak allocation for nothing.
            let plain_len = c.as_ref().total_bytes();
            let mut hs = HybridScratch::new();
            let mut hy = Vec::new();
            let r = c.as_ref();
            hybrid::encode_at(
                &r,
                hybrid::auto_chunk_blocks(&r),
                simd::resolve_level(self.config.simd),
                &mut hs,
                &mut hy,
            );
            if (hy.len() as u64) < plain_len {
                return hy;
            }
        }
        c.to_bytes()
    }

    /// Decompress serialized bytes produced by
    /// [`Cuszp::compress_serialized`], sniffing the magic: `CUSZPHY1`
    /// frames run the single-pass hybrid decode, anything else parses as
    /// a plain `CUSZP1` stream. Works identically whichever
    /// [`CuszpConfig::hybrid`] setting produced the bytes.
    ///
    /// The output allocation is sized from the stream's claimed element
    /// count, and a hybrid frame's claim can legitimately dwarf its
    /// physical size (Constant chunks store one byte per chunk). For
    /// **untrusted** bytes use
    /// [`Cuszp::decompress_serialized_bounded`], which rejects
    /// oversize claims with a typed error *before* allocating.
    pub fn decompress_serialized<T: FloatData>(&self, bytes: &[u8]) -> Result<Vec<T>, FormatError> {
        self.decompress_serialized_bounded(bytes, usize::MAX)
    }

    /// [`Cuszp::decompress_serialized`] with a caller-supplied ceiling on
    /// the decoded element count: streams claiming more than
    /// `max_elements` are rejected with [`FormatError::LimitExceeded`]
    /// **before any output allocation**, so a tiny malicious frame
    /// cannot force an out-of-memory abort. This is the entry point for
    /// untrusted input; pick `max_elements` from the memory budget of
    /// the call site (e.g. a service's payload cap).
    pub fn decompress_serialized_bounded<T: FloatData>(
        &self,
        bytes: &[u8],
        max_elements: usize,
    ) -> Result<Vec<T>, FormatError> {
        let mut scratch = Scratch::new();
        if bytes.starts_with(&hybrid::HYBRID_MAGIC) {
            let r = HybridRef::parse(bytes)?;
            if r.dtype != T::DTYPE {
                return Err(FormatError::Corrupt("stream element type mismatch"));
            }
            if r.num_elements > max_elements as u64 {
                return Err(FormatError::LimitExceeded {
                    claimed: r.num_elements,
                    limit: max_elements as u64,
                });
            }
            let mut out = vec![T::default(); r.num_elements as usize];
            hybrid::decode_into(&r, &mut HybridScratch::new(), &mut scratch, &mut out)?;
            Ok(out)
        } else {
            let r = CompressedRef::parse(bytes)?;
            if r.dtype != T::DTYPE {
                return Err(FormatError::Corrupt("stream element type mismatch"));
            }
            if r.num_elements > max_elements as u64 {
                return Err(FormatError::LimitExceeded {
                    claimed: r.num_elements,
                    limit: max_elements as u64,
                });
            }
            Ok(decode_owned(r.num_elements as usize, |out| {
                fast::decompress_into_threaded_at(r, 1, &mut scratch, self.config.simd, out)
            }))
        }
    }

    /// Compress `data` as a [`ChunkedCompressed`] container of
    /// `chunk_elems`-element chunks (the last chunk may be shorter).
    ///
    /// The bound is resolved **once against the whole array**, so a REL
    /// bound means the same absolute tolerance as the single-shot path —
    /// and each chunk's stream is byte-identical to compressing that
    /// slice alone at the resolved bound. Chunk boundaries that are a
    /// multiple of the block length keep block alignment identical too.
    pub fn compress_chunked<T: FloatData>(
        &self,
        data: &[T],
        bound: ErrorBound,
        chunk_elems: usize,
    ) -> ChunkedCompressed {
        assert!(chunk_elems > 0, "chunk_elems must be positive");
        if data.is_empty() {
            return ChunkedCompressed::new();
        }
        let eb = self.resolve_bound(data, bound);
        let mut scratch = Scratch::new(); // one arena serves every chunk
        ChunkedCompressed {
            chunks: data
                .chunks(chunk_elems)
                .map(|c| fast::compress_with(&mut scratch, c, eb, self.config, 1))
                .collect(),
        }
    }

    /// Decompress a chunked container, concatenating the chunks in order.
    ///
    /// The restore uses the host's parallelism: the chunks are split into
    /// `min(available_parallelism, num_chunks)` contiguous groups of whole
    /// chunks, balanced by element count, and each group decodes on one
    /// worker straight into its slice of the uninitialised output (no
    /// memset). A one-chunk container, or a one-CPU host, decodes on the
    /// calling thread without spawning. Chunks decode independently at the
    /// tier pinned by [`CuszpConfig::simd`], so the output is identical on
    /// every core count.
    ///
    /// # Panics
    /// Panics if a chunk's dtype differs from `T` or a chunk is
    /// structurally invalid (see [`fast::decompress_into_threaded_at`]);
    /// no partially decoded output is ever returned.
    pub fn decompress_chunked<T: FloatData>(&self, c: &ChunkedCompressed) -> Vec<T> {
        let refs: Vec<CompressedRef<'_>> = c.chunks.iter().map(Compressed::as_ref).collect();
        self.restore_chunks(&refs)
            .expect("container element count overflows usize")
    }

    /// Decompress a **serialized** chunked container directly from its
    /// bytes, copy-free: chunk payloads are decoded as borrowed slices of
    /// `bytes` ([`chunk_refs`]) — no frame is ever cloned. This is the path
    /// to point at a memory-mapped archive.
    ///
    /// Decodes on every core exactly like [`Cuszp::decompress_chunked`]:
    /// whole-chunk groups balanced by element count, the first on the
    /// calling thread (so a one-chunk container never spawns), identical
    /// output on every core count. The chunks' element counts are summed
    /// with overflow checks before anything is allocated.
    ///
    /// # Errors
    /// Framing or frame errors from [`chunk_refs`], and
    /// [`FormatError::Corrupt`] when the chunks' claimed element counts do
    /// not sum to a `usize`.
    ///
    /// # Panics
    /// Panics if a chunk's dtype differs from `T` (like
    /// [`Cuszp::decompress_chunked`]).
    pub fn decompress_container_bytes<T: FloatData>(
        &self,
        bytes: &[u8],
    ) -> Result<Vec<T>, FormatError> {
        self.restore_chunks(&chunk_refs(bytes)?)
    }

    /// The owned restore both `CUSZPCH1` decoders share.
    fn restore_chunks<T: FloatData>(
        &self,
        refs: &[CompressedRef<'_>],
    ) -> Result<Vec<T>, FormatError> {
        let n = container_elements(refs)?;
        Ok(decode_owned(n, |out| {
            fast::decompress_chunks_into(refs, self.config.simd, out)
        }))
    }

    /// Compress on the device in a single fused kernel. `eb` is absolute.
    pub fn compress_device<T: FloatData>(
        &self,
        gpu: &mut Gpu,
        input: &DeviceBuffer<T>,
        eb: f64,
    ) -> DeviceCompressed {
        kernels::compress_kernel(gpu, input, eb, self.config)
    }

    /// Decompress on the device in a single fused kernel.
    pub fn decompress_device<T: FloatData>(
        &self,
        gpu: &mut Gpu,
        c: &DeviceCompressed,
    ) -> DeviceBuffer<T> {
        kernels::decompress_kernel(gpu, c)
    }
}

/// Total element count of a container's chunks, summed with overflow
/// checks: the owned decoders size an uninitialised output from it, so
/// it must be exact, never truncated.
fn container_elements(refs: &[CompressedRef<'_>]) -> Result<usize, FormatError> {
    refs.iter()
        .try_fold(0u64, |acc, r| acc.checked_add(r.num_elements))
        .and_then(|total| usize::try_from(total).ok())
        .ok_or(FormatError::Corrupt("chunk element counts overflow"))
}

/// Allocate an `n`-element output and let `decode` fill it in place,
/// skipping the full-size memset `vec![T::default(); n]` would spend on
/// memory the decoder immediately overwrites.
///
/// Contract: `decode` is one of the full decoders
/// ([`fast::decompress_into_threaded_at`] or
/// `fast::decompress_chunks_into`), which store to every element of the
/// slice and read none. Every caller is in this file. A panic in
/// `decode` — on the calling thread or in any worker it joins — unwinds
/// before `set_len`, so the `Vec` is dropped at length 0 and no
/// uninitialised element is ever observable.
fn decode_owned<T: FloatData>(n: usize, decode: impl FnOnce(&mut [T])) -> Vec<T> {
    let mut out: Vec<T> = Vec::with_capacity(n);
    // SAFETY: `T` is sealed to `f32`/`f64` — plain-old-data, no drop, no
    // invalid bit patterns — and the capacity holds `n` elements. `decode`
    // stores to every element of the slice (every block exit — fill,
    // fused, or strip — writes its full element range, and a container's
    // chunks tile the slice exactly) before `set_len` makes them
    // observable; a panic skips `set_len` and leaves the length at 0.
    unsafe {
        decode(std::slice::from_raw_parts_mut(out.as_mut_ptr(), n));
        out.set_len(n);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_range_basics() {
        assert_eq!(value_range(&[1.0, -2.0, 5.0]), 7.0);
        assert_eq!(value_range::<f32>(&[]), 0.0);
        assert_eq!(value_range(&[3.0]), 0.0);
    }

    #[test]
    fn value_range_skips_non_finite() {
        assert_eq!(value_range(&[1.0, f64::NAN, 5.0]), 4.0);
        assert_eq!(value_range(&[1.0, f64::INFINITY, 5.0]), 4.0);
        assert_eq!(value_range(&[f64::NEG_INFINITY, 1.0, 5.0]), 4.0);
        assert_eq!(value_range(&[f32::NAN, f32::NAN]), 0.0);
        assert_eq!(value_range(&[f64::INFINITY, f64::NEG_INFINITY]), 0.0);
    }

    #[test]
    fn rel_bound_with_stray_nan_resolves_from_finite_values() {
        let codec = Cuszp::new();
        let data = vec![0.0f32, f32::NAN, 10.0];
        assert!((codec.resolve_bound(&data, ErrorBound::Rel(1e-2)) - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "value range")]
    fn rel_bound_on_all_nan_data_panics_clearly() {
        Cuszp::new().resolve_bound(&[f32::NAN, f32::NAN], ErrorBound::Rel(1e-2));
    }

    #[test]
    fn rel_bound_resolution() {
        let codec = Cuszp::new();
        let data = vec![0.0f32, 10.0];
        assert!((codec.resolve_bound(&data, ErrorBound::Rel(1e-2)) - 0.1).abs() < 1e-12);
        assert_eq!(codec.resolve_bound(&data, ErrorBound::Abs(0.5)), 0.5);
    }

    #[test]
    fn host_api_roundtrip() {
        let data: Vec<f32> = (0..2000).map(|i| (i as f32 * 0.003).cos() * 9.0).collect();
        let codec = Cuszp::new();
        let c = codec.compress(&data, ErrorBound::Rel(1e-3));
        let back: Vec<f32> = codec.decompress(&c);
        for (&d, &r) in data.iter().zip(&back) {
            assert!((d as f64 - r as f64).abs() <= c.eb * (1.0 + 1e-6));
        }
    }

    #[test]
    fn forged_chunk_element_claims_that_overflow_are_a_typed_error() {
        // Through `chunk_refs` each claim is backed by a fixed-length
        // table of ⌈N / L⌉ bytes, so an overflowing sum needs gigabytes of
        // frames; forge the parsed views directly instead.
        let forged = CompressedRef {
            num_elements: u64::MAX / 2 + 1,
            block_len: 32,
            eb: 1.0,
            lorenzo: true,
            dtype: DType::F32,
            fixed_lengths: &[],
            payload: &[],
        };
        assert_eq!(
            container_elements(&[forged, forged]),
            Err(FormatError::Corrupt("chunk element counts overflow"))
        );
        assert_eq!(
            container_elements(&[forged]).ok(),
            usize::try_from(forged.num_elements).ok()
        );
        assert_eq!(container_elements(&[]), Ok(0));
    }

    #[test]
    fn with_config_validates() {
        let cfg = CuszpConfig {
            block_len: 64,
            lorenzo: false,
            ..Default::default()
        };
        let codec = Cuszp::with_config(cfg);
        assert_eq!(codec.config.block_len, 64);
    }
}
