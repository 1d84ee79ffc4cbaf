//! # cuszp-repro — umbrella crate for the cuSZp (SC '23) reproduction
//!
//! Re-exports the workspace's public surface so examples and downstream
//! users can depend on one crate:
//!
//! * [`cuszp_core`] — the cuSZp compressor (single fused kernel on the
//!   simulated device, plus a host reference codec).
//! * [`cuszp_pipeline`] — batched multi-stream compression with a bounded
//!   submission queue and per-stream counters.
//! * [`baselines`] — cuSZ-, cuSZx-, and cuZFP-like comparison compressors.
//! * [`cuszp_store`] — block-granular random-access store: the
//!   `ErrorBoundedCodec` trait, the runtime codec registry, and the
//!   sharded chunk container with partial (`decode_blocks`) reads.
//! * [`gpu_sim`] — the CUDA-like execution substrate and timing model.
//! * [`datasets`] — synthetic SDRBench-equivalent data generators.
//! * [`metrics`] — PSNR/SSIM/CDF/rate/visualization metrics.
//! * [`harness`] — the `repro` experiment runner (one module per paper
//!   table/figure).
//!
//! See `README.md` for a walkthrough and `DESIGN.md` for the system
//! inventory and experiment index.

pub use baselines;
pub use cuszp_core;
pub use cuszp_pipeline;
pub use cuszp_store;
pub use datasets;
pub use gpu_sim;
pub use harness;
pub use metrics;

/// Convenience: compress + decompress one field with cuSZp on a simulated
/// A100 and return `(compression ratio, end-to-end GB/s comp, GB/s decomp,
/// max abs error)`.
///
/// ```
/// let field = cuszp_repro::datasets::nyx::field("velocity_x", &[16, 16, 16]);
/// let (ratio, comp, decomp, err) =
///     cuszp_repro::roundtrip_cuszp(&field, cuszp_core::ErrorBound::Rel(1e-3));
/// assert!(ratio > 1.0 && comp > 0.0 && decomp > 0.0);
/// let range = cuszp_core::value_range(&field.data);
/// assert!(err <= 1e-3 * range * 1.000001);
/// ```
pub fn roundtrip_cuszp(
    field: &datasets::Field,
    bound: cuszp_core::ErrorBound,
) -> (f64, f64, f64, f64) {
    use baselines::common::CuszpAdapter;
    let m = harness::measure_pipeline(
        &gpu_sim::DeviceSpec::a100(),
        &CuszpAdapter::new(),
        field,
        harness::resolve_bound(field, bound),
    );
    (m.ratio, m.comp_e2e_gbps, m.decomp_e2e_gbps, m.max_abs_error)
}
