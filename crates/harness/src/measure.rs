//! Pipeline measurement: run one compressor over one field and collect the
//! paper's metrics (end-to-end + kernel throughput, breakdowns, CR,
//! quality).
//!
//! Measurement methodology mirrors §2.2/§5.1.3: the clock starts with the
//! original data already resident in GPU memory and stops when the
//! compressed (resp. reconstructed) data is back in GPU memory, so the
//! initial H2D upload is *not* part of either window. Kernel throughput
//! counts kernel time only.

use baselines::Compressor;
use cuszp_core::ErrorBound;
use datasets::Field;
use gpu_sim::{Breakdown, DeviceSpec, Gpu};
use serde::{Deserialize, Serialize};

/// Everything one pipeline run yields.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Measurement {
    /// Compressor display name.
    pub compressor: String,
    /// Field name.
    pub field: String,
    /// Absolute error bound used (0 for fixed-rate compressors).
    pub eb_abs: f64,
    /// Compressed bytes.
    pub compressed_bytes: u64,
    /// Compression ratio.
    pub ratio: f64,
    /// Bits per value in the compressed stream.
    pub bit_rate: f64,
    /// End-to-end compression throughput, GB/s.
    pub comp_e2e_gbps: f64,
    /// End-to-end decompression throughput, GB/s.
    pub decomp_e2e_gbps: f64,
    /// Kernel-only compression throughput, GB/s.
    pub comp_kernel_gbps: f64,
    /// Kernel-only decompression throughput, GB/s.
    pub decomp_kernel_gbps: f64,
    /// Compression-window breakdown (GPU/CPU/Memcpy + per-step).
    pub comp_breakdown: Breakdown,
    /// Decompression-window breakdown.
    pub decomp_breakdown: Breakdown,
    /// PSNR of the reconstruction, dB.
    pub psnr: f64,
    /// Max absolute error of the reconstruction.
    pub max_abs_error: f64,
    /// The reconstruction (for further quality analysis); dropped from
    /// JSON output.
    #[serde(skip)]
    pub reconstruction: Vec<f32>,
}

/// Resolve an [`ErrorBound`] against a field's value range, with the
/// codec's own REL denominator ([`cuszp_core::value_range`]).
pub fn resolve_bound(field: &Field, bound: ErrorBound) -> f64 {
    bound.absolute(cuszp_core::value_range(&field.data))
}

/// Run `comp` over `field` on a fresh device of `spec` and measure
/// everything. `eb_abs` is the absolute bound (ignored by fixed-rate
/// compressors but recorded).
pub fn measure_pipeline(
    spec: &DeviceSpec,
    comp: &dyn Compressor,
    field: &Field,
    eb_abs: f64,
) -> Measurement {
    let mut gpu = Gpu::new(spec.clone());
    let input = gpu.h2d(&field.data);
    let bytes = field.size_bytes();

    // Compression window.
    gpu.reset_timeline();
    let stream = comp.compress(&mut gpu, &input, &field.shape, eb_abs);
    let comp_e2e = gpu.end_to_end_throughput_gbps(bytes);
    let comp_kernel = gpu.kernel_throughput_gbps(bytes);
    let comp_breakdown = gpu.breakdown();
    let compressed_bytes = stream.stream_bytes();

    // Decompression window.
    gpu.reset_timeline();
    let out = comp.decompress(&mut gpu, stream.as_ref());
    let decomp_e2e = gpu.end_to_end_throughput_gbps(bytes);
    let decomp_kernel = gpu.kernel_throughput_gbps(bytes);
    let decomp_breakdown = gpu.breakdown();

    let reconstruction = gpu.d2h(&out);
    let stats = metrics::ErrorStats::compute(&field.data, &reconstruction);
    let cr = metrics::CompressionStats::for_f32(field.len(), compressed_bytes);

    Measurement {
        compressor: comp.kind().name().to_string(),
        field: field.name.clone(),
        eb_abs,
        compressed_bytes,
        ratio: cr.ratio(),
        bit_rate: cr.bit_rate(),
        comp_e2e_gbps: comp_e2e,
        decomp_e2e_gbps: decomp_e2e,
        comp_kernel_gbps: comp_kernel,
        decomp_kernel_gbps: decomp_kernel,
        comp_breakdown,
        decomp_breakdown,
        psnr: stats.psnr,
        max_abs_error: stats.max_abs_error,
        reconstruction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::common::CuszpAdapter;

    #[test]
    fn measurement_is_complete() {
        let field = datasets::nyx::field("velocity_x", &[12, 12, 12]);
        let comp = CuszpAdapter::new();
        let eb = resolve_bound(&field, ErrorBound::Rel(1e-2));
        let m = measure_pipeline(&DeviceSpec::a100(), &comp, &field, eb);
        assert!(m.comp_e2e_gbps > 0.0);
        assert!(m.decomp_e2e_gbps > 0.0);
        assert!(m.ratio > 1.0);
        assert!(m.psnr > 20.0);
        assert!(m.max_abs_error <= eb * (1.0 + 1e-6));
        assert_eq!(m.reconstruction.len(), field.len());
        // Single-kernel design: e2e == kernel throughput.
        assert!((m.comp_e2e_gbps - m.comp_kernel_gbps).abs() / m.comp_kernel_gbps < 1e-9);
    }

    #[test]
    fn rel_bound_resolution_uses_range() {
        let field = Field::new("x", vec![2], vec![0.0, 100.0]);
        assert!((resolve_bound(&field, ErrorBound::Rel(1e-2)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rel_bound_matches_the_codec() {
        // Same denominator as the codec: ±∞ skipped, difference in f64.
        let field = Field::new(
            "x",
            vec![4],
            vec![-0.1, f32::INFINITY, 0.2, f32::NEG_INFINITY],
        );
        let eb = resolve_bound(&field, ErrorBound::Rel(1e-2));
        assert_eq!(
            eb,
            ErrorBound::Rel(1e-2).absolute(0.2f32 as f64 - -0.1f32 as f64)
        );
        assert_eq!(
            eb,
            cuszp_core::Cuszp::new().resolve_bound(&field.data, ErrorBound::Rel(1e-2))
        );
    }
}
