//! Quickstart: compress a scientific field with cuSZp on the simulated
//! A100, on both the device path (single fused kernel) and the host
//! reference codec, and verify the error bound.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cuszp_core::{Cuszp, ErrorBound};
use gpu_sim::{DeviceSpec, Gpu};

fn main() {
    // 1. Get some scientific-looking data (a NYX-like velocity field).
    let field = datasets::nyx::field("velocity_x", &[64, 64, 64]);
    println!(
        "field {:?} ({} values, {:.1} MB, range {:.3e})",
        field.shape,
        field.len(),
        field.size_bytes() as f64 / 1e6,
        cuszp_core::value_range(&field.data)
    );

    // 2. Pick an error bound: REL 1e-3 of the value range.
    let codec = Cuszp::new();
    let bound = ErrorBound::Rel(1e-3);
    let eb = codec.resolve_bound(&field.data, bound);
    println!("bound {bound} -> absolute eb {eb:.4e}");

    // 3. Host path: pure-CPU reference codec.
    let compressed = codec.compress(&field.data, bound);
    let restored = codec.decompress(&compressed);
    println!(
        "host codec: {} -> {} bytes (ratio {:.2})",
        field.size_bytes(),
        compressed.stream_bytes(),
        field.size_bytes() as f64 / compressed.stream_bytes() as f64
    );

    // 4. Device path: one fused kernel each way on a simulated A100.
    let mut gpu = Gpu::new(DeviceSpec::a100());
    let input = gpu.h2d(&field.data);
    gpu.reset_timeline();
    let dc = codec.compress_device(&mut gpu, &input, eb);
    let comp_gbps = gpu.end_to_end_throughput_gbps(field.size_bytes());
    gpu.reset_timeline();
    let out = codec.decompress_device(&mut gpu, &dc);
    let decomp_gbps = gpu.end_to_end_throughput_gbps(field.size_bytes());
    let device_restored = gpu.d2h(&out);
    println!(
        "device codec: one kernel per direction, {:.1} GB/s comp, {:.1} GB/s decomp (simulated A100)",
        comp_gbps, decomp_gbps
    );

    // 5. The two paths agree bit-for-bit, and the bound holds.
    assert_eq!(restored, device_restored, "host and device must agree");
    assert!(
        cuszp_core::verify::check_bound(&field.data, &restored, eb),
        "error bound violated"
    );
    let stats = metrics::ErrorStats::compute(&field.data, &restored);
    println!(
        "quality: max abs err {:.3e} (eb {:.3e}), PSNR {:.2} dB",
        stats.max_abs_error, eb, stats.psnr
    );
    println!("Pass error check!");
}
