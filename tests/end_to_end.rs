//! Cross-crate integration: every compressor over every dataset at Tiny
//! scale, verifying the paper's core contracts end to end.

use baselines::common::CuszpAdapter;
use baselines::{Compressor, CuszLike, CuszxLike, CuzfpLike};
use cuszp_core::ErrorBound;
use datasets::{generate_subset, DatasetId, Scale};
use gpu_sim::{DeviceSpec, Gpu};
use harness::resolve_bound;

fn bound_ok(data: &[f32], recon: &[f32], eb: f64) -> bool {
    data.iter().zip(recon).all(|(&d, &r)| {
        let slack = (d.abs().max(r.abs()) as f64) * 1.3e-7;
        (d as f64 - r as f64).abs() <= eb * (1.0 + 1e-6) + slack + f64::EPSILON
    })
}

#[test]
fn error_bounded_compressors_respect_bounds_on_all_datasets() {
    let spec = DeviceSpec::a100();
    let compressors: Vec<Box<dyn Compressor>> = vec![
        Box::new(CuszpAdapter::new()),
        Box::new(CuszLike::new()),
        Box::new(CuszxLike::new()),
    ];
    for id in DatasetId::all() {
        for field in generate_subset(id, Scale::Tiny, 2) {
            for bound in [ErrorBound::Rel(1e-1), ErrorBound::Rel(1e-3)] {
                let eb = resolve_bound(&field, bound);
                for comp in &compressors {
                    let mut gpu = Gpu::new(spec.clone());
                    let input = gpu.h2d(&field.data);
                    let stream = comp.compress(&mut gpu, &input, &field.shape, eb);
                    assert!(stream.stream_bytes() > 0);
                    let out = comp.decompress(&mut gpu, stream.as_ref());
                    let recon = gpu.d2h(&out);
                    assert_eq!(recon.len(), field.len());
                    assert!(
                        bound_ok(&field.data, &recon, eb),
                        "{} violated {} on {}/{}",
                        comp.kind().name(),
                        bound,
                        id.name(),
                        field.name
                    );
                }
            }
        }
    }
}

#[test]
fn cuzfp_fixed_rate_on_all_datasets() {
    let spec = DeviceSpec::a100();
    for id in DatasetId::all() {
        let field = generate_subset(id, Scale::Tiny, 1).remove(0);
        for rate in [8u32, 16] {
            let comp = CuzfpLike::new(rate);
            let mut gpu = Gpu::new(spec.clone());
            let input = gpu.h2d(&field.data);
            let stream = comp.compress(&mut gpu, &input, &field.shape, 0.0);
            // Fixed rate: the stream size is fully determined by geometry.
            let shape = baselines::cuzfp::collapse_shape(&field.shape);
            let block_vals = 4usize.pow(shape.len() as u32);
            let blocks: usize = shape.iter().map(|&s| s.div_ceil(4)).product();
            let budget = (rate as usize * block_vals).max(16 + block_vals);
            assert_eq!(
                stream.stream_bytes(),
                (blocks * budget.div_ceil(8)) as u64,
                "{} rate {rate}",
                id.name()
            );
            let out = comp.decompress(&mut gpu, stream.as_ref());
            assert_eq!(out.len(), field.len());
        }
    }
}

#[test]
fn cuszp_is_single_kernel_baselines_are_not() {
    let spec = DeviceSpec::a100();
    let field = generate_subset(DatasetId::Hurricane, Scale::Tiny, 1).remove(0);
    let eb = resolve_bound(&field, ErrorBound::Rel(1e-2));

    let mut gpu = Gpu::new(spec.clone());
    let input = gpu.h2d(&field.data);
    gpu.reset_timeline();
    let comp = CuszpAdapter::new();
    let stream = comp.compress(&mut gpu, &input, &field.shape, eb);
    assert_eq!(gpu.timeline().kernel_count(), 1);
    assert_eq!(gpu.timeline().memcpy_time(), 0.0);
    assert_eq!(gpu.timeline().cpu_time(), 0.0);
    drop(stream);

    let mut gpu = Gpu::new(spec.clone());
    let input = gpu.h2d(&field.data);
    gpu.reset_timeline();
    let comp = CuszLike::new();
    let _ = comp.compress(&mut gpu, &input, &field.shape, eb);
    assert!(gpu.timeline().kernel_count() > 1, "cuSZ is multi-kernel");
    assert!(gpu.timeline().cpu_time() > 0.0);
    assert!(gpu.timeline().memcpy_time() > 0.0);
}

#[test]
fn end_to_end_speedup_ordering_holds() {
    // The paper's headline shape: cuSZp end-to-end >> cuSZx > cuSZ, and
    // cuSZp ~ cuZFP. Measured at Tiny scale, margins are narrower but the
    // ordering must hold.
    let spec = DeviceSpec::a100();
    let field = generate_subset(DatasetId::Nyx, Scale::Tiny, 1).remove(0);
    let eb = resolve_bound(&field, ErrorBound::Rel(1e-2));
    let e2e = |comp: &dyn Compressor| -> f64 {
        let mut gpu = Gpu::new(spec.clone());
        let input = gpu.h2d(&field.data);
        gpu.reset_timeline();
        let _ = comp.compress(&mut gpu, &input, &field.shape, eb);
        gpu.end_to_end_throughput_gbps(field.size_bytes())
    };
    let cuszp = e2e(&CuszpAdapter::new());
    let cusz = e2e(&CuszLike::new());
    let cuszx = e2e(&CuszxLike::new());
    let cuzfp = e2e(&CuzfpLike::new(8));
    assert!(cuszp > 10.0 * cuszx, "cuszp {cuszp} vs cuszx {cuszx}");
    assert!(cuszx > cusz, "cuszx {cuszx} vs cusz {cusz}");
    assert!(
        cuzfp > 5.0 * cuszx,
        "single-kernel cuZFP must be fast too: {cuzfp} vs {cuszx}"
    );
}

#[test]
fn compression_ratio_decreases_with_tighter_bounds() {
    let spec = DeviceSpec::a100();
    let comp = CuszpAdapter::new();
    for id in DatasetId::all() {
        let field = generate_subset(id, Scale::Tiny, 1).remove(0);
        let mut prev = f64::INFINITY;
        for rel in [1e-1, 1e-2, 1e-3, 1e-4] {
            let eb = resolve_bound(&field, ErrorBound::Rel(rel));
            let mut gpu = Gpu::new(spec.clone());
            let input = gpu.h2d(&field.data);
            let stream = comp.compress(&mut gpu, &input, &field.shape, eb);
            let ratio = field.size_bytes() as f64 / stream.stream_bytes() as f64;
            assert!(
                ratio <= prev * (1.0 + 1e-9),
                "{}: ratio rose from {prev:.2} to {ratio:.2} at rel {rel:e}",
                id.name()
            );
            prev = ratio;
        }
    }
}
