//! Integration checks on the simulated cost model: the relationships the
//! paper's evaluation depends on must hold structurally, not just in one
//! tuned configuration.

use baselines::common::CuszpAdapter;
use baselines::{Compressor, CuszLike, CuszxLike};
use cuszp_core::ErrorBound;
use datasets::{generate_subset, DatasetId, Scale};
use gpu_sim::{DeviceSpec, Gpu};
use harness::resolve_bound;

fn field() -> datasets::Field {
    generate_subset(DatasetId::Hurricane, Scale::Tiny, 1).remove(0)
}

#[test]
fn single_kernel_end_to_end_equals_kernel_throughput() {
    // Paper §2.2: "in single-kernel GPU compressor design, end-to-end
    // throughput is the same as kernel throughput."
    let f = field();
    let eb = resolve_bound(&f, ErrorBound::Rel(1e-2));
    let mut gpu = Gpu::new(DeviceSpec::a100());
    let input = gpu.h2d(&f.data);
    gpu.reset_timeline();
    let _ = CuszpAdapter::new().compress(&mut gpu, &input, &f.shape, eb);
    let e2e = gpu.end_to_end_throughput_gbps(f.size_bytes());
    let kernel = gpu.kernel_throughput_gbps(f.size_bytes());
    assert!((e2e - kernel).abs() / kernel < 1e-9);
}

#[test]
fn multi_kernel_pipelines_have_kernel_faster_than_end_to_end() {
    let f = field();
    let eb = resolve_bound(&f, ErrorBound::Rel(1e-2));
    for comp in [
        Box::new(CuszLike::new()) as Box<dyn Compressor>,
        Box::new(CuszxLike::new()),
    ] {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let input = gpu.h2d(&f.data);
        gpu.reset_timeline();
        let _ = comp.compress(&mut gpu, &input, &f.shape, eb);
        let e2e = gpu.end_to_end_throughput_gbps(f.size_bytes());
        let kernel = gpu.kernel_throughput_gbps(f.size_bytes());
        assert!(
            kernel > 3.0 * e2e,
            "{}: kernel {kernel:.2} should dwarf e2e {e2e:.2}",
            comp.kind().name()
        );
    }
}

#[test]
fn breakdown_fractions_cover_the_window() {
    let f = field();
    let eb = resolve_bound(&f, ErrorBound::Rel(1e-2));
    let mut gpu = Gpu::new(DeviceSpec::a100());
    let input = gpu.h2d(&f.data);
    gpu.reset_timeline();
    let _ = CuszLike::new().compress(&mut gpu, &input, &f.shape, eb);
    let b = gpu.breakdown();
    let sum = b.gpu_fraction() + b.cpu_fraction() + b.memcpy_fraction();
    assert!((sum - 1.0).abs() < 1e-9);
    assert!(b.gpu_fraction() < 0.5, "cuSZ GPU share must be small");
}

#[test]
fn faster_devices_give_faster_kernels() {
    let f = field();
    let eb = resolve_bound(&f, ErrorBound::Rel(1e-2));
    let mut results = Vec::new();
    for spec in [
        DeviceSpec::a100(),
        DeviceSpec::v100(),
        DeviceSpec::rtx3080(),
    ] {
        let mut gpu = Gpu::new(spec);
        let input = gpu.h2d(&f.data);
        gpu.reset_timeline();
        let _ = CuszpAdapter::new().compress(&mut gpu, &input, &f.shape, eb);
        results.push(gpu.kernel_throughput_gbps(f.size_bytes()));
    }
    assert!(
        results[0] > results[1] && results[1] > results[2],
        "{results:?}"
    );
}

#[test]
fn simulated_time_is_deterministic() {
    let f = field();
    let eb = resolve_bound(&f, ErrorBound::Rel(1e-2));
    let run = |workers: usize| -> f64 {
        let mut gpu = Gpu::new(DeviceSpec::a100()).with_workers(workers);
        let input = gpu.h2d(&f.data);
        gpu.reset_timeline();
        let _ = CuszpAdapter::new().compress(&mut gpu, &input, &f.shape, eb);
        gpu.timeline().total_time()
    };
    let t1 = run(1);
    let t4 = run(4);
    let again = run(1);
    assert_eq!(t1, again, "same config must give identical simulated time");
    // Worker count parallelizes the *simulation*, not the simulated device:
    // lookback spin counts can differ marginally, nothing else.
    assert!((t1 - t4).abs() / t1 < 0.02, "t1 {t1} vs t4 {t4}");
}

#[test]
fn sparse_snapshots_run_faster_than_dense_ones() {
    // The Fig 22 mechanism at the timing-model level.
    let shape = Scale::Tiny.shape(DatasetId::Rtm);
    let sparse = datasets::rtm::snapshot(300, &shape);
    let dense = datasets::rtm::snapshot(3200, &shape);
    let gbps = |f: &datasets::Field| -> f64 {
        let eb = resolve_bound(f, ErrorBound::Rel(1e-2));
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let input = gpu.h2d(&f.data);
        gpu.reset_timeline();
        let _ = CuszpAdapter::new().compress(&mut gpu, &input, &f.shape, eb);
        gpu.end_to_end_throughput_gbps(f.size_bytes())
    };
    assert!(
        gbps(&sparse) > gbps(&dense),
        "sparse {} vs dense {}",
        gbps(&sparse),
        gbps(&dense)
    );
}
