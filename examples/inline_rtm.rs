//! In-situ compression of a time-varying RTM simulation (the paper's §6
//! "cuSZp with Time-Varying Simulations" scenario, Fig 22).
//!
//! A seismic shot evolves over 3600 timesteps; every 200 steps the solver
//! hands the wavefield snapshot — already resident in GPU memory — to
//! cuSZp, stores the compressed stream, and immediately verifies a
//! decompressed readback. Watch the throughput fall as reverberation fills
//! the volume and zero blocks disappear.
//!
//! ```text
//! cargo run --release --example inline_rtm
//! ```

use baselines::common::CuszpAdapter;
use baselines::Compressor;
use cuszp_core::ErrorBound;
use gpu_sim::{DeviceSpec, Gpu};

fn main() {
    let shape = vec![40usize, 64, 64];
    let comp = CuszpAdapter::new();
    let spec = DeviceSpec::a100();
    let mut total_raw = 0u64;
    let mut total_cmp = 0u64;

    println!("timestep  zero%   comp GB/s  decomp GB/s  ratio  max|err|/eb");
    for step in (200..=3600).step_by(200) {
        // The "simulation" produces this snapshot on the device.
        let field = datasets::rtm::snapshot(step, &shape);
        let eb = ErrorBound::Rel(1e-2).absolute(cuszp_core::value_range(&field.data));
        let mut gpu = Gpu::new(spec.clone());
        let input = gpu.h2d(&field.data);

        gpu.reset_timeline();
        let stream = comp.compress(&mut gpu, &input, &field.shape, eb);
        let comp_gbps = gpu.end_to_end_throughput_gbps(field.size_bytes());

        gpu.reset_timeline();
        let out = comp.decompress(&mut gpu, stream.as_ref());
        let decomp_gbps = gpu.end_to_end_throughput_gbps(field.size_bytes());
        let restored = gpu.d2h(&out);

        let max_err = cuszp_core::verify::max_abs_error(&field.data, &restored);
        assert!(
            cuszp_core::verify::check_bound(&field.data, &restored, eb),
            "bound violated at step {step}"
        );
        total_raw += field.size_bytes();
        total_cmp += stream.stream_bytes();
        println!(
            "{:>8}  {:>5.1}  {:>10.2}  {:>11.2}  {:>5.2}  {:>11.3}",
            step,
            datasets::rtm::zero_fraction(&field) * 100.0,
            comp_gbps,
            decomp_gbps,
            field.size_bytes() as f64 / stream.stream_bytes() as f64,
            max_err / eb
        );
    }
    println!(
        "\nshot archived: {:.1} MB raw -> {:.1} MB compressed ({:.1}x)",
        total_raw as f64 / 1e6,
        total_cmp as f64 / 1e6,
        total_raw as f64 / total_cmp as f64
    );
}
