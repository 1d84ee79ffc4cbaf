//! §6 discussion — cuSZp kernel compression throughput on lower-end GPUs.
//!
//! Paper: 100.34 (A100), 87.44 (V100), 80.13 (RTX 3080) GB/s on one RTM
//! snapshot; differences track memory-subsystem capability.

use super::Ctx;
use crate::measure::measure_pipeline;
use crate::report::{f2, Report};
use crate::resolve_bound;
use baselines::common::CuszpAdapter;
use cuszp_core::ErrorBound;
use datasets::{rtm, DatasetId};
use gpu_sim::DeviceSpec;
use serde::Serialize;

/// Paper §6 values (GB/s).
pub const PAPER: [(&str, f64); 3] = [("A100", 100.34), ("V100", 87.44), ("RTX3080", 80.13)];

/// One GPU's measurement.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// GPU name.
    pub gpu: String,
    /// Kernel compression throughput, GB/s.
    pub kernel_gbps: f64,
    /// Paper value, GB/s.
    pub paper_gbps: f64,
}

/// Run the lower-end GPU experiment.
pub fn run(ctx: &Ctx) {
    let mut report = Report::new(
        "gpus",
        "cuSZp kernel throughput on A100 / V100 / RTX 3080 (RTM snapshot)",
        &ctx.out_dir,
    );
    let field = rtm::snapshot(1500, &ctx.scale.shape(DatasetId::Rtm));
    let eb = resolve_bound(&field, ErrorBound::Rel(1e-2));
    let comp = CuszpAdapter::new();

    let specs = [
        DeviceSpec::a100(),
        DeviceSpec::v100(),
        DeviceSpec::rtx3080(),
    ];
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for (spec, (name, paper)) in specs.into_iter().zip(PAPER) {
        let m = measure_pipeline(&spec, &comp, &field, eb);
        rows.push(vec![name.to_string(), f2(m.comp_kernel_gbps), f2(paper)]);
        out.push(Row {
            gpu: name.to_string(),
            kernel_gbps: m.comp_kernel_gbps,
            paper_gbps: paper,
        });
    }
    report.table(&["GPU", "kernel comp GB/s", "paper GB/s"], &rows);
    assert!(
        out[0].kernel_gbps > out[1].kernel_gbps && out[1].kernel_gbps > out[2].kernel_gbps,
        "ordering must follow memory capability"
    );
    report.line("\nordering A100 > V100 > RTX 3080 reproduced");
    report.save_json(&out);
    report.save_text();
}
