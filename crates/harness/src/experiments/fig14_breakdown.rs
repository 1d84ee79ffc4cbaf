//! Fig 14 — end-to-end time breakdown (GPU / CPU / Memcpy) per compressor,
//! on the Hurricane `U` field.
//!
//! The paper's point: cuSZp and cuZFP are 100% GPU (single kernel), while
//! cuSZ spends only 3.24% (compression) / 4.21% (decompression) of its
//! end-to-end time on the GPU — the rest is host compute and PCIe traffic.
//! cuSZx is similar, with a larger CPU share in decompression.

use super::Ctx;
use crate::all_compressors;
use crate::report::{pct, Report};
use crate::resolve_bound;
use cuszp_core::ErrorBound;
use datasets::{hurricane, DatasetId};
use gpu_sim::{DeviceSpec, Gpu};
use serde::Serialize;

/// One breakdown row.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Compressor name.
    pub compressor: String,
    /// Direction ("compression" / "decompression").
    pub direction: String,
    /// GPU share.
    pub gpu: f64,
    /// CPU share.
    pub cpu: f64,
    /// Memcpy share.
    pub memcpy: f64,
}

/// Run the Fig 14 experiment.
pub fn run(ctx: &Ctx) {
    let mut report = Report::new(
        "fig14",
        "End-to-end breakdown, Hurricane field U",
        &ctx.out_dir,
    );
    let spec = DeviceSpec::a100();
    let field = hurricane::field("U", &ctx.scale.shape(DatasetId::Hurricane));
    let eb = resolve_bound(&field, ErrorBound::Rel(1e-2));

    let mut out = Vec::new();
    for direction in ["compression", "decompression"] {
        report.line(&format!("\n{direction}"));
        let mut rows = Vec::new();
        for comp in all_compressors(8) {
            let mut gpu = Gpu::new(spec.clone());
            let input = gpu.h2d(&field.data);
            gpu.reset_timeline();
            let stream = comp.compress(&mut gpu, &input, &field.shape, eb);
            if direction == "decompression" {
                gpu.reset_timeline();
                let _ = comp.decompress(&mut gpu, stream.as_ref());
            }
            let b = gpu.breakdown();
            rows.push(vec![
                comp.kind().name().to_string(),
                pct(b.gpu_fraction()),
                pct(b.cpu_fraction()),
                pct(b.memcpy_fraction()),
            ]);
            out.push(Row {
                compressor: comp.kind().name().to_string(),
                direction: direction.to_string(),
                gpu: b.gpu_fraction(),
                cpu: b.cpu_fraction(),
                memcpy: b.memcpy_fraction(),
            });
        }
        report.table(&["compressor", "GPU", "CPU", "Memcpy"], &rows);
    }
    report.line(
        "\npaper: cuSZp and cuZFP are 100% GPU; cuSZ GPU share is 3.24% (comp) / \
4.21% (decomp); cuSZx similar with more CPU in decompression",
    );
    report.save_json(&out);
    report.save_text();
}
