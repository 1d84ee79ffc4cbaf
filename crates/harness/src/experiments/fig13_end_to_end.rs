//! Fig 13 — end-to-end compression/decompression throughput for all four
//! compressors over the six datasets.
//!
//! Error-bounded compressors average over REL {1e-1, 1e-2, 1e-3, 1e-4};
//! cuZFP averages over rates {4, 8, 16, 24} (paper §5.2). The paper's
//! headline: cuSZp and cuZFP reach tens-to-hundreds of GB/s thanks to the
//! single-kernel design, while cuSZ and cuSZx sit at 1.04–2.22 GB/s
//! (95.53× / 55.18× end-to-end speedup for cuSZp).

use super::Ctx;
use crate::measure::measure_pipeline;
use crate::report::{f2, Report};
use crate::resolve_bound;
use crate::{all_compressors, CUZFP_RATES};
use baselines::CuzfpLike;
use cuszp_core::ErrorBound;
use datasets::{generate_subset, DatasetId};
use gpu_sim::DeviceSpec;
use serde::Serialize;

/// Paper-reported end-to-end numbers quoted in the text (GB/s).
const PAPER_NOTES: &str = "paper: cuSZp avg 93.63 (comp) / 120.04 (decomp); \
cuSZp comp range 41.77 (CESM-ATM) .. 140.44 (QMCPack); decomp range 49.91 \
(CESM-ATM) .. 190.11 (NYX); cuSZ+cuSZx 1.04..2.22; speedups 95.53x / 55.18x";

/// One dataset × compressor cell.
#[derive(Debug, Clone, Serialize)]
pub struct Cell {
    /// Dataset name.
    pub dataset: String,
    /// Compressor name.
    pub compressor: String,
    /// Mean end-to-end compression throughput, GB/s.
    pub comp_gbps: f64,
    /// Mean end-to-end decompression throughput, GB/s.
    pub decomp_gbps: f64,
}

/// Measure the Fig 13 grid. Returns all cells (used by fig15 too, via the
/// kernel-throughput variant).
pub fn measure(ctx: &Ctx, kernel_only: bool) -> Vec<Cell> {
    let spec = DeviceSpec::a100();
    let mut cells = Vec::new();
    for id in DatasetId::all() {
        let fields = generate_subset(id, ctx.scale, ctx.max_fields);
        for comp in all_compressors(8) {
            let mut comp_sum = 0.0;
            let mut decomp_sum = 0.0;
            let mut count = 0usize;
            if comp.is_error_bounded() {
                for bound in ErrorBound::paper_rel_set() {
                    for field in &fields {
                        let eb = resolve_bound(field, bound);
                        let m = measure_pipeline(&spec, comp.as_ref(), field, eb);
                        comp_sum += if kernel_only {
                            m.comp_kernel_gbps
                        } else {
                            m.comp_e2e_gbps
                        };
                        decomp_sum += if kernel_only {
                            m.decomp_kernel_gbps
                        } else {
                            m.decomp_e2e_gbps
                        };
                        count += 1;
                    }
                }
            } else {
                for rate in CUZFP_RATES {
                    let comp_r = CuzfpLike::new(rate);
                    for field in &fields {
                        let m = measure_pipeline(&spec, &comp_r, field, 0.0);
                        comp_sum += if kernel_only {
                            m.comp_kernel_gbps
                        } else {
                            m.comp_e2e_gbps
                        };
                        decomp_sum += if kernel_only {
                            m.decomp_kernel_gbps
                        } else {
                            m.decomp_e2e_gbps
                        };
                        count += 1;
                    }
                }
            }
            cells.push(Cell {
                dataset: id.name().to_string(),
                compressor: comp.kind().name().to_string(),
                comp_gbps: comp_sum / count as f64,
                decomp_gbps: decomp_sum / count as f64,
            });
        }
    }
    cells
}

/// Render the Fig 13 tables and speedup summary.
pub fn render(report: &mut Report, cells: &[Cell], label: &str) {
    for (title, pick) in [
        (format!("{label} compression throughput (GB/s)"), 0usize),
        (format!("{label} decompression throughput (GB/s)"), 1usize),
    ] {
        report.line(&format!("\n{title}"));
        let compressors = ["cuSZp", "cuSZ", "cuSZx", "cuZFP"];
        let mut rows = Vec::new();
        for id in DatasetId::all() {
            let mut row = vec![id.name().to_string()];
            for c in compressors {
                let cell = cells
                    .iter()
                    .find(|x| x.dataset == id.name() && x.compressor == c)
                    .expect("cell measured");
                row.push(f2(if pick == 0 {
                    cell.comp_gbps
                } else {
                    cell.decomp_gbps
                }));
            }
            rows.push(row);
        }
        report.table(&["dataset", "cuSZp", "cuSZ", "cuSZx", "cuZFP"], &rows);
    }

    // Aggregate speedups (the paper's headline claim).
    let avg = |c: &str, f: &dyn Fn(&Cell) -> f64| -> f64 {
        let v: Vec<f64> = cells.iter().filter(|x| x.compressor == c).map(f).collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    let cuszp_c = avg("cuSZp", &|x| x.comp_gbps);
    let cuszp_d = avg("cuSZp", &|x| x.decomp_gbps);
    let cusz_c = avg("cuSZ", &|x| x.comp_gbps);
    let cusz_d = avg("cuSZ", &|x| x.decomp_gbps);
    let cuszx_c = avg("cuSZx", &|x| x.comp_gbps);
    let cuszx_d = avg("cuSZx", &|x| x.decomp_gbps);
    report.line(&format!(
        "\ncuSZp average: {:.2} GB/s comp, {:.2} GB/s decomp",
        cuszp_c, cuszp_d
    ));
    if label == "End-to-end" {
        report.line(&format!(
            "speedup vs cuSZ: {:.1}x comp / {:.1}x decomp   (paper: 95.53x end-to-end)",
            cuszp_c / cusz_c,
            cuszp_d / cusz_d
        ));
        report.line(&format!(
            "speedup vs cuSZx: {:.1}x comp / {:.1}x decomp  (paper: 55.18x end-to-end)",
            cuszp_c / cuszx_c,
            cuszp_d / cuszx_d
        ));
    } else {
        report.line(&format!(
            "kernel ratio vs cuSZ: {:.1}x comp / {:.1}x decomp   (paper: ~2x)",
            cuszp_c / cusz_c,
            cuszp_d / cusz_d
        ));
        report.line(&format!(
            "kernel ratio vs cuSZx: {:.2}x comp / {:.2}x decomp  (paper: ~0.6x — \
cuSZx kernels are FASTER; its end-to-end collapse is host work, Fig 14)",
            cuszp_c / cuszx_c,
            cuszp_d / cuszx_d
        ));
    }
}

/// Run the Fig 13 experiment.
pub fn run(ctx: &Ctx) {
    let mut report = Report::new(
        "fig13",
        "End-to-end throughput, 4 compressors x 6 datasets",
        &ctx.out_dir,
    );
    let cells = measure(ctx, false);
    render(&mut report, &cells, "End-to-end");
    report.line(&format!("\n{PAPER_NOTES}"));
    report.save_json(&cells);
    report.save_text();
}
