//! Table 3 — compression ratios of the three error-bounded compressors
//! over six datasets × four REL bounds, reported as min/max/avg across
//! fields.
//!
//! The paper's shape claims this reproduces:
//! * cuSZp achieves the highest average CR in most cells (16/24 in the
//!   paper) and its max CR saturates at ~128 on sparse fields (the
//!   1-byte-per-zero-block ceiling).
//! * cuSZx wins HACC at REL 1e-1/1e-2 and CESM-ATM (wide value ranges ⇒
//!   constant blocks), but collapses at tight bounds (no predictor).
//! * cuSZ sits in a narrow 8–31 band (entropy-coding floor ≈ 1 bit/value,
//!   codebook + outlier overhead).
//! * Every compressor's CR decreases monotonically as the bound tightens.
//!
//! A fourth, informational compressor — `cuSZp-hybrid`, the opt-in
//! `CUSZPHY1` entropy second stage — is measured alongside but excluded
//! from the win tallies, which compare the paper's fixed-length
//! compressors.

use super::Ctx;
use crate::error_bounded_compressors;
use crate::measure::measure_pipeline;
use crate::report::{f2, Report};
use crate::resolve_bound;
use cuszp_core::ErrorBound;
use datasets::{generate_subset, DatasetId};
use gpu_sim::DeviceSpec;
use metrics::rate::RatioSummary;
use serde::Serialize;

/// Paper Table 3 average CRs, indexed `[compressor][dataset][bound]` with
/// bounds ordered 1e-1, 1e-2, 1e-3, 1e-4 and datasets in Table 2 order.
/// `None` marks the paper's "n/a" (cuSZ crashes).
pub const PAPER_AVG: [[[Option<f64>; 4]; 6]; 3] = [
    // cuSZp
    [
        [Some(75.45), Some(38.71), Some(22.32), Some(14.36)],
        [Some(99.11), Some(66.74), Some(38.46), Some(22.15)],
        [Some(91.73), Some(17.35), Some(8.08), Some(4.68)],
        [Some(108.48), Some(67.06), Some(42.40), Some(27.56)],
        [Some(34.30), Some(7.63), Some(4.31), Some(2.96)],
        [Some(27.40), Some(14.21), Some(9.82), Some(7.35)],
    ],
    // cuSZ
    [
        [Some(28.73), Some(22.53), Some(15.97), Some(8.36)],
        [Some(31.47), Some(30.22), None, Some(16.22)],
        [Some(21.41), Some(14.53), Some(10.98), None],
        [Some(30.45), None, None, Some(11.63)],
        [Some(30.81), None, None, None],
        [Some(24.63), Some(22.89), Some(18.48), Some(12.47)],
    ],
    // cuSZx
    [
        [Some(74.19), Some(21.67), Some(13.47), Some(10.29)],
        [Some(110.74), Some(61.40), Some(30.37), Some(15.12)],
        [Some(47.40), Some(5.88), Some(3.34), Some(2.26)],
        [Some(76.69), Some(37.51), Some(23.74), Some(18.46)],
        [Some(70.41), Some(44.37), Some(3.00), Some(2.13)],
        [Some(74.30), Some(31.85), Some(24.24), Some(22.57)],
    ],
];

/// One Table 3 cell.
#[derive(Debug, Clone, Serialize)]
pub struct Cell {
    /// Compressor name.
    pub compressor: String,
    /// Dataset name.
    pub dataset: String,
    /// REL bound.
    pub rel: f64,
    /// Min CR across fields.
    pub min: f64,
    /// Max CR.
    pub max: f64,
    /// Mean CR.
    pub avg: f64,
    /// The paper's reported average for this cell (None = n/a).
    pub paper_avg: Option<f64>,
}

/// Measure the full Table 3 grid.
pub fn measure(ctx: &Ctx) -> Vec<Cell> {
    let spec = DeviceSpec::a100();
    let bounds = ErrorBound::paper_rel_set();
    let mut cells = Vec::new();
    for (di, id) in DatasetId::all().into_iter().enumerate() {
        let fields = generate_subset(id, ctx.scale, ctx.max_fields);
        for (ci, comp) in error_bounded_compressors().iter().enumerate() {
            for (bi, bound) in bounds.iter().enumerate() {
                let rel = match bound {
                    ErrorBound::Rel(r) => *r,
                    ErrorBound::Abs(_) => unreachable!("paper set is REL"),
                };
                let ratios: Vec<f64> = fields
                    .iter()
                    .map(|field| {
                        let eb = resolve_bound(field, *bound);
                        measure_pipeline(&spec, comp.as_ref(), field, eb).ratio
                    })
                    .collect();
                let summary = RatioSummary::of(&ratios);
                cells.push(Cell {
                    compressor: comp.kind().name().to_string(),
                    dataset: id.name().to_string(),
                    rel,
                    min: summary.min,
                    max: summary.max,
                    avg: summary.avg,
                    paper_avg: PAPER_AVG[ci][di][bi],
                });
            }
        }
        // The opt-in CUSZPHY1 second stage, as shipped (whole-frame
        // fallback keeps it >= plain cuSZp). Informational cells only:
        // excluded from the win tallies below, since the paper's Table 3
        // compares the fixed-length compressors.
        let hybrid_codec = cuszp_core::Cuszp::with_config(cuszp_core::CuszpConfig {
            hybrid: true,
            ..cuszp_core::CuszpConfig::default()
        });
        for bound in bounds.iter() {
            let rel = match bound {
                ErrorBound::Rel(r) => *r,
                ErrorBound::Abs(_) => unreachable!("paper set is REL"),
            };
            let ratios: Vec<f64> = fields
                .iter()
                .map(|field| {
                    let eb = resolve_bound(field, *bound);
                    let stream = hybrid_codec.compress_serialized(&field.data, ErrorBound::Abs(eb));
                    field.size_bytes() as f64 / stream.len() as f64
                })
                .collect();
            let summary = RatioSummary::of(&ratios);
            cells.push(Cell {
                compressor: "cuSZp-hybrid".to_string(),
                dataset: id.name().to_string(),
                rel,
                min: summary.min,
                max: summary.max,
                avg: summary.avg,
                paper_avg: None,
            });
        }
    }
    cells
}

/// Run the Table 3 experiment.
pub fn run(ctx: &Ctx) {
    let mut report = Report::new(
        "table3",
        "Compression ratios (min/max/avg), error-bounded compressors",
        &ctx.out_dir,
    );
    let cells = measure(ctx);

    for comp in ["cuSZp", "cuSZp-hybrid", "cuSZ", "cuSZx"] {
        report.line(&format!("\n{comp}"));
        let mut rows = Vec::new();
        for id in DatasetId::all() {
            for rel in [1e-1, 1e-2, 1e-3, 1e-4] {
                let c = cells
                    .iter()
                    .find(|c| c.compressor == comp && c.dataset == id.name() && c.rel == rel)
                    .expect("cell measured");
                rows.push(vec![
                    id.name().to_string(),
                    format!("{rel:.0e}"),
                    f2(c.min),
                    f2(c.max),
                    f2(c.avg),
                    c.paper_avg.map_or("n/a".into(), f2),
                ]);
            }
        }
        report.table(&["dataset", "REL", "min", "max", "avg", "paper-avg"], &rows);
    }

    // Who wins each (dataset, bound) cell on average CR?
    let mut cuszp_wins = 0;
    let mut total = 0;
    for id in DatasetId::all() {
        for rel in [1e-1, 1e-2, 1e-3, 1e-4] {
            let best = cells
                .iter()
                .filter(|c| {
                    c.dataset == id.name() && c.rel == rel && c.compressor != "cuSZp-hybrid"
                })
                .max_by(|a, b| a.avg.partial_cmp(&b.avg).expect("finite"))
                .expect("cells exist");
            if best.compressor == "cuSZp" {
                cuszp_wins += 1;
            }
            total += 1;
        }
    }
    report.line(&format!(
        "\ncuSZp has the best average CR in {cuszp_wins}/{total} cells (paper: 16/24)"
    ));

    // Second tally: the paper's cuSZ artifact *crashed* on 7 of the 24
    // cells ("n/a" in Table 3, a codebook-storage bug its authors
    // confirmed); our from-scratch cuSZ does not crash and its
    // near-entropy Huffman is stronger than the 2021 artifact. Scoring
    // only against configurations the paper's cuSZ survived:
    let mut wins_vs_surviving = 0;
    for id in DatasetId::all() {
        for (bi, rel) in [1e-1, 1e-2, 1e-3, 1e-4].into_iter().enumerate() {
            let di = DatasetId::all()
                .iter()
                .position(|d| d.name() == id.name())
                .expect("dataset indexed");
            let cusz_survived = PAPER_AVG[1][di][bi].is_some();
            let best = cells
                .iter()
                .filter(|c| {
                    c.dataset == id.name()
                        && c.rel == rel
                        && c.compressor != "cuSZp-hybrid"
                        && (cusz_survived || c.compressor != "cuSZ")
                })
                .max_by(|a, b| a.avg.partial_cmp(&b.avg).expect("finite"))
                .expect("cells exist");
            if best.compressor == "cuSZp" {
                wins_vs_surviving += 1;
            }
        }
    }
    report.line(&format!(
        "counting cuSZ only where the paper's artifact survived: cuSZp best in \
{wins_vs_surviving}/{total} cells"
    ));
    report.save_json(&cells);
    report.save_text();
}
