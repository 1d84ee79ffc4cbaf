//! Fig 22 — cuSZp over a time-varying RTM simulation: one snapshot every
//! 100 timesteps of a 3600-step shot, compressed at REL 1e-2.
//!
//! Paper: throughput *decreases* with timestep (~150 → ~105 GB/s
//! compression) because later snapshots have smaller value ranges and
//! fewer zero blocks under a REL bound. Our RTM generator reproduces the
//! mechanism (wavefronts + reverberation fill the volume over time), so
//! the same downward trend must emerge from the measured zero-block
//! fraction.

use super::Ctx;
use crate::measure::measure_pipeline;
use crate::report::{f2, Report};
use crate::resolve_bound;
use baselines::common::CuszpAdapter;
use cuszp_core::ErrorBound;
use datasets::{rtm, DatasetId};
use gpu_sim::DeviceSpec;
use serde::Serialize;

/// One snapshot's measurements.
#[derive(Debug, Clone, Serialize)]
pub struct Point {
    /// RTM timestep.
    pub timestep: usize,
    /// Fraction of exactly-zero values in the snapshot.
    pub zero_fraction: f64,
    /// End-to-end compression throughput, GB/s.
    pub comp_gbps: f64,
    /// End-to-end decompression throughput, GB/s.
    pub decomp_gbps: f64,
    /// Compression ratio.
    pub ratio: f64,
}

/// Run the Fig 22 experiment.
pub fn run(ctx: &Ctx) {
    let mut report = Report::new("fig22", "cuSZp on time-varying RTM", &ctx.out_dir);
    let spec = DeviceSpec::a100();
    let comp = CuszpAdapter::new();
    let shape = ctx.scale.shape(DatasetId::Rtm);

    let mut points = Vec::new();
    let mut rows = Vec::new();
    for step in (200..=3600).step_by(200) {
        let field = rtm::snapshot(step, &shape);
        let zero = rtm::zero_fraction(&field);
        let eb = resolve_bound(&field, ErrorBound::Rel(1e-2));
        let m = measure_pipeline(&spec, &comp, &field, eb);
        rows.push(vec![
            step.to_string(),
            f2(zero * 100.0) + "%",
            f2(m.comp_e2e_gbps),
            f2(m.decomp_e2e_gbps),
            f2(m.ratio),
        ]);
        points.push(Point {
            timestep: step,
            zero_fraction: zero,
            comp_gbps: m.comp_e2e_gbps,
            decomp_gbps: m.decomp_e2e_gbps,
            ratio: m.ratio,
        });
    }
    report.table(
        &["timestep", "zero", "comp GB/s", "decomp GB/s", "ratio"],
        &rows,
    );

    let first = &points[1];
    let last = points.last().expect("points measured");
    report.line(&format!(
        "\ntrend: comp {:.1} -> {:.1} GB/s, zero blocks {:.0}% -> {:.0}% \
(paper: ~150 -> ~105 GB/s as zero blocks vanish)",
        first.comp_gbps,
        last.comp_gbps,
        first.zero_fraction * 100.0,
        last.zero_fraction * 100.0
    ));
    report.save_json(&points);
    report.save_text();
}
