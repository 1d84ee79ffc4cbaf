//! Fig 16 — cuSZx's constant-block stripe artifacts on CESM-ATM at a
//! matched compression ratio (paper: CR ≈ 6.7).
//!
//! cuSZx flushes whole 128-value blocks to their range midpoint; on smooth
//! 2-D climate fields that shows up as horizontal constant runs. We
//! quantify it with the stripe score (fraction of pixels in runs of ≥ 16
//! exactly-equal values) and render slices for visual inspection.

use super::Ctx;
use crate::measure::measure_pipeline;
use crate::report::{f2, Report};
use baselines::common::CuszpAdapter;
use baselines::{Compressor, CuszxLike};
use datasets::{cesm, DatasetId};
use gpu_sim::DeviceSpec;
use metrics::image::{banding_score, stripe_score, write_ppm};
use serde::Serialize;

/// Find an absolute error bound giving approximately the target CR for
/// `comp` on `field` by bisection over log(eb).
pub fn find_eb_for_ratio(
    comp: &dyn Compressor,
    field: &datasets::Field,
    target: f64,
) -> (f64, f64) {
    let spec = DeviceSpec::a100();
    let range = cuszp_core::value_range(&field.data);
    let (mut lo, mut hi) = (range * 1e-7, range * 0.5);
    let mut best = (lo, 0.0);
    for _ in 0..24 {
        let mid = (lo.ln() + hi.ln()) / 2.0;
        let eb = mid.exp();
        let ratio = measure_pipeline(&spec, comp, field, eb).ratio;
        best = (eb, ratio);
        if ratio > target {
            hi = eb;
        } else {
            lo = eb;
        }
        if (ratio - target).abs() / target < 0.03 {
            break;
        }
    }
    best
}

/// Measured summary.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Compressor name.
    pub compressor: String,
    /// Achieved compression ratio.
    pub ratio: f64,
    /// Stripe-excess score of the reconstruction (stripes beyond those in
    /// the original).
    pub stripe: f64,
    /// Banding score: spatial coherence of the error over 128-value row
    /// segments (1 = flush-style stripes, ~0.1 = oscillating error).
    pub banding: f64,
    /// PSNR, dB.
    pub psnr: f64,
}

/// Run the Fig 16 experiment.
pub fn run(ctx: &Ctx) {
    let mut report = Report::new(
        "fig16",
        "cuSZx stripe artifacts on CESM-ATM at matched CR",
        &ctx.out_dir,
    );
    let spec = DeviceSpec::a100();
    // U200 carries mid-latitude eddy texture on top of the zonal jet: at a
    // matched CR, cuSZx's larger effective bound flushes sloped/textured
    // 128-value blocks to their midpoints — the stripe mechanism of
    // Fig 16 — while cuSZp's 32-value Lorenzo blocks track the slopes.
    let field = cesm::field("U200", &ctx.scale.shape(DatasetId::CesmAtm));
    let (h, w, plane) = field.slice2d(0);
    write_ppm(&ctx.out_dir.join("fig16_original.ppm"), h, w, &plane).expect("write ppm");
    let base_stripe = stripe_score(h, w, &plane, 64);
    let target_cr = 6.7;

    let mut rows = Vec::new();
    let mut out = Vec::new();
    let compressors: Vec<(&str, Box<dyn Compressor>)> = vec![
        ("cuSZp", Box::new(CuszpAdapter::new())),
        ("cuSZx", Box::new(CuszxLike::new())),
    ];
    for (name, comp) in compressors {
        let (eb, ratio) = find_eb_for_ratio(comp.as_ref(), &field, target_cr);
        let m = measure_pipeline(&spec, comp.as_ref(), &field, eb);
        let recon_field = datasets::Field::new(
            field.name.clone(),
            field.shape.clone(),
            m.reconstruction.clone(),
        );
        let (h, w, rplane) = recon_field.slice2d(0);
        let file = format!("fig16_{}.ppm", name.to_lowercase().replace('/', "_"));
        write_ppm(&ctx.out_dir.join(&file), h, w, &rplane).expect("write ppm");
        let stripe = (stripe_score(h, w, &rplane, 64) - base_stripe).max(0.0);
        let banding = banding_score(&field.data, &m.reconstruction, 128);
        rows.push(vec![
            name.to_string(),
            f2(ratio),
            format!("{stripe:.4}"),
            format!("{banding:.4}"),
            f2(m.psnr),
        ]);
        out.push(Row {
            compressor: name.to_string(),
            ratio,
            stripe,
            banding,
            psnr: m.psnr,
        });
    }
    report.table(
        &["compressor", "CR", "stripe excess", "banding", "PSNR"],
        &rows,
    );
    report.line(&format!(
        "\noriginal stripe score: {base_stripe:.4}; paper: cuSZx shows horizontal \
stripe artifacts at CR≈6.7 while cuSZp is visually identical to the original"
    ));
    let (pb, xb) = (out[0].banding, out[1].banding);
    report.line(&format!(
        "banding (error coherence over 128-value segments): cuSZx {xb:.4} vs cuSZp {pb:.4}: {}",
        if xb > pb * 1.5 {
            "flush-style stripe artifact reproduced"
        } else {
            "WARNING: expected cuSZx banding to dominate"
        }
    ));
    report.save_json(&out);
    report.save_text();
}
