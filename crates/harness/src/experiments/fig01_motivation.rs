//! Fig 1 — the motivating RTM example: two reconstructions with *similar
//! SSIM* can have very different visual quality.
//!
//! We reproduce the setup: an RTM slice reconstructed (a) by cuSZp at a
//! moderate bound and (b) by cuSZx at a bound chosen so its SSIM is at
//! least as high — yet (b) carries constant-block artifacts the stripe
//! score exposes, echoing the paper's point that PSNR/SSIM alone can
//! mislead and visualization must be checked too.

use super::Ctx;
use crate::measure::measure_pipeline;
use crate::report::Report;
use crate::resolve_bound;
use baselines::common::CuszpAdapter;
use baselines::CuszxLike;
use cuszp_core::ErrorBound;
use datasets::{rtm, DatasetId, Field};
use gpu_sim::DeviceSpec;
use metrics::image::{banding_score, stripe_score, write_ppm};
use metrics::ssim::ssim;
use serde::Serialize;

/// One reconstruction's summary.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Label ("reconstructed data1/2").
    pub label: String,
    /// Compressor used.
    pub compressor: String,
    /// SSIM vs the original.
    pub ssim: f64,
    /// Stripe-excess score of the rendered slice.
    pub stripe: f64,
    /// Banding score (error coherence over 128-value segments).
    pub banding: f64,
}

/// Run the Fig 1 experiment.
pub fn run(ctx: &Ctx) {
    let mut report = Report::new(
        "fig01",
        "Motivation: similar SSIM, different visual quality (RTM)",
        &ctx.out_dir,
    );
    let spec = DeviceSpec::a100();
    let field = rtm::snapshot(2000, &ctx.scale.shape(DatasetId::Rtm));
    let slice_idx = field.shape[0] / 3;
    let (h, w, plane) = field.slice2d(slice_idx);
    write_ppm(&ctx.out_dir.join("fig01_original.ppm"), h, w, &plane).expect("write ppm");
    let base_stripe = stripe_score(h, w, &plane, 64);

    let eb1 = resolve_bound(&field, ErrorBound::Rel(2e-2));
    let m1 = measure_pipeline(&spec, &CuszpAdapter::new(), &field, eb1);
    let eb2 = resolve_bound(&field, ErrorBound::Rel(1e-2));
    let m2 = measure_pipeline(&spec, &CuszxLike::new(), &field, eb2);

    let mut rows = Vec::new();
    let mut out = Vec::new();
    for (label, comp_name, m) in [
        ("reconstructed data1", "cuSZp", &m1),
        ("reconstructed data2", "cuSZx", &m2),
    ] {
        let s = ssim(&field.data, &m.reconstruction, &field.shape);
        let recon = Field::new(
            field.name.clone(),
            field.shape.clone(),
            m.reconstruction.clone(),
        );
        let (h, w, rplane) = recon.slice2d(slice_idx);
        let file = format!("fig01_{}.ppm", comp_name.to_lowercase());
        write_ppm(&ctx.out_dir.join(&file), h, w, &rplane).expect("write ppm");
        let stripe = (stripe_score(h, w, &rplane, 64) - base_stripe).max(0.0);
        let banding = banding_score(&field.data, &m.reconstruction, 128);
        rows.push(vec![
            label.to_string(),
            comp_name.to_string(),
            format!("{s:.4}"),
            format!("{stripe:.4}"),
            format!("{banding:.4}"),
        ]);
        out.push(Row {
            label: label.to_string(),
            compressor: comp_name.to_string(),
            ssim: s,
            stripe,
            banding,
        });
    }
    report.table(
        &["label", "compressor", "SSIM", "stripe excess", "banding"],
        &rows,
    );
    report.line(
        "\npaper (Fig 1): data2 has the *higher* SSIM (0.9948 vs 0.9871) yet shows \
obvious distorted patterns — statistics alone are not sufficient quality \
evidence. The banding score (spatially coherent error) is the measurable \
counterpart of the visible artifact.",
    );
    report.save_json(&out);
    report.save_text();
}
