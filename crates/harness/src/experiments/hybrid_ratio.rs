//! Hybrid lossy–lossless second stage: per-mode, per-tier ratio and
//! throughput of the `CUSZPHY1` entropy subsystem (ISSUE 9, extended by
//! ISSUE 10).
//!
//! cuSZp's fixed-length blocks leave entropy on the table when the
//! bit-shuffled planes are sparse or repetitive. The hybrid stage
//! re-encodes the plain `CUSZP1` stream chunk-by-chunk, picking per
//! chunk among passthrough, an SZx-style constant flush, zero-run RLE,
//! and canonical Huffman (one-way or four-stream interleaved) via a
//! cheap sampled estimator. This experiment measures, per dataset and
//! per SIMD tier the host supports, the compression ratio and
//! single-core second-stage throughput of each mode **forced** across
//! the whole frame, next to the adaptive estimator's pick — plus a
//! uniform-noise control where no mode can win and the estimator must
//! get out of the way. The `fixed` rows time the first-stage codec
//! itself (warm-arena `compress_into`/`decompress_into_threaded_at`, the
//! same methodology as the hybrid rows), so the hybrid overhead factor
//! is readable straight from the artifact.
//!
//! Written as `BENCH_hybrid.json` at the repository root. Hard
//! assertions (the ISSUE 9 acceptance criteria, now pinned per tier):
//!
//! * every hybrid frame decodes **byte-identical** to the plain frame it
//!   staged from (adaptive and all forced modes, at every tier);
//! * hybrid frames are byte-identical across tiers (the ladder selects
//!   kernels, never output);
//! * the shipped hybrid ratio (with the product's whole-frame fallback)
//!   is ≥ the fixed-length ratio on every dataset;
//! * when the estimator selects passthrough for the majority of chunks,
//!   its encode throughput stays within a constant factor (0.75×) of
//!   forced passthrough — a broken-estimator guard, not a noise-level
//!   bound (see `measure_dataset`).

use super::Ctx;
use crate::report::{f2, Report};
use cuszp_core::hybrid::{self, HybridRef, HybridScratch, Mode};
use cuszp_core::{fast, simd, CuszpConfig, Scratch, SimdLevel};
use datasets::{generate_subset, DatasetId, Scale};
use serde::Serialize;
use std::time::Instant;

/// One dataset × mode × tier measurement of the second stage.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Dataset (or `noise` for the synthetic control).
    pub dataset: String,
    /// `fixed` (first-stage codec, no second stage), `adaptive`, or a
    /// forced mode name.
    pub mode: String,
    /// SIMD dispatch tier the measurement ran at (`scalar`/`avx2`/
    /// `avx512`; only tiers the host supports appear).
    pub tier: String,
    /// End-to-end compression ratio: raw bytes / stored bytes. Forced
    /// modes report their true frame size; `adaptive` reports the
    /// shipped size (the product keeps the plain frame when the stage
    /// does not win).
    pub ratio: f64,
    /// Stored bytes behind `ratio`.
    pub stored_bytes: usize,
    /// Encode throughput, GB/s of raw input (single core, warm arena).
    /// For `fixed` this is the first-stage codec; for every other mode
    /// it covers only the second stage (the plain frame is already
    /// staged, matching how the store codec and service run it).
    pub enc_gbps: f64,
    /// Decode throughput, GB/s of raw input (single core, warm arena).
    pub dec_gbps: f64,
}

/// Per-dataset adaptive-estimator summary.
#[derive(Debug, Clone, Serialize)]
pub struct AdaptiveSummary {
    /// Dataset name.
    pub dataset: String,
    /// Chunks per mode in the adaptive frame: `[pass, constant, rle,
    /// huffman, huffman4]`.
    pub mode_histogram: [usize; 5],
    /// Whether the shipped payload was the hybrid frame (vs the plain
    /// fallback).
    pub hybrid_won: bool,
}

/// The checked-in benchmark artifact.
#[derive(Debug, Clone, Serialize)]
pub struct BenchFile {
    /// Artifact schema tag.
    pub experiment: String,
    /// Highest SIMD tier the running host supports — rows stop there.
    pub detected_tier: String,
    /// REL bound resolved per dataset against its own value range.
    pub rel_bound: f64,
    /// Tighter REL bound used for the `noise` control: it keeps ~19
    /// residual bits, so every bit-shuffled plane is dense and the
    /// estimator must select passthrough.
    pub noise_rel_bound: f64,
    /// Timing samples per measurement (best-of).
    pub samples: usize,
    /// All dataset × mode × tier rows.
    pub rows: Vec<Row>,
    /// Per-dataset estimator behavior (tier-invariant: hybrid frames
    /// are byte-identical across the ladder).
    pub adaptive: Vec<AdaptiveSummary>,
}

const MODES: [(Mode, &str); 5] = [
    (Mode::Pass, "pass"),
    (Mode::Constant, "constant"),
    (Mode::Rle, "rle"),
    (Mode::Huffman, "huffman"),
    (Mode::Huffman4, "huffman4"),
];

struct BestOf {
    best: f64,
}

impl BestOf {
    fn new() -> Self {
        BestOf {
            best: f64::INFINITY,
        }
    }
    fn sample(&mut self, reps: usize, mut f: impl FnMut()) {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        self.best = self.best.min(t0.elapsed().as_secs_f64() / reps as f64);
    }
}

/// Deterministic uniform noise: every bit-plane is dense, so no entropy
/// mode can beat passthrough and the estimator's job is to stay out of
/// the way.
fn noise(n: usize) -> Vec<f32> {
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s % 2_000_001) as f32 - 1_000_000.0) * 0.01
        })
        .collect()
}

/// Measure one dataset's second-stage rows across every supported tier.
/// Returns the (tier-invariant) adaptive summary.
#[allow(clippy::too_many_lines)]
fn measure_dataset(
    name: &str,
    data: &[f32],
    rel: f64,
    samples: usize,
    detected: SimdLevel,
    rows: &mut Vec<Row>,
) -> AdaptiveSummary {
    let base = CuszpConfig::default();
    let raw = data.len() * 4;
    let eb = rel * cuszp_core::value_range(data);
    let reps = ((64 << 20) / raw.max(1)).clamp(1, 64);
    let mut scratch = Scratch::new();
    let mut hs = HybridScratch::new();
    let mut plain = Vec::new();
    let mut frame = Vec::new();
    let mut back = Vec::new();
    let mut field = vec![0.0f32; data.len()];
    fast::compress_into(&mut scratch, data, eb, base, &mut plain);

    let mut hist = [0usize; 5];
    let mut hybrid_won = false;
    let mut scalar_frame: Option<Vec<u8>> = None;
    for level in SimdLevel::ALL.into_iter().filter(|&l| l <= detected) {
        let cfg = CuszpConfig {
            simd: Some(level),
            ..base
        };

        // First-stage baseline, same warm-arena methodology as the
        // hybrid rows below so the overhead factor reads off directly.
        let mut fixed_enc = BestOf::new();
        let mut fixed_dec = BestOf::new();
        for _ in 0..samples {
            fixed_enc.sample(reps, || {
                fast::compress_into(&mut scratch, data, eb, cfg, &mut plain);
                std::hint::black_box(plain.len());
            });
            fixed_dec.sample(reps, || {
                let r = cuszp_core::CompressedRef::parse(&plain).expect("own frame parses");
                fast::decompress_into_threaded_at(r, 1, &mut scratch, Some(level), &mut field);
                std::hint::black_box(field.len());
            });
        }
        rows.push(Row {
            dataset: name.to_string(),
            mode: "fixed".to_string(),
            tier: level.name().to_string(),
            ratio: raw as f64 / plain.len() as f64,
            stored_bytes: plain.len(),
            enc_gbps: raw as f64 / fixed_enc.best / 1e9,
            dec_gbps: raw as f64 / fixed_dec.best / 1e9,
        });

        // Encode + verify + time one (forced or adaptive) second-stage
        // configuration at this tier.
        let mut run = |force: Option<Mode>| -> (Vec<u8>, f64, f64, [usize; 5]) {
            let r = cuszp_core::CompressedRef::parse(&plain).expect("own frame parses");
            let chunk_blocks = hybrid::auto_chunk_blocks(&r);
            hybrid::encode_with_at(&r, chunk_blocks, force, level, &mut hs, &mut frame);
            let h = HybridRef::parse(&frame).expect("own hybrid frame parses");
            let hist = h.mode_histogram();
            hybrid::decode_stream_bytes(&h, &mut hs, &mut back).expect("own frame decodes");
            assert_eq!(
                back, plain,
                "{name}/{force:?}/{level}: hybrid frame must decode byte-identical to the plain frame"
            );

            let mut enc = BestOf::new();
            let mut dec = BestOf::new();
            for _ in 0..samples {
                enc.sample(reps, || {
                    hybrid::encode_with_at(&r, chunk_blocks, force, level, &mut hs, &mut frame);
                    std::hint::black_box(frame.len());
                });
                dec.sample(reps, || {
                    let h = HybridRef::parse(&frame).expect("parse");
                    hybrid::decode_stream_bytes(&h, &mut hs, &mut back).expect("decode");
                    std::hint::black_box(back.len());
                });
            }
            (
                frame.clone(),
                raw as f64 / enc.best / 1e9,
                raw as f64 / dec.best / 1e9,
                hist,
            )
        };

        let (adaptive_frame, adaptive_enc, adaptive_dec, tier_hist) = run(None);
        // The ladder selects kernels, never output: every tier's
        // adaptive frame must match the first tier's byte-for-byte.
        match &scalar_frame {
            None => scalar_frame = Some(adaptive_frame.clone()),
            Some(s) => assert_eq!(
                s, &adaptive_frame,
                "{name}/{level}: adaptive frame must be byte-identical across tiers"
            ),
        }
        hist = tier_hist;
        let adaptive_len = adaptive_frame.len();
        hybrid_won = adaptive_len < plain.len();
        let shipped = adaptive_len.min(plain.len());
        rows.push(Row {
            dataset: name.to_string(),
            mode: "adaptive".to_string(),
            tier: level.name().to_string(),
            ratio: raw as f64 / shipped as f64,
            stored_bytes: shipped,
            enc_gbps: adaptive_enc,
            dec_gbps: adaptive_dec,
        });

        let mut pass_enc = 0.0f64;
        for (mode, label) in MODES {
            let (forced_frame, enc_gbps, dec_gbps, _) = run(Some(mode));
            let len = forced_frame.len();
            if mode == Mode::Pass {
                pass_enc = enc_gbps;
            }
            rows.push(Row {
                dataset: name.to_string(),
                mode: label.to_string(),
                tier: level.name().to_string(),
                ratio: raw as f64 / len as f64,
                stored_bytes: len,
                enc_gbps,
                dec_gbps,
            });
        }

        // ISSUE 9 acceptance: an estimator that picks passthrough must
        // stay within a constant factor of passthrough's own throughput.
        // The guard exists to catch a broken estimator (one that codes
        // incompressible chunks, or re-scans them many times) — an
        // order-of-magnitude failure — not percent-level costs: both
        // sides are best-of-N timings of multi-GB/s memcpy loops on a
        // shared-core host, where scheduler noise alone has been
        // observed to move the two loops >10% apart run to run.
        let total_chunks: usize = hist.iter().sum();
        if hist[Mode::Pass.to_byte() as usize] * 2 > total_chunks {
            assert!(
                adaptive_enc >= 0.75 * pass_enc,
                "{name}/{level}: adaptive picked pass on most chunks but lost \
                 {:.1}% throughput (adaptive {adaptive_enc:.2} GB/s vs pass {pass_enc:.2} GB/s)",
                100.0 * (1.0 - adaptive_enc / pass_enc),
            );
        }
    }

    AdaptiveSummary {
        dataset: name.to_string(),
        mode_histogram: hist,
        hybrid_won,
    }
}

/// Run the hybrid-ratio experiment.
pub fn run(ctx: &Ctx) {
    let mut report = Report::new(
        "hybrid_ratio",
        "Hybrid second stage: ratio and throughput per entropy mode and SIMD tier",
        &ctx.out_dir,
    );
    let rel = 1e-2;
    let noise_rel = 1e-6;
    let detected = simd::detect_level();
    let (noise_n, samples) = match ctx.scale {
        Scale::Tiny => (1usize << 16, 3usize),
        Scale::Small => (1 << 20, 10),
        Scale::Medium => (1 << 22, 20),
    };
    report.line(&format!(
        "REL bound {rel:.0e} per dataset ({noise_rel:.0e} on the noise control); \
         best of {samples} samples, single core, tiers up to {}",
        detected.name()
    ));

    let mut rows = Vec::new();
    let mut adaptive = Vec::new();
    for id in DatasetId::all() {
        let fields = generate_subset(id, ctx.scale, 1);
        let field = fields.first().expect("dataset has a field");
        adaptive.push(measure_dataset(
            id.name(),
            &field.data,
            rel,
            samples,
            detected,
            &mut rows,
        ));
    }
    adaptive.push(measure_dataset(
        "noise",
        &noise(noise_n),
        noise_rel,
        samples,
        detected,
        &mut rows,
    ));
    // The control exists to pin the estimator's passthrough overhead —
    // at ~19 residual bits no entropy mode can win, so it must pick
    // pass (and the constant-factor throughput check inside measure_dataset ran).
    let noise_hist = adaptive.last().expect("noise measured").mode_histogram;
    assert!(
        noise_hist[0] * 2 > noise_hist.iter().sum::<usize>(),
        "estimator must select passthrough on dense noise, got {noise_hist:?}"
    );

    // Acceptance: the shipped hybrid payload never loses to the plain
    // fixed-length stream (the whole-frame fallback guarantees it; this
    // keeps the artifact honest about it). Ratios are tier-invariant, so
    // the first matching tier's rows cover them all.
    for summary in &adaptive {
        let fixed = rows
            .iter()
            .find(|r| r.dataset == summary.dataset && r.mode == "fixed")
            .expect("fixed row");
        let hy = rows
            .iter()
            .find(|r| r.dataset == summary.dataset && r.mode == "adaptive")
            .expect("adaptive row");
        assert!(
            hy.ratio >= fixed.ratio,
            "{}: hybrid ratio {} must be >= fixed ratio {}",
            summary.dataset,
            hy.ratio,
            fixed.ratio
        );
    }

    report.table(
        &[
            "dataset", "mode", "tier", "ratio", "stored", "enc GB/s", "dec GB/s",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    r.mode.clone(),
                    r.tier.clone(),
                    f2(r.ratio),
                    format!("{}", r.stored_bytes),
                    f2(r.enc_gbps),
                    f2(r.dec_gbps),
                ]
            })
            .collect::<Vec<_>>(),
    );
    for s in &adaptive {
        report.line(&format!(
            "{}: adaptive chunks [pass {}, constant {}, rle {}, huffman {}, huffman4 {}]{}",
            s.dataset,
            s.mode_histogram[0],
            s.mode_histogram[1],
            s.mode_histogram[2],
            s.mode_histogram[3],
            s.mode_histogram[4],
            if s.hybrid_won {
                ""
            } else {
                " (plain fallback shipped)"
            }
        ));
    }

    let bench = BenchFile {
        experiment: "hybrid_ratio".to_string(),
        detected_tier: detected.name().to_string(),
        rel_bound: rel,
        noise_rel_bound: noise_rel,
        samples,
        rows: rows.clone(),
        adaptive,
    };
    report.save_json(&rows);
    report.save_text();

    let root = ctx.out_dir.parent().unwrap_or(std::path::Path::new("."));
    let path = root.join("BENCH_hybrid.json");
    let json = serde_json::to_string_pretty(&bench).expect("serialize bench file");
    std::fs::write(&path, json).expect("write BENCH_hybrid.json");
    report.line(&format!(
        "benchmark trajectory written to {}",
        path.display()
    ));
}
