//! Ablations of cuSZp's design choices (DESIGN.md §5):
//!
//! 1. **Block length L** — the throughput/ratio trade the paper settles at
//!    L = 32 (Fig 6 motivates; smaller blocks = better locality, more
//!    per-block overhead).
//! 2. **Lorenzo prediction on/off** — Fig 4's motivation: the effective
//!    bit width of residuals collapses on smooth data.
//! 3. **Fixed-length vs Huffman encoding of the residuals** — §4.2's
//!    argument: at cuSZp's block granularity, Huffman's gain over
//!    fixed-length is modest while requiring a codebook build + global
//!    serialization.
//! 4. **Hierarchical scan vs a single-tile (flat) scan** — §4.3's design:
//!    thread/warp-level prefix work slashes global traffic.

use super::Ctx;
use crate::measure::measure_pipeline;
use crate::report::{f2, Report};
use crate::resolve_bound;
use baselines::common::CuszpAdapter;
use baselines::cusz::huffman;
use cuszp_core::{CuszpConfig, ErrorBound};
use datasets::{hurricane, nyx, DatasetId};
use gpu_sim::{DeviceBuffer, DeviceSpec, Gpu, LaunchConfig};
use serde::Serialize;

/// One ablation record.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Ablation name.
    pub ablation: String,
    /// Variant label.
    pub variant: String,
    /// Compression ratio (if applicable).
    pub ratio: Option<f64>,
    /// End-to-end compression throughput, GB/s (if applicable).
    pub comp_gbps: Option<f64>,
}

/// Run all ablations.
pub fn run(ctx: &Ctx) {
    let mut report = Report::new("ablations", "cuSZp design-choice ablations", &ctx.out_dir);
    let spec = DeviceSpec::a100();
    let field = hurricane::field("U", &ctx.scale.shape(DatasetId::Hurricane));
    let eb = resolve_bound(&field, ErrorBound::Rel(1e-3));
    let mut out = Vec::new();

    // 1. Block length sweep.
    report.line("\nBlock length L (Hurricane U, REL 1e-3)");
    let mut rows = Vec::new();
    for l in [8usize, 16, 32, 64, 128] {
        let comp = CuszpAdapter::with_config(CuszpConfig {
            block_len: l,
            ..Default::default()
        });
        let m = measure_pipeline(&spec, &comp, &field, eb);
        rows.push(vec![l.to_string(), f2(m.ratio), f2(m.comp_e2e_gbps)]);
        out.push(Row {
            ablation: "block-length".into(),
            variant: l.to_string(),
            ratio: Some(m.ratio),
            comp_gbps: Some(m.comp_e2e_gbps),
        });
    }
    report.table(&["L", "ratio", "comp GB/s"], &rows);

    // 2. Lorenzo on/off.
    report.line("\nLorenzo prediction (Hurricane U + NYX temperature, REL 1e-3)");
    let mut rows = Vec::new();
    for (ds, f) in [
        ("Hurricane-U", field.clone()),
        (
            "NYX-temperature",
            nyx::field("temperature", &ctx.scale.shape(DatasetId::Nyx)),
        ),
    ] {
        let eb = resolve_bound(&f, ErrorBound::Rel(1e-3));
        for lorenzo in [true, false] {
            let comp = CuszpAdapter::with_config(CuszpConfig {
                block_len: 32,
                lorenzo,
                ..Default::default()
            });
            let m = measure_pipeline(&spec, &comp, &f, eb);
            rows.push(vec![
                ds.to_string(),
                if lorenzo { "on" } else { "off" }.to_string(),
                f2(m.ratio),
            ]);
            out.push(Row {
                ablation: "lorenzo".into(),
                variant: format!("{ds}/{}", if lorenzo { "on" } else { "off" }),
                ratio: Some(m.ratio),
                comp_gbps: None,
            });
        }
    }
    report.table(&["field", "lorenzo", "ratio"], &rows);

    // 3. Fixed-length vs Huffman over the same residual stream: compare
    // cuSZp's payload size against an entropy-coded encoding of the same
    // Lorenzo residuals (codebook included).
    report.line("\nFixed-length vs Huffman on cuSZp residuals (Hurricane U, REL 1e-3)");
    let codec = cuszp_core::Cuszp::new();
    let stream = codec.compress(&field.data, ErrorBound::Abs(eb));
    let fixed_bytes = stream.stream_bytes();
    // Re-derive the residual symbols (clamped into a 16-bit alphabet).
    let mut symbols: Vec<u16> = Vec::with_capacity(field.len());
    let mut resid = vec![0i64; 32];
    for block in field.data.chunks(32) {
        cuszp_core::quantize::quantize_block(block, eb, true, &mut resid[..block.len()]);
        for &r in &resid[..block.len()] {
            symbols.push((r.clamp(-32768, 32767) + 32768) as u16);
        }
    }
    let mut freq = vec![0u64; 65536];
    for &s in &symbols {
        freq[s as usize] += 1;
    }
    let lengths = huffman::build_lengths(&freq);
    let book = huffman::Codebook::from_lengths(&lengths);
    let mut bits = Vec::new();
    let bit_len = huffman::encode(&symbols, &book, &mut bits);
    let used_symbols = lengths.iter().filter(|&&l| l > 0).count();
    let huff_bytes = bit_len as u64 / 8 + used_symbols as u64 * 3 + field.len() as u64 / 2048;
    let rows = vec![
        vec![
            "fixed-length (cuSZp)".into(),
            fixed_bytes.to_string(),
            f2(field.size_bytes() as f64 / fixed_bytes as f64),
        ],
        vec![
            "Huffman (+codebook)".into(),
            huff_bytes.to_string(),
            f2(field.size_bytes() as f64 / huff_bytes as f64),
        ],
    ];
    report.table(&["encoding", "bytes", "ratio"], &rows);
    out.push(Row {
        ablation: "encoding".into(),
        variant: "fixed-length".into(),
        ratio: Some(field.size_bytes() as f64 / fixed_bytes as f64),
        comp_gbps: None,
    });
    out.push(Row {
        ablation: "encoding".into(),
        variant: "huffman".into(),
        ratio: Some(field.size_bytes() as f64 / huff_bytes as f64),
        comp_gbps: None,
    });

    // 4. Hierarchical scan vs flat single-block scan.
    report.line("\nGlobal synchronization: hierarchical vs flat scan");
    let sizes: Vec<u32> = field.data.chunks(32).map(|_| 68).collect();
    let mut gpu = Gpu::new(spec.clone());
    let inp = gpu.h2d(&sizes);
    let outbuf = DeviceBuffer::<u32>::zeroed(sizes.len());
    gpu.reset_timeline();
    gpu_sim::scan::exclusive_scan_u32(&mut gpu, &inp, &outbuf, "scan");
    let hier_t = gpu.timeline().gpu_time();

    // Flat scan: one block walks the whole array through global memory.
    let n = sizes.len();
    gpu.reset_timeline();
    gpu.launch("flat_scan", LaunchConfig::grid(1), |ctxk| {
        let i = inp.slice();
        let o = outbuf.slice();
        let mut acc = 0u64;
        for k in 0..n {
            o.set(k, acc as u32);
            acc += i.get(k) as u64;
        }
        ctxk.read("scan", (n * 4) as u64);
        ctxk.write("scan", (n * 4) as u64);
        // Fully serialized: every element is a dependent global round trip.
        ctxk.ops("scan", (n * 220) as u64);
    });
    let flat_t = gpu.timeline().gpu_time();
    let mut rows = Vec::new();
    rows.push(vec![
        "hierarchical (thread/warp/lookback)".into(),
        format!("{:.3e}", hier_t),
        f2(field.size_bytes() as f64 / hier_t / 1e9),
    ]);
    rows.push(vec![
        "flat single-block".into(),
        format!("{:.3e}", flat_t),
        f2(field.size_bytes() as f64 / flat_t / 1e9),
    ]);
    report.table(&["scan design", "time (s)", "effective GB/s"], &rows);
    report.line(&format!(
        "\nhierarchical scan speedup over flat: {:.1}x (the §4.3 design argument)",
        flat_t / hier_t
    ));

    report.save_json(&out);
    report.save_text();
}
