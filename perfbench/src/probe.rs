//! The codec probe: every public `cuszp-core` and hybrid/entropy function
//! the serving layers call, run on one workload's own codec inputs (the
//! pipeline's chunks, the store's chunks or the service's request
//! slices). It gives the `core.*` and `entropy.*` per-layer metrics, and
//! its counts (zero blocks, fixed lengths, entropy modes, coded share) are
//! deterministic for a seed.

use crate::samples::Samples;
use crate::trace::{Kind, Layer, Tracer};
use crate::util::{within_bound, Metrics, Rng};
use cuszp_core::{
    fast, hybrid, simd, CompressedRef, CuszpConfig, FloatData, HybridRef, HybridScratch, Scratch,
};

/// Codec input: a slice of one field and its resolved absolute bound.
pub enum Input<'a> {
    F32(&'a [f32], f64),
    F64(&'a [f64], f64),
}

impl Input<'_> {
    pub fn bytes(&self) -> u64 {
        match self {
            Input::F32(d, _) => 4 * d.len() as u64,
            Input::F64(d, _) => 8 * d.len() as u64,
        }
    }
}

#[derive(Default)]
struct Counts {
    blocks: u64,
    zero_blocks: u64,
    fixed_len_sum: u64,
    plain_bytes: u64,
    hybrid_bytes: u64,
    modes: [u64; 5],
}

struct State {
    scratch: Scratch,
    hs: HybridScratch,
    stream: Vec<u8>,
    frame: Vec<u8>,
    counts: Counts,
    rng: Rng,
    failed: u64,
    attempted: u64,
}

/// Probe the inputs in order until `cap` raw bytes are covered. The
/// deterministic counts go into the returned samples for the same-seed
/// check.
pub fn run(inputs: &[Input<'_>], cap: u64, seed: u64, tr: &mut Tracer) -> (Samples, Metrics) {
    let mut st = State {
        scratch: Scratch::new(),
        hs: HybridScratch::new(),
        stream: Vec::new(),
        frame: Vec::new(),
        counts: Counts::default(),
        rng: Rng::new(seed, 9),
        failed: 0,
        attempted: 0,
    };
    let mut covered = 0;
    for (i, input) in inputs.iter().enumerate() {
        if covered >= cap {
            break;
        }
        covered += input.bytes();
        match input {
            Input::F32(d, eb) => one(d, *eb, i as u64, &mut st, tr),
            Input::F64(d, eb) => one(d, *eb, i as u64, &mut st, tr),
        }
    }
    let c = &st.counts;
    let mut m = Metrics::default();
    for (name, unit) in [
        ("core.resolve", "GB/s"),
        ("core.compress_with", "GB/s"),
        ("core.compress_into", "GB/s"),
        ("core.decompress_into", "GB/s"),
        ("entropy.encode", "GB/s"),
        ("entropy.decode", "GB/s"),
    ] {
        m.set(format!("{name}.gbps"), tr.gbps(name), unit);
    }
    m.set(
        "core.decompress_blocks.us_per_call",
        tr.us_per_call("core.decompress_blocks"),
        "us",
    );
    m.set(
        "core.zero_block_share",
        c.zero_blocks as f64 / c.blocks as f64,
        "fraction",
    );
    m.set(
        "core.mean_fixed_len",
        c.fixed_len_sum as f64 / c.blocks as f64,
        "bits",
    );
    m.set(
        "entropy.coded_share",
        c.hybrid_bytes as f64 / c.plain_bytes as f64,
        "fraction",
    );
    for (i, mode) in ["pass", "constant", "rle", "huffman", "huffman4"]
        .iter()
        .enumerate()
    {
        m.set(format!("entropy.mode.{mode}"), c.modes[i] as f64, "count");
    }
    let s = Samples {
        attempted: st.attempted,
        failed: st.failed,
        counts: vec![(
            "probe.counts".into(),
            format!(
                "blocks={} zero_blocks={} fixed_len_sum={} plain_bytes={} hybrid_bytes={} modes={:?}",
                c.blocks, c.zero_blocks, c.fixed_len_sum, c.plain_bytes, c.hybrid_bytes, c.modes
            ),
        )],
        ..Samples::default()
    };
    (s, m)
}

fn one<T: FloatData + Default>(data: &[T], eb: f64, req: u64, st: &mut State, tr: &mut Tracer) {
    let cfg = CuszpConfig::default();
    let bytes = std::mem::size_of_val(data) as u64;
    let (core, probe) = (Layer::Core, Kind::Probe);
    let State {
        scratch,
        hs,
        stream,
        frame,
        counts,
        rng,
        failed,
        attempted,
    } = st;
    *attempted += 1;
    let mut ok = true;
    tr.time("core.resolve", core, probe, 0, req, bytes, || {
        cuszp_core::value_range(data)
    });
    let (owned, _, _) = tr.time("core.compress_with", core, probe, 0, req, bytes, || {
        fast::compress_with(scratch, data, eb, cfg, 1)
    });
    tr.time("core.compress_into", core, probe, 0, req, bytes, || {
        fast::compress_into(scratch, data, eb, cfg, stream).total_bytes()
    });
    let r = CompressedRef::parse(stream).expect("compress_into emits a valid stream");
    ok &= r.fixed_lengths == &owned.fixed_lengths[..] && r.payload == &owned.payload[..];
    counts.blocks += r.fixed_lengths.len() as u64;
    counts.zero_blocks += r.fixed_lengths.iter().filter(|&&f| f == 0).count() as u64;
    counts.fixed_len_sum += r.fixed_lengths.iter().map(|&f| f as u64).sum::<u64>();
    counts.plain_bytes += stream.len() as u64;

    // Output buffers are written once before timing so page faults stay
    // out of the decode measurements.
    let mut out = vec![T::default(); data.len()];
    out.fill(T::default());
    tr.time("core.decompress_into", core, probe, 0, req, bytes, || {
        fast::decompress_into(r, scratch, &mut out)
    });
    ok &= within_bound(data, &out, eb);

    let level = simd::resolve_level(cfg.simd);
    tr.time(
        "entropy.encode",
        Layer::Entropy,
        probe,
        0,
        req,
        bytes,
        || hybrid::encode_at(&r, hybrid::auto_chunk_blocks(&r), level, hs, frame),
    );
    counts.hybrid_bytes += frame.len().min(stream.len()) as u64;
    let h = HybridRef::parse(frame).expect("encode_at emits a valid frame");
    for (m, n) in counts.modes.iter_mut().zip(h.mode_histogram()) {
        *m += n as u64;
    }
    let mut out2 = vec![T::default(); data.len()];
    out2.fill(T::default());
    let (res, _, _) = tr.time(
        "entropy.decode",
        Layer::Entropy,
        probe,
        0,
        req,
        bytes,
        || hybrid::decode_into(&h, hs, scratch, &mut out2),
    );
    ok &= res.is_ok() && out2 == out;

    // Row-sized random reads: two blocks (64 values) at seeded positions.
    let l = cfg.block_len;
    let nb = r.num_blocks();
    let mut row = vec![T::default(); 2 * l];
    for _ in 0..8 {
        let b = rng.range(0, nb.saturating_sub(1).max(1));
        let e = (b + 2).min(nb);
        let n = (e * l).min(data.len()) - b * l;
        tr.time(
            "core.decompress_blocks",
            core,
            probe,
            0,
            req,
            (n * size_of::<T>()) as u64,
            || fast::decompress_blocks_into(r, b..e, scratch, &mut row[..n]),
        );
        ok &= row[..n] == out[b * l..b * l + n];
    }
    if !ok {
        *failed += 1;
    }
}
