//! `archive_query`: 3-D f32 fields archived with `write_shard` (32×64×64
//! chunks, every third field `CZP1`, the rest `CZH1`), then a seeded
//! stream of `Shard::read_region` calls and one `read_all` per shard. A
//! "read" is one `read_region`; a "round trip" is one shard written
//! (bound resolved + `write_shard`) plus its `Shard::open` + `read_all`.

use crate::probe::Input;
use crate::samples::Samples;
use crate::trace::{Kind, Layer, Tracer};
use crate::util::{gb, median, quantile, sum_medians, within_bound, Data, Field, Metrics, Rng};
use cuszp_core::hybrid::{self, HYBRID_MAGIC};
use cuszp_core::{
    fast, simd, CompressedRef, CuszpConfig, ErrorBound, HybridRef, HybridScratch, Scratch,
};
use cuszp_store::{
    write_shard, CodecRegistry, CuszpCodec, CuszpHybridCodec, ErrorBoundedCodec, ReadStats, Shard,
    StoreScratch,
};
use std::time::Instant;

pub const REL: f64 = 1e-3;
pub const CHUNK: [usize; 3] = [32, 64, 64];
const CLASSES: [&str; 4] = ["row", "pencil", "plane", "box"];
/// Reads of each class per 100 in the stream. Rows dominate so that the
/// median lies inside one class (the `CZH1` row probes) rather than on a
/// boundary between classes, which would make it jump between seeds.
const MIX: [usize; 4] = [60, 15, 10, 15];
const READS: usize = 300;
/// Region reads per tick of the archive loop.
const TICK_READS: usize = 40;

/// A shard to write: its data, shape and whether it uses `CZP1`.
pub struct Spec<'a> {
    pub data: &'a [f32],
    pub shape: [usize; 3],
    pub plain: bool,
}

/// Shards for the 3-D f32 fields; `plain[i]` stores field `i` as
/// `CZP1` (absent: every third field).
pub fn specs<'a>(fields: &'a [Field], plain: &[bool]) -> Vec<Spec<'a>> {
    fields
        .iter()
        .enumerate()
        .filter_map(|(i, f)| match (&f.data, f.shape.len()) {
            (Data::F32(d), 3) => Some(Spec {
                data: d,
                shape: [f.shape[0], f.shape[1], f.shape[2]],
                plain: plain.get(i).copied().unwrap_or(i % 3 == 2),
            }),
            _ => None,
        })
        .collect()
}

/// Top corner of `f`, at most `max` per axis, as its own 3-D field (the
/// store probe on other workloads' 3-D fields).
pub fn crop(f: &Field, max: [usize; 3]) -> Option<Field> {
    let (Data::F32(d), 3) = (&f.data, f.shape.len()) else {
        return None;
    };
    let s = [f.shape[0], f.shape[1], f.shape[2]];
    let c = [s[0].min(max[0]), s[1].min(max[1]), s[2].min(max[2])];
    let data = gather(d, s, [0, 0, 0], c);
    Some(Field {
        name: format!("{}.crop", f.name),
        shape: c.to_vec(),
        data: Data::F32(data),
    })
}

/// C-order copy of the box at `o` with dims `c` out of a `s`-shaped array.
fn gather(d: &[f32], s: [usize; 3], o: [usize; 3], c: [usize; 3]) -> Vec<f32> {
    let mut v = Vec::with_capacity(c.iter().product());
    for z in o[0]..o[0] + c[0] {
        for y in o[1]..o[1] + c[1] {
            let at = (z * s[1] + y) * s[2] + o[2];
            v.extend_from_slice(&d[at..at + c[2]]);
        }
    }
    v
}

/// Chunk boxes of a shard in index order: (origin, dims).
fn chunk_boxes(s: [usize; 3]) -> Vec<([usize; 3], [usize; 3])> {
    let mut v = Vec::new();
    for z in (0..s[0]).step_by(CHUNK[0]) {
        for y in (0..s[1]).step_by(CHUNK[1]) {
            for x in (0..s[2]).step_by(CHUNK[2]) {
                let o = [z, y, x];
                let c = [0, 1, 2].map(|i| CHUNK[i].min(s[i] - o[i]));
                v.push((o, c));
            }
        }
    }
    v
}

pub fn bound(d: &[f32]) -> f64 {
    ErrorBound::Rel(REL).absolute(cuszp_core::value_range(d))
}

/// The store's codec inputs: every chunk of every shard at its bound.
pub fn chunk_data(specs: &[Spec<'_>]) -> Vec<(Vec<f32>, f64)> {
    let mut v = Vec::new();
    for s in specs {
        let eb = bound(s.data);
        for (o, c) in chunk_boxes(s.shape) {
            v.push((gather(s.data, s.shape, o, c), eb));
        }
    }
    v
}

pub fn inputs(chunks: &[(Vec<f32>, f64)]) -> Vec<Input<'_>> {
    chunks.iter().map(|(d, eb)| Input::F32(d, *eb)).collect()
}

#[derive(Clone, Copy)]
struct Read {
    shard: usize,
    class: usize,
    origin: [usize; 3],
    extent: [usize; 3],
}

/// The seeded read stream. Each class is spread evenly over the shards
/// (in a seeded shard order), so every seed reads each format equally.
fn read_stream(specs: &[Spec<'_>], seed: u64) -> Vec<Read> {
    let mut rng = Rng::new(seed, 4);
    let mut order: Vec<usize> = (0..specs.len()).collect();
    rng.shuffle(&mut order);
    let mut picks: Vec<(usize, usize)> = (0..4)
        .flat_map(|c| (0..MIX[c] * READS / 100).map(move |k| (c, k)))
        .map(|(c, k)| (c, order[k % order.len()]))
        .collect();
    rng.shuffle(&mut picks);
    picks
        .into_iter()
        .map(|(class, shard)| {
            let s = specs[shard].shape;
            let extent = match class {
                0 => [1, 1, s[2]],
                1 => [s[0], 1, 1],
                2 if rng.range(0, 2) == 0 => [1, s[1], s[2]],
                2 => [s[0], 1, s[2]],
                _ => [s[0].min(8), s[1].min(32), s[2].min(32)],
            };
            let origin = [0, 1, 2].map(|i| rng.range(0, s[i] - extent[i] + 1));
            Read {
                shard,
                class,
                origin,
                extent,
            }
        })
        .collect()
}

fn codec(plain: bool) -> &'static dyn ErrorBoundedCodec {
    if plain {
        &CuszpCodec
    } else {
        &CuszpHybridCodec
    }
}

/// Scratch for replaying the store's codec calls.
#[derive(Default)]
struct Replay {
    scratch: Scratch,
    hs: HybridScratch,
    stream: Vec<u8>,
    frame: Vec<u8>,
    tile: Vec<f32>,
}

/// Replay `write_shard`'s codec calls for shard `s`: gather each chunk and
/// encode it as the codec does. Checks the frames match the shard's.
fn replay_write(
    s: &Spec<'_>,
    eb: f64,
    bytes: &[u8],
    parent: u32,
    req: u64,
    tr: &mut Tracer,
    r: &mut Replay,
) -> bool {
    let Ok(shard) = Shard::open(bytes) else {
        return false;
    };
    let cfg = CuszpConfig::default();
    let level = simd::resolve_level(cfg.simd);
    let mut ok = true;
    for ((o, c), e) in chunk_boxes(s.shape).into_iter().zip(&shard.index().entries) {
        let chunk = gather(s.data, s.shape, o, c);
        let n = 4 * chunk.len() as u64;
        let Replay {
            scratch,
            hs,
            stream,
            frame,
            ..
        } = r;
        tr.time(
            "core.compress_into",
            Layer::Core,
            Kind::Replay,
            parent,
            req,
            n,
            || fast::compress_into(scratch, &chunk, eb, cfg, stream).total_bytes(),
        );
        let stored = &bytes[e.offset as usize..(e.offset + e.len) as usize];
        if s.plain {
            ok &= stored == &stream[..];
        } else {
            let c = CompressedRef::parse(stream).expect("valid stream");
            tr.time(
                "entropy.encode",
                Layer::Entropy,
                Kind::Replay,
                parent,
                req,
                n,
                || hybrid::encode_at(&c, hybrid::auto_chunk_blocks(&c), level, hs, frame),
            );
            let expect: &[u8] = if frame.len() < stream.len() {
                frame
            } else {
                stream
            };
            ok &= stored == expect;
        }
    }
    ok
}

/// Replay the codec calls `read_region` makes: per overlapping chunk,
/// one `decode_blocks` per row of the intersection, through the core or
/// hybrid public function the codec calls (frame parsed per call, as
/// the codec does).
fn replay_read(
    shard: &Shard<'_>,
    bytes: &[u8],
    rd: &Read,
    parent: u32,
    req: u64,
    tr: &mut Tracer,
    r: &mut Replay,
) {
    let ix = shard.index();
    let s = [ix.shape[0], ix.shape[1], ix.shape[2]];
    let l = CuszpConfig::default().block_len;
    for (k, (co, c)) in chunk_boxes(s).into_iter().enumerate() {
        let lo = [0, 1, 2].map(|i| rd.origin[i].max(co[i]));
        let hi = [0, 1, 2].map(|i| (rd.origin[i] + rd.extent[i]).min(co[i] + c[i]));
        if (0..3).any(|i| lo[i] >= hi[i]) {
            continue;
        }
        let e = ix.entries[k];
        let frame = &bytes[e.offset as usize..(e.offset + e.len) as usize];
        let n = e.num_elements as usize;
        let hybrid_frame = frame.starts_with(&HYBRID_MAGIC);
        let rows = ((hi[0] - lo[0]) * (hi[1] - lo[1])) as u32;
        let Replay {
            scratch, hs, tile, ..
        } = r;
        tile.resize(n.max(tile.len()), 0.0);
        let name = if hybrid_frame {
            "entropy.decode_blocks"
        } else {
            "core.decompress_blocks"
        };
        let layer = if hybrid_frame {
            Layer::Entropy
        } else {
            Layer::Core
        };
        let elems = (rows as usize * (hi[2] - lo[2]) * 4) as u64;
        tr.time(name, layer, Kind::Replay, parent, req, elems, || {
            for z in lo[0]..hi[0] {
                for y in lo[1]..hi[1] {
                    let base = ((z - co[0]) * c[1] + (y - co[1])) * c[2];
                    let (a, b) = (base + lo[2] - co[2], base + hi[2] - co[2]);
                    let (b0, b1) = (a / l, b.div_ceil(l));
                    let out = &mut tile[..(b1 * l).min(n) - b0 * l];
                    if hybrid_frame {
                        let h = HybridRef::parse(frame).expect("stored frame parses");
                        hybrid::decode_blocks_into(&h, b0..b1, hs, scratch, out)
                            .expect("stored frame decodes");
                    } else {
                        let p = CompressedRef::parse(frame).expect("stored frame parses");
                        fast::decompress_blocks_into(p, b0..b1, scratch, out);
                    }
                }
            }
        });
        tr.last(rows, 1.0);
    }
}

/// Bound resolution plus `write_shard`, timed as one archive write.
fn write(s: &Spec<'_>, tr: &mut Tracer, req: u64, write_s: &mut f64) -> (Vec<u8>, f64, f64, u32) {
    let n = 4 * s.data.len() as u64;
    let t = Instant::now();
    let (eb, _, _) = tr.time("core.resolve", Layer::Core, Kind::Call, 0, req, n, || {
        bound(s.data)
    });
    let (bytes, ws, span) = tr.time(
        "store.write_shard",
        Layer::Store,
        Kind::Call,
        0,
        req,
        n,
        || write_shard(s.data, &s.shape, &CHUNK, codec(s.plain), eb).expect("write_shard"),
    );
    *write_s += ws;
    (bytes, eb, t.elapsed().as_secs_f64(), span)
}

/// Set-up: open every shard and warm a fresh scratch with one row read
/// per shard. Repeated once per tick, so its median spans the run.
fn setup_once(
    specs: &[Spec<'_>],
    shards: &[Vec<u8>],
    reg: &CodecRegistry,
    opens: &mut Vec<f64>,
) -> f64 {
    let t = Instant::now();
    let mut scratch = StoreScratch::new();
    for (sp, bytes) in specs.iter().zip(shards) {
        let t = Instant::now();
        let shard = Shard::open(bytes).expect("open");
        opens.push(t.elapsed().as_secs_f64());
        let mut row = vec![0f32; sp.shape[2]];
        shard
            .read_region(
                reg,
                &[0, 0, 0],
                &[1, 1, sp.shape[2]],
                &mut scratch,
                &mut row,
            )
            .expect("warm read");
    }
    t.elapsed().as_secs_f64()
}

/// Region of a C-order `s`-shaped array as a C-order vector.
fn region(d: &[f32], s: [usize; 3], rd: &Read) -> Vec<f32> {
    gather(d, s, rd.origin, rd.extent)
}

pub fn pass(
    specs: &[Spec<'_>],
    budget: f64,
    seed: u64,
    tr: &mut Tracer,
    replay_on: bool,
) -> (Samples, Metrics) {
    let reg = CodecRegistry::with_defaults();
    let raw: u64 = specs.iter().map(|s| 4 * s.data.len() as u64).sum();
    let mut s = Samples {
        raw_bytes: raw,
        ..Samples::default()
    };
    let mut r = Replay::default();
    let mut write_s = 0.0;
    let mut off = Tracer::new(false, Instant::now());

    // Reference shards and full decodes (untimed), checked against the bound.
    let mut shards: Vec<Vec<u8>> = Vec::new();
    let mut refs: Vec<Vec<f32>> = Vec::new();
    for (i, sp) in specs.iter().enumerate() {
        let (bytes, eb, _, _) = write(sp, &mut off, i as u64, &mut 0.0);
        let shard = Shard::open(&bytes).expect("fresh shard opens");
        let mut out = vec![0f32; sp.data.len()];
        s.attempted += 1;
        if shard
            .read_all(&reg, &mut StoreScratch::new(), &mut out)
            .is_err()
            || !within_bound(sp.data, &out, eb)
        {
            s.failed += 1;
        }
        drop(shard);
        shards.push(bytes);
        refs.push(out);
    }
    s.comp_bytes = shards.iter().map(|b| b.len() as u64).sum();
    s.counts.push((
        "archive.shard_bytes".into(),
        shards
            .iter()
            .map(|b| b.len().to_string())
            .collect::<Vec<_>>()
            .join(","),
    ));

    let mut opens = Vec::new();
    let opened: Vec<Shard<'_>> = shards
        .iter()
        .map(|b| Shard::open(b).expect("open"))
        .collect();
    let mut scratch = StoreScratch::new();

    let reads = read_stream(specs, seed);
    let mut first: Vec<Option<ReadStats>> = vec![None; reads.len()];
    let mut class_us: [Vec<f64>; 4] = Default::default();
    let mut write_t = vec![Vec::new(); specs.len()];
    let mut read_all_t = vec![Vec::new(); specs.len()];
    s.reads = vec![Vec::new(); reads.len()];
    s.rts = vec![Vec::new(); specs.len()];
    let (mut read_all_s, mut next, mut tick) = (0.0, 0usize, 0usize);
    let start = Instant::now();
    // Ticks interleave the three operations so that every shard's and
    // every read's repetitions spread over the whole run: shard `i` is
    // written three times, the stream advances by `TICK_READS` reads, then
    // shard `i` is read back whole. Every shard gets at least two ticks.
    while tick < 2 * specs.len() || start.elapsed().as_secs_f64() < budget {
        s.setup.push(setup_once(specs, &shards, &reg, &mut opens));
        let i = tick % specs.len();
        let sp = &specs[i];
        tick += 1;
        let mut write_secs = 0.0;
        for rep in 0..3 {
            let (bytes, eb, secs, span) = write(sp, tr, i as u64, &mut write_s);
            write_t[i].push(secs);
            write_secs = secs;
            s.attempted += 1;
            let same = bytes == shards[i];
            let replayed =
                !replay_on || rep > 0 || replay_write(sp, eb, &bytes, span, i as u64, tr, &mut r);
            if !(same && replayed) {
                s.failed += 1;
            }
        }
        for _ in 0..TICK_READS {
            let k = next % reads.len();
            next += 1;
            let rd = &reads[k];
            let mut out = vec![0f32; rd.extent.iter().product()];
            out.fill(0.0);
            let n = 4 * out.len() as u64;
            let (res, secs, span) = tr.time(
                "store.read_region",
                Layer::Store,
                Kind::Call,
                0,
                k as u64,
                n,
                || {
                    opened[rd.shard].read_region(
                        &reg,
                        &rd.origin,
                        &rd.extent,
                        &mut scratch,
                        &mut out,
                    )
                },
            );
            s.reads[k].push(secs);
            class_us[rd.class].push(secs * 1e6);
            s.attempted += 1;
            let ok = match res {
                Ok(st) => {
                    let seen = *first[k].get_or_insert(st);
                    seen == st && out == region(&refs[rd.shard], specs[rd.shard].shape, rd)
                }
                Err(_) => false,
            };
            if !ok {
                s.failed += 1;
            }
            if replay_on {
                replay_read(
                    &opened[rd.shard],
                    &shards[rd.shard],
                    rd,
                    span,
                    k as u64,
                    tr,
                    &mut r,
                );
            }
        }
        let mut out = vec![0f32; sp.data.len()];
        out.fill(0.0);
        let n = 4 * sp.data.len() as u64;
        let t = Instant::now();
        let (shard, os, _) = tr.time(
            "store.open",
            Layer::Store,
            Kind::Call,
            0,
            i as u64,
            n,
            || Shard::open(&shards[i]).expect("open"),
        );
        let (res, rs, span) = tr.time(
            "store.read_all",
            Layer::Store,
            Kind::Call,
            0,
            i as u64,
            n,
            || shard.read_all(&reg, &mut scratch, &mut out),
        );
        let secs = t.elapsed().as_secs_f64();
        opens.push(os);
        read_all_s += rs;
        read_all_t[i].push(secs);
        s.rts[i].push(write_secs + secs);
        s.attempted += 1;
        if res.is_err() || out != refs[i] {
            s.failed += 1;
        }
        if replay_on {
            let whole = Read {
                shard: i,
                class: 0,
                origin: [0; 3],
                extent: sp.shape,
            };
            replay_read(&shard, &shards[i], &whole, span, i as u64, tr, &mut r);
        }
    }
    // Throughputs and rates sum each key's median time.
    let (write_med, read_all_med) = (sum_medians(&write_t), sum_medians(&read_all_t));
    s.compress_gbps.push(gb(raw, write_med));
    s.decompress_gbps.push(gb(raw, read_all_med));
    s.read_per_s = s.reads.iter().filter(|v| !v.is_empty()).count() as f64 / sum_medians(&s.reads);
    s.rt_per_s = specs.len() as f64 / sum_medians(&s.rts);
    let shard_bytes = |i: usize| 4 * specs[i].data.len() as u64;
    let written: u64 = (0..specs.len())
        .map(|i| shard_bytes(i) * write_t[i].len() as u64)
        .sum();
    let read_back: u64 = (0..specs.len())
        .map(|i| shard_bytes(i) * read_all_t[i].len() as u64)
        .sum();

    let mut m = Metrics::default();
    m.set("store.write.gbps", gb(written, write_s), "GB/s");
    m.set("store.open_us", median(&opens) * 1e6, "us");
    for (c, name) in CLASSES.iter().enumerate() {
        m.set(
            format!("store.read_us.p50.{name}"),
            quantile(&class_us[c], 0.5),
            "us",
        );
    }
    let seen: Vec<(&Read, ReadStats)> = reads
        .iter()
        .zip(&first)
        .filter_map(|(r, f)| f.map(|f| (r, f)))
        .collect();
    let n = seen.len().max(1) as f64;
    let sum = |f: fn(&ReadStats) -> usize| seen.iter().map(|(_, st)| f(st) as f64).sum::<f64>();
    m.set(
        "store.read.chunks_touched",
        sum(|st| st.chunks_touched) / n,
        "count",
    );
    m.set(
        "store.read.blocks_decoded",
        sum(|st| st.blocks_decoded) / n,
        "count",
    );
    m.set(
        "store.read.payload_bytes",
        sum(|st| st.payload_bytes_read) / n,
        "bytes",
    );
    let returned: f64 = seen
        .iter()
        .map(|(r, _)| r.extent.iter().product::<usize>() as f64)
        .sum();
    let l = CuszpConfig::default().block_len as f64;
    m.set(
        "store.read.useful_share",
        returned / (sum(|st| st.blocks_decoded) * l),
        "fraction",
    );
    m.set("store.read_all.gbps", gb(read_back, read_all_s), "GB/s");
    if seen.len() == reads.len() {
        s.counts.push((
            "archive.read_stats".into(),
            format!(
                "reads={} chunks={} blocks={} payload={}",
                seen.len(),
                sum(|st| st.chunks_touched),
                sum(|st| st.blocks_decoded),
                sum(|st| st.payload_bytes_read)
            ),
        ));
    }
    (s, m)
}
