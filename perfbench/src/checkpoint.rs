//! `checkpoint`: a simulation hands its snapshot to `Pipeline` (one per
//! element type, `workers` = nproc) and restarts from it with
//! `Cuszp::decompress_chunked`. A "read" is one field restored; a "round
//! trip" is one field's pipeline latency (submit to last chunk done) plus
//! its restore.

use crate::probe::Input;
use crate::samples::Samples;
use crate::trace::{Kind, Layer, Tracer};
use crate::util::{gb, median, sum_medians, within_bound, Data, Elem, Field, Metrics};
use cuszp_core::{fast, ChunkedCompressed, Cuszp, ErrorBound, Scratch};
use cuszp_pipeline::{CompressedField, Pipeline, PipelineConfig};
use std::time::Instant;

pub const REL: f64 = 1e-3;

/// One batch: every field through the pipelines.
struct Batch {
    wall: f64,
    submit_s: f64,
    finish_s: f64,
    busy_s: f64,
    out: Vec<Option<CompressedField>>,
}

/// The bound `Pipeline::submit` resolves for each field.
pub fn bounds(fields: &[Field]) -> Vec<f64> {
    fields
        .iter()
        .map(|f| match &f.data {
            Data::F32(d) => ErrorBound::Rel(REL).absolute(cuszp_core::value_range(d)),
            Data::F64(d) => ErrorBound::Rel(REL).absolute(cuszp_core::value_range(d)),
        })
        .collect()
}

fn config(workers: usize) -> PipelineConfig {
    PipelineConfig::with_workers(workers)
}

/// Submit every field of element type `T`, in corpus order, then finish.
/// The copy handed to `submit` is part of the timed batch: the
/// simulation keeps its own arrays, so the pipeline gets a copy.
fn group<T: Elem>(fields: &[Field], pipe: Option<Pipeline<T>>, b: &mut Batch) {
    let Some(mut pipe) = pipe else {
        return;
    };
    let mut idx = Vec::new();
    for (i, f) in fields.iter().enumerate() {
        if let Some(d) = T::of(f) {
            let data = d.to_vec();
            let t = Instant::now();
            pipe.submit(&f.name, data, ErrorBound::Rel(REL));
            b.submit_s += t.elapsed().as_secs_f64();
            idx.push(i);
        }
    }
    let t = Instant::now();
    let res = pipe.finish();
    b.finish_s += t.elapsed().as_secs_f64();
    b.busy_s += res
        .stats
        .streams
        .iter()
        .map(|s| s.busy_seconds)
        .sum::<f64>();
    for (i, cf) in idx.into_iter().zip(res.fields) {
        b.out[i] = Some(cf);
    }
}

fn has<T: Elem>(fields: &[Field]) -> bool {
    fields.iter().any(|f| T::of(f).is_some())
}

fn batch(fields: &[Field], workers: usize, tr: &mut Tracer) -> (Batch, u32) {
    let p32 = has::<f32>(fields).then(|| Pipeline::<f32>::new(config(workers)));
    let p64 = has::<f64>(fields).then(|| Pipeline::<f64>::new(config(workers)));
    let raw: u64 = fields.iter().map(Field::bytes).sum();
    let mut b = Batch {
        wall: 0.0,
        submit_s: 0.0,
        finish_s: 0.0,
        busy_s: 0.0,
        out: (0..fields.len()).map(|_| None).collect(),
    };
    let span = tr.open("pipeline.batch", Layer::Pipeline, Kind::Call, 0, raw);
    let t = Instant::now();
    group(fields, p32, &mut b);
    group(fields, p64, &mut b);
    b.wall = t.elapsed().as_secs_f64();
    tr.close(span);
    (b, span)
}

/// Set-up: both pipelines constructed and their first (warm) call, on
/// the first chunk of the first field of each element type.
fn setup_once(fields: &[Field], workers: usize) -> f64 {
    fn warm<T: Elem>(fields: &[Field]) -> Option<Vec<T>> {
        let d = fields.iter().find_map(|f| T::of(f))?;
        Some(d[..d.len().min(1 << 20)].to_vec())
    }
    let (w32, w64) = (warm::<f32>(fields), warm::<f64>(fields));
    let t = Instant::now();
    if let Some(w) = w32 {
        let mut p = Pipeline::<f32>::new(config(workers));
        p.submit("warm", w, ErrorBound::Rel(REL));
        std::hint::black_box(p.finish());
    }
    if let Some(w) = w64 {
        let mut p = Pipeline::<f64>::new(config(workers));
        p.submit("warm", w, ErrorBound::Rel(REL));
        std::hint::black_box(p.finish());
    }
    t.elapsed().as_secs_f64()
}

fn restore<T: Elem>(
    master: &[T],
    c: &ChunkedCompressed,
    eb: f64,
    tr: &mut Tracer,
    req: u64,
) -> (f64, bool) {
    let bytes = std::mem::size_of_val(master) as u64;
    let (out, secs, _) = tr.time(
        "core.decompress_chunked",
        Layer::Core,
        Kind::Call,
        0,
        req,
        bytes,
        || Cuszp::new().decompress_chunked::<T>(c),
    );
    let ok = c.chunks.iter().all(|k| k.eb == eb) && within_bound(master, &out, eb);
    (secs, ok)
}

/// Replay what the pipeline did inside `span`: bound resolution (in the
/// submitting thread) and each chunk's `fast::compress_with` (spread over
/// `workers`). Checks each replayed chunk is byte-identical.
#[allow(clippy::too_many_arguments)]
fn replay<T: Elem>(
    master: &[T],
    c: &ChunkedCompressed,
    eb: f64,
    span: u32,
    workers: usize,
    tr: &mut Tracer,
    req: u64,
    scratch: &mut Scratch,
) -> bool {
    let bytes = std::mem::size_of_val(master) as u64;
    let (range, _, _) = tr.time(
        "core.resolve",
        Layer::Core,
        Kind::Replay,
        span,
        req,
        bytes,
        || cuszp_core::value_range(master),
    );
    let mut ok = ErrorBound::Rel(REL).absolute(range) == eb;
    let chunk = config(workers).chunk_elems;
    for (k, slice) in c.chunks.iter().zip(master.chunks(chunk)) {
        let (r, _, _) = tr.time(
            "core.compress_with",
            Layer::Core,
            Kind::Replay,
            span,
            req,
            std::mem::size_of_val(slice) as u64,
            || fast::compress_with(scratch, slice, eb, cuszp_core::CuszpConfig::default(), 1),
        );
        tr.last(1, 1.0 / workers as f64);
        ok &= r.fixed_lengths == k.fixed_lengths && r.payload == k.payload;
    }
    ok
}

fn counts(out: &[Option<CompressedField>]) -> (u64, String) {
    let (mut comp, mut blocks, mut zero, mut fsum) = (0u64, 0u64, 0u64, 0u64);
    for cf in out.iter().flatten() {
        comp += cf.container.container_bytes();
        for k in &cf.container.chunks {
            blocks += k.fixed_lengths.len() as u64;
            zero += k.fixed_lengths.iter().filter(|&&f| f == 0).count() as u64;
            fsum += k.fixed_lengths.iter().map(|&f| f as u64).sum::<u64>();
        }
    }
    (
        comp,
        format!("container_bytes={comp} blocks={blocks} zero_blocks={zero} fixed_len_sum={fsum}"),
    )
}

/// One pass of the workload for `budget` seconds. With `replay`, each
/// batch is replayed through the codec for the self-time split.
pub fn pass(
    fields: &[Field],
    ebs: &[f64],
    workers: usize,
    budget: f64,
    tr: &mut Tracer,
    replay_on: bool,
) -> (Samples, Metrics) {
    let mut s = Samples::default();
    let raw: u64 = fields.iter().map(Field::bytes).sum();
    s.raw_bytes = raw;
    let (mut submit, mut finish, mut util) = (Vec::new(), Vec::new(), Vec::new());
    s.reads = vec![Vec::new(); fields.len()];
    s.rts = vec![Vec::new(); fields.len()];
    let mut scratch = Scratch::new();
    let start = Instant::now();
    let mut first: Option<String> = None;
    while first.is_none() || start.elapsed().as_secs_f64() < budget {
        // One set-up per batch, so the set-up median spans the run.
        s.setup.push(setup_once(fields, workers));
        let (b, span) = batch(fields, workers, tr);
        s.compress_gbps.push(gb(raw, b.wall));
        submit.push(b.submit_s);
        finish.push(b.finish_s);
        util.push(b.busy_s / (workers as f64 * b.wall));
        let (comp, c) = counts(&b.out);
        match &first {
            None => {
                s.comp_bytes = comp;
                s.counts.push(("checkpoint.outputs".into(), c.clone()));
                first = Some(c);
            }
            Some(f) if *f != c => s.failed += 1,
            Some(_) => {}
        }
        let mut restore_s = 0.0;
        for (i, (f, cf)) in fields.iter().zip(&b.out).enumerate() {
            let cf = cf.as_ref().expect("every field compressed");
            s.attempted += 2;
            let (secs, ok) = match &f.data {
                Data::F32(d) => restore(d, &cf.container, ebs[i], tr, i as u64),
                Data::F64(d) => restore(d, &cf.container, ebs[i], tr, i as u64),
            };
            let ok = ok
                && (!replay_on
                    || match &f.data {
                        Data::F32(d) => replay(
                            d,
                            &cf.container,
                            ebs[i],
                            span,
                            workers,
                            tr,
                            i as u64,
                            &mut scratch,
                        ),
                        Data::F64(d) => replay(
                            d,
                            &cf.container,
                            ebs[i],
                            span,
                            workers,
                            tr,
                            i as u64,
                            &mut scratch,
                        ),
                    });
            if !ok {
                s.failed += 1;
            }
            s.reads[i].push(secs);
            s.rts[i].push(cf.latency_seconds + secs);
            restore_s += secs;
        }
        s.decompress_gbps.push(gb(raw, restore_s));
    }
    // Rates sum each field's median restore time; a round trip adds the
    // median batch's share per field (fields compress in parallel).
    let restore = sum_medians(&s.reads);
    s.read_per_s = fields.len() as f64 / restore;
    s.rt_per_s = fields.len() as f64 / (raw as f64 / 1e9 / median(&s.compress_gbps) + restore);
    let mut m = Metrics::default();
    m.set("pipeline.submit_s", median(&submit), "s");
    m.set("pipeline.finish_s", median(&finish), "s");
    m.set("pipeline.worker_util", median(&util), "fraction");
    (s, m)
}

/// `workers` against one worker, one batch each, same corpus.
pub fn speedup(fields: &[Field], workers: usize) -> f64 {
    let mut off = Tracer::new(false, Instant::now());
    let one = batch(fields, 1, &mut off).0.wall;
    let many = batch(fields, workers, &mut off).0.wall;
    one / many
}

/// The pipeline's codec inputs: each field's chunks at its bound.
pub fn inputs<'a>(fields: &'a [Field], ebs: &[f64]) -> Vec<Input<'a>> {
    let chunk = config(1).chunk_elems;
    let mut v = Vec::new();
    for (f, &eb) in fields.iter().zip(ebs) {
        match &f.data {
            Data::F32(d) => v.extend(d.chunks(chunk).map(|c| Input::F32(c, eb))),
            Data::F64(d) => v.extend(d.chunks(chunk).map(|c| Input::F64(c, eb))),
        }
    }
    v
}
