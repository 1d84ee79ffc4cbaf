//! # cuszp-pipeline — batched, multi-stream compression
//!
//! cuSZp's headline numbers are single-kernel latencies, but production
//! use (checkpointing a simulation, archiving a campaign) compresses
//! *many* fields back-to-back. This crate overlaps those compressions the
//! way a CUDA application overlaps streams: workers — each the software
//! analogue of one stream — draw fixed-size chunks from a **bounded**
//! queue and compress them concurrently.
//!
//! - **Chunked container** — every submitted field becomes a
//!   [`ChunkedCompressed`], each chunk byte-identical to the single-shot
//!   path at the same absolute bound (see
//!   [`cuszp_core::Cuszp::compress_chunked`]).
//! - **REL resolves on the workers** — one `(min, max)` part per chunk
//!   range, merged as parts finish (associative, so bit-identical to
//!   [`cuszp_core::value_range`]). The last part resolves `eb` and
//!   releases the field's chunks, which go ahead of later fields' work.
//! - **Backpressure** — at most [`PipelineConfig::queue_depth`] +
//!   `workers` chunks are admitted and not yet compressed;
//!   [`Pipeline::submit`] blocks while that many are, so peak memory is
//!   bounded regardless of batch size.
//! - **Per-stream counters** — every worker tracks chunks, bytes, resolved
//!   bytes and busy time; in device mode each worker owns its own
//!   simulated GPU ([`gpu_sim::Gpu`]) and reports the simulated kernel
//!   seconds from its timeline, plugging the pipeline into gpu-sim's
//!   profiler.
//!
//! ```
//! use cuszp_pipeline::{Pipeline, PipelineConfig};
//! use cuszp_core::ErrorBound;
//!
//! let mut pipe = Pipeline::<f32>::new(PipelineConfig::default());
//! for i in 0..4 {
//!     let field: Vec<f32> = (0..50_000).map(|j| ((i + j) as f32 * 0.01).sin()).collect();
//!     pipe.submit(&format!("field{i}"), field, ErrorBound::Rel(1e-3));
//! }
//! let batch = pipe.finish();
//! assert_eq!(batch.fields.len(), 4);
//! assert!(batch.stats.ratio > 1.0);
//! ```

use cuszp_core::{fast, ChunkedCompressed, Compressed, CuszpConfig, ErrorBound, FloatData};
use gpu_sim::{DeviceSpec, Gpu};
use parking_lot::Mutex;
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

pub mod stats;

pub use stats::{BatchStats, StreamStats};

/// Pipeline shape: worker count, queue bound, chunking, codec.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Worker threads (streams). Defaults to the host's parallelism.
    pub workers: usize,
    /// Admitted chunks beyond one per worker; `submit` blocks when
    /// `queue_depth + workers` chunks await compression.
    pub queue_depth: usize,
    /// Elements per chunk. Multiples of the block length keep chunk
    /// streams block-aligned with the single-shot path.
    pub chunk_elems: usize,
    /// Inner codec configuration (block length, Lorenzo).
    pub codec: CuszpConfig,
    /// `Some(spec)`: each worker owns a simulated GPU of this model and
    /// compresses with the fused device kernel, so per-stream stats carry
    /// simulated kernel time. `None`: each worker runs the host fast
    /// codec (`fast::compress_with`, single-threaded, on its own arena),
    /// byte-identical to the `host_ref` oracle.
    pub device: Option<DeviceSpec>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1);
        PipelineConfig {
            workers,
            queue_depth: 2 * workers,
            chunk_elems: 1 << 20,
            codec: CuszpConfig::default(),
            device: None,
        }
    }
}

impl PipelineConfig {
    /// Host-codec pipeline with `workers` threads.
    pub fn with_workers(workers: usize) -> Self {
        PipelineConfig {
            workers,
            queue_depth: 2 * workers.max(1),
            ..Self::default()
        }
    }

    /// Panic on degenerate settings.
    pub fn validate(&self) {
        assert!(self.workers >= 1, "pipeline needs at least one worker");
        assert!(self.queue_depth >= 1, "queue depth must be at least 1");
        assert!(self.chunk_elems >= 1, "chunk_elems must be positive");
        self.codec.validate();
    }
}

/// A submitted field's data, shared by its jobs.
struct Input<T> {
    idx: usize,
    data: Vec<T>,
    submitted: Instant,
}

/// One submitted field with work left to hand out.
struct Field<T> {
    input: Arc<Input<T>>,
    bound: ErrorBound,
    chunks: usize,
    /// Resolve parts (one per chunk range) handed out and merged; an ABS
    /// field starts with all of them merged.
    parts_drawn: usize,
    parts_merged: usize,
    /// Running `(min, max)` over the merged parts, then the bound.
    min_max: (f64, f64),
    eb: Option<f64>,
    /// Chunks `submit` has admitted, and chunks handed to workers.
    admitted: usize,
    drawn: usize,
}

/// A chunk of a field: compress it at `eb`, or with `eb` still unknown,
/// fold its `(min, max)` into the field's.
type Job<T> = (Arc<Input<T>>, usize, Option<f64>);

/// What the submitting thread and the workers share, under one lock.
#[derive(Default)]
struct State<T> {
    /// Fields with parts or chunks left to hand out, in submission order.
    queue: VecDeque<Field<T>>,
    /// Admitted chunks not yet compressed.
    in_flight: usize,
    closed: bool,
    /// The first panic a worker caught, for the caller to re-raise.
    panic: Option<Box<dyn Any + Send>>,
    /// Every field's output, its chunks filled in as they finish.
    out: Vec<(CompressedField, Vec<Option<Compressed>>)>,
    latencies: Vec<f64>,
}

impl<T> State<T> {
    /// The next job: a released chunk first, else a resolve part.
    fn draw(&mut self) -> Option<Job<T>> {
        let job = |f: &Field<T>, chunk| (Arc::clone(&f.input), chunk, f.eb);
        let Some(at) = self
            .queue
            .iter()
            .position(|f| f.eb.is_some() && f.drawn < f.admitted)
        else {
            let f = self.queue.iter_mut().find(|f| f.parts_drawn < f.chunks)?;
            f.parts_drawn += 1;
            return Some(job(f, f.parts_drawn - 1));
        };
        let f = &mut self.queue[at];
        f.drawn += 1;
        let next = job(f, f.drawn - 1);
        if f.drawn == f.chunks {
            self.queue.remove(at);
        }
        Some(next)
    }

    /// Fold a resolve part into its field; the last part resolves `eb`.
    fn merge(&mut self, field: usize, (lo, hi): (f64, f64)) {
        let Some(f) = self.queue.iter_mut().find(|f| f.input.idx == field) else {
            return; // abandoned by a dropped pipeline
        };
        f.min_max = (f.min_max.0.min(lo), f.min_max.1.max(hi));
        f.parts_merged += 1;
        if f.parts_merged == f.chunks {
            let (bound, range) = (f.bound, (f.min_max.1 - f.min_max.0).max(0.0));
            match catch_unwind(|| bound.absolute(range)) {
                Ok(eb) => f.eb = Some(eb),
                Err(p) => {
                    // Unresolvable: drop the field and free its slots.
                    self.in_flight -= f.admitted; // none is drawn without `eb`
                    self.queue.retain(|f| f.input.idx != field);
                    self.panic.get_or_insert(p);
                }
            }
        }
    }
}

type Shared<T> = (Mutex<State<T>>, Condvar);

/// A compressed field out of the pipeline.
#[derive(Debug, Clone)]
pub struct CompressedField {
    /// Name given at submission.
    pub name: String,
    /// The chunked container (chunks in submission order).
    pub container: ChunkedCompressed,
    /// Original size in bytes.
    pub bytes_in: u64,
    /// Submit-to-last-chunk-complete latency, seconds.
    pub latency_seconds: f64,
}

/// Everything a finished batch yields.
#[derive(Debug)]
pub struct BatchResult {
    /// Compressed fields, in submission order.
    pub fields: Vec<CompressedField>,
    /// Batch-level and per-stream counters.
    pub stats: BatchStats,
}

/// A running compression pipeline. Submit fields, then [`finish`].
///
/// [`finish`]: Pipeline::finish
pub struct Pipeline<T: FloatData> {
    cfg: PipelineConfig,
    shared: Arc<Shared<T>>,
    workers: Vec<JoinHandle<StreamStats>>,
    started: Instant,
}

impl<T: FloatData> Pipeline<T> {
    /// Spawn the workers.
    pub fn new(cfg: PipelineConfig) -> Self {
        cfg.validate();
        let shared: Arc<Shared<T>> = Arc::default();
        let workers = (0..cfg.workers)
            .map(|id| {
                let (shared, cfg) = (Arc::clone(&shared), cfg.clone());
                std::thread::spawn(move || worker_loop(id, &shared, cfg))
            })
            .collect();
        Pipeline {
            cfg,
            shared,
            workers,
            started: Instant::now(),
        }
    }

    /// Chunk count at this pipeline's chunking for an `n`-element field.
    pub fn chunks_for(&self, n: usize) -> usize {
        n.div_ceil(self.cfg.chunk_elems)
    }

    /// Chunks admitted and not yet compressed (bounded by
    /// `queue_depth + workers`).
    pub fn in_flight(&self) -> usize {
        self.shared.0.lock().in_flight
    }

    /// Submit one field and return its index in the batch. Blocks while
    /// `queue_depth + workers` chunks await compression (backpressure).
    ///
    /// The bound holds for the whole field, so REL means the same absolute
    /// tolerance as single-shot compression. `submit` does not read the
    /// data: the workers resolve a REL bound (see the crate docs) and an
    /// ABS bound needs no pass. Re-raises a worker's panic, such as
    /// [`ErrorBound::absolute`] rejecting a constant or all-non-finite
    /// REL field, after which the batch's queued work is dropped.
    pub fn submit(&mut self, name: &str, data: Vec<T>, bound: ErrorBound) -> usize {
        let chunks = self.chunks_for(data.len());
        let (eb, parts) = match bound {
            ErrorBound::Abs(_) if chunks > 0 => (Some(bound.absolute(0.0)), chunks),
            _ => (None, 0),
        };
        let field = CompressedField {
            name: name.to_string(),
            container: ChunkedCompressed::new(),
            bytes_in: std::mem::size_of_val(&data[..]) as u64,
            latency_seconds: 0.0,
        };
        let cap = self.cfg.queue_depth + self.cfg.workers;
        let (lock, cv) = &*self.shared;
        let mut state = lock.lock();
        let idx = state.out.len();
        state.out.push((field, (0..chunks).map(|_| None).collect()));
        if chunks == 0 {
            return idx;
        }
        let input = Arc::new(Input {
            idx,
            data,
            submitted: Instant::now(),
        });
        state.queue.push_back(Field {
            input,
            bound,
            chunks,
            parts_drawn: parts,
            parts_merged: parts,
            min_max: (f64::INFINITY, f64::NEG_INFINITY),
            eb,
            admitted: 0,
            drawn: 0,
        });
        for _ in 0..chunks {
            cv.notify_all();
            while state.in_flight >= cap && state.panic.is_none() {
                state = cv.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
            if let Some(p) = state.panic.take() {
                // The batch is lost: free its work and slots for later calls.
                let queued: usize = state.queue.drain(..).map(|f| f.admitted - f.drawn).sum();
                state.in_flight -= queued;
                drop(state);
                resume_unwind(p);
            }
            state.in_flight += 1;
            // The newest field keeps its slot until all its chunks are drawn.
            state.queue.back_mut().expect("field queued").admitted += 1;
        }
        cv.notify_all();
        idx
    }

    /// Stop the workers once the queued work is done, and join them.
    fn stop(&mut self) -> Vec<std::thread::Result<StreamStats>> {
        self.shared.0.lock().closed = true;
        self.shared.1.notify_all();
        self.workers.drain(..).map(JoinHandle::join).collect()
    }

    /// Wait for every admitted chunk, and assemble the batch. Re-raises a
    /// worker's panic (see [`Pipeline::submit`]).
    pub fn finish(mut self) -> BatchResult {
        let joined = self.stop().into_iter();
        let streams = joined
            .map(|r| r.expect("workers catch their jobs' panics"))
            .collect();
        let wall_seconds = self.started.elapsed().as_secs_f64();
        let mut state = self.shared.0.lock();
        if let Some(p) = state.panic.take() {
            drop(state);
            resume_unwind(p);
        }
        let fields: Vec<CompressedField> = std::mem::take(&mut state.out)
            .into_iter()
            .map(|(mut f, chunks)| {
                f.container.chunks = chunks
                    .into_iter()
                    .map(|c| c.expect("every submitted chunk completed"))
                    .collect();
                f
            })
            .collect();
        let stats = BatchStats::collect(wall_seconds, &fields, &state.latencies, streams);
        BatchResult { fields, stats }
    }
}

impl<T: FloatData> Drop for Pipeline<T> {
    /// A pipeline dropped unfinished abandons its work and stops its
    /// workers (a no-op after [`Pipeline::finish`]).
    fn drop(&mut self) {
        self.shared.0.lock().queue.clear();
        self.stop(); // join errors are ignored: `Drop` must not panic
    }
}

/// One stream: draw jobs until the pipeline closes and its work is done.
fn worker_loop<T: FloatData>(
    id: usize,
    (lock, cv): &Shared<T>,
    cfg: PipelineConfig,
) -> StreamStats {
    let mut stats = StreamStats::new(id);
    // One simulated GPU per worker = one stream with its own timeline.
    let mut gpu = cfg.device.map(Gpu::new);
    // Long-lived per-worker arena: after the first chunk warms it up, the
    // host codec's only allocations per chunk are the two output Vecs the
    // result owns — no intermediate buffer is ever reallocated.
    let mut scratch = fast::Scratch::new();
    let mut state = lock.lock();
    while !(state.closed && state.queue.is_empty()) {
        let Some((input, chunk, eb)) = state.draw() else {
            state = cv.wait(state).unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        drop(state); // the lock is never held while working
        let t0 = Instant::now();
        let (data, start) = (&input.data, chunk * cfg.chunk_elems);
        let slice = &data[start..data.len().min(start + cfg.chunk_elems)];
        let out = catch_unwind(AssertUnwindSafe(|| match (eb, gpu.as_mut()) {
            (None, _) => Err(cuszp_core::value_min_max(slice)),
            (Some(eb), Some(gpu)) => {
                let input = gpu.h2d(slice);
                Ok(cuszp_core::compress_kernel(gpu, &input, eb, cfg.codec).to_host(gpu))
            }
            // Workers are already parallel across chunks, so each runs
            // the fast codec single-threaded on this worker's arena.
            (Some(eb), None) => Ok(fast::compress_with(&mut scratch, slice, eb, cfg.codec, 1)),
        }));
        stats.busy_seconds += t0.elapsed().as_secs_f64();
        let bytes = std::mem::size_of_val(slice) as u64;
        state = lock.lock();
        match out {
            Ok(Ok(compressed)) => {
                stats.chunks += 1;
                stats.bytes_in += bytes;
                stats.bytes_out += compressed.stream_bytes();
                state.in_flight -= 1;
                let latency = input.submitted.elapsed().as_secs_f64();
                state.latencies.push(latency);
                let (field, chunks) = &mut state.out[input.idx];
                field.latency_seconds = field.latency_seconds.max(latency);
                chunks[chunk] = Some(compressed);
            }
            Ok(Err(min_max)) => {
                stats.bytes_resolved += bytes;
                state.merge(input.idx, min_max);
            }
            Err(p) => {
                state.in_flight -= usize::from(eb.is_some()); // a chunk's slot
                state.panic.get_or_insert(p);
            }
        }
        cv.notify_all();
    }
    drop(state);
    if let Some(gpu) = gpu.as_ref() {
        stats.sim_kernel_seconds = gpu.breakdown().total();
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuszp_core::Cuszp;

    fn wavy(n: usize, seed: f32) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * 0.013 + seed).sin() * 4.0)
            .collect()
    }

    fn small_cfg(workers: usize) -> PipelineConfig {
        PipelineConfig {
            workers,
            queue_depth: 2,
            chunk_elems: 1000,
            codec: CuszpConfig::default(),
            device: None,
        }
    }

    #[test]
    fn matches_sequential_chunked_path() {
        let data = wavy(10_123, 0.0);
        let mut pipe = Pipeline::new(small_cfg(3));
        pipe.submit("a", data.clone(), ErrorBound::Rel(1e-3));
        let batch = pipe.finish();
        let reference = Cuszp::new().compress_chunked(&data, ErrorBound::Rel(1e-3), 1000);
        assert_eq!(batch.fields[0].container, reference);
    }

    #[test]
    fn many_fields_keep_submission_order() {
        let mut pipe = Pipeline::new(small_cfg(4));
        for i in 0..8 {
            pipe.submit(
                &format!("f{i}"),
                wavy(2500, i as f32),
                ErrorBound::Abs(1e-3),
            );
        }
        let batch = pipe.finish();
        let names: Vec<&str> = batch.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7"]);
        for f in &batch.fields {
            assert_eq!(f.container.num_chunks(), 3); // 2500 / 1000
            let back: Vec<f32> = Cuszp::new().decompress_chunked(&f.container);
            assert_eq!(back.len(), 2500);
        }
    }

    #[test]
    fn tiny_queue_makes_progress() {
        // queue_depth 1 with one worker: submit must block and resume
        // repeatedly without deadlocking.
        let mut pipe = Pipeline::new(PipelineConfig {
            workers: 1,
            queue_depth: 1,
            chunk_elems: 100,
            codec: CuszpConfig::default(),
            device: None,
        });
        pipe.submit("big", wavy(5_000, 0.3), ErrorBound::Abs(1e-3));
        let batch = pipe.finish();
        assert_eq!(batch.fields[0].container.num_chunks(), 50);
        assert_eq!(batch.stats.chunks(), 50);
        assert_eq!(pipe_len(&batch), 5_000);
    }

    fn pipe_len(batch: &BatchResult) -> u64 {
        batch
            .fields
            .iter()
            .map(|f| f.container.total_elements())
            .sum()
    }

    #[test]
    fn empty_field_yields_empty_container() {
        let mut pipe = Pipeline::<f32>::new(small_cfg(2));
        pipe.submit("nothing", Vec::new(), ErrorBound::Abs(1.0));
        let batch = pipe.finish();
        assert_eq!(batch.fields[0].container.num_chunks(), 0);
        assert_eq!(batch.fields[0].bytes_in, 0);
    }

    #[test]
    fn stats_account_for_all_bytes() {
        let mut pipe = Pipeline::new(small_cfg(2));
        pipe.submit("a", wavy(3000, 0.0), ErrorBound::Abs(1e-3));
        pipe.submit("b", wavy(1500, 1.0), ErrorBound::Abs(1e-3));
        pipe.submit("c", wavy(2500, 2.0), ErrorBound::Rel(1e-3));
        let batch = pipe.finish();
        assert_eq!(batch.stats.bytes_in, 7000 * 4);
        let per_stream: u64 = batch.stats.streams.iter().map(|s| s.bytes_in).sum();
        assert_eq!(per_stream, 7000 * 4);
        // Only the REL field is scanned, once, and the scan is busy time.
        let resolved: u64 = batch.stats.streams.iter().map(|s| s.bytes_resolved).sum();
        assert_eq!(resolved, 2500 * 4);
        assert!(
            batch
                .stats
                .streams
                .iter()
                .map(|s| s.busy_seconds)
                .sum::<f64>()
                > 0.0
        );
        assert!(batch.stats.ratio > 1.0);
        assert!(batch.stats.wall_seconds > 0.0);
        assert!(batch.stats.max_chunk_latency_s >= batch.stats.mean_chunk_latency_s);
    }

    #[test]
    fn rel_resolved_across_parts_matches_compress_chunked() {
        // Min in chunk 1, max in chunk 8, NaN and ±∞ scattered through
        // every part: the merged (min, max) must give exactly the bound
        // the single-pass `value_range` gives.
        let mut data = wavy(10_123, 0.5);
        data[1_234] = -9.0;
        data[8_765] = 11.0;
        for i in (17..data.len()).step_by(577) {
            data[i] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][i % 3];
        }
        for (workers, queue_depth) in [(1, 1), (2, 1), (3, 4)] {
            let mut pipe = Pipeline::new(PipelineConfig {
                queue_depth,
                ..small_cfg(workers)
            });
            pipe.submit("first", wavy(3_000, 0.0), ErrorBound::Rel(1e-2));
            pipe.submit("spread", data.clone(), ErrorBound::Rel(1e-3));
            let batch = pipe.finish();
            let reference = Cuszp::new().compress_chunked(&data, ErrorBound::Rel(1e-3), 1000);
            assert_eq!(batch.fields[1].container, reference, "workers={workers}");
            let resolved: u64 = batch.stats.streams.iter().map(|s| s.bytes_resolved).sum();
            assert_eq!(resolved, (3_000 + 10_123) * 4);
        }
    }

    #[test]
    fn abs_fields_never_run_a_resolve_part() {
        let mut pipe = Pipeline::new(small_cfg(2));
        for i in 0..4 {
            pipe.submit(
                &format!("f{i}"),
                wavy(2_500, i as f32),
                ErrorBound::Abs(1e-3),
            );
        }
        let batch = pipe.finish();
        assert_eq!(batch.stats.chunks(), 12);
        assert!(batch.stats.streams.iter().all(|s| s.bytes_resolved == 0));
    }

    #[test]
    #[should_panic(expected = "REL cannot resolve on empty, constant, or all-non-finite data")]
    fn all_nan_rel_field_panics_in_submit() {
        // 50 chunks against a 3-chunk admission cap: `submit` is blocked
        // when the last resolve part fails, and must re-raise it.
        let mut pipe = Pipeline::<f32>::new(PipelineConfig {
            workers: 2,
            queue_depth: 1,
            chunk_elems: 100,
            codec: CuszpConfig::default(),
            device: None,
        });
        pipe.submit("nan", vec![f32::NAN; 5_000], ErrorBound::Rel(1e-3));
        pipe.submit("next", wavy(100, 0.0), ErrorBound::Rel(1e-3));
        pipe.finish();
    }

    #[test]
    fn submit_after_a_resolve_panic_does_not_wait_on_the_lost_field() {
        let mut pipe = Pipeline::<f32>::new(PipelineConfig {
            queue_depth: 1,
            chunk_elems: 100,
            ..small_cfg(2)
        });
        let lost = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pipe.submit("nan", vec![f32::NAN; 5_000], ErrorBound::Rel(1e-3))
        }));
        assert!(lost.is_err());
        // 50 chunks against a 3-chunk cap: the lost field's admitted
        // chunks must not keep holding their slots.
        assert_eq!(
            pipe.submit("ok", wavy(5_000, 0.0), ErrorBound::Rel(1e-3)),
            1
        );
    }

    #[test]
    #[should_panic(expected = "REL cannot resolve on empty, constant, or all-non-finite data")]
    fn constant_rel_field_panics_in_finish() {
        let mut pipe = Pipeline::<f64>::new(small_cfg(2));
        pipe.submit("constant", vec![2.5; 1_500], ErrorBound::Rel(1e-3));
        pipe.finish();
    }

    #[test]
    fn f64_fields_supported() {
        let data: Vec<f64> = (0..2000).map(|i| (i as f64 * 0.01).cos()).collect();
        let mut pipe = Pipeline::new(small_cfg(2));
        pipe.submit("d", data.clone(), ErrorBound::Rel(1e-4));
        let batch = pipe.finish();
        let back: Vec<f64> = Cuszp::new().decompress_chunked(&batch.fields[0].container);
        let eb = batch.fields[0].container.chunks[0].eb;
        for (d, r) in data.iter().zip(&back) {
            assert!((d - r).abs() <= eb * (1.0 + 1e-6));
        }
    }

    #[test]
    fn device_mode_collects_sim_kernel_time() {
        let mut pipe = Pipeline::new(PipelineConfig {
            workers: 2,
            queue_depth: 2,
            chunk_elems: 1024,
            codec: CuszpConfig::default(),
            device: Some(DeviceSpec::a100()),
        });
        let data = wavy(4096, 0.0);
        pipe.submit("dev", data.clone(), ErrorBound::Abs(1e-3));
        let batch = pipe.finish();
        // Device streams are byte-identical to the host path, so the
        // container still matches the sequential reference.
        let reference = Cuszp::new().compress_chunked(&data, ErrorBound::Abs(1e-3), 1024);
        assert_eq!(batch.fields[0].container, reference);
        let sim: f64 = batch
            .stats
            .streams
            .iter()
            .map(|s| s.sim_kernel_seconds)
            .sum();
        assert!(sim > 0.0, "simulated kernel time recorded");
    }

    #[test]
    #[should_panic]
    fn zero_workers_rejected() {
        PipelineConfig {
            workers: 0,
            ..PipelineConfig::default()
        }
        .validate();
    }
}
