//! Per-stream and batch-level counters.
//!
//! A "stream" is one worker thread (the software analogue of a CUDA
//! stream). Counters are cheap enough to keep always-on: a few integer
//! adds per chunk plus one `Instant` pair.

use crate::CompressedField;
use serde::Serialize;

/// Counters for one worker/stream over the pipeline's lifetime.
#[derive(Debug, Clone, Serialize)]
pub struct StreamStats {
    /// Worker index.
    pub worker: usize,
    /// Chunks this stream compressed.
    pub chunks: u64,
    /// Original bytes consumed.
    pub bytes_in: u64,
    /// Compressed bytes produced (paper accounting: fraction ⓐ + ⓑ).
    pub bytes_out: u64,
    /// Wall-clock seconds spent compressing (excludes queue waits).
    pub busy_seconds: f64,
    /// Simulated GPU seconds from this stream's `gpu_sim` timeline
    /// (device mode only; 0 on the host path).
    pub sim_kernel_seconds: f64,
}

impl StreamStats {
    /// Fresh zeroed counters for worker `worker`.
    pub fn new(worker: usize) -> Self {
        StreamStats {
            worker,
            chunks: 0,
            bytes_in: 0,
            bytes_out: 0,
            busy_seconds: 0.0,
            sim_kernel_seconds: 0.0,
        }
    }

    /// This stream's busy-time compression throughput, GB/s.
    pub fn throughput_gbps(&self) -> f64 {
        if self.busy_seconds > 0.0 {
            self.bytes_in as f64 / self.busy_seconds / 1.0e9
        } else {
            0.0
        }
    }
}

/// Batch-level counters, assembled by [`crate::Pipeline::finish`].
#[derive(Debug, Clone, Serialize)]
pub struct BatchStats {
    /// Pipeline lifetime, seconds (creation to finish).
    pub wall_seconds: f64,
    /// Original bytes across all fields.
    pub bytes_in: u64,
    /// Compressed bytes across all fields (stream accounting).
    pub bytes_out: u64,
    /// Batch compression ratio.
    pub ratio: f64,
    /// Aggregate throughput over the wall clock, GB/s.
    pub throughput_gbps: f64,
    /// Mean submit-to-complete chunk latency, seconds.
    pub mean_chunk_latency_s: f64,
    /// Worst chunk latency, seconds.
    pub max_chunk_latency_s: f64,
    /// Per-stream counters, by worker index.
    pub streams: Vec<StreamStats>,
}

impl BatchStats {
    /// Roll field outputs + chunk latencies + worker counters into batch
    /// totals.
    pub(crate) fn collect(
        wall_seconds: f64,
        fields: &[CompressedField],
        chunk_latencies: &[f64],
        mut streams: Vec<StreamStats>,
    ) -> BatchStats {
        streams.sort_by_key(|s| s.worker);
        let bytes_in: u64 = fields.iter().map(|f| f.bytes_in).sum();
        let bytes_out: u64 = fields.iter().map(|f| f.container.stream_bytes()).sum();
        let n = chunk_latencies.len().max(1) as f64;
        BatchStats {
            wall_seconds,
            bytes_in,
            bytes_out,
            ratio: if bytes_out > 0 {
                bytes_in as f64 / bytes_out as f64
            } else {
                0.0
            },
            throughput_gbps: if wall_seconds > 0.0 {
                bytes_in as f64 / wall_seconds / 1.0e9
            } else {
                0.0
            },
            mean_chunk_latency_s: chunk_latencies.iter().sum::<f64>() / n,
            max_chunk_latency_s: chunk_latencies.iter().cloned().fold(0.0, f64::max),
            streams,
        }
    }

    /// Total chunks across all streams.
    pub fn chunks(&self) -> u64 {
        self.streams.iter().map(|s| s.chunks).sum()
    }
}
