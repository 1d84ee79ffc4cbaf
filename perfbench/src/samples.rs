//! What one pass of a workload measured, and the end-to-end metrics
//! derived from it. Every workload fills every field; README.md says what
//! a "read" and a "round trip" are on each.
//!
//! Latencies are kept per key (a field, shard, distinct read or distinct
//! request, each repeated through the run) and the latency quantiles are
//! taken over the keys' medians: on a host whose speed changes for
//! seconds at a time, a key's median over repetitions spread across the
//! run rejects the slow stretches that would otherwise move every
//! quantile of the raw samples.

use crate::util::{median, peak_rss_mb, tail, Metrics};

#[derive(Default)]
pub struct Samples {
    /// Seconds per set-up repetition.
    pub setup: Vec<f64>,
    /// GB/s per compression pass (or one aggregate).
    pub compress_gbps: Vec<f64>,
    /// GB/s per decompression pass (or one aggregate).
    pub decompress_gbps: Vec<f64>,
    /// Raw and compressed bytes over one deterministic set of outputs.
    pub raw_bytes: u64,
    pub comp_bytes: u64,
    /// Seconds per read, per key; and reads per second.
    pub reads: Vec<Vec<f64>>,
    pub read_per_s: f64,
    /// Seconds per round trip, per key; and round trips per second.
    pub rts: Vec<Vec<f64>>,
    pub rt_per_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Deterministic counts for the same-seed check: (name, exact value).
    pub counts: Vec<(String, String)>,
}

/// Medians of the non-empty keys.
fn key_medians(v: &[Vec<f64>]) -> Vec<f64> {
    v.iter()
        .filter(|s| !s.is_empty())
        .map(|s| median(s))
        .collect()
}

impl Samples {
    pub fn e2e(&self) -> Metrics {
        let (reads, rts) = (key_medians(&self.reads), key_medians(&self.rts));
        let mut m = Metrics::default();
        m.set("setup_s", median(&self.setup), "s");
        m.set("compress_gbps", median(&self.compress_gbps), "GB/s");
        m.set("decompress_gbps", median(&self.decompress_gbps), "GB/s");
        m.set("ratio", self.raw_bytes as f64 / self.comp_bytes as f64, "x");
        m.set("read_per_s", self.read_per_s, "1/s");
        m.set("read_p50_us", median(&reads) * 1e6, "us");
        m.set("read_p99_us", tail(&reads).1 * 1e6, "us");
        m.set("rt_per_s", self.rt_per_s, "1/s");
        m.set("rt_p50_us", median(&rts) * 1e6, "us");
        m.set("rt_p99_us", tail(&rts).1 * 1e6, "us");
        m.set("peak_rss_mb", peak_rss_mb(), "MB");
        m
    }

    /// Sample counts and the tail quantile actually used, for the report.
    pub fn describe(&self) -> String {
        let n = |v: &[Vec<f64>]| v.iter().map(Vec::len).sum::<usize>();
        let (reads, rts) = (key_medians(&self.reads), key_medians(&self.rts));
        format!(
            "setup n={} | compress n={} | decompress n={} | reads {} keys, {} samples (tail q={:.3}) | rts {} keys, {} samples (tail q={:.3}) | ops {} attempted, {} failed",
            self.setup.len(),
            self.compress_gbps.len(),
            self.decompress_gbps.len(),
            reads.len(),
            n(&self.reads),
            tail(&reads).0,
            rts.len(),
            n(&self.rts),
            tail(&rts).0,
            self.attempted,
            self.failed
        )
    }
}
