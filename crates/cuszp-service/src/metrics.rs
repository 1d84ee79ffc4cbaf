//! Live service counters: a lock-free latency histogram and the
//! Prometheus-style metrics the `M` admin op renders.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of latency buckets in a [`LatencyHistogram`]: powers of two
/// from 1 µs up to ~34 s, plus an overflow bucket.
pub const LATENCY_BUCKETS: usize = 26;

/// A fixed-bucket latency histogram with lock-free recording.
///
/// Buckets are powers of two of microseconds: bucket `i` counts samples
/// in `(2^(i-1), 2^i]` µs (bucket 0 is `≤ 1 µs`, the last bucket catches
/// everything ≥ ~34 s). Recording is one relaxed atomic add — cheap
/// enough for every request on the service hot path, and **allocation-
/// free**, which keeps the zero-heap-ops steady-state property intact.
///
/// Quantiles are read back as the **upper bound of the bucket** where the
/// cumulative count crosses the rank, so a reported p99 is an upper
/// estimate with at most 2× bucket resolution error.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl LatencyHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a duration.
    fn index(d: Duration) -> usize {
        let micros = d.as_micros() as u64;
        if micros <= 1 {
            0
        } else {
            // ceil(log2(micros)), capped at the overflow bucket.
            ((64 - (micros - 1).leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
        }
    }

    /// Upper bound of bucket `i`, in seconds.
    fn upper_seconds(i: usize) -> f64 {
        (1u64 << i) as f64 * 1e-6
    }

    /// Record one sample. Lock-free, allocation-free.
    pub fn record(&self, d: Duration) {
        self.buckets[Self::index(d)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The `q`-quantile (`0 < q ≤ 1`) as the upper bound of the bucket
    /// where the cumulative count crosses `q · count`, in seconds.
    /// `None` while the histogram is empty.
    pub fn quantile_seconds(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(Self::upper_seconds(i));
            }
        }
        Some(Self::upper_seconds(LATENCY_BUCKETS - 1))
    }

    /// Snapshot the bucket counts (index = power-of-two microseconds).
    pub fn snapshot(&self) -> [u64; LATENCY_BUCKETS] {
        let mut out = [0u64; LATENCY_BUCKETS];
        for (o, b) in out.iter_mut().zip(&self.buckets) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }
}

/// Live counters for a long-running compression service.
///
/// All fields are atomics updated with relaxed ordering from connection
/// handlers and workers — no locks, no allocation — and read back by the
/// plain-text `metrics` admin query ([`ServiceMetrics::render_text`]).
/// Shared as an `Arc` between the server, its connections, and scrapers.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// Completed compress requests.
    pub compress_requests: AtomicU64,
    /// Completed decompress requests.
    pub decompress_requests: AtomicU64,
    /// Requests refused with `BUSY` (admission queue full).
    pub busy_rejections: AtomicU64,
    /// Requests refused with `ERR` (malformed frame, bad stream, bound
    /// unresolvable, payload over the tenant cap).
    pub errors: AtomicU64,
    /// Uncompressed bytes crossing the service (compress input +
    /// decompress output) — the numerator of the achieved ratio.
    pub raw_bytes: AtomicU64,
    /// Compressed stream bytes crossing the service (compress output +
    /// decompress input, paper accounting: fraction ⓐ + ⓑ).
    pub stream_bytes: AtomicU64,
    /// Bytes read off sockets (request payloads).
    pub bytes_in: AtomicU64,
    /// Bytes written to sockets (response payloads).
    pub bytes_out: AtomicU64,
    /// Connections currently open.
    pub active_connections: AtomicU64,
    /// Connections accepted over the server lifetime.
    pub total_connections: AtomicU64,
    /// Wire-to-wire service latency (request fully read → response
    /// written) across compress + decompress requests.
    pub latency: LatencyHistogram,
}

impl ServiceMetrics {
    /// Fresh zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Completed requests (compress + decompress).
    pub fn requests(&self) -> u64 {
        self.compress_requests.load(Ordering::Relaxed)
            + self.decompress_requests.load(Ordering::Relaxed)
    }

    /// Achieved compression ratio across all traffic (raw / stream
    /// bytes); `0.0` before any request completes.
    pub fn ratio(&self) -> f64 {
        let stream = self.stream_bytes.load(Ordering::Relaxed);
        if stream == 0 {
            0.0
        } else {
            self.raw_bytes.load(Ordering::Relaxed) as f64 / stream as f64
        }
    }

    /// Render the Prometheus-style plain-text exposition into `out`
    /// (cleared first). Writing into a caller-owned `String` lets a
    /// connection handler reuse one buffer across scrapes.
    pub fn render_text(&self, out: &mut String) {
        use std::fmt::Write;
        out.clear();
        let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let _ = writeln!(
            out,
            "# HELP cuszp_requests_total completed requests by operation\n\
             # TYPE cuszp_requests_total counter\n\
             cuszp_requests_total{{op=\"compress\"}} {}\n\
             cuszp_requests_total{{op=\"decompress\"}} {}",
            c(&self.compress_requests),
            c(&self.decompress_requests),
        );
        let mut counter = |name: &str, help: &str, v: u64| {
            let _ = writeln!(
                out,
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}"
            );
        };
        counter(
            "cuszp_busy_rejections_total",
            "requests refused BUSY (admission queue full)",
            c(&self.busy_rejections),
        );
        counter(
            "cuszp_errors_total",
            "requests refused ERR (malformed or over-cap)",
            c(&self.errors),
        );
        counter(
            "cuszp_raw_bytes_total",
            "uncompressed bytes served",
            c(&self.raw_bytes),
        );
        counter(
            "cuszp_stream_bytes_total",
            "compressed stream bytes served",
            c(&self.stream_bytes),
        );
        counter(
            "cuszp_socket_bytes_in_total",
            "request payload bytes read",
            c(&self.bytes_in),
        );
        counter(
            "cuszp_socket_bytes_out_total",
            "response payload bytes written",
            c(&self.bytes_out),
        );
        counter(
            "cuszp_connections_total",
            "connections accepted",
            c(&self.total_connections),
        );
        let _ = writeln!(
            out,
            "# HELP cuszp_active_connections connections currently open\n\
             # TYPE cuszp_active_connections gauge\n\
             cuszp_active_connections {}",
            c(&self.active_connections)
        );
        let _ = writeln!(
            out,
            "# HELP cuszp_compression_ratio achieved raw/stream ratio\n\
             # TYPE cuszp_compression_ratio gauge\n\
             cuszp_compression_ratio {:.6}",
            self.ratio()
        );
        let _ = writeln!(
            out,
            "# HELP cuszp_request_latency_seconds service latency histogram \
             (bucket upper bounds, cumulative)\n\
             # TYPE cuszp_request_latency_seconds histogram"
        );
        let snap = self.latency.snapshot();
        let mut cum = 0u64;
        for (i, n) in snap.iter().enumerate() {
            cum += n;
            if *n > 0 || i + 1 == LATENCY_BUCKETS {
                let _ = writeln!(
                    out,
                    "cuszp_request_latency_seconds_bucket{{le=\"{:.6}\"}} {cum}",
                    LatencyHistogram::upper_seconds(i)
                );
            }
        }
        let _ = writeln!(out, "cuszp_request_latency_seconds_count {cum}");
        for (label, q) in [("p50", 0.50), ("p99", 0.99)] {
            if let Some(s) = self.latency.quantile_seconds(q) {
                let _ = writeln!(out, "cuszp_request_latency_{label}_seconds {s:.6}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_seconds(0.5), None);
        // 99 fast samples at ~100 µs, one slow at ~50 ms.
        for _ in 0..99 {
            h.record(Duration::from_micros(100));
        }
        h.record(Duration::from_millis(50));
        assert_eq!(h.count(), 100);
        // p50 lands in the 100 µs bucket (upper bound 128 µs)...
        let p50 = h.quantile_seconds(0.50).unwrap();
        assert!(p50 <= 128e-6, "p50 {p50} should be ~128 µs");
        // ...while p100 sees the slow outlier (bucket upper 65.536 ms).
        let p100 = h.quantile_seconds(1.0).unwrap();
        assert!(p100 >= 50e-3, "p100 {p100} must cover the 50 ms sample");
        // Quantile is an upper estimate: within 2x of the true value.
        assert!(p100 <= 2.0 * 65.536e-3);
    }

    #[test]
    fn histogram_extremes_hit_edge_buckets() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_nanos(1)); // bucket 0
        h.record(Duration::from_secs(3600)); // overflow bucket
        let snap = h.snapshot();
        assert_eq!(snap[0], 1);
        assert_eq!(snap[LATENCY_BUCKETS - 1], 1);
    }

    #[test]
    fn service_metrics_render_and_ratio() {
        let m = ServiceMetrics::new();
        assert_eq!(m.ratio(), 0.0);
        m.compress_requests.fetch_add(3, Ordering::Relaxed);
        m.raw_bytes.fetch_add(4000, Ordering::Relaxed);
        m.stream_bytes.fetch_add(1000, Ordering::Relaxed);
        m.latency.record(Duration::from_micros(250));
        assert_eq!(m.requests(), 3);
        assert_eq!(m.ratio(), 4.0);
        let mut text = String::new();
        m.render_text(&mut text);
        assert!(text.contains("cuszp_requests_total{op=\"compress\"} 3"));
        assert!(text.contains("cuszp_compression_ratio 4.000000"));
        assert!(text.contains("cuszp_request_latency_seconds_count 1"));
        assert!(text.contains("cuszp_request_latency_p99_seconds"));
        // Reuse: a second render replaces, not appends.
        let len = text.len();
        m.render_text(&mut text);
        assert_eq!(text.len(), len);
    }
}
