//! Service load generator: sustained throughput and tail latency of the
//! `cuszp-service` socket front-end vs concurrent client count (ISSUE 6).
//!
//! Each concurrency level gets a **fresh** server (so its latency
//! histogram and counters describe that level alone) with one codec
//! slot and the default bounded admission queue. N client threads
//! hammer compress requests over real TCP sockets for a fixed window;
//! `BUSY` replies are counted and retried after a short backoff —
//! overload shows up as a busy rate, never as a hang. The level's p50
//! and p99 come from the server's own fixed-bucket latency histogram
//! (the same one the `/metrics` op exports), so the benchmark measures
//! exactly what operators will see.
//!
//! **Honest single-core reporting:** the container this repo grows in
//! has one CPU. The accept loop, connection handlers, and all N clients
//! time-share it, so added concurrency cannot add throughput here — the
//! point of the sweep is that throughput *holds* (no collapse) while
//! the queue bound converts excess offered load into BUSY replies and a
//! bounded p99. `host_cpus` is recorded so readers can judge the
//! numbers; rerun on a real host for scaling curves.
//!
//! The artifact also re-proves the service's headline invariant in situ:
//! a steady-state request on a warmed connection performs **zero heap
//! operations** process-wide (counted across the connection thread that
//! runs the codec, the admission gate, and the client when the `repro`
//! binary's counting allocator is installed).

use super::Ctx;
use crate::report::Report;
use cuszp_core::{DType, ErrorBound};
use cuszp_service::{Client, Server, ServiceConfig, ServiceError, Tenant};
use datasets::Scale;
use serde::Serialize;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// One concurrency level of the sweep.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Concurrent client connections.
    pub clients: usize,
    /// Measurement window (seconds).
    pub seconds: f64,
    /// Compress requests completed (OK responses).
    pub requests: u64,
    /// Requests bounced with BUSY (each was retried).
    pub busy_rejections: u64,
    /// `busy / (busy + ok)` — the overload signal.
    pub busy_rate: f64,
    /// Raw payload bytes compressed per second, MB/s.
    pub throughput_mbps: f64,
    /// Median service latency (seconds), from the server's histogram.
    pub p50_seconds: f64,
    /// 99th-percentile service latency (seconds).
    pub p99_seconds: f64,
    /// Achieved wire-level compression ratio (raw / container bytes).
    pub ratio: f64,
}

/// The checked-in benchmark artifact (`BENCH_service.json`).
#[derive(Debug, Clone, Serialize)]
pub struct BenchFile {
    /// Artifact schema tag.
    pub experiment: String,
    /// CPUs visible to this run — with 1, concurrency cannot scale
    /// throughput; the sweep then demonstrates bounded-queue behavior,
    /// not parallel speedup.
    pub host_cpus: usize,
    /// Codec slots per server (`ServiceConfig::workers`).
    pub workers: usize,
    /// Admission queue depth beyond in-service jobs.
    pub queue_depth: usize,
    /// Compress request payload (bytes of f32 data).
    pub payload_bytes: usize,
    /// Whether the zero-alloc proof below is live.
    pub counting_allocator_installed: bool,
    /// Heap operations per steady-state request on a warmed connection,
    /// counted process-wide (target 0).
    pub steady_state_heap_ops: u64,
    /// The concurrency sweep.
    pub rows: Vec<Row>,
}

fn wave(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| (i as f32 * 0.021).sin() * 55.0 + (i as f32 * 0.0013).cos() * 7.0)
        .collect()
}

fn tenant(cap: u32) -> Tenant {
    Tenant {
        tenant_id: 7,
        dtype: DType::F32,
        bound: ErrorBound::Abs(1e-2),
        max_payload: cap,
        hybrid: false,
    }
}

/// Run one concurrency level against a fresh server.
fn run_level(clients: usize, elems: usize, window: Duration) -> Row {
    let server = Server::start(ServiceConfig::default()).expect("bind service");
    let addr = server.addr();
    let cap = (elems * 4) as u32;

    let t0 = Instant::now();
    let deadline = t0 + window;
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, tenant(cap)).expect("connect");
                let data = wave(elems);
                let (mut ok, mut busy) = (0u64, 0u64);
                while Instant::now() < deadline {
                    match client.compress_f32(&data) {
                        Ok(_) => ok += 1,
                        Err(ServiceError::Busy) => {
                            busy += 1;
                            // Back off briefly so the retry storm doesn't
                            // starve the running request on a single core.
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        Err(e) => panic!("load client failed: {e}"),
                    }
                }
                (ok, busy)
            })
        })
        .collect();
    let mut ok = 0u64;
    let mut busy = 0u64;
    for h in handles {
        let (o, b) = h.join().expect("client thread");
        ok += o;
        busy += b;
    }
    let seconds = t0.elapsed().as_secs_f64();

    let metrics = server.metrics();
    let p50 = metrics.latency.quantile_seconds(0.50).unwrap_or(0.0);
    let p99 = metrics.latency.quantile_seconds(0.99).unwrap_or(0.0);
    let raw = metrics.raw_bytes.load(Ordering::Relaxed);
    let ratio = metrics.ratio();
    let busy_total = metrics.busy_rejections.load(Ordering::Relaxed);
    server.shutdown();

    Row {
        clients,
        seconds,
        requests: ok,
        busy_rejections: busy_total.max(busy),
        busy_rate: busy as f64 / (busy + ok).max(1) as f64,
        throughput_mbps: raw as f64 / seconds / 1.0e6,
        p50_seconds: p50,
        p99_seconds: p99,
        ratio,
    }
}

/// Measure steady-state heap operations per request on one warmed
/// connection (process-wide: connection thread, admission gate, client).
fn steady_state_heap_ops(elems: usize) -> u64 {
    let server = Server::start(ServiceConfig::default()).expect("bind service");
    let mut client = Client::connect(server.addr(), tenant((elems * 4) as u32)).expect("connect");
    let data = wave(elems);
    client.compress_f32(&data).expect("warm-up request");
    let before = alloc_counter::snapshot();
    const REQS: u64 = 10;
    for _ in 0..REQS {
        client.compress_f32(&data).expect("steady-state request");
    }
    let ops = alloc_counter::snapshot().since(&before).heap_ops();
    server.shutdown();
    ops / REQS
}

/// Run the service load experiment.
pub fn run(ctx: &Ctx) {
    let mut report = Report::new(
        "service_load",
        "Service sustained throughput and p99 latency vs concurrent clients",
        &ctx.out_dir,
    );
    let window = match ctx.scale {
        Scale::Tiny => Duration::from_millis(250),
        Scale::Small => Duration::from_millis(700),
        Scale::Medium => Duration::from_millis(2000),
    };
    let elems = 16 * 1024; // 64 KiB payloads: service-shaped, latency-visible
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let installed = alloc_counter::is_installed();
    let defaults = ServiceConfig::default();
    report.line(&format!(
        "{} CPU(s); {} codec slot(s), queue depth {}; 64 KiB f32 payloads; \
         {:.2}s window per level; counting allocator {}",
        host_cpus,
        defaults.workers,
        defaults.queue_depth,
        window.as_secs_f64(),
        if installed {
            "installed"
        } else {
            "NOT installed (heap-op count inert)"
        }
    ));
    if host_cpus == 1 {
        report.line(
            "single-core host: expect flat throughput and a rising busy rate with \
             added clients — the sweep demonstrates bounded-queue overload \
             behavior, not parallel scaling",
        );
    }

    let levels = [1usize, 2, 4, 8];
    let rows: Vec<Row> = levels
        .iter()
        .map(|&n| run_level(n, elems, window))
        .collect();

    report.table(
        &[
            "clients",
            "req/s",
            "MB/s",
            "busy rate",
            "p50 ms",
            "p99 ms",
            "ratio",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    format!("{}", r.clients),
                    format!("{:.0}", r.requests as f64 / r.seconds),
                    format!("{:.0}", r.throughput_mbps),
                    format!("{:.1}%", r.busy_rate * 100.0),
                    format!("{:.3}", r.p50_seconds * 1e3),
                    format!("{:.3}", r.p99_seconds * 1e3),
                    format!("{:.2}", r.ratio),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let heap_ops = steady_state_heap_ops(elems);
    report.line(&format!(
        "steady-state heap ops per request (process-wide): {heap_ops} (target 0)"
    ));

    let bench = BenchFile {
        experiment: "service_load".to_string(),
        host_cpus,
        workers: defaults.workers,
        queue_depth: defaults.queue_depth,
        payload_bytes: elems * 4,
        counting_allocator_installed: installed,
        steady_state_heap_ops: heap_ops,
        rows: rows.clone(),
    };

    report.save_json(&rows);
    report.save_text();

    let root = ctx.out_dir.parent().unwrap_or(std::path::Path::new("."));
    let path = root.join("BENCH_service.json");
    let json = serde_json::to_string_pretty(&bench).expect("serialize bench file");
    std::fs::write(&path, json).expect("write BENCH_service.json");
    report.line(&format!(
        "benchmark trajectory written to {}",
        path.display()
    ));
}
