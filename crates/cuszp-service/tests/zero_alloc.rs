//! The service's headline contract, proven executable: with the
//! counting allocator installed for this whole test binary (accept
//! loop, connection threads running the codec, the admission gate, and
//! the client alike), a warmed connection's request loop performs
//! **zero heap operations** — across compress, decompress, and metrics
//! scrapes.

use cuszp_core::{DType, ErrorBound};
use cuszp_service::{Client, Server, ServiceConfig, Tenant};

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

fn heap_ops_of(f: impl FnOnce()) -> u64 {
    let before = alloc_counter::snapshot();
    f();
    alloc_counter::snapshot().since(&before).heap_ops()
}

#[test]
fn steady_state_request_loop_is_allocation_free() {
    let data: Vec<f32> = (0..16_384)
        .map(|i| (i as f32 * 0.021).sin() * 55.0 + (i as f32 * 0.0013).cos() * 7.0)
        .collect();
    assert!(
        alloc_counter::is_installed(),
        "counting allocator must be this binary's #[global_allocator]"
    );

    let server = Server::start(ServiceConfig::default()).unwrap();
    let tenant = Tenant {
        tenant_id: 42,
        dtype: DType::F32,
        bound: ErrorBound::Abs(1e-2),
        max_payload: (data.len() * 4) as u32,
        hybrid: false,
    };
    let mut client = Client::connect(server.addr(), tenant).unwrap();

    // Reused client-side result buffers (part of the steady state).
    let mut container = Vec::new();
    let mut restored: Vec<f32> = Vec::new();
    // Sized up front: the rendered text grows a little between scrapes
    // (counters gain digits, new histogram buckets appear), and a
    // caller-owned scrape buffer is warmed by *capacity*, not length.
    let mut metrics_text = String::with_capacity(16 * 1024);

    let roundtrip = |client: &mut Client,
                     container: &mut Vec<u8>,
                     restored: &mut Vec<f32>,
                     metrics_text: &mut String| {
        let c = client.compress_f32(&data).unwrap();
        container.clear();
        container.extend_from_slice(c);
        client.decompress_f32(container, restored).unwrap();
        client.metrics_into(metrics_text).unwrap();
    };

    // Warm-up: the handshake already warmed the server-side arena; one
    // round trip warms the client result buffers above.
    roundtrip(
        &mut client,
        &mut container,
        &mut restored,
        &mut metrics_text,
    );
    assert_eq!(restored.len(), data.len());

    // Steady state: the entire process — connection handler, admission
    // gate, codec, reply path, metrics render, client — does zero heap
    // operations across 20 round trips.
    let ops = heap_ops_of(|| {
        for _ in 0..20 {
            roundtrip(
                &mut client,
                &mut container,
                &mut restored,
                &mut metrics_text,
            );
        }
    });
    assert_eq!(
        ops, 0,
        "20 steady-state round trips must not touch the heap"
    );

    // Sanity: traffic was real.
    assert!(cuszp_core::verify::check_bound(&data, &restored, 1e-2));
    assert!(metrics_text.contains("cuszp_requests_total{op=\"compress\"} 21"));
    server.shutdown();
}

#[test]
fn hybrid_tenant_steady_state_is_allocation_free() {
    // The CUSZPHY1 second stage (estimator, RLE, Huffman) writes only
    // into the connection's pre-warmed staging buffers, so a hybrid
    // tenant keeps the same zero-heap-op contract. Redundant data forces
    // the entropy coders to actually run (the response is a raw hybrid
    // frame, not the container fallback).
    let data = vec![0.0f32; 65_536];
    assert!(alloc_counter::is_installed());

    let server = Server::start(ServiceConfig::default()).unwrap();
    let tenant = Tenant {
        tenant_id: 43,
        dtype: DType::F32,
        bound: ErrorBound::Abs(1e-2),
        max_payload: (data.len() * 4) as u32,
        hybrid: true,
    };
    let mut client = Client::connect(server.addr(), tenant).unwrap();

    let mut frame = Vec::new();
    let mut restored: Vec<f32> = Vec::new();
    let roundtrip = |client: &mut Client, frame: &mut Vec<u8>, restored: &mut Vec<f32>| {
        let c = client.compress_f32(&data).unwrap();
        frame.clear();
        frame.extend_from_slice(c);
        client.decompress_f32(frame, restored).unwrap();
    };

    roundtrip(&mut client, &mut frame, &mut restored);
    assert!(
        frame.starts_with(&cuszp_core::hybrid::HYBRID_MAGIC),
        "the entropy stage must win on all-zero data"
    );
    assert_eq!(restored, data);

    let ops = heap_ops_of(|| {
        for _ in 0..20 {
            roundtrip(&mut client, &mut frame, &mut restored);
        }
    });
    assert_eq!(
        ops, 0,
        "20 steady-state hybrid round trips must not touch the heap"
    );
    server.shutdown();
}
