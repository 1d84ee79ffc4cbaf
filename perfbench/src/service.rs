//! `service_rt`: a loopback `Server` (`workers` = nproc) and two client
//! connections, each on its own thread, closed loop. Connection 1 is a
//! fixed-stream tenant with an ABS bound, connection 2 a hybrid tenant
//! with a REL bound. A round trip compresses a seeded 16–256 KiB slice
//! and decompresses the reply; a "read" is the decompress request.
//! Output checks run between round trips, outside every timed region,
//! so rates count time spent in round trips only.

use crate::samples::Samples;
use crate::trace::{Kind, Layer, Tracer};
use crate::util::{median, sum_medians, within_bound, Metrics, Rng};
use cuszp_core::hybrid::{self, HYBRID_MAGIC};
use cuszp_core::{
    chunk_ref_iter, fast, simd, CompressedRef, Cuszp, CuszpConfig, DType, ErrorBound, HybridRef,
    HybridScratch, Scratch,
};
use cuszp_service::{Client, Server, ServiceConfig, ServiceError, Tenant};
use std::time::{Duration, Instant};

pub const REL: f64 = 1e-3;
const MAX_PAYLOAD: u32 = 256 << 10;
/// Distinct requests per connection; the loop cycles through them, so
/// per-request sizes repeat and the ratio is the same for a seed.
const REQS: usize = 512;
/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 11;

#[derive(Clone, Copy)]
pub struct Req {
    pub field: usize,
    pub off: usize,
    pub len: usize,
}

/// `n` seeded slices of `fields`: sizes stratified over 16–256 KiB and
/// fields taken in turn (both then shuffled), so every seed sends the
/// same mix; offsets are uniform. Constant slices are drawn again: a REL
/// bound cannot resolve on them, and the service rightly rejects them.
pub fn requests(fields: &[&[f32]], seed: u64, stream: u64, n: usize) -> Vec<Req> {
    let mut rng = Rng::new(seed, 10 + stream);
    let (lo, hi) = (4usize << 10, 64usize << 10);
    let mut shapes: Vec<(usize, usize)> = (0..n)
        .map(|i| {
            (
                i % fields.len(),
                lo + (i * (hi - lo) + rng.range(0, hi - lo)) / n,
            )
        })
        .collect();
    rng.shuffle(&mut shapes);
    shapes
        .into_iter()
        .map(|(field, len)| loop {
            let off = rng.range(0, fields[field].len() - len + 1);
            if cuszp_core::value_range(&fields[field][off..off + len]) > 0.0 {
                break Req { field, off, len };
            }
        })
        .collect()
}

fn tenants(abs: f64) -> [Tenant; 2] {
    [
        Tenant {
            tenant_id: 1,
            dtype: DType::F32,
            bound: ErrorBound::Abs(abs),
            max_payload: MAX_PAYLOAD,
            hybrid: false,
        },
        Tenant {
            tenant_id: 2,
            dtype: DType::F32,
            bound: ErrorBound::Rel(REL),
            max_payload: MAX_PAYLOAD,
            hybrid: true,
        },
    ]
}

/// Set-up: `Server::start` and both handshakes.
fn start(abs: f64) -> (f64, Server, Vec<Client>) {
    let cfg = ServiceConfig {
        workers: crate::util::nproc(),
        ..ServiceConfig::default()
    };
    let t = Instant::now();
    let server = Server::start(cfg).expect("server starts on loopback");
    let clients = tenants(abs)
        .into_iter()
        .map(|tn| Client::connect(server.addr(), tn).expect("handshake"))
        .collect();
    (t.elapsed().as_secs_f64(), server, clients)
}

#[derive(Default)]
struct Conn {
    compress_us: Vec<f64>,
    decompress_us: Vec<f64>,
    /// Per distinct request: compress, decompress and round-trip seconds.
    per_req: Vec<[Vec<f64>; 3]>,
    overhead_us: Vec<f64>,
    sizes: Vec<Option<usize>>,
    attempted: u64,
    failed: u64,
    busy: u64,
    errors: u64,
}

/// In-process replay of what the server worker runs for one request:
/// returns (compress seconds, decompress seconds).
#[allow(clippy::too_many_arguments)]
fn replay(
    slice: &[f32],
    bound: ErrorBound,
    hybrid_tenant: bool,
    container: &[u8],
    parents: (u32, u32),
    req: u64,
    tr: &mut Tracer,
    rs: &mut (Scratch, HybridScratch, Vec<u8>, Vec<u8>, Vec<f32>),
) -> (f64, f64) {
    let (scratch, hs, stream, frame, out) = rs;
    let cfg = CuszpConfig::default();
    let n = 4 * slice.len() as u64;
    let (core, rp) = (Layer::Core, Kind::Replay);
    let (eb, mut cs, _) = tr.time(
        "core.resolve",
        core,
        rp,
        parents.0,
        req,
        n,
        || match bound {
            ErrorBound::Abs(d) => d,
            ErrorBound::Rel(l) => l * cuszp_core::value_range(slice),
        },
    );
    let (_, s, _) = tr.time("core.compress_into", core, rp, parents.0, req, n, || {
        fast::compress_into(scratch, slice, eb, cfg, stream).total_bytes()
    });
    cs += s;
    if hybrid_tenant {
        let r = CompressedRef::parse(stream).expect("valid stream");
        let level = simd::resolve_level(cfg.simd);
        cs += tr
            .time(
                "entropy.encode",
                Layer::Entropy,
                rp,
                parents.0,
                req,
                n,
                || hybrid::encode_at(&r, hybrid::auto_chunk_blocks(&r), level, hs, frame),
            )
            .1;
    }
    out.resize(slice.len(), 0.0);
    let ds = if container.starts_with(&HYBRID_MAGIC) {
        let h = HybridRef::parse(container).expect("service frame parses");
        tr.time(
            "entropy.decode",
            Layer::Entropy,
            rp,
            parents.1,
            req,
            n,
            || hybrid::decode_into(&h, hs, scratch, out).expect("service frame decodes"),
        )
        .1
    } else {
        tr.time("core.decompress_into", core, rp, parents.1, req, n, || {
            let mut at = 0;
            for c in chunk_ref_iter(container).expect("service container parses") {
                let c = c.expect("chunk parses");
                let k = c.num_elements as usize;
                fast::decompress_into(c, scratch, &mut out[at..at + k]);
                at += k;
            }
        })
        .1
    };
    (cs, ds)
}

#[allow(clippy::too_many_arguments)]
fn run_conn(
    mut client: Client,
    fields: &[&[f32]],
    reqs: &[Req],
    until: Instant,
    conn: u64,
    tr: &mut Tracer,
    replay_on: bool,
) -> Conn {
    let tenant = client.tenant();
    let mut c = Conn {
        sizes: vec![None; reqs.len()],
        per_req: vec![Default::default(); reqs.len()],
        ..Conn::default()
    };
    let mut container = Vec::with_capacity(2 * MAX_PAYLOAD as usize);
    let mut out = Vec::with_capacity(MAX_PAYLOAD as usize / 4);
    let mut rs = Default::default();
    let mut k = 0;
    while Instant::now() < until {
        let i = k % reqs.len();
        k += 1;
        let q = reqs[i];
        let slice = &fields[q.field][q.off..q.off + q.len];
        let n = 4 * q.len as u64;
        let req = conn << 32 | k as u64;
        c.attempted += 1;
        let (res, cs, span_c) = tr.time(
            "service.compress",
            Layer::Service,
            Kind::Call,
            0,
            req,
            n,
            || {
                client.compress_f32(slice).map(|b| {
                    container.clear();
                    container.extend_from_slice(b);
                })
            },
        );
        let res = res.and_then(|()| {
            let (r, ds, span) = tr.time(
                "service.decompress",
                Layer::Service,
                Kind::Call,
                0,
                req,
                n,
                || client.decompress_f32(&container, &mut out),
            );
            r.map(|()| (ds, span))
        });
        let (ds, span_d) = match res {
            Ok(v) => v,
            Err(e) => {
                c.failed += 1;
                match e {
                    ServiceError::Busy => c.busy += 1,
                    ServiceError::Remote => c.errors += 1,
                    ServiceError::Io(_) => {
                        c.errors += 1;
                        break;
                    }
                }
                continue;
            }
        };
        c.compress_us.push(cs * 1e6);
        c.decompress_us.push(ds * 1e6);
        for (v, t) in c.per_req[i].iter_mut().zip([cs, ds, cs + ds]) {
            v.push(t);
        }

        // Checks: same bytes as an in-process decode of the same
        // container, within the resolved bound, same size as before.
        let eb = match tenant.bound {
            ErrorBound::Abs(d) => d,
            ErrorBound::Rel(l) => l * cuszp_core::value_range(slice),
        };
        let local = if container.starts_with(&HYBRID_MAGIC) {
            Cuszp::new().decompress_serialized::<f32>(&container)
        } else {
            Cuszp::new().decompress_container_bytes::<f32>(&container)
        };
        let size = *c.sizes[i].get_or_insert(container.len());
        let ok = local.is_ok_and(|l| l == out)
            && within_bound(slice, &out, eb)
            && size == container.len();
        if !ok {
            c.failed += 1;
        }
        if replay_on {
            let (rc, rd) = replay(
                slice,
                tenant.bound,
                tenant.hybrid,
                &container,
                (span_c, span_d),
                req,
                tr,
                &mut rs,
            );
            c.overhead_us.push((cs + ds - rc - rd) * 1e6);
        }
    }
    c
}

pub fn pass(
    fields: &[&[f32]],
    abs: f64,
    budget: f64,
    seed: u64,
    tr: &mut Tracer,
    replay_on: bool,
) -> (Samples, Metrics) {
    let mut s = Samples::default();
    for _ in 1..SETUPS {
        let (secs, server, clients) = start(abs);
        s.setup.push(secs);
        drop(clients);
        server.shutdown();
    }
    let (secs, server, clients) = start(abs);
    s.setup.push(secs);
    let until = Instant::now() + Duration::from_secs_f64(budget);
    let conns: Vec<(Conn, Tracer)> = std::thread::scope(|sc| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(i, client)| {
                let reqs = requests(fields, seed, i as u64, REQS);
                let mut t = tr.child();
                sc.spawn(move || {
                    let c = run_conn(
                        client,
                        fields,
                        &reqs,
                        until,
                        i as u64 + 1,
                        &mut t,
                        replay_on,
                    );
                    (c, t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    server.shutdown();

    let mut m = Metrics::default();
    // Throughputs and rates sum each distinct request's median time, so a
    // stall on a shared host moves them less than a plain total would.
    let (mut cs, mut ds, mut raw) = (0.0, 0.0, 0u64);
    let (mut cus, mut dus, mut ous) = (Vec::new(), Vec::new(), Vec::new());
    let (mut busy, mut errors) = (0, 0);
    let mut sizes = Vec::new();
    for (conn, (c, t)) in conns.into_iter().enumerate() {
        tr.merge(t);
        s.attempted += c.attempted;
        s.failed += c.failed;
        let reqs = requests(fields, seed, conn as u64, REQS);
        let col = |j: usize| c.per_req.iter().map(|r| r[j].clone()).collect::<Vec<_>>();
        let done = c.per_req.iter().filter(|r| !r[2].is_empty()).count() as f64;
        s.read_per_s += done / sum_medians(&col(1));
        s.rt_per_s += done / sum_medians(&col(2));
        s.reads.extend(col(1));
        s.rts.extend(col(2));
        cs += sum_medians(&col(0));
        ds += sum_medians(&col(1));
        raw += reqs
            .iter()
            .zip(&c.per_req)
            .filter(|(_, r)| !r[0].is_empty())
            .map(|(q, _)| 4 * q.len as u64)
            .sum::<u64>();
        cus.extend(c.compress_us);
        dus.extend(c.decompress_us);
        ous.extend(c.overhead_us);
        busy += c.busy;
        errors += c.errors;
        sizes.push(c.sizes);
    }
    s.compress_gbps.push(raw as f64 / 1e9 / cs);
    s.decompress_gbps.push(raw as f64 / 1e9 / ds);
    // Ratio over each connection's distinct requests that completed.
    for (conn, sz) in sizes.iter().enumerate() {
        let reqs = requests(fields, seed, conn as u64, REQS);
        for (q, z) in reqs.iter().zip(sz) {
            if let Some(z) = z {
                s.raw_bytes += 4 * q.len as u64;
                s.comp_bytes += *z as u64;
            }
        }
    }
    if sizes.iter().all(|v| v.iter().all(Option::is_some)) {
        let all: Vec<String> = sizes
            .iter()
            .flatten()
            .map(|z| z.unwrap_or(0).to_string())
            .collect();
        s.counts.push(("service.reply_bytes".into(), all.join(",")));
    }
    m.set("service.compress_us.p50", median(&cus), "us");
    m.set("service.decompress_us.p50", median(&dus), "us");
    if !ous.is_empty() {
        m.set("service.overhead_us.p50", median(&ous), "us");
    }
    m.set("service.busy_replies", busy as f64, "count");
    m.set("service.errors", errors as f64, "count");
    (s, m)
}

/// The service's source fields (f32, long enough for the largest slice)
/// and its ABS bound: 1e-3 of the smallest value range among them.
pub fn sources(fields: &[crate::util::Field]) -> (Vec<&[f32]>, f64) {
    let v: Vec<&[f32]> = fields
        .iter()
        .filter_map(|f| <f32 as crate::util::Elem>::of(f))
        .filter(|d| d.len() >= 64 << 10)
        .take(4)
        .collect();
    let abs = v
        .iter()
        .map(|d| cuszp_core::value_range(d))
        .fold(f64::INFINITY, f64::min)
        * 1e-3;
    (v, abs)
}
