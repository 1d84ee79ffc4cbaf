//! The repository benchmark: three workloads driven through the public
//! API of the serving crates, every output checked.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload checkpoint|archive_query|service_rt --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; the lines
//! before it are the human-readable report (`#` lines) and the run's
//! fingerprint. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer metrics (see README.md). The exit code is non-zero when
//! any output check failed.

mod archive;
mod checkpoint;
mod corpus;
mod probe;
mod samples;
mod service;
mod trace;
mod util;

use samples::Samples;
use std::path::PathBuf;
use std::time::Instant;
use trace::{Tracer, LAYERS};
use util::{jstr, num, Field, Metrics};

const WORKLOADS: [&str; 3] = ["checkpoint", "archive_query", "service_rt"];
/// End-to-end metrics where a larger value is better; the rest are
/// better lower.
const HIGHER: [&str; 5] = [
    "compress_gbps",
    "decompress_gbps",
    "ratio",
    "read_per_s",
    "rt_per_s",
];
/// Raw bytes the codec probe covers per traced run.
const PROBE_BYTES: u64 = 128 << 20;
/// Seconds given to each layer the workload itself does not use, when
/// the traced run measures it on the workload's inputs.
const SIDE_SECONDS: f64 = 1.5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(k) = a.next() {
        let v = a.next().ok_or(format!("{k} needs a value"))?;
        match k.as_str() {
            "--workload" => workload = Some(v),
            "--seed" => seed = Some(v.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(v.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = Some(v == "1"),
            _ => return Err(format!("unknown argument {k}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0).max(1.0),
        trace: trace.unwrap_or(false),
    })
}

/// A workload's generated inputs.
struct Corpus {
    fields: Vec<Field>,
    /// `checkpoint`: each field's resolved bound.
    ebs: Vec<f64>,
    /// `archive_query`: which fields are stored as `CZP1`.
    plain: Vec<bool>,
}

fn generate(workload: &str, seed: u64) -> Corpus {
    let (fields, plain) = match workload {
        "checkpoint" => (corpus::checkpoint(seed), Vec::new()),
        "archive_query" => corpus::archive(seed),
        _ => (corpus::service(), Vec::new()),
    };
    let ebs = if workload == "checkpoint" {
        checkpoint::bounds(&fields)
    } else {
        Vec::new()
    };
    Corpus { fields, ebs, plain }
}

fn main_pass(
    a: &Args,
    c: &Corpus,
    budget: f64,
    tr: &mut Tracer,
    replay: bool,
) -> (Samples, Metrics) {
    match a.workload.as_str() {
        "checkpoint" => checkpoint::pass(&c.fields, &c.ebs, util::nproc(), budget, tr, replay),
        "archive_query" => archive::pass(
            &archive::specs(&c.fields, &c.plain),
            budget,
            a.seed,
            tr,
            replay,
        ),
        _ => {
            let (src, abs) = service::sources(&c.fields);
            service::pass(&src, abs, budget, a.seed, tr, replay)
        }
    }
}

/// The traced run: an untraced and a traced half of the workload (their
/// difference is the tracing overhead), the layers the workload does not
/// use measured on its inputs, and the codec probe.
fn traced(a: &Args, c: &Corpus, origin: Instant) -> (Vec<Samples>, Metrics, Tracer) {
    let half = a.seconds / 2.0;
    let (u, _) = main_pass(a, c, half, &mut Tracer::new(false, origin), false);
    let mut tr = Tracer::new(true, origin);
    let (t, mut m) = main_pass(a, c, half, &mut tr, true);
    let (ue, te) = (u.e2e(), t.e2e());
    for (name, (tv, _)) in &te.0 {
        let uv = ue.get(name);
        let worse = if HIGHER.contains(&name.as_str()) {
            uv / tv - 1.0
        } else {
            tv / uv - 1.0
        };
        m.set(format!("trace.overhead.{name}"), worse, "fraction");
    }
    let mut all = vec![u, t];
    let nproc = util::nproc();

    if a.workload != "checkpoint" {
        let ebs = checkpoint::bounds(&c.fields);
        let (s, pm) = checkpoint::pass(&c.fields, &ebs, nproc, SIDE_SECONDS, &mut tr, true);
        m.0.extend(pm.0);
        all.push(s);
    }
    m.set(
        "pipeline.speedup_vs_1",
        checkpoint::speedup(&c.fields, nproc),
        "x",
    );
    if a.workload != "archive_query" {
        let f32s: Vec<Field> = c
            .fields
            .iter()
            .filter_map(|f| archive::crop(f, [32, 128, 128]))
            .take(3)
            .collect();
        let (s, sm) = archive::pass(
            &archive::specs(&f32s, &[]),
            SIDE_SECONDS,
            a.seed,
            &mut tr,
            true,
        );
        m.0.extend(sm.0);
        all.push(s);
    }
    if a.workload != "service_rt" {
        let (src, abs) = service::sources(&c.fields);
        let (s, sm) = service::pass(&src, abs, SIDE_SECONDS, a.seed, &mut tr, true);
        m.0.extend(sm.0);
        all.push(s);
    }

    let chunks;
    let inputs = match a.workload.as_str() {
        "checkpoint" => checkpoint::inputs(&c.fields, &c.ebs),
        "archive_query" => {
            chunks = archive::chunk_data(&archive::specs(&c.fields, &c.plain));
            archive::inputs(&chunks)
        }
        _ => {
            let (src, _) = service::sources(&c.fields);
            service::requests(&src, a.seed, 2, 128)
                .into_iter()
                .map(|q| {
                    let s = &src[q.field][q.off..q.off + q.len];
                    probe::Input::F32(s, service::REL * cuszp_core::value_range(s))
                })
                .collect()
        }
    };
    let (ps, pm) = probe::run(&inputs, PROBE_BYTES, a.seed, &mut tr);
    m.0.extend(pm.0);
    all.push(ps);

    let selfs = tr.self_seconds();
    let calls = tr.calls();
    for (i, l) in LAYERS.iter().enumerate() {
        m.set(format!("self_s.{}", l.name()), selfs[i], "s");
        m.set(format!("calls.{}", l.name()), calls[i] as f64, "count");
    }
    (all, m, tr)
}

/// Same code, same seed, same counts: compare with the counts an earlier
/// run of this code, workload and seed left in `perfbench/out/`, then
/// record ours.
fn check_counts(a: &Args, code: &str, counts: &[(String, String)]) -> Vec<String> {
    let path = PathBuf::from(format!(
        "perfbench/out/counts-{code}-{}-{}.txt",
        a.workload, a.seed
    ));
    let mut known: Vec<(String, String)> = std::fs::read_to_string(&path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            l.split_once('=')
                .map(|(k, v)| (k.to_string(), v.to_string()))
        })
        .collect();
    let mut bad = Vec::new();
    for (k, v) in counts {
        match known.iter().find(|(kk, _)| kk == k) {
            Some((_, old)) if old != v => bad.push(format!("{k}: {old} then {v}")),
            Some(_) => {}
            None => known.push((k.clone(), v.clone())),
        }
    }
    let text: String = known.iter().map(|(k, v)| format!("{k}={v}\n")).collect();
    if std::fs::create_dir_all("perfbench/out")
        .and_then(|_| std::fs::write(&path, text))
        .is_err()
    {
        eprintln!("note: could not record counts at {}", path.display());
    }
    bad
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if !std::path::Path::new("crates/cuszp-core").is_dir() {
        eprintln!("perfbench: run from the repository root (crates/ not found)");
        std::process::exit(2);
    }
    let origin = Instant::now();
    let t = Instant::now();
    let c = generate(&a.workload, a.seed);
    let gen_s = t.elapsed().as_secs_f64();
    let raw: u64 = c.fields.iter().map(Field::bytes).sum();
    let f64_bytes: u64 = c
        .fields
        .iter()
        .filter(|f| f.dtype() == cuszp_core::DType::F64)
        .map(Field::bytes)
        .sum();
    let llc = util::llc_bytes();
    let code = util::code_id();
    println!(
        "fingerprint {{\"cpu\": {}, \"nproc\": {}, \"llc_bytes\": {}, \"simd\": \"{}\", \"commit\": {}, \"code\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"fields\": {}, \"raw_bytes\": {}, \"f64_share\": {}, \"working_set_over_llc\": {}, \"generate_s\": {}}}",
        jstr(&util::cpu_model()),
        util::nproc(),
        llc,
        cuszp_core::simd::detect_level(),
        util::commit().map_or("null".into(), |c| jstr(&c)),
        code,
        a.workload,
        a.seed,
        num(a.seconds),
        a.trace as u8,
        c.fields.len(),
        raw,
        num(f64_bytes as f64 / raw as f64),
        num(raw as f64 / llc as f64),
        num(gen_s)
    );

    let (passes, metrics, tr) = if a.trace {
        let (p, m, tr) = traced(&a, &c, origin);
        (p, m, Some(tr))
    } else {
        let (s, _) = main_pass(&a, &c, a.seconds, &mut Tracer::new(false, origin), false);
        let m = s.e2e();
        (vec![s], m, None)
    };
    let mut metrics = metrics;
    let attempted: u64 = passes.iter().map(|s| s.attempted).sum();
    let mut failed: u64 = passes.iter().map(|s| s.failed).sum();
    if a.trace {
        metrics.set(
            "fail_share",
            failed as f64 / attempted.max(1) as f64,
            "fraction",
        );
    }
    for s in &passes {
        println!("# samples: {}", s.describe());
    }
    let counts: Vec<(String, String)> = passes.iter().flat_map(|s| s.counts.clone()).collect();
    for bad in check_counts(&a, &code, &counts) {
        println!("# COUNT MISMATCH for the same seed: {bad}");
        failed += 1;
    }
    if let Some(tr) = &tr {
        let path = PathBuf::from(format!(
            "perfbench/out/trace-{}-{}.jsonl",
            a.workload, a.seed
        ));
        match tr.write(&path) {
            Ok(()) => println!("# spans: {} written to {}", tr.spans.len(), path.display()),
            Err(e) => println!("# spans: {} (not written: {e})", tr.spans.len()),
        }
    }
    for (k, (v, u)) in &metrics.0 {
        println!("# {k} = {} {u}", num(*v));
    }
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    );
    std::process::exit(if correct { 0 } else { 1 });
}
