//! Seeded corpora. The seed picks fields, time steps, promotions and
//! order; sizes are fixed per workload, so memory and the amount of work
//! do not depend on the seed. Generation runs on `nproc` threads before
//! any timing and is reported on its own.

use crate::util::{Field, Rng};
use datasets::{cesm, hacc, hurricane, nyx, rtm};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One field to generate.
enum Spec {
    Rtm(usize, [usize; 3]),
    Hacc(&'static str, usize),
    Nyx(&'static str, [usize; 3]),
    Hurricane(&'static str, [usize; 3]),
    Cesm(&'static str, [usize; 2]),
}

fn make(spec: &Spec) -> (String, datasets::Field) {
    match spec {
        Spec::Rtm(t, s) => (format!("rtm.t{t}"), rtm::snapshot(*t, s)),
        Spec::Hacc(n, len) => (format!("hacc.{n}"), hacc::field(n, *len)),
        Spec::Nyx(n, s) => (format!("nyx.{n}"), nyx::field(n, s)),
        Spec::Hurricane(n, s) => (format!("hurricane.{n}"), hurricane::field(n, s)),
        Spec::Cesm(n, s) => (format!("cesm.{n}"), cesm::field(n, s)),
    }
}

/// Generate `specs` in parallel; a `true` flag widens that field to f64.
fn generate(specs: Vec<(Spec, bool)>) -> Vec<Field> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<Field>>> = Mutex::new((0..specs.len()).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..crate::util::nproc() {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((spec, promote)) = specs.get(i) else {
                    break;
                };
                let (name, f) = make(spec);
                let f = Field::from_dataset(f, name, *promote);
                out.lock().expect("generator panicked")[i] = Some(f);
            });
        }
    });
    out.into_inner()
        .expect("generator panicked")
        .into_iter()
        .map(|f| f.expect("every field generated"))
        .collect()
}

/// Pick `k` distinct names from `names`.
fn pick(rng: &mut Rng, names: &[&'static str], k: usize) -> Vec<&'static str> {
    let mut v = names.to_vec();
    rng.shuffle(&mut v);
    v.truncate(k);
    v
}

/// Stratified time steps: one per equal slice of `[lo, hi)`.
fn steps(rng: &mut Rng, n: usize, lo: usize, hi: usize) -> Vec<usize> {
    let w = (hi - lo) / n;
    (0..n).map(|i| lo + i * w + rng.range(0, w)).collect()
}

/// Simulation snapshot: 22 RTM 3-D wavefields, the six HACC 1-D particle
/// arrays, one NYX and one Hurricane 3-D field; 2 RTM and 2 HACC fields
/// promoted to f64 (a quarter of the bytes). 471 MB raw.
pub fn checkpoint(seed: u64) -> Vec<Field> {
    let mut rng = Rng::new(seed, 1);
    let mut specs = Vec::new();
    let mut rtm_f64: Vec<usize> = (0..22).collect();
    rng.shuffle(&mut rtm_f64);
    for (i, t) in steps(&mut rng, 22, 700, 3400).into_iter().enumerate() {
        specs.push((Spec::Rtm(t, [96, 192, 192]), rtm_f64[..2].contains(&i)));
    }
    let hacc_f64 = pick(&mut rng, &hacc::FIELDS, 2);
    for n in hacc::FIELDS {
        specs.push((Spec::Hacc(n, 4_000_000), hacc_f64.contains(&n)));
    }
    let n = pick(&mut rng, &nyx::FIELDS, 1)[0];
    specs.push((Spec::Nyx(n, [64, 64, 64]), false));
    let n = pick(&mut rng, &hurricane::FIELDS, 1)[0];
    specs.push((Spec::Hurricane(n, [32, 128, 128]), false));
    rng.shuffle(&mut specs);
    generate(specs)
}

/// Archive: seven RTM snapshots (one near each of seven evenly spaced
/// times, ±60 steps), NYX `velocity_x` and Hurricane `U`, each 32×64×128
/// f32 (1 MiB raw), in seeded order. Returns the fields and which are
/// stored as `CZP1`: the second and fifth snapshot and NYX, so every seed
/// stores the same kinds of data in each format.
pub fn archive(seed: u64) -> (Vec<Field>, Vec<bool>) {
    let mut rng = Rng::new(seed, 2);
    let shape = [32, 64, 128];
    let mut specs: Vec<(Spec, bool, bool)> = (0..7)
        .map(|i| {
            (
                Spec::Rtm(1000 + 400 * i + rng.range(0, 121) - 60, shape),
                false,
                i == 1 || i == 4,
            )
        })
        .collect();
    specs.push((Spec::Nyx("velocity_x", shape), false, true));
    specs.push((Spec::Hurricane("U", shape), false, false));
    rng.shuffle(&mut specs);
    let plain = specs.iter().map(|s| s.2).collect();
    (
        generate(specs.into_iter().map(|(s, p, _)| (s, p)).collect()),
        plain,
    )
}

/// Service source data, the same for every seed (the seed picks the
/// slices): two RTM snapshots, one Hurricane and one CESM field (f32).
pub fn service() -> Vec<Field> {
    generate(vec![
        (Spec::Rtm(1500, [64, 128, 128]), false),
        (Spec::Rtm(2700, [64, 128, 128]), false),
        (Spec::Hurricane("U", [20, 100, 100]), false),
        (Spec::Cesm("T850", [200, 360]), false),
    ])
}
