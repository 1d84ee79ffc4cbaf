//! Adversarial differential suite for the quantizer: every tier's
//! [`simd::quantize_blocks`] and [`simd::quantize_lorenzo_block_at`] must
//! return exactly the integers of [`quantize::quantize_block`] (the
//! quantizer [`host_ref`] runs), `round(d / 2eb) as i64` with one
//! rounded division and ties away from zero.
//!
//! The AVX-512 tier multiplies by `fl(1/2eb)` and redoes a vector with
//! the exact divide only where a per-lane guard cannot prove the product
//! rounds like the quotient. The inputs here sit where that proof is
//! tight: within ±4 ulp of the half-integer ties `(k + ½)·2eb` for `|k|`
//! up to 10¹⁵ and beyond `2⁵⁰`, under ~100 k random bounds and under
//! bounds whose reciprocal is subnormal or infinite, plus NaN, ±∞, ±0,
//! subnormals and ±1e308, for `f32` and `f64`, Lorenzo on and off, and
//! partial tail blocks. Without the exact fallback the tie inputs fail.
//! Tiers above the host's detected one are skipped.

use cuszp_core::{fast, host_ref, quantize, simd, CuszpConfig, FloatData, SimdLevel};

/// xorshift64: deterministic and dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Log-uniform magnitude in `[10^lo, 10^hi)`.
    fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        10f64.powf(lo + (hi - lo) * self.unit())
    }
}

/// The tiers this host can run.
fn tiers() -> Vec<SimdLevel> {
    SimdLevel::ALL
        .into_iter()
        .filter(|&l| l <= simd::detect_level())
        .collect()
}

/// Element types under test, with their special values.
trait Elem: FloatData + Copy + std::fmt::Debug {
    const SPECIALS: &'static [Self];
    fn from_f64_round(v: f64) -> Self;
    /// The value `k` representable magnitudes away. Off a zero or ±∞
    /// (a tie centre that under- or overflows) it may land on a NaN,
    /// which is a valid input too.
    fn ulp_step(self, k: i64) -> Self;
}

impl Elem for f32 {
    const SPECIALS: &'static [f32] = &[
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        1e-45,
        -1e-45,
        1.1e-38,
        f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
        0.5,
        -0.5,
        1.5,
        -2.5,
    ];
    fn from_f64_round(v: f64) -> f32 {
        v as f32
    }
    fn ulp_step(self, k: i64) -> f32 {
        f32::from_bits(self.to_bits().wrapping_add_signed(k as i32))
    }
}

impl Elem for f64 {
    const SPECIALS: &'static [f64] = &[
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        2.0e-310,
        f64::MIN_POSITIVE,
        1e308,
        -1e308,
        f64::MAX,
        f64::MIN,
        0.5,
        -0.5,
        1.5,
        -2.5,
    ];
    fn from_f64_round(v: f64) -> f64 {
        v
    }
    fn ulp_step(self, k: i64) -> f64 {
        f64::from_bits(self.to_bits().wrapping_add_signed(k))
    }
}

/// `host_ref`'s quantizer, blockwise, with `quantize_blocks`'s layout:
/// zero-padded tail and per-block maximum residual magnitude.
fn oracle<T: FloatData>(data: &[T], l: usize, eb: f64, lorenzo: bool) -> (Vec<i64>, Vec<u64>) {
    let blocks = data.len().div_ceil(l);
    let mut resid = vec![0i64; blocks * l];
    let mut max_abs = vec![0u64; blocks];
    for (b, block) in data.chunks(l).enumerate() {
        let r = &mut resid[b * l..b * l + block.len()];
        quantize::quantize_block(block, eb, lorenzo, r);
        max_abs[b] = r.iter().map(|v| v.unsigned_abs()).max().unwrap_or(0);
    }
    (resid, max_abs)
}

/// Run every runnable tier through both entry points on `data`; return
/// a description of the first mismatch, if any.
fn check<T: Elem>(data: &[T], l: usize, eb: f64) -> Option<String> {
    for lorenzo in [false, true] {
        let (want, want_max) = oracle(data, l, eb, lorenzo);
        for level in tiers() {
            // Dirty buffers: the kernel must overwrite every slot.
            let mut resid = vec![i64::MIN + 7; want.len()];
            let mut max_abs = vec![u64::MAX; want_max.len()];
            simd::quantize_blocks(level, data, l, eb, lorenzo, &mut resid, &mut max_abs);
            if resid != want || max_abs != want_max {
                let at = resid.iter().zip(&want).position(|(a, b)| a != b);
                return Some(format!(
                    "quantize_blocks level={level} lorenzo={lorenzo} l={l} eb={eb:e} first \
                     differing residual {at:?} of {data:?}"
                ));
            }
            for (b, block) in data.chunks(l).enumerate() {
                let mut r = vec![i64::MIN + 7; block.len()];
                let m = simd::quantize_lorenzo_block_at(level, block, eb, lorenzo, &mut r);
                if r[..] != want[b * l..b * l + block.len()] || m != want_max[b] {
                    return Some(format!(
                        "quantize_lorenzo_block_at level={level} lorenzo={lorenzo} eb={eb:e} \
                         block {b} of {data:?}"
                    ));
                }
            }
        }
    }
    None
}

/// The `2·per_tie + 1` neighbours of each tie `(k + ½)·2eb` for the
/// given `k`s, in the element type's own precision.
fn around_ties<T: Elem>(eb: f64, ks: &[f64], per_tie: i64) -> Vec<T> {
    let e2 = 2.0 * eb;
    let mut v = Vec::new();
    for &k in ks {
        let tie = T::from_f64_round((k + 0.5) * e2);
        for s in -per_tie..=per_tie {
            v.push(tie.ulp_step(s));
        }
    }
    v
}

/// A random `k`: sign and log-uniform magnitude up to `10^max_exp`.
fn random_k(rng: &mut Rng, max_exp: f64) -> f64 {
    let k = rng.log_uniform(0.0, max_exp).floor();
    if rng.next() & 1 == 0 {
        k
    } else {
        -k - 1.0
    }
}

/// Check every case; on failure report how many differ and the first.
fn run<T: Elem>(cases: impl Iterator<Item = (Vec<T>, usize, f64)>) {
    let (mut bad, mut total, mut first) = (0usize, 0usize, None);
    for (data, l, eb) in cases {
        total += 1;
        if let Some(why) = check(&data, l, eb) {
            bad += 1;
            first.get_or_insert(why);
        }
    }
    assert!(total > 0);
    assert_eq!(
        bad,
        0,
        "{bad} of {total} cases differ; first: {}",
        first.unwrap_or_default()
    );
}

/// ~100 k random bounds, each with two 9-value ulp sweeps and random
/// values, at a length that leaves a partial tail. The first sweep is
/// around a random element `v` with the bound derived from it,
/// `eb = |v| / (2|k| + 1)`, so `v / 2eb` lands within an ulp or so of the
/// tie `±(|k| + ½)` in either element type. The second is around
/// `(k + ½)·2eb` for a small `k`, rounded to the element type.
fn random_bound_cases<T: Elem>(
    seed: u64,
    count: usize,
) -> impl Iterator<Item = (Vec<T>, usize, f64)> {
    let mut rng = Rng(seed);
    (0..count).map(move |_| {
        let max_exp = if T::DTYPE == cuszp_core::DType::F32 {
            7.0
        } else {
            15.0
        };
        let k = random_k(&mut rng, max_exp);
        let v = T::from_f64_round(k.signum() * rng.log_uniform(-12.0, 12.0));
        let eb = v.to_f64().abs() / (2.0 * k.abs() + 1.0);
        let mut data: Vec<T> = (-4..=4).map(|s| v.ulp_step(s)).collect();
        data.extend(around_ties::<T>(eb, &[random_k(&mut rng, 3.0)], 4));
        let extra = (rng.next() % 24) as usize;
        for _ in 0..extra {
            let v = (rng.unit() - 0.5) * 2.0 * eb * rng.log_uniform(0.0, 6.0);
            data.push(T::from_f64_round(v));
        }
        (data, 32, eb)
    })
}

#[test]
fn random_bounds_near_ties_f64() {
    run::<f64>(random_bound_cases(0x9E37_79B9_7F4A_7C15, 50_000));
}

#[test]
fn random_bounds_near_ties_f32() {
    run::<f32>(random_bound_cases(0xD1B5_4A32_D192_ED03, 50_000));
}

/// Bounds where the tie points are exactly representable (`2eb` a power
/// of two) or not (`eb = 0.1`, `1/3`), with `|k|` from 0 through 10¹⁵,
/// past `2⁵⁰` where the multiply path must hand over, and up to `i64`
/// saturation.
fn fixed_bound_cases<T: Elem>(max_exp: f64) -> Vec<(Vec<T>, usize, f64)> {
    let mut rng = Rng(0x2545_F491_4F6C_DD1D);
    let mut cases = Vec::new();
    for eb in [0.5, 0.25, 0.1, 1.0 / 3.0, 1e-3, 3e-7, 7.5, 1e-300, 1e300] {
        for l in [8, 32, 64] {
            let mut ks: Vec<f64> = (0..200).map(|_| random_k(&mut rng, max_exp)).collect();
            ks.extend([0.0, -1.0, 1.0, -2.0, 1e15, -1e15, 1.2e15, 9.1e18, -9.3e18]);
            ks.extend([
                (1u64 << 50) as f64,
                (1u64 << 52) as f64,
                (1u64 << 53) as f64,
            ]);
            cases.push((around_ties::<T>(eb, &ks, 4), l, eb));
        }
    }
    cases
}

#[test]
fn large_k_ties_f64() {
    run::<f64>(fixed_bound_cases(15.0).into_iter());
}

#[test]
fn large_k_ties_f32() {
    run::<f32>(fixed_bound_cases(7.0).into_iter());
}

/// Special values at every lane position and tail length, under
/// ordinary bounds and under bounds whose `1/(2eb)` is subnormal
/// (`2eb > 2¹⁰²²`), infinite (`2eb < 2⁻¹⁰²⁴`) or zero (`2eb = ∞`).
fn special_cases<T: Elem>() -> Vec<(Vec<T>, usize, f64)> {
    let mut rng = Rng(0xA076_1D64_78BD_642F);
    let bounds = [
        1e-3, 0.5, 1e-30, 1e30, 5e307, 8e307, 1e308, 1e-310, 2e-320, 5e-324, 2.2e-308,
    ];
    let mut cases = Vec::new();
    for eb in bounds {
        for len in 1..=70 {
            let data: Vec<T> = (0..len)
                .map(|_| {
                    let s = T::SPECIALS;
                    if rng.next().is_multiple_of(3) {
                        T::from_f64_round((rng.unit() - 0.5) * rng.log_uniform(-5.0, 5.0))
                    } else {
                        s[(rng.next() % s.len() as u64) as usize]
                    }
                })
                .collect();
            cases.push((data, 32, eb));
        }
    }
    cases
}

#[test]
fn specials_and_extreme_bounds_f64() {
    run::<f64>(special_cases().into_iter());
}

#[test]
fn specials_and_extreme_bounds_f32() {
    run::<f32>(special_cases().into_iter());
}

/// The codec end to end: streams at every tier equal `host_ref`'s on
/// tie-heavy data with partial tail blocks.
#[test]
fn tie_heavy_streams_match_host_ref() {
    for eb in [0.5, 0.1, 1e-3] {
        for lorenzo in [false, true] {
            let ks: Vec<f64> = (0..300).map(|i| (i as f64 - 150.0) * 37.0).collect();
            let f64s = around_ties::<f64>(eb, &ks, 4);
            let f32s = around_ties::<f32>(eb, &ks, 4);
            let base = CuszpConfig {
                lorenzo,
                ..CuszpConfig::default()
            };
            let (want64, want32) = (
                host_ref::compress(&f64s, eb, base),
                host_ref::compress(&f32s, eb, base),
            );
            for level in tiers() {
                let cfg = CuszpConfig {
                    simd: Some(level),
                    ..base
                };
                assert_eq!(
                    fast::compress(&f64s, eb, cfg),
                    want64,
                    "f64 eb={eb} {level}"
                );
                assert_eq!(
                    fast::compress(&f32s, eb, cfg),
                    want32,
                    "f32 eb={eb} {level}"
                );
            }
        }
    }
}
