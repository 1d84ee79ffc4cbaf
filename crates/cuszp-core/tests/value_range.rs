//! Differential suite for the REL denominator: [`cuszp_core::value_range`]
//! (default dispatch, so `CUSZP_SIMD` pins it) and
//! [`simd::value_range_at`] at every tier [`simd::resolve_level`] allows
//! on this host must equal the [`host_ref::value_range`] loop **bit for
//! bit** — across both element types, every length up to 300 (every
//! ragged tail of every kernel's chunk width), and NaN, ±∞, ±0.0 and
//! subnormals at every lane position. A zero range may differ only in
//! its sign (which zero wins a `-0.0`/`+0.0` tie), so zero is compared
//! with `==`.

use cuszp_core::{host_ref, simd, FloatData, SimdLevel};
use proptest::prelude::*;

/// Every distinct tier `resolve_level` hands out on this host.
fn tiers() -> Vec<SimdLevel> {
    let mut tiers: Vec<SimdLevel> = SimdLevel::ALL
        .into_iter()
        .map(|l| simd::resolve_level(Some(l)))
        .collect();
    tiers.dedup();
    tiers
}

/// Compare the default entry point and every tier against the oracle.
fn check<T: FloatData>(data: &[T]) -> Result<(), TestCaseError> {
    let want = host_ref::value_range(data);
    let mut got = vec![("default".to_string(), cuszp_core::value_range(data))];
    for level in tiers() {
        got.push((level.to_string(), simd::value_range_at(level, data)));
    }
    for (tier, g) in got {
        if want == 0.0 {
            prop_assert_eq!(
                g,
                0.0,
                "{}: zero range came out {} (n = {})",
                tier,
                g,
                data.len()
            );
        } else {
            prop_assert_eq!(
                g.to_bits(),
                want.to_bits(),
                "{}: {} != oracle {} (n = {})",
                tier,
                g,
                want,
                data.len()
            );
        }
    }
    Ok(())
}

/// `check`, panicking outside a property body.
fn assert_matches<T: FloatData>(data: &[T]) {
    if let Err(e) = check(data) {
        panic!("{e:?}");
    }
}

/// The specials every lane position must survive: NaN, ±∞, ±0.0 and
/// subnormals of each element type.
const SPECIALS_F64: [f64; 8] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.0,
    f64::MIN_POSITIVE / 4.0, // subnormal
    -f64::MIN_POSITIVE / 4.0,
    5e-324, // smallest subnormal
];

const SPECIALS_F32: [f32; 8] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    0.0,
    -0.0,
    f32::MIN_POSITIVE / 4.0,
    -f32::MIN_POSITIVE / 4.0,
    1e-45, // smallest subnormal
];

/// Inject each special at every position of every length up to 130
/// (two full 64-lane chunks of the widest kernel plus every tail), over
/// a positive background (so ±0 and subnormals become the minimum) and a
/// negative one (so they become the maximum).
fn sweep<T: FloatData + Copy>(specials: &[T], from_f64: fn(f64) -> T) {
    for len in 1..=130usize {
        for background in [1.0f64, -1.0] {
            let base: Vec<T> = (0..len)
                .map(|i| from_f64(background * (1.0 + (i % 7) as f64 * 0.125)))
                .collect();
            for &s in specials {
                for p in 0..len {
                    let mut data = base.clone();
                    data[p] = s;
                    assert_matches(&data);
                }
            }
        }
    }
}

#[test]
fn specials_at_every_lane_position_f32() {
    sweep(&SPECIALS_F32, |v| v as f32);
}

#[test]
fn specials_at_every_lane_position_f64() {
    sweep(&SPECIALS_F64, |v| v);
}

#[test]
fn all_non_finite_inputs_give_zero() {
    for len in 0..=300usize {
        let f32s: Vec<f32> = (0..len).map(|i| SPECIALS_F32[i % 3]).collect();
        let f64s: Vec<f64> = (0..len).map(|i| SPECIALS_F64[i % 3]).collect();
        assert_matches(&f32s);
        assert_matches(&f64s);
        assert_eq!(cuszp_core::value_range(&f32s), 0.0);
        assert_eq!(cuszp_core::value_range(&f64s), 0.0);
    }
}

#[test]
fn single_element_inputs() {
    for &s in &SPECIALS_F32 {
        assert_matches(&[s]);
    }
    for &s in &SPECIALS_F64 {
        assert_matches(&[s]);
    }
    for v in [1.0f64, -3.5, f64::MAX, f64::MIN, 1e300] {
        assert_matches(&[v]);
        assert_matches(&[v as f32]);
    }
}

#[test]
fn extreme_finite_values_keep_their_range() {
    // f32::MAX − f32::MIN overflows f32 but not f64: the f32 kernel must
    // widen before subtracting, like the oracle.
    for len in [2usize, 63, 64, 65, 200] {
        let mut f32s = vec![0.0f32; len];
        f32s[0] = f32::MIN;
        f32s[len - 1] = f32::MAX;
        assert_matches(&f32s);
        assert_eq!(cuszp_core::value_range(&f32s), f32::MAX as f64 * 2.0);
        let mut f64s = vec![0.0f64; len];
        f64s[len / 2] = f64::MAX;
        f64s[len - 1] = f64::MIN;
        assert_matches(&f64s); // overflows to +∞ in the oracle too
    }
}

/// Finite values of spread magnitude with specials mixed in.
fn mixed_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        6 => any::<f32>(),
        1 => (0usize..SPECIALS_F32.len()).prop_map(|i| SPECIALS_F32[i]),
        1 => (1u32..0x0080_0000, any::<bool>())
            .prop_map(|(m, neg)| f32::from_bits(m | if neg { 1 << 31 } else { 0 })),
    ]
}

fn mixed_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        6 => any::<f64>(),
        1 => (0usize..SPECIALS_F64.len()).prop_map(|i| SPECIALS_F64[i]),
        1 => (1u64..1 << 52, any::<bool>())
            .prop_map(|(m, neg)| f64::from_bits(m | if neg { 1 << 63 } else { 0 })),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn matches_oracle_f32(data in proptest::collection::vec(mixed_f32(), 0..=300)) {
        check(&data)?;
    }

    #[test]
    fn matches_oracle_f64(data in proptest::collection::vec(mixed_f64(), 0..=300)) {
        check(&data)?;
    }

    #[test]
    fn matches_oracle_on_every_tail(
        len in 0usize..=300,
        seed in any::<u32>(),
        special in 0usize..SPECIALS_F64.len(),
    ) {
        // Smooth data with one special at a seeded position: every length
        // in range, so every kernel's remainder loop sees every size.
        let mut f64s: Vec<f64> = (0..len)
            .map(|i| ((i as f64 + seed as f64) * 0.37).sin() * 1e3)
            .collect();
        if len > 0 {
            f64s[seed as usize % len] = SPECIALS_F64[special];
        }
        let f32s: Vec<f32> = f64s.iter().map(|&v| v as f32).collect();
        check(&f64s)?;
        check(&f32s)?;
    }
}
