//! Differential suite for the chunk-parallel `CUSZPCH1` restore:
//! `Cuszp::decompress_chunked` and `Cuszp::decompress_container_bytes`
//! fan whole chunks out over the host's cores into one uninitialised
//! output, and must reproduce a sequential per-chunk
//! `fast::decompress_into` loop bit for bit — for f32 and f64, 0 to 8
//! chunks of ragged lengths (including chunks shorter than one block),
//! at every tier the host can run, pinned through `CuszpConfig::simd`.
//!
//! Each decode runs on a dirty heap: a NaN-filled buffer of the output's
//! size is allocated and dropped first, so an element the restore failed
//! to write shows up as a stale NaN instead of a lucky zero.

use cuszp_core::{
    fast, simd, ChunkedCompressed, Cuszp, CuszpConfig, ErrorBound, FloatData, Scratch, SimdLevel,
};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Default dispatch plus every tier `resolve_level` lets a config pin.
fn tiers() -> impl Iterator<Item = Option<SimdLevel>> {
    std::iter::once(None).chain(
        SimdLevel::ALL
            .into_iter()
            .filter(|&l| simd::resolve_level(Some(l)) == l)
            .map(Some),
    )
}

fn wave<T: FloatData>(n: usize, phase: usize) -> Vec<T> {
    (0..n)
        .map(|i| {
            let x = (i + phase) as f64;
            T::from_f64((x * 0.037).sin() * 23.0 + (x * 0.0041).cos() * 5.0 + 0.5)
        })
        .collect()
}

/// One chunk per length, each compressed alone at the same bound.
fn container<T: FloatData>(lens: &[usize], eb: f64) -> ChunkedCompressed {
    let codec = Cuszp::new();
    ChunkedCompressed {
        chunks: lens
            .iter()
            .enumerate()
            .map(|(k, &n)| codec.compress(&wave::<T>(n, 977 * k), ErrorBound::Abs(eb)))
            .collect(),
    }
}

/// The oracle: one arena, one thread, chunk after chunk.
fn sequential<T: FloatData>(c: &ChunkedCompressed) -> Vec<T> {
    let mut scratch = Scratch::new();
    let mut out = Vec::new();
    for chunk in &c.chunks {
        let mut part = vec![T::default(); chunk.num_elements as usize];
        fast::decompress_into(chunk.as_ref(), &mut scratch, &mut part);
        out.extend(part);
    }
    out
}

/// Leave a freed NaN-filled block of the output's size on the heap for
/// the next allocation to pick up.
fn dirty_heap<T: FloatData>(n: usize) {
    std::hint::black_box(vec![T::from_f64(f64::NAN); n]);
}

fn bits<T: FloatData>(v: &[T]) -> Vec<u64> {
    v.iter().map(|x| x.to_f64().to_bits()).collect()
}

fn check<T: FloatData>(lens: &[usize], eb: f64) -> Result<(), TestCaseError> {
    let c = container::<T>(lens, eb);
    let bytes = c.to_bytes();
    let want = bits(&sequential::<T>(&c));
    let n: usize = lens.iter().sum();
    prop_assert_eq!(want.len(), n);
    for simd in tiers() {
        let codec = Cuszp::with_config(CuszpConfig {
            simd,
            ..Default::default()
        });
        dirty_heap::<T>(n);
        let owned: Vec<T> = codec.decompress_chunked(&c);
        prop_assert_eq!(&bits(&owned), &want, "decompress_chunked at {:?}", simd);
        dirty_heap::<T>(n);
        let borrowed: Vec<T> = codec.decompress_container_bytes(&bytes).unwrap();
        prop_assert_eq!(
            &bits(&borrowed),
            &want,
            "decompress_container_bytes at {:?}",
            simd
        );
    }
    Ok(())
}

/// Chunk lengths: mostly ragged (not a multiple of the 32-element
/// block), a third shorter than one block.
fn chunk_lens() -> impl Strategy<Value = Vec<usize>> {
    let count = prop_oneof![Just(0usize), Just(1), Just(2), Just(3), Just(5), Just(8)];
    let lens = proptest::collection::vec(prop_oneof![1usize..32, 32usize..200, 200usize..3000], 8);
    (count, lens).prop_map(|(k, mut lens)| {
        lens.truncate(k);
        lens
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn f32_restore_matches_sequential_chunk_loop(lens in chunk_lens(), eb in 1e-4f64..1e-1) {
        check::<f32>(&lens, eb)?;
    }

    #[test]
    fn f64_restore_matches_sequential_chunk_loop(lens in chunk_lens(), eb in 1e-6f64..1e-1) {
        check::<f64>(&lens, eb)?;
    }
}

#[test]
fn every_chunk_count_and_shape_restores() {
    // The fixed cases the proptest may not draw: each listed chunk count,
    // an empty container, one huge chunk beside tiny ones (the group
    // split balances elements, not chunk counts), and all-short chunks.
    let cases: [&[usize]; 8] = [
        &[],
        &[4096],
        &[31, 33],
        &[1, 1, 1],
        &[20_000, 7, 7, 7, 7],
        &[7, 7, 7, 7, 20_000],
        &[100, 200, 300, 400, 500, 600, 700, 800],
        &[5, 9, 13, 17, 21, 25, 29, 31],
    ];
    for lens in cases {
        check::<f32>(lens, 1e-3).unwrap();
        check::<f64>(lens, 1e-5).unwrap();
    }
}

#[test]
fn container_from_compress_chunked_restores() {
    let data = wave::<f32>(10_007, 3);
    let codec = Cuszp::new();
    let c = codec.compress_chunked(&data, ErrorBound::Rel(1e-3), 1000);
    assert_eq!(c.num_chunks(), 11);
    let want = bits(&sequential::<f32>(&c));
    assert_eq!(bits(&codec.decompress_chunked::<f32>(&c)), want);
    assert_eq!(
        bits(
            &codec
                .decompress_container_bytes::<f32>(&c.to_bytes())
                .unwrap()
        ),
        want
    );
}

#[test]
fn wrong_dtype_panics_and_never_returns_partial_data() {
    let codec = Cuszp::new();
    let f32s = container::<f32>(&[700, 900, 1100], 1e-3);
    let bytes = f32s.to_bytes();
    let owned = catch_unwind(AssertUnwindSafe(|| codec.decompress_chunked::<f64>(&f32s)));
    assert!(owned.is_err(), "f32 container decoded as f64 returned data");
    let borrowed = catch_unwind(AssertUnwindSafe(|| {
        codec.decompress_container_bytes::<f64>(&bytes)
    }));
    assert!(
        borrowed.is_err(),
        "f32 container decoded as f64 returned data"
    );

    // Only the last chunk is wrong: on a multi-core host its panic comes
    // from a spawned worker, and must still propagate.
    let mut mixed = container::<f64>(&[700, 900], 1e-5);
    mixed.chunks.extend(container::<f32>(&[1100], 1e-3).chunks);
    let bytes = mixed.to_bytes();
    let owned = catch_unwind(AssertUnwindSafe(|| codec.decompress_chunked::<f64>(&mixed)));
    assert!(owned.is_err(), "mixed-dtype container returned data");
    let borrowed = catch_unwind(AssertUnwindSafe(|| {
        codec.decompress_container_bytes::<f64>(&bytes)
    }));
    assert!(borrowed.is_err(), "mixed-dtype container returned data");
}
