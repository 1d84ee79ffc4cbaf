//! Differential suite for the arena entry points: `compress_into` must
//! be **byte-identical** to `compress_with` at every thread count, and
//! the full decoder (`decompress_into_threaded_at`, at every thread count
//! and every runnable tier) must reproduce the partial decoder
//! (`decompress_blocks_into`) run over every block — across element
//! types, awkward tail lengths and, the part unique to this suite,
//! *dirty* arenas and output buffers reused across wildly different
//! calls.

use cuszp_core::{fast, simd, CompressedRef, Cuszp, CuszpConfig, FloatData, Scratch, SimdLevel};
use proptest::prelude::*;

/// Sequential, threaded few/many, auto-detected.
const THREADS: [usize; 4] = [1, 2, 5, 0];

/// The tiers this host can actually run (forcing above the detected
/// tier clamps down, which would silently test the same kernels twice).
fn tiers() -> impl Iterator<Item = Option<SimdLevel>> {
    std::iter::once(None).chain(
        SimdLevel::ALL
            .into_iter()
            .filter(|&l| l <= simd::detect_level())
            .map(Some),
    )
}

/// Decode every block of `c` through the partial decoder.
fn decode_all_blocks<T: FloatData>(c: CompressedRef<'_>, scratch: &mut Scratch) -> Vec<T> {
    let mut out = vec![T::default(); c.num_elements as usize];
    let read = fast::decompress_blocks_into(c, 0..c.num_blocks(), scratch, &mut out);
    assert_eq!(read, c.payload.len(), "a full-range read spans the payload");
    out
}

/// One arena + one output buffer per differential check, deliberately
/// carried across every thread count and tier so each iteration sees the
/// previous one's leftovers.
fn assert_into_matches_owned<T: FloatData>(
    data: &[T],
    eb: f64,
    cfg: CuszpConfig,
) -> Result<(), TestCaseError> {
    let owned = fast::compress(data, eb, cfg);
    let owned_bytes = owned.to_bytes();
    let mut scratch = Scratch::new();
    let blocks_back: Vec<T> = decode_all_blocks(owned.as_ref(), &mut scratch);
    let owned_back: Vec<T> = Cuszp::with_config(cfg).decompress(&owned);
    prop_assert_eq!(&owned_back, &blocks_back, "owned decode differs");

    let mut stream = Vec::new();
    let mut restored = vec![T::default(); data.len()];
    for threads in THREADS {
        // compress_with (arena-backed owned output) at `threads` workers
        // serializes to exactly the sequential compress_into stream.
        let with = fast::compress_with(&mut scratch, data, eb, cfg, threads);
        let r = fast::compress_into(&mut scratch, data, eb, cfg, &mut stream).to_owned();
        prop_assert_eq!(
            &stream,
            &with.to_bytes(),
            "compress_into differs from compress_with (threads={})",
            threads
        );
        prop_assert_eq!(
            &stream,
            &owned_bytes,
            "serialized stream differs (threads={})",
            threads
        );
        prop_assert_eq!(&r, &owned, "parsed view differs (threads={})", threads);

        // Decode from the ref we just produced (borrowing `stream`) at
        // every tier: each must reproduce the all-blocks partial decode.
        for level in tiers() {
            restored.fill(T::from_f64(f64::NAN));
            fast::decompress_into_threaded_at(
                CompressedRef::parse(&stream).expect("own output parses"),
                threads,
                &mut scratch,
                level,
                &mut restored,
            );
            prop_assert_eq!(
                &restored,
                &blocks_back,
                "reconstruction differs (threads={}, tier={:?})",
                threads,
                level
            );
        }
    }
    Ok(())
}

/// Lengths on, just before, and just after block boundaries.
fn awkward_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..700,
        Just(31usize),
        Just(32),
        Just(33),
        Just(127),
        Just(128),
        Just(129),
        Just(1024),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn f32_into_is_byte_identical(
        len in awkward_len(),
        seed in any::<u64>(),
        eb in 1e-5f64..1.0,
        block_len in prop_oneof![Just(8usize), Just(16), Just(32), Just(64), Just(128)],
        lorenzo in any::<bool>(),
    ) {
        let mut s = seed | 1;
        let data: Vec<f32> = (0..len).map(|_| {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            ((s % 20_000) as f32 - 10_000.0) * 0.37
        }).collect();
        assert_into_matches_owned(&data, eb, CuszpConfig { block_len, lorenzo, ..CuszpConfig::default() })?;
    }

    #[test]
    fn f64_into_is_byte_identical(
        len in awkward_len(),
        seed in any::<u64>(),
        eb in 1e-6f64..0.5,
        lorenzo in any::<bool>(),
    ) {
        let mut s = seed | 1;
        let data: Vec<f64> = (0..len).map(|_| {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            ((s % 2_000_000) as f64 - 1_000_000.0) * 1.3e-2
        }).collect();
        assert_into_matches_owned(&data, eb, CuszpConfig { lorenzo, ..CuszpConfig::default() })?;
    }

    #[test]
    fn dirty_arena_across_shapes_and_dtypes(
        lens in proptest::collection::vec(awkward_len(), 2..6),
        seed in any::<u64>(),
        eb in 1e-4f64..0.5,
    ) {
        // ONE arena + ONE output buffer across a random sequence of
        // shapes, alternating dtype: no call may see the last call's
        // state. (assert_into_matches_owned builds fresh ones, so here
        // the sequence itself shares them.)
        let mut scratch = Scratch::new();
        let mut stream = Vec::new();
        let mut s = seed | 1;
        for (i, &len) in lens.iter().enumerate() {
            let mut next = || { s ^= s << 13; s ^= s >> 7; s ^= s << 17; s };
            if i % 2 == 0 {
                let data: Vec<f32> = (0..len)
                    .map(|_| ((next() % 60_000) as f32 - 30_000.0) * 0.11)
                    .collect();
                let owned = fast::compress(&data, eb, CuszpConfig::default());
                fast::compress_into(&mut scratch, &data, eb, CuszpConfig::default(), &mut stream);
                prop_assert_eq!(&stream, &owned.to_bytes(), "f32 call {} differs", i);
                let mut back = vec![0f32; len];
                fast::decompress_into(owned.as_ref(), &mut scratch, &mut back);
                prop_assert_eq!(back, decode_all_blocks::<f32>(owned.as_ref(), &mut Scratch::new()), "f32 decode {} differs", i);
            } else {
                let data: Vec<f64> = (0..len)
                    .map(|_| ((next() % 999_999) as f64 - 500_000.0) * 2.3e-3)
                    .collect();
                let owned = fast::compress(&data, eb, CuszpConfig::default());
                fast::compress_into(&mut scratch, &data, eb, CuszpConfig::default(), &mut stream);
                prop_assert_eq!(&stream, &owned.to_bytes(), "f64 call {} differs", i);
                let mut back = vec![0f64; len];
                fast::decompress_into(owned.as_ref(), &mut scratch, &mut back);
                prop_assert_eq!(back, decode_all_blocks::<f64>(owned.as_ref(), &mut Scratch::new()), "f64 decode {} differs", i);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dirty_arena_alternates_partial_and_full_decodes(
        lens in proptest::collection::vec(awkward_len(), 2..5),
        cuts in proptest::collection::vec((any::<u16>(), any::<u16>()), 4..10),
        seed in any::<u64>(),
        eb in 1e-4f64..0.5,
    ) {
        // Both decoders share one offset scan over one arena: a partial
        // decode leaves the slots below its range stale, and a full
        // decode leaves a whole table behind. Alternate the two over
        // streams of different shapes through ONE arena; every result
        // must match the matching slice of a fresh-arena full decode.
        let mut s = seed | 1;
        let streams: Vec<_> = lens
            .iter()
            .map(|&len| {
                let data: Vec<f32> = (0..len)
                    .map(|_| {
                        s ^= s << 13; s ^= s >> 7; s ^= s << 17;
                        ((s % 40_000) as f32 - 20_000.0) * 0.07
                    })
                    .collect();
                let c = fast::compress(&data, eb, CuszpConfig::default());
                let mut full = vec![0f32; len];
                fast::decompress_into(c.as_ref(), &mut Scratch::new(), &mut full);
                (c, full)
            })
            .collect();
        let mut scratch = Scratch::new();
        let mut out = Vec::new();
        for (i, &(x, y)) in cuts.iter().enumerate() {
            let (c, full) = &streams[i % streams.len()];
            let r = c.as_ref();
            let (l, n, nb) = (c.block_len as usize, full.len(), c.num_blocks());
            if i % 2 == 0 {
                let (b0, b1) = {
                    let (a, b) = (x as usize % (nb + 1), y as usize % (nb + 1));
                    (a.min(b), a.max(b))
                };
                let lo = (b0 * l).min(n);
                let hi = (b1 * l).min(n);
                out.clear();
                out.resize(hi - lo, f32::NAN);
                let read = fast::decompress_blocks_into(r, b0..b1, &mut scratch, &mut out);
                prop_assert_eq!(&out[..], &full[lo..hi], "partial {}..{} (call {})", b0, b1, i);
                prop_assert_eq!(read, r.payload_span(b0..b1).unwrap().len());
            } else {
                out.clear();
                out.resize(n, f32::NAN);
                let threads = THREADS[(x as usize) % THREADS.len()];
                fast::decompress_into_threaded_at(r, threads, &mut scratch, None, &mut out);
                prop_assert_eq!(&out, full, "full decode (call {}, threads={})", i, threads);
            }
        }
    }
}

#[test]
fn constant_and_zero_data_into_identical() {
    for v in [0.0f32, 1.25, -7.5] {
        let data = vec![v; 300];
        assert_into_matches_owned(&data, 0.01, CuszpConfig::default()).unwrap();
    }
}

#[test]
fn empty_input_into_identical() {
    assert_into_matches_owned::<f32>(&[], 0.1, CuszpConfig::default()).unwrap();
}

#[test]
fn wide_residuals_into_identical() {
    for amp in [3.0e4f32, 2.0e5, 3.0e6, 5.0e7] {
        let data: Vec<f32> = (0..512).map(|i| (i as f32 * 0.41).sin() * amp).collect();
        assert_into_matches_owned(&data, 1e-4, CuszpConfig::default()).unwrap();
    }
}
