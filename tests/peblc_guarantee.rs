//! Cross-crate integration tests: the pointwise error-bound guarantee
//! (Definition 4) must hold for every compressor on every dataset at every
//! error bound, including property-based random series.

use evalimplsts::compression::{
    all_lossy, find_bound_violation, Gorilla, PeblcCompressor, ERROR_BOUNDS,
};
use evalimplsts::tsdata::datasets::{generate_univariate, GenOptions, ALL_DATASETS};
use evalimplsts::tsdata::series::RegularTimeSeries;
use proptest::prelude::*;

#[test]
fn every_method_respects_bounds_on_every_dataset() {
    for dataset in ALL_DATASETS {
        let series = generate_univariate(dataset, GenOptions::with_len(2_500));
        for compressor in all_lossy() {
            for &eps in &[ERROR_BOUNDS[0], 0.1, ERROR_BOUNDS[12]] {
                let (decompressed, frame) =
                    compressor.transform(&series, eps).unwrap_or_else(|e| {
                        panic!("{} on {} @ {eps}: {e}", compressor.name(), dataset.name())
                    });
                assert_eq!(decompressed.len(), series.len());
                assert_eq!(decompressed.start(), series.start());
                assert_eq!(decompressed.interval(), series.interval());
                assert!(
                    find_bound_violation(series.values(), decompressed.values(), eps, 1e-9)
                        .is_none(),
                    "{} violates eps {eps} on {}",
                    compressor.name(),
                    dataset.name()
                );
                assert!(frame.num_segments >= 1);
            }
        }
    }
}

/// Finite values interleaved with NaN, ±inf, signed zeros and a subnormal
/// (the input of `tests/streaming_codecs.rs`'s hostile digests).
fn hostile() -> RegularTimeSeries {
    let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, 1e-310];
    let values =
        (0..600).map(|i| if i % 37 == 5 { specials[i / 37 % 6] } else { 10.0 + (i % 9) as f64 });
    RegularTimeSeries::new(0, 60, values.collect()).expect("non-empty")
}

#[test]
fn every_codec_keeps_non_finite_points_and_bounds_on_a_hostile_series() {
    let series = hostile();
    let mut codecs = all_lossy();
    codecs.push(Box::new(Gorilla));
    for codec in &codecs {
        for eps in [0.0, 0.01, 0.1, 0.8] {
            let (decompressed, _) = codec
                .transform(&series, eps)
                .unwrap_or_else(|e| panic!("{} @ {eps}: {e}", codec.name()));
            assert_eq!(
                find_bound_violation(series.values(), decompressed.values(), eps, 1e-9),
                None,
                "{} @ {eps}",
                codec.name()
            );
        }
    }
}

#[test]
fn gorilla_is_lossless_on_every_dataset() {
    for dataset in ALL_DATASETS {
        let series = generate_univariate(dataset, GenOptions::with_len(2_000));
        let frame = Gorilla.compress(&series, 0.0).expect("gorilla is total");
        let decompressed = Gorilla.decompress(&frame).expect("valid frame");
        let got: Vec<u64> = decompressed.values().iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = series.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "gorilla not bit-exact on {}", dataset.name());
    }
}

#[test]
fn compression_is_deterministic() {
    let series = generate_univariate(ALL_DATASETS[0], GenOptions::with_len(1_000));
    for compressor in all_lossy() {
        let a = compressor.compress(&series, 0.1).expect("compresses");
        let b = compressor.compress(&series, 0.1).expect("compresses");
        assert_eq!(a.bytes, b.bytes, "{} nondeterministic", compressor.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random series of mixed signs, zeros and magnitudes: every method
    /// must round-trip within the bound.
    #[test]
    fn prop_bound_holds_on_random_series(
        values in prop::collection::vec(
            prop_oneof![
                3 => -1000.0..1000.0f64,
                1 => Just(0.0f64),
                1 => -0.001..0.001f64,
            ],
            2..300,
        ),
        eps_idx in 0..13usize,
    ) {
        let eps = ERROR_BOUNDS[eps_idx];
        let series = RegularTimeSeries::new(0, 60, values.clone()).expect("non-empty");
        for compressor in all_lossy() {
            let (decompressed, _) = compressor
                .transform(&series, eps)
                .expect("random series compresses");
            prop_assert!(
                find_bound_violation(&values, decompressed.values(), eps, 1e-9).is_none(),
                "{} violates eps {eps}",
                compressor.name()
            );
        }
    }

    /// Gorilla round-trips arbitrary finite doubles bit-exactly.
    #[test]
    fn prop_gorilla_lossless(
        values in prop::collection::vec(-1e15..1e15f64, 1..200),
    ) {
        let series = RegularTimeSeries::new(0, 1, values.clone()).expect("non-empty");
        let frame = Gorilla.compress(&series, 0.0).expect("total");
        let decompressed = Gorilla.decompress(&frame).expect("valid");
        let got: Vec<u64> = decompressed.values().iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got, want);
    }
}
