//! Property-based tests: for *arbitrary* finite inputs, shapes and
//! bounds, every compressor must round-trip within the bound; the
//! lossless substrate must be exact.

use proptest::prelude::*;
use qoz_suite::codec::{
    decode_bins_with, decompress, encode_bins_with, lossless_compress_with,
    lossless_decompress_with, Compressor, EntropyScratch, ErrorBound, Scratch,
};
use qoz_suite::tensor::{NdArray, Shape};

/// Strategy: a small array of 1-3 dimensions with finite values drawn
/// from a wide magnitude range (including negatives and exact zeros).
fn small_array() -> impl Strategy<Value = NdArray<f32>> {
    let dims = prop_oneof![
        (1usize..40).prop_map(|a| vec![a]),
        ((1usize..14), (1usize..14)).prop_map(|(a, b)| vec![a, b]),
        ((1usize..7), (1usize..7), (1usize..7)).prop_map(|(a, b, c)| vec![a, b, c]),
    ];
    dims.prop_flat_map(|d| {
        let n: usize = d.iter().product();
        (
            Just(d),
            proptest::collection::vec(
                prop_oneof![
                    5 => -1e6f32..1e6f32,
                    2 => -1.0f32..1.0f32,
                    1 => Just(0.0f32),
                ],
                n,
            ),
        )
    })
    .prop_map(|(d, v)| NdArray::from_vec(Shape::new(&d), v))
}

fn bound_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![Just(1e-1), Just(1e-3), Just(1e-6),]
}

macro_rules! roundtrip_property {
    ($name:ident, $compressor:expr) => {
        proptest! {
            // Bounded and reproducible: fixed case count, pinned RNG
            // seed. Tier-1 runs the same 48 inputs on every machine.
            #![proptest_config(ProptestConfig::with_cases(48).with_rng_seed(0x51_C0DE))]
            #[test]
            fn $name(data in small_array(), eps in bound_strategy()) {
                let c = $compressor;
                let bound = ErrorBound::Rel(eps);
                let abs = bound.absolute(&data);
                let blob = c.compress(&data, bound, &mut Scratch::new());
                let recon: NdArray<f32> = decompress(&c, &blob).unwrap();
                prop_assert_eq!(recon.shape(), data.shape());
                prop_assert!(
                    data.max_abs_diff(&recon) <= abs * (1.0 + 1e-9),
                    "bound {} violated: max err {}",
                    abs,
                    data.max_abs_diff(&recon)
                );
            }
        }
    };
}

roundtrip_property!(sz2_roundtrip_bound, qoz_suite::sz2::Sz2::default());
roundtrip_property!(sz3_roundtrip_bound, qoz_suite::sz3::Sz3::default());
roundtrip_property!(zfp_roundtrip_bound, qoz_suite::zfp::Zfp);
roundtrip_property!(mgard_roundtrip_bound, qoz_suite::mgard::Mgard);
roundtrip_property!(qoz_roundtrip_bound, qoz_suite::qoz::Qoz::default());

proptest! {
    // Same discipline as above: explicit bounded case count, pinned
    // deterministic seed.
    #![proptest_config(ProptestConfig::with_cases(64).with_rng_seed(0x51_C0DE))]
    #[test]
    fn lossless_backend_is_exact(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let mut scratch = EntropyScratch::new();
        let (mut packed, mut back) = (Vec::new(), Vec::new());
        lossless_compress_with(&data, &mut scratch, &mut packed);
        lossless_decompress_with(&packed, &mut scratch, &mut back).unwrap();
        prop_assert_eq!(back, data);
    }

    #[test]
    fn bins_backend_is_exact(bins in proptest::collection::vec(0u32..70_000, 0..4096)) {
        let mut scratch = EntropyScratch::new();
        let (mut blob, mut back) = (Vec::new(), Vec::new());
        encode_bins_with(&bins, &mut scratch, &mut blob);
        decode_bins_with(&blob, &mut scratch, &mut back).unwrap();
        prop_assert_eq!(back, bins);
    }

    #[test]
    fn quantizer_respects_bound(
        value in -1e12f64..1e12f64,
        pred in -1e12f64..1e12f64,
        eb in prop_oneof![Just(1e-9f64), Just(1e-3), Just(1.0), Just(1e6)],
    ) {
        let q = qoz_suite::codec::LinearQuantizer::new(eb);
        let out = q.quantize(value, pred);
        prop_assert!((out.reconstructed - value).abs() <= eb * (1.0 + 1e-12));
        if out.code != 0 {
            let r: f64 = q.reconstruct(out.code, pred);
            prop_assert_eq!(r, out.reconstructed);
        }
    }

    #[test]
    fn zfp_transform_exactly_invertible(
        vals in proptest::collection::vec(-(1i64 << 40)..(1i64 << 40), 64)
    ) {
        let mut t = vals.clone();
        qoz_suite::zfp::transform::forward(&mut t, 3);
        qoz_suite::zfp::transform::inverse(&mut t, 3);
        prop_assert_eq!(t, vals);
    }

    #[test]
    fn anchor_grid_always_covered(
        a in 1usize..30, b in 1usize..30, stride_pow in 1u32..6
    ) {
        // Every point must be either an anchor or predicted exactly once.
        let shape = Shape::d2(a, b);
        let stride = 1usize << stride_pow;
        let mut seen = vec![0u32; shape.len()];
        qoz_suite::predict::for_each_base_point(shape, stride, |off| seen[off] += 1);
        let mut dummy = vec![0f32; shape.len()];
        for level in (1..=stride_pow).rev() {
            qoz_suite::predict::traverse_level(
                &mut dummy,
                shape,
                level,
                Default::default(),
                &mut |_, off, _| seen[off] += 1,
            );
        }
        prop_assert!(seen.iter().all(|&c| c == 1));
    }
}
