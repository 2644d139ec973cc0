//! Cross-cutting behavioural guarantees not covered elsewhere:
//! determinism, degenerate inputs, and compression-quality orderings the
//! paper's narrative relies on.

use qoz_suite::codec::{decompress, Compressor, ErrorBound, Scratch};
use qoz_suite::datagen::{Dataset, SizeClass};
use qoz_suite::tensor::{NdArray, Shape};

fn compressors() -> Vec<(&'static str, Box<dyn Compressor<f32>>)> {
    vec![
        ("SZ2.1", Box::new(qoz_suite::sz2::Sz2::default())),
        ("SZ3", Box::new(qoz_suite::sz3::Sz3::default())),
        ("ZFP", Box::new(qoz_suite::zfp::Zfp)),
        ("MGARD+", Box::new(qoz_suite::mgard::Mgard)),
        ("QoZ", Box::new(qoz_suite::qoz::Qoz::default())),
    ]
}

#[test]
fn compression_is_deterministic() {
    let data = Dataset::Nyx.generate(SizeClass::Tiny, 2);
    for (name, c) in compressors() {
        let a = c.compress(&data, ErrorBound::Rel(1e-3), &mut Scratch::new());
        let b = c.compress(&data, ErrorBound::Rel(1e-3), &mut Scratch::new());
        assert_eq!(a, b, "{name} is not deterministic");
    }
}

#[test]
fn decompression_is_idempotent() {
    let data = Dataset::CesmAtm.generate(SizeClass::Tiny, 0);
    for (name, c) in compressors() {
        let blob = c.compress(&data, ErrorBound::Rel(1e-3), &mut Scratch::new());
        let r1 = decompress(&*c, &blob).unwrap();
        let r2 = decompress(&*c, &blob).unwrap();
        assert_eq!(r1.as_slice(), r2.as_slice(), "{name}");
    }
}

#[test]
fn constant_arrays_compress_to_tiny_streams() {
    let data = NdArray::from_vec(Shape::d3(24, 24, 24), vec![7.25f32; 24 * 24 * 24]);
    let raw = data.len() * 4;
    for (name, c) in compressors() {
        let blob = c.compress(&data, ErrorBound::Abs(1e-4), &mut Scratch::new());
        let recon = decompress(&*c, &blob).unwrap();
        // Constant data is exactly predictable everywhere.
        assert!(
            data.max_abs_diff(&recon) <= 1e-4,
            "{name} bound on constant data"
        );
        // ZFP codes each block independently (exponent + DC header per
        // block), so its floor is higher than the prediction codecs'.
        let ceiling = if name == "ZFP" { raw / 10 } else { raw / 20 };
        assert!(
            blob.len() < ceiling,
            "{name}: constant data gave only {} bytes from {raw}",
            blob.len()
        );
    }
}

#[test]
fn monotone_rate_in_bound() {
    // Loosening the bound must never enlarge the stream (beyond tiny
    // header jitter) for any compressor.
    let data = Dataset::Miranda.generate(SizeClass::Tiny, 0);
    for (name, c) in compressors() {
        let sizes: Vec<usize> = [1e-4, 1e-3, 1e-2]
            .iter()
            .map(|&e| {
                c.compress(&data, ErrorBound::Rel(e), &mut Scratch::new())
                    .len()
            })
            .collect();
        assert!(
            sizes[0] >= sizes[1] && sizes[1] >= sizes[2],
            "{name}: sizes not monotone: {sizes:?}"
        );
    }
}

#[test]
fn prediction_based_codecs_beat_transform_codec_on_smooth_data() {
    // The paper's core Table III ordering at matched bound.
    let data = Dataset::Miranda.generate(SizeClass::Tiny, 0);
    let bound = ErrorBound::Rel(1e-3);
    let zfp = qoz_suite::zfp::Zfp
        .compress(&data, bound, &mut Scratch::new())
        .len();
    for (name, c) in compressors() {
        if name == "ZFP" {
            continue;
        }
        let sz = c.compress(&data, bound, &mut Scratch::new()).len();
        assert!(
            sz < zfp,
            "{name} ({sz}) should beat ZFP ({zfp}) on smooth data"
        );
    }
}

#[test]
fn f64_streams_are_larger_than_f32_at_same_bound() {
    // Same field, widened: unpredictable values and anchors cost 8 bytes.
    let f32_data = Dataset::Hurricane.generate(SizeClass::Tiny, 0);
    let f64_data = NdArray::from_vec(
        f32_data.shape(),
        f32_data.as_slice().iter().map(|&v| v as f64).collect(),
    );
    let abs = 1e-3 * f32_data.value_range();
    let qoz = qoz_suite::qoz::Qoz::default();
    let b32 = qoz
        .compress(&f32_data, ErrorBound::Abs(abs), &mut Scratch::new())
        .len();
    let b64 = qoz
        .compress(&f64_data, ErrorBound::Abs(abs), &mut Scratch::new())
        .len();
    // Quantized payload is similar; only side streams grow, so allow a
    // modest factor while asserting direction.
    assert!(b64 >= b32, "f64 {b64} vs f32 {b32}");
    assert!((b64 as f64) < b32 as f64 * 3.0, "f64 blow-up too large");
}

#[test]
fn mixed_magnitude_fields_respect_bound() {
    // Fields spanning many decades (like NYX) stress block-exponent and
    // quantizer paths.
    let data = NdArray::from_fn(Shape::d2(48, 48), |i| {
        let t = (i[0] * 48 + i[1]) as f32 / 2304.0;
        (t * 30.0).exp() - 1.0 // 0 .. ~1e13
    });
    for eps in [1e-2, 1e-5] {
        let bound = ErrorBound::Rel(eps);
        let abs = bound.absolute(&data);
        for (name, c) in compressors() {
            let blob = c.compress(&data, bound, &mut Scratch::new());
            let recon = decompress(&*c, &blob).unwrap();
            assert!(
                data.max_abs_diff(&recon) <= abs * (1.0 + 1e-9),
                "{name} eps {eps}"
            );
        }
    }
}

#[test]
fn single_row_and_column_shapes() {
    // Degenerate 2D/3D shapes exercise the dimension-skip logic in the
    // traversal and the block tilers.
    for dims in [
        vec![1usize, 64],
        vec![64, 1],
        vec![1, 1, 64],
        vec![64, 1, 1],
    ] {
        let shape = Shape::new(&dims);
        let data = NdArray::from_fn(shape, |i| (i.iter().sum::<usize>() as f32 * 0.21).sin());
        for (name, c) in compressors() {
            let blob = c.compress(&data, ErrorBound::Abs(1e-3), &mut Scratch::new());
            let recon = decompress(&*c, &blob).unwrap();
            assert!(
                data.max_abs_diff(&recon) <= 1e-3,
                "{name} failed on {dims:?}"
            );
        }
    }
}
