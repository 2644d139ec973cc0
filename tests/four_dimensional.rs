//! End-to-end 4D (time-varying volume) coverage: every compressor must
//! handle `[t, x, y, z]` arrays — the form in which multi-snapshot
//! archives like Hurricane-Isabel actually ship.

use qoz_suite::codec::{decompress, Compressor, ErrorBound, Scratch};
use qoz_suite::datagen::time_series_like;
use qoz_suite::metrics::verify_error_bound;
use qoz_suite::tensor::{NdArray, Shape};

fn data() -> NdArray<f32> {
    time_series_like(Shape::new(&[5, 12, 12, 12]), 42)
}

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
fn all_compressors_roundtrip_4d_within_bound() {
    let data = data();
    for eps in [1e-2, 1e-4] {
        let bound = ErrorBound::Rel(eps);
        let abs = bound.absolute(&data);
        for (name, c) in compressors() {
            let blob = c.compress(&data, bound, &mut Scratch::new());
            let recon = decompress(&*c, &blob).unwrap();
            assert_eq!(recon.shape(), data.shape(), "{name}");
            assert_eq!(
                verify_error_bound(&data, &recon, abs),
                None,
                "{name} violated eps={eps} in 4D"
            );
        }
    }
}

#[test]
fn temporal_correlation_helps_interpolation_compressors() {
    // The same volume flattened to independent 3D steps compressed one
    // by one must not beat the joint 4D compression by much: the 4D
    // traversal can exploit temporal smoothness.
    let data = data();
    let bound = ErrorBound::Abs(1e-3 * data.value_range());
    let qoz = qoz_suite::qoz::Qoz::default();
    let joint = qoz.compress(&data, bound, &mut Scratch::new()).len();

    let step = 12 * 12 * 12;
    let mut per_step_total = 0usize;
    for t in 0..5 {
        let slice = NdArray::from_vec(
            Shape::d3(12, 12, 12),
            data.as_slice()[t * step..(t + 1) * step].to_vec(),
        );
        per_step_total += qoz.compress(&slice, bound, &mut Scratch::new()).len();
    }
    assert!(
        (joint as f64) < per_step_total as f64 * 1.2,
        "4D joint {joint} vs per-step {per_step_total}"
    );
}

#[test]
fn four_d_streams_decode_to_identical_recon() {
    let data = data();
    let qoz = qoz_suite::qoz::Qoz::default();
    let b1 = qoz.compress(&data, ErrorBound::Rel(1e-3), &mut Scratch::new());
    let b2 = qoz.compress(&data, ErrorBound::Rel(1e-3), &mut Scratch::new());
    assert_eq!(b1, b2, "compression must be deterministic");
    let r1: NdArray<f32> = decompress(&qoz, &b1).unwrap();
    let r2: NdArray<f32> = decompress(&qoz, &b2).unwrap();
    assert_eq!(r1.as_slice(), r2.as_slice());
}
