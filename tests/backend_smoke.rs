//! Fast smoke test: one compress→decompress roundtrip per backend at
//! `ErrorBound::Rel(1e-3)`, asserting the pointwise bound holds. This is
//! the first test to look at when a change breaks "everything" — it
//! names the backend that went wrong without any property-test noise.

use qoz_suite::codec::{decompress, Compressor, ErrorBound, Scratch};
use qoz_suite::tensor::{NdArray, Shape};

fn field() -> NdArray<f32> {
    // Smooth + mild high-frequency content, exercising both the
    // interpolation sweet spot and the quantizer's outlier path.
    NdArray::from_fn(Shape::d3(24, 24, 24), |i| {
        let (x, y, z) = (i[0] as f32, i[1] as f32, i[2] as f32);
        (x * 0.21).sin() * (y * 0.17).cos() + (z * 0.13).sin() + (x * y * 0.011).sin() * 0.2
    })
}

fn smoke<C: Compressor<f32>>(name: &str, c: C) {
    let data = field();
    let bound = ErrorBound::Rel(1e-3);
    let abs = bound.absolute(&data);

    let blob = c.compress(&data, bound, &mut Scratch::new());
    assert!(!blob.is_empty(), "{name}: empty blob");
    let recon: NdArray<f32> =
        decompress(&c, &blob).unwrap_or_else(|e| panic!("{name}: decompress failed: {e:?}"));

    assert_eq!(recon.shape(), data.shape(), "{name}: shape mismatch");
    let err = data.max_abs_diff(&recon);
    assert!(
        err <= abs * (1.0 + 1e-9),
        "{name}: bound violated: max |err| = {err:e} > {abs:e}"
    );
    // An error-bounded compressor that expands smooth data is broken
    // even if the bound technically holds.
    let raw = data.len() * core::mem::size_of::<f32>();
    assert!(
        blob.len() < raw,
        "{name}: no compression ({} -> {} bytes)",
        raw,
        blob.len()
    );
}

#[test]
fn qoz_smoke() {
    smoke("qoz", qoz_suite::qoz::Qoz::default());
}

#[test]
fn sz3_smoke() {
    smoke("sz3", qoz_suite::sz3::Sz3::default());
}

#[test]
fn sz2_smoke() {
    smoke("sz2", qoz_suite::sz2::Sz2::default());
}

#[test]
fn zfp_smoke() {
    smoke("zfp", qoz_suite::zfp::Zfp);
}

#[test]
fn mgard_smoke() {
    smoke("mgard", qoz_suite::mgard::Mgard);
}
