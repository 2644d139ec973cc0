//! End-to-end contract for temporal residual chains.
//!
//! The temporal coder's promise is pointwise and per-snapshot: because
//! each residual is formed against the *previous reconstruction* (never
//! the previous raw input) and quantized to the bound resolved against
//! its own snapshot, decoding a chain of any length reproduces every
//! snapshot within that snapshot's bound — errors do not accumulate.
//! These tests pin that promise across long chains, both scalar widths,
//! and chains where the estimator falls back to keyframes mid-stream.

use qoz_suite::api::{Session, TemporalMode};
use qoz_suite::codec::ErrorBound;
use qoz_suite::datagen;
use qoz_suite::tensor::{NdArray, Shape};

const SNAPSHOTS: usize = 10;
const EPS: f64 = 1e-3;

/// Consecutive same-shape 3D snapshots of one slowly evolving field.
fn series_f32(snapshots: usize, seed: u64) -> Vec<NdArray<f32>> {
    let base = Shape::d3(20, 24, 24);
    let shape4 = Shape::new(&[snapshots, 20, 24, 24]);
    let field = datagen::time_series_like(shape4, seed);
    let step = base.len();
    (0..snapshots)
        .map(|t| NdArray::from_vec(base, field.as_slice()[t * step..(t + 1) * step].to_vec()))
        .collect()
}

fn widen(s: &NdArray<f32>) -> NdArray<f64> {
    NdArray::from_vec(s.shape(), s.as_slice().iter().map(|&v| v as f64).collect())
}

/// Per-snapshot bound plus a couple of ULPs for the chain accumulate.
fn slack(abs: f64, ulp: f64) -> f64 {
    abs * (1.0 + 1e-9) + 4.0 * ulp
}

#[test]
fn long_chain_decodes_every_snapshot_within_bound_f32() {
    let snaps = series_f32(SNAPSHOTS, 0xA11CE);
    let session = Session::builder()
        .bound(ErrorBound::Rel(EPS))
        .build()
        .unwrap();

    let mut enc = session.pipeline::<f32>();
    let frames: Vec<Vec<u8>> = snaps
        .iter()
        .map(|s| enc.compress_next(s).unwrap().1.blob)
        .collect();
    let stats = enc.stats();
    assert!(stats.chain_keyframes >= 1, "a chain starts at a keyframe");
    assert!(
        stats.chain_deltas >= SNAPSHOTS as u64 / 2,
        "a slowly evolving series should mostly delta-code, got {stats:?}"
    );

    let mut dec = session.pipeline::<f32>();
    for (t, (s, frame)) in snaps.iter().zip(&frames).enumerate() {
        let recon = dec.decompress_next(frame).unwrap();
        let abs = ErrorBound::Rel(EPS).absolute(s);
        let err = s.max_abs_diff(recon);
        assert!(
            err <= slack(abs, f32::EPSILON as f64),
            "snapshot {t}: max error {err:e} exceeds bound {abs:e}"
        );
    }
}

#[test]
fn long_chain_decodes_every_snapshot_within_bound_f64() {
    let snaps: Vec<NdArray<f64>> = series_f32(SNAPSHOTS, 0xB0B).iter().map(widen).collect();
    let session = Session::builder()
        .bound(ErrorBound::Rel(EPS))
        .build()
        .unwrap();

    let mut enc = session.pipeline::<f64>();
    let frames: Vec<Vec<u8>> = snaps
        .iter()
        .map(|s| enc.compress_next(s).unwrap().1.blob)
        .collect();
    assert!(enc.stats().chain_deltas >= 1, "f64 chains delta-code too");

    let mut dec = session.pipeline::<f64>();
    for (t, (s, frame)) in snaps.iter().zip(&frames).enumerate() {
        let recon = dec.decompress_next(frame).unwrap();
        let abs = ErrorBound::Rel(EPS).absolute(s);
        let err = s.max_abs_diff(recon);
        assert!(
            err <= slack(abs, f64::EPSILON),
            "snapshot {t}: max error {err:e} exceeds bound {abs:e}"
        );
    }
}

#[test]
fn regime_change_falls_back_to_keyframe_and_chain_still_holds() {
    // Eight snapshots: a smooth series that flips sign halfway through.
    // The flipped snapshot's residual is ~2x the data itself, so the
    // estimator must refuse to delta-code it (a fallback keyframe), and
    // the bound must hold on every snapshot either side of the break.
    let mut snaps = series_f32(8, 0xF1A5);
    for s in snaps.iter_mut().skip(4) {
        let flipped: Vec<f32> = s.as_slice().iter().map(|v| -v).collect();
        *s = NdArray::from_vec(s.shape(), flipped);
    }
    let session = Session::builder()
        .bound(ErrorBound::Rel(EPS))
        .build()
        .unwrap();

    let mut enc = session.pipeline::<f32>();
    let mut frames = Vec::new();
    let mut outcomes = Vec::new();
    for s in &snaps {
        let (outcome, out) = enc.compress_next(s).unwrap();
        outcomes.push(outcome);
        frames.push(out.blob);
    }
    assert!(
        enc.stats().chain_fallbacks >= 1,
        "the sign flip must trigger an estimator fallback, got {outcomes:?}"
    );
    assert_eq!(
        outcomes[4].mode(),
        TemporalMode::Keyframe,
        "the regime-change snapshot must restart the chain"
    );

    let mut dec = session.pipeline::<f32>();
    for (t, (s, frame)) in snaps.iter().zip(&frames).enumerate() {
        let recon = dec.decompress_next(frame).unwrap();
        let abs = ErrorBound::Rel(EPS).absolute(s);
        let err = s.max_abs_diff(recon);
        assert!(
            err <= slack(abs, f32::EPSILON as f64),
            "snapshot {t}: max error {err:e} exceeds bound {abs:e}"
        );
    }
}

/// One evolving series and the temporal win it must show.
struct SeriesCase {
    name: &'static str,
    generate: fn(Shape, u64) -> NdArray<f32>,
    /// Per-snapshot 3D shape.
    dims: [usize; 3],
    snapshots: usize,
    seed: u64,
    min_deltas: u64,
    /// Floor on temporal CR / independent CR.
    min_gain: f64,
}

/// Both evolving series must delta-code and beat independent coding at
/// an equal bound, each by its own floor: the checkpoint-like series
/// (amplitude decay, a slowly drifting field) by a ratio gain of at least
/// 1.5x, the advecting series (structure moving through the volume
/// without decaying) by any margin at all — its win comes from motion
/// coherence alone.
#[test]
fn advecting_series_delta_codes_and_beats_independent() {
    let cases = [
        SeriesCase {
            name: "checkpoint",
            generate: datagen::time_series_like,
            dims: [24, 32, 32],
            snapshots: 12,
            seed: 0xC0FFEE,
            min_deltas: 1,
            min_gain: 1.5,
        },
        SeriesCase {
            name: "advect",
            generate: datagen::time_series_advect,
            dims: [16, 24, 24],
            snapshots: 8,
            seed: 7,
            min_deltas: 4,
            min_gain: 1.0,
        },
    ];
    for case in cases {
        let name = case.name;
        let [nz, ny, nx] = case.dims;
        let base = Shape::d3(nz, ny, nx);
        let field = (case.generate)(Shape::new(&[case.snapshots, nz, ny, nx]), case.seed);
        let step = base.len();
        let snaps: Vec<NdArray<f32>> = (0..case.snapshots)
            .map(|t| NdArray::from_vec(base, field.as_slice()[t * step..(t + 1) * step].to_vec()))
            .collect();
        let session = Session::builder()
            .bound(ErrorBound::Rel(EPS))
            .build()
            .unwrap();

        let mut ind = session.pipeline::<f32>();
        let ind_bytes: usize = snaps
            .iter()
            .map(|s| ind.compress(s).unwrap().blob.len())
            .sum();

        let mut enc = session.pipeline::<f32>();
        let chain_bytes: usize = snaps
            .iter()
            .map(|s| enc.compress_next(s).unwrap().1.blob.len())
            .sum();
        assert!(
            enc.stats().chain_deltas >= case.min_deltas,
            "{name}: the series should delta-code"
        );
        assert!(
            chain_bytes < ind_bytes,
            "{name}: temporal coding should beat independent \
             ({chain_bytes} vs {ind_bytes} bytes)"
        );
        // Equal raw size on both sides, so the CR gain is the byte ratio.
        let gain = ind_bytes as f64 / chain_bytes as f64;
        assert!(
            gain >= case.min_gain,
            "{name}: temporal CR gain {gain:.3}x fell below the {}x floor \
             ({chain_bytes} vs {ind_bytes} bytes)",
            case.min_gain
        );
    }
}
