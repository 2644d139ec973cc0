//! The stage-span contract of `qoz_telemetry`.
//!
//! The compression stages (tune, predict+quantize, encode, entropy)
//! record into process-global timers, so this file holds exactly one
//! test: another test running concurrently in the same binary would
//! record into the same timers. It is `#[ignore]`d because two of its
//! three checks are timing checks; CI runs it on its own with
//! `cargo test --release --test stage_spans -- --ignored --nocapture`.
//!
//! Per backend, on the warm plan-cache-hit path:
//!
//! 1. a warm repeat of an unchanged snapshot records zero `tune` spans;
//! 2. the stage spans cover the bulk of the steady-state wall time
//!    (coverage within [0.75, 1.02]) — a stage that loses its span
//!    drops the sum, a nested or double-counted span pushes it past the
//!    wall;
//! 3. leaving spans enabled costs at most 2% (plus a 2 ms jitter floor)
//!    against the same loop with spans disabled, best of interleaved
//!    on/off trials.

use qoz_suite::api::{BackendId, Session};
use qoz_suite::codec::ErrorBound;
use qoz_suite::datagen::{self, Dataset, SizeClass};
use qoz_suite::telemetry;
use qoz_suite::tensor::{NdArray, Shape};
use std::time::Instant;

const SNAPSHOTS: usize = 6;
/// Interleaved on/off trials of the overhead comparison, best-of each.
const TRIALS: usize = 9;

/// Six consecutive snapshots of the checkpoint-like Miranda series.
fn snapshots() -> Vec<NdArray<f32>> {
    let base = Dataset::Miranda.shape(SizeClass::Tiny);
    let shape4 = Shape::new(&[SNAPSHOTS, base.dim(0), base.dim(1), base.dim(2)]);
    let field = datagen::time_series_like(shape4, 0xC0FFEE);
    let step = base.len();
    (0..SNAPSHOTS)
        .map(|t| NdArray::from_vec(base, field.as_slice()[t * step..(t + 1) * step].to_vec()))
        .collect()
}

/// Seconds for one warm steady-state loop: tune once off the clock on a
/// fresh pipeline, then time the remaining snapshots.
fn steady_secs(session: &Session, snaps: &[NdArray<f32>]) -> f64 {
    let mut pipe = session.pipeline::<f32>();
    pipe.compress(&snaps[0]).unwrap();
    let t0 = Instant::now();
    for s in &snaps[1..] {
        pipe.compress(s).unwrap();
    }
    t0.elapsed().as_secs_f64()
}

#[test]
#[ignore]
fn stage_spans_cover_the_warm_path_cheaply() {
    let snaps = snapshots();
    let stages = telemetry::stages();
    for backend in [BackendId::Qoz, BackendId::Sz3] {
        let session = Session::builder()
            .backend(backend)
            .bound(ErrorBound::Rel(1e-3))
            .build()
            .unwrap();
        telemetry::set_enabled(true);

        // Warm repeats of the tuned snapshot 0: the daemon's plan-cache
        // hit path. The evolving series is deliberately not used here —
        // a mid-series retune runs engine passes inside the tune span,
        // and the stage sums would double-count.
        let mut pipe = session.pipeline::<f32>();
        pipe.compress(&snaps[0]).unwrap();
        stages.reset();
        let t0 = Instant::now();
        for _ in 1..SNAPSHOTS {
            pipe.compress(&snaps[0]).unwrap();
        }
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            stages.tune.count(),
            0,
            "{backend:?}: a warm repeat of an unchanged snapshot re-tuned"
        );
        let sum_ms: f64 = stages.all().iter().map(|t| t.sum_ns() as f64 / 1e6).sum();
        let coverage = sum_ms / wall_ms.max(1e-9);
        println!(
            "{backend:?}: stages {sum_ms:.2} ms of {wall_ms:.2} ms wall (coverage {coverage:.3})"
        );
        assert!(
            coverage <= 1.02,
            "{backend:?}: stage sums exceed wall time ({sum_ms:.2} ms of {wall_ms:.2} ms)"
        );
        assert!(
            coverage >= 0.75,
            "{backend:?}: stage spans cover only {:.0}% of steady-state wall time — \
             a compression stage lost its span",
            coverage * 100.0
        );

        let mut best_on = f64::INFINITY;
        let mut best_off = f64::INFINITY;
        for _ in 0..TRIALS {
            telemetry::set_enabled(true);
            best_on = best_on.min(steady_secs(&session, &snaps));
            telemetry::set_enabled(false);
            best_off = best_off.min(steady_secs(&session, &snaps));
        }
        telemetry::set_enabled(true);
        let overhead_pct = (best_on / best_off.max(1e-12) - 1.0) * 100.0;
        println!(
            "{backend:?}: spans on {:.3} ms, off {:.3} ms ({overhead_pct:+.2}%)",
            best_on * 1e3,
            best_off * 1e3
        );
        assert!(
            best_on <= best_off * 1.02 + 0.002,
            "{backend:?}: telemetry spans cost {overhead_pct:.2}% on the warm steady-state \
             loop (enabled {best_on:.4} s vs disabled {best_off:.4} s)"
        );
    }
}
