//! Plan-cache and scratch-arena reuse across the whole stack.
//!
//! The pipeline refactor's contract has three legs, each pinned here:
//!
//! 1. **Byte identity** — compressing *unchanged* data through a warm
//!    pipeline (cached plan + reused scratch) emits exactly the cold
//!    path's stream, for every backend.
//! 2. **Drift safety** — when the data stops resembling what the plan
//!    was tuned on (or the resolved bound moves), the cache re-tunes
//!    instead of replaying a stale plan, and warm streams always honor
//!    the bound resolved against *their own* snapshot.
//! 3. **Shape safety** — one pipeline fed differently-shaped inputs
//!    re-grows its buffers and re-tunes; nothing is ever served from a
//!    mismatched plan.
//!
//! The `#[ignore]`d smoke at the bottom is the CI warm-vs-cold check on
//! `SizeClass::Tiny` (run explicitly with `--ignored`, like the sanity
//! table): steady-state warm compression must beat cold compression.

use qoz_suite::api::{BackendId, PlanOutcome, Session};
use qoz_suite::codec::ErrorBound;
use qoz_suite::datagen::{self, Dataset, SizeClass};
use qoz_suite::tensor::{NdArray, Region, Shape};

/// Six consecutive same-shape snapshots of one evolving 3D field.
fn snapshots() -> Vec<NdArray<f32>> {
    let base = Dataset::Miranda.shape(SizeClass::Tiny);
    let shape4 = Shape::new(&[6, base.dim(0), base.dim(1), base.dim(2)]);
    let field = datagen::time_series_like(shape4, 42);
    let step = base.len();
    (0..6)
        .map(|t| NdArray::from_vec(base, field.as_slice()[t * step..(t + 1) * step].to_vec()))
        .collect()
}

#[test]
fn warm_blob_byte_identical_to_cold_for_every_backend() {
    let data = Dataset::Miranda.generate(SizeClass::Tiny, 0);
    for backend in [
        BackendId::Qoz,
        BackendId::Sz3,
        BackendId::Sz2,
        BackendId::Zfp,
        BackendId::Mgard,
    ] {
        let session = Session::builder()
            .backend(backend)
            .bound(ErrorBound::Rel(1e-3))
            .build()
            .unwrap();
        let cold = session.compress(&data).unwrap().blob;
        let mut pipe = session.pipeline::<f32>();
        for pass in 0..3 {
            let warm = pipe.compress(&data).unwrap().blob;
            assert_eq!(warm, cold, "{backend:?} pass {pass} diverged from cold");
        }
        if backend == BackendId::Qoz {
            assert_eq!(pipe.stats().cold_tunes, 1);
            assert_eq!(pipe.stats().warm_hits, 2);
        }
    }
}

#[test]
fn evolving_series_stays_bounded_and_mostly_warm() {
    let snaps = snapshots();
    let bound = ErrorBound::Rel(1e-3);
    let session = Session::builder().bound(bound).build().unwrap();
    let mut pipe = session.pipeline::<f32>();
    for (t, snap) in snaps.iter().enumerate() {
        let out = pipe.compress(snap).unwrap();
        // The hard bound is resolved against THIS snapshot, warm or not.
        let abs = bound.absolute(snap);
        let recon: NdArray<f32> = session.decompress(&out.blob).unwrap();
        assert!(
            snap.max_abs_diff(&recon) <= abs * (1.0 + 1e-9),
            "snapshot {t} violated its bound (outcome {:?})",
            pipe.last_outcome()
        );
    }
    let stats = pipe.stats();
    assert_eq!(stats.cold_tunes, 1);
    assert!(
        stats.warm() >= 1,
        "consecutive snapshots should reuse the plan at least once: {stats:?}"
    );
    assert_eq!(
        stats.cold_tunes + stats.warm() + stats.retunes,
        snaps.len() as u64
    );
}

#[test]
fn drift_to_unrelated_data_retunes() {
    let smooth = Dataset::Miranda.generate(SizeClass::Tiny, 0);
    let session = Session::builder()
        .bound(ErrorBound::Abs(1e-3))
        .drift_tolerance(0.1)
        .build()
        .unwrap();
    assert_eq!(session.drift_tolerance(), 0.1);
    let mut pipe = session.pipeline::<f32>();
    pipe.compress(&smooth).unwrap();
    // Same shape, same bound, completely different (noisy) field: the
    // sampled drift check must reject the cached plan.
    let noisy = NdArray::from_fn(smooth.shape(), |i| {
        let h = datagen::noise::splitmix64((i[0] * 7919 + i[1] * 104_729 + i[2]) as u64);
        (h as f32 / u64::MAX as f32) * 4.0
    });
    let out = pipe.compress(&noisy).unwrap();
    assert_eq!(pipe.last_outcome(), Some(PlanOutcome::Retuned));
    // The retuned stream equals the cold stream for the new data.
    assert_eq!(out.blob, session.compress(&noisy).unwrap().blob);
}

#[test]
fn shape_changes_regrow_scratch_and_retune() {
    let big = Dataset::Miranda.generate(SizeClass::Tiny, 0);
    let shrink = |d: usize| {
        big.extract_region(&Region::new(
            &[0, 0, 0],
            &[
                big.shape().dim(0) / d,
                big.shape().dim(1) / d,
                big.shape().dim(2),
            ],
        ))
    };
    let small = shrink(2);
    let session = Session::builder()
        .bound(ErrorBound::Rel(1e-3))
        .build()
        .unwrap();
    let mut pipe = session.pipeline::<f32>();
    // big -> small -> big -> small: every stream equals its cold twin,
    // no stale buffer content leaks between shapes.
    for (i, data) in [&big, &small, &big, &small].into_iter().enumerate() {
        let warm = pipe.compress(data).unwrap().blob;
        let cold = session.compress(data).unwrap().blob;
        assert_eq!(warm, cold, "call {i}");
        if i > 0 {
            assert_eq!(pipe.last_outcome(), Some(PlanOutcome::Retuned), "call {i}");
        }
    }
}

#[test]
fn f64_series_reuses_plans_too() {
    let base = Dataset::CesmAtm.generate(SizeClass::Tiny, 0);
    let wide = NdArray::from_vec(
        base.shape(),
        base.as_slice().iter().map(|&v| v as f64).collect(),
    );
    let session = Session::builder()
        .bound(ErrorBound::Rel(1e-3))
        .build()
        .unwrap();
    let cold = session.compress(&wide).unwrap().blob;
    let mut pipe = session.pipeline::<f64>();
    pipe.compress(&wide).unwrap();
    let warm = pipe.compress(&wide).unwrap().blob;
    assert_eq!(warm, cold);
    assert_eq!(pipe.stats().warm_hits, 1);
}

/// CI warm-vs-cold smoke (`cargo test --release --test pipeline_reuse --
/// --ignored`): over a tiny six-snapshot series, the pipeline's
/// steady-state (post-tune) calls must be faster in total than the same
/// series compressed cold. Tuning dominates cold QoZ compression, so
/// the margin is large; this is a regression tripwire, not a benchmark.
#[test]
#[ignore]
fn warm_vs_cold_smoke() {
    let snaps = snapshots();
    let session = Session::builder()
        .bound(ErrorBound::Rel(1e-3))
        .build()
        .unwrap();

    let t0 = std::time::Instant::now();
    let cold_blobs: Vec<_> = snaps
        .iter()
        .map(|s| session.compress(s).unwrap().blob)
        .collect();
    let t_cold = t0.elapsed();

    let mut pipe = session.pipeline::<f32>();
    pipe.compress(&snaps[0]).unwrap(); // pay the one cold tune
    let t0 = std::time::Instant::now();
    let warm_blobs: Vec<_> = snaps[1..]
        .iter()
        .map(|s| pipe.compress(s).unwrap().blob)
        .collect();
    let t_warm = t0.elapsed();

    // Correctness first: a warm repeat of snapshot 0 through a fresh
    // pipeline reproduces the cold bytes.
    let mut fresh = session.pipeline::<f32>();
    fresh.compress(&snaps[0]).unwrap();
    assert_eq!(fresh.compress(&snaps[0]).unwrap().blob, cold_blobs[0]);
    assert_eq!(warm_blobs.len(), snaps.len() - 1);

    let per_cold = t_cold.as_secs_f64() / snaps.len() as f64;
    let per_warm = t_warm.as_secs_f64() / (snaps.len() - 1) as f64;
    println!(
        "cold {:.2} ms/snapshot, warm {:.2} ms/snapshot ({:.2}x)",
        per_cold * 1e3,
        per_warm * 1e3,
        per_cold / per_warm
    );
    assert!(
        per_warm < per_cold,
        "warm path ({per_warm:.4}s/snap) must beat cold ({per_cold:.4}s/snap)"
    );
}
