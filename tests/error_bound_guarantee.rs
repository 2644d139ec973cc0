//! The cardinal contract of error-bounded lossy compression: every
//! compressor, every dataset family, every bound — each reconstructed
//! point within the absolute bound. (Paper §III, verified in Fig. 7.)

use qoz_suite::codec::{decompress, Compressor, ErrorBound, Scratch};
use qoz_suite::datagen::{Dataset, SizeClass};
use qoz_suite::metrics::{verify_error_bound, QualityMetric};
use qoz_suite::tensor::NdArray;

fn all_compressors() -> Vec<(&'static str, Box<dyn Compressor<f32>>)> {
    vec![
        ("SZ2.1", Box::new(qoz_suite::sz2::Sz2::default())),
        ("SZ3", Box::new(qoz_suite::sz3::Sz3::default())),
        ("ZFP", Box::new(qoz_suite::zfp::Zfp)),
        ("MGARD+", Box::new(qoz_suite::mgard::Mgard)),
        (
            "QoZ",
            Box::new(qoz_suite::qoz::Qoz::for_metric(
                QualityMetric::CompressionRatio,
            )),
        ),
    ]
}

#[test]
fn every_compressor_respects_every_bound_on_every_dataset() {
    for ds in Dataset::ALL {
        let data = ds.generate(SizeClass::Tiny, 0);
        for eps in [1e-2, 1e-3, 1e-4] {
            let bound = ErrorBound::Rel(eps);
            let abs = bound.absolute(&data);
            for (name, c) in all_compressors() {
                let blob = c.compress(&data, bound, &mut Scratch::new());
                let recon = decompress(&*c, &blob).unwrap_or_else(|e| {
                    panic!(
                        "{name} failed to decode its own stream on {}: {e}",
                        ds.name()
                    )
                });
                assert_eq!(recon.shape(), data.shape());
                assert_eq!(
                    verify_error_bound(&data, &recon, abs),
                    None,
                    "{name} violated eps={eps} on {}",
                    ds.name()
                );
            }
        }
    }
}

#[test]
fn absolute_bounds_respected_for_f64() {
    let data = Dataset::Nyx.generate(SizeClass::Tiny, 3);
    // Promote to f64 with extra precision demands.
    let data64 = NdArray::from_vec(
        data.shape(),
        data.as_slice()
            .iter()
            .map(|&v| v as f64 * 1.000001)
            .collect(),
    );
    let abs = 1e-7 * data64.value_range();
    let compressors: Vec<(&str, Box<dyn Compressor<f64>>)> = vec![
        ("SZ2.1", Box::new(qoz_suite::sz2::Sz2::default())),
        ("SZ3", Box::new(qoz_suite::sz3::Sz3::default())),
        ("ZFP", Box::new(qoz_suite::zfp::Zfp)),
        ("MGARD+", Box::new(qoz_suite::mgard::Mgard)),
        ("QoZ", Box::new(qoz_suite::qoz::Qoz::default())),
    ];
    for (name, c) in compressors {
        let blob = c.compress(&data64, ErrorBound::Abs(abs), &mut Scratch::new());
        let recon = decompress(&*c, &blob).unwrap();
        assert!(
            data64.max_abs_diff(&recon) <= abs * (1.0 + 1e-9),
            "{name} violated tight f64 bound"
        );
    }
}

#[test]
fn qoz_all_tuning_modes_same_hard_bound() {
    let data = Dataset::ScaleLetkf.generate(SizeClass::Tiny, 0);
    let bound = ErrorBound::Rel(5e-3);
    let abs = bound.absolute(&data);
    for metric in [
        QualityMetric::CompressionRatio,
        QualityMetric::Psnr,
        QualityMetric::Ssim,
        QualityMetric::AutoCorrelation,
    ] {
        let qoz = qoz_suite::qoz::Qoz::for_metric(metric);
        let blob = qoz.compress(&data, bound, &mut Scratch::new());
        let recon: NdArray<f32> = decompress(&qoz, &blob).unwrap();
        assert_eq!(
            verify_error_bound(&data, &recon, abs),
            None,
            "mode {metric:?} broke the bound"
        );
    }
}

#[test]
fn extreme_bounds_still_hold() {
    let data = Dataset::Miranda.generate(SizeClass::Tiny, 1);
    for (name, c) in all_compressors() {
        // Very loose: everything collapses but the bound must hold.
        let blob = c.compress(&data, ErrorBound::Rel(0.25), &mut Scratch::new());
        let recon = decompress(&*c, &blob).unwrap();
        let abs = ErrorBound::Rel(0.25).absolute(&data);
        assert!(
            data.max_abs_diff(&recon) <= abs * (1.0 + 1e-9),
            "{name} loose"
        );
        // Very tight: near-lossless.
        let blob = c.compress(&data, ErrorBound::Rel(1e-7), &mut Scratch::new());
        let recon = decompress(&*c, &blob).unwrap();
        let abs = ErrorBound::Rel(1e-7).absolute(&data);
        assert!(
            data.max_abs_diff(&recon) <= abs * (1.0 + 1e-9),
            "{name} tight"
        );
    }
}
