//! Behavioural tests of QoZ's quality-metric orientation: switching the
//! tuning mode must move the corresponding metric in the right direction
//! (or at minimum never make it substantially worse), mirroring the
//! paper's Figs. 8-10 observations.

use qoz_suite::codec::{decompress, Compressor, ErrorBound, Scratch};
use qoz_suite::datagen::{Dataset, SizeClass};
use qoz_suite::metrics::{self, QualityMetric};
use qoz_suite::qoz::{level_error_bounds, Qoz, QozConfig};
use qoz_suite::tensor::NdArray;

fn run(qoz: &Qoz, data: &NdArray<f32>, bound: ErrorBound) -> (f64, NdArray<f32>) {
    let blob = qoz.compress(data, bound, &mut Scratch::new());
    let recon = decompress(qoz, &blob).unwrap();
    let bitrate = blob.len() as f64 * 8.0 / data.len() as f64;
    (bitrate, recon)
}

#[test]
fn ac_mode_improves_or_matches_autocorrelation() {
    for ds in [Dataset::Miranda, Dataset::CesmAtm] {
        let data = ds.generate(SizeClass::Tiny, 0);
        let bound = ErrorBound::Rel(1e-3);
        let (_, recon_cr) = run(
            &Qoz::for_metric(QualityMetric::CompressionRatio),
            &data,
            bound,
        );
        let (_, recon_ac) = run(
            &Qoz::for_metric(QualityMetric::AutoCorrelation),
            &data,
            bound,
        );
        let ac_cr = metrics::error_autocorrelation(&data, &recon_cr, 1).abs();
        let ac_ac = metrics::error_autocorrelation(&data, &recon_ac, 1).abs();
        assert!(
            ac_ac <= ac_cr + 0.05,
            "{}: AC mode {ac_ac:.4} vs CR mode {ac_cr:.4}",
            ds.name()
        );
    }
}

#[test]
fn psnr_mode_never_much_worse_than_cr_mode_on_psnr() {
    let data = Dataset::Nyx.generate(SizeClass::Tiny, 0);
    let bound = ErrorBound::Rel(1e-3);
    let (_, recon_psnr) = run(&Qoz::for_metric(QualityMetric::Psnr), &data, bound);
    let (_, recon_cr) = run(
        &Qoz::for_metric(QualityMetric::CompressionRatio),
        &data,
        bound,
    );
    let p_psnr = metrics::psnr(&data, &recon_psnr);
    let p_cr = metrics::psnr(&data, &recon_cr);
    assert!(
        p_psnr >= p_cr - 1.0,
        "PSNR mode {p_psnr:.2} dB should not trail CR mode {p_cr:.2} dB"
    );
}

#[test]
fn autotuning_at_least_matches_worst_fixed_setting() {
    // The tuner picks among candidate (alpha, beta); its bitrate should
    // never exceed the worst fixed candidate's by more than noise.
    let data = Dataset::CesmAtm.generate(SizeClass::Tiny, 1);
    let bound = ErrorBound::Rel(1e-3);
    let (auto_bits, _) = run(
        &Qoz::for_metric(QualityMetric::CompressionRatio),
        &data,
        bound,
    );
    let mut fixed_bits = Vec::new();
    for (a, b) in [(1.0, 1.0), (1.5, 3.0), (2.0, 4.0)] {
        let qoz = Qoz::new(QozConfig {
            param_autotuning: false,
            fixed_params: Some((a, b)),
            ..Default::default()
        });
        fixed_bits.push(run(&qoz, &data, bound).0);
    }
    let worst = fixed_bits.iter().cloned().fold(f64::MIN, f64::max);
    let best = fixed_bits.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        auto_bits <= worst * 1.05,
        "autotuned bitrate {auto_bits:.3} worse than worst fixed {worst:.3}"
    );
    // And it should land reasonably close to the best fixed setting.
    assert!(
        auto_bits <= best * 1.30,
        "autotuned bitrate {auto_bits:.3} far from best fixed {best:.3}"
    );
}

#[test]
fn level_bounds_follow_eq5_for_all_candidates() {
    let cfg = QozConfig::default();
    for (a, b) in cfg.param_candidates() {
        let ebs = level_error_bounds(1e-2, a, b, 6);
        assert_eq!(ebs[0], 1e-2);
        for (l, &e) in ebs.iter().enumerate() {
            let expect = 1e-2 / (a.powi(l as i32)).min(b);
            assert!((e - expect).abs() < 1e-18, "a={a} b={b} l={}", l + 1);
        }
    }
}

#[test]
fn ablation_ladder_rate_psnr_never_collapses() {
    // Each added component should keep rate-PSNR in a sane band; the
    // full QoZ must beat plain anchors-only on at least one of the two
    // paper datasets (CESM / Miranda).
    use qoz_suite::qoz::ablation::AblationVariant;
    let bound = ErrorBound::Rel(1e-2);
    let mut qoz_wins = 0;
    for ds in [Dataset::CesmAtm, Dataset::Miranda] {
        let data = ds.generate(SizeClass::Tiny, 0);
        let bits_of = |v: AblationVariant| {
            let c = v.compressor(QualityMetric::Psnr);
            run(&c, &data, bound).0
        };
        let ap = bits_of(AblationVariant::Sz3Ap);
        let full = bits_of(AblationVariant::QozFull);
        if full <= ap {
            qoz_wins += 1;
        }
    }
    assert!(
        qoz_wins >= 1,
        "full QoZ never beat the anchors-only variant"
    );
}
