//! Quick sanity integration test: QoZ vs SZ3 compression ratios.
use qoz_codec::{Compressor, ErrorBound, Scratch};
use qoz_datagen::{Dataset, SizeClass};

#[test]
#[ignore] // run explicitly: cargo test --release --test sanity_cr -- --ignored --nocapture
fn print_cr_comparison() {
    for ds in Dataset::ALL {
        let data = ds.generate(SizeClass::Small, 0);
        for eps in [1e-2, 1e-3] {
            let bound = ErrorBound::Rel(eps);
            let t0 = std::time::Instant::now();
            let sz3 = qoz_sz3::Sz3::default().compress(&data, bound, &mut Scratch::new());
            let t_sz3 = t0.elapsed();
            let t0 = std::time::Instant::now();
            let qoz = qoz_core::Qoz::default().compress(&data, bound, &mut Scratch::new());
            let t_qoz = t0.elapsed();
            let raw = (data.len() * 4) as f64;
            println!(
                "{:12} eps={:.0e}  SZ3 CR={:7.1} ({:5.0} ms)   QoZ CR={:7.1} ({:5.0} ms)",
                ds.name(),
                eps,
                raw / sz3.len() as f64,
                t_sz3.as_millis(),
                raw / qoz.len() as f64,
                t_qoz.as_millis()
            );
        }
    }
}
