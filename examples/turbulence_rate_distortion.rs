//! Rate-distortion shoot-out on turbulence data: all five compressors,
//! a sweep of error bounds, one table — a miniature of the paper's
//! Fig. 8 on the Miranda-like dataset.
//!
//! ```text
//! cargo run --release --example turbulence_rate_distortion
//! ```

use qoz_suite::api::BackendRegistry;
use qoz_suite::codec::{decompress, ErrorBound, Scratch};
use qoz_suite::datagen::{Dataset, SizeClass};
use qoz_suite::metrics::{self, QualityMetric};

fn main() {
    let data = Dataset::Miranda.generate(SizeClass::Small, 0);
    println!(
        "Miranda-like turbulence {:?} — rate-distortion sweep\n",
        data.shape()
    );
    println!(
        "{:<8} {:>9} {:>10} {:>9} {:>9}",
        "codec", "eps", "bitrate", "PSNR", "CR"
    );

    // The five compressors of the paper's evaluation (one registry,
    // QoZ tuned for PSNR), in table order.
    let registry = BackendRegistry::with_metric(QualityMetric::Psnr);

    for codec in registry.paper_set::<f32>() {
        let name = codec.id().name();
        for eps in [1e-2, 1e-3, 1e-4] {
            let bound = ErrorBound::Rel(eps);
            let blob = codec.compress(&data, bound, &mut Scratch::new());
            let recon = decompress(&*codec, &blob).expect("self-produced blob");
            let bitrate = blob.len() as f64 * 8.0 / data.len() as f64;
            println!(
                "{:<8} {:>9.0e} {:>10.4} {:>9.2} {:>9.1}",
                name,
                eps,
                bitrate,
                metrics::psnr(&data, &recon),
                32.0 / bitrate
            );
        }
    }
    println!("\nLower bitrate at equal PSNR (or higher PSNR at equal bitrate) wins;");
    println!("compare the QoZ rows against each baseline at matching eps.");
}
