//! Criterion benchmark: QoZ online-tuning overhead.
//!
//! The paper claims the sampling-based tuner keeps QoZ's speed comparable
//! to SZ3 (Table IV). This bench isolates (a) the tuning stage alone,
//! (b) full QoZ compression, and (c) the SZ3 baseline, plus the ablation
//! ladder, so the overhead of each optimization component is visible.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use qoz_codec::{Compressor as _, ErrorBound, Scratch};
use qoz_core::ablation::AblationVariant;
use qoz_core::Qoz;
use qoz_datagen::{Dataset, SizeClass};
use qoz_metrics::QualityMetric;

fn tuning_benches(c: &mut Criterion) {
    let data = Dataset::Miranda.generate(SizeClass::Tiny, 0);
    let bound = ErrorBound::Rel(1e-3);
    let bytes = (data.len() * 4) as u64;

    let mut group = c.benchmark_group("tuning");
    group.throughput(Throughput::Bytes(bytes));
    group.bench_function("qoz_plan_only", |b| {
        let qoz = Qoz::for_metric(QualityMetric::Psnr);
        b.iter(|| qoz.plan(&data, bound))
    });
    group.bench_function("qoz_full_compress", |b| {
        let qoz = Qoz::for_metric(QualityMetric::Psnr);
        b.iter(|| qoz.compress(&data, bound, &mut Scratch::new()))
    });
    group.bench_function("sz3_compress", |b| {
        let sz3 = qoz_sz3::Sz3::default();
        b.iter(|| sz3.compress(&data, bound, &mut Scratch::new()))
    });
    group.finish();

    let mut group = c.benchmark_group("ablation");
    group.throughput(Throughput::Bytes(bytes));
    for v in &AblationVariant::ALL[1..] {
        let comp = v.compressor(QualityMetric::Psnr);
        group.bench_function(v.name(), |b| {
            b.iter(|| comp.compress(&data, bound, &mut Scratch::new()))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = tuning_benches
}
criterion_main!(benches);
