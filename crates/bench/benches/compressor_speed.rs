//! Criterion benchmark: compression/decompression throughput per
//! compressor (the microbenchmark behind Table IV).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qoz_bench::paper_set;
use qoz_codec::{decompress, ErrorBound, Scratch};
use qoz_datagen::{Dataset, SizeClass};
use qoz_metrics::QualityMetric;

fn bench_compressors(c: &mut Criterion) {
    let datasets = [Dataset::CesmAtm, Dataset::Miranda];
    let bound = ErrorBound::Rel(1e-3);

    let mut group = c.benchmark_group("compress");
    for ds in datasets {
        let data = ds.generate(SizeClass::Tiny, 0);
        group.throughput(Throughput::Bytes((data.len() * 4) as u64));
        for comp in paper_set::<f32>(QualityMetric::Psnr) {
            group.bench_with_input(
                BenchmarkId::new(comp.id().name(), ds.name()),
                &data,
                |b, data| b.iter(|| comp.compress(data, bound, &mut Scratch::new())),
            );
        }
    }
    group.finish();

    let mut group = c.benchmark_group("decompress");
    for ds in datasets {
        let data = ds.generate(SizeClass::Tiny, 0);
        group.throughput(Throughput::Bytes((data.len() * 4) as u64));
        for comp in paper_set::<f32>(QualityMetric::Psnr) {
            let blob = comp.compress(&data, bound, &mut Scratch::new());
            group.bench_with_input(
                BenchmarkId::new(comp.id().name(), ds.name()),
                &blob,
                |b, blob| b.iter(|| decompress(&*comp, blob).unwrap()),
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_compressors
}
criterion_main!(benches);
