//! Criterion benchmark: individual pipeline stages (quantizer, Huffman,
//! LZSS, interpolation traversal). Useful for locating regressions in
//! the layers every compressor shares.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use qoz_codec::{
    decode_bins_with, encode_bins_with, lossless_compress_with, EntropyScratch, LinearQuantizer,
};
use qoz_predict::{max_level, traverse_level, LevelConfig};
use qoz_tensor::{NdArray, Shape};

fn stage_benches(c: &mut Criterion) {
    // Quantizer: 1M residuals.
    let quant = LinearQuantizer::new(1e-3);
    let values: Vec<f64> = (0..1_000_000).map(|i| (i as f64 * 0.001).sin()).collect();
    let mut group = c.benchmark_group("quantizer");
    group.throughput(Throughput::Elements(values.len() as u64));
    group.bench_function("quantize_1M", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &v in &values {
                acc += quant.quantize(v, v * 0.999).code as u64;
            }
            acc
        })
    });
    group.finish();

    // Huffman + LZSS on a realistic bin distribution (concentrated).
    let bins: Vec<u32> = (0..500_000u32)
        .map(|i| 32768 + ((i * i) % 13) - 6)
        .collect();
    let mut group = c.benchmark_group("entropy");
    group.throughput(Throughput::Elements(bins.len() as u64));
    let mut es = EntropyScratch::new();
    let mut blob = Vec::new();
    group.bench_function("encode_bins_500k", |b| {
        b.iter(|| encode_bins_with(&bins, &mut es, &mut blob))
    });
    let mut decoded = Vec::new();
    group.bench_function("decode_bins_500k", |b| {
        b.iter(|| decode_bins_with(&blob, &mut es, &mut decoded).unwrap())
    });
    group.finish();

    let bytes: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
    let mut group = c.benchmark_group("lzss");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    let mut packed = Vec::new();
    group.bench_function("compress_1MB", |b| {
        b.iter(|| lossless_compress_with(&bytes, &mut es, &mut packed))
    });
    group.finish();

    // Full interpolation traversal of a 64^3 volume.
    let shape = Shape::d3(64, 64, 64);
    let data = NdArray::from_fn(shape, |i| {
        ((i[0] + i[1]) as f32 * 0.1).sin() + i[2] as f32 * 0.01
    });
    let mut group = c.benchmark_group("interp_traversal");
    group.throughput(Throughput::Elements(data.len() as u64));
    group.bench_function("levels_64cubed", |b| {
        b.iter(|| {
            let mut work = data.clone();
            let cfg = LevelConfig::default();
            let mut count = 0usize;
            for level in (1..=max_level(shape)).rev() {
                traverse_level(work.as_mut_slice(), shape, level, cfg, &mut |d, off, p| {
                    d[off] = p as f32;
                    count += 1;
                });
            }
            count
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = stage_benches
}
criterion_main!(benches);
