//! Parallel data dumping: per-rank chunked compression on real threads
//! plus the shared-bandwidth I/O model — the paper's Fig. 14 scenario on
//! a laptop.
//!
//! ```text
//! cargo run --release --example parallel_dump
//! ```

use qoz_suite::api::{BackendId, Session};
use qoz_suite::codec::{decompress, ErrorBound, Scratch};
use qoz_suite::datagen::{Dataset, SizeClass};
use qoz_suite::pario::{chunk_along_dim0, compress_chunks, decompress_chunks, IoModel};
use qoz_suite::tensor::NdArray;

fn main() {
    let data = Dataset::Hurricane.generate(SizeClass::Small, 0);
    let ranks = 8; // local stand-in for the paper's 1K-8K MPI ranks
    let bound = ErrorBound::Rel(1e-3);
    println!(
        "Hurricane-like volume {:?} split over {ranks} worker threads\n",
        data.shape()
    );

    // 1. Real thread-parallel per-rank compression.
    let chunks = chunk_along_dim0(&data, ranks);
    let session = Session::builder()
        .backend(BackendId::Qoz)
        .bound(bound)
        .build()
        .unwrap();
    let qoz = session.codec::<f32>();
    let t0 = std::time::Instant::now();
    let blobs = compress_chunks(&*qoz, &chunks, bound, ranks);
    let t_par = t0.elapsed().as_secs_f64();
    let raw: usize = chunks.iter().map(|c| c.len() * 4).sum();
    let packed: usize = blobs.iter().map(Vec::len).sum();
    let cr = raw as f64 / packed as f64;
    println!(
        "parallel compression: {:.1} MB -> {:.2} MB (CR {:.1}x) in {:.0} ms ({:.0} MB/s aggregate)",
        raw as f64 / 1e6,
        packed as f64 / 1e6,
        cr,
        t_par * 1e3,
        raw as f64 / 1e6 / t_par
    );

    let recon: Vec<NdArray<f32>> = decompress_chunks(&*qoz, &blobs, ranks).unwrap();
    for (c, r) in chunks.iter().zip(&recon) {
        assert!(c.max_abs_diff(r) <= bound.absolute(c), "bound violated");
    }
    println!("all {ranks} chunks verified within the error bound ✓\n");

    // 2. Project to supercomputer scale with the bandwidth model, using
    //    throughput measured on one chunk.
    let one = &chunks[0];
    let t0 = std::time::Instant::now();
    let blob = qoz.compress(one, bound, &mut Scratch::new());
    let comp_bps = (one.len() * 4) as f64 / t0.elapsed().as_secs_f64();
    let t0 = std::time::Instant::now();
    let _: NdArray<f32> = decompress(&*qoz, &blob).unwrap();
    let decomp_bps = (one.len() * 4) as f64 / t0.elapsed().as_secs_f64();

    println!("projected dump times (1.3 GB/rank, 80 GB/s filesystem):");
    println!("{:>7}  {:>10} {:>10}", "ranks", "raw dump", "QoZ dump");
    for ranks in [1024usize, 2048, 4096, 8192] {
        let m = IoModel {
            ranks,
            ..Default::default()
        };
        println!(
            "{:>7}  {:>9.1}s {:>9.1}s",
            ranks,
            m.raw().dump_s(),
            m.with_codec(cr, comp_bps, decomp_bps).dump_s()
        );
    }
    println!("\npast filesystem saturation, bytes-on-the-wire dominate and the");
    println!("compression-ratio advantage becomes an end-to-end dump-time win.");
}
