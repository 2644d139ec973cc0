//! Integration tests for the QZAR archive container: per-backend
//! round-trips, region queries vs. full decompression, random-access
//! I/O accounting, and corruption rejection.

use qoz_suite::archive::{ArchiveError, ArchiveReader, ArchiveWriter};
use qoz_suite::codec::{decompress, Compressor, ErrorBound, Scratch};
use qoz_suite::tensor::{NdArray, Region, Shape};

fn backends() -> Vec<(&'static str, Box<dyn Compressor<f32>>)> {
    vec![
        ("SZ2.1", Box::new(qoz_suite::sz2::Sz2::default())),
        ("SZ3", Box::new(qoz_suite::sz3::Sz3::default())),
        ("ZFP", Box::new(qoz_suite::zfp::Zfp)),
        ("MGARD+", Box::new(qoz_suite::mgard::Mgard)),
        ("QoZ", Box::new(qoz_suite::qoz::Qoz::default())),
    ]
}

fn field(shape: Shape) -> NdArray<f32> {
    NdArray::from_fn(shape, |i| {
        (i[0] as f32 * 0.21).sin() * (i[1] as f32 * 0.13).cos() + (i[2] as f32 * 0.08).sin() * 0.5
    })
}

/// Round-trip through the container for every backend: the archived
/// variable honors the error bound, and region queries are bitwise
/// equal to slicing a full decompress.
#[test]
fn per_backend_roundtrip_and_region_equality() {
    let data = field(Shape::d3(40, 36, 28));
    let bound = ErrorBound::Abs(1e-3);
    let regions = [
        Region::new(&[0, 0, 0], &[1, 1, 1]),
        Region::new(&[15, 15, 15], &[2, 2, 2]), // chunk-interior
        Region::new(&[10, 12, 6], &[21, 9, 17]), // straddles chunk boundaries
        Region::new(&[39, 35, 27], &[1, 1, 1]), // far corner (ragged chunks)
        Region::new(&[0, 0, 0], &[40, 36, 28]), // everything
    ];
    for (name, c) in backends() {
        let mut w = ArchiveWriter::new().with_chunk_side(16);
        w.add_variable("v", &data, c.as_ref(), bound).unwrap();
        let bytes = w.finish();

        let r = ArchiveReader::from_bytes(&bytes).unwrap();
        let full: NdArray<f32> = r.read_full("v").unwrap();
        assert!(
            data.max_abs_diff(&full) <= 1e-3 * (1.0 + 1e-9),
            "{name}: bound violated through the archive"
        );
        for region in &regions {
            let slab: NdArray<f32> = r.read_region("v", region).unwrap();
            assert_eq!(
                slab.as_slice(),
                full.extract_region(region).as_slice(),
                "{name}: region {region:?} != full-decompress slice"
            );
        }
    }
}

/// Multiple variables of mixed scalar types and backends coexist.
#[test]
fn multi_variable_mixed_types() {
    let a = field(Shape::d3(20, 20, 12));
    let b = NdArray::<f64>::from_fn(Shape::d2(30, 26), |i| {
        (i[0] as f64 * 0.3).sin() + i[1] as f64 * 0.01
    });
    let mut w = ArchiveWriter::new().with_chunk_side(8);
    w.add_variable(
        "temp",
        &a,
        &qoz_suite::sz3::Sz3::default(),
        ErrorBound::Abs(1e-3),
    )
    .unwrap();
    w.add_variable(
        "pres",
        &b,
        &qoz_suite::qoz::Qoz::default(),
        ErrorBound::Rel(1e-4),
    )
    .unwrap();
    let bytes = w.finish();

    let r = ArchiveReader::from_bytes(&bytes).unwrap();
    assert_eq!(r.toc().vars.len(), 2);
    let ra: NdArray<f32> = r.read_full("temp").unwrap();
    assert!(a.max_abs_diff(&ra) <= 1e-3 * (1.0 + 1e-9));
    let abs_b = ErrorBound::Rel(1e-4).absolute(&b);
    let rb: NdArray<f64> = r.read_full("pres").unwrap();
    assert!(b.max_abs_diff(&rb) <= abs_b * (1.0 + 1e-9));
    // Type confusion is an error, not garbage.
    assert!(matches!(
        r.read_full::<f64>("temp"),
        Err(ArchiveError::TypeMismatch { .. })
    ));
}

/// The acceptance test of the archive subsystem: a ~1% region of a
/// 256^3 field must be served by decompressing only the intersecting
/// chunks — under 5% of the archive's bytes are read (TOC included).
#[test]
fn one_percent_region_of_256cubed_reads_under_5_percent() {
    let n = 256usize;
    let data = NdArray::from_fn(Shape::d3(n, n, n), |i| {
        (i[0] as f32 * 0.045).sin() + (i[1] as f32 * 0.03).cos() * (i[2] as f32 * 0.02).sin()
    });
    let mut w = ArchiveWriter::new().with_chunk_side(32);
    w.add_variable(
        "v",
        &data,
        &qoz_suite::sz3::Sz3::default(),
        ErrorBound::Abs(1e-3),
    )
    .unwrap();
    let bytes = w.finish();

    // 55^3 = 166,375 points ~= 1.0% of 256^3; deliberately unaligned so
    // it straddles chunk boundaries in every dimension (8 chunks).
    let region = Region::new(&[37, 70, 101], &[55, 55, 55]);
    assert!((region.len() as f64 / data.len() as f64 - 0.01).abs() < 0.002);

    let r = ArchiveReader::from_bytes(&bytes).unwrap();
    let slab: NdArray<f32> = r.read_region("v", &region).unwrap();
    let read = r.bytes_read();
    let total = r.archive_len();
    assert!(
        (read as f64) < total as f64 * 0.05,
        "1% region read {read} of {total} bytes ({:.2}%)",
        read as f64 / total as f64 * 100.0
    );

    // And the slab is still exactly what a full decompress would give.
    let r2 = ArchiveReader::from_bytes(&bytes).unwrap();
    let full: NdArray<f32> = r2.read_full("v").unwrap();
    assert_eq!(slab.as_slice(), full.extract_region(&region).as_slice());
    // Bound still holds end to end.
    assert!(data.extract_region(&region).max_abs_diff(&slab) <= 1e-3 * (1.0 + 1e-9));
}

/// Truncations at every boundary must error, never panic.
#[test]
fn truncated_archive_rejected() {
    let data = field(Shape::d3(12, 12, 12));
    let mut w = ArchiveWriter::new().with_chunk_side(8);
    w.add_variable(
        "v",
        &data,
        &qoz_suite::sz3::Sz3::default(),
        ErrorBound::Abs(1e-3),
    )
    .unwrap();
    let bytes = w.finish();
    for cut in 0..bytes.len() {
        let truncated = &bytes[..cut];
        let outcome = match ArchiveReader::from_bytes(truncated) {
            Err(_) => Err(()),
            Ok(r) => r.read_full::<f32>("v").map(|_| ()).map_err(|_| ()),
        };
        assert!(outcome.is_err(), "truncation at {cut} accepted");
    }
}

/// A flipped bit anywhere in the payload is caught by verify(), and by
/// any read that touches the damaged chunk.
#[test]
fn payload_bitflips_detected_by_verify() {
    let data = field(Shape::d3(12, 12, 12));
    let mut w = ArchiveWriter::new().with_chunk_side(8);
    w.add_variable(
        "v",
        &data,
        &qoz_suite::sz3::Sz3::default(),
        ErrorBound::Abs(1e-3),
    )
    .unwrap();
    let bytes = w.finish();
    let payload_start = {
        let r = ArchiveReader::from_bytes(&bytes).unwrap();
        (bytes.len() as u64 - r.toc().vars[0].compressed_len()) as usize
    };
    let step = ((bytes.len() - payload_start) / 97).max(1);
    for pos in (payload_start..bytes.len()).step_by(step) {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x10;
        let r = ArchiveReader::from_bytes(&bad).unwrap();
        let report = r.verify().unwrap();
        assert!(!report.is_clean(), "payload flip at {pos} not caught");
        assert!(
            report
                .faults
                .iter()
                .all(|f| f.kind == qoz_suite::archive::FaultKind::BitFlip),
            "payload flip at {pos} misclassified: {:?}",
            report.faults
        );
        assert!(r.read_full::<f32>("v").is_err());
    }
}

/// A plain compressed stream is not an archive, and an archive is not a
/// plain compressed stream.
#[test]
fn container_and_stream_formats_do_not_cross() {
    let data = field(Shape::d3(12, 12, 12));
    let c = qoz_suite::sz3::Sz3::default();
    let stream = c.compress(&data, ErrorBound::Abs(1e-3), &mut Scratch::new());
    assert_eq!(
        ArchiveReader::from_bytes(&stream).unwrap_err(),
        ArchiveError::BadMagic
    );
    let mut w = ArchiveWriter::new();
    w.add_variable("v", &data, &c, ErrorBound::Abs(1e-3))
        .unwrap();
    let qza = w.finish();
    assert!(decompress::<f32>(&c, &qza).is_err());
}

/// File-backed archives behave identically to in-memory ones.
#[test]
fn file_backed_archive_roundtrip() {
    let path = std::env::temp_dir()
        .join(format!("qoz_archive_it_{}.qza", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let data = field(Shape::d3(16, 16, 16));
    let mut w = ArchiveWriter::new().with_chunk_side(8);
    w.add_variable(
        "v",
        &data,
        &qoz_suite::qoz::Qoz::default(),
        ErrorBound::Rel(1e-3),
    )
    .unwrap();
    let written = w.write_to(&path).unwrap();

    let r = ArchiveReader::open(&path).unwrap();
    assert_eq!(r.archive_len(), written);
    // Fits inside the first 8x8x8 chunk: only one chunk is fetched.
    let region = Region::new(&[1, 1, 1], &[6, 6, 6]);
    let slab: NdArray<f32> = r.read_region("v", &region).unwrap();
    assert_eq!(slab.shape().dims(), &[6, 6, 6]);
    assert!(r.bytes_read() < written);
    let report = r.verify().unwrap();
    assert_eq!(report.chunks, 8);
    std::fs::remove_file(&path).ok();
}
