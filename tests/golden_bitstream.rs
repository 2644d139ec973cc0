//! Golden-bitstream regression tests.
//!
//! The compressed stream format is a compatibility contract: the
//! run-granular level walk, the table-driven Huffman coder, and the
//! parallel chunk pipeline are all required to produce output
//! byte-identical to the original scalar implementations. These tests
//! pin the exact bytes (FNV-1a hash + length) of the streams produced
//! from a fixed datagen seed, so any refactor that perturbs traversal
//! order, canonical code assignment, or bit packing fails loudly here
//! rather than silently breaking archived data.
//!
//! The recorded constants were captured from the pre-refactor
//! (odometer-traversal, bit-at-a-time Huffman) implementation.

use qoz_suite::codec::{decompress, Compressor, ErrorBound, Scratch};
use qoz_suite::datagen::{Dataset, SizeClass};

/// FNV-1a, 64-bit. Dependency-free and stable across platforms.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn golden_case<C: Compressor<f32>>(c: &C, ds: Dataset, eps: f64) -> (usize, u64) {
    let data = ds.generate(SizeClass::Tiny, 0);
    let blob = c.compress(&data, ErrorBound::Rel(eps), &mut Scratch::new());
    // The stream must still round-trip within bound — a hash match on a
    // broken stream would be meaningless.
    let recon = decompress(c, &blob).expect("golden blob must decode");
    let abs = ErrorBound::Rel(eps).absolute(&data);
    assert!(data.max_abs_diff(&recon) <= abs * (1.0 + 1e-9));
    (blob.len(), fnv1a(&blob))
}

#[test]
fn sz3_streams_are_byte_identical_to_seed() {
    let c = qoz_suite::sz3::Sz3::default();
    let expect: [(Dataset, f64, usize, u64); 4] = [
        (Dataset::Miranda, 1e-3, 12836, 0xa60626d62c4385a4),
        (Dataset::Miranda, 1e-2, 3729, 0x0120643a2f223cca),
        (Dataset::CesmAtm, 1e-3, 6130, 0x3f8ccbf2c4fb0557),
        (Dataset::Nyx, 1e-3, 25639, 0x625f05a81f3e63a4),
    ];
    for (ds, eps, len, hash) in expect {
        let (got_len, got_hash) = golden_case(&c, ds, eps);
        assert_eq!(
            (got_len, got_hash),
            (len, hash),
            "sz3 stream changed for {ds:?} eps={eps:e}: got ({got_len}, {got_hash:#x})"
        );
    }
}

#[test]
fn qoz_streams_are_byte_identical_to_seed() {
    let c = qoz_suite::qoz::Qoz::default();
    let expect: [(Dataset, f64, usize, u64); 3] = [
        (Dataset::Miranda, 1e-3, 12809, 0xf09f5ff06c6c54f4),
        (Dataset::CesmAtm, 1e-3, 6143, 0x1a46cc7eb06a1027),
        (Dataset::Hurricane, 1e-2, 8246, 0x096d288f9fe01d4e),
    ];
    for (ds, eps, len, hash) in expect {
        let (got_len, got_hash) = golden_case(&c, ds, eps);
        assert_eq!(
            (got_len, got_hash),
            (len, hash),
            "qoz stream changed for {ds:?} eps={eps:e}: got ({got_len}, {got_hash:#x})"
        );
    }
}

/// Deterministic f64 field: the seeded f32 dataset widened per element
/// (exact, so the stream depends only on the datagen seed).
fn wide_field(ds: Dataset) -> qoz_suite::tensor::NdArray<f64> {
    let f = ds.generate(SizeClass::Tiny, 0);
    qoz_suite::tensor::NdArray::from_vec(
        f.shape(),
        f.as_slice().iter().map(|&v| v as f64).collect(),
    )
}

fn golden_case_f64<C: Compressor<f64>>(c: &C, ds: Dataset, eps: f64) -> (usize, u64) {
    let data = wide_field(ds);
    let blob = c.compress(&data, ErrorBound::Rel(eps), &mut Scratch::new());
    let recon = decompress(c, &blob).expect("golden blob must decode");
    let abs = ErrorBound::Rel(eps).absolute(&data);
    assert!(data.max_abs_diff(&recon) <= abs * (1.0 + 1e-9));
    (blob.len(), fnv1a(&blob))
}

/// The f64 side of the format contract: the double-precision encode path
/// (8-byte unpredictable/anchor records, f64 Kraft accounting in the
/// Huffman table check) is pinned with its own golden constants.
#[test]
fn sz3_f64_streams_are_byte_identical_to_seed() {
    let c = qoz_suite::sz3::Sz3::default();
    let expect: [(Dataset, f64, usize, u64); 2] = [
        (Dataset::Miranda, 1e-3, 12852, 0xa2b3a336bc7e5a8e),
        (Dataset::CesmAtm, 1e-3, 6130, 0x912a9908483c668d),
    ];
    for (ds, eps, len, hash) in expect {
        let (got_len, got_hash) = golden_case_f64(&c, ds, eps);
        assert_eq!(
            (got_len, got_hash),
            (len, hash),
            "sz3 f64 stream changed for {ds:?} eps={eps:e}: got ({got_len}, {got_hash:#x})"
        );
    }
}

#[test]
fn qoz_f64_streams_are_byte_identical_to_seed() {
    let c = qoz_suite::qoz::Qoz::default();
    let expect: [(Dataset, f64, usize, u64); 2] = [
        (Dataset::Miranda, 1e-3, 12813, 0xd7806195949d9ed7),
        (Dataset::Hurricane, 1e-2, 8262, 0xb44c6fab85a98c7a),
    ];
    for (ds, eps, len, hash) in expect {
        let (got_len, got_hash) = golden_case_f64(&c, ds, eps);
        assert_eq!(
            (got_len, got_hash),
            (len, hash),
            "qoz f64 stream changed for {ds:?} eps={eps:e}: got ({got_len}, {got_hash:#x})"
        );
    }
}

/// The warm pipeline path (cached plan + reused scratch arena) must emit
/// the same pinned bytes as the cold path: caching changes when work
/// happens, never what is written. Both the cold (first) and warm
/// (second) pipeline calls are checked against the golden constants of
/// the allocating implementation above.
#[test]
fn warm_pipeline_streams_match_cold_golden() {
    use qoz_suite::api::Session;

    let expect: [(Dataset, f64, usize, u64); 2] = [
        (Dataset::Miranda, 1e-3, 12809, 0xf09f5ff06c6c54f4),
        (Dataset::CesmAtm, 1e-3, 6143, 0x1a46cc7eb06a1027),
    ];
    for (ds, eps, len, hash) in expect {
        let data = ds.generate(SizeClass::Tiny, 0);
        let session = Session::builder()
            .bound(ErrorBound::Rel(eps))
            .build()
            .unwrap();
        let mut pipe = session.pipeline::<f32>();
        for (pass, label) in [(0, "cold"), (1, "warm")] {
            let blob = pipe.compress(&data).unwrap().blob;
            assert_eq!(
                (blob.len(), fnv1a(&blob)),
                (len, hash),
                "{label} pipeline stream changed for {ds:?} eps={eps:e} (pass {pass})"
            );
        }
        assert_eq!(
            pipe.stats().warm_hits,
            1,
            "{ds:?}: second pass must be warm"
        );
    }
}

/// The baselines share the codec substrate (`ByteWriter`, Huffman, LZSS
/// and the stream container) with SZ3/QoZ, so their streams are pinned
/// too: a change to the shared byte I/O that only SZ2, ZFP or MGARD
/// exercises fails here. Every case is computed before asserting so one
/// failure reports all drifted pins.
fn check_baselines(cases: [(&str, Dataset, f64, usize, u64); 3], wide: bool) {
    let mut drifted = Vec::new();
    for (name, ds, eps, len, hash) in cases {
        let got = match (name, wide) {
            ("sz2", false) => golden_case(&qoz_suite::sz2::Sz2::default(), ds, eps),
            ("zfp", false) => golden_case(&qoz_suite::zfp::Zfp, ds, eps),
            ("mgard", false) => golden_case(&qoz_suite::mgard::Mgard, ds, eps),
            ("sz2", true) => golden_case_f64(&qoz_suite::sz2::Sz2::default(), ds, eps),
            ("zfp", true) => golden_case_f64(&qoz_suite::zfp::Zfp, ds, eps),
            ("mgard", true) => golden_case_f64(&qoz_suite::mgard::Mgard, ds, eps),
            _ => unreachable!("unknown baseline {name}"),
        };
        if got != (len, hash) {
            drifted.push(format!(
                "{name} {ds:?} eps={eps:e}: got ({}, {:#x})",
                got.0, got.1
            ));
        }
    }
    let width = if wide { "f64" } else { "f32" };
    assert!(
        drifted.is_empty(),
        "{width} baseline streams changed: {drifted:#?}"
    );
}

#[test]
fn baseline_streams_are_byte_identical_to_seed() {
    check_baselines(
        [
            ("sz2", Dataset::Miranda, 1e-3, 14018, 0x4aab33d731f29303),
            ("zfp", Dataset::CesmAtm, 1e-3, 11694, 0x60ea15609ff2dbf4),
            ("mgard", Dataset::Hurricane, 1e-2, 12325, 0x115403e6e3c86936),
        ],
        false,
    );
}

#[test]
fn baseline_f64_streams_are_byte_identical_to_seed() {
    check_baselines(
        [
            ("sz2", Dataset::Miranda, 1e-3, 14010, 0xf42b67493cfcfa0e),
            ("zfp", Dataset::CesmAtm, 1e-3, 11694, 0x151afe76dabb34b2),
            ("mgard", Dataset::Hurricane, 1e-2, 12325, 0x1418c90bf3a5b5b8),
        ],
        true,
    );
}
