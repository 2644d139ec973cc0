//! Scalar-vs-vector kernel equivalence suite.
//!
//! The one vectorized hot loop, the compress-side block quantizer, runs
//! on the ISA fixed at compile time (SSE2 on x86_64, NEON on aarch64)
//! and carries a hard contract: **bit-identical output to the scalar
//! reference**. These tests check the contract at three layers — kernel
//! blocks against the scalar oracle under proptest (all lane widths,
//! odd tails, f32 + f64, unpredictable-heavy inputs), the whole QoZ
//! stream byte-for-byte on both paths through the engine's explicit
//! path seam, and the golden-bitstream pins re-asserted on both paths.
//! The CI `test-scalar` job runs this same suite with
//! `QOZ_FORCE_SCALAR=1`, so both the env override and the compiled-in
//! path are covered.

use proptest::prelude::*;
use qoz_suite::codec::simd::{quantize_block, KernelPath, QuantSpec, BLOCK};
use qoz_suite::codec::stream::{CompressorId, Header};
use qoz_suite::codec::{decompress, Compressor, ErrorBound, LinearQuantizer, Scratch};
use qoz_suite::datagen::{Dataset, SizeClass};
use qoz_suite::qoz::Qoz;
use qoz_suite::sz3::engine;
use qoz_suite::tensor::{NdArray, Scalar};

/// FNV-1a, 64-bit — same pinning hash as `golden_bitstream.rs`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The compiled-in vector path and the scalar reference (the same path
/// twice on targets without a vector kernel).
const PATHS: [KernelPath; 2] = [KernelPath::NATIVE, KernelPath::Scalar];

/// A default QoZ stream whose engine pass runs on `path`: the tuned plan
/// and the stream assembly of `Qoz::compress`, with the kernel pinned.
/// Also returns the compress-side reconstruction, which the decoder
/// must reproduce bit-for-bit.
fn qoz_stream<T: Scalar>(path: KernelPath, data: &NdArray<T>, eps: f64) -> (Vec<u8>, Vec<T>) {
    let plan = Qoz::default().plan(data, ErrorBound::Rel(eps));
    let mut scratch = Scratch::new();
    engine::compress_with_spec_path(data, &plan.spec, &mut scratch, path);
    let recon = scratch.work.clone();
    let header = Header {
        compressor: CompressorId::Qoz,
        scalar_tag: T::TYPE_TAG,
        shape: data.shape(),
        abs_eb: plan.abs_eb,
        temporal: None,
    };
    (
        engine::write_stream(&header, &plan.spec, &mut scratch),
        recon,
    )
}

fn wide_field(ds: Dataset) -> NdArray<f64> {
    let f = ds.generate(SizeClass::Tiny, 0);
    NdArray::from_vec(f.shape(), f.as_slice().iter().map(|&v| v as f64).collect())
}

fn same_bits<T: Scalar>(a: &[T], b: &[T]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.to_f64().to_bits() == y.to_f64().to_bits())
}

// ---------------------------------------------------------------------------
// Kernel-block equivalence (proptest)
// ---------------------------------------------------------------------------

/// Run `quantize_block` on one path and flatten the outputs.
fn quantize_via<T: Scalar>(
    path: KernelPath,
    spec: &QuantSpec,
    vals: &[T],
    preds: &[f64],
) -> (Vec<u32>, Vec<u64>) {
    let n = vals.len();
    let mut vals_f = vec![0f64; n];
    let mut codes = vec![0u32; n];
    let mut recons = vec![T::from_f64(0.0); n];
    for (k, (v, p)) in vals.chunks(BLOCK).zip(preds.chunks(BLOCK)).enumerate() {
        let lo = k * BLOCK;
        let hi = lo + v.len();
        quantize_block(
            path,
            spec,
            v,
            p,
            &mut vals_f[lo..hi],
            &mut codes[lo..hi],
            &mut recons[lo..hi],
        );
    }
    (codes, recons.iter().map(|r| r.to_f64().to_bits()).collect())
}

/// Value/prediction pairs spanning the regular case, the
/// unpredictable-heavy case (predictions far off), and specials.
fn quant_inputs(n: usize) -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    let val = prop_oneof![
        8 => -1e6f64..1e6f64,
        2 => -1.0f64..1.0f64,
        1 => Just(0.0f64),
        1 => Just(-0.0f64),
        1 => Just(f64::NAN),
        1 => Just(f64::INFINITY),
        1 => Just(1e300f64),
    ];
    let off = prop_oneof![
        // Near the prediction: regular codes.
        6 => -1e-2f64..1e-2f64,
        // Way off: unpredictable lanes.
        3 => prop_oneof![-1e12f64..-1e9, 1e9f64..1e12],
        1 => Just(0.0f64),
    ];
    (
        proptest::collection::vec(val, n),
        proptest::collection::vec(off, n),
    )
        .prop_map(|(vals, offs)| {
            let preds = vals
                .iter()
                .zip(&offs)
                .map(|(v, o)| if v.is_finite() { v + o } else { *o })
                .collect();
            (vals, preds)
        })
}

proptest! {
    // Bounded and reproducible, like the tier-1 roundtrip properties.
    #![proptest_config(ProptestConfig::with_cases(48).with_rng_seed(0x51_C0DE))]

    /// Quantizer blocks: both paths must agree bit-for-bit with the
    /// per-point scalar quantizer on codes AND reconstructions, for f64
    /// and the narrowing f32 case, on odd tail lengths.
    #[test]
    fn quantize_block_matches_scalar_oracle(
        vp in (1usize..3 * BLOCK + 6).prop_flat_map(quant_inputs),
        eb in prop_oneof![Just(1e-9f64), Just(1e-3), Just(1.0), Just(1e6)],
    ) {
        let (vals, preds) = vp;
        let n = vals.len();
        let q = LinearQuantizer::new(eb);
        let spec = QuantSpec::from_quantizer(&q);

        // Scalar oracle: the per-point quantizer.
        let oracle: Vec<(u32, u64)> = vals
            .iter()
            .zip(&preds)
            .map(|(&v, &p)| {
                let out = q.quantize(v, p);
                (out.code, out.reconstructed.to_bits())
            })
            .collect();
        let oracle32: Vec<(u32, u64)> = vals
            .iter()
            .zip(&preds)
            .map(|(&v, &p)| {
                let out = q.quantize(v as f32, p);
                (out.code, (out.reconstructed as f64).to_bits())
            })
            .collect();

        let vals32: Vec<f32> = vals.iter().map(|&v| v as f32).collect();
        for path in PATHS {
            let (codes, recons) = quantize_via(path, &spec, &vals, &preds);
            for k in 0..n {
                prop_assert!(
                    (codes[k], recons[k]) == oracle[k],
                    "f64 lane {k} diverged on {path}: got {:?}, want {:?}",
                    (codes[k], recons[k]),
                    oracle[k]
                );
            }
            let (codes, recons) = quantize_via(path, &spec, &vals32, &preds);
            for k in 0..n {
                prop_assert!(
                    (codes[k], recons[k]) == oracle32[k],
                    "f32 lane {k} diverged on {path}: got {:?}, want {:?}",
                    (codes[k], recons[k]),
                    oracle32[k]
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Whole-stream byte equality across paths
// ---------------------------------------------------------------------------

/// A full compress on the vector path must emit the same bytes as the
/// scalar path, and the (single, per-point) decoder must reproduce the
/// compress-side reconstruction of either path bit-for-bit.
#[test]
fn engine_streams_identical_on_every_path() {
    for ds in [Dataset::Miranda, Dataset::CesmAtm, Dataset::Hurricane] {
        let data = ds.generate(SizeClass::Tiny, 0);
        let (want, _) = qoz_stream(KernelPath::Scalar, &data, 1e-3);
        for path in PATHS {
            let (blob, recon) = qoz_stream(path, &data, 1e-3);
            assert_eq!(blob, want, "{ds:?}: compress bytes diverged on {path}");
            let decoded: NdArray<f32> = decompress(&Qoz::default(), &blob).unwrap();
            assert!(
                same_bits(decoded.as_slice(), &recon),
                "{ds:?}: decode diverged from the {path} compress-side reconstruction"
            );
        }
    }
}

/// The same contract for the f64 engine (8-byte unpredictable records,
/// wider loads in the kernel).
#[test]
fn engine_streams_identical_on_every_path_f64() {
    let data = wide_field(Dataset::Miranda);
    let (want, _) = qoz_stream(KernelPath::Scalar, &data, 1e-3);
    for path in PATHS {
        let (blob, recon) = qoz_stream(path, &data, 1e-3);
        assert_eq!(blob, want, "f64 compress bytes diverged on {path}");
        let decoded: NdArray<f64> = decompress(&Qoz::default(), &blob).unwrap();
        assert!(
            same_bits(decoded.as_slice(), &recon),
            "f64 decode diverged from the {path} compress-side reconstruction"
        );
    }
}

// ---------------------------------------------------------------------------
// Golden pins under explicit paths
// ---------------------------------------------------------------------------

/// The QoZ golden-bitstream constants from `golden_bitstream.rs`,
/// re-pinned with the engine explicitly on each path, plus the default
/// `Compressor` entry point on whatever path the process selected.
#[test]
fn golden_pins_hold_on_every_path() {
    let expect: [(Dataset, f64, usize, u64); 3] = [
        (Dataset::Miranda, 1e-3, 12809, 0xf09f5ff06c6c54f4),
        (Dataset::CesmAtm, 1e-3, 6143, 0x1a46cc7eb06a1027),
        (Dataset::Hurricane, 1e-2, 8246, 0x096d288f9fe01d4e),
    ];
    for (ds, eps, len, hash) in expect {
        let data = ds.generate(SizeClass::Tiny, 0);
        let default: Vec<u8> =
            Qoz::default().compress(&data, ErrorBound::Rel(eps), &mut Scratch::new());
        let mut blobs = vec![("default".to_string(), default)];
        for path in PATHS {
            blobs.push((path.to_string(), qoz_stream(path, &data, eps).0));
        }
        for (label, blob) in blobs {
            assert_eq!(
                (blob.len(), fnv1a(&blob)),
                (len, hash),
                "golden pin broke for {ds:?} eps={eps:e} on {label}"
            );
        }
    }
}

/// The f64 golden pins under the same explicit-path sweep.
#[test]
fn golden_f64_pins_hold_on_every_path() {
    let expect: [(Dataset, f64, usize, u64); 2] = [
        (Dataset::Miranda, 1e-3, 12813, 0xd7806195949d9ed7),
        (Dataset::Hurricane, 1e-2, 8262, 0xb44c6fab85a98c7a),
    ];
    for (ds, eps, len, hash) in expect {
        let data = wide_field(ds);
        let default: Vec<u8> =
            Qoz::default().compress(&data, ErrorBound::Rel(eps), &mut Scratch::new());
        let mut blobs = vec![("default".to_string(), default)];
        for path in PATHS {
            blobs.push((path.to_string(), qoz_stream(path, &data, eps).0));
        }
        for (label, blob) in blobs {
            assert_eq!(
                (blob.len(), fnv1a(&blob)),
                (len, hash),
                "f64 golden pin broke for {ds:?} eps={eps:e} on {label}"
            );
        }
    }
}
