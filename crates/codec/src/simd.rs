//! The one vector kernel: block-granular linear-scale quantization.
//!
//! [`quantize_block`] is the block version of
//! [`LinearQuantizer::quantize`]: the engine hands over a batch of
//! values and predictions, the kernel returns codes and reconstructions
//! for every lane. Its ISA is fixed at compile time — SSE2 on x86_64 and
//! NEON on aarch64 (both baseline features of their architectures, so
//! there is no runtime detection), the scalar reference elsewhere.
//! Setting `QOZ_FORCE_SCALAR=1` in the environment pins the scalar
//! reference for the whole process (read once, cached), the escape
//! hatch for bisecting a suspected kernel bug.
//!
//! Every path is **bit-identical** to the scalar quantizer — same codes,
//! same reconstructed bits, on every input including NaN/Inf and
//! out-of-range residuals — which is what lets the compressed golden
//! bitstreams stay pinned whichever path ran.
//!
//! The two places bit-identity needs actual care:
//!
//! * **Rounding.** Rust's `f64::round()` rounds half *away from zero*;
//!   the x86 vector conversions only offer round-to-nearest-*even* or
//!   truncation. The SSE2 kernel emulates away-from-zero exactly:
//!   truncate toward zero, then bump by one where the (exactly
//!   representable) fractional part reaches ±0.5. On aarch64 `FRINTA`
//!   natively rounds ties away.
//! * **No FMA, no reciprocal.** The scalar reference divides by `2e` and
//!   rounds the product `2e·q` before adding the prediction; the vector
//!   code uses the same `div`/`mul`+`add` sequence so every intermediate
//!   rounds identically.
//!
//! Non-finite values fold into the range mask for free: ordered vector
//! compares are false on NaN, so NaN/Inf lanes land in the
//! "unpredictable" fixup exactly like the scalar early returns.

use crate::quantizer::LinearQuantizer;
use qoz_tensor::Scalar;
use std::sync::OnceLock;

/// Which implementation [`quantize_block`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelPath {
    /// SSE2: 2×f64 lanes (x86_64 baseline).
    Sse2,
    /// NEON: 2×f64 lanes (aarch64 baseline).
    Neon,
    /// Portable scalar reference (any target).
    Scalar,
}

impl KernelPath {
    /// The vector path this build compiles in: SSE2 on x86_64, NEON on
    /// aarch64, scalar on every other target.
    pub const NATIVE: KernelPath = if cfg!(target_arch = "x86_64") {
        KernelPath::Sse2
    } else if cfg!(target_arch = "aarch64") {
        KernelPath::Neon
    } else {
        KernelPath::Scalar
    };

    /// Stable lowercase name, used in telemetry labels and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            KernelPath::Sse2 => "sse2",
            KernelPath::Neon => "neon",
            KernelPath::Scalar => "scalar",
        }
    }
}

impl std::fmt::Display for KernelPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The path the engine runs: [`KernelPath::NATIVE`] unless
/// `QOZ_FORCE_SCALAR=1` pins [`KernelPath::Scalar`]. Cached per process.
pub fn selected() -> KernelPath {
    static SELECTED: OnceLock<KernelPath> = OnceLock::new();
    *SELECTED.get_or_init(|| {
        if std::env::var("QOZ_FORCE_SCALAR").is_ok_and(|v| v == "1") {
            KernelPath::Scalar
        } else {
            KernelPath::NATIVE
        }
    })
}

/// Comma-separated list of the vector feature sets the running CPU
/// advertises. Informational only (nothing dispatches on it): recorded
/// in bench headers so before/after numbers are apples-to-apples.
pub fn cpu_features() -> String {
    let mut feats: Vec<&str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            feats.push("avx2");
        }
        feats.push("sse2");
    }
    #[cfg(target_arch = "aarch64")]
    feats.push("neon");
    if feats.is_empty() {
        feats.push("none");
    }
    feats.join(",")
}

/// Maximum lanes per [`quantize_block`] call.
/// Callers chunk longer runs; the kernels keep per-block staging on the
/// stack.
pub const BLOCK: usize = 64;

/// Quantizer constants pre-derived for the block kernels.
#[derive(Debug, Clone, Copy)]
pub struct QuantSpec {
    /// The absolute error bound `e`.
    pub e: f64,
    /// `2e`, the quantization bucket width.
    pub two_e: f64,
    /// `(radius - 1) as f64`: residuals at or beyond this are
    /// unpredictable.
    pub limit: f64,
    /// `radius as f64` (exact; the radius is capped at 2^30).
    pub radius_f: f64,
}

impl QuantSpec {
    /// Largest radius the vector kernels accept: codes stay well inside
    /// i32 range so the f64→i32 conversions are value-preserving.
    /// Stream and plan decoders cap radii far below it, at `2^24`.
    pub const MAX_RADIUS: u32 = 1 << 30;

    /// Derive the block-kernel constants from a quantizer.
    ///
    /// # Panics
    /// Panics if the quantizer's radius exceeds [`Self::MAX_RADIUS`].
    pub fn from_quantizer(q: &LinearQuantizer) -> Self {
        assert!(
            q.radius() <= Self::MAX_RADIUS,
            "quantizer radius {} exceeds the block kernel's {}",
            q.radius(),
            Self::MAX_RADIUS
        );
        QuantSpec {
            e: q.error_bound(),
            two_e: 2.0 * q.error_bound(),
            limit: (q.radius() - 1) as f64,
            radius_f: q.radius() as f64,
        }
    }
}

/// Quantize a block of values against their predictions, exactly as
/// per-point [`LinearQuantizer::quantize`] would.
///
/// Outputs, for every lane `k`:
/// * `vals_f[k]` — `vals[k].to_f64()` (the engine reuses it for the
///   prediction-error statistic),
/// * `codes[k]` — the Huffman-ready code, `0` for unpredictable lanes,
/// * `recons[k]` — the reconstruction (the original value when
///   unpredictable).
///
/// All slices must have the same length, at most [`BLOCK`]. A `path`
/// this build has no vector code for runs the scalar reference.
pub fn quantize_block<T: Scalar>(
    path: KernelPath,
    spec: &QuantSpec,
    vals: &[T],
    preds: &[f64],
    vals_f: &mut [f64],
    codes: &mut [u32],
    recons: &mut [T],
) {
    let n = vals.len();
    assert!(n <= BLOCK, "block too large: {n} > {BLOCK}");
    assert!(preds.len() == n && vals_f.len() == n && codes.len() == n && recons.len() == n);
    for k in 0..n {
        vals_f[k] = vals[k].to_f64();
    }
    let mut recons_f = [0f64; BLOCK];
    quantize_core(path, spec, vals_f, preds, codes, &mut recons_f[..n]);
    // Per-lane epilogue: the narrowing bound check through T and the
    // unpredictable fallback, mirroring the scalar quantizer's tail.
    for k in 0..n {
        if codes[k] != 0 {
            let recon = T::from_f64(recons_f[k]);
            if (recon.to_f64() - vals_f[k]).abs() <= spec.e {
                recons[k] = recon;
                continue;
            }
            codes[k] = 0;
        }
        recons[k] = vals[k];
    }
}

/// Core contract shared by every path: for lane `k`, when
/// `|(v-p)/2e| < limit` set `codes[k] = round(scaled) + radius` (always
/// non-zero) and `recons_f[k] = p + 2e·round(scaled)`; otherwise set
/// `codes[k] = 0` (NaN/Inf lanes compare false and land here). All four
/// slices have the same length (checked by [`quantize_block`]).
#[allow(unsafe_code)]
fn quantize_core(
    path: KernelPath,
    spec: &QuantSpec,
    vals_f: &[f64],
    preds: &[f64],
    codes: &mut [u32],
    recons_f: &mut [f64],
) {
    match path {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is a baseline feature of x86_64, and the caller
        // passes slices of one length.
        KernelPath::Sse2 => unsafe { x86::quantize_sse2(spec, vals_f, preds, codes, recons_f) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is a baseline feature of aarch64, and the caller
        // passes slices of one length.
        KernelPath::Neon => unsafe { neon::quantize_neon(spec, vals_f, preds, codes, recons_f) },
        _ => quantize_scalar(spec, vals_f, preds, codes, recons_f),
    }
}

/// Scalar realization of the core contract; also handles vector tails.
/// The arithmetic is lifted verbatim from [`LinearQuantizer::quantize`]
/// (with `2e` hoisted, as the quantizer itself recomputes it per point
/// from the same constant operands).
fn quantize_scalar(
    spec: &QuantSpec,
    vals_f: &[f64],
    preds: &[f64],
    codes: &mut [u32],
    recons_f: &mut [f64],
) {
    for k in 0..vals_f.len() {
        let scaled = (vals_f[k] - preds[k]) / spec.two_e;
        if scaled.abs() < spec.limit {
            let r = scaled.round();
            codes[k] = (r + spec.radius_f) as u32;
            recons_f[k] = preds[k] + spec.two_e * r;
        } else {
            codes[k] = 0;
        }
    }
}

// Vector intrinsics are inherently `unsafe fn`s. The raw loads and
// stores stay in bounds because every lane index is below
// `n = vals_f.len()` (the `k + lanes <= n` loop guards) and the other
// slices are at least that long.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use super::{quantize_scalar, QuantSpec};
    use core::arch::x86_64::*;

    /// SSE2 realization of the core contract.
    ///
    /// # Safety
    ///
    /// The CPU must support SSE2, and `preds`, `codes` and `recons_f`
    /// must be at least as long as `vals_f`.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn quantize_sse2(
        spec: &QuantSpec,
        vals_f: &[f64],
        preds: &[f64],
        codes: &mut [u32],
        recons_f: &mut [f64],
    ) {
        let n = vals_f.len();
        let two_e = _mm_set1_pd(spec.two_e);
        let limit = _mm_set1_pd(spec.limit);
        let radius = _mm_set1_pd(spec.radius_f);
        let half = _mm_set1_pd(0.5);
        let neg_half = _mm_set1_pd(-0.5);
        let one = _mm_set1_pd(1.0);
        let abs_mask = _mm_castsi128_pd(_mm_set1_epi64x(i64::MAX));
        let mut k = 0usize;
        while k + 2 <= n {
            let v = _mm_loadu_pd(vals_f.as_ptr().add(k));
            let p = _mm_loadu_pd(preds.as_ptr().add(k));
            let scaled = _mm_div_pd(_mm_sub_pd(v, p), two_e);
            let in_range = _mm_cmplt_pd(_mm_and_pd(scaled, abs_mask), limit);
            // SSE2 has no ROUNDPD; truncate through i32 instead. In-range
            // lanes satisfy |scaled| < 2^30 so the trip is exact;
            // out-of-range lanes produce garbage the mask discards.
            let t = _mm_cvtepi32_pd(_mm_cvttpd_epi32(scaled));
            let frac = _mm_sub_pd(scaled, t);
            let bump_pos = _mm_and_pd(_mm_cmpge_pd(frac, half), one);
            let bump_neg = _mm_and_pd(_mm_cmple_pd(frac, neg_half), one);
            let r = _mm_sub_pd(_mm_add_pd(t, bump_pos), bump_neg);
            let code = _mm_cvtpd_epi32(_mm_add_pd(r, radius));
            // Low 32 bits of each 64-bit mask lane → i32 mask lanes 0,1.
            let m32 = _mm_shuffle_epi32::<0b11_11_10_00>(_mm_castpd_si128(in_range));
            let masked = _mm_and_si128(code, m32);
            _mm_storel_epi64(codes.as_mut_ptr().add(k) as *mut __m128i, masked);
            let rec = _mm_add_pd(p, _mm_mul_pd(two_e, r));
            _mm_storeu_pd(recons_f.as_mut_ptr().add(k), rec);
            k += 2;
        }
        quantize_scalar(
            spec,
            &vals_f[k..],
            &preds[k..],
            &mut codes[k..],
            &mut recons_f[k..],
        );
    }
}

// See the `x86` module note on `unsafe`; NEON is baseline on aarch64.
#[cfg(target_arch = "aarch64")]
#[allow(unsafe_code)]
mod neon {
    use super::{quantize_scalar, QuantSpec};
    use core::arch::aarch64::*;

    /// NEON realization of the core contract.
    ///
    /// # Safety
    ///
    /// The CPU must support NEON, and `preds`, `codes` and `recons_f`
    /// must be at least as long as `vals_f`.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn quantize_neon(
        spec: &QuantSpec,
        vals_f: &[f64],
        preds: &[f64],
        codes: &mut [u32],
        recons_f: &mut [f64],
    ) {
        let n = vals_f.len();
        let two_e = vdupq_n_f64(spec.two_e);
        let limit = vdupq_n_f64(spec.limit);
        let radius = vdupq_n_f64(spec.radius_f);
        let mut k = 0usize;
        while k + 2 <= n {
            let v = vld1q_f64(vals_f.as_ptr().add(k));
            let p = vld1q_f64(preds.as_ptr().add(k));
            let scaled = vdivq_f64(vsubq_f64(v, p), two_e);
            let in_range = vcltq_f64(vabsq_f64(scaled), limit);
            // FRINTA rounds ties away from zero — exactly f64::round().
            let r = vrndaq_f64(scaled);
            let code64 = vcvtq_s64_f64(vaddq_f64(r, radius));
            let code32 = vreinterpret_u32_s32(vmovn_s64(code64));
            let masked = vand_u32(code32, vmovn_u64(in_range));
            vst1_u32(codes.as_mut_ptr().add(k), masked);
            let rec = vaddq_f64(p, vmulq_f64(two_e, r));
            vst1q_f64(recons_f.as_mut_ptr().add(k), rec);
            k += 2;
        }
        quantize_scalar(
            spec,
            &vals_f[k..],
            &preds[k..],
            &mut codes[k..],
            &mut recons_f[k..],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantizer::LinearQuantizer;

    /// The compiled-in vector path and the scalar reference (the same
    /// path twice on targets without one).
    const PATHS: [KernelPath; 2] = [KernelPath::NATIVE, KernelPath::Scalar];

    fn check_block_f64(path: KernelPath, q: &LinearQuantizer, vals: &[f64], preds: &[f64]) {
        let spec = QuantSpec::from_quantizer(q);
        let n = vals.len();
        let mut vals_f = vec![0f64; n];
        let mut codes = vec![0u32; n];
        let mut recons = vec![0f64; n];
        quantize_block(
            path,
            &spec,
            vals,
            preds,
            &mut vals_f,
            &mut codes,
            &mut recons,
        );
        for k in 0..n {
            let want = q.quantize(vals[k], preds[k]);
            assert_eq!(codes[k], want.code, "{path} lane {k}: code mismatch");
            assert_eq!(
                recons[k].to_bits(),
                want.reconstructed.to_bits(),
                "{path} lane {k}: recon mismatch"
            );
        }
    }

    #[test]
    fn block_matches_scalar_quantizer_all_paths() {
        let q = LinearQuantizer::new(1e-3);
        // Lengths straddle the lane widths to exercise odd tails.
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 13, 64] {
            let vals: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 3.0).collect();
            let preds: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 0.37).sin() * 3.0 + 1e-4)
                .collect();
            for path in PATHS {
                check_block_f64(path, &q, &vals, &preds);
            }
        }
    }

    #[test]
    fn block_handles_specials_like_scalar() {
        let q = LinearQuantizer::with_radius(1e-6, 128);
        let vals = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            1.0,
            1e300,
            -1e300,
            5e-7,
            -5e-7,
            0.5f64.next_down() * 2e-6,
            1e-6,
        ];
        let preds = [
            0.0,
            0.0,
            0.0,
            f64::NAN,
            f64::INFINITY,
            1.0,
            -1e300,
            1e300,
            0.0,
            0.0,
            0.0,
            0.0,
        ];
        for path in PATHS {
            check_block_f64(path, &q, &vals, &preds);
        }
    }

    #[test]
    fn half_tie_rounds_away_from_zero_on_all_paths() {
        // scaled lands exactly on ±0.5 and on the nextafter(0.5) edge.
        let q = LinearQuantizer::new(0.5); // two_e = 1.0, scaled = v - p
        let vals = [
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            0.49999999999999994,
            -0.49999999999999994,
            3.5,
        ];
        let preds = [0.0; 8];
        for path in PATHS {
            check_block_f64(path, &q, &vals, &preds);
        }
    }

    #[test]
    fn f32_narrowing_check_matches_scalar() {
        let q = LinearQuantizer::new(1e-4);
        let spec = QuantSpec::from_quantizer(&q);
        // Large magnitudes where the f32 ULP exceeds the residual grid:
        // the narrowing bound check must reject exactly the same lanes.
        let vals: Vec<f32> = (0..32).map(|i| 1.0e7f32 + i as f32).collect();
        let preds: Vec<f64> = vals.iter().map(|&v| v as f64 + 3.3e-5).collect();
        let n = vals.len();
        for path in PATHS {
            let mut vals_f = vec![0f64; n];
            let mut codes = vec![0u32; n];
            let mut recons = vec![0f32; n];
            quantize_block(
                path,
                &spec,
                &vals,
                &preds,
                &mut vals_f,
                &mut codes,
                &mut recons,
            );
            for k in 0..n {
                let want = q.quantize(vals[k], preds[k]);
                assert_eq!(codes[k], want.code, "{path} lane {k}");
                assert_eq!(
                    recons[k].to_bits(),
                    want.reconstructed.to_bits(),
                    "{path} lane {k}"
                );
            }
        }
    }

    #[test]
    fn oversized_radius_rejected() {
        let q = LinearQuantizer::with_radius(1e-3, QuantSpec::MAX_RADIUS);
        assert_eq!(QuantSpec::from_quantizer(&q).radius_f, (1u64 << 30) as f64);
        let q = LinearQuantizer::with_radius(1e-3, QuantSpec::MAX_RADIUS + 1);
        assert!(std::panic::catch_unwind(|| QuantSpec::from_quantizer(&q)).is_err());
    }

    #[test]
    fn selected_is_native_unless_forced() {
        let forced = std::env::var("QOZ_FORCE_SCALAR").is_ok_and(|v| v == "1");
        let want = if forced {
            KernelPath::Scalar
        } else {
            KernelPath::NATIVE
        };
        assert_eq!(selected(), want);
        assert_eq!(selected(), selected());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(KernelPath::Sse2.name(), "sse2");
        assert_eq!(KernelPath::Neon.name(), "neon");
        assert_eq!(KernelPath::Scalar.name(), "scalar");
        assert_eq!(KernelPath::Sse2.to_string(), "sse2");
    }

    #[test]
    fn cpu_features_nonempty() {
        assert!(!cpu_features().is_empty());
    }
}
