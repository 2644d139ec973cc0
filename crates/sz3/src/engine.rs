//! The shared interpolation compression engine.
//!
//! Both SZ3 (fixed spec) and QoZ (tuned spec) run the same two-phase
//! procedure over an [`InterpSpec`]:
//!
//! 1. **Base grid** — anchored specs store every anchor-grid point
//!    losslessly (QoZ §V-B1); unanchored specs quantize the sparse corner
//!    grid against a zero prediction (SZ3's long-range start).
//! 2. **Level sweep** — levels `max_level .. 1` are traversed with the
//!    per-level interpolator; each predicted point is quantized with the
//!    per-level error bound and immediately overwritten with its
//!    reconstruction so later predictions see decompressor-identical
//!    values.
//!
//! Compress and decode walk each level through the one traversal,
//! [`traverse_level_runs`]: compress with a block sink that quantizes
//! whole interior runs through [`quantize_block`] (whose kernel path is
//! the only thing `QOZ_FORCE_SCALAR` changes), decode through the
//! per-point [`traverse_level`] view of the same walk.
//!
//! [`compress_with_spec_into`] leaves the full reconstruction in the
//! arena and returns the mean absolute prediction error — the two
//! quantities QoZ's online tuner needs — so a trial compression costs a
//! single pass.

use crate::spec::InterpSpec;
use qoz_codec::simd::{quantize_block, KernelPath, QuantSpec, BLOCK};
use qoz_codec::stream::{self, Header};
use qoz_codec::{ByteReader, ByteWriter, CodecError, LinearQuantizer, Result, Scratch};
use qoz_predict::{
    base_stride, fill_preds, for_each_base_point, traverse_level, traverse_level_runs, LineRun,
    RunSink,
};
use qoz_tensor::{NdArray, Scalar, Shape};

/// Publish the kernel path the compress engine runs as the
/// `qoz_kernel_path` gauge (1 on the active path, 0 on the others), so
/// a daemon silently running the scalar lanes is visible in
/// `qoz remote stats`. Only re-published when the path changes.
fn note_kernel_path(path: KernelPath) {
    use std::sync::atomic::{AtomicU8, Ordering};
    static LAST: AtomicU8 = AtomicU8::new(u8::MAX);
    if LAST.swap(path as u8, Ordering::Relaxed) == path as u8 {
        return;
    }
    for p in [KernelPath::Sse2, KernelPath::Neon, KernelPath::Scalar] {
        qoz_telemetry::global()
            .gauge("qoz_kernel_path", &[("path", p.name())])
            .set(u64::from(p == path));
    }
}

/// Per-pass statistics returned by [`compress_with_spec_into`] (the
/// streams and the reconstruction stay in the arena).
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Sum of `|value - prediction|` over all interpolated points.
    pub sum_abs_pred_err: f64,
    /// Number of interpolated points.
    pub pred_count: u64,
}

impl EngineStats {
    /// Mean absolute prediction error (the quantity Algorithm 1
    /// selects on).
    pub fn mean_abs_pred_err(&self) -> f64 {
        if self.pred_count == 0 {
            0.0
        } else {
            self.sum_abs_pred_err / self.pred_count as f64
        }
    }
}

/// Compress `data` according to `spec`, staging the pass in a reusable
/// arena.
///
/// On return, `scratch.bins`/`scratch.unpred`/`scratch.anchors` hold the
/// three engine streams and `scratch.work` holds the
/// decompressor-identical reconstruction. Buffers re-grow safely when
/// `data` is larger or shaped differently than the previous call.
pub fn compress_with_spec_into<T: Scalar>(
    data: &NdArray<T>,
    spec: &InterpSpec,
    scratch: &mut Scratch<T>,
) -> EngineStats {
    compress_with_spec_path(data, spec, scratch, qoz_codec::simd::selected())
}

/// [`compress_with_spec_into`] with an explicit kernel path instead of
/// the process-wide [`qoz_codec::simd::selected`] — the seam the
/// scalar-vs-vector equivalence tests drive. Output is bit-identical
/// across paths.
pub fn compress_with_spec_path<T: Scalar>(
    data: &NdArray<T>,
    spec: &InterpSpec,
    scratch: &mut Scratch<T>,
    path: KernelPath,
) -> EngineStats {
    let _span = qoz_telemetry::stages().predict_quantize.start();
    note_kernel_path(path);
    let shape = data.shape();
    scratch.clear();
    scratch.load_work(data.as_slice());
    scratch.bins.reserve(shape.len());
    let bins = &mut scratch.bins;
    let mut unpred = ByteWriter::from_vec(std::mem::take(&mut scratch.unpred));
    let mut anchors = ByteWriter::from_vec(std::mem::take(&mut scratch.anchors));
    let mut stats = EngineStats::default();

    match spec.anchor_stride {
        Some(a) => {
            // Anchors are stored losslessly and left untouched in `work`.
            let buf = &scratch.work[..];
            for_each_base_point(shape, a as usize, |off| {
                anchors.put_bytes(&buf[off].to_le_bytes_vec());
            });
        }
        None => {
            // Sparse corner grid, quantized against a zero prediction with
            // the tightest bound so no level's contract is violated.
            let q = LinearQuantizer::with_radius(spec.tightest_eb(), spec.quant_radius);
            let stride = base_stride(spec.max_level);
            let buf = &mut scratch.work[..];
            for_each_base_point(shape, stride, |off| {
                let v = buf[off];
                let qz = q.quantize(v, 0.0);
                if qz.code == 0 {
                    unpred.put_bytes(&v.to_le_bytes_vec());
                }
                bins.push(qz.code);
                buf[off] = qz.reconstructed;
            });
        }
    }

    for level in (1..=spec.max_level).rev() {
        let q = LinearQuantizer::with_radius(spec.eb_of(level), spec.quant_radius);
        let mut sink = CompressSink {
            qs: QuantSpec::from_quantizer(&q),
            q: &q,
            path,
            bins,
            unpred: &mut unpred,
            stats: &mut stats,
        };
        let cfg = spec.config_of(level);
        traverse_level_runs(&mut scratch.work[..], shape, level, cfg, &mut sink);
    }

    scratch.unpred = unpred.into_vec();
    scratch.anchors = anchors.into_vec();
    stats
}

/// Compress-side sink of the level walk. Boundary points go through the
/// per-point quantizer; per chunk of an interior run it fills the
/// stencil predictions, quantizes them as one block on `path`, then runs
/// the ordered epilogue (tuner statistics, unpredictable side stream,
/// store of reconstructions). Per-point results — and the order of every
/// stream — are exactly those of quantizing point by point.
struct CompressSink<'a> {
    q: &'a LinearQuantizer,
    qs: QuantSpec,
    path: KernelPath,
    bins: &'a mut Vec<u32>,
    unpred: &'a mut ByteWriter,
    stats: &'a mut EngineStats,
}

impl<T: Scalar> RunSink<T> for CompressSink<'_> {
    fn point(&mut self, data: &mut [T], off: usize, pred: f64) {
        let v = data[off];
        let err = v.to_f64() - pred;
        if err.is_finite() {
            self.stats.sum_abs_pred_err += err.abs();
        }
        self.stats.pred_count += 1;
        let qz = self.q.quantize(v, pred);
        if qz.code == 0 {
            self.unpred.put_bytes(&v.to_le_bytes_vec());
        }
        self.bins.push(qz.code);
        data[off] = qz.reconstructed;
    }

    fn run(&mut self, data: &mut [T], run: &LineRun) {
        let mut preds = [0f64; BLOCK];
        let mut vals = [T::zero(); BLOCK];
        let mut vals_f = [0f64; BLOCK];
        let mut codes = [0u32; BLOCK];
        let mut recons = [T::zero(); BLOCK];
        let mut done = 0usize;
        while done < run.cnt {
            let m = (run.cnt - done).min(BLOCK);
            let chunk = LineRun {
                off0: run.off0 + done * run.step,
                ..*run
            };
            fill_preds(data, &chunk, &mut preds[..m]);
            if run.step == 1 {
                vals[..m].copy_from_slice(&data[chunk.off0..chunk.off0 + m]);
            } else {
                let mut off = chunk.off0;
                for v in vals[..m].iter_mut() {
                    *v = data[off];
                    off += run.step;
                }
            }
            quantize_block(
                self.path,
                &self.qs,
                &vals[..m],
                &preds[..m],
                &mut vals_f[..m],
                &mut codes[..m],
                &mut recons[..m],
            );
            // Ordered epilogue: the prediction-error sum must accumulate
            // in traversal order (FP addition is not associative and the
            // sum steers the QoZ tuner), and unpredictable values must
            // hit the side stream in bin order.
            let mut off = chunk.off0;
            for k in 0..m {
                let err = vals_f[k] - preds[k];
                if err.is_finite() {
                    self.stats.sum_abs_pred_err += err.abs();
                }
                if codes[k] == 0 {
                    self.unpred.put_bytes(&vals[k].to_le_bytes_vec());
                }
                data[off] = recons[k];
                off += run.step;
            }
            self.stats.pred_count += m as u64;
            self.bins.extend_from_slice(&codes[..m]);
            done += m;
        }
    }
}

/// Assemble a full self-describing stream from engine output staged in
/// `scratch` (written there by [`compress_with_spec_into`]): common
/// header, serialized spec, then the entropy-coded bins and the two
/// packed side streams. Shared by the SZ3 and QoZ compressors so the
/// framing exists exactly once.
pub fn write_stream<T: Scalar>(
    header: &Header,
    spec: &InterpSpec,
    scratch: &mut Scratch<T>,
) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(scratch.bins.len() / 4 + 64);
    stream::write_header(&mut w, header);
    spec.write(&mut w);
    {
        let _span = qoz_telemetry::stages().encode.start();
        qoz_codec::encode_bins_with(&scratch.bins, &mut scratch.entropy, &mut scratch.section);
    }
    w.put_len_prefixed(&scratch.section);
    {
        let _span = qoz_telemetry::stages().entropy.start();
        qoz_codec::lossless_compress_with(
            &scratch.unpred,
            &mut scratch.entropy,
            &mut scratch.section,
        );
        w.put_len_prefixed(&scratch.section);
        qoz_codec::lossless_compress_with(
            &scratch.anchors,
            &mut scratch.entropy,
            &mut scratch.section,
        );
    }
    w.put_len_prefixed(&scratch.section);
    w.finish()
}

/// Read and validate a stream header against the expected compressor id
/// and element type — the shared front half of every engine-backed
/// decoder (SZ3 and QoZ differ only in `expect` and the error message).
pub fn check_stream_header<T: Scalar>(
    r: &mut ByteReader,
    expect: stream::CompressorId,
    wrong_kind: &'static str,
) -> Result<Header> {
    let header = stream::read_header(r)?;
    if header.temporal.is_some() {
        // A temporal chain member's payload is a nested stream, not an
        // engine body — only chain-aware decoders (qoz_temporal,
        // qoz_api::Pipeline) may unwrap it.
        return Err(CodecError::Corrupt(
            "temporal chain member needs chain decode",
        ));
    }
    if header.compressor != expect {
        return Err(CodecError::Corrupt(wrong_kind));
    }
    if header.scalar_tag != T::TYPE_TAG {
        return Err(CodecError::Corrupt("scalar type mismatch"));
    }
    Ok(header)
}

/// Decode the body of a stream assembled by [`write_stream`] — spec,
/// entropy-coded bins, packed side streams — staging every section in
/// `scratch`, then rebuild the array into `out` (reshaped in place).
/// The read-side mirror of [`compress_with_spec_into`] +
/// [`write_stream`].
pub fn read_stream_into<T: Scalar>(
    r: &mut ByteReader,
    header: &Header,
    scratch: &mut Scratch<T>,
    out: &mut NdArray<T>,
) -> Result<()> {
    let spec = InterpSpec::read(r, header.shape)?;
    qoz_codec::decode_bins_with(
        r.get_len_prefixed()?,
        &mut scratch.entropy,
        &mut scratch.bins,
    )?;
    qoz_codec::lossless_decompress_with(
        r.get_len_prefixed()?,
        &mut scratch.entropy,
        &mut scratch.unpred,
    )?;
    qoz_codec::lossless_decompress_with(
        r.get_len_prefixed()?,
        &mut scratch.entropy,
        &mut scratch.anchors,
    )?;
    if decompress_with_spec_into(
        header.shape,
        &spec,
        &scratch.bins,
        &scratch.unpred,
        &scratch.anchors,
        out,
    )? {
        scratch.grows.bump();
    }
    Ok(())
}

/// Mirror of [`compress_with_spec_into`]: rebuild the array from the
/// three engine streams into `out`, which is reshaped to `shape`
/// (reusing its allocation when capacity allows, zero-filled first) and
/// rebuilt in place. Returns `true` when `out`'s backing buffer had to
/// grow, so callers tracking zero-allocation steady state can count the
/// event.
pub fn decompress_with_spec_into<T: Scalar>(
    shape: Shape,
    spec: &InterpSpec,
    bins: &[u32],
    unpred: &[u8],
    anchors: &[u8],
    out: &mut NdArray<T>,
) -> Result<bool> {
    let grew = out.reset_zeros(shape);
    let work = out;
    let mut bin_pos = 0usize;
    let mut unpred_r = ByteReader::new(unpred);
    let mut failed: Option<CodecError> = None;

    match spec.anchor_stride {
        Some(a) => {
            let mut ar = ByteReader::new(anchors);
            let buf = work.as_mut_slice();
            for_each_base_point(shape, a as usize, |off| {
                if failed.is_some() {
                    return;
                }
                match ar.get_bytes(T::BYTES) {
                    Ok(b) => buf[off] = T::from_le_slice(b),
                    Err(e) => failed = Some(e),
                }
            });
        }
        None => {
            let q = LinearQuantizer::with_radius(spec.tightest_eb(), spec.quant_radius);
            let stride = base_stride(spec.max_level);
            let buf = work.as_mut_slice();
            for_each_base_point(shape, stride, |off| {
                if failed.is_some() {
                    return;
                }
                let code = match bins.get(bin_pos) {
                    Some(&c) => c,
                    None => {
                        failed = Some(CodecError::UnexpectedEof);
                        return;
                    }
                };
                bin_pos += 1;
                if code == 0 {
                    match unpred_r.get_bytes(T::BYTES) {
                        Ok(b) => buf[off] = T::from_le_slice(b),
                        Err(e) => failed = Some(e),
                    }
                } else if code >= q.num_codes() {
                    failed = Some(CodecError::Corrupt("bin code out of range"));
                } else {
                    buf[off] = q.reconstruct(code, 0.0);
                }
            });
        }
    }
    if let Some(e) = failed {
        return Err(e);
    }

    for level in (1..=spec.max_level).rev() {
        let q = LinearQuantizer::with_radius(spec.eb_of(level), spec.quant_radius);
        let cfg = spec.config_of(level);
        traverse_level(
            work.as_mut_slice(),
            shape,
            level,
            cfg,
            &mut |buf, off, pred| {
                if failed.is_some() {
                    return;
                }
                let code = match bins.get(bin_pos) {
                    Some(&c) => c,
                    None => {
                        failed = Some(CodecError::UnexpectedEof);
                        return;
                    }
                };
                bin_pos += 1;
                if code == 0 {
                    match unpred_r.get_bytes(T::BYTES) {
                        Ok(b) => buf[off] = T::from_le_slice(b),
                        Err(e) => failed = Some(e),
                    }
                } else if code >= q.num_codes() {
                    failed = Some(CodecError::Corrupt("bin code out of range"));
                } else {
                    buf[off] = q.reconstruct(code, pred);
                }
            },
        );
        if let Some(e) = failed {
            return Err(e);
        }
    }

    if bin_pos != bins.len() {
        return Err(CodecError::Corrupt("trailing quantization bins"));
    }
    Ok(grew)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoz_predict::LevelConfig;

    fn decode<T: Scalar>(
        shape: Shape,
        spec: &InterpSpec,
        bins: &[u32],
        unpred: &[u8],
        anchors: &[u8],
    ) -> Result<NdArray<T>> {
        let mut out = NdArray::zeros(shape);
        decompress_with_spec_into(shape, spec, bins, unpred, anchors, &mut out)?;
        Ok(out)
    }

    /// One engine pass into a fresh arena.
    fn compress<T: Scalar>(data: &NdArray<T>, spec: &InterpSpec) -> (Scratch<T>, EngineStats) {
        let mut scratch = Scratch::new();
        let stats = compress_with_spec_into(data, spec, &mut scratch);
        (scratch, stats)
    }

    fn smooth_3d(n: usize) -> NdArray<f64> {
        NdArray::from_fn(Shape::d3(n, n, n), |i| {
            (i[0] as f64 * 0.2).sin() + (i[1] as f64 * 0.15).cos() + i[2] as f64 * 0.01
        })
    }

    #[test]
    fn recon_matches_decompressor_bit_exactly() {
        let data = smooth_3d(17);
        for spec in [
            InterpSpec::sz3(data.shape(), 1e-3, LevelConfig::default()),
            InterpSpec::anchored(8, 1e-3, LevelConfig::default()),
        ] {
            let (out, _) = compress(&data, &spec);
            let recon =
                decode::<f64>(data.shape(), &spec, &out.bins, &out.unpred, &out.anchors).unwrap();
            assert_eq!(out.work, recon.as_slice(), "spec {spec:?}");
        }
    }

    #[test]
    fn bound_respected_per_level_spec() {
        let data = smooth_3d(20);
        let mut spec = InterpSpec::anchored(16, 1e-2, LevelConfig::default());
        // Tighter bounds on higher levels, like QoZ's alpha/beta scheme.
        spec.level_ebs = vec![1e-2, 5e-3, 2.5e-3, 1.25e-3];
        let (out, _) = compress(&data, &spec);
        let recon = NdArray::from_vec(data.shape(), out.work);
        // The global contract is the loosest (level-1) bound.
        assert!(data.max_abs_diff(&recon) <= 1e-2 + 1e-14);
    }

    #[test]
    fn anchors_are_lossless() {
        let data = smooth_3d(16);
        let spec = InterpSpec::anchored(4, 1e-1, LevelConfig::default());
        let (out, _) = compress(&data, &spec);
        for_each_base_point(data.shape(), 4, |off| {
            assert_eq!(out.work[off], data.as_slice()[off]);
        });
    }

    #[test]
    fn bin_count_matches_point_count() {
        let data = smooth_3d(10);
        let spec = InterpSpec::sz3(data.shape(), 1e-3, LevelConfig::default());
        let (out, _) = compress(&data, &spec);
        assert_eq!(out.bins.len(), data.len());

        let anchored = InterpSpec::anchored(4, 1e-3, LevelConfig::default());
        let (out2, _) = compress(&data, &anchored);
        let n_anchors = qoz_predict::traverse::base_point_count(data.shape(), 4);
        assert_eq!(out2.bins.len(), data.len() - n_anchors);
        assert_eq!(out2.anchors.len(), n_anchors * 8);
    }

    #[test]
    fn missing_bins_detected() {
        let data = smooth_3d(8);
        let spec = InterpSpec::sz3(data.shape(), 1e-3, LevelConfig::default());
        let (out, _) = compress(&data, &spec);
        let short = &out.bins[..out.bins.len() - 1];
        assert!(decode::<f64>(data.shape(), &spec, short, &out.unpred, &out.anchors).is_err());
    }

    #[test]
    fn trailing_bins_detected() {
        let data = smooth_3d(8);
        let spec = InterpSpec::sz3(data.shape(), 1e-3, LevelConfig::default());
        let (out, _) = compress(&data, &spec);
        let mut long = out.bins.clone();
        long.push(32768);
        assert!(decode::<f64>(data.shape(), &spec, &long, &out.unpred, &out.anchors).is_err());
    }

    #[test]
    fn truncated_unpred_detected() {
        // Use random-ish incompressible data to force unpredictables.
        let data = NdArray::from_fn(Shape::d1(200), |i| {
            let x = qoz_datagen::noise::splitmix64(i[0] as u64);
            (x as f64 / u64::MAX as f64) * 1e6
        });
        let spec = InterpSpec::sz3(data.shape(), 1e-12, LevelConfig::default());
        let (out, _) = compress(&data, &spec);
        assert!(!out.unpred.is_empty(), "test needs unpredictable points");
        assert!(decode::<f64>(
            data.shape(),
            &spec,
            &out.bins,
            &out.unpred[..out.unpred.len() - 1],
            &out.anchors
        )
        .is_err());
    }

    #[test]
    fn prediction_error_lower_for_cubic_on_smooth_data() {
        let data = NdArray::from_fn(Shape::d2(65, 65), |i| {
            ((i[0] as f64) * 0.07).sin() * ((i[1] as f64) * 0.05).cos()
        });
        let mk = |kind| {
            let cfg = LevelConfig {
                kind,
                order: qoz_predict::DimOrder::Ascending,
            };
            let spec = InterpSpec::anchored(32, 1e-4, cfg);
            compress(&data, &spec).1.mean_abs_pred_err()
        };
        let linear = mk(qoz_predict::InterpKind::Linear);
        let cubic = mk(qoz_predict::InterpKind::Cubic);
        assert!(cubic < linear, "cubic {cubic} vs linear {linear}");
    }
}
