//! Multi-level interpolation traversal (the engine behind SZ3 and QoZ).
//!
//! The array is refined level by level. At level `l` the stride is
//! `s = 2^(l-1)`: points whose coordinates are all even multiples of `s`
//! are already reconstructed, and the level predicts every point with at
//! least one odd-multiple coordinate, one dimension at a time. After
//! level 1 completes, every point has been visited exactly once.
//!
//! The traversal is a pure function of `(shape, level, config)`; the
//! compressor and decompressor see the identical sequence of
//! `(offset, prediction)` pairs, differing only in what they do at each
//! point (quantize vs. reconstruct). That symmetry is the error-bound
//! guarantee's foundation, so it is written once: [`traverse_level_runs`]
//! is the only level walk. It hands boundary points and whole interior
//! [`LineRun`]s to a [`RunSink`] — the engine's compress sink quantizes
//! runs block by block — and [`traverse_level`] is its per-point view,
//! used by decode and the tuner. Both are checked against a naive
//! multi-index reference in the tests below.

use crate::interp::{predict_line, DimOrder, InterpKind, LevelConfig};
use qoz_tensor::{Scalar, Shape, MAX_NDIM};

/// Number of interpolation levels needed to cover an array: the smallest
/// `L` (at least 1) with `2^L >= max_extent - 1`. Returns 0 only for a
/// single-point array.
pub fn max_level(shape: Shape) -> u32 {
    let m = shape.dims().iter().copied().max().unwrap_or(1);
    if m <= 1 {
        return 0;
    }
    let mut l = 1u32;
    while (1usize << l) < m - 1 {
        l += 1;
    }
    l
}

/// The grid spacing of the base (already-known) points for a traversal
/// that starts at `level`: `2^level`.
pub fn base_stride(level: u32) -> usize {
    1usize << level
}

/// Invoke `f` with the linear offset of every base-grid point: all
/// coordinates congruent to 0 modulo `stride`.
///
/// Visits points in row-major order over the base grid (last dimension
/// fastest), maintaining offsets incrementally: the inner loop advances
/// by `stride` elements (the last dimension is contiguous) and the outer
/// dimensions adjust the line offset by one stride product per step.
pub fn for_each_base_point(shape: Shape, stride: usize, mut f: impl FnMut(usize)) {
    assert!(stride > 0);
    let nd = shape.ndim();
    let last = nd - 1;
    let mut counts = [1usize; MAX_NDIM];
    for d in 0..nd {
        counts[d] = (shape.dim(d) - 1) / stride + 1;
    }
    let inner_cnt = counts[last];
    let mut idx = [0usize; MAX_NDIM];
    let mut line_off = 0usize;
    loop {
        let mut off = line_off;
        for _ in 0..inner_cnt {
            f(off);
            off += stride; // shape.stride(last) == 1
        }
        // Odometer over the outer dimensions, second-to-last fastest.
        let mut d = last;
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            idx[d] += 1;
            line_off += stride * shape.stride(d);
            if idx[d] < counts[d] {
                break;
            }
            idx[d] = 0;
            line_off -= counts[d] * stride * shape.stride(d);
        }
    }
}

/// Number of base-grid points for a shape/stride pair.
pub fn base_point_count(shape: Shape, stride: usize) -> usize {
    (0..shape.ndim())
        .map(|d| (shape.dim(d) - 1) / stride + 1)
        .product()
}

/// Run one interpolation level over `data`.
///
/// For every point predicted on this level, `f(data, offset, prediction)`
/// is called exactly once; the callback must write the reconstructed
/// value to `data[offset]` before returning (later predictions read it)
/// and must not write anywhere else.
///
/// `level >= 1`; the level stride is `2^(level-1)`.
///
/// A per-point view of [`traverse_level_runs`]: boundary points arrive
/// with their prediction, and each interior run is walked with the
/// stencil loop behind [`fill_preds`], calling `f` as each prediction is
/// made. Runs never read their own points, so `f` sees the
/// `(offset, prediction)` sequence of a point-at-a-time walk (asserted
/// against a naive reference in this module's tests).
pub fn traverse_level<T: Scalar>(
    data: &mut [T],
    shape: Shape,
    level: u32,
    cfg: LevelConfig,
    f: &mut impl FnMut(&mut [T], usize, f64),
) {
    traverse_level_runs(data, shape, level, cfg, &mut PointSink(f));
}

/// The [`RunSink`] behind [`traverse_level`]: forwards boundary points
/// and expands runs into per-point callbacks.
struct PointSink<'a, F>(&'a mut F);

// Forced inlining keeps the caller's callback inside the walk's loops,
// as it is in a hand-written per-point loop (measurably faster decode).
impl<T: Scalar, F: FnMut(&mut [T], usize, f64)> RunSink<T> for PointSink<'_, F> {
    #[inline(always)]
    fn point(&mut self, data: &mut [T], off: usize, pred: f64) {
        (self.0)(data, off, pred);
    }

    #[inline(always)]
    fn run(&mut self, data: &mut [T], run: &LineRun) {
        walk_run(data, run, &mut *self.0);
    }
}

/// How every point of an interior [`LineRun`] is predicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStencil {
    /// Full interpolation stencil of the given kind, neighbours at
    /// `±d1` (and `±d3` for the wide kinds).
    Interp(InterpKind),
    /// Degraded right boundary: copy the left neighbour at `-d1`.
    CopyLeft,
}

/// An interior segment of one traversal line: `cnt` predicted points at
/// offsets `off0, off0+step, ...`, all sharing one stencil whose
/// neighbours sit at the fixed relative offsets `±d1`/`±d3`.
///
/// Every neighbour's coordinate along the interpolated dimension is an
/// even multiple of the level stride — finalized by an earlier level or
/// pass — so the points of a run never read each other's writes and can
/// be predicted batch-wise in any order.
#[derive(Debug, Clone, Copy)]
pub struct LineRun {
    /// Offset of the first predicted point.
    pub off0: usize,
    /// Element step between consecutive predicted points.
    pub step: usize,
    /// Number of predicted points.
    pub cnt: usize,
    /// Relative offset of the near neighbours.
    pub d1: usize,
    /// Relative offset of the far neighbours.
    pub d3: usize,
    /// The stencil shared by every point of the run.
    pub stencil: RunStencil,
}

/// Fill `preds[k]` with the stencil prediction for the point at
/// `run.off0 + k*run.step`, for `k < preds.len()`.
///
/// `preds.len()` may be shorter than `run.cnt` (callers chunk long runs
/// into blocks; pass a shifted `off0` for later chunks). `data` is only
/// read; it is borrowed mutably because the stencil loop it shares with
/// [`traverse_level`] hands the buffer on to a writing callback there.
pub fn fill_preds<T: Scalar>(data: &mut [T], run: &LineRun, preds: &mut [f64]) {
    let chunk = LineRun {
        cnt: preds.len(),
        ..*run
    };
    let mut k = 0;
    walk_run(data, &chunk, |_, _, pred| {
        preds[k] = pred;
        k += 1;
    });
}

/// Predict the points of `run` in order, calling
/// `emit(data, offset, prediction)` after each one.
///
/// These are the only copies of the interior stencils; each is the same
/// f64 expression as the matching full-stencil case of [`predict_line`],
/// so a point gets the same bits whichever of the two predicts it. The
/// match sits outside the loops, so every stencil runs as its own tight
/// loop with `emit` inlined.
#[inline(always)]
fn walk_run<T: Scalar>(data: &mut [T], run: &LineRun, mut emit: impl FnMut(&mut [T], usize, f64)) {
    let (d1, d3, step, cnt) = (run.d1, run.d3, run.step, run.cnt);
    let mut off = run.off0;
    match run.stencil {
        RunStencil::CopyLeft => {
            for _ in 0..cnt {
                let pred = data[off - d1].to_f64();
                emit(data, off, pred);
                off += step;
            }
        }
        RunStencil::Interp(InterpKind::Linear) => {
            for _ in 0..cnt {
                let pred = (data[off - d1].to_f64() + data[off + d1].to_f64()) * 0.5;
                emit(data, off, pred);
                off += step;
            }
        }
        RunStencil::Interp(InterpKind::Cubic) => {
            for _ in 0..cnt {
                let pred = (-data[off - d3].to_f64()
                    + 9.0 * data[off - d1].to_f64()
                    + 9.0 * data[off + d1].to_f64()
                    - data[off + d3].to_f64())
                    / 16.0;
                emit(data, off, pred);
                off += step;
            }
        }
        RunStencil::Interp(InterpKind::Quadratic) => {
            for _ in 0..cnt {
                let pred = (-data[off - d3].to_f64()
                    + 6.0 * data[off - d1].to_f64()
                    + 3.0 * data[off + d1].to_f64())
                    / 8.0;
                emit(data, off, pred);
                off += step;
            }
        }
    }
}

/// Consumer of the level walk [`traverse_level_runs`].
///
/// `point` receives boundary points one at a time with their prediction
/// already computed (via the degrading [`predict_line`]); `run` receives
/// interior segments and computes predictions itself (typically with
/// [`fill_preds`], block by block). Both must write each point's
/// reconstruction into `data` before returning, and nothing else.
pub trait RunSink<T: Scalar> {
    /// One boundary point with its prediction.
    fn point(&mut self, data: &mut [T], off: usize, pred: f64);
    /// One interior run; predictions are the sink's job.
    fn run(&mut self, data: &mut [T], run: &LineRun);
}

/// Run one interpolation level over `data`, handing boundary points and
/// interior [`LineRun`]s to `sink` in traversal order.
///
/// This is the only level walk: compress runs it with the engine's block
/// sink, decode and the tuner through [`traverse_level`]. Each dimension
/// is refined in one pass, in `cfg.order`. A pass walks lines along the
/// innermost dimension, with an incremental-offset odometer over the
/// outer dimensions (second-to-last fastest, no multi-index per point):
///
/// * a line *along* the interpolated dimension has its neighbours at
///   `±s`, `±3s`; its first and last points can lack far neighbours and
///   go to `sink.point` through [`predict_line`], and the full-stencil
///   interior is one run;
/// * a line *across* it has one coordinate along the interpolated
///   dimension, so one stencil (with its right-boundary degradation)
///   covers the whole line, which is one run.
///
/// `level >= 1`; the level stride is `s = 2^(level-1)`.
pub fn traverse_level_runs<T: Scalar>(
    data: &mut [T],
    shape: Shape,
    level: u32,
    cfg: LevelConfig,
    sink: &mut impl RunSink<T>,
) {
    assert!(level >= 1, "levels are numbered from 1");
    assert_eq!(data.len(), shape.len(), "buffer/shape mismatch");
    let s = 1usize << (level - 1);
    let nd = shape.ndim();
    let last = nd - 1;

    for pass in 0..nd {
        let cur = match cfg.order {
            DimOrder::Ascending => pass,
            DimOrder::Descending => nd - 1 - pass,
        };
        let n_cur = shape.dim(cur);
        // Nothing to predict along this dimension at this stride.
        if n_cur <= s {
            continue;
        }
        // Allowed coordinates per dimension for this pass: the predicted
        // dimension walks the odd multiples of `s`; dimensions refined
        // earlier in this level sit on the full stride-s grid; the rest
        // only exist on the coarse stride-2s grid.
        let mut steps = [1usize; MAX_NDIM];
        let mut counts = [1usize; MAX_NDIM];
        let mut line_off = 0usize; // offset of the first predicted point
        for d in 0..nd {
            let refined_earlier = match cfg.order {
                DimOrder::Ascending => d < cur,
                DimOrder::Descending => d > cur,
            };
            let (start, step) = if d == cur {
                (s, 2 * s)
            } else if refined_earlier {
                (0, s)
            } else {
                (0, 2 * s)
            };
            steps[d] = step;
            counts[d] = (shape.dim(d) - 1 - start) / step + 1;
            line_off += start * shape.stride(d);
        }
        let stride_cur = shape.stride(cur);
        let mut idx = [0usize; MAX_NDIM];
        'lines: loop {
            if cur == last {
                contiguous_line(data, line_off, s, n_cur, counts[last], cfg.kind, sink);
            } else {
                // Predicted coordinates start at `s`, so only the right
                // boundary can degrade the stencil.
                let x = s * (2 * idx[cur] + 1);
                let stencil = if x + s < n_cur {
                    let has_left2 = x >= 3 * s;
                    match cfg.kind {
                        InterpKind::Cubic if has_left2 && x + 3 * s < n_cur => {
                            RunStencil::Interp(InterpKind::Cubic)
                        }
                        InterpKind::Quadratic if has_left2 => {
                            RunStencil::Interp(InterpKind::Quadratic)
                        }
                        _ => RunStencil::Interp(InterpKind::Linear),
                    }
                } else {
                    RunStencil::CopyLeft
                };
                sink.run(
                    data,
                    &LineRun {
                        off0: line_off,
                        step: steps[last],
                        cnt: counts[last],
                        d1: s * stride_cur,
                        d3: 3 * s * stride_cur,
                        stencil,
                    },
                );
            }
            // Odometer over the outer dimensions, second-to-last fastest.
            let mut d = last;
            loop {
                if d == 0 {
                    break 'lines;
                }
                d -= 1;
                idx[d] += 1;
                line_off += steps[d] * shape.stride(d);
                if idx[d] < counts[d] {
                    break;
                }
                idx[d] = 0;
                line_off -= counts[d] * steps[d] * shape.stride(d);
            }
        }
    }
}

/// One line along the innermost (interpolated) dimension: points at
/// `x = s, 3s, 5s, ...` with unit element stride. Head and tail points
/// whose stencil degrades at the array boundary go to `sink.point`; the
/// full-stencil interior becomes one [`LineRun`].
fn contiguous_line<T: Scalar>(
    data: &mut [T],
    line_off: usize,
    s: usize,
    n: usize,
    cnt: usize,
    kind: InterpKind,
    sink: &mut impl RunSink<T>,
) {
    let line_base = line_off - s;
    // Largest k with 2*s*k <= n-1; the full-stencil j-ranges derive from
    // it: point j sits at x = s*(2j+1), and e.g. `x + s < n` <=> `j < q`.
    let q = (n - 1) / (2 * s);
    let (lo, hi) = match kind {
        InterpKind::Linear => (0usize, q),
        InterpKind::Cubic => (1, q.saturating_sub(1)),
        InterpKind::Quadratic => (1, q),
    };
    let lo = lo.min(cnt);
    let hi = hi.clamp(lo, cnt);
    // Offset and degraded prediction of boundary point `j`.
    let boundary = |data: &[T], j: usize| {
        let x = s * (2 * j + 1);
        let pred = predict_line(kind, x, s, n, |p| data[line_base + p].to_f64());
        (line_base + x, pred)
    };
    for j in 0..lo {
        let (off, pred) = boundary(data, j);
        sink.point(data, off, pred);
    }
    if hi > lo {
        sink.run(
            data,
            &LineRun {
                off0: line_base + s * (2 * lo + 1),
                step: 2 * s,
                cnt: hi - lo,
                d1: s,
                d3: 3 * s,
                stencil: RunStencil::Interp(kind),
            },
        );
    }
    for j in hi..cnt {
        let (off, pred) = boundary(data, j);
        sink.point(data, off, pred);
    }
}

/// Total number of points predicted on `level` (useful for sizing and for
/// the per-level error-bound bookkeeping in QoZ).
///
/// Closed form: each pass contributes the product of its per-dimension
/// coordinate counts — no buffer allocation, no shadow traversal.
pub fn level_point_count(shape: Shape, level: u32, cfg: LevelConfig) -> usize {
    assert!(level >= 1, "levels are numbered from 1");
    let s = 1usize << (level - 1);
    let nd = shape.ndim();
    let mut total = 0usize;
    for pass in 0..nd {
        let cur = match cfg.order {
            DimOrder::Ascending => pass,
            DimOrder::Descending => nd - 1 - pass,
        };
        if shape.dim(cur) <= s {
            continue;
        }
        let mut prod = 1usize;
        for d in 0..nd {
            let n = shape.dim(d);
            let refined_earlier = match cfg.order {
                DimOrder::Ascending => d < cur,
                DimOrder::Descending => d > cur,
            };
            prod *= if d == cur {
                (n - 1 - s) / (2 * s) + 1
            } else if refined_earlier {
                (n - 1) / s + 1
            } else {
                (n - 1) / (2 * s) + 1
            };
        }
        total += prod;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{predict_line, DimOrder, InterpKind};
    use qoz_tensor::NdArray;

    fn full_traversal_offsets(shape: Shape, cfg: LevelConfig, start_level: u32) -> Vec<usize> {
        let mut visited = Vec::new();
        let mut data = vec![0f64; shape.len()];
        for level in (1..=start_level).rev() {
            traverse_level(&mut data, shape, level, cfg, &mut |_, off, _| {
                visited.push(off)
            });
        }
        visited
    }

    #[test]
    fn max_level_values() {
        assert_eq!(max_level(Shape::d1(1)), 0);
        assert_eq!(max_level(Shape::d1(2)), 1);
        assert_eq!(max_level(Shape::d1(9)), 3);
        assert_eq!(max_level(Shape::d1(10)), 4);
        assert_eq!(max_level(Shape::d2(9, 100)), 7);
        assert_eq!(max_level(Shape::d3(5, 5, 33)), 5);
    }

    #[test]
    fn coverage_exact_once_2d() {
        let shape = Shape::d2(9, 9);
        let l = max_level(shape);
        let stride = base_stride(l);
        let mut base = Vec::new();
        for_each_base_point(shape, stride, |off| base.push(off));
        assert_eq!(base.len(), 4); // corners of the 8-grid

        let cfg = LevelConfig::default();
        let mut seen = vec![0u32; shape.len()];
        for &b in &base {
            seen[b] += 1;
        }
        for off in full_traversal_offsets(shape, cfg, l) {
            seen[off] += 1;
        }
        assert!(seen.iter().all(|&c| c == 1), "coverage not exactly-once");
    }

    #[test]
    fn coverage_exact_once_3d_non_pow2() {
        let shape = Shape::d3(7, 10, 5);
        let l = max_level(shape);
        let stride = base_stride(l);
        for cfg in LevelConfig::candidates() {
            let mut seen = vec![0u32; shape.len()];
            for_each_base_point(shape, stride, |off| seen[off] += 1);
            for off in full_traversal_offsets(shape, cfg, l) {
                seen[off] += 1;
            }
            assert!(seen.iter().all(|&c| c == 1), "coverage failure for {cfg:?}");
        }
    }

    #[test]
    fn coverage_exact_once_1d() {
        let shape = Shape::d1(100);
        let l = max_level(shape);
        let mut seen = vec![0u32; shape.len()];
        for_each_base_point(shape, base_stride(l), |off| seen[off] += 1);
        for off in full_traversal_offsets(shape, LevelConfig::default(), l) {
            seen[off] += 1;
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn anchored_traversal_covers_with_small_levels() {
        // QoZ-style: anchors every 8, levels 3..1 only.
        let shape = Shape::d2(33, 17);
        let anchor = 8usize;
        let mut seen = vec![0u32; shape.len()];
        for_each_base_point(shape, anchor, |off| seen[off] += 1);
        for off in full_traversal_offsets(shape, LevelConfig::default(), 3) {
            seen[off] += 1;
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn linear_traversal_reconstructs_affine_exactly() {
        // f(x,y) = 3x + 2y is exactly reproduced by linear interpolation:
        // predictions match true values, so writing predictions directly
        // (lossless "compression") must regenerate the field.
        let shape = Shape::d2(17, 17);
        let truth = NdArray::from_fn(shape, |i| 3.0 * i[0] as f64 + 2.0 * i[1] as f64);
        let l = max_level(shape);
        let mut data = vec![0f64; shape.len()];
        for_each_base_point(shape, base_stride(l), |off| {
            data[off] = truth.as_slice()[off];
        });
        let cfg = LevelConfig {
            kind: InterpKind::Linear,
            order: DimOrder::Ascending,
        };
        for level in (1..=l).rev() {
            traverse_level(&mut data, shape, level, cfg, &mut |d, off, pred| {
                d[off] = pred;
            });
        }
        for (a, b) in data.iter().zip(truth.as_slice()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn traversal_is_deterministic_across_runs() {
        let shape = Shape::d3(9, 8, 11);
        let cfg = LevelConfig {
            kind: InterpKind::Cubic,
            order: DimOrder::Descending,
        };
        let a = full_traversal_offsets(shape, cfg, max_level(shape));
        let b = full_traversal_offsets(shape, cfg, max_level(shape));
        assert_eq!(a, b);
    }

    #[test]
    fn orders_visit_same_set_differently() {
        let shape = Shape::d2(9, 9);
        let asc = full_traversal_offsets(
            shape,
            LevelConfig {
                kind: InterpKind::Linear,
                order: DimOrder::Ascending,
            },
            max_level(shape),
        );
        let desc = full_traversal_offsets(
            shape,
            LevelConfig {
                kind: InterpKind::Linear,
                order: DimOrder::Descending,
            },
            max_level(shape),
        );
        assert_ne!(asc, desc, "orders should differ in sequence");
        let mut a = asc.clone();
        let mut d = desc.clone();
        a.sort_unstable();
        d.sort_unstable();
        assert_eq!(a, d, "orders must cover the same point set");
    }

    #[test]
    fn level_point_counts_sum_to_total() {
        let shape = Shape::d2(9, 9);
        let l = max_level(shape);
        let cfg = LevelConfig::default();
        let total: usize = (1..=l).map(|lev| level_point_count(shape, lev, cfg)).sum();
        assert_eq!(total + base_point_count(shape, base_stride(l)), shape.len());
    }

    #[test]
    fn level_point_count_matches_shadow_traversal() {
        // The closed form must agree with an actual traversal (the old
        // implementation counted by traversing a zero buffer).
        let shapes = [
            Shape::d1(1),
            Shape::d1(2),
            Shape::d1(100),
            Shape::d2(9, 9),
            Shape::d2(33, 17),
            Shape::d2(1, 50),
            Shape::d3(7, 10, 5),
            Shape::d3(2, 2, 2),
            Shape::new(&[3, 5, 4, 6]),
        ];
        for shape in shapes {
            for cfg in LevelConfig::candidates() {
                for level in 1..=max_level(shape).max(1) + 1 {
                    let mut n = 0usize;
                    let mut dummy = vec![0f32; shape.len()];
                    traverse_level(&mut dummy, shape, level, cfg, &mut |_, _, _| n += 1);
                    assert_eq!(
                        level_point_count(shape, level, cfg),
                        n,
                        "closed form diverged for {shape:?} level {level} {cfg:?}"
                    );
                }
            }
        }
    }

    /// Naive reference level walk, written independently of the real
    /// one: per pass, a full multi-index odometer over the pass lattice
    /// (last dimension fastest), every point predicted by `predict_line`
    /// along the interpolated dimension.
    fn reference_level(
        data: &mut [f64],
        shape: Shape,
        level: u32,
        cfg: LevelConfig,
        f: &mut impl FnMut(&mut [f64], usize, f64),
    ) {
        let s = 1usize << (level - 1);
        let nd = shape.ndim();
        let dims: Vec<usize> = match cfg.order {
            DimOrder::Ascending => (0..nd).collect(),
            DimOrder::Descending => (0..nd).rev().collect(),
        };
        for (pass, &cur) in dims.iter().enumerate() {
            let coords: Vec<Vec<usize>> = (0..nd)
                .map(|d| {
                    let n = shape.dim(d);
                    if d == cur {
                        (s..n).step_by(2 * s).collect()
                    } else if dims[..pass].contains(&d) {
                        (0..n).step_by(s).collect()
                    } else {
                        (0..n).step_by(2 * s).collect()
                    }
                })
                .collect();
            if coords.iter().any(Vec::is_empty) {
                continue;
            }
            let sc = shape.stride(cur);
            let mut idx = vec![0usize; nd];
            'points: loop {
                let off: usize = (0..nd).map(|d| coords[d][idx[d]] * shape.stride(d)).sum();
                let x = coords[cur][idx[cur]];
                let line0 = off - x * sc;
                let pred = predict_line(cfg.kind, x, s, shape.dim(cur), |p| data[line0 + p * sc]);
                f(data, off, pred);
                let mut d = nd;
                loop {
                    if d == 0 {
                        break 'points;
                    }
                    d -= 1;
                    idx[d] += 1;
                    if idx[d] < coords[d].len() {
                        break;
                    }
                    idx[d] = 0;
                }
            }
        }
    }

    /// Both faces of the one level walk — the per-point
    /// [`traverse_level`] and a 64-lane block sink over
    /// [`traverse_level_runs`] + [`fill_preds`] (the engine's compress
    /// shape) — must reproduce the naive reference's exact
    /// `(offset, prediction bits)` sequence and final buffer. The
    /// callback writes a value derived from the prediction, so any
    /// read-before-write slip shows up in later predictions.
    #[test]
    fn level_walk_matches_naive_reference() {
        const BLOCK: usize = 64;

        fn write(seq: &mut Vec<(usize, u64)>, data: &mut [f64], off: usize, pred: f64) {
            seq.push((off, pred.to_bits()));
            data[off] = pred * 0.5 + 1.0;
        }

        struct BlockSink {
            seq: Vec<(usize, u64)>,
        }
        impl RunSink<f64> for BlockSink {
            fn point(&mut self, data: &mut [f64], off: usize, pred: f64) {
                write(&mut self.seq, data, off, pred);
            }
            fn run(&mut self, data: &mut [f64], run: &LineRun) {
                let mut preds = [0f64; BLOCK];
                let mut done = 0usize;
                while done < run.cnt {
                    let m = (run.cnt - done).min(BLOCK);
                    let chunk = LineRun {
                        off0: run.off0 + done * run.step,
                        ..*run
                    };
                    fill_preds(data, &chunk, &mut preds[..m]);
                    for (k, &p) in preds[..m].iter().enumerate() {
                        write(&mut self.seq, data, chunk.off0 + k * run.step, p);
                    }
                    done += m;
                }
            }
        }

        let shapes = [
            Shape::d1(2),
            Shape::d1(100),
            Shape::d1(300),
            Shape::d2(9, 9),
            Shape::d2(33, 17),
            Shape::d2(1, 50),
            Shape::d2(200, 3),
            Shape::d3(7, 10, 5),
            Shape::new(&[3, 5, 4, 6]),
        ];
        let init = |i: usize| ((i as f64) * 0.7).sin() * 100.0 + (i % 13) as f64 * 0.01;
        for shape in shapes {
            for cfg in LevelConfig::candidates() {
                for level in 1..=max_level(shape).max(1) + 1 {
                    let what = format!("{shape:?} level {level} {cfg:?}");
                    let fresh = || -> Vec<f64> { (0..shape.len()).map(init).collect() };

                    let mut want_data = fresh();
                    let mut want = Vec::new();
                    reference_level(&mut want_data, shape, level, cfg, &mut |d, off, p| {
                        write(&mut want, d, off, p)
                    });

                    let mut data = fresh();
                    let mut seq = Vec::new();
                    traverse_level(&mut data, shape, level, cfg, &mut |d, off, p| {
                        write(&mut seq, d, off, p)
                    });
                    assert_eq!(seq, want, "traverse_level sequence: {what}");
                    assert_eq!(data, want_data, "traverse_level buffer: {what}");

                    let mut data = fresh();
                    let mut sink = BlockSink { seq: Vec::new() };
                    traverse_level_runs(&mut data, shape, level, cfg, &mut sink);
                    assert_eq!(sink.seq, want, "block sink sequence: {what}");
                    assert_eq!(data, want_data, "block sink buffer: {what}");
                }
            }
        }
    }

    /// The stencil formulas evaluated in f64, as bit patterns.
    fn stencil_expected(data: &[f64], run: &LineRun, n: usize) -> Vec<u64> {
        let mut off = run.off0;
        (0..n)
            .map(|_| {
                let (a, b) = (off - run.d3, off - run.d1);
                let (c, d) = (off + run.d1, off + run.d3);
                let p = match run.stencil {
                    RunStencil::CopyLeft => data[b],
                    RunStencil::Interp(InterpKind::Linear) => (data[b] + data[c]) * 0.5,
                    RunStencil::Interp(InterpKind::Cubic) => {
                        (-data[a] + 9.0 * data[b] + 9.0 * data[c] - data[d]) / 16.0
                    }
                    RunStencil::Interp(InterpKind::Quadratic) => {
                        (-data[a] + 6.0 * data[b] + 3.0 * data[c]) / 8.0
                    }
                };
                off += run.step;
                p.to_bits()
            })
            .collect()
    }

    /// Irregular values with a few exact zeros and sign flips to
    /// exercise the negation.
    fn stencil_data() -> Vec<f64> {
        (0..600)
            .map(|i| {
                if i % 97 == 0 {
                    0.0
                } else {
                    ((i as f64) * 0.618).sin() * 1e3 * if i % 2 == 0 { 1.0 } else { -1.0 }
                }
            })
            .collect()
    }

    /// Every stencil, stride geometry and run length.
    fn stencil_runs() -> Vec<LineRun> {
        let stencils = [
            RunStencil::Interp(InterpKind::Linear),
            RunStencil::Interp(InterpKind::Cubic),
            RunStencil::Interp(InterpKind::Quadratic),
            RunStencil::CopyLeft,
        ];
        let mut runs = Vec::new();
        for stencil in stencils {
            for (step, d1, d3) in [(2usize, 1usize, 3usize), (1, 7, 21), (5, 2, 6), (4, 2, 6)] {
                for n in [1usize, 2, 3, 4, 5, 8, 13, 64] {
                    runs.push(LineRun {
                        off0: 30,
                        step,
                        cnt: n,
                        d1,
                        d3,
                        stencil,
                    });
                }
            }
        }
        runs
    }

    /// `fill_preds` on f64 inputs against the stencil formulas.
    #[test]
    fn fill_preds_matches_stencil_formulas() {
        let mut data = stencil_data();
        for run in stencil_runs() {
            let n = run.cnt;
            let mut preds = vec![0f64; n];
            fill_preds(&mut data, &run, &mut preds);
            let got: Vec<u64> = preds.iter().map(|p| p.to_bits()).collect();
            assert_eq!(
                got,
                stencil_expected(&data, &run, n),
                "{:?} step={} n={n}",
                run.stencil,
                run.step
            );
        }
    }

    /// `fill_preds` on f32 inputs widens each neighbour to f64 before
    /// combining, so it matches the formulas on the widened data.
    #[test]
    fn fill_preds_widens_f32_before_combining() {
        let mut data32: Vec<f32> = stencil_data().iter().map(|&v| v as f32).collect();
        let wide32: Vec<f64> = data32.iter().map(|&v| v as f64).collect();
        for run in stencil_runs() {
            let n = run.cnt;
            let mut preds = vec![0f64; n];
            fill_preds(&mut data32, &run, &mut preds);
            let got: Vec<u64> = preds.iter().map(|p| p.to_bits()).collect();
            assert_eq!(
                got,
                stencil_expected(&wide32, &run, n),
                "f32 {:?} step={} n={n}",
                run.stencil,
                run.step
            );
        }
    }

    #[test]
    fn lowest_level_holds_majority_of_points() {
        // Paper: level 1 holds 75% of points in 2D, 87.5% in 3D.
        let shape = Shape::d2(65, 65);
        let cfg = LevelConfig::default();
        let l1 = level_point_count(shape, 1, cfg);
        let frac = l1 as f64 / shape.len() as f64;
        assert!((frac - 0.75).abs() < 0.03, "level-1 fraction {frac}");

        let shape3 = Shape::d3(33, 33, 33);
        let l1 = level_point_count(shape3, 1, cfg);
        let frac = l1 as f64 / shape3.len() as f64;
        assert!((frac - 0.875).abs() < 0.03, "level-1 fraction 3D {frac}");
    }
}
