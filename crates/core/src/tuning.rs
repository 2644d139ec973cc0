//! Online tuning: level-wise interpolator selection (Algorithm 1) and
//! quality-metric-driven `(alpha, beta)` auto-tuning (§VI-C, Table I).
//!
//! All tuning runs on the uniformly sampled blocks only, so its cost is a
//! small fraction of the full compression pass. Trial compressions reuse
//! the shared engine, and each trial's bit-rate is the size of its
//! sampled bins actually entropy-coded by `encode_bins_with` (through one
//! reused arena) plus its raw side streams.

use crate::config::level_error_bounds;
use qoz_codec::{LinearQuantizer, Scratch};
use qoz_metrics::{autocorr, ssim, QualityMetric};
use qoz_predict::{base_point_count, traverse_level, LevelConfig};
use qoz_sz3::{compress_with_spec_into, InterpSpec};
use qoz_tensor::{NdArray, Scalar};

/// One trial compression outcome on the sampled blocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialResult {
    /// Estimated bits per data point.
    pub bits_per_point: f64,
    /// Metric score in larger-is-better orientation.
    pub metric: f64,
}

/// Every `(alpha, beta)` candidate paired with its trial outcome.
pub type TrialTable = Vec<((f64, f64), TrialResult)>;

/// Level-adapted selection of the best-fit interpolator (Algorithm 1).
///
/// For each level from `sel_levels` down to 1, every candidate
/// `(kernel, order)` runs a trial on every sampled block given the
/// interpolators already fixed for higher levels; the candidate with the
/// lowest total absolute prediction error wins. Returns configs for
/// levels `1..=total_levels` (levels above `sel_levels` inherit the
/// highest selected config, per the paper's fallback).
pub fn select_level_interps<T: Scalar>(
    blocks: &[NdArray<T>],
    abs_eb: f64,
    sel_levels: u32,
    total_levels: u32,
) -> Vec<LevelConfig> {
    let total = total_levels.max(1) as usize;
    if blocks.is_empty() || sel_levels == 0 {
        return vec![LevelConfig::default(); total];
    }
    let quant = LinearQuantizer::new(abs_eb);

    // Working buffers: anchors (base grid of each block) stay lossless,
    // mirroring QoZ's anchored full-array pass.
    let mut works: Vec<NdArray<T>> = blocks.to_vec();
    let mut selected = vec![LevelConfig::default(); total];

    // Evaluate the default (cubic/ascending) first so that levels the
    // sampled blocks cannot discriminate (boundary-degenerate strides,
    // where every kernel falls back to the same formula) keep SZ3's
    // default instead of tie-breaking to an arbitrary candidate that the
    // full array's interior would regret.
    let mut cands = LevelConfig::candidates();
    cands.sort_by_key(|c| (*c != LevelConfig::default()) as u8);

    for level in (1..=sel_levels).rev() {
        let mut best = LevelConfig::default();
        let mut best_err = f64::INFINITY;
        for &cand in &cands {
            let mut err = 0.0f64;
            for work in &works {
                let mut trial = work.clone();
                let shape = trial.shape();
                traverse_level(
                    trial.as_mut_slice(),
                    shape,
                    level,
                    cand,
                    &mut |buf, off, pred| {
                        let v = buf[off];
                        let d = v.to_f64() - pred;
                        if d.is_finite() {
                            err += d.abs();
                        }
                        buf[off] = quant.quantize(v, pred).reconstructed;
                    },
                );
            }
            // Strict-improvement threshold: a candidate must beat the
            // incumbent by a measurable margin, not a rounding artifact.
            if err < best_err * (1.0 - 1e-9) {
                best_err = err;
                best = cand;
            }
        }
        selected[(level - 1) as usize] = best;
        // Commit the winning interpolator to the working buffers.
        for work in &mut works {
            let shape = work.shape();
            traverse_level(
                work.as_mut_slice(),
                shape,
                level,
                best,
                &mut |buf, off, pred| {
                    buf[off] = quant.quantize(buf[off], pred).reconstructed;
                },
            );
        }
    }

    // Levels above the block-selectable range inherit the top selection.
    let top = selected[(sel_levels - 1) as usize];
    for l in sel_levels as usize..total {
        selected[l] = top;
    }
    selected
}

/// Aggregate a metric over per-block (original, reconstruction) pairs in
/// larger-is-better orientation. `global_range` is the full dataset's
/// value range (PSNR must not use per-block ranges).
pub fn aggregate_metric<T: Scalar>(
    metric: QualityMetric,
    blocks: &[NdArray<T>],
    recons: &[NdArray<T>],
    global_range: f64,
) -> f64 {
    match metric {
        QualityMetric::CompressionRatio => 0.0,
        QualityMetric::Psnr => {
            let mut se = 0.0f64;
            let mut n = 0usize;
            for (b, r) in blocks.iter().zip(recons) {
                se += qoz_metrics::mse(b, r) * b.len() as f64;
                n += b.len();
            }
            let mse = se / n.max(1) as f64;
            if mse == 0.0 || global_range == 0.0 {
                f64::INFINITY
            } else {
                20.0 * (global_range / mse.sqrt()).log10()
            }
        }
        QualityMetric::Ssim => {
            let mut acc = 0.0f64;
            let mut n = 0usize;
            for (b, r) in blocks.iter().zip(recons) {
                acc += ssim(b, r) * b.len() as f64;
                n += b.len();
            }
            acc / n.max(1) as f64
        }
        QualityMetric::AutoCorrelation => {
            let mut acc = 0.0f64;
            let mut n = 0usize;
            for (b, r) in blocks.iter().zip(recons) {
                acc += autocorr::error_autocorrelation(b, r, 1).abs() * b.len() as f64;
                n += b.len();
            }
            -(acc / n.max(1) as f64)
        }
    }
}

/// The fixed inputs of the `(alpha, beta)` trials, plus the buffers
/// every trial reuses: one engine and entropy arena, the aggregated bins
/// and one reconstruction per block (a reused arena produces the same
/// bytes as a fresh one).
struct Trials<'a, T: Scalar> {
    blocks: &'a [NdArray<T>],
    abs_eb: f64,
    level_configs: &'a [LevelConfig],
    block_levels: u32,
    metric: QualityMetric,
    global_range: f64,
    scratch: Scratch<T>,
    bins: Vec<u32>,
    recons: Vec<NdArray<T>>,
}

impl<'a, T: Scalar> Trials<'a, T> {
    fn new(
        blocks: &'a [NdArray<T>],
        abs_eb: f64,
        level_configs: &'a [LevelConfig],
        block_levels: u32,
        metric: QualityMetric,
        global_range: f64,
    ) -> Self {
        Trials {
            blocks,
            abs_eb,
            level_configs,
            block_levels,
            metric,
            global_range,
            scratch: Scratch::new(),
            bins: Vec::new(),
            recons: blocks.iter().map(|b| NdArray::zeros(b.shape())).collect(),
        }
    }

    /// Run one `(alpha, beta)` trial over the sampled blocks at error
    /// bound `abs_eb * eb_scale`.
    fn run(&mut self, alpha: f64, beta: f64, eb_scale: f64) -> TrialResult {
        let e = self.abs_eb * eb_scale;
        let spec = InterpSpec {
            anchor_stride: Some(1u32 << self.block_levels),
            max_level: self.block_levels,
            level_configs: self.level_configs[..self.block_levels as usize].to_vec(),
            level_ebs: level_error_bounds(e, alpha, beta, self.block_levels),
            quant_radius: LinearQuantizer::DEFAULT_RADIUS,
        };
        self.bins.clear();
        let mut side_bytes = 0usize;
        let mut points = 0usize;
        for (block, recon) in self.blocks.iter().zip(&mut self.recons) {
            compress_with_spec_into(block, &spec, &mut self.scratch);
            self.bins.extend_from_slice(&self.scratch.bins);
            side_bytes += self.scratch.unpred.len() + self.scratch.anchors.len();
            points += block.len();
            recon.as_mut_slice().copy_from_slice(&self.scratch.work);
        }
        // Paper §VI-A: prediction runs per block, but the entropy stage is
        // applied to the *aggregated* bins for an accurate bit-rate estimate.
        let s = &mut self.scratch;
        qoz_codec::encode_bins_with(&self.bins, &mut s.entropy, &mut s.section);
        let bins_bits = s.section.len() as f64 * 8.0;
        TrialResult {
            bits_per_point: (bins_bits + side_bytes as f64 * 8.0) / points.max(1) as f64,
            metric: aggregate_metric(self.metric, self.blocks, &self.recons, self.global_range),
        }
    }

    /// The Table-I traversal of [`autotune_params`].
    fn pick(&mut self, candidates: &[(f64, f64)]) -> (f64, f64) {
        assert!(!candidates.is_empty());
        if self.blocks.is_empty() {
            return candidates[0];
        }
        let mut best = candidates[0];
        let mut best_res = self.run(best.0, best.1, 1.0);
        for &(a, b) in &candidates[1..] {
            let res = self.run(a, b, 1.0);
            if solution_ii_better(self.metric, best_res, res, |scale| self.run(a, b, scale)) {
                best = (a, b);
                best_res = res;
            }
        }
        best
    }
}

/// Table-I comparison: is solution II better than solution I?
///
/// `trial_ii` produces II's result at a scaled error bound for the
/// "sophisticated" cases 3/4 (the two-point line construction).
pub fn solution_ii_better(
    metric: QualityMetric,
    i: TrialResult,
    ii: TrialResult,
    trial_ii: impl FnOnce(f64) -> TrialResult,
) -> bool {
    if metric == QualityMetric::CompressionRatio {
        return ii.bits_per_point < i.bits_per_point;
    }
    let (bi, mi) = (i.bits_per_point, i.metric);
    let (bii, mii) = (ii.bits_per_point, ii.metric);
    // Cases 1/2: dominance.
    if bi <= bii && mi >= mii {
        return false;
    }
    if bi >= bii && mi <= mii {
        return true;
    }
    // Cases 3/4: probe II at a shifted bound and interpolate its
    // rate-distortion line. e' = 1.2e when M_I > M_II, else 0.8e.
    let scale = if mi > mii { 1.2 } else { 0.8 };
    let probe = trial_ii(scale);
    let (bp, mp) = (probe.bits_per_point, probe.metric);
    if (bp - bii).abs() < 1e-9 || !mp.is_finite() || !mii.is_finite() {
        // Degenerate line; fall back to direct metric comparison.
        return mii > mi;
    }
    let slope = (mp - mii) / (bp - bii);
    let m_line = mii + slope * (bi - bii);
    // I sits below II's rate-distortion line => II is better.
    mi < m_line
}

/// Quality-metric-oriented `(alpha, beta)` auto-tuning (§VI-C).
///
/// Traverses the candidate grid, comparing each candidate against the
/// incumbent with the Table-I logic; sophisticated cases run one extra
/// sampled trial at a shifted error bound.
#[allow(clippy::too_many_arguments)]
pub fn autotune_params<T: Scalar>(
    blocks: &[NdArray<T>],
    abs_eb: f64,
    level_configs: &[LevelConfig],
    block_levels: u32,
    metric: QualityMetric,
    global_range: f64,
    candidates: &[(f64, f64)],
) -> (f64, f64) {
    Trials::new(
        blocks,
        abs_eb,
        level_configs,
        block_levels,
        metric,
        global_range,
    )
    .pick(candidates)
}

/// Debug/benchmark helper: evaluate every candidate and return the full
/// trial table alongside the winner (used by the Fig. 13 harness).
#[allow(clippy::too_many_arguments)]
pub fn autotune_with_table<T: Scalar>(
    blocks: &[NdArray<T>],
    abs_eb: f64,
    level_configs: &[LevelConfig],
    block_levels: u32,
    metric: QualityMetric,
    global_range: f64,
    candidates: &[(f64, f64)],
) -> ((f64, f64), TrialTable) {
    let mut trials = Trials::new(
        blocks,
        abs_eb,
        level_configs,
        block_levels,
        metric,
        global_range,
    );
    let table: TrialTable = candidates
        .iter()
        .map(|&(a, b)| ((a, b), trials.run(a, b, 1.0)))
        .collect();
    (trials.pick(candidates), table)
}

/// Make blocks "anchored" for tuning: the engine treats their base grid
/// as lossless anchors, so nothing extra is needed; this helper exists to
/// document the invariant and is used by tests.
pub fn block_anchor_check<T: Scalar>(block: &NdArray<T>, levels: u32) -> usize {
    base_point_count(block.shape(), 1usize << levels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoz_predict::InterpKind;
    use qoz_tensor::Shape;

    fn smooth_blocks() -> Vec<NdArray<f64>> {
        (0..4)
            .map(|k| {
                NdArray::from_fn(Shape::d2(17, 17), |i| {
                    ((i[0] + k * 3) as f64 * 0.11).sin() * ((i[1] + k) as f64 * 0.09).cos()
                })
            })
            .collect()
    }

    #[test]
    fn selection_returns_requested_levels() {
        let blocks = smooth_blocks();
        let configs = select_level_interps(&blocks, 1e-4, 4, 6);
        assert_eq!(configs.len(), 6);
        // Levels above sel inherit level-4's config.
        assert_eq!(configs[4], configs[3]);
        assert_eq!(configs[5], configs[3]);
    }

    #[test]
    fn selection_prefers_higher_order_on_smooth_blocks() {
        let blocks = smooth_blocks();
        let configs = select_level_interps(&blocks, 1e-5, 4, 4);
        // The dense lowest level dominates quality; smooth trigonometric
        // data favours a higher-order kernel (cubic or quadratic) there.
        assert_ne!(configs[0].kind, InterpKind::Linear, "picked {configs:?}");
    }

    #[test]
    fn dominance_cases_direct() {
        let m = QualityMetric::Psnr;
        let i = TrialResult {
            bits_per_point: 2.0,
            metric: 60.0,
        };
        let worse = TrialResult {
            bits_per_point: 3.0,
            metric: 50.0,
        };
        let better = TrialResult {
            bits_per_point: 1.0,
            metric: 70.0,
        };
        assert!(!solution_ii_better(m, i, worse, |_| unreachable!()));
        assert!(solution_ii_better(m, i, better, |_| unreachable!()));
    }

    #[test]
    fn sophisticated_case_uses_line() {
        let m = QualityMetric::Psnr;
        // II: cheaper but lower quality than I.
        let i = TrialResult {
            bits_per_point: 2.0,
            metric: 60.0,
        };
        let ii = TrialResult {
            bits_per_point: 1.0,
            metric: 50.0,
        };
        // II's curve probed at 1.2e (M_I > M_II): suppose at 2.0 bits II
        // would reach 65 dB -> line passes above I -> II better.
        let probe_hi = TrialResult {
            bits_per_point: 2.0,
            metric: 65.0,
        };
        assert!(solution_ii_better(m, i, ii, |s| {
            assert!((s - 1.2).abs() < 1e-12);
            probe_hi
        }));
        // If II's curve only reaches 55 dB at 2.0 bits, I stays.
        let probe_lo = TrialResult {
            bits_per_point: 2.0,
            metric: 55.0,
        };
        assert!(!solution_ii_better(m, i, ii, |_| probe_lo));
    }

    #[test]
    fn cr_mode_compares_bits_only() {
        let m = QualityMetric::CompressionRatio;
        let i = TrialResult {
            bits_per_point: 2.0,
            metric: 0.0,
        };
        let ii = TrialResult {
            bits_per_point: 1.5,
            metric: 0.0,
        };
        assert!(solution_ii_better(m, i, ii, |_| unreachable!()));
    }

    #[test]
    fn autotune_picks_tighter_levels_on_smooth_data() {
        // On smooth data, tightening high-level bounds (alpha > 1)
        // improves rate-PSNR; the tuner should not pick (1, 1).
        let blocks = smooth_blocks();
        let configs = vec![LevelConfig::default(); 4];
        let cands = vec![(1.0, 1.0), (1.5, 2.0), (2.0, 4.0)];
        let (a, _b) = autotune_params(&blocks, 1e-3, &configs, 4, QualityMetric::Psnr, 2.0, &cands);
        assert!(a >= 1.0);
    }

    #[test]
    fn autotune_table_covers_all_candidates() {
        let blocks = smooth_blocks();
        let configs = vec![LevelConfig::default(); 4];
        let cands = vec![(1.0, 1.0), (1.5, 2.0)];
        let (winner, table) = autotune_with_table(
            &blocks,
            1e-3,
            &configs,
            4,
            QualityMetric::CompressionRatio,
            2.0,
            &cands,
        );
        assert_eq!(table.len(), 2);
        assert!(cands.contains(&winner));
        // CR mode: winner must have the minimum bits.
        let min = table
            .iter()
            .map(|(_, r)| r.bits_per_point)
            .fold(f64::INFINITY, f64::min);
        let w = table.iter().find(|(c, _)| *c == winner).unwrap().1;
        assert!(w.bits_per_point <= min + 1e-9);
    }

    #[test]
    fn aggregate_psnr_uses_global_range() {
        let blocks = smooth_blocks();
        let recons: Vec<_> = blocks
            .iter()
            .map(|b| {
                let mut r = b.clone();
                for v in r.as_mut_slice() {
                    *v += 1e-3;
                }
                r
            })
            .collect();
        let p_small = aggregate_metric(QualityMetric::Psnr, &blocks, &recons, 1.0);
        let p_big = aggregate_metric(QualityMetric::Psnr, &blocks, &recons, 10.0);
        assert!((p_big - p_small - 20.0).abs() < 1e-9);
    }

    #[test]
    fn block_anchor_counts() {
        let b = NdArray::<f32>::zeros(Shape::d2(17, 17));
        assert_eq!(block_anchor_check(&b, 4), 4);
    }
}
