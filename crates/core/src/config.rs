//! QoZ configuration.

use qoz_metrics::QualityMetric;
use qoz_tensor::Shape;

/// Tuning and structural parameters of the QoZ compressor.
///
/// Defaults follow the paper's experimental configuration (§VII-A4):
/// anchor stride / sample block 64 for 2D at 1% sampling, anchor stride
/// 32 / sample block 16 for 3D at 0.5% sampling, and the narrowed
/// `(alpha, beta)` candidate grid of §VI-C1.
#[derive(Debug, Clone)]
pub struct QozConfig {
    /// Quality metric the online tuner optimizes.
    pub metric: QualityMetric,
    /// Anchor-grid stride override (power of two). `None` = rank default.
    pub anchor_stride: Option<u32>,
    /// Sample block side override. `None` = rank default.
    pub sample_block: Option<usize>,
    /// Sampling rate override. `None` = rank default.
    pub sample_rate: Option<f64>,
    /// Candidate `alpha` values for the level-bound formula (Eq. 5).
    pub alpha_candidates: Vec<f64>,
    /// Candidate `beta` values for the level-bound formula (Eq. 5).
    pub beta_candidates: Vec<f64>,
    /// Enable sampled global interpolator selection (ablation "S").
    pub sampled_selection: bool,
    /// Enable per-level interpolator selection (ablation "LIS";
    /// requires `sampled_selection`).
    pub level_interp_selection: bool,
    /// Enable `(alpha, beta)` auto-tuning (ablation "PA"). When disabled
    /// the level bounds are uniform (`alpha = beta = 1`).
    pub param_autotuning: bool,
    /// Explicit `(alpha, beta)` override used when `param_autotuning` is
    /// off (the Fig. 13 fixed-parameter runs).
    pub fixed_params: Option<(f64, f64)>,
}

impl Default for QozConfig {
    fn default() -> Self {
        QozConfig {
            metric: QualityMetric::CompressionRatio,
            anchor_stride: None,
            sample_block: None,
            sample_rate: None,
            alpha_candidates: vec![1.0, 1.25, 1.5, 1.75, 2.0],
            beta_candidates: vec![1.5, 2.0, 3.0, 4.0],
            sampled_selection: true,
            level_interp_selection: true,
            param_autotuning: true,
            fixed_params: None,
        }
    }
}

impl QozConfig {
    /// Configuration tuned for a specific quality metric.
    pub fn for_metric(metric: QualityMetric) -> Self {
        QozConfig {
            metric,
            ..Default::default()
        }
    }

    /// Effective anchor stride for an array rank (paper §VII-A4).
    pub fn effective_anchor_stride(&self, shape: Shape) -> u32 {
        self.anchor_stride.unwrap_or(match shape.ndim() {
            1 => 128,
            2 => 64,
            _ => 32,
        })
    }

    /// Effective sample block side.
    pub fn effective_sample_block(&self, shape: Shape) -> usize {
        self.sample_block.unwrap_or(match shape.ndim() {
            1 => 256,
            2 => 64,
            _ => 16,
        })
    }

    /// Effective sampling rate.
    pub fn effective_sample_rate(&self, shape: Shape) -> f64 {
        self.sample_rate.unwrap_or(match shape.ndim() {
            1 => 0.01,
            2 => 0.01,
            _ => 0.005,
        })
    }

    /// The deduplicated `(alpha, beta)` candidate pairs. `alpha = 1`
    /// collapses every beta to the same uniform-bound configuration, so
    /// it appears once.
    pub fn param_candidates(&self) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        for &a in &self.alpha_candidates {
            if (a - 1.0).abs() < 1e-12 {
                out.push((1.0, 1.0));
                continue;
            }
            for &b in &self.beta_candidates {
                out.push((a, b));
            }
        }
        out
    }
}

/// Per-level absolute error bounds from the paper's Eq. 5:
/// `e_l = e / min(alpha^(l-1), beta)`.
pub fn level_error_bounds(global_eb: f64, alpha: f64, beta: f64, levels: u32) -> Vec<f64> {
    assert!(alpha >= 1.0 && beta >= 1.0, "alpha/beta must be >= 1");
    (1..=levels.max(1))
        .map(|l| global_eb / alpha.powi(l as i32 - 1).min(beta))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq5_properties_hold() {
        // e_1 = e; e_l <= e; monotone non-increasing with level.
        let e = 0.01;
        for (a, b) in [(1.0, 1.0), (1.5, 3.0), (2.0, 4.0), (1.25, 1.5)] {
            let ebs = level_error_bounds(e, a, b, 6);
            assert_eq!(ebs[0], e, "e_1 must equal e");
            for w in ebs.windows(2) {
                assert!(w[1] <= w[0] + 1e-15, "bounds must tighten with level");
            }
            assert!(ebs.iter().all(|&x| x <= e && x > 0.0));
        }
    }

    #[test]
    fn beta_caps_the_decay() {
        let ebs = level_error_bounds(1.0, 2.0, 4.0, 8);
        // alpha^(l-1) = 1,2,4,8.. capped at beta=4.
        assert_eq!(ebs[0], 1.0);
        assert_eq!(ebs[1], 0.5);
        assert_eq!(ebs[2], 0.25);
        assert_eq!(ebs[3], 0.25);
        assert_eq!(ebs[7], 0.25);
    }

    #[test]
    fn candidate_grid_dedupes_alpha_one() {
        let c = QozConfig::default().param_candidates();
        // 1 (alpha=1) + 4*4 = 17 candidates.
        assert_eq!(c.len(), 17);
        assert_eq!(c.iter().filter(|&&(a, _)| a == 1.0).count(), 1);
    }

    #[test]
    fn rank_defaults_match_paper() {
        let cfg = QozConfig::default();
        assert_eq!(cfg.effective_anchor_stride(Shape::d2(100, 100)), 64);
        assert_eq!(cfg.effective_sample_block(Shape::d2(100, 100)), 64);
        assert_eq!(cfg.effective_anchor_stride(Shape::d3(10, 10, 10)), 32);
        assert_eq!(cfg.effective_sample_block(Shape::d3(10, 10, 10)), 16);
        assert_eq!(cfg.effective_sample_rate(Shape::d3(10, 10, 10)), 0.005);
    }
}
