//! SZ3's global interpolator selection.
//!
//! SZ3 picks *one* interpolation method for the entire dataset by running
//! trial compressions on sampled blocks and keeping the candidate with the
//! lowest mean absolute prediction error. (QoZ refines this to a
//! *per-level* selection; that lives in `qoz-core`.)

use crate::engine::compress_with_spec_into;
use crate::spec::InterpSpec;
use qoz_codec::Scratch;
use qoz_predict::LevelConfig;
use qoz_tensor::{sample_blocks, NdArray, SamplePlan, Scalar, Shape};

/// Default sampling parameters per rank (paper §VII-A4: block 64 / 1% for
/// 2D, block 16 / 0.5% for 3D).
pub fn default_sample_plan(shape: Shape) -> SamplePlan {
    match shape.ndim() {
        1 => SamplePlan::from_rate(shape, 256, 0.01),
        2 => SamplePlan::from_rate(shape, 64, 0.01),
        _ => SamplePlan::from_rate(shape, 16, 0.005),
    }
}

/// Choose the single best interpolator for the whole dataset by sampled
/// trial compression (lowest mean absolute prediction error wins).
pub fn select_global_interp<T: Scalar>(data: &NdArray<T>, abs_eb: f64) -> LevelConfig {
    let plan = default_sample_plan(data.shape());
    let blocks = sample_blocks(data, &plan);
    if blocks.is_empty() {
        return LevelConfig::default();
    }

    let mut best = LevelConfig::default();
    let mut best_err = f64::INFINITY;
    // SZ3's selection space is the paper-original one: linear and cubic
    // kernels only. (The quadratic kernel is a QoZ-side extension and
    // participates only in QoZ's level-adapted selector.)
    let candidates: Vec<LevelConfig> = LevelConfig::candidates()
        .into_iter()
        .filter(|c| {
            matches!(
                c.kind,
                qoz_predict::InterpKind::Linear | qoz_predict::InterpKind::Cubic
            )
        })
        .collect();
    let mut scratch = Scratch::new();
    for cand in candidates {
        let mut sum = 0.0f64;
        let mut count = 0u64;
        for block in &blocks {
            let spec = InterpSpec::sz3(block.shape(), abs_eb, cand);
            let out = compress_with_spec_into(block, &spec, &mut scratch);
            sum += out.sum_abs_pred_err;
            count += out.pred_count;
        }
        let err = if count == 0 {
            f64::INFINITY
        } else {
            sum / count as f64
        };
        if err < best_err {
            best_err = err;
            best = cand;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoz_predict::InterpKind;

    #[test]
    fn smooth_data_prefers_cubic() {
        let data = NdArray::from_fn(Shape::d2(128, 128), |i| {
            ((i[0] as f64) * 0.05).sin() * ((i[1] as f64) * 0.04).cos()
        });
        let cfg = select_global_interp(&data, 1e-5);
        assert_eq!(cfg.kind, InterpKind::Cubic);
    }

    #[test]
    fn selection_runs_on_tiny_inputs() {
        let data = NdArray::from_fn(Shape::d1(10), |i| i[0] as f32);
        let _ = select_global_interp(&data, 1e-3);
    }

    #[test]
    fn selection_deterministic() {
        let data = qoz_datagen::Dataset::CesmAtm.generate(qoz_datagen::SizeClass::Tiny, 0);
        let a = select_global_interp(&data, 1e-3);
        let b = select_global_interp(&data, 1e-3);
        assert_eq!(a, b);
    }
}
