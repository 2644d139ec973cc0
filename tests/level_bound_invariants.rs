//! Fine-grained invariants of the level-adapted engine: each
//! interpolation level must respect *its own* (tighter) bound, not just
//! the global one — the mechanism behind Eq. 5's quality gains.

use qoz_suite::codec::Scratch;
use qoz_suite::predict::{base_stride, for_each_base_point, max_level, traverse_level};
use qoz_suite::sz3::{compress_with_spec_into, InterpSpec};
use qoz_suite::tensor::{NdArray, Shape};

fn field() -> NdArray<f64> {
    NdArray::from_fn(Shape::d2(65, 65), |i| {
        (i[0] as f64 * 0.11).sin() * (i[1] as f64 * 0.07).cos() * 3.0
    })
}

/// Collect, per level, the set of linear offsets that level predicts.
fn offsets_by_level(shape: Shape, spec: &InterpSpec) -> Vec<(u32, Vec<usize>)> {
    let mut out = Vec::new();
    let mut dummy = vec![0f64; shape.len()];
    for level in (1..=spec.max_level).rev() {
        let mut offs = Vec::new();
        traverse_level(
            &mut dummy,
            shape,
            level,
            spec.config_of(level),
            &mut |_, off, _| offs.push(off),
        );
        out.push((level, offs));
    }
    out
}

#[test]
fn per_level_bounds_hold_pointwise() {
    let data = field();
    let shape = data.shape();
    let mut spec = InterpSpec::anchored(16, 8e-3, Default::default());
    // Strongly tiered bounds.
    spec.level_ebs = vec![8e-3, 4e-3, 2e-3, 1e-3];

    let mut scratch = Scratch::new();
    compress_with_spec_into(&data, &spec, &mut scratch);
    for (level, offs) in offsets_by_level(shape, &spec) {
        let eb = spec.eb_of(level);
        for off in offs {
            let err = (scratch.work[off] - data.as_slice()[off]).abs();
            assert!(
                err <= eb * (1.0 + 1e-12),
                "level {level}: err {err} > eb {eb} at offset {off}"
            );
        }
    }
}

#[test]
fn anchors_not_counted_as_level_points() {
    let shape = Shape::d2(33, 33);
    let spec = InterpSpec::anchored(8, 1e-3, Default::default());
    let mut anchor_offs = std::collections::HashSet::new();
    for_each_base_point(shape, 8, |off| {
        anchor_offs.insert(off);
    });
    for (_, offs) in offsets_by_level(shape, &spec) {
        for off in offs {
            assert!(!anchor_offs.contains(&off), "level visited an anchor");
        }
    }
}

#[test]
fn sz3_mode_levels_cover_exactly_the_non_base_points() {
    let shape = Shape::d3(17, 9, 21);
    let data = NdArray::from_fn(shape, |i| (i[0] + i[1] * 2 + i[2]) as f64);
    let spec = InterpSpec::sz3(shape, 1e-3, Default::default());
    assert_eq!(spec.max_level, max_level(shape));
    let mut count = 0usize;
    for (_, offs) in offsets_by_level(shape, &spec) {
        count += offs.len();
    }
    let mut base = 0usize;
    for_each_base_point(shape, base_stride(spec.max_level), |_| base += 1);
    assert_eq!(count + base, data.len());
}

#[test]
fn tiered_bounds_improve_low_level_prediction() {
    // Tightening high-level bounds should reduce the mean absolute
    // prediction error observed at the (dense) lowest level — the
    // causal mechanism the paper's Eq. 5 exploits.
    let data = field();
    let loose = InterpSpec::anchored(16, 8e-3, Default::default());
    let mut tiered = loose.clone();
    tiered.level_ebs = vec![8e-3, 2e-3, 2e-3, 2e-3];

    // Instrument level-1 errors only.
    let err_level1 = |spec: &InterpSpec| -> f64 {
        // Run levels max..2 with the spec, then measure level-1
        // prediction errors against the original values.
        let shape = data.shape();
        let mut work = data.clone();
        let q = |eb: f64| qoz_suite::codec::LinearQuantizer::new(eb);
        for level in (2..=spec.max_level).rev() {
            let quant = q(spec.eb_of(level));
            traverse_level(
                work.as_mut_slice(),
                shape,
                level,
                spec.config_of(level),
                &mut |buf, off, pred| {
                    buf[off] = quant.quantize(buf[off], pred).reconstructed;
                },
            );
        }
        let mut sum = 0.0;
        let mut n = 0u64;
        traverse_level(
            work.as_mut_slice(),
            shape,
            1,
            spec.config_of(1),
            &mut |buf, off, pred| {
                sum += (buf[off] - pred).abs();
                n += 1;
                // Do not quantize: we only probe predictions.
            },
        );
        sum / n as f64
    };

    let e_loose = err_level1(&loose);
    let e_tiered = err_level1(&tiered);
    assert!(
        e_tiered <= e_loose * 1.001,
        "tiered {e_tiered} should not exceed loose {e_loose}"
    );
}
