//! The serialized configuration of one interpolation-codec run.
//!
//! An [`InterpSpec`] captures everything the decompressor must know to
//! mirror the compressor's traversal: anchor stride (or none), number of
//! levels, per-level interpolator and per-level absolute error bound.
//! SZ3 instances use a degenerate spec (no anchors, one interpolator,
//! uniform bounds); QoZ writes fully level-adapted specs.

use qoz_codec::{ByteReader, ByteWriter, CodecError, LinearQuantizer, Result};
use qoz_predict::{max_level, DimOrder, InterpKind, LevelConfig};
use qoz_tensor::Shape;

/// Full configuration of an interpolation compression pass.
#[derive(Debug, Clone, PartialEq)]
pub struct InterpSpec {
    /// Anchor-grid stride (power of two). `None` = SZ3's global mode:
    /// only the base corner points exist and they are quantized against a
    /// zero prediction rather than stored losslessly.
    pub anchor_stride: Option<u32>,
    /// Highest interpolation level (level strides are `2^(l-1)`).
    pub max_level: u32,
    /// Interpolator per level; entry `l-1` configures level `l`.
    pub level_configs: Vec<LevelConfig>,
    /// Absolute error bound per level; entry `l-1` is for level `l`.
    pub level_ebs: Vec<f64>,
    /// Quantizer code radius.
    pub quant_radius: u32,
}

impl InterpSpec {
    /// Largest quantizer code radius a spec may carry. Every decoder of a
    /// serialized spec (streams, plan snapshots) enforces it through
    /// [`InterpSpec::checked_radius`] (and the anchor range through
    /// [`InterpSpec::checked_anchor_stride`]), so a spec that decodes
    /// also compresses to a stream that decodes; it keeps every radius
    /// that reaches the engine inside the block kernel's range.
    pub const MAX_QUANT_RADIUS: u32 = 1 << 24;

    /// Validate a decoded quantizer radius: `2..=MAX_QUANT_RADIUS`, the
    /// range the quantizer and the engine accept.
    pub fn checked_radius(raw: u64) -> Option<u32> {
        (2..=u64::from(Self::MAX_QUANT_RADIUS))
            .contains(&raw)
            .then_some(raw as u32)
    }

    /// Validate a decoded anchor stride: a power of two in `2..=2^30`.
    pub fn checked_anchor_stride(raw: u64) -> Option<u32> {
        ((2..=1 << 30).contains(&raw) && raw.is_power_of_two()).then_some(raw as u32)
    }

    /// SZ3's fixed configuration: no anchors, single interpolator, one
    /// global error bound on every level.
    pub fn sz3(shape: Shape, abs_eb: f64, cfg: LevelConfig) -> Self {
        let l = max_level(shape);
        InterpSpec {
            anchor_stride: None,
            max_level: l,
            level_configs: vec![cfg; l.max(1) as usize],
            level_ebs: vec![abs_eb; l.max(1) as usize],
            quant_radius: LinearQuantizer::DEFAULT_RADIUS,
        }
    }

    /// QoZ-style anchored spec skeleton with uniform bounds (the tuner
    /// then overwrites `level_configs` / `level_ebs`).
    pub fn anchored(anchor_stride: u32, abs_eb: f64, cfg: LevelConfig) -> Self {
        assert!(
            anchor_stride.is_power_of_two() && anchor_stride >= 2,
            "anchor stride must be a power of two >= 2"
        );
        let l = anchor_stride.trailing_zeros();
        InterpSpec {
            anchor_stride: Some(anchor_stride),
            max_level: l,
            level_configs: vec![cfg; l as usize],
            level_ebs: vec![abs_eb; l as usize],
            quant_radius: LinearQuantizer::DEFAULT_RADIUS,
        }
    }

    /// Error bound of level `l` (1-based).
    pub fn eb_of(&self, level: u32) -> f64 {
        self.level_ebs[(level - 1) as usize]
    }

    /// Interpolator of level `l` (1-based).
    pub fn config_of(&self, level: u32) -> LevelConfig {
        self.level_configs[(level - 1) as usize]
    }

    /// Smallest per-level bound (used to encode base points in
    /// unanchored mode so their error never exceeds any level's bound).
    pub fn tightest_eb(&self) -> f64 {
        self.level_ebs.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Serialize.
    pub fn write(&self, w: &mut ByteWriter) {
        match self.anchor_stride {
            None => w.put_u8(0),
            Some(s) => {
                w.put_u8(1);
                w.put_varint(s as u64);
            }
        }
        w.put_varint(self.max_level as u64);
        w.put_varint(self.level_configs.len() as u64);
        for (cfg, &eb) in self.level_configs.iter().zip(&self.level_ebs) {
            // Two bits of kernel, one bit of dimension order.
            let kind_bits = match cfg.kind {
                InterpKind::Linear => 0u8,
                InterpKind::Cubic => 1,
                InterpKind::Quadratic => 2,
            };
            let order_bit = match cfg.order {
                DimOrder::Ascending => 0u8,
                DimOrder::Descending => 4,
            };
            w.put_u8(kind_bits | order_bit);
            w.put_f64(eb);
        }
        w.put_varint(self.quant_radius as u64);
    }

    /// Deserialize and validate against the array shape.
    pub fn read(r: &mut ByteReader, shape: Shape) -> Result<Self> {
        let anchored = r.get_u8()?;
        let anchor_stride = match anchored {
            0 => None,
            1 => Some(
                Self::checked_anchor_stride(r.get_varint()?)
                    .ok_or(CodecError::Corrupt("bad anchor stride"))?,
            ),
            _ => return Err(CodecError::Corrupt("bad anchor flag")),
        };
        let max_lv = r.get_varint()? as u32;
        if max_lv > 40 {
            return Err(CodecError::Corrupt("implausible level count"));
        }
        let n = r.get_varint()? as usize;
        if n < max_lv as usize || n > 64 {
            return Err(CodecError::Corrupt("level table size mismatch"));
        }
        let mut level_configs = Vec::with_capacity(n);
        let mut level_ebs = Vec::with_capacity(n);
        for _ in 0..n {
            let packed = r.get_u8()?;
            let kind = match packed & 0x3 {
                0 => InterpKind::Linear,
                1 => InterpKind::Cubic,
                2 => InterpKind::Quadratic,
                _ => return Err(CodecError::Corrupt("bad level config")),
            };
            if packed & !0x7 != 0 {
                return Err(CodecError::Corrupt("bad level config"));
            }
            let order = if packed & 4 == 0 {
                DimOrder::Ascending
            } else {
                DimOrder::Descending
            };
            level_configs.push(LevelConfig { kind, order });
            let eb = r.get_f64()?;
            if eb.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) || !eb.is_finite() {
                return Err(CodecError::Corrupt("bad level error bound"));
            }
            level_ebs.push(eb);
        }
        let quant_radius = Self::checked_radius(r.get_varint()?)
            .ok_or(CodecError::Corrupt("bad quantizer radius"))?;
        // Unanchored specs must cover the full shape.
        if anchor_stride.is_none() && max_lv < max_level(shape) {
            return Err(CodecError::Corrupt("spec does not cover array"));
        }
        Ok(InterpSpec {
            anchor_stride,
            max_level: max_lv,
            level_configs,
            level_ebs,
            quant_radius,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sz3_spec_uniform() {
        let s = InterpSpec::sz3(Shape::d2(100, 100), 1e-3, LevelConfig::default());
        assert!(s.anchor_stride.is_none());
        assert_eq!(s.max_level, max_level(Shape::d2(100, 100)));
        assert!(s.level_ebs.iter().all(|&e| e == 1e-3));
    }

    #[test]
    fn anchored_spec_levels_match_stride() {
        let s = InterpSpec::anchored(32, 1e-3, LevelConfig::default());
        assert_eq!(s.max_level, 5);
        assert_eq!(s.level_configs.len(), 5);
    }

    #[test]
    fn roundtrip_serialization() {
        let mut s = InterpSpec::anchored(16, 1e-4, LevelConfig::default());
        s.level_configs[2] = LevelConfig {
            kind: InterpKind::Linear,
            order: DimOrder::Descending,
        };
        s.level_ebs[3] = 2.5e-5;
        let mut w = ByteWriter::new();
        s.write(&mut w);
        let buf = w.finish();
        let mut r = ByteReader::new(&buf);
        let back = InterpSpec::read(&mut r, Shape::d2(64, 64)).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn corrupt_specs_rejected() {
        let s = InterpSpec::sz3(Shape::d1(100), 1e-3, LevelConfig::default());
        let mut w = ByteWriter::new();
        s.write(&mut w);
        let buf = w.finish();
        // Break the anchor flag byte.
        let mut bad = buf.clone();
        bad[0] = 7;
        assert!(InterpSpec::read(&mut ByteReader::new(&bad), Shape::d1(100)).is_err());
        // Truncations.
        for cut in 0..buf.len() {
            assert!(InterpSpec::read(&mut ByteReader::new(&buf[..cut]), Shape::d1(100)).is_err());
        }
    }

    #[test]
    #[should_panic]
    fn non_pow2_anchor_rejected() {
        let _ = InterpSpec::anchored(12, 1e-3, LevelConfig::default());
    }

    #[test]
    fn insufficient_levels_rejected_for_shape() {
        let small = InterpSpec::sz3(Shape::d1(4), 1e-3, LevelConfig::default());
        let mut w = ByteWriter::new();
        small.write(&mut w);
        let buf = w.finish();
        // Reading against a much larger shape must fail.
        assert!(InterpSpec::read(&mut ByteReader::new(&buf), Shape::d1(10_000)).is_err());
    }
}
