//! Workloads and the inputs they run on, made from the seed.

use crate::json::Json;
use qoz_codec::ErrorBound;
use qoz_datagen::{Dataset, SizeClass};
use qoz_tensor::{NdArray, Region};
use std::sync::Arc;

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warm pipelines at `Rel(1e-4)` over all six datasets.
    WarmTight,
    /// Warm pipelines at `Rel(1e-2)` over the three smooth datasets.
    WarmLoose,
    /// One-shot `Session` calls, full online tuning on every call.
    ColdTune,
    /// An in-process daemon driven by two closed-loop clients.
    Daemon,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WarmTight,
        Workload::WarmLoose,
        Workload::ColdTune,
        Workload::Daemon,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmTight => "warm-tight",
            Workload::WarmLoose => "warm-loose",
            Workload::ColdTune => "cold-tune",
            Workload::Daemon => "daemon",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn datasets(self) -> &'static [Dataset] {
        match self {
            Workload::WarmLoose => &[Dataset::Miranda, Dataset::ScaleLetkf, Dataset::Hurricane],
            _ => &Dataset::ALL,
        }
    }

    /// The relative bounds the workload compresses at.
    pub fn rel_bounds(self) -> &'static [f64] {
        match self {
            Workload::WarmTight => &[1e-4],
            Workload::WarmLoose => &[1e-2],
            Workload::ColdTune => &[1e-2, 1e-3],
            Workload::Daemon => &[1e-3],
        }
    }

    /// Whether every compress runs the full online tuning (no plan
    /// cache, allocating paths).
    pub fn is_cold(self) -> bool {
        self == Workload::ColdTune
    }
}

/// One generated field.
#[derive(Debug)]
pub struct Field {
    pub dataset: Dataset,
    pub data: NdArray<f32>,
}

impl Field {
    pub fn name(&self) -> &'static str {
        self.dataset.name()
    }

    pub fn raw_bytes(&self) -> u64 {
        (self.data.len() * 4) as u64
    }
}

/// One unit of work: a field and the bound it is compressed at.
#[derive(Debug, Clone)]
pub struct Case {
    /// Index of the field in [`Inputs::fields`].
    pub field_idx: usize,
    pub field: Arc<Field>,
    pub bound: ErrorBound,
    /// The bound resolved against this field: every decoded value must
    /// lie within it.
    pub abs_bound: f64,
}

impl Case {
    /// The daemon's pipeline key: one key per (dataset, bound).
    pub fn key(&self) -> String {
        format!("{}@{}", self.field.name(), self.bound.value())
    }
}

/// A workload's inputs.
#[derive(Debug)]
pub struct Inputs {
    pub fields: Vec<Arc<Field>>,
    /// The order one round visits: every (field, bound) pair once.
    pub cases: Vec<Case>,
}

impl Inputs {
    /// Generate the workload's fields from `seed`, two fields at a time.
    pub fn generate(workload: Workload, size: SizeClass, seed: u64) -> Inputs {
        let datasets = workload.datasets();
        let mut made: Vec<(usize, Field)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|w| {
                    s.spawn(move || {
                        datasets
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| i % 2 == w)
                            .map(|(i, &d)| {
                                let data = d.generate(size, seed);
                                (i, Field { dataset: d, data })
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|h| h.join().expect("field generation panicked"))
                .collect()
        });
        made.sort_by_key(|&(i, _)| i);
        let fields: Vec<Arc<Field>> = made.into_iter().map(|(_, f)| Arc::new(f)).collect();
        // Bounds alternate from one step to the next, and over two
        // passes every field meets every bound.
        let bounds = workload.rel_bounds();
        let n = fields.len();
        let cases = (0..n * bounds.len())
            .map(|i| {
                let field = Arc::clone(&fields[i % n]);
                let bound = ErrorBound::Rel(bounds[(i + i / n) % bounds.len()]);
                let abs_bound = bound.absolute(&field.data);
                Case {
                    field_idx: i % n,
                    field,
                    bound,
                    abs_bound,
                }
            })
            .collect();
        Inputs { fields, cases }
    }

    /// The field list for the report.
    pub fn describe(&self) -> Json {
        Json::Arr(
            self.fields
                .iter()
                .map(|f| {
                    Json::obj()
                        .with("name", f.name())
                        .with(
                            "dims",
                            Json::Arr(f.data.shape().dims().iter().map(|&d| d.into()).collect()),
                        )
                        .with("bytes", f.raw_bytes())
                })
                .collect(),
        )
    }
}

/// A splitmix64 stream for the benchmark's own random choices (region
/// boxes), seeded from the run seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0xD1B5_4A32_D192_ED03)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A box holding about 1% of `shape`, at a random position.
    pub fn region_box(&mut self, shape: qoz_tensor::Shape) -> Region {
        let side = 0.01f64.powf(1.0 / shape.ndim() as f64);
        let dims = shape.dims();
        let size: Vec<usize> = dims
            .iter()
            .map(|&d| ((d as f64 * side).round() as usize).clamp(1, d))
            .collect();
        let origin: Vec<usize> = dims
            .iter()
            .zip(&size)
            .map(|(&d, &s)| (self.next_u64() % (d - s + 1) as u64) as usize)
            .collect();
        Region::new(&origin, &size)
    }
}
