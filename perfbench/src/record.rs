//! Per-operation bookkeeping shared by every workload: latencies,
//! fastest calls, per-round totals, failures and correctness gates.

use crate::inputs::Case;
use crate::json::Json;
use crate::stats::{self, Tail};
use qoz_tensor::NdArray;

/// The kinds of operation a step performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Compress = 0,
    Decompress = 1,
    Region = 2,
}

/// Totals over one round: one pass over every case.
#[derive(Debug, Clone, Copy, Default)]
pub struct Round {
    /// Seconds spent in, and count of, each [`Op`].
    secs: [f64; 3],
    count: [u64; 3],
    steps: usize,
}

impl Round {
    /// Mean latency of one `op` in this round, in ms.
    pub fn mean_ms(&self, op: Op) -> f64 {
        self.secs[op as usize] * 1e3 / self.count[op as usize] as f64
    }
}

/// Everything one closed-loop client (or the single in-process loop)
/// observed.
#[derive(Debug)]
pub struct Recorder {
    n_cases: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate violations (bound breaks, mismatches).
    pub violations: Vec<String>,
    /// Every request's latency in ms; failed requests are `+inf`.
    pub latencies_ms: Vec<f64>,
    /// Per case, from its first completed round trip: compressed bytes
    /// and PSNR of the decoded field.
    first: Vec<Option<(u64, f64)>>,
    /// Per case, the fastest compress and decompress seen, seconds
    /// (indexed by [`Op`]).
    fastest: Vec<[f64; 2]>,
    current: Round,
    pub rounds: Vec<Round>,
}

impl Recorder {
    pub fn new(n_cases: usize) -> Recorder {
        Recorder {
            n_cases,
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            latencies_ms: Vec::new(),
            first: vec![None; n_cases],
            fastest: vec![[f64::INFINITY; 2]; n_cases],
            current: Round::default(),
            rounds: Vec::new(),
        }
    }

    /// A completed operation on case `idx`.
    pub fn ok(&mut self, idx: usize, op: Op, secs: f64) {
        self.attempted += 1;
        if op != Op::Region {
            let best = &mut self.fastest[idx][op as usize];
            *best = best.min(secs);
        }
        self.current.secs[op as usize] += secs;
        self.current.count[op as usize] += 1;
    }

    /// A failed or refused operation, counted against the attempts.
    pub fn failed(&mut self, what: &str, err: &dyn std::fmt::Display) {
        eprintln!("perfbench: {what} failed: {err}");
        self.attempted += 1;
        self.failed += 1;
    }

    /// One request's latency; `None` for a request that failed, which
    /// counts as missing any latency limit.
    pub fn request(&mut self, secs: Option<f64>) {
        self.latencies_ms
            .push(secs.map_or(f64::INFINITY, |s| s * 1e3));
    }

    pub fn violation(&mut self, msg: String) {
        eprintln!("perfbench: correctness gate: {msg}");
        self.violations.push(msg);
    }

    /// Gate a decoded field against its resolved bound; the first round
    /// trip of each case also records its size and PSNR.
    pub fn check_decoded(&mut self, idx: usize, case: &Case, blob_len: usize, out: &NdArray<f32>) {
        let data = &case.field.data;
        if out.shape() != data.shape() {
            self.violation(format!("{}: decoded shape differs", case.key()));
            return;
        }
        let err = data.max_abs_diff(out);
        if err.is_nan() || err > case.abs_bound {
            self.violation(format!(
                "{}: max |err| {err:e} exceeds bound {:e}",
                case.key(),
                case.abs_bound
            ));
        }
        if self.first[idx].is_none() {
            self.first[idx] = Some((blob_len as u64, qoz_metrics::psnr(data, out)));
        }
    }

    /// Close a step; a full pass over the cases closes a round.
    pub fn step_done(&mut self) {
        self.current.steps += 1;
        if self.current.steps == self.n_cases {
            self.rounds.push(std::mem::take(&mut self.current));
        }
    }

    /// Whether every case has completed a round trip at least once.
    pub fn covered(&self) -> bool {
        self.first.iter().all(Option::is_some)
    }

    /// Fold another client's observations into this one.
    pub fn merge(&mut self, other: Recorder) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violations.extend(other.violations);
        self.latencies_ms.extend(other.latencies_ms);
        for (mine, theirs) in self.first.iter_mut().zip(other.first) {
            if mine.is_none() {
                *mine = theirs;
            }
        }
        for (mine, theirs) in self.fastest.iter_mut().zip(other.fastest) {
            mine[0] = mine[0].min(theirs[0]);
            mine[1] = mine[1].min(theirs[1]);
        }
        self.rounds.extend(other.rounds);
    }

    /// The end-to-end metrics over a timed phase of `wall_s` seconds.
    ///
    /// Throughput is one pass over every case at each case's fastest
    /// observed call: on a shared host, contention from other tenants
    /// comes and goes for seconds at a time and inflates the other calls,
    /// so the fastest call is the steadiest estimate of the program's own
    /// cost. Latencies keep every request, contention included.
    pub fn end_to_end(&self, cases: &[Case], wall_s: f64) -> EndToEnd {
        let raw_total: u64 = cases.iter().map(|c| c.field.raw_bytes()).sum();
        let mbps = |op: Op| -> f64 {
            let secs: f64 = self.fastest.iter().map(|f| f[op as usize]).sum();
            raw_total as f64 / secs / 1e6
        };
        let (raw, packed) = cases
            .iter()
            .zip(&self.first)
            .filter_map(|(c, f)| f.map(|(bytes, _)| (c.field.raw_bytes(), bytes)))
            .fold((0u64, 0u64), |(r, p), (cr, cp)| (r + cr, p + cp));
        let psnrs: Vec<f64> = self.first.iter().flatten().map(|&(_, p)| p).collect();
        let (p50, tail) = stats::p50_and_tail(&self.latencies_ms);
        let done = self.latencies_ms.iter().filter(|l| l.is_finite()).count();
        EndToEnd {
            compress_mbps: mbps(Op::Compress),
            decompress_mbps: mbps(Op::Decompress),
            compress_ratio: raw as f64 / packed as f64,
            psnr_db: stats::mean(&psnrs),
            req_p50_ms: p50,
            req_tail: tail,
            req_per_s: done as f64 / wall_s,
            rounds: self.rounds.len(),
        }
    }
}

/// The end-to-end metrics of one run (all but `setup_s`).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub compress_mbps: f64,
    pub decompress_mbps: f64,
    pub compress_ratio: f64,
    pub psnr_db: f64,
    pub req_p50_ms: f64,
    pub req_tail: Tail,
    pub req_per_s: f64,
    /// Complete rounds (passes over every case) in the timed phase.
    pub rounds: usize,
}

/// `{"value": v, "unit": u}`, the form every reported metric takes.
pub fn metric(value: f64, unit: &str) -> Json {
    Json::obj().with("value", value).with("unit", unit)
}

impl EndToEnd {
    /// The result line's metrics, with the measured `setup_s`.
    pub fn metrics(&self, setup_s: f64) -> Json {
        Json::obj()
            .with("compress_mbps", metric(self.compress_mbps, "MB/s"))
            .with("decompress_mbps", metric(self.decompress_mbps, "MB/s"))
            .with("compress_ratio", metric(self.compress_ratio, "ratio"))
            .with("psnr_db", metric(self.psnr_db, "dB"))
            .with("req_p50_ms", metric(self.req_p50_ms, "ms"))
            .with("req_tail_ms", metric(self.req_tail.value, "ms"))
            .with("req_per_s", metric(self.req_per_s, "1/s"))
            .with("setup_s", metric(setup_s, "s"))
    }

    /// Details for the report line: which percentile the tail is and
    /// how many samples it rests on.
    pub fn describe(&self) -> Json {
        Json::obj()
            .with("req_tail_percentile", self.req_tail.percentile)
            .with("req_samples", self.req_tail.samples)
            .with("rounds", self.rounds)
    }
}
