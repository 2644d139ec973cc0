//! The daemon workload: an in-process `qoz_serve::Server` on a Unix
//! socket, a QZAR archive under its archive root, and two closed-loop
//! clients in the same process.

use crate::inputs::{Case, Inputs, Rng};
use crate::record::{Op, Recorder};
use qoz_archive::{ArchiveReader, ArchiveWriter};
use qoz_serve::{Client, ClientConfig, Endpoint, Server, ServerConfig, StatsSnapshot};
use qoz_tensor::NdArray;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Closed-loop client connections.
pub const CLIENTS: usize = 2;

/// The archive's file name under the server's archive root.
const ARCHIVE: &str = "fields.qza";

/// Warm passes to try before timing starts regardless.
const MAX_WARM_PASSES: usize = 4;

/// A running daemon and the files it serves.
pub struct Daemon {
    dir: PathBuf,
    server: Server,
    endpoint: Endpoint,
    workers: usize,
    /// Warm passes it took until every (worker, key) pair had tuned.
    pub warm_passes: usize,
}

/// Server counters over a timed phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub served: u64,
    pub shed: u64,
    pub deadline_missed: u64,
    pub cold_tunes: u64,
}

impl Counts {
    fn between(a: &StatsSnapshot, b: &StatsSnapshot) -> Counts {
        Counts {
            served: b.served - a.served,
            shed: b.shed - a.shed,
            deadline_missed: b.deadline_missed - a.deadline_missed,
            cold_tunes: b.cold_tunes - a.cold_tunes,
        }
    }
}

/// The archive path a set-up with tag `tag` uses, relative to the
/// working directory (Unix socket paths must stay short).
fn scratch_dir(tag: usize) -> PathBuf {
    PathBuf::from(crate::OUT_DIR).join(format!("daemon-{}-{tag}", std::process::id()))
}

impl Daemon {
    /// Write the archive, start the server, and warm it until every
    /// worker has tuned every key.
    pub fn start(inputs: &Inputs, tag: usize) -> Result<Daemon, String> {
        let dir = scratch_dir(tag);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        write_archive(inputs, &dir.join(ARCHIVE))?;
        let mut config = ServerConfig::new(Endpoint::Unix(
            dir.join("serve.sock").to_string_lossy().into_owned(),
        ));
        config.archive_root = Some(dir.clone());
        let workers = config.workers;
        let server = Server::start(config).map_err(|e| format!("server start: {e}"))?;
        let endpoint = server.endpoint();
        let mut daemon = Daemon {
            dir,
            server,
            endpoint,
            workers,
            warm_passes: 0,
        };
        let keys = {
            let mut k: Vec<String> = inputs.cases.iter().map(Case::key).collect();
            k.sort();
            k.dedup();
            k.len() as u64
        };
        // Workers tune privately. Both clients send the same case at
        // once, so the two requests land on different workers.
        while daemon.server.stats().cold_tunes < daemon.workers as u64 * keys {
            if daemon.warm_passes == MAX_WARM_PASSES {
                break;
            }
            daemon.warm_passes += 1;
            let recs = daemon.drive(inputs, None, 0, Duration::ZERO, true);
            for rec in recs {
                if rec.failed > 0 || !rec.violations.is_empty() {
                    return Err(format!("warm-up pass had {} failures", rec.failed));
                }
            }
        }
        Ok(daemon)
    }

    pub fn archive_path(&self) -> PathBuf {
        self.dir.join(ARCHIVE)
    }

    /// Full decodes of every archived field, the reference the region
    /// reads are checked against.
    pub fn reference(&self, inputs: &Inputs) -> Result<Vec<NdArray<f32>>, String> {
        let path = self.archive_path();
        let reader = ArchiveReader::open(&path.to_string_lossy()).map_err(|e| e.to_string())?;
        inputs
            .fields
            .iter()
            .map(|f| reader.read_full::<f32>(f.name()).map_err(|e| e.to_string()))
            .collect()
    }

    /// The timed closed loop: both clients run for `seconds` (and at
    /// least one full round each); returns their merged observations,
    /// the wall time and the server's counters over the phase.
    pub fn run(
        &self,
        inputs: &Inputs,
        reference: &[NdArray<f32>],
        seed: u64,
        seconds: f64,
    ) -> (Vec<Recorder>, f64, Counts) {
        let before = self.server.stats();
        let start = Instant::now();
        let recs = self.drive(
            inputs,
            Some(reference),
            seed,
            Duration::from_secs_f64(seconds),
            false,
        );
        let wall = start.elapsed().as_secs_f64();
        let counts = Counts::between(&before, &self.server.stats());
        (recs, wall, counts)
    }

    /// Run both clients. In `paired` mode they step through the cases
    /// in lockstep, one pass; otherwise each starts at its own offset
    /// and loops until `length` has passed and it finished a round.
    fn drive(
        &self,
        inputs: &Inputs,
        reference: Option<&[NdArray<f32>]>,
        seed: u64,
        length: Duration,
        paired: bool,
    ) -> Vec<Recorder> {
        let cases = &inputs.cases;
        let n = cases.len();
        let barrier = Barrier::new(CLIENTS);
        let end = Instant::now() + length;
        std::thread::scope(|s| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let barrier = &barrier;
                    let mut config = ClientConfig::new(self.endpoint.clone());
                    // A refused request is a failure, not a retry.
                    config.max_retries = 0;
                    let mut client = Client::with_config(config);
                    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(c as u64));
                    s.spawn(move || {
                        let mut rec = Recorder::new(n);
                        let offset = if paired { 0 } else { c * n / CLIENTS };
                        let mut step = 0;
                        while step < n || (!paired && Instant::now() < end) {
                            let i = (offset + step) % n;
                            if paired {
                                barrier.wait();
                            }
                            one_step(&mut client, i, &cases[i], &mut rng, reference, &mut rec);
                            rec.step_done();
                            step += 1;
                        }
                        rec
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    }

    /// Drain and stop the server, then remove its files.
    pub fn stop(self) {
        if let Err(e) = self.server.shutdown() {
            eprintln!("perfbench: server shutdown: {e}");
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Write every field into one QZAR archive at its first case's bound.
fn write_archive(inputs: &Inputs, path: &Path) -> Result<(), String> {
    let qoz = qoz_core::Qoz::default();
    let mut w = ArchiveWriter::new();
    for field in &inputs.fields {
        let case = inputs
            .cases
            .iter()
            .find(|c| c.field.name() == field.name())
            .expect("every field has a case");
        w.add_variable(field.name(), &field.data, &qoz, case.bound)
            .map_err(|e| format!("archive {}: {e}", field.name()))?;
    }
    w.write_to(&path.to_string_lossy())
        .map(|_| ())
        .map_err(|e| format!("archive write: {e}"))
}

/// One step: compress the case's field, decode the returned stream,
/// then read a ~1% box of the archived field. With a reference, every
/// response is checked.
fn one_step(
    client: &mut Client,
    i: usize,
    case: &Case,
    rng: &mut Rng,
    reference: Option<&[NdArray<f32>]>,
    rec: &mut Recorder,
) {
    let data = &case.field.data;
    let t = Instant::now();
    let res = client.compress(&case.key(), data, case.bound, 0);
    let secs = t.elapsed().as_secs_f64();
    let blob = match res {
        Ok((_, blob)) => {
            rec.ok(i, Op::Compress, secs);
            rec.request(Some(secs));
            blob
        }
        Err(e) => {
            rec.failed("compress request", &e);
            return rec.request(None);
        }
    };
    let t = Instant::now();
    let res = client.decompress::<f32>(&blob, 0);
    let secs = t.elapsed().as_secs_f64();
    match res {
        Ok(out) => {
            rec.ok(i, Op::Decompress, secs);
            rec.request(Some(secs));
            rec.check_decoded(i, case, blob.len(), &out);
        }
        Err(e) => {
            rec.failed("decompress request", &e);
            rec.request(None);
        }
    }
    let region = rng.region_box(data.shape());
    let t = Instant::now();
    let res = client.region_read::<f32>(
        ARCHIVE,
        case.field.name(),
        region.origin(),
        region.size(),
        false,
        0,
    );
    let secs = t.elapsed().as_secs_f64();
    match res {
        Ok((slab, faults)) => {
            rec.ok(i, Op::Region, secs);
            rec.request(Some(secs));
            if let Some(full) = reference {
                let want = full[case.field_idx].extract_region(&region);
                let same = faults == 0
                    && slab.shape() == want.shape()
                    && slab
                        .as_slice()
                        .iter()
                        .zip(want.as_slice())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                if !same {
                    rec.violation(format!(
                        "{}: region {:?}+{:?} differs from the full decode",
                        case.key(),
                        region.origin(),
                        region.size()
                    ));
                }
            }
        }
        Err(e) => {
            rec.failed("region request", &e);
            rec.request(None);
        }
    }
}
