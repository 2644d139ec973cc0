//! The in-process workloads: warm `Pipeline`s and one-shot `Session`s.

use crate::inputs::{Case, Inputs, Workload};
use crate::record::{Op, Recorder};
use qoz_api::{BackendId, Pipeline, Session};
use qoz_tensor::NdArray;
use std::time::{Duration, Instant};

/// A QoZ session compressing toward `case`'s bound.
pub fn session(case: &Case) -> Result<Session, String> {
    Session::builder()
        .backend(BackendId::Qoz)
        .bound(case.bound)
        .build()
        .map_err(|e| format!("{}: {e}", case.key()))
}

/// What a workload's timed loop calls into.
enum Api {
    /// One warm pipeline per case.
    Warm(Vec<Pipeline<f32>>),
    /// One session per case; every call tunes and allocates afresh.
    Cold(Vec<Session>),
}

/// The handles a workload's timed loop calls into, plus one decode
/// buffer per case.
pub struct Handles {
    api: Api,
    outs: Vec<NdArray<f32>>,
}

impl Handles {
    /// Build the handles and run one untimed pass over every case, so
    /// plans are tuned and buffers grown before timing starts.
    pub fn setup(workload: Workload, inputs: &Inputs) -> Result<Handles, String> {
        let sessions = inputs
            .cases
            .iter()
            .map(session)
            .collect::<Result<Vec<_>, _>>()?;
        let api = if workload.is_cold() {
            Api::Cold(sessions)
        } else {
            Api::Warm(sessions.iter().map(|s| s.pipeline()).collect())
        };
        let outs = inputs
            .cases
            .iter()
            .map(|c| NdArray::zeros(c.field.data.shape()))
            .collect();
        let mut handles = Handles { api, outs };
        for (i, case) in inputs.cases.iter().enumerate() {
            let blob = handles
                .compress(i, case)
                .map_err(|e| format!("set-up compress of {}: {e}", case.key()))?;
            handles
                .decompress(i, &blob)
                .map_err(|e| format!("set-up decompress of {}: {e}", case.key()))?;
        }
        Ok(handles)
    }

    fn compress(&mut self, i: usize, case: &Case) -> Result<Vec<u8>, qoz_api::ApiError> {
        match &mut self.api {
            Api::Warm(pipes) => pipes[i].compress(&case.field.data).map(|c| c.blob),
            Api::Cold(sessions) => sessions[i].compress(&case.field.data).map(|c| c.blob),
        }
    }

    /// Decode `blob` for case `i`. A warm pipeline decodes into the
    /// case's buffer; a session returns a fresh array, which the caller
    /// stores off the clock (so the old buffer's drop is not timed).
    fn decompress(
        &mut self,
        i: usize,
        blob: &[u8],
    ) -> Result<Option<NdArray<f32>>, qoz_api::ApiError> {
        match &mut self.api {
            Api::Warm(pipes) => pipes[i]
                .decompress_into(blob, &mut self.outs[i])
                .map(|()| None),
            Api::Cold(sessions) => sessions[i].decompress::<f32>(blob).map(Some),
        }
    }

    /// The closed loop: compress a case, decode the stream, gate the
    /// result, next case; for `seconds`, and at least one full round.
    /// A request is one step, the compress and decode round trip.
    pub fn run(&mut self, inputs: &Inputs, seconds: f64) -> (Recorder, f64) {
        let cases = &inputs.cases;
        let mut rec = Recorder::new(cases.len());
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(seconds);
        let mut step = 0usize;
        while Instant::now() < end || step < cases.len() {
            let i = step % cases.len();
            let case = &cases[i];
            let t = Instant::now();
            let res = self.compress(i, case);
            let compress_s = t.elapsed().as_secs_f64();
            let mut step_s = None;
            match res {
                Ok(blob) => {
                    rec.ok(i, Op::Compress, compress_s);
                    let t = Instant::now();
                    let res = self.decompress(i, &blob);
                    let decompress_s = t.elapsed().as_secs_f64();
                    match res {
                        Ok(owned) => {
                            rec.ok(i, Op::Decompress, decompress_s);
                            step_s = Some(compress_s + decompress_s);
                            if let Some(out) = owned {
                                self.outs[i] = out;
                            }
                            rec.check_decoded(i, case, blob.len(), &self.outs[i]);
                        }
                        Err(e) => rec.failed("decompress", &e),
                    }
                }
                Err(e) => rec.failed("compress", &e),
            }
            rec.request(step_s);
            rec.step_done();
            step += 1;
        }
        (rec, start.elapsed().as_secs_f64())
    }
}
