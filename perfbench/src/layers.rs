//! The traced run: every compress and decompress rebuilt from the
//! layers' public functions, each call wrapped in a span, checked
//! against the real `Pipeline` output; then the archive and the daemon
//! timed per request kind.

use crate::daemon::Daemon;
use crate::inputs::{Case, Inputs, Rng, Workload};
use crate::json::Json;
use crate::record::{metric, Op, Recorder};
use crate::stats::median;
use crate::trace::Tracer;
use qoz_api::{Pipeline, PlanOutcome, Session};
use qoz_codec::huffman::{HuffmanDecoder, HuffmanEncoder};
use qoz_codec::lz::{lzss_compress_with, lzss_decompress_with};
use qoz_codec::stream::{self, CompressorId, Header};
use qoz_codec::{ByteReader, ByteWriter, CodecError, Scratch};
use qoz_core::{PlanCache, Qoz};
use qoz_serve::protocol::{read_frame, write_frame, Request, MAX_PAYLOAD};
use qoz_sz3::engine;
use qoz_sz3::InterpSpec;
use qoz_tensor::{NdArray, Scalar};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Tags of the entropy-coded bin section, as `qoz_codec::backend`
/// writes them.
const BINS_EMPTY: u8 = 0;
const BINS_DATA: u8 = 1;

/// Root span names of the rebuilt calls.
const COMPRESS: &str = "api.compress";
const DECOMPRESS: &str = "api.decompress";

/// Shares of `--seconds` given to the layer sweep and the archive
/// probe; the daemon probe gets the rest.
const SWEEP_SHARE: f64 = 0.5;
const ARCHIVE_SHARE: f64 = 0.1;

/// Everything the traced run keeps per case.
struct CaseState {
    qoz: Qoz,
    cache: PlanCache,
    /// Arena of the rebuilt calls (warm workloads reuse it).
    scratch: Scratch<f32>,
    out: NdArray<f32>,
    session: Session,
    pipe: Pipeline<f32>,
    pipe_out: NdArray<f32>,
    /// `Pipeline::compress` output and its decode: the reference.
    ref_blob: Vec<u8>,
    ref_out: NdArray<f32>,
    /// The compress and decompress requests a client sends for the case.
    requests: [Request; 2],
}

/// Byte accounting of one rebuilt stream.
#[derive(Debug, Default, Clone, Copy)]
struct Sizes {
    total: usize,
    bins: usize,
    huff: usize,
    packed_bins: usize,
    side: usize,
    n_bins: usize,
    n_unpred: usize,
}

fn api_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Rebuild one compress from the layer calls, in `write_stream`'s
/// order. `cold` follows `Session::compress` (full tuning, fresh
/// buffers); otherwise `Pipeline::compress` (plan cache, reused arena).
fn traced_compress(
    tr: &mut Tracer,
    st: &mut CaseState,
    case: &Case,
    cold: bool,
) -> (Vec<u8>, Sizes, Option<PlanOutcome>) {
    let data = &case.field.data;
    let mut fresh = Scratch::new();
    let scratch = if cold { &mut fresh } else { &mut st.scratch };
    let root = tr.begin(COMPRESS);
    let (plan, outcome) = if cold {
        (
            tr.span("tuning.plan", || st.qoz.plan(data, case.bound)),
            None,
        )
    } else {
        let (plan, outcome) = tr.span("plan_cache.lookup", || {
            st.qoz.plan_cached(data, case.bound, &mut st.cache)
        });
        (plan, Some(outcome))
    };
    tr.span("engine.predict_quantize", || {
        engine::compress_with_spec_into(data, &plan.spec, scratch)
    });
    let header = Header {
        compressor: CompressorId::Qoz,
        scalar_tag: f32::TYPE_TAG,
        shape: data.shape(),
        abs_eb: plan.abs_eb,
        temporal: None,
    };
    let mut w = tr.span("stream.assemble", || {
        let mut w = ByteWriter::with_capacity(scratch.bins.len() / 4 + 64);
        stream::write_header(&mut w, &header);
        plan.spec.write(&mut w);
        w
    });
    let mut sizes = Sizes {
        n_bins: scratch.bins.len(),
        n_unpred: scratch.unpred.len() / f32::BYTES,
        ..Sizes::default()
    };
    // The bin section: `qoz_codec::encode_bins_with` layer by layer.
    let es = &mut scratch.entropy;
    let bins = &scratch.bins;
    let mut section = ByteWriter::from_vec(std::mem::take(&mut scratch.section));
    match tr.span("huffman.build", || {
        HuffmanEncoder::from_symbols_with(bins, &mut es.huffman)
    }) {
        None => section.put_u8(BINS_EMPTY),
        Some(enc) => {
            section.put_u8(BINS_DATA);
            let mut huff = ByteWriter::from_vec(std::mem::take(&mut es.huff));
            tr.span("huffman.encode", || {
                enc.encode_with(bins, &mut es.bits, &mut huff);
                enc.recycle(&mut es.huffman);
            });
            let huff = huff.into_vec();
            tr.span("lz.bins_encode", || {
                lzss_compress_with(&huff, &mut es.lz, &mut es.packed)
            });
            sizes.huff = huff.len();
            sizes.packed_bins = es.packed.len();
            es.huff = huff;
            tr.span("stream.assemble", || section.put_len_prefixed(&es.packed));
        }
    }
    let section = section.into_vec();
    sizes.bins = section.len();
    tr.span("stream.assemble", || w.put_len_prefixed(&section));
    scratch.section = section;
    // The two side streams, each packed then framed.
    for side in [&scratch.unpred, &scratch.anchors] {
        tr.span("lz.side_encode", || {
            lzss_compress_with(side, &mut es.lz, &mut scratch.section)
        });
        sizes.side += scratch.section.len();
        tr.span("stream.assemble", || w.put_len_prefixed(&scratch.section));
    }
    let blob = tr.span("stream.assemble", || w.finish());
    tr.end(root);
    sizes.total = blob.len();
    (blob, sizes, outcome)
}

/// The parsed sections of a stream.
struct Parsed<'a> {
    header: Header,
    spec: InterpSpec,
    packed_bins: Option<&'a [u8]>,
    unpred: &'a [u8],
    anchors: &'a [u8],
}

fn parse(blob: &[u8]) -> Result<Parsed<'_>, CodecError> {
    let mut r = ByteReader::new(blob);
    let header = engine::check_stream_header::<f32>(&mut r, CompressorId::Qoz, "not a QoZ stream")?;
    let spec = InterpSpec::read(&mut r, header.shape)?;
    let mut bins = ByteReader::new(r.get_len_prefixed()?);
    let packed_bins = match bins.get_u8()? {
        BINS_EMPTY => None,
        BINS_DATA => Some(bins.get_len_prefixed()?),
        _ => return Err(CodecError::Corrupt("unknown bin stream tag")),
    };
    Ok(Parsed {
        header,
        spec,
        packed_bins,
        unpred: r.get_len_prefixed()?,
        anchors: r.get_len_prefixed()?,
    })
}

/// Rebuild one decompress from the layer calls (the mirror of
/// `read_stream_into`); the decoded field lands in `st.out`.
fn traced_decompress(
    tr: &mut Tracer,
    st: &mut CaseState,
    blob: &[u8],
    cold: bool,
) -> Result<(), CodecError> {
    let mut fresh = Scratch::new();
    let scratch = if cold { &mut fresh } else { &mut st.scratch };
    let root = tr.begin(DECOMPRESS);
    let res = (|| {
        let p = tr.span("stream.parse", || parse(blob))?;
        let es = &mut scratch.entropy;
        match p.packed_bins {
            None => scratch.bins.clear(),
            Some(packed) => {
                let huff = &mut es.huff;
                tr.span("lz.bins_decode", || {
                    lzss_decompress_with(packed, &mut es.lz, huff)
                })?;
                tr.span("huffman.decode", || {
                    HuffmanDecoder::decode_with(
                        &mut ByteReader::new(huff),
                        &mut es.huffman,
                        &mut scratch.bins,
                    )
                })?;
            }
        }
        tr.span("lz.side_decode", || {
            lzss_decompress_with(p.unpred, &mut es.lz, &mut scratch.unpred)?;
            lzss_decompress_with(p.anchors, &mut es.lz, &mut scratch.anchors)
        })?;
        let shape = p.header.shape;
        let out = &mut st.out;
        tr.span("engine.reconstruct", || {
            if cold {
                // `Session::decompress` hands back a fresh array.
                *out = NdArray::zeros(shape);
            }
            engine::decompress_with_spec_into(
                shape,
                &p.spec,
                &scratch.bins,
                &scratch.unpred,
                &scratch.anchors,
                out,
            )
        })
        .map(|_| ())
    })();
    tr.end(root);
    res
}

fn same_bits(a: &NdArray<f32>, b: &NdArray<f32>) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

impl CaseState {
    fn new(case: &Case) -> Result<CaseState, String> {
        let data = &case.field.data;
        let session = crate::inproc::session(case)?;
        let mut pipe = session.pipeline::<f32>();
        let ref_blob = pipe.compress(data).map_err(api_err)?.blob;
        let mut ref_out = NdArray::zeros(data.shape());
        pipe.decompress_into(&ref_blob, &mut ref_out)
            .map_err(api_err)?;
        let qoz = session.registry().qoz();
        let mut cache = PlanCache::new(session.drift_tolerance());
        qoz.plan_cached(data, case.bound, &mut cache);
        Ok(CaseState {
            qoz,
            cache,
            scratch: Scratch::new(),
            out: NdArray::zeros(data.shape()),
            session,
            pipe,
            pipe_out: NdArray::zeros(data.shape()),
            requests: [
                Request::Compress {
                    name: case.key(),
                    scalar_tag: f32::TYPE_TAG,
                    dims: data.shape().dims().to_vec(),
                    bound: case.bound,
                    budget_ms: 0,
                    raw: data
                        .as_slice()
                        .iter()
                        .flat_map(|v| v.to_le_bytes())
                        .collect(),
                },
                Request::Decompress {
                    budget_ms: 0,
                    blob: ref_blob.clone(),
                },
            ],
            ref_blob,
            ref_out,
        })
    }
}

/// Per-round sums, turned into per-call means when the round closes.
#[derive(Default)]
struct Sums {
    /// Self time per span name, seconds.
    layers: BTreeMap<&'static str, f64>,
    calls: f64,
    api_compress: f64,
    api_decompress: f64,
    pipe_compress: f64,
    pipe_decompress: f64,
    traced_wall: f64,
    covered_compress: f64,
    covered_decompress: f64,
    frame: f64,
    lookups: f64,
    warm: f64,
    sizes: Vec<Sizes>,
}

/// One value per round for every per-layer metric.
#[derive(Default)]
struct Series(BTreeMap<&'static str, Vec<f64>>);

impl Series {
    fn add(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(f64::NAN, |v| median(v))
    }

    fn close_round(&mut self, s: &Sums) {
        let ms = |secs: f64| secs * 1e3 / s.calls;
        for (name, layer) in [
            ("tuning.plan_ms", "tuning.plan"),
            ("plan_cache.lookup_ms", "plan_cache.lookup"),
            ("engine.predict_quantize_ms", "engine.predict_quantize"),
            ("engine.reconstruct_ms", "engine.reconstruct"),
            ("huffman.build_ms", "huffman.build"),
            ("huffman.encode_ms", "huffman.encode"),
            ("huffman.decode_ms", "huffman.decode"),
            ("lz.bins_encode_ms", "lz.bins_encode"),
            ("lz.bins_decode_ms", "lz.bins_decode"),
            ("lz.side_encode_ms", "lz.side_encode"),
            ("lz.side_decode_ms", "lz.side_decode"),
            ("stream.assemble_ms", "stream.assemble"),
            ("stream.parse_ms", "stream.parse"),
        ] {
            self.add(name, ms(s.layers.get(layer).copied().unwrap_or(0.0)));
        }
        self.add("api.compress_ms", ms(s.api_compress));
        self.add("api.decompress_ms", ms(s.api_decompress));
        self.add("pipe.compress_ms", ms(s.pipe_compress));
        self.add("pipe.decompress_ms", ms(s.pipe_decompress));
        self.add(
            "api.layer_coverage.compress",
            s.covered_compress / s.api_compress,
        );
        self.add(
            "api.layer_coverage.decompress",
            s.covered_decompress / s.api_decompress,
        );
        self.add(
            "trace.overhead_ms",
            ms(s.traced_wall - s.api_compress - s.api_decompress),
        );
        self.add("serve.frame_ms", ms(s.frame));
        self.add("plan_cache.warm_frac", s.warm / s.lookups);
        let sum = |f: fn(&Sizes) -> usize| s.sizes.iter().map(f).sum::<usize>() as f64;
        self.add(
            "engine.unpred_frac",
            sum(|z| z.n_unpred) / sum(|z| z.n_bins),
        );
        self.add(
            "huffman.bits_per_bin",
            sum(|z| z.huff) * 8.0 / sum(|z| z.n_bins),
        );
        self.add("lz.bins_yield", sum(|z| z.huff) / sum(|z| z.packed_bins));
        self.add(
            "stream.header_bytes",
            sum(|z| z.total - z.bins - z.side) / s.calls,
        );
        self.add("stream.bins_bytes", sum(|z| z.bins) / s.calls);
        self.add("stream.side_bytes", sum(|z| z.side) / s.calls);
    }
}

/// One rebuilt round trip of `case` plus the untraced API calls it is
/// checked and timed against.
fn sweep_case(
    tr: &mut Tracer,
    st: &mut CaseState,
    idx: usize,
    case: &Case,
    cold: bool,
    sums: &mut Sums,
    rec: &mut Recorder,
) {
    let data = &case.field.data;
    let mark = tr.spans.len();
    // The plan layer the rebuilt compress does not run itself.
    if cold {
        let (_, outcome) = tr.span("plan_cache.lookup", || {
            st.qoz.plan_cached(data, case.bound, &mut st.cache)
        });
        sums.lookups += 1.0;
        sums.warm += f64::from(u8::from(outcome.is_warm()));
    } else {
        tr.span("tuning.plan", || st.qoz.plan(data, case.bound));
    }
    let (blob, sizes, outcome) = traced_compress(tr, st, case, cold);
    if let Some(o) = outcome {
        sums.lookups += 1.0;
        sums.warm += f64::from(u8::from(o.is_warm()));
    }
    rec.attempted += 1;
    if blob != st.ref_blob {
        rec.violation(format!(
            "{}: rebuilt stream differs from Pipeline::compress",
            case.key()
        ));
    }
    rec.attempted += 1;
    match traced_decompress(tr, st, &blob, cold) {
        Ok(()) if same_bits(&st.out, &st.ref_out) => {}
        Ok(()) => rec.violation(format!(
            "{}: rebuilt decode differs from decompress_into",
            case.key()
        )),
        Err(e) => rec.failed("rebuilt decompress", &e),
    }
    let own = tr.self_secs(mark);
    for (s, self_s) in tr.spans[mark..].iter().zip(&own) {
        *sums.layers.entry(s.name).or_default() += self_s;
        match s.parent.map(|p| tr.spans[p].name) {
            Some(COMPRESS) => sums.covered_compress += self_s,
            Some(DECOMPRESS) => sums.covered_decompress += self_s,
            _ => {}
        }
        if s.name == COMPRESS || s.name == DECOMPRESS {
            sums.traced_wall += s.secs();
        }
    }
    sums.sizes.push(sizes);

    // The workload's own API, untraced.
    let t = Instant::now();
    let api = if cold {
        st.session.compress(data)
    } else {
        st.pipe.compress(data)
    };
    let api_compress = t.elapsed().as_secs_f64();
    rec.attempted += 1;
    match api {
        Ok(c) if c.blob == st.ref_blob => {}
        Ok(_) => rec.violation(format!("{}: API stream is not deterministic", case.key())),
        Err(e) => rec.failed("compress", &e),
    }
    let t = Instant::now();
    let decoded = if cold {
        st.session.decompress::<f32>(&st.ref_blob).map(Some)
    } else {
        st.pipe
            .decompress_into(&st.ref_blob, &mut st.pipe_out)
            .map(|()| None)
    };
    let api_decompress = t.elapsed().as_secs_f64();
    rec.attempted += 1;
    match decoded {
        Ok(out) => {
            if let Some(out) = out {
                st.pipe_out = out;
            }
            if !same_bits(&st.pipe_out, &st.ref_out) {
                rec.violation(format!("{}: API decode is not deterministic", case.key()));
            }
            rec.check_decoded(idx, case, st.ref_blob.len(), &st.pipe_out);
        }
        Err(e) => rec.failed("decompress", &e),
    }
    sums.api_compress += api_compress;
    sums.api_decompress += api_decompress;
    // The warm pipeline the daemon's workers run, for the serve overhead.
    if !cold {
        sums.pipe_compress += api_compress;
        sums.pipe_decompress += api_decompress;
    } else {
        let t = Instant::now();
        let res = st.pipe.compress(data);
        sums.pipe_compress += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let dec = st.pipe.decompress_into(&st.ref_blob, &mut st.pipe_out);
        sums.pipe_decompress += t.elapsed().as_secs_f64();
        rec.attempted += 2;
        if let Err(e) = res {
            rec.failed("compress", &e);
        }
        if let Err(e) = dec {
            rec.failed("decompress", &e);
        }
    }
    // The request frames a client sends for this step.
    let t = Instant::now();
    let mut wire = Vec::new();
    let mut framed = 0;
    for req in &st.requests {
        wire.clear();
        let frame = write_frame(&mut wire, req.kind(), &req.encode())
            .map_err(|e| e.to_string())
            .and_then(|()| {
                read_frame(&mut wire.as_slice(), MAX_PAYLOAD).map_err(|e| e.to_string())
            });
        match frame {
            Ok((_, payload)) => framed += payload.len(),
            Err(e) => rec.failed("frame round trip", &e),
        }
    }
    std::hint::black_box(framed);
    sums.frame += t.elapsed().as_secs_f64();
    sums.calls += 1.0;
}

/// The traced run of `workload`: per-layer metrics, the rebuilt-stream
/// checks, and where the spans were written.
pub struct Traced {
    pub metrics: Json,
    pub rec: Recorder,
    pub report: Json,
}

pub fn run(workload: Workload, inputs: &Inputs, seed: u64, seconds: f64) -> Result<Traced, String> {
    let cold = workload.is_cold();
    let cases = &inputs.cases;
    let mut states = cases
        .iter()
        .map(CaseState::new)
        .collect::<Result<Vec<_>, _>>()?;
    let daemon = Daemon::start(inputs, 0)?;
    let reference = daemon.reference(inputs)?;
    let mut rec = Recorder::new(cases.len());
    let mut series = Series::default();

    // Warm the rebuilt path's arenas, off the record.
    for (st, case) in states.iter_mut().zip(cases) {
        let (blob, _, _) = traced_compress(&mut Tracer::default(), st, case, cold);
        traced_decompress(&mut Tracer::default(), st, &blob, cold).map_err(api_err)?;
    }

    let mut tr = Tracer::default();
    let start = Instant::now();
    let sweep_end = start + Duration::from_secs_f64(seconds * SWEEP_SHARE);
    let mut rounds = 0usize;
    while rounds == 0 || Instant::now() < sweep_end {
        let mut sums = Sums::default();
        for (idx, (st, case)) in states.iter_mut().zip(cases).enumerate() {
            sweep_case(&mut tr, st, idx, case, cold, &mut sums, &mut rec);
        }
        series.close_round(&sums);
        rounds += 1;
    }

    // Region reads straight from the archive.
    let reader = qoz_archive::ArchiveReader::open(&daemon.archive_path().to_string_lossy())
        .map_err(api_err)?;
    let mut rng = Rng::new(seed);
    let archive_end = Instant::now() + Duration::from_secs_f64(seconds * ARCHIVE_SHARE);
    let mut archive_rounds = 0usize;
    while archive_rounds == 0 || Instant::now() < archive_end {
        let (mut secs, mut frac) = (0.0, 0.0);
        for (field, full) in inputs.fields.iter().zip(&reference) {
            let region = rng.region_box(field.data.shape());
            let before = reader.bytes_read();
            let t = Instant::now();
            let slab = tr.span("archive.read_region", || {
                reader.read_region::<f32>(field.name(), &region)
            });
            secs += t.elapsed().as_secs_f64();
            frac += (reader.bytes_read() - before) as f64 / reader.archive_len() as f64;
            rec.attempted += 1;
            match slab {
                Ok(slab) if same_bits(&slab, &full.extract_region(&region)) => {}
                Ok(_) => rec.violation(format!("{}: region read differs", field.name())),
                Err(e) => rec.failed("region read", &e),
            }
        }
        let n = inputs.fields.len() as f64;
        series.add("archive.region_ms", secs * 1e3 / n);
        series.add("archive.read_frac", frac / n);
        archive_rounds += 1;
    }

    // The daemon, timed per request kind from the client side.
    let serve_s = (seconds - start.elapsed().as_secs_f64()).max(seconds * 0.2);
    let (clients, _, counts) = daemon.run(inputs, &reference, seed, serve_s);
    let mut serve = Series::default();
    for c in clients {
        for r in &c.rounds {
            serve.add("compress", r.mean_ms(Op::Compress));
            serve.add("decompress", r.mean_ms(Op::Decompress));
            serve.add("region", r.mean_ms(Op::Region));
        }
        rec.merge(c);
    }
    let warm_passes = daemon.warm_passes;
    daemon.stop();

    std::fs::create_dir_all(crate::OUT_DIR).map_err(api_err)?;
    let trace_path = std::path::Path::new(crate::OUT_DIR)
        .join(format!("trace-{}-seed{seed}.jsonl", workload.name()));
    tr.write(&trace_path).map_err(api_err)?;

    let m = |name: &str| series.median(name);
    let in_process = |op: &str| match op {
        "compress" => m("pipe.compress_ms"),
        "decompress" => m("pipe.decompress_ms"),
        _ => m("archive.region_ms"),
    };
    let mut metrics = Json::obj();
    let ms_layers = [
        "tuning.plan_ms",
        "plan_cache.lookup_ms",
        "engine.predict_quantize_ms",
        "engine.reconstruct_ms",
        "huffman.build_ms",
        "huffman.encode_ms",
        "huffman.decode_ms",
        "lz.bins_encode_ms",
        "lz.bins_decode_ms",
        "lz.side_encode_ms",
        "lz.side_decode_ms",
        "stream.assemble_ms",
        "stream.parse_ms",
        "api.compress_ms",
        "api.decompress_ms",
        "trace.overhead_ms",
        "serve.frame_ms",
        "archive.region_ms",
    ];
    for name in ms_layers {
        metrics.push(name, metric(m(name), "ms"));
    }
    for (name, unit) in [
        ("plan_cache.warm_frac", "ratio"),
        ("engine.unpred_frac", "ratio"),
        ("huffman.bits_per_bin", "bits"),
        ("lz.bins_yield", "ratio"),
        ("stream.header_bytes", "bytes"),
        ("stream.bins_bytes", "bytes"),
        ("stream.side_bytes", "bytes"),
        ("api.layer_coverage.compress", "ratio"),
        ("api.layer_coverage.decompress", "ratio"),
        ("archive.read_frac", "ratio"),
    ] {
        metrics.push(name, metric(m(name), unit));
    }
    for op in ["compress", "decompress", "region"] {
        let client_ms = serve.median(op);
        metrics.push(&format!("serve.{op}_ms"), metric(client_ms, "ms"));
        metrics.push(
            &format!("serve.overhead_ms.{op}"),
            metric(client_ms - in_process(op), "ms"),
        );
    }
    metrics.push("serve.shed", metric(counts.shed as f64, "count"));
    metrics.push(
        "serve.deadline_missed",
        metric(counts.deadline_missed as f64, "count"),
    );
    metrics.push(
        "serve.cold_tunes",
        metric(counts.cold_tunes as f64, "count"),
    );

    let report = Json::obj()
        .with("trace_file", trace_path.to_string_lossy().into_owned())
        .with("spans", tr.spans.len())
        .with("sweep_rounds", rounds)
        .with("archive_rounds", archive_rounds)
        .with("serve_rounds", serve.0.get("compress").map_or(0, Vec::len))
        .with("daemon_warm_passes", warm_passes)
        .with("daemon_served", counts.served);
    Ok(Traced {
        metrics,
        rec,
        report,
    })
}
