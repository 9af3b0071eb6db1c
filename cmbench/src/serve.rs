//! `serve_stream`: a closed loop of two persistent `Client` connections
//! to an in-process loopback `Server`. Each connection streams
//! paper-scale traces over CMRPC1 in a fixed mix of `detect`,
//! `detect_sequential` and `identify` (16 distinct candidate sequences),
//! sending its next request only when the previous verdict is back.

use crate::common::{set_layer, span_ms_list, timed, Ctx, EndToEnd, Layers, Res, Scale, Tally};
use clockmark::cpa::{CandidatePattern, DetectOptions, Detector, SequentialOptions};
use clockmark_serve::{Client, Request, ServeLimits, Server, ServerHandle, CLIENT_CHUNK};
use cmbench::stats::{median, steady_rate, tail};
use cmbench::synth::{
    accepted_plans, candidates, detector_agrees, matches_truth, paper_pattern, synth_trace,
    TracePlan, PAPER_CYCLES,
};
use cmbench::tracer::Tracer;
use std::collections::btree_map::{BTreeMap, Entry};
use std::net::SocketAddr;
use std::time::Instant;

/// Client connections, and server pool workers.
pub const CONNECTIONS: usize = 2;

/// Distinct traces the clients stream.
const POOL: usize = 6;

/// Verdicts per window the closed loop's throughput is measured over: ten
/// turns of the request mix on every connection.
const WINDOW: usize = 10 * KINDS.len() * CONNECTIONS;

/// Identification candidates per `identify` request.
const CANDIDATES: usize = 16;

/// The request kinds, in mix order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Detect,
    Sequential,
    Identify,
}

const KINDS: [Kind; 3] = [Kind::Detect, Kind::Sequential, Kind::Identify];

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Detect => "serve.detect",
            Kind::Sequential => "serve.sequential",
            Kind::Identify => "serve.identify",
        }
    }
}

/// The generated inputs: the pattern, the traces and the candidates.
struct Inputs {
    pattern: Vec<bool>,
    plans: Vec<TracePlan>,
    traces: Vec<Vec<f64>>,
    candidates: Vec<CandidatePattern>,
}

/// The trace plans drawn from `seed` on which an in-process `Detector`
/// gets every request kind right; the number of noise redraws is
/// recorded in `tally`.
fn plans(seed: u64, tally: &mut Tally) -> Res<Vec<TracePlan>> {
    let pattern = paper_pattern();
    let det = Detector::new(&pattern)?;
    let candidates = candidates(&pattern, CANDIDATES);
    let (plans, redraws) = accepted_plans(seed, POOL, &pattern, PAPER_CYCLES, |plan, y| {
        detector_agrees(&det, plan, y, &candidates)
    });
    tally.info("noise_redraws", &redraws.to_string());
    Ok(plans)
}

fn inputs(plans: &[TracePlan]) -> Inputs {
    let pattern = paper_pattern();
    let plans = plans.to_vec();
    let traces = plans
        .iter()
        .map(|p| synth_trace(&pattern, PAPER_CYCLES, p.phase, p.seed))
        .collect();
    let candidates = candidates(&pattern, CANDIDATES);
    Inputs {
        pattern,
        plans,
        traces,
        candidates,
    }
}

/// One set-up: bind the server and generate the traces.
fn setup_once(plans: &[TracePlan]) -> Res<(ServerHandle, Inputs, f64)> {
    let (built, secs) = timed(|| -> Res<_> {
        let limits = ServeLimits {
            workers: CONNECTIONS,
            ..ServeLimits::default()
        };
        let server = Server::new().with_limits(limits).bind("127.0.0.1:0")?;
        Ok((server, inputs(plans)))
    });
    let (server, inputs) = built?;
    Ok((server, inputs, secs))
}

/// A verdict rendered with every bit of its floats (`{:?}` prints each
/// f64 in shortest round-trip form), plus whether it matches ground truth.
type Verdict = (String, bool);

/// One request over the wire.
fn request(
    client: &mut Client,
    inputs: &Inputs,
    kind: Kind,
    trace: usize,
) -> Result<Verdict, String> {
    let samples = &inputs.traces[trace];
    let plan = &inputs.plans[trace];
    let options = DetectOptions::default();
    let e = |e: clockmark_serve::ServeError| e.to_string();
    Ok(match kind {
        Kind::Detect => {
            let r = client
                .detect(&inputs.pattern, options, samples)
                .map_err(e)?;
            let ok = matches_truth(plan, &r.result) && r.cycles == samples.len() as u64;
            (format!("{:?}", r.result), ok)
        }
        Kind::Sequential => {
            let r = client
                .detect_sequential(
                    &inputs.pattern,
                    options,
                    SequentialOptions::default(),
                    samples,
                )
                .map_err(e)?;
            (format!("{r:?}"), matches_truth(plan, &r.result))
        }
        Kind::Identify => {
            let r = client
                .identify(&inputs.pattern, options, &inputs.candidates, samples)
                .map_err(e)?;
            let ok = match plan.phase {
                Some(_) => r.best().label == "true" && matches_truth(plan, &r.best().result),
                None => r.scores.iter().all(|s| !s.result.detected),
            };
            (format!("{r:?}"), ok)
        }
    })
}

/// The same request in process, rendered like [`request`]'s verdict.
fn in_process(inputs: &Inputs, kind: Kind, trace: usize) -> Res<String> {
    let samples = &inputs.traces[trace];
    let det = Detector::new(&inputs.pattern)?;
    Ok(match kind {
        Kind::Detect => format!("{:?}", det.detect(samples)?),
        Kind::Sequential => format!(
            "{:?}",
            det.detect_sequential(samples, SequentialOptions::default())?
        ),
        Kind::Identify => format!("{:?}", det.identify(samples, &inputs.candidates)?),
    })
}

/// One completed request.
struct Sample {
    kind: Kind,
    trace: usize,
    ms: f64,
    /// Seconds from the start of the loop to the verdict.
    done_s: f64,
    verdict: Verdict,
}

/// Checks every wire verdict against ground truth and, bit for bit,
/// against the in-process `Detector` on the same trace and options.
fn verify(inputs: &Inputs, samples: &[Sample], tally: &mut Tally, gate: &str) -> Res<()> {
    let mut expected: BTreeMap<(Kind, usize), String> = BTreeMap::new();
    let mut identical = 0;
    for s in samples {
        let want = match expected.entry((s.kind, s.trace)) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(in_process(inputs, s.kind, s.trace)?),
        };
        let same = *want == s.verdict.0;
        identical += usize::from(same);
        tally.verdict(same && s.verdict.1, || {
            format!(
                "{:?} on {}: {}",
                s.kind, inputs.plans[s.trace].name, s.verdict.0
            )
        });
    }
    tally.gate(
        gate,
        identical == samples.len(),
        format!(
            "{identical}/{} wire verdicts bit-identical to in-process Detector calls",
            samples.len()
        ),
    );
    Ok(())
}

/// The untraced run: end-to-end metrics plus latency figures.
pub fn run(ctx: &Ctx, tally: &mut Tally) -> Res<EndToEnd> {
    let plans = plans(ctx.seed, tally)?;
    let mut setups = Vec::new();
    let mut current = None;
    for _ in 0..5 {
        let (server, inputs, secs) = setup_once(&plans)?;
        setups.push(secs);
        if let Some((old, _)) = current.replace((server, inputs)) {
            ServerHandle::shutdown(old);
        }
    }
    let (server, inputs) = current.expect("five set-ups");
    let addr = server.local_addr();

    let start = Instant::now();
    let per_connection: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let inputs = &inputs;
                scope.spawn(move || closed_loop(addr, inputs, c, start, ctx.seconds))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    server.shutdown();
    let mut samples = Vec::new();
    for result in per_connection {
        samples.extend(result?);
    }
    verify(
        &inputs,
        &samples,
        tally,
        "serve_stream.wire_matches_in_process",
    )?;

    let ms: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    let kind_p50 = |kind: Kind| {
        let v: Vec<f64> = samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.ms)
            .collect();
        median(&v).unwrap_or(f64::NAN)
    };
    let mut extra = vec![
        ("request_p50_ms".to_owned(), median(&ms).unwrap_or(f64::NAN)),
        ("detect_p50_ms".to_owned(), kind_p50(Kind::Detect)),
        ("sequential_p50_ms".to_owned(), kind_p50(Kind::Sequential)),
        ("identify_p50_ms".to_owned(), kind_p50(Kind::Identify)),
        ("requests".to_owned(), ms.len() as f64),
    ];
    if let Some(tail) = tail(&ms) {
        extra.push(("request_tail_ms".to_owned(), tail.value));
        extra.push(("request_tail_percentile".to_owned(), tail.percentile));
        extra.push(("request_tail_samples".to_owned(), tail.samples as f64));
    }
    // The rate over each run of WINDOW consecutive verdicts.
    let mut done: Vec<f64> = samples.iter().map(|s| s.done_s).collect();
    done.sort_by(f64::total_cmp);
    let rates: Vec<f64> = done
        .iter()
        .step_by(WINDOW)
        .zip(done.iter().skip(WINDOW).step_by(WINDOW))
        .map(|(a, b)| (WINDOW * PAPER_CYCLES) as f64 / (b - a))
        .collect();
    let overall = (samples.len() * PAPER_CYCLES) as f64 / wall;
    extra.push(("overall_cycles_per_s".to_owned(), overall));
    Ok(EndToEnd {
        setup_s: median(&setups).expect("five set-ups"),
        // A loop too short for a window has only its overall rate.
        cycles_per_s: steady_rate(&rates).unwrap_or(overall),
        extra,
    })
}

/// One connection's closed loop: the next request goes out when the
/// previous verdict is back, until the window closes (and at least one
/// request of each kind has run).
fn closed_loop(
    addr: SocketAddr,
    inputs: &Inputs,
    connection: usize,
    start: Instant,
    seconds: f64,
) -> Result<Vec<Sample>, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    let mut n = 0;
    while n < KINDS.len() || start.elapsed().as_secs_f64() < seconds {
        let kind = KINDS[(n + connection) % KINDS.len()];
        let trace = (n * CONNECTIONS + connection) % POOL;
        let t0 = Instant::now();
        let verdict = request(&mut client, inputs, kind, trace)?;
        out.push(Sample {
            kind,
            trace,
            ms: t0.elapsed().as_secs_f64() * 1e3,
            done_s: start.elapsed().as_secs_f64(),
            verdict,
        });
        n += 1;
    }
    Ok(out)
}

/// Requests of each kind in the traced section, by scale.
fn per_kind(scale: Scale) -> usize {
    match scale {
        Scale::Full => 8,
        Scale::Probe => 2,
    }
}

/// Runs `n` requests of each kind on one connection, all on trace 0,
/// each inside a span named after its kind.
fn traced_requests(
    t: &mut Tracer,
    client: &mut Client,
    inputs: &Inputs,
    n: usize,
) -> Res<Vec<Sample>> {
    let mut out = Vec::new();
    let start = Instant::now();
    for i in 0..n * KINDS.len() {
        let kind = KINDS[i % KINDS.len()];
        let t0 = Instant::now();
        let verdict = t.span(kind.span(), |_| request(client, inputs, kind, 0))?;
        out.push(Sample {
            kind,
            trace: 0,
            ms: t0.elapsed().as_secs_f64() * 1e3,
            done_s: start.elapsed().as_secs_f64(),
            verdict,
        });
    }
    Ok(out)
}

/// The traced section: the wire codec, per-kind request latency, and the
/// same detections in process.
pub fn traced(
    ctx: &Ctx,
    scale: Scale,
    t: &mut Tracer,
    layers: &mut Layers,
    tally: &mut Tally,
) -> Res<()> {
    let plans = t.span("reference.accept_inputs", |_| plans(ctx.seed, tally))?;
    let (server, inputs, _) = setup_once(&plans)?;
    let n = per_kind(scale);
    let start = t.spans().len();
    let samples = &inputs.traces[0];
    let cycles = samples.len() as f64;

    let reps = n.div_ceil(2);
    let mark = t.spans().len();
    let mut round_trips = true;
    for _ in 0..reps {
        for chunk in samples.chunks(CLIENT_CHUNK) {
            let request = Request::DetectChunk {
                samples: chunk.to_vec(),
            };
            let (frame_type, payload) = t.span("serve.encode", |_| request.encode());
            let decoded = t.span("serve.decode", |_| Request::decode(frame_type, &payload))?;
            round_trips &= decoded == request;
        }
    }
    tally.gate(
        &format!("serve_stream.{scale:?}_codec_round_trips").to_lowercase(),
        round_trips,
        "DetectChunk frames decode to the request that was encoded",
    );
    let codec_ns = |name: &str| -> f64 {
        t.spans()[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .sum()
    };
    set_layer(
        layers,
        "serve.encode_ns_per_cycle",
        codec_ns("serve.encode") / (reps as f64 * cycles),
    );
    set_layer(
        layers,
        "serve.decode_ns_per_cycle",
        codec_ns("serve.decode") / (reps as f64 * cycles),
    );

    let mut client = Client::connect(server.local_addr())?;
    let before = client.bytes_sent();
    let (verdict, _) = request(&mut client, &inputs, Kind::Detect, 0)?;
    std::hint::black_box(verdict);
    set_layer(
        layers,
        "serve.wire_bytes_per_cycle",
        (client.bytes_sent() - before) as f64 / cycles,
    );

    let wire = t.span("bench.serve_requests", |t| {
        traced_requests(t, &mut client, &inputs, n)
    })?;
    verify(
        &inputs,
        &wire,
        tally,
        &format!("serve_stream.{scale:?}_wire_matches_in_process").to_lowercase(),
    )?;
    for kind in KINDS {
        let name = format!("{}_ms", kind.span());
        set_layer(
            layers,
            &name,
            median(&span_ms_list(t, start, kind.span())).unwrap_or(f64::NAN),
        );
    }

    let det = Detector::new(&inputs.pattern)?;
    for _ in 0..n {
        std::hint::black_box(t.span("cpa.detect", |_| det.detect(samples))?);
        std::hint::black_box(t.span("cpa.identify", |_| {
            det.identify(samples, &inputs.candidates)
        })?);
    }
    let in_process = median(&span_ms_list(t, start, "cpa.detect")).unwrap_or(f64::NAN);
    let wire_detect = median(&span_ms_list(t, start, "serve.detect")).unwrap_or(f64::NAN);
    set_layer(layers, "serve.overhead_ms", wire_detect - in_process);
    set_layer(
        layers,
        "cpa.identify_ms",
        median(&span_ms_list(t, start, "cpa.identify")).unwrap_or(f64::NAN),
    );

    if scale == Scale::Full {
        // Interleaved request rounds with recording off and on give the
        // tracing overhead.
        let (mut off, mut on) = (0.0, 0.0);
        t.span("reference.tracing_overhead", |_| -> Res<()> {
            for _ in 0..n {
                let (r, secs) =
                    timed(|| traced_requests(&mut Tracer::disabled(), &mut client, &inputs, 1));
                r?;
                off += secs;
                let (r, secs) =
                    timed(|| traced_requests(&mut Tracer::new(), &mut client, &inputs, 1));
                r?;
                on += secs;
            }
            Ok(())
        })?;
        layers.insert("obs.tracing_overhead".into(), on / off - 1.0);
    }
    drop(client);
    server.shutdown();
    Ok(())
}
