//! Load-generates the `clockmark-serve` detection service: N concurrent
//! clients hammer a loopback server with full detect exchanges, and the
//! run reports sustained requests/sec plus the rejection rate under
//! deliberate overload. Every wire verdict is checked bit-for-bit
//! against an in-process [`Detector`] run of the same trace and options,
//! and the run ends by proving a graceful drain: shutdown is triggered
//! while every client is mid-exchange, and all of them must still get
//! their verdict (zero dropped in-flight sessions).
//!
//! ```sh
//! cargo run --release -p clockmark-bench --bin serve_throughput              # 8 clients
//! cargo run --release -p clockmark-bench --bin serve_throughput -- --clients 16 --requests 40
//! cargo run --release -p clockmark-bench --bin serve_throughput -- --quick  # CI smoke
//! ```

use clockmark::prelude::*;
use clockmark_bench::{arg_value, has_flag};
use clockmark_serve::protocol::{self, Request, Response};
use clockmark_serve::{Backoff, Client, ServeError, ServeLimits, Server};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Aperiodic test watermark: xorshift64 bits have low autocorrelation,
/// so the correlation peak is unambiguous even on short traces.
fn pattern(period: usize) -> Vec<bool> {
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    (0..period)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s & 1 == 1
        })
        .collect()
}

/// Deterministic watermarked trace: the pattern at rotation 17 plus a
/// low-amplitude sinusoidal "background".
fn trace(pattern: &[bool], cycles: usize) -> Vec<f64> {
    let period = pattern.len();
    (0..cycles)
        .map(|i| {
            let wm = if pattern[(i + 17) % period] {
                0.8
            } else {
                -0.8
            };
            wm + (i as f64 * 0.37).sin() * 0.3
        })
        .collect()
}

fn assert_bit_identical(wire: &DetectionResult, local: &DetectionResult) {
    assert_eq!(wire.detected, local.detected);
    assert_eq!(wire.peak_rotation, local.peak_rotation);
    assert_eq!(wire.peak_rho.to_bits(), local.peak_rho.to_bits());
    assert_eq!(wire.floor_max_abs.to_bits(), local.floor_max_abs.to_bits());
    assert_eq!(wire.ratio.to_bits(), local.ratio.to_bits());
    assert_eq!(wire.zscore.to_bits(), local.zscore.to_bits());
}

/// One persistent-connection worker: `requests` sequential detect
/// exchanges, retrying on `Busy` through a seeded [`Backoff`] so
/// contending workers spread out instead of thundering back in lockstep.
#[allow(clippy::too_many_arguments)]
fn run_worker(
    addr: SocketAddr,
    pattern: &[bool],
    options: DetectOptions,
    samples: &[f64],
    reference: &DetectionResult,
    requests: usize,
    busy_retries: &AtomicU64,
    seed: u64,
) {
    let deadline = Instant::now() + Duration::from_secs(60);
    // Tight bounds keep the bench's overload phase fast; the server's
    // `retry_after_ms` hint still floors every delay.
    let mut backoff =
        Backoff::with_bounds(seed, Duration::from_millis(2), Duration::from_millis(250));
    // Claim a session slot: a rejected connection answers the ping probe
    // with `Busy` (or tears the connection down right after), so only a
    // connection that ponged is known to hold a slot.
    let mut client = loop {
        assert!(Instant::now() < deadline, "no slot freed within 60s");
        match Client::connect_with_timeout(addr, Duration::from_secs(30)) {
            Ok(mut c) => match c.ping() {
                Ok(()) => break c,
                Err(ServeError::Busy { retry_after_ms }) => {
                    busy_retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(backoff.next_delay(retry_after_ms));
                }
                // The reject path may close before the probe is read;
                // treat the torn-down connection as the same backoff.
                Err(ServeError::Io { .. }) => {
                    busy_retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(backoff.next_delay(0));
                }
                Err(e) => panic!("ping probe failed: {e}"),
            },
            Err(ServeError::Busy { retry_after_ms }) => {
                busy_retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(backoff.next_delay(retry_after_ms));
            }
            Err(e) => panic!("connect failed: {e}"),
        }
    };
    for _ in 0..requests {
        let verdict = client
            .detect(pattern, options, samples)
            .expect("detect over the wire");
        assert_eq!(verdict.cycles, samples.len() as u64);
        assert_bit_identical(&verdict.result, reference);
    }
}

/// Opens a raw protocol exchange and parks it half-streamed: greeting,
/// `DetectStart`, half the samples, then a `Status` round-trip so the
/// server has provably processed the open exchange.
fn open_half_streamed(
    addr: SocketAddr,
    pattern: &[bool],
    options: DetectOptions,
    samples: &[f64],
) -> TcpStream {
    let mut raw = TcpStream::connect(addr).expect("connect raw");
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    protocol::write_greeting(&mut raw).unwrap();
    protocol::read_greeting(&mut raw).expect("greeting echoed");
    let (ty, payload) = Request::DetectStart {
        pattern: pattern.to_vec(),
        algo: options.algo,
        criterion: options.criterion,
        mode: DetectMode::Fixed,
    }
    .encode();
    protocol::write_frame(&mut raw, ty, &payload).unwrap();
    let (ty, payload) = Request::DetectChunk {
        samples: samples[..samples.len() / 2].to_vec(),
    }
    .encode();
    protocol::write_frame(&mut raw, ty, &payload).unwrap();
    let (ty, payload) = Request::Status.encode();
    protocol::write_frame(&mut raw, ty, &payload).unwrap();
    let (ty, payload) = protocol::read_frame(&mut raw, 1 << 20).expect("status frame");
    assert!(matches!(
        Response::decode(ty, &payload).expect("decodes"),
        Response::Status(_)
    ));
    raw
}

/// Finishes a half-streamed exchange and returns the wire verdict.
fn finish_half_streamed(mut raw: TcpStream, samples: &[f64]) -> DetectionResult {
    let (ty, payload) = Request::DetectChunk {
        samples: samples[samples.len() / 2..].to_vec(),
    }
    .encode();
    protocol::write_frame(&mut raw, ty, &payload).unwrap();
    let (ty, payload) = Request::DetectFinish.encode();
    protocol::write_frame(&mut raw, ty, &payload).unwrap();
    let (ty, payload) = protocol::read_frame(&mut raw, 1 << 20).expect("verdict during drain");
    match Response::decode(ty, &payload).expect("decodes") {
        Response::Verdict(v) => v.result,
        other => panic!("expected a verdict, got {other:?}"),
    }
}

fn main() {
    clockmark_bench::obs_scope("serve_throughput", run);
}

fn run() {
    let quick = has_flag("--quick");
    let clients = arg_value("--clients", 8).max(1) as usize;
    let requests = arg_value("--requests", if quick { 4 } else { 25 }).max(1) as usize;
    let period = 64usize;
    let cycles = period * if quick { 60 } else { 240 };

    let pattern = pattern(period);
    let samples = trace(&pattern, cycles);
    // Pin the kernel so the in-process reference and every wire verdict
    // run the same arithmetic regardless of the environment.
    let options = DetectOptions::default().with_algo(CpaAlgo::Folded);
    let detector = Detector::with_options(&pattern, options).expect("valid pattern");
    let reference = detector.detect(&samples).expect("local detect");
    assert!(
        reference.detected,
        "fixture must be detectable or the bench proves nothing"
    );

    let limits = ServeLimits {
        max_sessions: clients,
        ..ServeLimits::default()
    };
    let handle = Server::new()
        .with_limits(limits)
        .bind("127.0.0.1:0")
        .expect("bind loopback");
    let addr = handle.local_addr();

    println!(
        "serve_throughput: {clients} concurrent client(s), {requests} request(s) each, \
         {cycles}-cycle trace (P = {period}), pool of {clients} session(s)"
    );

    // Phase 1 — sustained throughput: N persistent connections, each
    // streaming full detect exchanges back to back.
    let busy_retries = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let (pattern, samples, reference, busy_retries) =
            (&pattern, &samples, &reference, &busy_retries);
        for i in 0..clients {
            scope.spawn(move || {
                run_worker(
                    addr,
                    pattern,
                    options,
                    samples,
                    reference,
                    requests,
                    busy_retries,
                    i as u64,
                );
            });
        }
    });
    let elapsed = start.elapsed();
    let total = (clients * requests) as f64;
    let rps = total / elapsed.as_secs_f64().max(1e-9);
    println!(
        "throughput   : {total:.0} requests in {elapsed:.2?} = {rps:.0} req/s, \
         all verdicts bit-identical to the in-process Detector"
    );

    // Phase 2 — overload: twice as many one-shot clients as slots. The
    // excess must be rejected with `Busy` + a retry hint (bounded
    // backpressure), and every client must eventually succeed.
    let overload = clients * 2;
    let busy_before = busy_retries.load(Ordering::Relaxed);
    let gate = Barrier::new(overload);
    std::thread::scope(|scope| {
        let (pattern, samples, reference, busy_retries, gate) =
            (&pattern, &samples, &reference, &busy_retries, &gate);
        for i in 0..overload {
            scope.spawn(move || {
                gate.wait();
                run_worker(
                    addr,
                    pattern,
                    options,
                    samples,
                    reference,
                    1,
                    busy_retries,
                    // Disjoint from the phase-1 seed range so the two
                    // phases draw unrelated jitter streams.
                    0x1000 + i as u64,
                );
            });
        }
    });
    let busy_seen = busy_retries.load(Ordering::Relaxed) - busy_before;
    let status = handle.status();
    let attempts = status.served + status.rejected;
    let rejection_rate = status.rejected as f64 / attempts.max(1) as f64;
    println!(
        "overload     : {overload} one-shot clients against {clients} slot(s); \
         {busy_seen} Busy retr{} observed client-side",
        if busy_seen == 1 { "y" } else { "ies" }
    );
    println!(
        "server totals: served {} detect(s), rejected {} connection(s) \
         (rejection rate {:.1}%)",
        status.served,
        status.rejected,
        rejection_rate * 100.0
    );

    // Phase 3 — graceful drain: park every client mid-exchange, trigger
    // shutdown, and require every in-flight session to still complete.
    // Wait for phase 2's dropped connections to release their slots
    // first, so every parked exchange gets one.
    let pool_clear = Instant::now() + Duration::from_secs(10);
    while handle.status().active_sessions > 0 {
        assert!(
            Instant::now() < pool_clear,
            "phase 2 sessions never drained"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let streams: Vec<TcpStream> = (0..clients)
        .map(|_| open_half_streamed(addr, &pattern, options, &samples))
        .collect();
    let served_before_drain = handle.status().served;
    let (verdicts, final_status) = std::thread::scope(|scope| {
        let finishers: Vec<_> = streams
            .into_iter()
            .map(|raw| scope.spawn(|| finish_half_streamed(raw, &samples)))
            .collect();
        // All exchanges are provably open server-side (each did a Status
        // round-trip), so the drain cannot outrun a DetectStart.
        let final_status = handle.shutdown();
        let verdicts: Vec<_> = finishers
            .into_iter()
            .map(|f| f.join().expect("in-flight session completed"))
            .collect();
        (verdicts, final_status)
    });
    assert!(final_status.draining);
    assert_eq!(
        final_status.active_sessions, 0,
        "drain left sessions behind"
    );
    assert_eq!(
        final_status.served,
        served_before_drain + clients as u64,
        "graceful shutdown dropped in-flight sessions"
    );
    for verdict in &verdicts {
        assert_bit_identical(verdict, &reference);
    }
    println!(
        "drain        : shutdown with {clients} exchange(s) in flight — all {clients} \
         completed with bit-identical verdicts, zero dropped sessions"
    );

    clockmark_obs::gauge_set("bench.serve_requests_per_second", rps);
    clockmark_obs::gauge_set("bench.serve_rejection_rate", rejection_rate);
    clockmark_obs::gauge_set("bench.serve_clients", clients as f64);

    if clients >= 8 {
        println!(
            "acceptance   : {clients} concurrent clients sustained, zero dropped in-flight \
             sessions under graceful shutdown — met"
        );
    } else {
        println!(
            "note: {clients} client(s); the >= 8 concurrent-client acceptance check \
             needs the default client count"
        );
    }
}
