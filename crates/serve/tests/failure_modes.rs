//! Server robustness: every failure mode must leave the server able to
//! serve the next request.

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use clockmark_cpa::{DetectMode, DetectOptions, DetectionCriterion, Detector};
use clockmark_serve::{
    protocol, Client, ErrorCode, Request, Response, ServeError, ServeLimits, Server, ServerHandle,
};

fn pattern() -> Vec<bool> {
    // Xorshift bits give an aperiodic pattern with one clean peak.
    let mut s = 0x0DD0_5EED_1357_9BDFu64;
    (0..64)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s & 1 == 1
        })
        .collect()
}

fn trace(cycles: usize) -> Vec<f64> {
    let pattern = pattern();
    (0..cycles)
        .map(|i| {
            let wm = if pattern[i % pattern.len()] {
                0.8
            } else {
                -0.8
            };
            wm + (i as f64 * 0.61).sin() * 0.3
        })
        .collect()
}

fn quick_limits() -> ServeLimits {
    ServeLimits {
        read_timeout: Duration::from_millis(500),
        idle_timeout: Duration::from_secs(2),
        ..ServeLimits::default()
    }
}

fn start(limits: ServeLimits) -> ServerHandle {
    Server::new()
        .with_limits(limits)
        .bind("127.0.0.1:0")
        .expect("bind")
}

/// The canary every test ends with: a fresh client must still get a
/// correct verdict after the failure under test.
fn assert_still_serving(handle: &ServerHandle) {
    assert_still_serving_cycles(handle, pattern().len() * 20);
}

/// [`assert_still_serving`] with an explicit trace length, for tests
/// whose limits would reject the default-sized canary.
fn assert_still_serving_cycles(handle: &ServerHandle, cycles: usize) {
    let pattern = pattern();
    let y = trace(cycles);
    let mut client = Client::connect(handle.local_addr()).expect("connect after failure");
    let wire = client
        .detect(&pattern, DetectOptions::default(), &y)
        .expect("detect after failure");
    let local = Detector::new(&pattern)
        .expect("detector")
        .detect(&y)
        .expect("local detect");
    assert_eq!(wire.result, local);
    assert_eq!(wire.cycles, y.len() as u64);
}

#[test]
fn oversized_frame_is_rejected_and_server_survives() {
    let handle = start(ServeLimits {
        max_frame_bytes: 1 << 16,
        ..quick_limits()
    });

    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    protocol::write_greeting(&mut stream).unwrap();
    protocol::read_greeting(&mut stream).expect("greeting echoed");

    // Declare a payload over the limit. The server must refuse before
    // allocating and tell us why.
    let mut header = [0u8; 5];
    header[0] = 0x03; // DetectChunk
    header[1..].copy_from_slice(&((1u32 << 17).to_le_bytes()));
    stream.write_all(&header).unwrap();
    let (ty, payload) = protocol::read_frame(&mut stream, 1 << 16).expect("error frame");
    match Response::decode(ty, &payload).expect("decodes") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::FrameTooLarge),
        other => panic!("expected error frame, got {other:?}"),
    }

    assert_still_serving(&handle);
    handle.shutdown();
}

#[test]
fn truncated_frame_mid_stream_only_kills_that_session() {
    let handle = start(quick_limits());

    {
        let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
        protocol::write_greeting(&mut stream).unwrap();
        protocol::read_greeting(&mut stream).expect("greeting echoed");
        let (ty, payload) = Request::DetectStart {
            pattern: pattern(),
            algo: None,
            criterion: DetectionCriterion::default(),
            mode: DetectMode::Fixed,
        }
        .encode();
        protocol::write_frame(&mut stream, ty, &payload).unwrap();
        // Header promises 64 bytes of samples; deliver half and vanish.
        let mut header = [0u8; 5];
        header[0] = 0x03;
        header[1..].copy_from_slice(&(64u32).to_le_bytes());
        stream.write_all(&header).unwrap();
        stream.write_all(&[0u8; 32]).unwrap();
        drop(stream);
    }

    assert_still_serving(&handle);
    handle.shutdown();
}

#[test]
fn client_disconnect_mid_detect_frees_the_slot() {
    // One slot: the canary below only passes if the abandoned session's
    // slot is actually released.
    let handle = start(ServeLimits {
        max_sessions: 1,
        ..quick_limits()
    });

    {
        let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
        protocol::write_greeting(&mut stream).unwrap();
        protocol::read_greeting(&mut stream).expect("greeting echoed");
        let (ty, payload) = Request::DetectStart {
            pattern: pattern(),
            algo: None,
            criterion: DetectionCriterion::default(),
            mode: DetectMode::Fixed,
        }
        .encode();
        protocol::write_frame(&mut stream, ty, &payload).unwrap();
        let samples: Vec<f64> = trace(128);
        let (ty, payload) = Request::DetectChunk { samples }.encode();
        protocol::write_frame(&mut stream, ty, &payload).unwrap();
        drop(stream); // disconnect mid-Detect
    }

    // The dead session is reaped within the read timeout; retry until
    // the slot frees rather than sleeping a fixed amount.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect(handle.local_addr()).and_then(|mut c| c.ping()) {
            Ok(()) => break,
            Err(ServeError::Busy { .. }) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("server did not recover: {e}"),
        }
    }

    assert_still_serving(&handle);
    handle.shutdown();
}

#[test]
fn pool_full_rejects_with_retry_hint_and_retry_succeeds() {
    let handle = start(ServeLimits {
        max_sessions: 1,
        retry_after_ms: 25,
        ..quick_limits()
    });

    // Occupy the single slot with a live session.
    let mut occupant = Client::connect(handle.local_addr()).expect("connect occupant");
    occupant.ping().expect("occupant ping");

    // The next connection must be rejected with Busy + the hint.
    let mut rejected = Client::connect(handle.local_addr()).expect("tcp connect");
    match rejected.ping() {
        Err(ServeError::Busy { retry_after_ms }) => assert_eq!(retry_after_ms, 25),
        other => panic!("expected Busy, got {other:?}"),
    }
    assert_eq!(handle.status().rejected, 1);

    // Free the slot; a retry within the hinted backoff regime succeeds.
    drop(occupant);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect(handle.local_addr()).and_then(|mut c| c.ping()) {
            Ok(()) => break,
            Err(ServeError::Busy { retry_after_ms }) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(retry_after_ms as u64));
            }
            Err(e) => panic!("retry failed: {e}"),
        }
    }

    assert_still_serving(&handle);
    handle.shutdown();
}

#[test]
fn detect_frames_out_of_order_get_bad_sequence() {
    let handle = start(quick_limits());

    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    protocol::write_greeting(&mut stream).unwrap();
    protocol::read_greeting(&mut stream).expect("greeting echoed");

    let (ty, payload) = Request::DetectChunk {
        samples: vec![1.0, 2.0],
    }
    .encode();
    protocol::write_frame(&mut stream, ty, &payload).unwrap();
    let (ty, payload) = protocol::read_frame(&mut stream, 1 << 16).expect("error frame");
    match Response::decode(ty, &payload).expect("decodes") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadSequence),
        other => panic!("expected error frame, got {other:?}"),
    }

    // A bad sequence is a caller bug, not a transport fault: the same
    // connection must still complete a well-formed exchange.
    let pattern = pattern();
    let y = trace(pattern.len() * 10);
    let (ty, payload) = Request::DetectStart {
        pattern: pattern.clone(),
        algo: None,
        criterion: DetectionCriterion::default(),
        mode: DetectMode::Fixed,
    }
    .encode();
    protocol::write_frame(&mut stream, ty, &payload).unwrap();
    let (ty, payload) = Request::DetectChunk { samples: y.clone() }.encode();
    protocol::write_frame(&mut stream, ty, &payload).unwrap();
    let (ty, payload) = Request::DetectFinish.encode();
    protocol::write_frame(&mut stream, ty, &payload).unwrap();
    let (ty, payload) = protocol::read_frame(&mut stream, 1 << 16).expect("result frame");
    match Response::decode(ty, &payload).expect("decodes") {
        Response::Verdict(d) => assert_eq!(d.cycles, y.len() as u64),
        other => panic!("expected detection, got {other:?}"),
    }

    handle.shutdown();
}

#[test]
fn cycle_budget_is_enforced_per_exchange() {
    let handle = start(ServeLimits {
        max_cycles: 1000,
        ..quick_limits()
    });

    let mut client = Client::connect(handle.local_addr()).expect("connect");
    match client.detect(&pattern(), DetectOptions::default(), &trace(1001)) {
        Err(ServeError::Remote { code, .. }) => assert_eq!(code, ErrorCode::TooManyCycles),
        other => panic!("expected TooManyCycles, got {other:?}"),
    }

    // A trace inside the budget still gets served.
    assert_still_serving_cycles(&handle, 640);
    handle.shutdown();
}

/// Asserts `outcome` is the remote error `code`.
fn assert_remote<T: std::fmt::Debug>(outcome: Result<T, ServeError>, code: ErrorCode) {
    match outcome {
        Err(ServeError::Remote { code: got, .. }) => assert_eq!(got, code),
        other => panic!("expected remote {code:?}, got {other:?}"),
    }
}

/// A failed exchange answers once, at `DetectFinish`, and swallows the
/// rest of its frames, so the connection stays in step: the same client
/// pings and detects correctly after every kind of failure.
#[test]
fn a_failed_exchange_leaves_its_connection_in_step() {
    let handle = start(ServeLimits {
        max_cycles: 1000,
        ..quick_limits()
    });
    let pattern = pattern();
    let y = trace(pattern.len() * 10);
    let local = Detector::new(&pattern)
        .expect("detector")
        .detect(&y)
        .expect("local detect");
    let options = DetectOptions::default();

    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let failures: [&dyn Fn(&mut Client) -> ErrorCode; 3] = [
        &|c| {
            assert_remote(c.detect(&[true; 64], options, &y), ErrorCode::Cpa);
            ErrorCode::Cpa
        },
        &|c| {
            assert_remote(c.identify(&pattern, options, &[], &y), ErrorCode::Cpa);
            ErrorCode::Cpa
        },
        &|c| {
            assert_remote(
                c.detect(&pattern, options, &trace(1001)),
                ErrorCode::TooManyCycles,
            );
            ErrorCode::TooManyCycles
        },
    ];
    for fail in failures {
        let code = fail(&mut client);
        client
            .ping()
            .unwrap_or_else(|e| panic!("ping after {code:?}: {e}"));
        let wire = client
            .detect(&pattern, options, &y)
            .unwrap_or_else(|e| panic!("detect after {code:?}: {e}"));
        assert_eq!(wire.result.peak_rho.to_bits(), local.peak_rho.to_bits());
        assert_eq!(wire.result.zscore.to_bits(), local.zscore.to_bits());
        assert_eq!(wire.result, local);
        assert_eq!(wire.cycles, y.len() as u64);
    }
    handle.shutdown();
}

/// Below one watermark period every wire mode refuses with `Cpa`, as
/// the in-process detector does, instead of answering a verdict.
#[test]
fn every_mode_refuses_a_trace_shorter_than_one_period() {
    let handle = start(quick_limits());
    let pattern = pattern();
    let short = trace(50);
    let options = DetectOptions::default();
    let detector = Detector::new(&pattern).expect("detector");
    let seq = clockmark_cpa::SequentialOptions::default();
    assert_eq!(
        detector.detect_sequential(&short, seq).unwrap_err(),
        clockmark_cpa::CpaError::TraceShorterThanPeriod {
            have: 50,
            need: pattern.len()
        }
    );
    let candidates = [clockmark_cpa::CandidatePattern::new("p", pattern.clone())];

    let mut client = Client::connect(handle.local_addr()).expect("connect");
    assert_remote(client.detect(&pattern, options, &short), ErrorCode::Cpa);
    assert_remote(
        client.detect_sequential(&pattern, options, seq, &short),
        ErrorCode::Cpa,
    );
    assert_remote(
        client.identify(&pattern, options, &candidates, &short),
        ErrorCode::Cpa,
    );
    client.ping().expect("connection still in step");
    handle.shutdown();
}

#[test]
fn shutdown_during_in_flight_detect_drains_cleanly() {
    let handle = start(quick_limits());
    let addr = handle.local_addr();

    let pattern = pattern();
    let y = trace(pattern.len() * 50);

    // Drive an exchange manually through the protocol module so the
    // shutdown can be interleaved between its chunks.
    let mut raw = TcpStream::connect(addr).expect("connect raw");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    protocol::write_greeting(&mut raw).unwrap();
    protocol::read_greeting(&mut raw).expect("greeting echoed");
    let (ty, payload) = Request::DetectStart {
        pattern: pattern.clone(),
        algo: None,
        criterion: DetectionCriterion::default(),
        mode: DetectMode::Fixed,
    }
    .encode();
    protocol::write_frame(&mut raw, ty, &payload).unwrap();
    let half = y.len() / 2;
    let (ty, payload) = Request::DetectChunk {
        samples: y[..half].to_vec(),
    }
    .encode();
    protocol::write_frame(&mut raw, ty, &payload).unwrap();

    // Round-trip a Status on the same connection: frames are processed
    // in order, so once it answers, the exchange is open server-side
    // and the drain below cannot outrun the DetectStart.
    let (ty, payload) = Request::Status.encode();
    protocol::write_frame(&mut raw, ty, &payload).unwrap();
    let (ty, payload) = protocol::read_frame(&mut raw, 1 << 16).expect("status frame");
    assert!(matches!(
        Response::decode(ty, &payload).expect("decodes"),
        Response::Status(_)
    ));

    // Begin the drain from another connection while the exchange above
    // is only half streamed.
    let mut killer = Client::connect(addr).expect("connect killer");
    killer.shutdown().expect("shutdown ack");
    assert!(handle.is_draining());

    // The in-flight exchange must still be allowed to finish.
    let (ty, payload) = Request::DetectChunk {
        samples: y[half..].to_vec(),
    }
    .encode();
    protocol::write_frame(&mut raw, ty, &payload).unwrap();
    let (ty, payload) = Request::DetectFinish.encode();
    protocol::write_frame(&mut raw, ty, &payload).unwrap();
    let (ty, payload) = protocol::read_frame(&mut raw, 1 << 16).expect("result during drain");
    let wire = match Response::decode(ty, &payload).expect("decodes") {
        Response::Verdict(d) => d,
        other => panic!("expected detection, got {other:?}"),
    };
    let local = Detector::new(&pattern)
        .expect("detector")
        .detect(&y)
        .expect("local detect");
    assert_eq!(wire.result, local);
    drop(raw);

    let final_status = handle.wait();
    assert!(final_status.draining);
    assert_eq!(
        final_status.active_sessions, 0,
        "drain left sessions behind"
    );
    assert!(final_status.served >= 1);

    // And the port must actually be closed.
    assert!(Client::connect(addr).and_then(|mut c| c.ping()).is_err());
}

#[test]
fn corpus_detect_reports_missing_trace_and_survives() {
    let handle = start(quick_limits());

    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let bogus = PathBuf::from("/nonexistent/corpus/path");
    match client.detect_corpus(
        bogus.to_str().unwrap(),
        "no_such_trace",
        &pattern(),
        DetectOptions::default(),
    ) {
        Err(ServeError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Corpus),
        other => panic!("expected Corpus error, got {other:?}"),
    }

    assert_still_serving(&handle);
    handle.shutdown();
}
