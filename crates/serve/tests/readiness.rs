//! Capacity contract of the poll-based readiness engine: one node must
//! hold >= 1024 concurrently connected, mostly-idle sessions with its
//! small worker pool, while still serving new work correctly.

#![cfg(unix)]

use std::time::Duration;

use clockmark_cpa::DetectionCriterion;
use clockmark_serve::{raise_nofile_limit, Client, ServeLimits, Server};

const TARGET: usize = 1024;

#[test]
fn holds_1024_idle_sessions_and_still_serves() {
    // Both ends of every session live in this process, so the open-file
    // budget must cover 2 descriptors per session plus headroom for the
    // listener, the probe client and the test harness itself.
    let need = (TARGET * 2 + 128) as u64;
    let limit = raise_nofile_limit(need);
    assert!(
        limit >= need,
        "cannot run the capacity test: nofile limit stuck at {limit}, need {need}; \
         raise the hard RLIMIT_NOFILE"
    );

    let handle = Server::new()
        .with_limits(ServeLimits {
            max_sessions: TARGET + 8,
            // Idle really means idle: nothing in this test may be
            // reaped by the idle sweep while the pile sits connected.
            idle_timeout: Duration::from_secs(600),
            ..ServeLimits::default()
        })
        .bind("127.0.0.1:0")
        .expect("bind loopback");
    let addr = handle.local_addr();

    // Connect the pile from a few threads: each connect handshake costs
    // a couple of poll ticks, so serial setup would dominate the test.
    let threads = 8;
    let per_thread = TARGET / threads;
    let mut sessions: Vec<Client> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    (0..per_thread)
                        .map(|i| {
                            Client::connect(addr)
                                .unwrap_or_else(|e| panic!("connect {t}/{i} failed: {e}"))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("connector thread"))
            .collect()
    });
    assert_eq!(sessions.len(), TARGET);

    // With the whole pile connected and idle, a fresh client still gets
    // real work done at full correctness.
    let mut probe = Client::connect(addr).expect("probe connect");
    probe.ping().expect("probe ping");
    let status = probe.status().expect("probe status");
    assert!(
        status.registered as usize > TARGET,
        "readiness engine reports only {} registered sessions",
        status.registered
    );
    assert!(
        status.active_sessions as usize > TARGET,
        "only {} active sessions",
        status.active_sessions
    );

    // Aperiodic xorshift bits: a structured pattern would tie with its
    // own rotations and never pass the peak-uniqueness criterion.
    let mut s = 0xC0FF_EE00_1234_5678u64;
    let pattern: Vec<bool> = (0..48)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s & 1 == 1
        })
        .collect();
    let samples: Vec<f64> = (0..pattern.len() * 24)
        .map(|i| {
            let bit = if pattern[i % pattern.len()] {
                1.2
            } else {
                -1.2
            };
            bit + (i as f64 * 0.41).sin() * 0.25
        })
        .collect();
    let verdict = probe
        .detect_with_criterion(&pattern, DetectionCriterion::default(), &samples)
        .expect("detect while 1024 sessions idle");
    assert!(verdict.result.detected, "fixture trace must be detectable");

    // Long-parked sessions are still live, not zombies: a sample across
    // the pile must answer pings.
    for idx in [0, TARGET / 3, TARGET / 2, TARGET - 1] {
        sessions[idx]
            .ping()
            .unwrap_or_else(|e| panic!("idle session {idx} died: {e}"));
    }

    drop(sessions);
    drop(probe);
    let final_status = handle.shutdown();
    assert_eq!(final_status.active_sessions, 0);
    assert!(final_status.total_sessions as usize > TARGET);
}
