//! One connection, many exchanges: a single `Client` that alternates
//! detection modes gets, for every exchange, the verdict the in-process
//! [`Detector`] computes on the same samples, bit for bit.

use clockmark_cpa::{
    CandidatePattern, DetectOptions, DetectionCriterion, DetectionResult, Detector,
    SequentialOptions,
};
use clockmark_serve::{Client, Server};

fn xorshift_bits(mut s: u64, n: usize) -> Vec<bool> {
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s & 1 == 1
        })
        .collect()
}

fn pattern() -> Vec<bool> {
    xorshift_bits(0x1234_5678_9ABC_DEF1, 96)
}

fn watermarked_trace(cycles: usize) -> Vec<f64> {
    let pattern = pattern();
    (0..cycles)
        .map(|i| {
            let wm = if pattern[i % pattern.len()] {
                1.2
            } else {
                -1.2
            };
            wm + (i as f64 * 0.317).sin() * 0.4 + (i as f64 * 0.071).cos() * 0.2
        })
        .collect()
}

fn bits(r: &DetectionResult) -> (bool, usize, [u64; 4]) {
    (
        r.detected,
        r.peak_rotation,
        [
            r.peak_rho.to_bits(),
            r.floor_max_abs.to_bits(),
            r.ratio.to_bits(),
            r.zscore.to_bits(),
        ],
    )
}

#[test]
fn one_client_alternates_modes_with_in_process_verdicts() {
    let handle = Server::new().bind("127.0.0.1:0").expect("bind");
    let pattern = pattern();
    let y = watermarked_trace(pattern.len() * 400);
    let options = DetectOptions::default().with_criterion(DetectionCriterion::lenient());
    let seq = SequentialOptions::default().with_base_cycles(1024);
    // Index 0 is the embedded pattern; the rest are unrelated sequences.
    let candidates: Vec<CandidatePattern> = (0..4u64)
        .map(|seed| {
            let bits = if seed == 0 {
                pattern.clone()
            } else {
                xorshift_bits(0xDEAD_BEEF ^ (seed << 17) | 1, 96)
            };
            CandidatePattern::new(format!("cand-{seed}"), bits)
        })
        .collect();
    let detector = Detector::with_options(&pattern, options).expect("detector");

    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let detect = |client: &mut Client| {
        let wire = client.detect(&pattern, options, &y).expect("wire detect");
        let local = detector.detect(&y).expect("local detect");
        assert_eq!(bits(&wire.result), bits(&local));
        assert_eq!(wire.cycles, y.len() as u64);
    };
    let identify = |client: &mut Client| {
        let wire = client
            .identify(&pattern, options, &candidates, &y)
            .expect("wire identify");
        let local = detector.identify(&y, &candidates).expect("local identify");
        assert_eq!(wire.cycles, local.cycles);
        assert_eq!(wire.scores.len(), local.scores.len());
        for (w, l) in wire.scores.iter().zip(&local.scores) {
            assert_eq!((w.index, &w.label), (l.index, &l.label));
            assert_eq!(bits(&w.result), bits(&l.result));
        }
        assert_eq!(wire.best().index, 0);
    };

    detect(&mut client);
    {
        let wire = client
            .detect_sequential(&pattern, options, seq, &y)
            .expect("wire sequential");
        let local = detector
            .detect_sequential(&y, seq)
            .expect("local sequential");
        assert_eq!(bits(&wire.result), bits(&local.result));
        assert_eq!(wire.cycles_consumed, local.cycles_consumed);
        assert_eq!(wire.early_stopped, local.early_stopped);
        assert_eq!(wire.checkpoints.len(), local.checkpoints.len());
        for (w, l) in wire.checkpoints.iter().zip(&local.checkpoints) {
            assert_eq!((w.cycles, w.accepted), (l.cycles, l.accepted));
            assert_eq!(w.peak_rho.to_bits(), l.peak_rho.to_bits());
            assert_eq!(w.p_value.to_bits(), l.p_value.to_bits());
        }
        assert!(wire.early_stopped);
    }
    identify(&mut client);
    detect(&mut client);
    identify(&mut client);

    assert_eq!(client.status().expect("status").served, 5);
    handle.shutdown();
}
