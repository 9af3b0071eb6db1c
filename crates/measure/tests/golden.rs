//! Golden pins of the measurement chain's exact output.
//!
//! Each digest is FNV-1a over the `to_bits()` of every measured value plus
//! the next `u64` the rng yields afterwards, so any change to a single
//! output bit *or* to the number of random draws a capture consumes fails
//! here. The digests were recorded with the scalar per-sample chain (one
//! `gaussian(rng)` call per draw, libm `round`) that the batched kernel
//! replaced; the kernel must reproduce them unchanged.

use clockmark_measure::{Acquisition, CaptureAttack, MeasuredTrace, NoiseModel, PdnModel};
use clockmark_power::{Frequency, Power, PowerTrace};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// 64-bit FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Digest of a capture and of the rng state it leaves behind.
fn digest(y: &MeasuredTrace, rng: &mut StdRng) -> u64 {
    let after = rng.next_u64();
    fnv1a(y.as_watts().iter().map(|w| w.to_bits()).chain([after]))
}

/// A watermark-like power trace: a 1.5 mW square wave gated by a 6-bit
/// LFSR on top of a slowly varying 5 mW background.
fn power(cycles: usize) -> PowerTrace {
    let mut state = 1u32;
    (0..cycles)
        .map(|i| {
            let bit = state & 1;
            state = (state >> 1) | (((state ^ (state >> 1)) & 1) << 5);
            let background = 5.0 + 0.25 * ((i % 97) as f64 / 97.0);
            Power::from_milliwatts(background + 1.5 * f64::from(bit))
        })
        .collect()
}

fn paper() -> Acquisition {
    Acquisition::paper_chain(Frequency::from_megahertz(10.0))
}

fn capture(acq: &Acquisition, cycles: usize, seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let y = acq.acquire(&power(cycles), &mut rng);
    assert_eq!(y.len(), cycles);
    digest(&y, &mut rng)
}

#[test]
fn paper_chain_output_is_pinned() {
    assert_eq!(capture(&paper(), 3_000, 1), 6090160401155402905);
}

#[test]
fn pdn_typical_output_is_pinned() {
    let mut acq = paper();
    acq.pdn = PdnModel::typical();
    assert_eq!(capture(&acq, 3_000, 2), 406856737637238031);
}

#[test]
fn ripple_free_chain_output_is_pinned() {
    let mut acq = paper();
    acq.noise = NoiseModel::none();
    assert_eq!(capture(&acq, 1_000, 3), 9528300657132682498);
}

#[test]
fn short_and_empty_captures_are_pinned() {
    let digests = [capture(&paper(), 1, 4), capture(&paper(), 0, 5)];
    assert_eq!(digests, [13279126859856300019, 3992865196844529129]);
}

#[test]
fn jitter_and_dvfs_capture_is_pinned() {
    let attack = CaptureAttack {
        jitter_sigma_cycles: 0.05,
        dvfs_dwell_cycles: 64,
        dvfs_scale_span: 0.1,
        seed: 5,
    };
    let mut acq = paper();
    acq.pdn = PdnModel::typical();
    let mut rng = StdRng::seed_from_u64(6);
    let y = acq.acquire_attacked(&power(3_000), &attack, &mut rng);
    assert_eq!(digest(&y, &mut rng), 12447814574166065508);
}
