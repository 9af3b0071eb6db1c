//! Pins for the integrity checksum every stored trace and checkpoint
//! carries: a fixed 4 MiB digest, plus every short length at every start
//! alignment and random split points against a bit-at-a-time reference.
//! A faster `Crc32::update` must reproduce all of them exactly.

use clockmark_corpus::{crc32, Crc32};

/// Bit-at-a-time CRC-32 (IEEE 802.3, reflected): the definition, with no
/// tables to get wrong.
fn reference(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    crc ^ 0xFFFF_FFFF
}

/// splitmix64: the deterministic byte and split-point source.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn buffer(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed;
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&next(&mut state).to_le_bytes());
    }
    out.truncate(len);
    out
}

#[test]
fn four_mebibytes_hash_to_the_pinned_value() {
    let data = buffer(4 << 20, 0xC12C_3200);
    assert_eq!(crc32(&data), 0x8203_95D4, "4 MiB digest");
}

#[test]
fn every_short_length_at_every_alignment_matches_the_reference() {
    let data = buffer(64 + 8, 7);
    for start in 0..8 {
        for len in 0..=64 {
            let slice = &data[start..start + len];
            assert_eq!(crc32(slice), reference(slice), "start {start} len {len}");
        }
    }
}

#[test]
fn random_split_points_match_the_one_shot_and_the_reference() {
    let mut state = 0x5711_7000u64;
    for round in 0..200 {
        let len = (next(&mut state) % 3000) as usize;
        let data = buffer(len, round);
        let want = reference(&data);
        assert_eq!(crc32(&data), want, "round {round} one-shot");
        let mut crc = Crc32::new();
        let mut at = 0usize;
        while at < len {
            let step = 1 + (next(&mut state) % 40) as usize;
            let end = (at + step).min(len);
            crc.update(&data[at..end]);
            at = end;
        }
        assert_eq!(crc.finish(), want, "round {round} split");
    }
}
