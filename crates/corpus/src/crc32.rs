//! CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320).
//!
//! The integrity footer of every stored trace and checkpoint. Every byte
//! a campaign job reads or writes passes through [`Crc32::update`], so
//! its speed bounds the job's. Two kernels compute the same register:
//!
//! - **carry-less multiplication** on x86_64 CPUs that report
//!   `pclmulqdq` and `sse4.1` at run time, for inputs of 64 bytes or
//!   more: four 128-bit lanes fold 64 bytes per step, merge into one,
//!   reduce 128 → 64 → 32 bits and end in a Barrett reduction (Gopal et
//!   al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
//!   Instruction", Intel, 2009; the constants are the Linux
//!   `crc32-pclmul` set). A tail below 16 bytes goes to the tables;
//! - **slicing-by-8** everywhere else (shorter inputs, other hosts):
//!   eight 256-entry tables, built at compile time, fold eight bytes per
//!   step with eight independent lookups, and a bytewise walk of the
//!   first table takes the tail. It is also the tests' reference for
//!   the fold.
//!
//! Dependency-free. The only `unsafe` is the one call into the fold
//! after run-time feature detection (see `clmul::fold_detected`); the
//! fold and its loads are safe `#[target_feature]` functions that read
//! the input through `u128::from_le_bytes`, with no raw pointer.

/// `TABLES[0]` is the classic byte table. `TABLES[k][b]` carries
/// `TABLES[0][b]` through `k` more zero bytes, so the lookups for the
/// eight bytes of one step, each advanced by its distance from the
/// step's end, XOR together into the register after the step.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// An incremental CRC-32 accumulator.
///
/// ```
/// use clockmark_corpus::Crc32;
///
/// let mut crc = Crc32::new();
/// crc.update(b"123456789");
/// assert_eq!(crc.finish(), 0xCBF4_3926); // the standard check value
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh accumulator.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds more bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        {
            let (blocks, tail) = bytes.as_chunks::<16>();
            if let Some(state) = clmul::fold_detected(self.state, blocks) {
                self.state = slice8(state, tail);
                return;
            }
        }
        self.state = slice8(self.state, bytes);
    }

    /// The checksum of everything fed so far (the accumulator stays
    /// usable; `finish` is a pure read).
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// Slicing-by-8 over `bytes`, from and to the raw register `crc`.
fn slice8(mut crc: u32, bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t7[(lo & 0xFF) as usize]
            ^ t6[((lo >> 8) & 0xFF) as usize]
            ^ t5[((lo >> 16) & 0xFF) as usize]
            ^ t4[(lo >> 24) as usize]
            ^ t3[(hi & 0xFF) as usize]
            ^ t2[((hi >> 8) & 0xFF) as usize]
            ^ t1[((hi >> 16) & 0xFF) as usize]
            ^ t0[(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t0[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// The PCLMULQDQ fold of whole 16-byte blocks (x86_64 only).
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// x^(4·128+32) and x^(4·128−32) mod P, bit-reflected: fold a lane
    /// forward by 64 bytes.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    /// The same for 16 bytes: merge the lanes, fold the remaining blocks.
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    /// Reduces 64 bits to 32 bits plus 32 appended zero bits.
    const K5: i64 = 0x1_63CD_6124;
    /// The reflected polynomial P′ and the Barrett constant μ = x^64 / P.
    const POLY: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// Runs [`fold`] over at least four blocks (the 64 bytes that fill
    /// its lanes) when the CPU reports both features it needs; `None`
    /// leaves the input to the tables.
    #[allow(unsafe_code)]
    pub(super) fn fold_detected(state: u32, blocks: &[[u8; 16]]) -> Option<u32> {
        if blocks.len() < 4
            || !(is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1"))
        {
            return None;
        }
        // SAFETY: calling a `#[target_feature]` function is sound when
        // the CPU executing it supports every feature it enables.
        // `fold` enables exactly `pclmulqdq` and `sse4.1`, and both were
        // reported by run-time detection on this CPU just above. `fold`
        // itself is safe code: it takes a slice and reads it through
        // `u128::from_le_bytes`, so no other precondition exists.
        Some(unsafe { fold(state, blocks) })
    }

    /// One 16-byte block as a lane, low byte first.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: &[u8; 16]) -> __m128i {
        let v = u128::from_le_bytes(*block);
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }

    /// Carries `lane` forward by the distance `k` encodes: its low half
    /// times `k`'s low constant XOR its high half times the high one.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_lane(lane: __m128i, k: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(lane, k),
            _mm_clmulepi64_si128::<0x11>(lane, k),
        )
    }

    /// The CRC register after `blocks` (at least four), from `state`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(state: u32, blocks: &[[u8; 16]]) -> u32 {
        let (head, rest) = blocks.split_at(4);
        let mut lanes = [
            _mm_xor_si128(load(&head[0]), _mm_cvtsi32_si128(state as i32)),
            load(&head[1]),
            load(&head[2]),
            load(&head[3]),
        ];
        let (steps, singles) = rest.as_chunks::<4>();
        let k1k2 = _mm_set_epi64x(K2, K1);
        for step in steps {
            for (lane, block) in lanes.iter_mut().zip(step) {
                *lane = _mm_xor_si128(fold_lane(*lane, k1k2), load(block));
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = lanes[0];
        for &lane in &lanes[1..] {
            acc = _mm_xor_si128(fold_lane(acc, k3k4), lane);
        }
        for block in singles {
            acc = _mm_xor_si128(fold_lane(acc, k3k4), load(block));
        }
        // 128 → 64 bits: the low half times K4 into the high half.
        acc = _mm_xor_si128(
            _mm_srli_si128::<8>(acc),
            _mm_clmulepi64_si128::<0x01>(k3k4, acc),
        );
        // 64 → 32 bits (plus 32 zero bits): the low word times K5.
        let low32 = _mm_set_epi64x(0, 0xFFFF_FFFF);
        acc = _mm_xor_si128(
            _mm_srli_si128::<4>(acc),
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5)),
        );
        // Barrett: q = ⌊low32 · μ⌋ (low word), remainder = acc ⊕ q · P′.
        let poly_mu = _mm_set_epi64x(MU, POLY);
        let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), poly_mu);
        let qp = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low32), poly_mu);
        _mm_extract_epi32::<1>(_mm_xor_si128(qp, acc)) as u32
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot checksum of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut crc = Crc32::new();
        for chunk in data.chunks(37) {
            crc.update(chunk);
        }
        assert_eq!(crc.finish(), crc32(&data));
    }

    /// Bit-at-a-time, from and to the raw register: the definition.
    fn bitwise(mut crc: u32, bytes: &[u8]) -> u32 {
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
        crc
    }

    /// splitmix64: the deterministic byte and split-point source.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len).map(|_| next(&mut state) as u8).collect()
    }

    /// Initial registers: fresh, zero, and two arbitrary mid-stream ones.
    const STATES: [u32; 4] = [0xFFFF_FFFF, 0, 0x1234_5678, 0x8000_0001];

    #[test]
    fn kernels_agree_on_every_length_offset_and_state() {
        let data = random_bytes(1024 + 16, 24);
        for state in STATES {
            for offset in 0..16 {
                let mut expected = state;
                for len in 0..=1024 {
                    let bytes = &data[offset..offset + len];
                    assert_eq!(slice8(state, bytes), expected, "tables, len {len}");
                    let mut crc = Crc32 { state };
                    crc.update(bytes);
                    assert_eq!(crc.state, expected, "update, len {len} at {offset}");
                    if let Some(&b) = data.get(offset + len) {
                        expected = bitwise(expected, &[b]);
                    }
                }
            }
        }
    }

    #[test]
    fn random_splits_match_one_bitwise_pass() {
        let data = random_bytes(5_000, 99);
        let mut rng = 0xC12Cu64;
        for round in 0..200 {
            let state = STATES[round % STATES.len()];
            let mut crc = Crc32 { state };
            let mut at = 0;
            while at < data.len() {
                let len = (next(&mut rng) % 300) as usize;
                let end = (at + len).min(data.len());
                crc.update(&data[at..end]);
                at = end;
            }
            assert_eq!(crc.state, bitwise(state, &data), "round {round}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_fold_runs_exactly_where_the_cpu_has_it() {
        let capable = is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1");
        let blocks = [[0x5Au8; 16]; 5];
        let folded = clmul::fold_detected(7, &blocks);
        assert_eq!(folded.is_some(), capable);
        if let Some(state) = folded {
            assert_eq!(state, slice8(7, blocks.as_flattened()));
        }
        assert_eq!(
            clmul::fold_detected(7, &blocks[..3]),
            None,
            "needs 64 bytes"
        );
    }

    #[test]
    fn single_flipped_bit_changes_the_checksum() {
        let mut data = vec![0u8; 4096];
        let clean = crc32(&data);
        for byte in [0usize, 1000, 4095] {
            data[byte] ^= 0x10;
            assert_ne!(crc32(&data), clean, "flip at byte {byte} undetected");
            data[byte] ^= 0x10;
        }
    }
}
