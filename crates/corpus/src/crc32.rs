//! CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320).
//!
//! The integrity footer of every stored trace and checkpoint. Every byte
//! a campaign job reads or writes passes through [`Crc32::update`], so
//! its speed bounds the job's: a byte-at-a-time table walk took about
//! 60% of a fixed-budget job at paper scale. It is therefore
//! slicing-by-8: eight 256-entry tables, built at compile time, fold
//! eight bytes per step with eight independent lookups, and a bytewise
//! walk of the first table takes the tail. Dependency-free, no `unsafe`.

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
        let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
        let mut crc = self.state;
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
        self.state = crc;
    }

    /// The checksum of everything fed so far (the accumulator stays
    /// usable; `finish` is a pure read).
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
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
