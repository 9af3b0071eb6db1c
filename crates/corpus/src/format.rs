//! The `.cmt` binary power-trace format.
//!
//! A trace is a fixed 64-byte little-endian header, `cycles` IEEE-754
//! `f64` samples (watts per clock cycle), and an 8-byte integrity footer:
//!
//! ```text
//! offset  size  field
//!      0     8  magic "CMTRACE1"
//!      8     2  version (u16 LE, currently 1)
//!     10     2  flags   (u16 LE, reserved, must be 0)
//!     12     4  header length (u32 LE, 64)
//!     16     8  cycles (u64 LE, sample count)
//!     24     8  f_clk_hz (f64 LE, device clock; 0 when unknown)
//!     32     8  seed (u64 LE, RNG seed of the capture; 0 when unknown)
//!     40     4  source (u32 LE, chip tag: 0 unknown, 1 bare, 2 chip I,
//!               3 chip II)
//!     44    20  reserved (zero)
//!     64     …  samples: cycles × f64 LE
//!    end-8   4  crc32 (u32 LE, IEEE, over header + samples)
//!    end-4   4  end magic "CMTE"
//! ```
//!
//! Reader and writer both stream in chunks, so a trace never has to be
//! fully resident; the CRC accumulates alongside the samples. See
//! `docs/corpus.md` for the full specification and versioning rules.

use crate::codec;
use crate::crc32::Crc32;
use crate::CorpusError;
use std::io::{Read, Write};

/// Leading magic bytes of a `.cmt` file.
pub const MAGIC: &[u8; 8] = b"CMTRACE1";
/// Trailing magic bytes after the CRC footer.
pub const END_MAGIC: &[u8; 4] = b"CMTE";
/// Size of the fixed header in bytes.
pub const HEADER_LEN: usize = 64;
/// Size of the footer (CRC32 + end magic) in bytes.
pub const FOOTER_LEN: usize = 8;
/// The current format version.
pub const VERSION: u16 = 1;

/// Chip tag values of the `source` header field.
pub mod source {
    /// Provenance unknown (e.g. an imported CSV).
    pub const UNKNOWN: u32 = 0;
    /// Bare watermark, no SoC background.
    pub const BARE: u32 = 1;
    /// Chip I (Cortex-M0-class SoC).
    pub const CHIP_I: u32 = 2;
    /// Chip II (chip I plus the dual-A5 cluster).
    pub const CHIP_II: u32 = 3;
}

/// The fixed metadata at the front of every stored trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceHeader {
    /// Number of `f64` samples that follow.
    pub cycles: u64,
    /// Device clock in hertz (0.0 when unknown).
    pub f_clk_hz: f64,
    /// RNG seed of the capture (0 when unknown).
    pub seed: u64,
    /// Chip tag (see [`source`]).
    pub source: u32,
}

impl TraceHeader {
    /// A header with unknown provenance metadata.
    pub fn bare(cycles: u64) -> Self {
        TraceHeader {
            cycles,
            f_clk_hz: 0.0,
            seed: 0,
            source: source::UNKNOWN,
        }
    }

    /// Encodes the 64-byte on-disk representation.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN);
        out.extend_from_slice(MAGIC);
        codec::put_u16(&mut out, VERSION);
        codec::put_u16(&mut out, 0); // flags
        codec::put_u32(&mut out, HEADER_LEN as u32);
        codec::put_u64(&mut out, self.cycles);
        codec::put_f64(&mut out, self.f_clk_hz);
        codec::put_u64(&mut out, self.seed);
        codec::put_u32(&mut out, self.source);
        out.resize(HEADER_LEN, 0);
        out
    }

    /// Decodes and validates a 64-byte header.
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError::Format`] for a wrong magic, an unsupported
    /// version, non-zero flags, or a truncated buffer.
    pub fn decode(bytes: &[u8]) -> Result<Self, CorpusError> {
        if bytes.len() < HEADER_LEN {
            return Err(CorpusError::format(format!(
                "header is {} bytes, need {HEADER_LEN}",
                bytes.len()
            )));
        }
        if &bytes[..8] != MAGIC {
            return Err(CorpusError::format("bad magic; not a .cmt trace"));
        }
        let version = codec::get_u16(bytes, 8)?;
        if version != VERSION {
            return Err(CorpusError::format(format!(
                "unsupported format version {version} (this build reads {VERSION})"
            )));
        }
        let flags = codec::get_u16(bytes, 10)?;
        if flags != 0 {
            return Err(CorpusError::format(format!("unknown flags {flags:#06x}")));
        }
        let header_len = codec::get_u32(bytes, 12)?;
        if header_len as usize != HEADER_LEN {
            return Err(CorpusError::format(format!(
                "header length {header_len}, expected {HEADER_LEN}"
            )));
        }
        Ok(TraceHeader {
            cycles: codec::get_u64(bytes, 16)?,
            f_clk_hz: codec::get_f64(bytes, 24)?,
            seed: codec::get_u64(bytes, 32)?,
            source: codec::get_u32(bytes, 40)?,
        })
    }

    /// Total on-disk size of a trace with this header, in bytes.
    ///
    /// # Panics
    ///
    /// Panics when the declared cycle count is so large the size does not
    /// fit in a `u64`. Headers from untrusted bytes should go through
    /// [`checked_file_size`](TraceHeader::checked_file_size) instead.
    pub fn file_size(&self) -> u64 {
        self.checked_file_size()
            .expect("cycle count overflows the on-disk size")
    }

    /// Total on-disk size of a trace with this header, or `None` when the
    /// declared cycle count is impossibly large (`cycles * 8` overflows).
    ///
    /// A forged or corrupt header can declare any cycle count; size
    /// arithmetic and preallocation driven by such a header must use this
    /// checked form.
    pub fn checked_file_size(&self) -> Option<u64> {
        self.cycles
            .checked_mul(8)?
            .checked_add(HEADER_LEN as u64 + FOOTER_LEN as u64)
    }
}

/// Streams samples into a `.cmt` trace, accumulating the CRC as it goes.
///
/// The cycle count is declared up front (it sits at a fixed header
/// offset, so the sink never needs to be seekable); [`finish`] fails if
/// the declared and written counts disagree.
///
/// [`finish`]: TraceWriter::finish
///
/// ```
/// use clockmark_corpus::{TraceHeader, TraceReader, TraceWriter};
///
/// let mut file = Vec::new();
/// let mut writer = TraceWriter::new(&mut file, TraceHeader::bare(4)).unwrap();
/// writer.write_samples(&[1.0, 2.0]).unwrap();
/// writer.write_samples(&[3.0, 4.0]).unwrap();
/// writer.finish().unwrap();
///
/// let mut reader = TraceReader::new(file.as_slice()).unwrap();
/// let mut buf = [0.0f64; 16];
/// assert_eq!(reader.read_chunk(&mut buf).unwrap(), 4);
/// assert_eq!(&buf[..4], &[1.0, 2.0, 3.0, 4.0]);
/// reader.finish().unwrap();
/// ```
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    inner: W,
    crc: Crc32,
    declared: u64,
    written: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Writes the header and returns the streaming writer.
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError::Io`] on sink failure.
    pub fn new(mut inner: W, header: TraceHeader) -> Result<Self, CorpusError> {
        let bytes = header.encode();
        inner
            .write_all(&bytes)
            .map_err(|e| CorpusError::io("writing trace header", e))?;
        let mut crc = Crc32::new();
        crc.update(&bytes);
        Ok(TraceWriter {
            inner,
            crc,
            declared: header.cycles,
            written: 0,
        })
    }

    /// Appends a chunk of samples.
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError::NonFinite`] (with the absolute sample
    /// index) for NaN or infinite values, and [`CorpusError::Io`] on sink
    /// failure. Nothing is written past the first bad sample.
    pub fn write_samples(&mut self, watts: &[f64]) -> Result<(), CorpusError> {
        // Encode in bounded stack-friendly chunks so a long trace never
        // allocates proportionally to its length.
        const CHUNK: usize = 1024;
        for chunk in watts.chunks(CHUNK) {
            let mut bytes = Vec::with_capacity(chunk.len() * 8);
            for (i, &w) in chunk.iter().enumerate() {
                if !w.is_finite() {
                    return Err(CorpusError::NonFinite {
                        index: self.written + i as u64,
                    });
                }
                codec::put_f64(&mut bytes, w);
            }
            self.inner
                .write_all(&bytes)
                .map_err(|e| CorpusError::io("writing trace samples", e))?;
            self.crc.update(&bytes);
            self.written += chunk.len() as u64;
            clockmark_obs::counter_add("corpus.bytes_written", bytes.len() as u64);
        }
        Ok(())
    }

    /// Samples written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Writes the CRC footer and returns the sink.
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError::CycleCountMismatch`] when fewer or more
    /// samples were written than the header declared, and
    /// [`CorpusError::Io`] on sink failure.
    pub fn finish(mut self) -> Result<W, CorpusError> {
        if self.written != self.declared {
            return Err(CorpusError::CycleCountMismatch {
                declared: self.declared,
                written: self.written,
            });
        }
        let mut footer = Vec::with_capacity(FOOTER_LEN);
        codec::put_u32(&mut footer, self.crc.finish());
        footer.extend_from_slice(END_MAGIC);
        self.inner
            .write_all(&footer)
            .map_err(|e| CorpusError::io("writing trace footer", e))?;
        self.inner
            .flush()
            .map_err(|e| CorpusError::io("flushing trace", e))?;
        Ok(self.inner)
    }
}

/// Streams samples out of a `.cmt` trace, re-deriving the CRC so
/// [`finish`](TraceReader::finish) can validate the footer.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    inner: R,
    crc: Crc32,
    header: TraceHeader,
    consumed: u64,
    /// The sample bytes of the latest chunk, reused across chunks.
    bytes: Vec<u8>,
}

impl<R: Read> TraceReader<R> {
    /// Reads and validates the header, returning the streaming reader.
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError::Format`] for a malformed header and
    /// [`CorpusError::Io`] on source failure.
    pub fn new(mut inner: R) -> Result<Self, CorpusError> {
        let mut bytes = [0u8; HEADER_LEN];
        inner
            .read_exact(&mut bytes)
            .map_err(|e| CorpusError::io("reading trace header", e))?;
        let header = TraceHeader::decode(&bytes)?;
        let mut crc = Crc32::new();
        crc.update(&bytes);
        Ok(TraceReader {
            inner,
            crc,
            header,
            consumed: 0,
            bytes: Vec::new(),
        })
    }

    /// The trace metadata.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Samples not yet read.
    pub fn remaining(&self) -> u64 {
        self.header.cycles - self.consumed
    }

    /// Samples already read.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Fills `buf` with up to `buf.len()` samples; returns how many were
    /// read (0 once the trace is exhausted).
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError::Io`] on source failure and
    /// [`CorpusError::NonFinite`] for corrupted sample bytes that decode
    /// to NaN or infinity (the CRC footer would also catch these, but
    /// this fails earlier and names the sample).
    pub fn read_chunk(&mut self, buf: &mut [f64]) -> Result<usize, CorpusError> {
        let want = (buf.len() as u64).min(self.remaining()) as usize;
        if want == 0 {
            return Ok(0);
        }
        if self.bytes.len() < want * 8 {
            self.bytes.resize(want * 8, 0);
        }
        let bytes = &mut self.bytes[..want * 8];
        self.inner
            .read_exact(bytes)
            .map_err(|e| CorpusError::io("reading trace samples", e))?;
        self.crc.update(bytes);
        clockmark_obs::counter_add("corpus.bytes_read", bytes.len() as u64);
        decode_samples(bytes, &mut buf[..want], self.consumed)?;
        self.consumed += want as u64;
        Ok(want)
    }

    /// Reads and discards `n` samples (they still feed the CRC, so a
    /// later [`finish`](TraceReader::finish) remains meaningful).
    ///
    /// # Errors
    ///
    /// Same conditions as [`read_chunk`](TraceReader::read_chunk);
    /// additionally a [`CorpusError::Format`] when `n` exceeds the
    /// remaining samples.
    pub fn skip_samples(&mut self, n: u64) -> Result<(), CorpusError> {
        if n > self.remaining() {
            return Err(CorpusError::format(format!(
                "cannot skip {n} samples; only {} remain",
                self.remaining()
            )));
        }
        let mut buf = [0.0f64; 1024];
        let mut left = n;
        while left > 0 {
            let take = (left as usize).min(buf.len());
            let got = self.read_chunk(&mut buf[..take])?;
            debug_assert_eq!(got, take);
            left -= got as u64;
        }
        Ok(())
    }

    /// Consumes the remaining samples (discarding them), reads the
    /// footer, and validates the CRC.
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError::Corrupt`] when the stored CRC disagrees
    /// with the payload, [`CorpusError::Format`] for a bad end magic, and
    /// [`CorpusError::Io`] on source failure.
    pub fn finish(mut self) -> Result<TraceHeader, CorpusError> {
        self.skip_samples(self.remaining())?;
        let mut footer = [0u8; FOOTER_LEN];
        self.inner
            .read_exact(&mut footer)
            .map_err(|e| CorpusError::io("reading trace footer", e))?;
        let expected = codec::get_u32(&footer, 0)?;
        if &footer[4..8] != END_MAGIC {
            return Err(CorpusError::format("bad end magic; truncated trace?"));
        }
        let actual = self.crc.finish();
        if expected != actual {
            return Err(CorpusError::Corrupt { expected, actual });
        }
        Ok(self.header)
    }
}

/// Decodes the little-endian samples in `bytes` (eight per slot of
/// `out`) in one branch-free pass that folds finiteness into one flag.
/// Only when the flag trips does it look for the first NaN or infinity,
/// reported with its absolute index, `first` being `out[0]`'s. Both
/// trace readers decode through here, so they agree on every sample and
/// every error.
pub(crate) fn decode_samples(bytes: &[u8], out: &mut [f64], first: u64) -> Result<(), CorpusError> {
    let (words, _) = bytes.as_chunks::<8>();
    debug_assert_eq!(words.len(), out.len(), "one 8-byte word per sample");
    let mut finite = true;
    for (slot, word) in out.iter_mut().zip(words) {
        let v = f64::from_le_bytes(*word);
        finite &= v.is_finite();
        *slot = v;
    }
    if finite {
        return Ok(());
    }
    match out.iter().position(|v| !v.is_finite()) {
        Some(at) => Err(CorpusError::NonFinite {
            index: first + at as u64,
        }),
        None => Ok(()),
    }
}

/// `.cmt` traces plug straight into
/// [`Detector::detect_trace`](clockmark_cpa::Detector::detect_trace):
/// chunks stream into the fold and the CRC footer is validated (via
/// [`TraceReader::finish`]) before any verdict is produced, so a
/// corrupted trace yields an error, never a silently wrong decision.
impl<R: Read> clockmark_cpa::TraceInput for TraceReader<R> {
    type Error = CorpusError;

    fn next_chunk(&mut self, buf: &mut [f64]) -> Result<usize, CorpusError> {
        self.read_chunk(buf)
    }

    fn finish(self) -> Result<(), CorpusError> {
        TraceReader::finish(self).map(|_| ())
    }
}

/// Encodes a whole trace into bytes (convenience over [`TraceWriter`]).
///
/// # Errors
///
/// Same conditions as [`TraceWriter::write_samples`].
pub fn encode_trace(header: TraceHeader, watts: &[f64]) -> Result<Vec<u8>, CorpusError> {
    let mut header = header;
    header.cycles = watts.len() as u64;
    // The cycle count was just derived from a real slice, so the checked
    // size cannot overflow; `unwrap_or(0)` keeps this allocation-only hint
    // panic-free regardless.
    let capacity = header.checked_file_size().unwrap_or(0) as usize;
    let mut out = Vec::with_capacity(capacity);
    let mut writer = TraceWriter::new(&mut out, header)?;
    writer.write_samples(watts)?;
    writer.finish()?;
    Ok(out)
}

/// Decodes and fully validates a trace from bytes (convenience over
/// [`TraceReader`]).
///
/// # Errors
///
/// Same conditions as the [`TraceReader`] methods; additionally a
/// [`CorpusError::Format`] when the header declares more samples than the
/// buffer can possibly hold, so a forged header never drives a huge
/// allocation.
pub fn decode_trace(bytes: &[u8]) -> Result<(TraceHeader, Vec<f64>), CorpusError> {
    let reader = TraceReader::new(bytes)?;
    check_declared_size(reader.header(), bytes.len() as u64)?;
    let mut reader = reader;
    let mut watts = vec![0.0f64; reader.header().cycles as usize];
    let mut filled = 0;
    while filled < watts.len() {
        let got = reader.read_chunk(&mut watts[filled..])?;
        debug_assert!(got > 0, "read_chunk stalled before the declared count");
        filled += got;
    }
    let header = reader.finish()?;
    Ok((header, watts))
}

/// Rejects headers whose declared payload cannot fit in `available`
/// bytes, before any cycle-proportional allocation happens.
///
/// # Errors
///
/// Returns [`CorpusError::Format`] when `cycles * 8` overflows or the
/// declared on-disk size exceeds the bytes actually present.
pub(crate) fn check_declared_size(header: &TraceHeader, available: u64) -> Result<(), CorpusError> {
    match header.checked_file_size() {
        None => Err(CorpusError::format(format!(
            "impossible header: {} cycles overflows the on-disk size",
            header.cycles
        ))),
        Some(size) if size > available => Err(CorpusError::format(format!(
            "header declares {} cycles ({size} bytes) but only {available} bytes are present",
            header.cycles
        ))),
        Some(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64) * 1.5e-6 - 2e-4).collect()
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let watts = sample_trace(1000);
        let header = TraceHeader {
            cycles: 1000,
            f_clk_hz: 10.0e6,
            seed: 42,
            source: source::CHIP_I,
        };
        let bytes = encode_trace(header, &watts).expect("encodes");
        assert_eq!(bytes.len() as u64, header.file_size());
        let (back_header, back) = decode_trace(&bytes).expect("decodes");
        assert_eq!(back_header, header);
        assert_eq!(back.len(), watts.len());
        for (a, b) in back.iter().zip(&watts) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn chunked_reads_match_any_chunk_size() {
        let watts = sample_trace(777);
        let bytes = encode_trace(TraceHeader::bare(0), &watts).expect("encodes");
        for chunk in [1usize, 7, 64, 1000] {
            let mut reader = TraceReader::new(bytes.as_slice()).expect("opens");
            let mut got = Vec::new();
            let mut buf = vec![0.0f64; chunk];
            loop {
                let n = reader.read_chunk(&mut buf).expect("reads");
                if n == 0 {
                    break;
                }
                got.extend_from_slice(&buf[..n]);
            }
            reader.finish().expect("valid crc");
            assert_eq!(got, watts, "chunk size {chunk}");
        }
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let watts = sample_trace(64);
        let clean = encode_trace(TraceHeader::bare(0), &watts).expect("encodes");
        // Flip one byte in the header, in the samples, and in the footer.
        for at in [4usize, HEADER_LEN + 13, clean.len() - 6] {
            let mut bad = clean.clone();
            bad[at] ^= 0x01;
            let result = decode_trace(&bad);
            assert!(result.is_err(), "flip at byte {at} went undetected");
        }
    }

    #[test]
    fn non_finite_samples_are_rejected_with_their_index() {
        let mut out = Vec::new();
        let mut writer = TraceWriter::new(&mut out, TraceHeader::bare(10)).expect("opens");
        writer.write_samples(&[1.0, 2.0]).expect("finite");
        let err = writer
            .write_samples(&[3.0, f64::NAN])
            .expect_err("NaN must be rejected");
        assert!(matches!(err, CorpusError::NonFinite { index: 3 }), "{err}");
        assert!(encode_trace(TraceHeader::bare(0), &[f64::INFINITY]).is_err());
    }

    #[test]
    fn cycle_count_mismatch_is_rejected() {
        let mut out = Vec::new();
        let mut writer = TraceWriter::new(&mut out, TraceHeader::bare(5)).expect("opens");
        writer.write_samples(&[1.0, 2.0]).expect("writes");
        let err = writer.finish().expect_err("short write must fail");
        assert!(matches!(
            err,
            CorpusError::CycleCountMismatch {
                declared: 5,
                written: 2
            }
        ));
    }

    #[test]
    fn skip_samples_preserves_crc_validation() {
        let watts = sample_trace(500);
        let bytes = encode_trace(TraceHeader::bare(0), &watts).expect("encodes");
        let mut reader = TraceReader::new(bytes.as_slice()).expect("opens");
        reader.skip_samples(123).expect("skips");
        assert_eq!(reader.consumed(), 123);
        assert_eq!(reader.remaining(), 377);
        let mut buf = [0.0f64; 8];
        reader.read_chunk(&mut buf).expect("reads");
        assert_eq!(buf[0].to_bits(), watts[123].to_bits());
        reader.finish().expect("crc still validates");
    }

    #[test]
    fn forged_cycle_counts_cannot_demand_huge_allocations() {
        // A syntactically valid header over a tiny body, declaring a
        // payload far larger than the buffer: decode must refuse before
        // allocating anything proportional to the forged count.
        let mut forged = TraceHeader::bare(u64::MAX / 16).encode();
        forged.extend_from_slice(&[0u8; 64]);
        let err = decode_trace(&forged).expect_err("forged header must be refused");
        assert!(matches!(err, CorpusError::Format { .. }), "{err}");
        assert!(err.to_string().contains("cycles"), "{err}");

        // A count whose byte size overflows u64 entirely.
        let mut overflow = TraceHeader::bare(u64::MAX).encode();
        overflow.extend_from_slice(&[0u8; 64]);
        let err = decode_trace(&overflow).expect_err("overflowing header must be refused");
        assert!(err.to_string().contains("impossible header"), "{err}");
        assert_eq!(TraceHeader::bare(u64::MAX).checked_file_size(), None);
    }

    #[test]
    fn header_rejects_foreign_files() {
        assert!(TraceHeader::decode(&[0u8; HEADER_LEN]).is_err());
        let mut csvish = vec![0u8; HEADER_LEN];
        csvish[..8].copy_from_slice(b"# clockm");
        assert!(TraceHeader::decode(&csvish).is_err());
        let mut wrong_version = TraceHeader::bare(1).encode();
        wrong_version[8] = 99;
        assert!(TraceHeader::decode(&wrong_version).is_err());
    }
}
