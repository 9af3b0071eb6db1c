//! The `manifest.jsonl` index at the root of a corpus directory.
//!
//! One JSON object per line, one line per stored trace: a
//! [`Journal`](crate::durable::Journal) that a build appends to, and that
//! `Corpus::create`, `Corpus::scan` and shard subsets publish whole
//! ([`crate::durable`]).
//!
//! `seed` is serialised as a decimal *string*, the form every manifest
//! has used; the reader also takes an exact integer. Every field decodes
//! under the one policy of [`clockmark_obs::json::Record`] (see
//! `docs/api.md`).

use crate::{CorpusError, TraceHeader};
use clockmark_obs::json::{self, DecimalU64, DecodeError, FromJson, Json, Record};
use std::fmt::Write as _;

/// One manifest line: everything needed to locate and verify a trace
/// without opening it.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestEntry {
    /// Corpus-unique trace name.
    pub name: String,
    /// File name relative to the corpus `traces/` directory.
    pub file: String,
    /// Sample count.
    pub cycles: u64,
    /// Total file size in bytes.
    pub bytes: u64,
    /// CRC-32 recorded in the trace footer.
    pub crc32: u32,
    /// Format version of the stored file.
    pub version: u16,
    /// Device clock in hertz (0.0 when unknown).
    pub f_clk_hz: f64,
    /// Capture seed.
    pub seed: u64,
    /// Chip tag (see [`crate::format::source`]).
    pub source: u32,
}

impl ManifestEntry {
    /// Builds an entry from a trace header plus its stored identity.
    pub fn from_header(name: &str, file: &str, header: &TraceHeader, crc32: u32) -> Self {
        ManifestEntry {
            name: name.to_owned(),
            file: file.to_owned(),
            cycles: header.cycles,
            bytes: header.file_size(),
            crc32,
            version: crate::format::VERSION,
            f_clk_hz: header.f_clk_hz,
            seed: header.seed,
            source: header.source,
        }
    }

    /// The trace header this entry describes.
    pub fn header(&self) -> TraceHeader {
        TraceHeader {
            cycles: self.cycles,
            f_clk_hz: self.f_clk_hz,
            seed: self.seed,
            source: self.source,
        }
    }

    /// Serialises the entry as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(160);
        out.push_str("{\"name\":");
        json::write_str(&mut out, &self.name);
        out.push_str(",\"file\":");
        json::write_str(&mut out, &self.file);
        let _ = write!(
            out,
            ",\"cycles\":{},\"bytes\":{},\"crc32\":{},\"version\":{},\"f_clk_hz\":",
            self.cycles, self.bytes, self.crc32, self.version
        );
        json::write_f64(&mut out, self.f_clk_hz);
        let _ = write!(
            out,
            ",\"seed\":\"{}\",\"source\":{}}}",
            self.seed, self.source
        );
        out
    }

    /// Parses one manifest line.
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError::Manifest`] naming the 1-based `line` for
    /// malformed JSON or missing/ill-typed fields.
    pub fn decode(text: &str, line: usize) -> Result<Self, CorpusError> {
        json::decode(text).map_err(|e| CorpusError::Manifest {
            line,
            message: e.to_string(),
        })
    }
}

impl FromJson<'_> for ManifestEntry {
    fn from_json(value: &Json, path: impl FnOnce() -> String) -> Result<Self, DecodeError> {
        let f = Record::from_json(value, path)?;
        Ok(ManifestEntry {
            name: f.req("name")?,
            file: f.req("file")?,
            cycles: f.req("cycles")?,
            bytes: f.req("bytes")?,
            crc32: f.req("crc32")?,
            version: f.req("version")?,
            f_clk_hz: f.req("f_clk_hz")?,
            seed: f.req::<DecimalU64>("seed")?.0,
            source: f.req("source")?,
        })
    }
}

/// Decodes the complete lines of a manifest, skipping blank ones.
///
/// # Errors
///
/// Returns [`CorpusError::Manifest`] naming the first malformed line.
pub(crate) fn decode_lines(text: &str) -> Result<Vec<ManifestEntry>, CorpusError> {
    let lines = text.lines().enumerate();
    let lines = lines.filter(|(_, line)| !line.trim().is_empty());
    lines
        .map(|(i, line)| ManifestEntry::decode(line, i + 1))
        .collect()
}

/// Encodes `entries` as manifest lines, each ending in `\n`.
pub(crate) fn encode_lines(entries: &[ManifestEntry]) -> String {
    entries.iter().map(|e| e.encode() + "\n").collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> ManifestEntry {
        ManifestEntry {
            name: "chip_i_s7".to_owned(),
            file: "chip_i_s7.cmt".to_owned(),
            cycles: 30_000,
            bytes: 240_072,
            crc32: 0xDEAD_BEEF,
            version: 1,
            f_clk_hz: 1.0e7,
            seed: u64::MAX - 3,
            source: 2,
        }
    }

    #[test]
    fn encode_decode_round_trips_including_u64_seed() {
        let original = entry();
        let line = original.encode();
        let back = ManifestEntry::decode(&line, 1).expect("valid line");
        assert_eq!(back, original, "line was: {line}");
    }

    #[test]
    fn malformed_lines_name_their_line_number() {
        let err = ManifestEntry::decode("not json", 7).unwrap_err();
        assert!(err.to_string().contains("line 7"), "{err}");
        let err = ManifestEntry::decode("{\"name\":\"x\"}", 3).unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn tampered_numeric_fields_are_refused_not_saturated() {
        let line = entry().encode();
        // Each tampered value used to round-trip through `as u32`/`as
        // u16` into a *different* entry; all must now be refused.
        for (field, bad_value) in [
            ("crc32", "-1"),
            ("crc32", "4294967296"),   // u32::MAX + 1
            ("crc32", "3735928559.5"), // fractional
            ("source", "-7"),
            ("source", "1e300"),
            ("version", "65536"), // u16::MAX + 1
            ("cycles", "30000.25"),
            ("bytes", "-240072"),
            ("bytes", "1e17"), // integral but beyond 2^53
        ] {
            let needle = match field {
                "crc32" => format!("\"crc32\":{}", 0xDEAD_BEEFu32),
                "source" => "\"source\":2".to_owned(),
                "version" => "\"version\":1".to_owned(),
                "cycles" => "\"cycles\":30000".to_owned(),
                "bytes" => "\"bytes\":240072".to_owned(),
                _ => unreachable!(),
            };
            let tampered = line.replace(&needle, &format!("\"{field}\":{bad_value}"));
            assert_ne!(tampered, line, "tamper target `{needle}` not found");
            let err = ManifestEntry::decode(&tampered, 1)
                .expect_err(&format!("{field}={bad_value} must be refused"));
            assert!(err.to_string().contains(field), "{err}");
        }
    }

    #[test]
    fn manifest_file_round_trips_atomically() {
        let dir = std::env::temp_dir().join(format!("cm_manifest_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("manifest.jsonl");
        let entries = vec![entry(), {
            let mut e = entry();
            e.name = "chip_ii_s1".to_owned();
            e
        }];
        let journal = crate::durable::Journal::new(&path);
        for e in &entries {
            journal.append(&e.encode()).expect("writes");
        }
        let (text, _) = crate::durable::read_journal(&path).expect("reads");
        assert_eq!(decode_lines(&text).expect("reads"), entries);
        // Appending leaves no temp residue.
        assert!(!dir.join("manifest.jsonl.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
