//! The on-disk corpus: a directory of `.cmt` traces indexed by
//! `manifest.jsonl`.
//!
//! ```text
//! corpus/
//!   manifest.jsonl      # one line per trace, appended as a journal
//!   traces/
//!     <name>.cmt        # binary traces, published by rename-over
//! ```
//!
//! A trace file lands before its manifest line, so a kill at any point
//! leaves no entry pointing at a half-written file. The write protocols
//! are [`crate::durable`]'s.

use crate::durable::{self, Journal};
use crate::format::{self, TraceHeader, TraceReader, TraceWriter};
use crate::manifest::{self, ManifestEntry};
use crate::CorpusError;
use clockmark_power::PowerTrace;
use std::fs::{self, File};
use std::io::BufReader;
use std::path::{Path, PathBuf};

/// How one trace fared under [`Corpus::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyOutcome {
    /// The trace name.
    pub name: String,
    /// Whether the stored file matched its manifest entry and CRC.
    pub ok: bool,
    /// Human-readable detail (the failure reason, or `"ok"`).
    pub detail: String,
}

/// A durable trace corpus rooted at a directory.
///
/// ```no_run
/// # fn main() -> Result<(), clockmark_corpus::CorpusError> {
/// use clockmark_corpus::{Corpus, TraceHeader};
///
/// let mut corpus = Corpus::create("fleet_corpus")?;
/// corpus.add("chip_i_s1", TraceHeader::bare(0), &[1.0e-3, 2.0e-3])?;
/// for entry in corpus.entries() {
///     println!("{}: {} cycles", entry.name, entry.cycles);
/// }
/// for outcome in corpus.verify()? {
///     assert!(outcome.ok, "{}: {}", outcome.name, outcome.detail);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Corpus {
    root: PathBuf,
    entries: Vec<ManifestEntry>,
    manifest: Journal,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 128
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
        && !name.starts_with('.')
}

impl Corpus {
    /// Creates a new corpus directory (with an empty manifest). Fails if
    /// a manifest already exists there.
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError::Io`] on filesystem failure or when the
    /// directory already holds a corpus.
    pub fn create(root: impl Into<PathBuf>) -> Result<Self, CorpusError> {
        let root = root.into();
        durable::create_dir_all(&root.join("traces"))?;
        durable::publish_new(&root.join("manifest.jsonl"), b"")?;
        Self::open(root)
    }

    /// Opens an existing corpus by reading its manifest. A torn last
    /// line, left by a kill while a trace was added, is ignored.
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError::Io`] when the manifest cannot be read and
    /// [`CorpusError::Manifest`] when a complete line is malformed.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, CorpusError> {
        let root = root.into();
        let manifest = root.join("manifest.jsonl");
        let entries = manifest::decode_lines(&durable::read_journal(&manifest)?.0)?;
        Ok(Corpus {
            root,
            entries,
            manifest: Journal::new(manifest),
        })
    }

    /// Opens the corpus at `root`, creating it when absent.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Corpus::open`] / [`Corpus::create`].
    pub fn open_or_create(root: impl Into<PathBuf>) -> Result<Self, CorpusError> {
        let root = root.into();
        if root.join("manifest.jsonl").exists() {
            Self::open(root)
        } else {
            Self::create(root)
        }
    }

    /// The corpus root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// All manifest entries, in insertion order.
    pub fn entries(&self) -> &[ManifestEntry] {
        &self.entries
    }

    /// Number of stored traces.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the corpus holds no traces.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up one entry by name.
    pub fn entry(&self, name: &str) -> Option<&ManifestEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    fn trace_path(&self, file: &str) -> PathBuf {
        self.root.join("traces").join(file)
    }

    /// Stores a trace under `name` and indexes it in the manifest.
    ///
    /// `header.cycles` is overwritten with `watts.len()`; the other
    /// header fields carry the capture metadata. The file is published
    /// by rename-over, then its manifest line is appended.
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError::InvalidName`] / [`CorpusError::DuplicateTrace`]
    /// for bad names, [`CorpusError::NonFinite`] for non-finite samples,
    /// and [`CorpusError::Io`] on filesystem failure.
    pub fn add(
        &mut self,
        name: &str,
        mut header: TraceHeader,
        watts: &[f64],
    ) -> Result<&ManifestEntry, CorpusError> {
        let _span = clockmark_obs::span("corpus.add")
            .field("name", name.to_owned())
            .field("cycles", watts.len());
        if !valid_name(name) {
            return Err(CorpusError::InvalidName {
                name: name.to_owned(),
            });
        }
        if self.entry(name).is_some() {
            return Err(CorpusError::DuplicateTrace {
                name: name.to_owned(),
            });
        }
        header.cycles = watts.len() as u64;

        let file = format!("{name}.cmt");
        let crc32 = durable::publish_with(&self.trace_path(&file), |out| {
            let mut writer = TraceWriter::new(out, header)?;
            writer.write_samples(watts)?;
            Ok::<_, CorpusError>(writer.finish()?.1)
        })?;
        let entry = ManifestEntry::from_header(name, &file, &header, crc32);
        self.manifest.append(&entry.encode())?;
        self.entries.push(entry);
        clockmark_obs::counter_add("corpus.traces_added", 1);
        Ok(self.entries.last().expect("just pushed"))
    }

    /// Stores a [`PowerTrace`] (convenience over [`Corpus::add`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Corpus::add`].
    pub fn add_power_trace(
        &mut self,
        name: &str,
        header: TraceHeader,
        trace: &PowerTrace,
    ) -> Result<&ManifestEntry, CorpusError> {
        self.add(name, header, trace.as_watts())
    }

    /// Opens a streaming reader over one stored trace.
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError::UnknownTrace`] for an unindexed name,
    /// [`CorpusError::Io`] on open failure, and [`CorpusError::Format`]
    /// for a malformed header or one declaring more samples than the file
    /// holds (a corrupt or forged header must not drive an allocation).
    pub fn source(&self, name: &str) -> Result<TraceReader<BufReader<File>>, CorpusError> {
        let entry = self.entry(name).ok_or_else(|| CorpusError::UnknownTrace {
            name: name.to_owned(),
        })?;
        open_trace(&self.trace_path(&entry.file))
    }

    /// Verifies every stored trace against the manifest: file size,
    /// header metadata, and a full streaming CRC check whose result must
    /// match both the trace's footer and the manifest's `crc32`, so a
    /// valid trace swapped in under another's name fails too. Never
    /// stops at the first failure — fleet verification wants the
    /// complete picture.
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError::Io`] only for failures reading the corpus
    /// *directory* itself; per-trace failures land in the outcomes.
    pub fn verify(&self) -> Result<Vec<VerifyOutcome>, CorpusError> {
        let _span = clockmark_obs::span("corpus.verify").field("traces", self.entries.len());
        let mut outcomes = Vec::with_capacity(self.entries.len());
        for entry in &self.entries {
            let detail = self.verify_entry(entry);
            clockmark_obs::counter_add("corpus.traces_verified", 1);
            outcomes.push(VerifyOutcome {
                name: entry.name.clone(),
                ok: detail.is_none(),
                detail: detail.unwrap_or_else(|| "ok".to_owned()),
            });
        }
        Ok(outcomes)
    }

    /// Writes a shard-scoped manifest: the entries for exactly the
    /// named traces (in the order given), published to `path` in the
    /// standard `manifest.jsonl` format.
    ///
    /// A fleet coordinator drops one of these into each shard directory
    /// so the shard records which slice of the corpus it owns — the
    /// file is greppable with the same tooling as a full manifest and
    /// doubles as an audit trail for reassigned shards. The trace files
    /// themselves are *not* copied; shard workers read them from the
    /// shared corpus.
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError::UnknownTrace`] if any name is unindexed
    /// (nothing is written in that case) and [`CorpusError::Io`] for
    /// write failures.
    pub fn subset_manifest<S: AsRef<str>>(
        &self,
        names: &[S],
        path: impl AsRef<Path>,
    ) -> Result<Vec<ManifestEntry>, CorpusError> {
        let subset: Vec<ManifestEntry> = names
            .iter()
            .map(|name| {
                self.entry(name.as_ref())
                    .cloned()
                    .ok_or_else(|| CorpusError::UnknownTrace {
                        name: name.as_ref().to_owned(),
                    })
            })
            .collect::<Result<_, _>>()?;
        durable::publish(path.as_ref(), manifest::encode_lines(&subset).as_bytes())?;
        Ok(subset)
    }

    /// `None` when the entry checks out; otherwise the failure reason.
    fn verify_entry(&self, entry: &ManifestEntry) -> Option<String> {
        let path = self.trace_path(&entry.file);
        let meta = match fs::metadata(&path) {
            Ok(meta) => meta,
            Err(e) => return Some(format!("missing file: {e}")),
        };
        if meta.len() != entry.bytes {
            return Some(format!(
                "size mismatch: manifest says {} bytes, file is {}",
                entry.bytes,
                meta.len()
            ));
        }
        let reader = match open_trace(&path) {
            Ok(reader) => reader,
            Err(e) => return Some(e.to_string()),
        };
        let stored = *reader.header();
        let expected = entry.header();
        if stored != expected {
            return Some(format!(
                "header mismatch: stored {stored:?}, manifest {expected:?}"
            ));
        }
        match reader.finish() {
            Ok((_, crc32)) if crc32 == entry.crc32 => None,
            Ok((_, crc32)) => Some(format!(
                "CRC mismatch: manifest says crc32 {:08x}, trace has {crc32:08x}",
                entry.crc32
            )),
            Err(e) => Some(e.to_string()),
        }
    }

    /// Rebuilds a manifest by scanning `traces/*.cmt`, validating each
    /// file as it goes. Recovers a corpus whose manifest was lost — and
    /// is also how foreign `.cmt` files dropped into the directory get
    /// adopted.
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError::Io`] on directory-read failure and the
    /// first per-file validation error (a scan of a corrupted directory
    /// should fail loudly, not index garbage).
    pub fn scan(root: impl Into<PathBuf>) -> Result<Self, CorpusError> {
        let root = root.into();
        let _span = clockmark_obs::span("corpus.scan");
        let traces_dir = root.join("traces");
        let mut entries = Vec::new();
        let dir = fs::read_dir(&traces_dir)
            .map_err(|e| CorpusError::io(format!("scanning {}", traces_dir.display()), e))?;
        let mut paths: Vec<PathBuf> = dir
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "cmt"))
            .collect();
        paths.sort();
        for path in paths {
            let name = path
                .file_stem()
                .and_then(|s| s.to_str())
                .ok_or_else(|| CorpusError::format(format!("unreadable name: {}", path.display())))?
                .to_owned();
            let (header, crc32) = open_trace(&path)?.finish()?; // full CRC validation
            entries.push(ManifestEntry::from_header(
                &name,
                &format!("{name}.cmt"),
                &header,
                crc32,
            ));
        }
        let text = manifest::encode_lines(&entries);
        durable::publish(&root.join("manifest.jsonl"), text.as_bytes())?;
        Self::open(root)
    }
}

/// Opens the trace file at `path` and decodes its header, refusing one
/// that declares more samples than the file holds: a corrupt or forged
/// header must not size a buffer or a read.
fn open_trace(path: &Path) -> Result<TraceReader<BufReader<File>>, CorpusError> {
    let opened = File::open(path).and_then(|file| Ok((file.metadata()?.len(), file)));
    let (len, file) =
        opened.map_err(|e| CorpusError::io(format!("opening {}", path.display()), e))?;
    let reader = TraceReader::new(BufReader::new(file))?;
    format::check_declared_size(reader.header(), len)?;
    Ok(reader)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let path = std::env::temp_dir().join(format!(
                "cm_corpus_{tag}_{}_{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            fs::remove_dir_all(&path).ok();
            TempDir(path)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            fs::remove_dir_all(&self.0).ok();
        }
    }

    fn watts(n: usize, salt: u64) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as u64).wrapping_mul(2654435761).wrapping_add(salt) % 1000) as f64 * 1e-6)
            .collect()
    }

    #[test]
    fn add_list_read_round_trip() {
        let dir = TempDir::new("roundtrip");
        let mut corpus = Corpus::create(&dir.0).expect("creates");
        let header = TraceHeader {
            cycles: 0,
            f_clk_hz: 1.0e7,
            seed: 42,
            source: format::source::CHIP_I,
        };
        let w = watts(5000, 1);
        corpus.add("chip_i_s42", header, &w).expect("adds");
        corpus
            .add("chip_i_s43", header, &watts(5000, 2))
            .expect("adds");
        assert_eq!(corpus.len(), 2);

        // Re-open from disk and read back bit-exactly.
        let reopened = Corpus::open(&dir.0).expect("opens");
        assert_eq!(reopened.len(), 2);
        let entry = reopened.entry("chip_i_s42").expect("indexed");
        assert_eq!(entry.cycles, 5000);
        assert_eq!(entry.seed, 42);
        let mut source = reopened.source("chip_i_s42").expect("opens");
        let mut back = vec![0.0f64; w.len()];
        let mut filled = 0;
        while filled < back.len() {
            filled += source.read_chunk(&mut back[filled..]).expect("reads");
        }
        let (back_header, _) = source.finish().expect("crc");
        assert_eq!(back_header.seed, 42);
        for (a, b) in back.iter().zip(&w) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn verify_detects_a_single_flipped_byte() {
        let dir = TempDir::new("verify");
        let mut corpus = Corpus::create(&dir.0).expect("creates");
        corpus
            .add("victim", TraceHeader::bare(0), &watts(2000, 3))
            .expect("adds");
        assert!(corpus.verify().expect("verifies").iter().all(|o| o.ok));

        // Flip one byte in the middle of the sample payload.
        let path = dir.0.join("traces/victim.cmt");
        let mut bytes = fs::read(&path).expect("reads");
        let at = format::HEADER_LEN + 999;
        bytes[at] ^= 0x01;
        fs::write(&path, &bytes).expect("writes");

        let outcomes = corpus.verify().expect("verifies");
        assert_eq!(outcomes.len(), 1);
        assert!(!outcomes[0].ok, "flipped byte must fail verification");
        assert!(
            outcomes[0].detail.contains("integrity")
                || outcomes[0].detail.contains("finite")
                || outcomes[0].detail.contains("CRC32"),
            "unexpected detail: {}",
            outcomes[0].detail
        );
    }

    #[test]
    fn source_refuses_a_forged_on_disk_cycle_count() {
        let dir = TempDir::new("sourceforged");
        let mut corpus = Corpus::create(&dir.0).expect("creates");
        corpus
            .add("victim", TraceHeader::bare(0), &watts(100, 7))
            .expect("adds");
        let path = dir.0.join("traces/victim.cmt");
        let mut bytes = fs::read(&path).expect("reads");
        let forged = TraceHeader {
            cycles: u64::MAX / 16,
            ..TraceHeader::bare(0)
        };
        bytes[..format::HEADER_LEN].copy_from_slice(&forged.encode());
        fs::write(&path, &bytes).expect("writes");

        // The file length is known at open, so the forged header is
        // refused before anything is sized from it.
        let err = corpus.source("victim").expect_err("forged header");
        assert!(matches!(err, CorpusError::Format { .. }), "{err}");
        assert!(err.to_string().contains("cycles"), "{err}");
    }

    #[test]
    fn names_are_validated_and_deduplicated() {
        let dir = TempDir::new("names");
        let mut corpus = Corpus::create(&dir.0).expect("creates");
        corpus
            .add("ok-name_1.a", TraceHeader::bare(0), &[1.0])
            .expect("adds");
        assert!(matches!(
            corpus.add("ok-name_1.a", TraceHeader::bare(0), &[1.0]),
            Err(CorpusError::DuplicateTrace { .. })
        ));
        for bad in ["", "../escape", "a/b", ".hidden", "sp ace"] {
            assert!(
                matches!(
                    corpus.add(bad, TraceHeader::bare(0), &[1.0]),
                    Err(CorpusError::InvalidName { .. })
                ),
                "name {bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn scan_rebuilds_a_lost_manifest() {
        let dir = TempDir::new("scan");
        let mut corpus = Corpus::create(&dir.0).expect("creates");
        let w = watts(1234, 9);
        corpus
            .add(
                "rescued",
                TraceHeader {
                    cycles: 0,
                    f_clk_hz: 5e6,
                    seed: 77,
                    source: format::source::CHIP_II,
                },
                &w,
            )
            .expect("adds");
        let original = corpus.entries()[0].clone();

        fs::remove_file(dir.0.join("manifest.jsonl")).expect("removes");
        let rescued = Corpus::scan(&dir.0).expect("scans");
        assert_eq!(rescued.entries(), &[original]);
    }

    #[test]
    fn open_without_a_manifest_fails_cleanly() {
        let dir = TempDir::new("nomanifest");
        assert!(Corpus::open(&dir.0).is_err());
        fs::create_dir_all(&dir.0).expect("mkdir");
        assert!(Corpus::open(&dir.0).is_err());
        // But open_or_create initialises it.
        let corpus = Corpus::open_or_create(&dir.0).expect("creates");
        assert!(corpus.is_empty());
        // Create refuses to clobber it.
        assert!(Corpus::create(&dir.0).is_err());
    }
}
