//! # clockmark-corpus — durable power-trace storage
//!
//! The paper validates detection with one-shot captures: 300,000 cycles
//! straight from the oscilloscope into one correlation (Fig. 5/6). Fleet
//! verification — proving a watermark across *many* fabricated chips,
//! seeds and workloads — needs those captures to outlive the process that
//! recorded them. This crate provides:
//!
//! - the **`.cmt` binary trace format** ([`mod@format`]): a fixed 64-byte
//!   little-endian header (cycle count + capture metadata), raw `f64`
//!   samples, and a CRC-32 integrity footer, with chunked streaming
//!   [`TraceWriter`]/[`TraceReader`] so a trace never has to be fully
//!   resident;
//! - the **corpus store** ([`Corpus`]): an on-disk directory of traces
//!   indexed by `manifest.jsonl` (always replaced atomically via
//!   temp-file + rename) supporting add / list / verify / scan;
//! - **zero-copy ingestion** ([`mod@mmap`], [`TraceBytes`],
//!   [`MappedTrace`]): read-only memory-mapped `.cmt` traces on unix
//!   (buffered reads elsewhere), so campaign workers and detection
//!   services stream sample chunks straight out of the page cache with
//!   header and CRC validation unchanged;
//! - the low-level [`codec`] and [`Crc32`] primitives, reused by the
//!   campaign engine's checkpoint blobs in the `clockmark` crate.
//!
//! Everything is std-only and byte-order-pinned: a corpus written on one
//! machine verifies bit-for-bit on any other. The full byte layout and
//! versioning rules live in `docs/corpus.md`; the mmap lifecycle and
//! safety contract in `docs/perf.md`.

// `deny` rather than `forbid`: the two scoped exceptions, each with its
// own safety argument, are the raw `mmap`/`munmap` FFI in `mmap.rs` and
// the call into the CRC fold after feature detection in `crc32.rs`.
// Everything else in the crate remains unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod crc32;
mod error;
pub mod format;
mod manifest;
pub mod mmap;
mod store;
mod view;

pub use crc32::{crc32, Crc32};
pub use error::CorpusError;
pub use format::{decode_trace, encode_trace, TraceHeader, TraceReader, TraceWriter};
pub use manifest::{read_manifest, write_manifest, ManifestEntry};
pub use mmap::Mmap;
pub use store::{Corpus, TraceSource, VerifyOutcome, NO_MMAP_ENV};
pub use view::{MappedTrace, TraceBytes};
