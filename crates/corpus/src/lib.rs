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
//!   indexed by an appended `manifest.jsonl`, supporting add / list /
//!   verify / scan, with every stored trace read back through one
//!   [`TraceReader`] whose declared size is checked against the file
//!   at open;
//! - **durable state** ([`mod@durable`]): the write protocols of each file;
//! - the low-level [`codec`] and [`Crc32`] primitives, reused by the
//!   campaign engine's checkpoint blobs in the `clockmark` crate.
//!
//! Everything is std-only and byte-order-pinned: a corpus written on one
//! machine verifies bit-for-bit on any other. The full byte layout and
//! versioning rules live in `docs/corpus.md`.

// `deny` rather than `forbid`: the one scoped exception, with its own
// safety argument, is the call into the CRC fold after feature
// detection in `crc32.rs`. Everything else in the crate is unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod crc32;
pub mod durable;
mod error;
pub mod format;
mod manifest;
mod store;

pub use crc32::{crc32, Crc32};
pub use error::CorpusError;
pub use format::{decode_trace, encode_trace, TraceHeader, TraceReader, TraceWriter};
pub use manifest::ManifestEntry;
pub use store::{Corpus, VerifyOutcome};
