//! # clockmark-serve — concurrent watermark-detection service
//!
//! A std-only TCP server (and matching client) that exposes the
//! [`Detector`](clockmark_cpa::Detector) facade over a versioned,
//! length-prefixed binary protocol. Everything is `std::net` +
//! `std::thread`; there is no async runtime and no external
//! dependency, matching the rest of the workspace.
//!
//! The wire protocol is deliberately a *thin encoding* of the
//! in-process API: a detect exchange streams `f64` chunks into the same
//! [`Session`](clockmark_cpa::Session), in the same
//! [`DetectMode`](clockmark_cpa::DetectMode), that an in-process caller
//! would use, and its [`Verdict`](clockmark_cpa::Verdict) travels as
//! IEEE-754 bit patterns — so a verdict obtained over the wire is
//! bit-identical (peak rotation, ρ, z-score) to one computed locally.
//!
//! ## Quick start
//!
//! ```
//! use clockmark_serve::{Client, ServeLimits, Server};
//! use clockmark::prelude::*;
//!
//! # fn main() -> Result<(), ClockmarkError> {
//! let handle = Server::new()
//!     .with_limits(ServeLimits::default())
//!     .bind("127.0.0.1:0")
//!     .map_err(ClockmarkError::from)?;
//!
//! let pattern: Vec<bool> = (0..64).map(|i| (i * 7) % 3 == 0).collect();
//! let trace: Vec<f64> = (0..640).map(|i| (i as f64 * 0.37).sin()).collect();
//!
//! let mut client = Client::connect(handle.local_addr()).map_err(ClockmarkError::from)?;
//! client.ping().map_err(ClockmarkError::from)?;
//! let wire = client
//!     .detect(&pattern, DetectOptions::default(), &trace)
//!     .map_err(ClockmarkError::from)?;
//!
//! // Bit-identical to the in-process facade.
//! let local = Detector::new(&pattern)?.detect(&trace)?;
//! assert_eq!(wire.result, local);
//!
//! handle.shutdown();
//! # Ok(())
//! # }
//! ```
//!
//! ## Robustness model
//!
//! - **Bounded pool, explicit backpressure.** At most
//!   [`ServeLimits::max_sessions`] connections are served concurrently;
//!   the rest are told `Busy` with a retry hint and closed. Nothing
//!   queues invisibly.
//! - **Per-connection budgets.** Frame size, streamed cycle count, read
//!   and idle timeouts are all capped by [`ServeLimits`].
//! - **Graceful drain.** Shutdown (via [`ServerHandle::shutdown`] or a
//!   wire `Shutdown` request) stops accepting, lets in-flight sessions
//!   finish, and flushes `clockmark-obs` metrics.
//!
//! See `docs/serve.md` at the repository root for the exact byte
//! layout.
//!
//! ## Engine
//!
//! The server runs a `poll(2)`-based **readiness engine**: one
//! event-loop thread watches every connected session and a small
//! worker pool ([`ServeLimits::workers`]) services only the sessions
//! with bytes waiting, so thousands of mostly-idle sessions cost one
//! file descriptor each and zero threads. It needs a unix target.
//!
//! The `poll(2)` and `RLIMIT_NOFILE` prototypes live in one scoped
//! `allow(unsafe_code)` FFI module (`poll::sys`), mirroring the
//! `corpus::mmap` pattern; the rest of the crate denies unsafe code.

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(not(unix))]
compile_error!("clockmark-serve needs a unix target: its server engine is built on poll(2)");

mod client;
mod error;
mod poll;
pub mod protocol;
mod server;

pub use client::{Backoff, Client, CLIENT_CHUNK};
pub use error::ServeError;
pub use poll::raise_nofile_limit;
pub use protocol::{
    mint_span_id, mint_trace_id, trace_id_hex, ErrorCode, Request, Response, ServerStatus,
    ShardSpec, WorkerHeartbeat, MAGIC, PROTOCOL_VERSION, TRACE_ID_LEN,
};
pub use server::{FleetService, ServeLimits, Server, ServerHandle, ShardOutcome};
