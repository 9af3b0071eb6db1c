//! The `CMRPC` wire protocol: a thin binary encoding of the
//! [`Detector`](clockmark_cpa::Detector) API.
//!
//! ## Byte layout
//!
//! Every connection opens with an 8-byte greeting from the client —
//! the magic `b"CMRPC1"` followed by a `u16` little-endian protocol
//! version — which the server echoes back verbatim on success.
//!
//! After the handshake both directions speak *frames*:
//!
//! ```text
//! +------+----------------+-----------------+
//! | type | payload length | payload         |
//! | u8   | u32 LE         | `length` bytes  |
//! +------+----------------+-----------------+
//! ```
//!
//! Request types occupy `0x01..=0x7E`, response types `0x81..=0xFE`,
//! and `0x7F` is the error frame in either direction. All multi-byte
//! integers are little-endian; floating-point values are IEEE-754
//! `f64` bit patterns, so a detection verdict survives the wire
//! bit-for-bit.
//!
//! A detect exchange streams the trace, in any of the three
//! [`DetectMode`]s:
//!
//! ```text
//! client: DetectStart (pattern, algo, criterion, mode)
//! client: DetectChunk (raw f64 samples) ... repeated ...
//! client: DetectFinish
//! server: Verdict                                -- or Error
//! ```
//!
//! `DetectStart` and `DetectChunk` are deliberately unacknowledged so
//! a client can saturate the socket, and the server answers exactly
//! once per exchange, at `DetectFinish`. An exchange that fails earlier
//! (a bad pattern, a draining server, an exhausted cycle budget)
//! swallows its remaining chunks and answers the failure at
//! `DetectFinish`, so the connection stays in step.
//!
//! ## Trace context
//!
//! A client that wants distributed tracing sends a `TraceContext`
//! frame (16-byte trace id + `u64` parent span id, both
//! client-generated) before a request. The context is sticky for the
//! session: while one is set, the server precedes **every** response
//! frame with a `TraceEcho` frame echoing the trace id plus the
//! server-side span id it minted for the request, so client and server
//! span events share one causally-linked trace. `TraceContext` is
//! unacknowledged, like `DetectStart`; clients that never send it never
//! see an echo, which keeps the frame optional and the protocol
//! backward-compatible at the frame level.

use clockmark_cpa::{
    CandidatePattern, CandidateScore, CpaAlgo, DetectMode, DetectionCriterion, DetectionResult,
    SequentialCheckpoint, SequentialOptions, Verdict,
};

use crate::error::ServeError;

/// Magic bytes every connection must open with.
pub const MAGIC: [u8; 6] = *b"CMRPC1";

/// Wire protocol version carried in the greeting. Version 2 added the
/// `TraceContext`/`TraceEcho` and `Metrics` frames and extended the
/// `Status` report with uptime, session totals and the algo mix.
/// Version 3 added the fleet frames (`ShardAssign`/`ShardResult`/
/// `Heartbeat`) and extended the `Status` report with the readiness-loop
/// session counts (registered/readable/in-flight). Version 4 added the
/// sequential early-termination exchange
/// (`DetectSequentialStart`/`SequentialDetection`) and the batched
/// multi-candidate exchange (`IdentifyStart`/`Identification`), both
/// reusing `DetectChunk`/`DetectFinish` for the trace stream. Version 5
/// made `ShardAssign` carry the shard's whole campaign spec (as JSON)
/// plus the fleet-wide job indices, in place of six re-encoded tuning
/// fields, so a shard runs every campaign flavour. Version 6 folded the
/// three exchange shapes into one: `DetectStart` carries a mode tag
/// (fixed, sequential with its options, identify with its candidates),
/// every exchange and `DetectCorpus` answer with one `Verdict` frame,
/// the v4 start and result frames (`0x0C`, `0x0D`, `0x89`, `0x8A`) are
/// retired, and a failed exchange answers once, at `DetectFinish`.
/// Version 7 dropped `ShardAssign`'s list of fleet-wide job indices: the
/// shard's campaign spec carries them as its `job_ids`.
pub const PROTOCOL_VERSION: u16 = 7;

/// Frame-type byte of the error frame (valid in either direction).
pub const FRAME_ERROR: u8 = 0x7F;

const FRAME_PING: u8 = 0x01;
const FRAME_DETECT_START: u8 = 0x02;
const FRAME_DETECT_CHUNK: u8 = 0x03;
const FRAME_DETECT_FINISH: u8 = 0x04;
const FRAME_DETECT_CORPUS: u8 = 0x05;
const FRAME_STATUS: u8 = 0x06;
const FRAME_SHUTDOWN: u8 = 0x07;
const FRAME_TRACE_CONTEXT: u8 = 0x08;
const FRAME_METRICS: u8 = 0x09;
const FRAME_SHARD_ASSIGN: u8 = 0x0A;
const FRAME_HEARTBEAT: u8 = 0x0B;

const FRAME_PONG: u8 = 0x81;
const FRAME_VERDICT: u8 = 0x82;
const FRAME_STATUS_REPORT: u8 = 0x83;
const FRAME_SHUTDOWN_ACK: u8 = 0x84;
const FRAME_METRICS_REPORT: u8 = 0x85;
const FRAME_TRACE_ECHO: u8 = 0x86;
const FRAME_SHARD_RESULT: u8 = 0x87;
const FRAME_HEARTBEAT_ACK: u8 = 0x88;

const MODE_FIXED: u8 = 0;
const MODE_SEQUENTIAL: u8 = 1;
const MODE_IDENTIFY: u8 = 2;

/// Length in bytes of a wire trace id.
pub const TRACE_ID_LEN: usize = 16;

/// Machine-readable failure class carried by an error frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErrorCode {
    /// The request bytes did not decode.
    Malformed,
    /// A frame exceeded the server's payload limit.
    FrameTooLarge,
    /// The session pool is full; honour `retry_after_ms`.
    Busy,
    /// Correlation analysis rejected the inputs.
    Cpa,
    /// The referenced corpus or trace could not be read.
    Corpus,
    /// The streamed trace exceeded the server's cycle budget.
    TooManyCycles,
    /// A detect frame arrived outside a detect exchange (or vice versa).
    BadSequence,
    /// The server is draining and no longer accepts work.
    Draining,
    /// An unclassified server-side failure.
    Internal,
}

impl ErrorCode {
    fn to_wire(self) -> u16 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::FrameTooLarge => 2,
            ErrorCode::Busy => 3,
            ErrorCode::Cpa => 4,
            ErrorCode::Corpus => 5,
            ErrorCode::TooManyCycles => 6,
            ErrorCode::BadSequence => 7,
            ErrorCode::Draining => 8,
            ErrorCode::Internal => 9,
        }
    }

    fn from_wire(raw: u16) -> Option<Self> {
        Some(match raw {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::FrameTooLarge,
            3 => ErrorCode::Busy,
            4 => ErrorCode::Cpa,
            5 => ErrorCode::Corpus,
            6 => ErrorCode::TooManyCycles,
            7 => ErrorCode::BadSequence,
            8 => ErrorCode::Draining,
            9 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// A decoded client-to-server frame.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Open a detect exchange for the given watermark pattern. The
    /// exchange streams with `DetectChunk`, ends with `DetectFinish`, and
    /// is answered once with [`Response::Verdict`].
    DetectStart {
        /// Watermark pattern, one bool per cycle. For identify it only
        /// fixes the fold period; every candidate must share it.
        pattern: Vec<bool>,
        /// Kernel to pin, or `None` for the server-side heuristic.
        algo: Option<CpaAlgo>,
        /// Peak-significance thresholds to apply.
        criterion: DetectionCriterion,
        /// What the exchange answers: a fixed-budget verdict, a
        /// sequential one (the server freezes its fold at the first
        /// accept; the client keeps streaming, so the saving is server
        /// CPU, not bandwidth), or a ranked identification.
        mode: DetectMode,
    },
    /// Trace samples for the open detect exchange.
    DetectChunk {
        /// Power samples in watts.
        samples: Vec<f64>,
    },
    /// Close the detect exchange and request the verdict.
    DetectFinish,
    /// Detect against a trace stored in an on-disk corpus.
    DetectCorpus {
        /// Filesystem path of the corpus root (server-local).
        corpus: String,
        /// Trace name inside the corpus manifest.
        trace: String,
        /// Watermark pattern, one bool per cycle.
        pattern: Vec<bool>,
        /// Kernel to pin, or `None` for the server-side heuristic.
        algo: Option<CpaAlgo>,
        /// Peak-significance thresholds to apply.
        criterion: DetectionCriterion,
    },
    /// Request server load counters.
    Status,
    /// Ask the server to drain and exit.
    Shutdown,
    /// Set (or replace) the session's trace context. Unacknowledged;
    /// while set, every response is preceded by [`Response::TraceEcho`].
    TraceContext {
        /// Client-generated 16-byte trace id shared by all spans of the
        /// logical operation.
        trace_id: [u8; TRACE_ID_LEN],
        /// Client-side span id the server's spans are parented under.
        parent_span: u64,
    },
    /// Request a Prometheus-text metrics snapshot.
    Metrics,
    /// Coordinator → worker: run one campaign shard to completion. The
    /// worker answers with [`Response::ShardResult`] when the shard is
    /// done (or hits an injected limit), so one shard occupies its
    /// connection end to end — the heartbeat travels on a second
    /// connection.
    ShardAssign(ShardSpec),
    /// Coordinator → worker: liveness + progress probe, answered with
    /// [`Response::Heartbeat`].
    Heartbeat,
}

/// Everything a worker needs to run one campaign shard: where the shard
/// campaign lives on (shared) disk and what the shard campaign is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Stable shard identifier (the consistent-hash bucket).
    pub shard_id: u64,
    /// Filesystem path of the shard's campaign directory. Checkpoints
    /// and `results.jsonl` persist here, so a shard reassigned after a
    /// worker death resumes from whatever the dead worker had saved.
    pub dir: String,
    /// The shard's campaign spec, as `CampaignSpec::encode` JSON: the
    /// fleet campaign narrowed to this shard's traces and their
    /// fleet-wide `job_ids`, which the merged report is keyed by. It pins
    /// the spectrum kernel the coordinator resolved, so every worker runs
    /// the same arithmetic.
    pub campaign: String,
    /// Worker threads for this shard (0 = worker default).
    pub threads: u32,
    /// Stop after at most this many jobs (0 = no limit) — test hook
    /// mirroring `CampaignLimits::max_jobs`.
    pub max_jobs: u64,
    /// Interrupt each job after this many ingested cycles (0 = none) —
    /// test hook mirroring `CampaignLimits::interrupt_job_after_cycles`.
    pub interrupt_after_cycles: u64,
}

/// A worker's heartbeat: liveness plus live progress of the shard it is
/// currently running, aggregated by the coordinator into the fleet's
/// `progress.json`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WorkerHeartbeat {
    /// Whether a shard is currently running.
    pub busy: bool,
    /// Shard id in flight (`u64::MAX` when idle).
    pub shard_id: u64,
    /// Jobs of the in-flight shard already landed.
    pub jobs_done: u64,
    /// Jobs in the in-flight shard.
    pub jobs_total: u64,
    /// Trace cycles the in-flight shard run has ingested.
    pub cycles: u64,
    /// Ingest throughput of the in-flight shard run, cycles/second.
    pub cycles_per_sec: f64,
    /// Shards this worker has completed since startup.
    pub shards_done: u64,
}

/// A decoded server-to-client frame.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Verdict of a detect exchange or of `DetectCorpus`, in every mode:
    /// IEEE-754 bit patterns throughout, so it is bit-identical to the
    /// in-process `clockmark_cpa::Session` verdict on the same samples.
    Verdict(Verdict),
    /// Answer to [`Request::Status`].
    Status(ServerStatus),
    /// The server acknowledged [`Request::Shutdown`] and is draining.
    ShutdownAck,
    /// Answer to [`Request::Metrics`]: a Prometheus text-format
    /// snapshot of the server's live metrics.
    Metrics {
        /// Prometheus exposition text (version 0.0.4).
        text: String,
    },
    /// Answer to [`Request::ShardAssign`]: the shard ran (to completion
    /// or to an injected limit) and these are its landed outcomes.
    ShardResult {
        /// The shard this result answers for.
        shard_id: u64,
        /// Whether every job of the shard has landed.
        complete: bool,
        /// Landed outcomes as `results.jsonl` lines (one encoded
        /// `JobOutcome` per line), already remapped to *global* campaign
        /// indices.
        outcomes: String,
    },
    /// Answer to [`Request::Heartbeat`].
    Heartbeat(WorkerHeartbeat),
    /// Echo of the session's trace context, sent immediately before a
    /// response while a [`Request::TraceContext`] is in effect.
    TraceEcho {
        /// The trace id the client supplied.
        trace_id: [u8; TRACE_ID_LEN],
        /// Server-side span id minted for this request.
        span_id: u64,
    },
    /// The request failed; the connection may or may not survive.
    Error {
        /// Failure class.
        code: ErrorCode,
        /// Suggested backoff in milliseconds (0 = don't bother).
        retry_after_ms: u32,
        /// Human-readable detail.
        message: String,
    },
}

/// Load counters reported by [`Request::Status`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStatus {
    /// Sessions currently holding a pool slot.
    pub active_sessions: u32,
    /// Pool capacity.
    pub max_sessions: u32,
    /// Detect verdicts served since startup.
    pub served: u64,
    /// Connections rejected with `Busy` since startup.
    pub rejected: u64,
    /// Whether the server has stopped accepting connections.
    pub draining: bool,
    /// Seconds since the server started.
    pub uptime_secs: u64,
    /// Sessions admitted since startup (active + completed).
    pub total_sessions: u64,
    /// Verdicts served by the naive kernel.
    pub algo_naive: u64,
    /// Verdicts served by the folded kernel.
    pub algo_folded: u64,
    /// Verdicts served by the FFT kernel.
    pub algo_fft: u64,
    /// Sessions registered with the readiness loop (sockets in the poll
    /// set). Equals `active_sessions`.
    pub registered: u32,
    /// Registered sessions flagged readable and queued for a worker.
    pub readable: u32,
    /// Requests currently being handled by pool workers.
    pub in_flight: u32,
}

// ---------------------------------------------------------------------------
// Trace-id minting
// ---------------------------------------------------------------------------

/// Per-process random base for minted ids, so ids from different
/// processes (client vs server, successive runs) do not collide. Std
/// only: `RandomState` is the standard library's entropy source.
fn id_base() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    use std::sync::OnceLock;
    static BASE: OnceLock<u64> = OnceLock::new();
    *BASE.get_or_init(|| {
        std::collections::hash_map::RandomState::new()
            .build_hasher()
            .finish()
    })
}

/// Mints a process-unique span id (never zero).
pub fn mint_span_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    id_base()
        .wrapping_add(NEXT.fetch_add(1, Ordering::Relaxed))
        .max(1)
}

/// Mints a fresh 16-byte trace id for a new logical operation.
pub fn mint_trace_id() -> [u8; TRACE_ID_LEN] {
    use std::hash::{BuildHasher, Hasher};
    let mut id = [0u8; TRACE_ID_LEN];
    let fresh = std::collections::hash_map::RandomState::new()
        .build_hasher()
        .finish();
    id[..8].copy_from_slice(&fresh.to_le_bytes());
    id[8..].copy_from_slice(&mint_span_id().rotate_left(17).to_le_bytes());
    id
}

/// Renders a trace id as the conventional 32-char lowercase hex string.
pub fn trace_id_hex(id: &[u8; TRACE_ID_LEN]) -> String {
    let mut out = String::with_capacity(TRACE_ID_LEN * 2);
    for b in id {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

// ---------------------------------------------------------------------------
// Encoding primitives
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

fn put_pattern(out: &mut Vec<u8>, pattern: &[bool]) {
    put_u32(out, pattern.len() as u32);
    out.extend(pattern.iter().map(|&b| b as u8));
}

fn put_algo(out: &mut Vec<u8>, algo: Option<CpaAlgo>) {
    out.push(match algo {
        None => 0,
        Some(CpaAlgo::Naive) => 1,
        Some(CpaAlgo::Folded) => 2,
        Some(CpaAlgo::Fft) => 3,
        // `CpaAlgo` is non-exhaustive; new kernels need a wire tag here
        // and a bump of PROTOCOL_VERSION.
        Some(_) => 0,
    });
}

fn put_criterion(out: &mut Vec<u8>, c: &DetectionCriterion) {
    put_f64(out, c.min_peak_ratio);
    put_f64(out, c.min_zscore);
}

fn put_mode(out: &mut Vec<u8>, mode: &DetectMode) {
    match mode {
        DetectMode::Fixed => out.push(MODE_FIXED),
        DetectMode::Sequential(options) => {
            out.push(MODE_SEQUENTIAL);
            put_sequential_options(out, options);
        }
        DetectMode::Identify(candidates) => {
            out.push(MODE_IDENTIFY);
            put_u32(out, candidates.len() as u32);
            for candidate in candidates {
                put_bytes(out, candidate.label.as_bytes());
                put_pattern(out, &candidate.pattern);
            }
        }
    }
}

fn put_sequential_options(out: &mut Vec<u8>, o: &SequentialOptions) {
    put_u64(out, o.base_cycles);
    put_f64(out, o.growth);
    match o.confidence {
        None => out.push(0),
        Some(c) => {
            out.push(1);
            put_f64(out, c);
        }
    }
    put_u64(out, o.min_cycles);
    match o.max_cycles {
        None => out.push(0),
        Some(m) => {
            out.push(1);
            put_u64(out, m);
        }
    }
}

fn put_detection_result(out: &mut Vec<u8>, r: &DetectionResult) {
    out.push(r.detected as u8);
    put_u64(out, r.peak_rotation as u64);
    put_f64(out, r.peak_rho);
    put_f64(out, r.floor_max_abs);
    put_f64(out, r.ratio);
    put_f64(out, r.zscore);
}

fn put_verdict(out: &mut Vec<u8>, v: &Verdict) {
    put_detection_result(out, &v.result);
    put_u64(out, v.cycles);
    out.push(v.early_stopped as u8);
    put_u32(out, v.checkpoints.len() as u32);
    for cp in &v.checkpoints {
        put_u64(out, cp.cycles);
        out.push(cp.accepted as u8);
        put_f64(out, cp.peak_rho);
        put_f64(out, cp.p_value);
    }
    put_u32(out, v.scores.len() as u32);
    for score in &v.scores {
        put_u64(out, score.index as u64);
        put_bytes(out, score.label.as_bytes());
        put_detection_result(out, &score.result);
    }
}

fn put_shard_spec(out: &mut Vec<u8>, s: &ShardSpec) {
    put_u64(out, s.shard_id);
    put_bytes(out, s.dir.as_bytes());
    put_bytes(out, s.campaign.as_bytes());
    put_u32(out, s.threads);
    put_u64(out, s.max_jobs);
    put_u64(out, s.interrupt_after_cycles);
}

fn put_heartbeat(out: &mut Vec<u8>, h: &WorkerHeartbeat) {
    out.push(h.busy as u8);
    put_u64(out, h.shard_id);
    put_u64(out, h.jobs_done);
    put_u64(out, h.jobs_total);
    put_u64(out, h.cycles);
    put_f64(out, h.cycles_per_sec);
    put_u64(out, h.shards_done);
}

/// Sequential payload reader that turns truncation into a protocol error.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ServeError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let slice = &self.buf[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(malformed(format!(
                "payload truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len()
            ))),
        }
    }

    fn u8(&mut self) -> Result<u8, ServeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ServeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ServeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ServeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, ServeError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, ServeError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| malformed("string is not UTF-8"))
    }

    fn pattern(&mut self) -> Result<Vec<bool>, ServeError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        bytes
            .iter()
            .map(|&b| match b {
                0 => Ok(false),
                1 => Ok(true),
                other => Err(malformed(format!(
                    "pattern byte must be 0 or 1, got {other}"
                ))),
            })
            .collect()
    }

    fn algo(&mut self) -> Result<Option<CpaAlgo>, ServeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(CpaAlgo::Naive)),
            2 => Ok(Some(CpaAlgo::Folded)),
            3 => Ok(Some(CpaAlgo::Fft)),
            other => Err(malformed(format!("unknown algo tag {other}"))),
        }
    }

    fn trace_id(&mut self) -> Result<[u8; TRACE_ID_LEN], ServeError> {
        Ok(self.take(TRACE_ID_LEN)?.try_into().unwrap())
    }

    fn criterion(&mut self) -> Result<DetectionCriterion, ServeError> {
        Ok(DetectionCriterion {
            min_peak_ratio: self.f64()?,
            min_zscore: self.f64()?,
        })
    }

    fn bool(&mut self) -> Result<bool, ServeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(malformed(format!("flag byte must be 0/1, got {other}"))),
        }
    }

    fn sequential_options(&mut self) -> Result<SequentialOptions, ServeError> {
        let base_cycles = self.u64()?;
        let growth = self.f64()?;
        let confidence = if self.bool()? {
            Some(self.f64()?)
        } else {
            None
        };
        let min_cycles = self.u64()?;
        let max_cycles = if self.bool()? {
            Some(self.u64()?)
        } else {
            None
        };
        Ok(SequentialOptions {
            base_cycles,
            growth,
            confidence,
            min_cycles,
            max_cycles,
        })
    }

    fn detection_result(&mut self) -> Result<DetectionResult, ServeError> {
        Ok(DetectionResult {
            detected: self.bool()?,
            peak_rotation: self.u64()? as usize,
            peak_rho: self.f64()?,
            floor_max_abs: self.f64()?,
            ratio: self.f64()?,
            zscore: self.f64()?,
        })
    }

    fn verdict(&mut self) -> Result<Verdict, ServeError> {
        let result = self.detection_result()?;
        let cycles = self.u64()?;
        let early_stopped = self.bool()?;
        let count = self.u32()? as usize;
        let mut checkpoints = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            checkpoints.push(SequentialCheckpoint {
                cycles: self.u64()?,
                accepted: self.bool()?,
                peak_rho: self.f64()?,
                p_value: self.f64()?,
            });
        }
        let count = self.u32()? as usize;
        let mut scores = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            scores.push(CandidateScore {
                index: self.u64()? as usize,
                label: self.string()?,
                result: self.detection_result()?,
            });
        }
        Ok(Verdict {
            result,
            cycles,
            early_stopped,
            checkpoints,
            scores,
        })
    }

    fn mode(&mut self) -> Result<DetectMode, ServeError> {
        match self.u8()? {
            MODE_FIXED => Ok(DetectMode::Fixed),
            MODE_SEQUENTIAL => Ok(DetectMode::Sequential(self.sequential_options()?)),
            MODE_IDENTIFY => {
                let count = self.u32()? as usize;
                let mut candidates = Vec::with_capacity(count.min(1 << 16));
                for _ in 0..count {
                    candidates.push(CandidatePattern {
                        label: self.string()?,
                        pattern: self.pattern()?,
                    });
                }
                Ok(DetectMode::Identify(candidates))
            }
            other => Err(malformed(format!("unknown detect mode tag {other}"))),
        }
    }

    fn shard_spec(&mut self) -> Result<ShardSpec, ServeError> {
        Ok(ShardSpec {
            shard_id: self.u64()?,
            dir: self.string()?,
            campaign: self.string()?,
            threads: self.u32()?,
            max_jobs: self.u64()?,
            interrupt_after_cycles: self.u64()?,
        })
    }

    fn heartbeat(&mut self) -> Result<WorkerHeartbeat, ServeError> {
        Ok(WorkerHeartbeat {
            busy: self.u8()? != 0,
            shard_id: self.u64()?,
            jobs_done: self.u64()?,
            jobs_total: self.u64()?,
            cycles: self.u64()?,
            cycles_per_sec: self.f64()?,
            shards_done: self.u64()?,
        })
    }

    fn samples(&mut self) -> Result<Vec<f64>, ServeError> {
        let rest = self.buf.len() - self.pos;
        if !rest.is_multiple_of(8) {
            return Err(malformed(format!(
                "sample payload of {rest} bytes is not a multiple of 8"
            )));
        }
        let mut out = Vec::with_capacity(rest / 8);
        while self.pos < self.buf.len() {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    fn expect_end(&self) -> Result<(), ServeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(malformed(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )))
        }
    }
}

fn malformed(message: impl Into<String>) -> ServeError {
    ServeError::Protocol {
        message: message.into(),
    }
}

// ---------------------------------------------------------------------------
// Frame codecs
// ---------------------------------------------------------------------------

impl Request {
    /// Encodes the request as `(frame type, payload)`.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut out = Vec::new();
        let ty = match self {
            Request::Ping => FRAME_PING,
            Request::DetectStart {
                pattern,
                algo,
                criterion,
                mode,
            } => {
                put_pattern(&mut out, pattern);
                put_algo(&mut out, *algo);
                put_criterion(&mut out, criterion);
                put_mode(&mut out, mode);
                FRAME_DETECT_START
            }
            Request::DetectChunk { samples } => {
                out.reserve(samples.len() * 8);
                for &s in samples {
                    put_f64(&mut out, s);
                }
                FRAME_DETECT_CHUNK
            }
            Request::DetectFinish => FRAME_DETECT_FINISH,
            Request::DetectCorpus {
                corpus,
                trace,
                pattern,
                algo,
                criterion,
            } => {
                put_bytes(&mut out, corpus.as_bytes());
                put_bytes(&mut out, trace.as_bytes());
                put_pattern(&mut out, pattern);
                put_algo(&mut out, *algo);
                put_criterion(&mut out, criterion);
                FRAME_DETECT_CORPUS
            }
            Request::Status => FRAME_STATUS,
            Request::Shutdown => FRAME_SHUTDOWN,
            Request::TraceContext {
                trace_id,
                parent_span,
            } => {
                out.extend_from_slice(trace_id);
                put_u64(&mut out, *parent_span);
                FRAME_TRACE_CONTEXT
            }
            Request::Metrics => FRAME_METRICS,
            Request::ShardAssign(spec) => {
                put_shard_spec(&mut out, spec);
                FRAME_SHARD_ASSIGN
            }
            Request::Heartbeat => FRAME_HEARTBEAT,
        };
        (ty, out)
    }

    /// Decodes a request frame received by the server.
    pub fn decode(frame_type: u8, payload: &[u8]) -> Result<Self, ServeError> {
        let mut c = Cursor::new(payload);
        let req = match frame_type {
            FRAME_PING => Request::Ping,
            FRAME_DETECT_START => Request::DetectStart {
                pattern: c.pattern()?,
                algo: c.algo()?,
                criterion: c.criterion()?,
                mode: c.mode()?,
            },
            FRAME_DETECT_CHUNK => Request::DetectChunk {
                samples: c.samples()?,
            },
            FRAME_DETECT_FINISH => Request::DetectFinish,
            FRAME_DETECT_CORPUS => Request::DetectCorpus {
                corpus: c.string()?,
                trace: c.string()?,
                pattern: c.pattern()?,
                algo: c.algo()?,
                criterion: c.criterion()?,
            },
            FRAME_STATUS => Request::Status,
            FRAME_SHUTDOWN => Request::Shutdown,
            FRAME_TRACE_CONTEXT => Request::TraceContext {
                trace_id: c.trace_id()?,
                parent_span: c.u64()?,
            },
            FRAME_METRICS => Request::Metrics,
            FRAME_SHARD_ASSIGN => Request::ShardAssign(c.shard_spec()?),
            FRAME_HEARTBEAT => Request::Heartbeat,
            other => return Err(malformed(format!("unknown request frame 0x{other:02x}"))),
        };
        c.expect_end()?;
        Ok(req)
    }
}

impl Response {
    /// Encodes the response as `(frame type, payload)`.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut out = Vec::new();
        let ty = match self {
            Response::Pong => FRAME_PONG,
            Response::Verdict(v) => {
                put_verdict(&mut out, v);
                FRAME_VERDICT
            }
            Response::Status(s) => {
                put_u32(&mut out, s.active_sessions);
                put_u32(&mut out, s.max_sessions);
                put_u64(&mut out, s.served);
                put_u64(&mut out, s.rejected);
                out.push(s.draining as u8);
                put_u64(&mut out, s.uptime_secs);
                put_u64(&mut out, s.total_sessions);
                put_u64(&mut out, s.algo_naive);
                put_u64(&mut out, s.algo_folded);
                put_u64(&mut out, s.algo_fft);
                put_u32(&mut out, s.registered);
                put_u32(&mut out, s.readable);
                put_u32(&mut out, s.in_flight);
                FRAME_STATUS_REPORT
            }
            Response::ShardResult {
                shard_id,
                complete,
                outcomes,
            } => {
                put_u64(&mut out, *shard_id);
                out.push(*complete as u8);
                put_bytes(&mut out, outcomes.as_bytes());
                FRAME_SHARD_RESULT
            }
            Response::Heartbeat(h) => {
                put_heartbeat(&mut out, h);
                FRAME_HEARTBEAT_ACK
            }
            Response::ShutdownAck => FRAME_SHUTDOWN_ACK,
            Response::Metrics { text } => {
                put_bytes(&mut out, text.as_bytes());
                FRAME_METRICS_REPORT
            }
            Response::TraceEcho { trace_id, span_id } => {
                out.extend_from_slice(trace_id);
                put_u64(&mut out, *span_id);
                FRAME_TRACE_ECHO
            }
            Response::Error {
                code,
                retry_after_ms,
                message,
            } => {
                out.extend_from_slice(&code.to_wire().to_le_bytes());
                put_u32(&mut out, *retry_after_ms);
                put_bytes(&mut out, message.as_bytes());
                FRAME_ERROR
            }
        };
        (ty, out)
    }

    /// Decodes a response frame received by the client.
    pub fn decode(frame_type: u8, payload: &[u8]) -> Result<Self, ServeError> {
        let mut c = Cursor::new(payload);
        let resp = match frame_type {
            FRAME_PONG => Response::Pong,
            FRAME_VERDICT => Response::Verdict(c.verdict()?),
            FRAME_STATUS_REPORT => Response::Status(ServerStatus {
                active_sessions: c.u32()?,
                max_sessions: c.u32()?,
                served: c.u64()?,
                rejected: c.u64()?,
                draining: c.u8()? != 0,
                uptime_secs: c.u64()?,
                total_sessions: c.u64()?,
                algo_naive: c.u64()?,
                algo_folded: c.u64()?,
                algo_fft: c.u64()?,
                registered: c.u32()?,
                readable: c.u32()?,
                in_flight: c.u32()?,
            }),
            FRAME_SHARD_RESULT => Response::ShardResult {
                shard_id: c.u64()?,
                complete: c.u8()? != 0,
                outcomes: c.string()?,
            },
            FRAME_HEARTBEAT_ACK => Response::Heartbeat(c.heartbeat()?),
            FRAME_SHUTDOWN_ACK => Response::ShutdownAck,
            FRAME_METRICS_REPORT => Response::Metrics { text: c.string()? },
            FRAME_TRACE_ECHO => Response::TraceEcho {
                trace_id: c.trace_id()?,
                span_id: c.u64()?,
            },
            FRAME_ERROR => {
                let raw = c.u16()?;
                let code = ErrorCode::from_wire(raw)
                    .ok_or_else(|| malformed(format!("unknown error code {raw}")))?;
                Response::Error {
                    code,
                    retry_after_ms: c.u32()?,
                    message: c.string()?,
                }
            }
            other => return Err(malformed(format!("unknown response frame 0x{other:02x}"))),
        };
        c.expect_end()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------------
// Socket helpers
// ---------------------------------------------------------------------------

/// Writes the 8-byte connection greeting.
pub fn write_greeting(w: &mut impl std::io::Write) -> std::io::Result<()> {
    let mut greeting = [0u8; 8];
    greeting[..6].copy_from_slice(&MAGIC);
    greeting[6..].copy_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    w.write_all(&greeting)
}

/// Reads and validates the 8-byte connection greeting.
pub fn read_greeting(r: &mut impl std::io::Read) -> Result<(), ServeError> {
    let mut greeting = [0u8; 8];
    r.read_exact(&mut greeting)
        .map_err(|e| crate::error::io_err("reading greeting", e))?;
    if greeting[..6] != MAGIC {
        return Err(malformed("bad magic in greeting"));
    }
    let version = u16::from_le_bytes(greeting[6..].try_into().unwrap());
    if version != PROTOCOL_VERSION {
        return Err(malformed(format!(
            "peer speaks protocol version {version}, this build speaks {PROTOCOL_VERSION}"
        )));
    }
    Ok(())
}

/// Writes one `type + length + payload` frame.
pub fn write_frame(
    w: &mut impl std::io::Write,
    frame_type: u8,
    payload: &[u8],
) -> std::io::Result<()> {
    let mut header = [0u8; 5];
    header[0] = frame_type;
    header[1..].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame, enforcing `max_payload` before allocating.
pub fn read_frame(
    r: &mut impl std::io::Read,
    max_payload: usize,
) -> Result<(u8, Vec<u8>), ServeError> {
    let mut frame_type = [0u8; 1];
    r.read_exact(&mut frame_type)
        .map_err(|e| crate::error::io_err("reading frame type", e))?;
    let payload = read_frame_rest(r, max_payload)?;
    Ok((frame_type[0], payload))
}

/// Reads the length + payload of a frame whose type byte was already
/// consumed.
///
/// Split out so a server can *poll* for the single type byte under a
/// short timeout (a 1-byte read either completes or consumes nothing,
/// so a timeout never desyncs the stream) and then read the remainder
/// under the full read timeout.
pub fn read_frame_rest(
    r: &mut impl std::io::Read,
    max_payload: usize,
) -> Result<Vec<u8>, ServeError> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)
        .map_err(|e| crate::error::io_err("reading frame length", e))?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > max_payload {
        return Err(ServeError::FrameTooLarge {
            len: len as u64,
            max: max_payload as u64,
        });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)
        .map_err(|e| crate::error::io_err("reading frame payload", e))?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let (ty, payload) = req.encode();
        let decoded = Request::decode(ty, &payload).expect("decodes");
        assert_eq!(decoded, req);
    }

    fn round_trip_response(resp: Response) {
        let (ty, payload) = resp.encode();
        let decoded = Response::decode(ty, &payload).expect("decodes");
        assert_eq!(decoded, resp);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Ping);
        round_trip_request(Request::DetectStart {
            pattern: vec![true, false, true, true],
            algo: Some(CpaAlgo::Fft),
            criterion: DetectionCriterion::default(),
            mode: DetectMode::Fixed,
        });
        round_trip_request(Request::DetectStart {
            pattern: vec![true, false],
            algo: None,
            criterion: DetectionCriterion::lenient(),
            mode: DetectMode::Fixed,
        });
        round_trip_request(Request::DetectChunk {
            samples: vec![0.25, -1.5, f64::MIN_POSITIVE],
        });
        round_trip_request(Request::DetectFinish);
        round_trip_request(Request::DetectCorpus {
            corpus: "/tmp/corpus".into(),
            trace: "chip_i_s3".into(),
            pattern: vec![false, true, true],
            algo: Some(CpaAlgo::Naive),
            criterion: DetectionCriterion::default(),
        });
        round_trip_request(Request::Status);
        round_trip_request(Request::Shutdown);
        round_trip_request(Request::TraceContext {
            trace_id: *b"0123456789abcdef",
            parent_span: u64::MAX,
        });
        round_trip_request(Request::Metrics);
        round_trip_request(Request::Heartbeat);
        round_trip_request(Request::ShardAssign(ShardSpec {
            shard_id: 5,
            dir: "/fleet/shards/shard_5".into(),
            campaign: "{\"corpus\":\"/fleet/corpus\",\"traces\":[\"a\",\"b\"]}".into(),
            threads: 1,
            max_jobs: 0,
            interrupt_after_cycles: 10_000,
        }));
    }

    #[test]
    fn sequential_and_identify_frames_round_trip() {
        round_trip_request(Request::DetectStart {
            pattern: vec![true, false, true],
            algo: Some(CpaAlgo::Fft),
            criterion: DetectionCriterion::default(),
            mode: DetectMode::Sequential(
                SequentialOptions::default()
                    .with_confidence(1e-9)
                    .with_max_cycles(300_000),
            ),
        });
        round_trip_request(Request::DetectStart {
            pattern: vec![true, false],
            algo: None,
            criterion: DetectionCriterion::lenient(),
            mode: DetectMode::Sequential(SequentialOptions::every(512)),
        });
        round_trip_request(Request::DetectStart {
            pattern: vec![true, false, true, false],
            algo: Some(CpaAlgo::Folded),
            criterion: DetectionCriterion::default(),
            mode: DetectMode::Identify(vec![
                CandidatePattern::new("a", vec![true, false, true, false]),
                CandidatePattern::new("b", vec![false, true, true, false]),
            ]),
        });
        round_trip_response(Response::Verdict(Verdict {
            result: DetectionResult {
                detected: true,
                peak_rotation: 41,
                peak_rho: f64::from_bits(0x3FE5_5555_5555_5555),
                floor_max_abs: 0.03,
                ratio: 12.5,
                zscore: 8.0,
            },
            cycles: 16_384,
            early_stopped: true,
            checkpoints: vec![
                SequentialCheckpoint {
                    cycles: 4096,
                    accepted: false,
                    peak_rho: 0.01,
                    p_value: 0.7,
                },
                SequentialCheckpoint {
                    cycles: 16_384,
                    accepted: true,
                    peak_rho: 0.66,
                    p_value: 1e-12,
                },
            ],
            scores: Vec::new(),
        }));
        let best = DetectionResult {
            detected: true,
            peak_rotation: 13,
            peak_rho: -0.4,
            floor_max_abs: 0.02,
            ratio: 20.0,
            zscore: 11.0,
        };
        round_trip_response(Response::Verdict(Verdict {
            result: best,
            cycles: 40_000,
            early_stopped: false,
            checkpoints: Vec::new(),
            scores: vec![CandidateScore {
                index: 3,
                label: "lfsr7:shift=35".into(),
                result: best,
            }],
        }));
        // Truncated sequential options (missing the max_cycles flag).
        let (ty, full) = Request::DetectStart {
            pattern: vec![true, false],
            algo: None,
            criterion: DetectionCriterion::default(),
            mode: DetectMode::Sequential(SequentialOptions::default()),
        }
        .encode();
        assert!(Request::decode(ty, &full[..full.len() - 1]).is_err());
        // A flag byte outside {0, 1} is rejected, not treated as truthy.
        let mut bad = full.clone();
        *bad.last_mut().unwrap() = 2;
        assert!(Request::decode(ty, &bad).is_err());
        // So is a mode tag no version defines.
        let (ty, mut fixed) = Request::DetectStart {
            pattern: vec![true, false],
            algo: None,
            criterion: DetectionCriterion::default(),
            mode: DetectMode::Fixed,
        }
        .encode();
        *fixed.last_mut().unwrap() = 3;
        assert!(Request::decode(ty, &fixed).is_err());
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Pong);
        round_trip_response(Response::Verdict(Verdict {
            result: DetectionResult {
                detected: true,
                peak_rotation: 17,
                peak_rho: -0.42,
                floor_max_abs: 0.01,
                ratio: 42.0,
                zscore: 9.9,
            },
            cycles: 100_000,
            early_stopped: false,
            checkpoints: Vec::new(),
            scores: Vec::new(),
        }));
        round_trip_response(Response::Status(ServerStatus {
            active_sessions: 3,
            max_sessions: 8,
            served: 12,
            rejected: 2,
            draining: true,
            uptime_secs: 3601,
            total_sessions: 44,
            algo_naive: 1,
            algo_folded: 7,
            algo_fft: 4,
            registered: 5,
            readable: 1,
            in_flight: 2,
        }));
        round_trip_response(Response::ShutdownAck);
        round_trip_response(Response::ShardResult {
            shard_id: 3,
            complete: true,
            outcomes: "{\"index\":2,\"trace\":\"chip_i_s0002\"}\n".into(),
        });
        round_trip_response(Response::Heartbeat(WorkerHeartbeat {
            busy: true,
            shard_id: 9,
            jobs_done: 3,
            jobs_total: 12,
            cycles: 900_000,
            cycles_per_sec: 123_456.75,
            shards_done: 2,
        }));
        round_trip_response(Response::Heartbeat(WorkerHeartbeat::default()));
        round_trip_response(Response::Metrics {
            text: "# TYPE clockmark_serve_accept_total counter\n\
                   clockmark_serve_accept_total 42\n"
                .into(),
        });
        round_trip_response(Response::TraceEcho {
            trace_id: [0xAB; TRACE_ID_LEN],
            span_id: 7,
        });
        round_trip_response(Response::Error {
            code: ErrorCode::Busy,
            retry_after_ms: 100,
            message: "pool full".into(),
        });
    }

    #[test]
    fn detection_survives_the_wire_bit_for_bit() {
        // NaN-adjacent and subnormal values must round-trip exactly: the
        // wire carries IEEE-754 bit patterns, not decimal renderings.
        let original = Verdict {
            result: DetectionResult {
                detected: false,
                peak_rotation: usize::MAX >> 1,
                peak_rho: f64::from_bits(0x3FF0_0000_0000_0001),
                floor_max_abs: f64::MIN_POSITIVE / 2.0,
                ratio: 1.0 + f64::EPSILON,
                zscore: -0.0,
            },
            cycles: u64::MAX,
            early_stopped: false,
            checkpoints: Vec::new(),
            scores: Vec::new(),
        };
        let (ty, payload) = Response::Verdict(original.clone()).encode();
        match Response::decode(ty, &payload).expect("decodes") {
            Response::Verdict(d) => {
                assert_eq!(d.result.peak_rotation, original.result.peak_rotation);
                assert_eq!(
                    d.result.peak_rho.to_bits(),
                    original.result.peak_rho.to_bits()
                );
                assert_eq!(
                    d.result.floor_max_abs.to_bits(),
                    original.result.floor_max_abs.to_bits()
                );
                assert_eq!(d.result.ratio.to_bits(), original.result.ratio.to_bits());
                assert_eq!(d.result.zscore.to_bits(), original.result.zscore.to_bits());
                assert_eq!(d.cycles, original.cycles);
            }
            other => panic!("expected Verdict, got {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Request::decode(0x60, &[]).is_err());
        assert!(Response::decode(0x60, &[]).is_err());
        // Pattern byte outside {0, 1}.
        let mut payload = Vec::new();
        put_u32(&mut payload, 1);
        payload.push(7);
        assert!(Request::decode(FRAME_DETECT_START, &payload).is_err());
        // Truncated DetectStart.
        let (ty, full) = Request::DetectStart {
            pattern: vec![true, false, true],
            algo: None,
            criterion: DetectionCriterion::default(),
            mode: DetectMode::Fixed,
        }
        .encode();
        assert!(Request::decode(ty, &full[..full.len() - 1]).is_err());
        // Trailing bytes after a complete payload.
        let mut padded = full.clone();
        padded.push(0);
        assert!(Request::decode(ty, &padded).is_err());
        // Odd-length sample payload.
        assert!(Request::decode(FRAME_DETECT_CHUNK, &[0u8; 9]).is_err());
        // Truncated trace context (15 of 24 bytes).
        assert!(Request::decode(FRAME_TRACE_CONTEXT, &[0u8; 15]).is_err());
        // Trace echo with trailing bytes.
        assert!(Response::decode(FRAME_TRACE_ECHO, &[0u8; 25]).is_err());
        // A shard spec may not run past the payload.
        let (ty, payload) = Request::ShardAssign(ShardSpec {
            shard_id: 0,
            dir: "d".into(),
            campaign: "{}".into(),
            threads: 1,
            max_jobs: 0,
            interrupt_after_cycles: 0,
        })
        .encode();
        assert!(Request::decode(ty, &payload).is_ok());
        assert!(Request::decode(ty, &payload[..payload.len() - 1]).is_err());
        // Truncated heartbeat ack.
        assert!(Response::decode(FRAME_HEARTBEAT_ACK, &[0u8; 10]).is_err());
    }

    #[test]
    fn minted_ids_are_unique_and_hex_renders() {
        let a = mint_span_id();
        let b = mint_span_id();
        assert_ne!(a, b);
        assert_ne!(a, 0);
        assert_ne!(mint_trace_id(), mint_trace_id());
        let hex = trace_id_hex(&[0x01, 0xAB, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF]);
        assert_eq!(hex.len(), 32);
        assert!(hex.starts_with("01ab"));
        assert!(hex.ends_with("ff"));
    }

    #[test]
    fn frame_io_round_trips_and_enforces_limit() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FRAME_PING, b"xyz").unwrap();
        let (ty, payload) = read_frame(&mut buf.as_slice(), 16).unwrap();
        assert_eq!(ty, FRAME_PING);
        assert_eq!(payload, b"xyz");

        let err = read_frame(&mut buf.as_slice(), 2).unwrap_err();
        assert!(matches!(err, ServeError::FrameTooLarge { len: 3, max: 2 }));
    }

    #[test]
    fn greeting_round_trips_and_rejects_mismatch() {
        let mut buf = Vec::new();
        write_greeting(&mut buf).unwrap();
        read_greeting(&mut buf.as_slice()).expect("valid greeting");

        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(read_greeting(&mut bad.as_slice()).is_err());

        let mut wrong_version = buf.clone();
        wrong_version[6] = 99;
        assert!(read_greeting(&mut wrong_version.as_slice()).is_err());

        // A v5 peer speaks the retired exchange frames: refused cleanly.
        let mut v5 = buf.clone();
        v5[6..].copy_from_slice(&5u16.to_le_bytes());
        let err = read_greeting(&mut v5.as_slice()).unwrap_err();
        assert!(err.to_string().contains("version 5"), "{err}");
    }
}
