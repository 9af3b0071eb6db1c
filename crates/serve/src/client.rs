//! Blocking client for the detection service.
//!
//! One [`Client`] owns one connection and may issue any number of
//! sequential requests. A `Busy` rejection during [`Client::connect`]'s
//! first exchange surfaces as [`ServeError::Busy`] with the server's
//! retry hint, so callers can implement their own backoff.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use clockmark_cpa::{
    CandidatePattern, DetectMode, DetectOptions, DetectionCriterion, Identification,
    SequentialOptions, SequentialResult, TraceDetection, Verdict,
};

use crate::error::{io_err, ServeError};
use crate::protocol::{
    mint_span_id, mint_trace_id, read_frame, read_greeting, trace_id_hex, write_frame,
    write_greeting, ErrorCode, Request, Response, ServerStatus, ShardSpec, WorkerHeartbeat,
    TRACE_ID_LEN,
};

/// Samples per `DetectChunk` frame: 64 KiB of payload, comfortably
/// under any sane `max_frame_bytes`.
pub const CLIENT_CHUNK: usize = 8192;

/// Capped exponential backoff with deterministic jitter for `Busy`
/// rejections.
///
/// The delay for attempt *n* starts from
/// `max(server_hint, base << n)`, is jittered *upward* by up to 50% of
/// itself (so concurrent clients rejected together do not retry in
/// lockstep), and is clamped to `cap`. The jitter stream is a seeded
/// xorshift, so a given seed always produces the same delay sequence —
/// tests and benches stay reproducible while distinct seeds still
/// de-synchronise.
///
/// ```
/// use clockmark_serve::Backoff;
/// let mut backoff = Backoff::new(7);
/// // The server's hint is a hard lower bound on every delay.
/// assert!(backoff.next_delay(25) >= std::time::Duration::from_millis(25));
/// assert!(backoff.next_delay(25) >= std::time::Duration::from_millis(25));
/// assert_eq!(backoff.attempts(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    rng: u64,
}

impl Backoff {
    /// Default bounds: 10 ms base doubling toward a 2 s cap.
    pub fn new(seed: u64) -> Self {
        Backoff::with_bounds(seed, Duration::from_millis(10), Duration::from_secs(2))
    }

    /// Explicit base/cap bounds (`base` is also the smallest delay a
    /// zero server hint can produce).
    pub fn with_bounds(seed: u64, base: Duration, cap: Duration) -> Self {
        // One splitmix64 round so adjacent seeds (worker 0, 1, 2...)
        // land in unrelated jitter streams; `| 1` keeps the xorshift
        // state from starting at zero.
        let mut s = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        s = (s ^ (s >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        s = (s ^ (s >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        s ^= s >> 31;
        Backoff {
            base: base.max(Duration::from_millis(1)),
            cap: cap.max(base),
            rng: s | 1,
            attempt: 0,
        }
    }

    /// How many delays have been handed out since the last reset.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Starts the exponential schedule over (after a success); the
    /// jitter stream keeps advancing so retry storms stay spread out.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    /// The next delay, honouring the server's `retry_after_ms` hint as
    /// a lower bound.
    pub fn next_delay(&mut self, retry_after_ms: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << self.attempt.min(16))
            .min(self.cap);
        self.attempt = self.attempt.saturating_add(1);
        let floor = exp.max(Duration::from_millis(u64::from(retry_after_ms)));
        // xorshift64* — tiny, seedable, and plenty for de-correlation.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let unit =
            (self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
        let jittered = floor.mul_f64(1.0 + 0.5 * unit);
        jittered.clamp(floor, self.cap.max(floor))
    }

    /// Sleeps for [`Backoff::next_delay`].
    pub fn sleep(&mut self, retry_after_ms: u32) {
        std::thread::sleep(self.next_delay(retry_after_ms));
    }
}

/// Client-side trace state while wire tracing is enabled.
#[derive(Debug)]
struct TraceState {
    trace_id: [u8; TRACE_ID_LEN],
    /// Server span id from the most recent `TraceEcho` frame.
    last_server_span: u64,
}

/// A connected detection-service client.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    max_frame_bytes: usize,
    trace: Option<TraceState>,
    bytes_sent: u64,
    bytes_received: u64,
}

impl Client {
    /// Connects and performs the protocol handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServeError> {
        let stream = TcpStream::connect(addr).map_err(|e| io_err("connecting", e))?;
        Client::handshake(stream)
    }

    /// [`Client::connect`] with a socket-level read timeout, so a hung
    /// server cannot block the caller forever.
    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        timeout: Duration,
    ) -> Result<Self, ServeError> {
        let stream = TcpStream::connect(addr).map_err(|e| io_err("connecting", e))?;
        stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| io_err("setting read timeout", e))?;
        Client::handshake(stream)
    }

    /// Connects, retrying `Busy` rejections under `backoff` for up to
    /// `max_attempts` connection attempts.
    ///
    /// A `Busy` rejection only surfaces on the first exchange (the
    /// server answers the greeting, sends the error frame and closes),
    /// so each attempt probes the fresh connection with a `Ping` and
    /// returns it once the probe round-trips. Non-`Busy` errors abort
    /// immediately. The handshake and probe run under a 5 s read
    /// timeout so a mute peer cannot hang the caller; the timeout is
    /// lifted from the returned client, whose exchanges may run
    /// arbitrarily long (fleet shard assignments block for the whole
    /// shard).
    pub fn connect_with_backoff(
        addr: impl ToSocketAddrs + Clone,
        backoff: &mut Backoff,
        max_attempts: u32,
    ) -> Result<Self, ServeError> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match Client::connect_with_timeout(addr.clone(), Duration::from_secs(5)).and_then(
                |mut client| {
                    client.ping()?;
                    client.set_read_timeout(None)?;
                    Ok(client)
                },
            ) {
                Ok(client) => return Ok(client),
                Err(ServeError::Busy { retry_after_ms }) if attempt < max_attempts => {
                    backoff.sleep(retry_after_ms);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Adjusts the socket read timeout of an established connection
    /// (`None` blocks indefinitely).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] when the socket option cannot be set.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), ServeError> {
        self.stream
            .set_read_timeout(timeout)
            .map_err(|e| io_err("setting read timeout", e))
    }

    fn handshake(mut stream: TcpStream) -> Result<Self, ServeError> {
        stream
            .set_nodelay(true)
            .map_err(|e| io_err("setting TCP_NODELAY", e))?;
        write_greeting(&mut stream).map_err(|e| io_err("writing greeting", e))?;
        read_greeting(&mut stream)?;
        Ok(Client {
            stream,
            max_frame_bytes: 1 << 20,
            trace: None,
            bytes_sent: 0,
            bytes_received: 0,
        })
    }

    /// Turns on wire trace propagation for this connection: every
    /// subsequent request is preceded by a `TraceContext` frame and the
    /// server answers each response with a `TraceEcho` carrying its
    /// span id. Returns the minted 16-byte trace id.
    ///
    /// Tracing never changes verdicts — only extra framing and span
    /// events are added.
    pub fn enable_tracing(&mut self) -> [u8; TRACE_ID_LEN] {
        let trace_id = mint_trace_id();
        self.trace = Some(TraceState {
            trace_id,
            last_server_span: 0,
        });
        trace_id
    }

    /// The active trace id as 32 lowercase hex chars, if tracing is on.
    pub fn trace_id_hex(&self) -> Option<String> {
        self.trace.as_ref().map(|t| trace_id_hex(&t.trace_id))
    }

    /// The server span id echoed for the most recent traced response
    /// (zero before any traced response arrives).
    pub fn last_server_span(&self) -> u64 {
        self.trace.as_ref().map_or(0, |t| t.last_server_span)
    }

    /// Total frame bytes written to the wire by this client.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Total frame bytes read from the wire by this client.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received
    }

    /// When tracing is enabled: mint a client-side span id for the next
    /// request and push it to the server as the parent of its spans.
    fn begin_traced_request(&mut self) -> Result<Option<u64>, ServeError> {
        let Some(trace) = self.trace.as_ref() else {
            return Ok(None);
        };
        let span_id = mint_span_id();
        let frame = Request::TraceContext {
            trace_id: trace.trace_id,
            parent_span: span_id,
        };
        self.send(&frame)?;
        Ok(Some(span_id))
    }

    /// Round-trips a liveness probe.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        self.begin_traced_request()?;
        self.send(&Request::Ping)?;
        match self.receive()? {
            Response::Pong => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the server's load counters.
    pub fn status(&mut self) -> Result<ServerStatus, ServeError> {
        self.begin_traced_request()?;
        self.send(&Request::Status)?;
        match self.receive()? {
            Response::Status(status) => Ok(status),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches a Prometheus text-format snapshot of the server's live
    /// metrics (always available; serve-level series are injected even
    /// when the server has no recorder installed).
    pub fn metrics(&mut self) -> Result<String, ServeError> {
        self.begin_traced_request()?;
        self.send(&Request::Metrics)?;
        match self.receive()? {
            Response::Metrics { text } => Ok(text),
            other => Err(unexpected(&other)),
        }
    }

    /// Streams `samples` through one detect exchange in `mode` and
    /// returns the server's [`Verdict`] — bit-identical to an in-process
    /// [`Detector::session`](clockmark_cpa::Detector::session) in the
    /// same mode with the same options, fed the same samples.
    ///
    /// `options.threads` is not carried over the wire: thread policy is
    /// the server's to decide, and every kernel/thread combination
    /// produces bit-identical spectra, so the verdict is unaffected. The
    /// client streams the whole trace even in sequential mode (the
    /// protocol keeps `DetectChunk` unacknowledged so the socket stays
    /// saturated); the saving is the server's fold/spectrum CPU, not
    /// wire bandwidth.
    pub fn exchange(
        &mut self,
        pattern: &[bool],
        options: DetectOptions,
        mode: DetectMode,
        samples: &[f64],
    ) -> Result<Verdict, ServeError> {
        let sent_before = self.bytes_sent;
        let client_span = self.begin_traced_request()?;
        let identify = matches!(mode, DetectMode::Identify(_));
        let mut span = clockmark_obs::span(if identify {
            "client.identify"
        } else {
            "client.detect"
        })
        .field("mode", mode.name())
        .field("cycles", samples.len() as u64)
        .field("period", pattern.len() as u64);
        if let (Some(span_id), Some(trace)) = (client_span, self.trace.as_ref()) {
            span = span
                .field("trace_id", trace_id_hex(&trace.trace_id))
                .field("span_id", span_id);
        }
        if let Some(algo) = options.algo {
            span = span.field("algo", algo.as_str());
        }
        self.send(&Request::DetectStart {
            pattern: pattern.to_vec(),
            algo: options.algo,
            criterion: options.criterion,
            mode,
        })?;
        for chunk in samples.chunks(CLIENT_CHUNK) {
            self.send(&Request::DetectChunk {
                samples: chunk.to_vec(),
            })?;
        }
        self.send(&Request::DetectFinish)?;
        let outcome = self.receive_verdict();
        span = span.field("wire_bytes", self.bytes_sent - sent_before);
        if let Some(trace) = self.trace.as_ref() {
            span = span.field("server_span", trace.last_server_span);
        }
        if let Ok(verdict) = &outcome {
            span = span
                .field("cycles_consumed", verdict.cycles)
                .field("early_stopped", verdict.early_stopped)
                .field("peak_rho", verdict.result.peak_rho)
                .field("detected", verdict.result.detected);
        }
        drop(span);
        outcome
    }

    /// [`exchange`](Self::exchange) in [`DetectMode::Fixed`].
    pub fn detect(
        &mut self,
        pattern: &[bool],
        options: DetectOptions,
        samples: &[f64],
    ) -> Result<TraceDetection, ServeError> {
        self.exchange(pattern, options, DetectMode::Fixed, samples)
            .map(TraceDetection::from)
    }

    /// [`exchange`](Self::exchange) in [`DetectMode::Sequential`]: the
    /// verdict is bit-identical to an in-process
    /// [`Detector::detect_sequential`](clockmark_cpa::Detector::detect_sequential)
    /// with the same options on the same samples.
    pub fn detect_sequential(
        &mut self,
        pattern: &[bool],
        options: DetectOptions,
        seq: SequentialOptions,
        samples: &[f64],
    ) -> Result<SequentialResult, ServeError> {
        self.exchange(pattern, options, DetectMode::Sequential(seq), samples)
            .map(SequentialResult::from)
    }

    /// [`exchange`](Self::exchange) in [`DetectMode::Identify`]: the
    /// ledger is bit-identical to an in-process
    /// [`Detector::identify`](clockmark_cpa::Detector::identify) on the
    /// same samples.
    pub fn identify(
        &mut self,
        pattern: &[bool],
        options: DetectOptions,
        candidates: &[CandidatePattern],
        samples: &[f64],
    ) -> Result<Identification, ServeError> {
        let mode = DetectMode::Identify(candidates.to_vec());
        self.exchange(pattern, options, mode, samples)
            .map(Identification::from)
    }

    /// Asks the server to detect `pattern` in a trace stored in a
    /// server-local corpus.
    pub fn detect_corpus(
        &mut self,
        corpus: &str,
        trace: &str,
        pattern: &[bool],
        options: DetectOptions,
    ) -> Result<TraceDetection, ServeError> {
        let client_span = self.begin_traced_request()?;
        let mut span = clockmark_obs::span("client.detect")
            .field("corpus_trace", trace)
            .field("period", pattern.len() as u64);
        if let (Some(span_id), Some(state)) = (client_span, self.trace.as_ref()) {
            span = span
                .field("trace_id", trace_id_hex(&state.trace_id))
                .field("span_id", span_id);
        }
        self.send(&Request::DetectCorpus {
            corpus: corpus.to_string(),
            trace: trace.to_string(),
            pattern: pattern.to_vec(),
            algo: options.algo,
            criterion: options.criterion,
        })?;
        let outcome = self.receive_verdict().map(TraceDetection::from);
        if let Some(state) = self.trace.as_ref() {
            span = span.field("server_span", state.last_server_span);
        }
        if let Ok(detection) = &outcome {
            span = span
                .field("peak_rho", detection.result.peak_rho)
                .field("detected", detection.result.detected);
        }
        drop(span);
        outcome
    }

    /// Convenience wrapper: [`Client::detect`] with default options and
    /// an explicit criterion.
    pub fn detect_with_criterion(
        &mut self,
        pattern: &[bool],
        criterion: DetectionCriterion,
        samples: &[f64],
    ) -> Result<TraceDetection, ServeError> {
        self.detect(
            pattern,
            DetectOptions::default().with_criterion(criterion),
            samples,
        )
    }

    /// Hands a fleet worker one shard to run and blocks until the
    /// worker answers with its outcome. Only meaningful against a
    /// server started with a fleet service installed; anything else
    /// answers with an `Internal` error.
    pub fn shard_assign(&mut self, spec: ShardSpec) -> Result<(u64, bool, String), ServeError> {
        self.begin_traced_request()?;
        self.send(&Request::ShardAssign(spec))?;
        match self.receive()? {
            Response::ShardResult {
                shard_id,
                complete,
                outcomes,
            } => Ok((shard_id, complete, outcomes)),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches a fleet worker's progress heartbeat (an idle default
    /// when the server has no fleet service installed).
    pub fn heartbeat(&mut self) -> Result<WorkerHeartbeat, ServeError> {
        self.begin_traced_request()?;
        self.send(&Request::Heartbeat)?;
        match self.receive()? {
            Response::Heartbeat(beat) => Ok(beat),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the server to drain and exit; returns once acknowledged.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        self.begin_traced_request()?;
        self.send(&Request::Shutdown)?;
        match self.receive()? {
            Response::ShutdownAck => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    fn send(&mut self, request: &Request) -> Result<(), ServeError> {
        let (ty, payload) = request.encode();
        self.bytes_sent += 5 + payload.len() as u64; // type + u32 length + payload
        write_frame(&mut self.stream, ty, &payload).map_err(|e| io_err("writing request", e))
    }

    /// Reads the answer of a detect exchange or corpus detect.
    fn receive_verdict(&mut self) -> Result<Verdict, ServeError> {
        match self.receive()? {
            Response::Verdict(verdict) => Ok(verdict),
            other => Err(unexpected(&other)),
        }
    }

    /// Reads the next response, translating error frames into
    /// [`ServeError::Busy`] / [`ServeError::Remote`] and absorbing
    /// `TraceEcho` frames into the trace state.
    fn receive(&mut self) -> Result<Response, ServeError> {
        loop {
            let (ty, payload) = read_frame(&mut self.stream, self.max_frame_bytes)?;
            self.bytes_received += 5 + payload.len() as u64;
            match Response::decode(ty, &payload)? {
                Response::TraceEcho { trace_id, span_id } => {
                    // Record the server span for the request in flight;
                    // the substantive response follows on the wire.
                    if let Some(trace) = self.trace.as_mut() {
                        if trace.trace_id == trace_id {
                            trace.last_server_span = span_id;
                        }
                    }
                }
                Response::Error {
                    code: ErrorCode::Busy,
                    retry_after_ms,
                    ..
                } => return Err(ServeError::Busy { retry_after_ms }),
                Response::Error {
                    code,
                    retry_after_ms,
                    message,
                } => {
                    return Err(ServeError::Remote {
                        code,
                        retry_after_ms,
                        message,
                    })
                }
                other => return Ok(other),
            }
        }
    }
}

fn unexpected(response: &Response) -> ServeError {
    ServeError::Protocol {
        message: format!("unexpected response frame: {response:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_for_a_seed() {
        let mut a = Backoff::new(42);
        let mut b = Backoff::new(42);
        for _ in 0..8 {
            assert_eq!(a.next_delay(25), b.next_delay(25));
        }
        // A different seed must de-synchronise the jitter stream.
        let mut a2 = Backoff::new(42);
        let mut c = Backoff::new(43);
        let delays_a: Vec<_> = (0..8).map(|_| a2.next_delay(0)).collect();
        let delays_c: Vec<_> = (0..8).map(|_| c.next_delay(0)).collect();
        assert_ne!(delays_a, delays_c);
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let mut backoff =
            Backoff::with_bounds(1, Duration::from_millis(10), Duration::from_millis(400));
        let mut previous = Duration::ZERO;
        for attempt in 0..12 {
            let delay = backoff.next_delay(0);
            // The un-jittered floor doubles (10, 20, 40, ...) until the
            // cap; jitter only ever pushes a delay up, never below the
            // floor, and never past the cap.
            let floor = Duration::from_millis(10 << attempt.min(6)).min(Duration::from_millis(400));
            assert!(delay >= floor, "attempt {attempt}: {delay:?} < {floor:?}");
            assert!(delay <= Duration::from_millis(400));
            assert!(delay >= previous.min(Duration::from_millis(400)) || attempt == 0);
            previous = delay;
        }
        assert_eq!(backoff.attempts(), 12);
        backoff.reset();
        assert_eq!(backoff.attempts(), 0);
        assert!(backoff.next_delay(0) < Duration::from_millis(20));
    }

    #[test]
    fn backoff_honours_the_server_hint() {
        let mut backoff = Backoff::new(9);
        // First exponential floor is 10ms; a 250ms hint must win.
        let delay = backoff.next_delay(250);
        assert!(delay >= Duration::from_millis(250));
        // And a hint above the cap still holds as the lower bound.
        let mut tight =
            Backoff::with_bounds(9, Duration::from_millis(1), Duration::from_millis(50));
        assert!(tight.next_delay(80) >= Duration::from_millis(80));
    }
}
