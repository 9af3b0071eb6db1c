//! The concurrent detection server.
//!
//! One readiness engine sits behind [`Server::bind`]: one event-loop
//! thread `poll(2)`s every connected session plus the listener, and a
//! small fixed worker pool services only the sessions that actually
//! have bytes waiting. Thousands of mostly-idle sessions cost one
//! descriptor each and zero threads, so `max_sessions` can be raised
//! into the thousands without spawning a thread per connection.
//!
//! The engine enforces one admission rule: at most
//! `max_sessions` connections are served concurrently and the rest are
//! *rejected immediately* with a `Busy` error frame carrying a retry
//! hint — the server never queues work it cannot start, so client
//! latency is either "being served" or "told to back off", never
//! "silently parked".
//!
//! Shutdown is a drain: the listener closes, idle sessions are dropped,
//! sessions mid-exchange run to completion, and observability metrics
//! are flushed before [`ServerHandle::shutdown`] returns.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use clockmark_cpa::{CpaAlgo, CpaError, DetectMode, DetectOptions, DetectionCriterion, Detector};

use crate::error::{io_err, ServeError};
use crate::protocol::{
    mint_span_id, read_greeting, trace_id_hex, write_frame, write_greeting, ErrorCode, Request,
    Response, ServerStatus, ShardSpec, WorkerHeartbeat, TRACE_ID_LEN,
};

/// Poll interval of the event loop. Short enough that drain latency is imperceptible,
/// long enough to keep an idle server off the scheduler.
const POLL_INTERVAL: Duration = Duration::from_millis(5);

/// How long a pool worker waits for the *next* frame's type byte before
/// handing a session back to the poll set. Readiness already proved
/// bytes were waiting when the session was dispatched, so this timeout
/// only fires once a burst of pipelined frames has been drained.
const BURST_POLL: Duration = Duration::from_millis(2);

/// Greeting budget on the rejection path: a client that never sends its
/// greeting must not pin a worker for the full read timeout.
const REJECT_BUDGET: Duration = Duration::from_millis(250);

/// How long the readiness engine parks an over-capacity connection
/// before rejecting it with `Busy`. Slot release is asynchronous here —
/// a disconnect frees its slot only after a pool worker reads the EOF —
/// so a connect racing a disconnect (ubiquitous in retry loops) would
/// otherwise be rejected against a stale "pool full" count.
const ADMIT_GRACE: Duration = Duration::from_millis(50);

/// Resource limits a server enforces per connection and overall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeLimits {
    /// Concurrent session cap; further connections get `Busy`.
    pub max_sessions: usize,
    /// Largest frame payload either side may send, in bytes.
    pub max_frame_bytes: usize,
    /// Most trace cycles a single detect exchange may stream.
    pub max_cycles: u64,
    /// How long a blocked payload read may take before the session dies.
    pub read_timeout: Duration,
    /// How long a session may sit between frames before it is closed.
    pub idle_timeout: Duration,
    /// Backoff hint attached to `Busy` rejections.
    pub retry_after_ms: u32,
    /// Requests taking longer than this are logged at `warn` level with
    /// their trace id (the slow-request log). `Duration::MAX` disables.
    pub slow_request: Duration,
    /// Size of the readiness engine's worker pool — how many sessions
    /// can be *actively serviced* at once. Idle sessions cost no
    /// worker, so this stays small even with thousands registered.
    pub workers: usize,
}

impl Default for ServeLimits {
    fn default() -> Self {
        ServeLimits {
            max_sessions: 8,
            max_frame_bytes: 1 << 20,
            max_cycles: 50_000_000,
            read_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(30),
            retry_after_ms: 100,
            slow_request: Duration::from_secs(1),
            workers: 4,
        }
    }
}

/// The worker-side fleet hook: what a `clockmark-serve` node does when
/// a fleet coordinator hands it work over the wire.
///
/// `crates/fleet` implements this against the campaign machinery;
/// `crates/serve` stays ignorant of campaigns and merely routes the
/// `ShardAssign`/`Heartbeat` frames here. A server without a handler
/// installed (see [`Server::with_fleet`]) answers `ShardAssign` with an
/// `Internal` error and `Heartbeat` with an idle report.
pub trait FleetService: Send + Sync {
    /// Runs one shard to completion (or checkpointed interruption) and
    /// returns its outcome. This call may run for minutes; it occupies
    /// one pool worker for the duration.
    fn assign(&self, spec: &ShardSpec) -> Result<ShardOutcome, (ErrorCode, String)>;

    /// A cheap, current progress report for the heartbeat connection.
    fn heartbeat(&self) -> WorkerHeartbeat;
}

/// What a fleet worker hands back for a completed (or interrupted)
/// shard; travels as the `ShardResult` frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardOutcome {
    /// The shard this outcome answers.
    pub shard_id: u64,
    /// Whether every job in the shard has a result. `false` means the
    /// shard was interrupted after a checkpoint and should be
    /// reassigned (possibly to this same worker) to resume.
    pub complete: bool,
    /// The shard's `results.jsonl` contents, one encoded `JobOutcome`
    /// per line, already remapped to campaign-global job indices.
    pub outcomes: String,
}

/// Counters and flags shared between the engine, sessions, and the
/// owning handle.
struct Shared {
    limits: ServeLimits,
    start: Instant,
    draining: AtomicBool,
    active: AtomicUsize,
    total: AtomicU64,
    served: AtomicU64,
    rejected: AtomicU64,
    algo_naive: AtomicU64,
    algo_folded: AtomicU64,
    algo_fft: AtomicU64,
    /// Sessions registered with the readiness poll set.
    registered: AtomicUsize,
    /// Sessions queued for a pool worker.
    readable: AtomicUsize,
    /// Requests currently inside the handler.
    in_flight: AtomicUsize,
    fleet: Option<Arc<dyn FleetService>>,
}

impl Shared {
    fn status(&self) -> ServerStatus {
        ServerStatus {
            active_sessions: self.active.load(Ordering::SeqCst) as u32,
            max_sessions: self.limits.max_sessions as u32,
            served: self.served.load(Ordering::SeqCst),
            rejected: self.rejected.load(Ordering::SeqCst),
            draining: self.draining.load(Ordering::SeqCst),
            uptime_secs: self.start.elapsed().as_secs(),
            total_sessions: self.total.load(Ordering::SeqCst),
            algo_naive: self.algo_naive.load(Ordering::SeqCst),
            algo_folded: self.algo_folded.load(Ordering::SeqCst),
            algo_fft: self.algo_fft.load(Ordering::SeqCst),
            registered: self.registered.load(Ordering::SeqCst) as u32,
            readable: self.readable.load(Ordering::SeqCst) as u32,
            in_flight: self.in_flight.load(Ordering::SeqCst) as u32,
        }
    }

    /// Counts one served verdict against the kernel that produced it.
    fn note_served(&self, algo: CpaAlgo) {
        self.served.fetch_add(1, Ordering::SeqCst);
        let slot = match algo {
            CpaAlgo::Naive => &self.algo_naive,
            CpaAlgo::Folded => &self.algo_folded,
            CpaAlgo::Fft => &self.algo_fft,
            // `CpaAlgo` is non-exhaustive; count unknown kernels as the
            // dispatch default so the mix still sums to `served`.
            _ => &self.algo_folded,
        };
        slot.fetch_add(1, Ordering::SeqCst);
        clockmark_obs::counter_add("serve.served", 1);
    }
}

/// Builds the Prometheus exposition the `Metrics` RPC returns: the
/// global recorder's snapshot (empty when observability is disabled)
/// with the server's own load series injected, so the RPC is useful
/// even in a process with no recorder installed.
fn metrics_text(shared: &Shared) -> String {
    let mut snapshot = clockmark_obs::recorder()
        .map(|r| r.snapshot())
        .unwrap_or_default();
    let status = shared.status();
    snapshot.gauges.extend([
        ("serve.uptime_seconds".to_owned(), status.uptime_secs as f64),
        (
            "serve.active_sessions".to_owned(),
            f64::from(status.active_sessions),
        ),
        (
            "serve.max_sessions".to_owned(),
            f64::from(status.max_sessions),
        ),
        (
            "serve.draining".to_owned(),
            f64::from(u8::from(status.draining)),
        ),
        (
            "serve.sessions_registered".to_owned(),
            f64::from(status.registered),
        ),
        (
            "serve.sessions_readable".to_owned(),
            f64::from(status.readable),
        ),
        (
            "serve.requests_in_flight".to_owned(),
            f64::from(status.in_flight),
        ),
    ]);
    snapshot.counters.extend([
        ("serve.served_verdicts".to_owned(), status.served),
        ("serve.rejected_connections".to_owned(), status.rejected),
        ("serve.sessions".to_owned(), status.total_sessions),
        ("serve.verdicts_naive".to_owned(), status.algo_naive),
        ("serve.verdicts_folded".to_owned(), status.algo_folded),
        ("serve.verdicts_fft".to_owned(), status.algo_fft),
    ]);
    clockmark_obs::prometheus_text(&snapshot)
}

/// A running detection server.
///
/// Returned by [`Server::bind`]; dropping the handle drains the server.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    engine_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("status", &self.shared.status())
            .finish()
    }
}

impl ServerHandle {
    /// The address the server actually bound (resolves `:0` requests).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current load counters, as a `Status` request would report them.
    pub fn status(&self) -> ServerStatus {
        self.shared.status()
    }

    /// Whether a drain has been requested (by [`Self::shutdown`] or a
    /// wire `Shutdown` request).
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Drains and stops the server: no new connections are admitted,
    /// in-flight sessions finish, metrics are flushed. Returns the
    /// final counters.
    pub fn shutdown(mut self) -> ServerStatus {
        self.begin_drain();
        if let Some(handle) = self.engine_thread.take() {
            let _ = handle.join();
        }
        self.shared.status()
    }

    /// Blocks until the engine exits on its own — used when a wire
    /// `Shutdown` request, not the owning process, ends the server.
    pub fn wait(mut self) -> ServerStatus {
        if let Some(handle) = self.engine_thread.take() {
            let _ = handle.join();
        }
        self.shared.status()
    }

    fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.begin_drain();
        if let Some(handle) = self.engine_thread.take() {
            let _ = handle.join();
        }
    }
}

/// Factory for [`ServerHandle`]s.
#[derive(Clone, Default)]
pub struct Server {
    limits: ServeLimits,
    fleet: Option<Arc<dyn FleetService>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("limits", &self.limits)
            .field("fleet", &self.fleet.is_some())
            .finish()
    }
}

impl Server {
    /// A server with [`ServeLimits::default`].
    pub fn new() -> Self {
        Server::default()
    }

    /// Overrides the resource limits.
    #[must_use]
    pub fn with_limits(mut self, limits: ServeLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Installs the fleet-worker hook: with this set, the server
    /// answers `ShardAssign` by running the shard through `fleet` and
    /// `Heartbeat` with its live progress report.
    #[must_use]
    pub fn with_fleet(mut self, fleet: Arc<dyn FleetService>) -> Self {
        self.fleet = Some(fleet);
        self
    }

    /// Binds the listener and spawns the serving engine.
    ///
    /// Bind to port 0 to let the OS pick a free port; the chosen
    /// address is available via [`ServerHandle::local_addr`]. On unix
    /// the poll-based readiness engine serves the socket; elsewhere the
    /// thread-per-connection engine does.
    pub fn bind(self, addr: impl ToSocketAddrs) -> Result<ServerHandle, ServeError> {
        let listener = TcpListener::bind(addr).map_err(|e| io_err("binding listener", e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| io_err("setting listener nonblocking", e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| io_err("reading bound address", e))?;

        let shared = Arc::new(Shared {
            limits: self.limits,
            start: Instant::now(),
            draining: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            total: AtomicU64::new(0),
            served: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            algo_naive: AtomicU64::new(0),
            algo_folded: AtomicU64::new(0),
            algo_fft: AtomicU64::new(0),
            registered: AtomicUsize::new(0),
            readable: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            fleet: self.fleet,
        });

        let engine_shared = Arc::clone(&shared);
        let engine_thread = std::thread::Builder::new()
            .name("clockmark-serve-engine".into())
            .spawn(move || engine_main(listener, engine_shared))
            .map_err(|e| io_err("spawning engine thread", e))?;

        Ok(ServerHandle {
            addr,
            shared,
            engine_thread: Some(engine_thread),
        })
    }
}

/// Runs the serving engine.
fn engine_main(listener: TcpListener, shared: Arc<Shared>) {
    readiness::readiness_loop(listener, shared);
}

/// Tells an over-capacity client to back off, then closes.
fn reject_session(mut stream: TcpStream, shared: &Shared) {
    // Keep the rejection path snappy: a client that never sends its
    // greeting must not pin this thread for the full read timeout.
    let _ = stream.set_read_timeout(Some(REJECT_BUDGET));
    if read_greeting(&mut stream).is_err() {
        return;
    }
    if write_greeting(&mut stream).is_err() {
        return;
    }
    let (ty, payload) = Response::Error {
        code: ErrorCode::Busy,
        retry_after_ms: shared.limits.retry_after_ms,
        message: format!("session pool full ({} active)", shared.limits.max_sessions),
    }
    .encode();
    if write_frame(&mut stream, ty, &payload).is_err() {
        return;
    }
    // Drain until the client hangs up (bounded by the reject budget):
    // closing while its first request sits unread in our receive buffer
    // would turn the close into an RST, which may discard the Busy
    // frame before the client reads it.
    let mut scratch = [0u8; 256];
    loop {
        match stream.read(&mut scratch) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
    }
}

/// An in-progress streamed detect exchange, in any [`DetectMode`].
///
/// It answers exactly once, at `DetectFinish`: a failure before then
/// drops the session and swallows the exchange's remaining chunks, and
/// `DetectFinish` answers that failure, so the client's next read is
/// always this exchange's answer.
struct DetectExchange {
    /// The open session and the kernel it resolves to, or the failure
    /// `DetectFinish` will answer.
    session: Result<(clockmark_cpa::Session, CpaAlgo), (ErrorCode, String)>,
    /// The mode's name, for the finish span.
    mode: &'static str,
    /// Whether the exchange ranks candidates (`serve.identify`) rather
    /// than judging one pattern (`serve.detect`).
    identify: bool,
    /// Cycles streamed by the client, counted independently of the
    /// session: a decided sequential session stops ingesting (its
    /// `cycles()` freezes), but the server's per-exchange cycle budget
    /// and the one-period minimum apply to what arrives on the wire.
    streamed: u64,
    /// Payload bytes received for this exchange (start + chunks).
    wire_bytes: u64,
}

impl DetectExchange {
    /// Opens an exchange; a draining server or an invalid pattern or
    /// candidate list is held as the exchange's failure.
    fn start(
        shared: &Shared,
        pattern: &[bool],
        algo: Option<CpaAlgo>,
        criterion: DetectionCriterion,
        mode: DetectMode,
        wire_bytes: u64,
    ) -> Self {
        let (name, identify) = (mode.name(), matches!(mode, DetectMode::Identify(_)));
        let session = if shared.draining.load(Ordering::SeqCst) {
            Err((ErrorCode::Draining, "server is draining".to_owned()))
        } else {
            detector(pattern, algo, criterion)
                .and_then(|detector| Ok((detector.session(mode)?, detector.resolved_algo())))
                .map_err(|e| (ErrorCode::Cpa, e.to_string()))
        };
        DetectExchange {
            session,
            mode: name,
            identify,
            streamed: 0,
            wire_bytes,
        }
    }

    /// Fails the exchange unless it already failed: the first failure
    /// is the one `DetectFinish` answers.
    fn fail(&mut self, code: ErrorCode, message: String) {
        if self.session.is_ok() {
            self.session = Err((code, message));
        }
    }
}

/// The detector a wire request asks for.
fn detector(
    pattern: &[bool],
    algo: Option<CpaAlgo>,
    criterion: DetectionCriterion,
) -> Result<Detector, CpaError> {
    let mut options = DetectOptions::default().with_criterion(criterion);
    if let Some(algo) = algo {
        options = options.with_algo(algo);
    }
    Detector::with_options(pattern, options)
}

/// The session's sticky trace context, set by [`Request::TraceContext`].
struct TraceCtx {
    trace_id: [u8; TRACE_ID_LEN],
    parent_span: u64,
    /// Server-side span id minted for the request in flight; echoed in
    /// the `TraceEcho` frame preceding each response.
    current_span: u64,
}

/// Per-session state threaded through the request handler.
struct SessionCtx {
    exchange: Option<DetectExchange>,
    trace: Option<TraceCtx>,
}

impl SessionCtx {
    fn new() -> Self {
        SessionCtx {
            exchange: None,
            trace: None,
        }
    }
}

/// What the session loop should do after handling one frame.
enum Flow {
    Continue,
    Close,
}

/// Short name of a request frame, used for span fields and logs.
fn request_name(request: &Request) -> &'static str {
    match request {
        Request::Ping => "ping",
        Request::DetectStart { .. } => "detect_start",
        Request::DetectChunk { .. } => "detect_chunk",
        Request::DetectFinish => "detect_finish",
        Request::DetectCorpus { .. } => "detect_corpus",
        Request::Status => "status",
        Request::Shutdown => "shutdown",
        Request::TraceContext { .. } => "trace_context",
        Request::Metrics => "metrics",
        Request::ShardAssign(_) => "shard_assign",
        Request::Heartbeat => "heartbeat",
    }
}

/// Reads the remainder of a frame whose type byte has already arrived,
/// decodes it and dispatches the request. Returns what the session loop should do next; any
/// transport failure maps to [`Flow::Close`].
fn service_frame(
    stream: &mut TcpStream,
    shared: &Shared,
    ctx: &mut SessionCtx,
    frame_type: u8,
) -> Flow {
    let _ = stream.set_read_timeout(Some(shared.limits.read_timeout));
    let payload = match crate::protocol::read_frame_rest(stream, shared.limits.max_frame_bytes) {
        Ok(payload) => payload,
        Err(ServeError::FrameTooLarge { len, max }) => {
            send_error(
                stream,
                None,
                ErrorCode::FrameTooLarge,
                0,
                &format!("frame payload of {len} bytes exceeds the {max}-byte limit"),
            );
            return Flow::Close;
        }
        Err(_) => return Flow::Close, // disconnect, stall, or garbled length
    };

    let wire_bytes = 5u64 + payload.len() as u64; // type byte + u32 length + payload
    let request = match Request::decode(frame_type, &payload) {
        Ok(request) => request,
        Err(e) => {
            send_error(stream, None, ErrorCode::Malformed, 0, &e.to_string());
            return Flow::Close;
        }
    };

    // Mint the server-side span id for this request up front so the
    // request span and the TraceEcho frame agree on it.
    if let Some(trace) = ctx.trace.as_mut() {
        trace.current_span = mint_span_id();
    }
    let frame = request_name(&request);
    let started = Instant::now();
    let request_span = {
        let mut s = clockmark_obs::span("serve.request")
            .field("frame", frame)
            .field("wire_bytes", wire_bytes);
        if let Some(trace) = ctx.trace.as_ref() {
            s = s
                .field("trace_id", trace_id_hex(&trace.trace_id))
                .field("span_id", trace.current_span)
                .field("parent_span", trace.parent_span);
        }
        s
    };
    shared.in_flight.fetch_add(1, Ordering::SeqCst);
    let flow = handle_request(stream, shared, ctx, request, wire_bytes);
    shared.in_flight.fetch_sub(1, Ordering::SeqCst);
    drop(request_span);

    let elapsed = started.elapsed();
    clockmark_obs::counter_add("serve.requests", 1);
    clockmark_obs::counter_add("serve.wire_bytes", wire_bytes);
    clockmark_obs::observe("serve.request_seconds", elapsed.as_secs_f64());
    if elapsed >= shared.limits.slow_request {
        let trace = ctx
            .trace
            .as_ref()
            .map(|t| trace_id_hex(&t.trace_id))
            .unwrap_or_else(|| "-".to_string());
        clockmark_obs::warn!(
            "slow request: frame={frame} elapsed={:?} trace={trace}",
            elapsed
        );
    }
    flow
}

// ---------------------------------------------------------------------
// Readiness engine: poll(2) event loop + fixed worker pool.
// ---------------------------------------------------------------------

mod readiness {
    use super::*;
    use crate::poll::{poll_fds, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL};
    use std::collections::VecDeque;
    use std::os::unix::io::AsRawFd;
    use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

    /// A connected session parked in (or checked out of) the poll set.
    struct Session {
        stream: TcpStream,
        ctx: SessionCtx,
        greeted: bool,
        last_activity: Instant,
    }

    /// One entry of the slot registry.
    ///
    /// Only the event loop moves `Idle → Busy` (dispatching to the
    /// queue) and only a worker moves `Busy → Idle`/`Empty`, so a
    /// session is never polled and serviced at the same time.
    enum Slot {
        Empty,
        Idle(Box<Session>),
        Busy,
    }

    enum Work {
        /// An admitted session with bytes (or a hangup) waiting.
        Session { idx: usize, session: Box<Session> },
        /// An over-capacity connection owed a `Busy` frame.
        Reject(TcpStream),
    }

    struct Engine {
        shared: Arc<Shared>,
        slots: Mutex<Vec<Slot>>,
        queue: Mutex<VecDeque<Work>>,
        queue_cv: Condvar,
        done: AtomicBool,
    }

    fn relock<'a, T>(
        r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
    ) -> MutexGuard<'a, T> {
        // A panicking worker must not wedge the whole server; the
        // registry and queue hold only owned state that stays valid.
        r.unwrap_or_else(PoisonError::into_inner)
    }

    pub(super) fn readiness_loop(listener: TcpListener, shared: Arc<Shared>) {
        let engine = Arc::new(Engine {
            shared: Arc::clone(&shared),
            slots: Mutex::new(Vec::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            done: AtomicBool::new(false),
        });

        let workers: Vec<JoinHandle<()>> = (0..shared.limits.workers.max(1))
            .map(|i| {
                let engine = Arc::clone(&engine);
                std::thread::Builder::new()
                    .name(format!("clockmark-serve-worker-{i}"))
                    .spawn(move || worker_loop(&engine))
                    .expect("spawning pool worker")
            })
            .collect();

        let mut listener = Some(listener);
        let mut deferred: VecDeque<(TcpStream, Instant)> = VecDeque::new();
        loop {
            let draining = shared.draining.load(Ordering::SeqCst);
            if draining {
                // Drain step 1: close the listener, admit nothing new.
                listener = None;
            }
            if let Some(l) = &listener {
                accept_ready(l, &engine, &mut deferred);
            }
            retry_deferred(&engine, &mut deferred, draining);

            // Sweep budgets, then snapshot the descriptors to poll.
            let mut fds: Vec<PollFd> = Vec::new();
            let mut slot_of: Vec<usize> = Vec::new();
            let mut all_empty = true;
            {
                let mut slots = relock(engine.slots.lock());
                for (idx, slot) in slots.iter_mut().enumerate() {
                    let close = match slot {
                        Slot::Empty => continue,
                        Slot::Busy => {
                            all_empty = false;
                            continue;
                        }
                        Slot::Idle(session) => {
                            all_empty = false;
                            let budget = if session.ctx.exchange.is_some() {
                                shared.limits.read_timeout
                            } else {
                                shared.limits.idle_timeout
                            };
                            // Drain step 2: sessions between exchanges
                            // close now; one mid-exchange keeps its
                            // read-timeout budget and runs to completion.
                            (draining && session.ctx.exchange.is_none())
                                || session.last_activity.elapsed() > budget
                        }
                    };
                    if close {
                        *slot = Slot::Empty;
                        shared.registered.fetch_sub(1, Ordering::SeqCst);
                        shared.active.fetch_sub(1, Ordering::SeqCst);
                        continue;
                    }
                    let Slot::Idle(session) = slot else {
                        unreachable!()
                    };
                    fds.push(PollFd {
                        fd: session.stream.as_raw_fd(),
                        events: POLLIN,
                        revents: 0,
                    });
                    slot_of.push(idx);
                }
            }

            if draining && all_empty && relock(engine.queue.lock()).is_empty() {
                break;
            }

            // Wait for readiness (or the tick) and dispatch.
            let timeout = POLL_INTERVAL.as_millis() as i32;
            if fds.is_empty() {
                std::thread::sleep(POLL_INTERVAL);
                continue;
            }
            let n_ready = match poll_fds(&mut fds, timeout) {
                Ok(n) => n,
                Err(_) => {
                    std::thread::sleep(POLL_INTERVAL);
                    continue;
                }
            };
            if n_ready == 0 {
                continue;
            }
            let mut dispatched = Vec::new();
            {
                let mut slots = relock(engine.slots.lock());
                for (pos, fd) in fds.iter().enumerate() {
                    if fd.revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL) == 0 {
                        continue;
                    }
                    let idx = slot_of[pos];
                    // The slot is still Idle: workers never touch Idle
                    // slots and only this thread checks sessions out.
                    if let Slot::Idle(session) = std::mem::replace(&mut slots[idx], Slot::Busy) {
                        dispatched.push(Work::Session { idx, session });
                    }
                }
            }
            if !dispatched.is_empty() {
                shared
                    .readable
                    .fetch_add(dispatched.len(), Ordering::SeqCst);
                let mut queue = relock(engine.queue.lock());
                queue.extend(dispatched);
                drop(queue);
                engine.queue_cv.notify_all();
            }
        }

        // Drain step 3: stop the pool, join it, flush metrics.
        engine.done.store(true, Ordering::SeqCst);
        engine.queue_cv.notify_all();
        for handle in workers {
            let _ = handle.join();
        }
        clockmark_obs::flush();
    }

    /// Accepts every connection currently pending on the listener.
    /// Over-capacity connections are parked in `deferred` rather than
    /// rejected outright — see [`ADMIT_GRACE`].
    fn accept_ready(
        listener: &TcpListener,
        engine: &Engine,
        deferred: &mut VecDeque<(TcpStream, Instant)>,
    ) {
        loop {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => return, // transient (e.g. aborted connection)
            };
            if let Err(stream) = try_admit(engine, stream) {
                deferred.push_back((stream, Instant::now()));
            }
        }
    }

    /// Re-tries admission for parked connections; entries that outlive
    /// [`ADMIT_GRACE`] (or arrive at a draining server) get the `Busy`
    /// rejection they were owed.
    fn retry_deferred(
        engine: &Engine,
        deferred: &mut VecDeque<(TcpStream, Instant)>,
        draining: bool,
    ) {
        for _ in 0..deferred.len() {
            let (stream, since) = deferred.pop_front().expect("len-bounded");
            if draining {
                reject(engine, stream);
                continue;
            }
            if let Err(stream) = try_admit(engine, stream) {
                if since.elapsed() >= ADMIT_GRACE {
                    reject(engine, stream);
                } else {
                    deferred.push_back((stream, since));
                }
            }
        }
    }

    /// Admission control plus slot installation. Returns the stream
    /// back when the pool is at capacity so the caller can defer or
    /// reject it; a connection dead at `set_nodelay` is silently
    /// dropped (admitting it would only waste a dispatch).
    fn try_admit(engine: &Engine, stream: TcpStream) -> Result<(), TcpStream> {
        let shared = &engine.shared;
        let admitted = shared
            .active
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < shared.limits.max_sessions).then_some(n + 1)
            })
            .is_ok();
        if !admitted {
            return Err(stream);
        }
        if stream.set_nodelay(true).is_err() {
            shared.active.fetch_sub(1, Ordering::SeqCst);
            return Ok(());
        }
        shared.total.fetch_add(1, Ordering::SeqCst);
        clockmark_obs::counter_add("serve.accept", 1);
        let session = Box::new(Session {
            stream,
            ctx: SessionCtx::new(),
            greeted: false,
            last_activity: Instant::now(),
        });
        let mut slots = relock(engine.slots.lock());
        match slots.iter().position(|s| matches!(s, Slot::Empty)) {
            Some(idx) => slots[idx] = Slot::Idle(session),
            None => slots.push(Slot::Idle(session)),
        }
        shared.registered.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Queues the `Busy` rejection of one connection.
    fn reject(engine: &Engine, stream: TcpStream) {
        let shared = &engine.shared;
        shared.rejected.fetch_add(1, Ordering::SeqCst);
        clockmark_obs::counter_add("serve.reject", 1);
        let mut queue = relock(engine.queue.lock());
        queue.push_back(Work::Reject(stream));
        drop(queue);
        engine.queue_cv.notify_one();
    }

    fn worker_loop(engine: &Engine) {
        loop {
            let work = {
                let mut queue = relock(engine.queue.lock());
                loop {
                    if let Some(work) = queue.pop_front() {
                        break Some(work);
                    }
                    if engine.done.load(Ordering::SeqCst) {
                        break None;
                    }
                    queue = relock(engine.queue_cv.wait(queue));
                }
            };
            let Some(work) = work else { return };
            match work {
                Work::Reject(stream) => reject_session(stream, &engine.shared),
                Work::Session { idx, mut session } => {
                    engine.shared.readable.fetch_sub(1, Ordering::SeqCst);
                    let keep = service_session(&mut session, &engine.shared);
                    let mut slots = relock(engine.slots.lock());
                    if keep {
                        session.last_activity = Instant::now();
                        slots[idx] = Slot::Idle(session);
                    } else {
                        slots[idx] = Slot::Empty;
                        drop(slots);
                        engine.shared.registered.fetch_sub(1, Ordering::SeqCst);
                        engine.shared.active.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            }
        }
    }

    /// Services one checked-out session: greet it if this is its first
    /// wakeup, then drain every frame already buffered on the socket.
    /// Returns whether the session should go back into the poll set.
    fn service_session(session: &mut Session, shared: &Shared) -> bool {
        let stream = &mut session.stream;
        if !session.greeted {
            // Readiness fired, so at least the greeting's first bytes
            // are here; a stalled remainder gets the read budget.
            let _ = stream.set_read_timeout(Some(shared.limits.read_timeout));
            if read_greeting(stream).is_err() || write_greeting(stream).is_err() {
                return false;
            }
            session.greeted = true;
        }
        loop {
            // The first iteration after a wakeup normally finds a type
            // byte at once; once the burst is drained, hand the session
            // back to the poll set instead of camping on the socket —
            // level-triggered polling re-signals anything left over.
            let _ = stream.set_read_timeout(Some(BURST_POLL));
            let mut frame_type = [0u8; 1];
            match std::io::Read::read_exact(stream, &mut frame_type) {
                Ok(()) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return true;
                }
                Err(_) => return false, // disconnect
            }
            match service_frame(stream, shared, &mut session.ctx, frame_type[0]) {
                Flow::Continue => session.last_activity = Instant::now(),
                Flow::Close => return false,
            }
        }
    }
}

fn handle_request(
    stream: &mut TcpStream,
    shared: &Shared,
    ctx: &mut SessionCtx,
    request: Request,
    wire_bytes: u64,
) -> Flow {
    let trace = ctx.trace.take();
    let flow = handle_request_inner(stream, shared, ctx, trace.as_ref(), request, wire_bytes);
    if ctx.trace.is_none() {
        ctx.trace = trace;
    }
    flow
}

fn handle_request_inner(
    stream: &mut TcpStream,
    shared: &Shared,
    ctx: &mut SessionCtx,
    trace: Option<&TraceCtx>,
    request: Request,
    wire_bytes: u64,
) -> Flow {
    let exchange = &mut ctx.exchange;
    match request {
        Request::Ping => send_response(stream, trace, &Response::Pong),
        Request::Status => send_response(stream, trace, &Response::Status(shared.status())),
        Request::Metrics => send_response(
            stream,
            trace,
            &Response::Metrics {
                text: metrics_text(shared),
            },
        ),
        Request::TraceContext {
            trace_id,
            parent_span,
        } => {
            // Sticky and unacknowledged, like DetectStart: the context
            // takes effect on the next request's response.
            ctx.trace = Some(TraceCtx {
                trace_id,
                parent_span,
                current_span: mint_span_id(),
            });
            Flow::Continue
        }
        Request::Shutdown => {
            shared.draining.store(true, Ordering::SeqCst);
            send_response(stream, trace, &Response::ShutdownAck);
            Flow::Close
        }
        Request::DetectStart {
            pattern,
            algo,
            criterion,
            mode,
        } => {
            match exchange {
                // A start inside an open exchange fails that exchange,
                // which still answers once, at its DetectFinish.
                Some(open) => open.fail(
                    ErrorCode::BadSequence,
                    "DetectStart while a detect exchange is already open".to_owned(),
                ),
                None => {
                    *exchange = Some(DetectExchange::start(
                        shared, &pattern, algo, criterion, mode, wire_bytes,
                    ))
                }
            }
            Flow::Continue
        }
        Request::DetectChunk { samples } => {
            let Some(open) = exchange.as_mut() else {
                return fail(
                    stream,
                    trace,
                    ErrorCode::BadSequence,
                    "DetectChunk without DetectStart",
                );
            };
            open.streamed = open.streamed.saturating_add(samples.len() as u64);
            open.wire_bytes = open.wire_bytes.saturating_add(wire_bytes);
            if open.streamed > shared.limits.max_cycles {
                open.fail(
                    ErrorCode::TooManyCycles,
                    format!(
                        "trace exceeds the server's {}-cycle budget",
                        shared.limits.max_cycles
                    ),
                );
            }
            if let Ok((session, _)) = &mut open.session {
                session.push_chunk(&samples);
            }
            Flow::Continue
        }
        Request::DetectFinish => {
            let Some(open) = exchange.take() else {
                return fail(
                    stream,
                    trace,
                    ErrorCode::BadSequence,
                    "DetectFinish without DetectStart",
                );
            };
            finish_exchange(stream, shared, trace, open, wire_bytes)
        }
        Request::DetectCorpus {
            corpus,
            trace: trace_name,
            pattern,
            algo,
            criterion,
        } => {
            if exchange.is_some() {
                return fail(
                    stream,
                    trace,
                    ErrorCode::BadSequence,
                    "DetectCorpus while a detect exchange is open",
                );
            }
            if shared.draining.load(Ordering::SeqCst) {
                return fail(stream, trace, ErrorCode::Draining, "server is draining");
            }
            match detect_corpus(
                shared,
                &corpus,
                &trace_name,
                &pattern,
                algo,
                criterion,
                trace,
            ) {
                Ok((detection, algo)) => {
                    shared.note_served(algo);
                    send_response(stream, trace, &Response::Verdict(detection.into()))
                }
                Err((code, message)) => fail(stream, trace, code, &message),
            }
        }
        Request::ShardAssign(spec) => {
            if shared.draining.load(Ordering::SeqCst) {
                return fail(stream, trace, ErrorCode::Draining, "server is draining");
            }
            let Some(fleet) = shared.fleet.as_ref() else {
                return fail(
                    stream,
                    trace,
                    ErrorCode::Internal,
                    "this server is not a fleet worker (no fleet service installed)",
                );
            };
            // Runs the whole shard before answering; the coordinator
            // holds this connection open as the shard's completion
            // signal and heartbeats on a separate one.
            let span = clockmark_obs::span("serve.shard").field("shard_id", spec.shard_id);
            let outcome = fleet.assign(&spec);
            drop(span);
            match outcome {
                Ok(outcome) => send_response(
                    stream,
                    trace,
                    &Response::ShardResult {
                        shard_id: outcome.shard_id,
                        complete: outcome.complete,
                        outcomes: outcome.outcomes,
                    },
                ),
                Err((code, message)) => fail(stream, trace, code, &message),
            }
        }
        Request::Heartbeat => {
            let beat = shared
                .fleet
                .as_ref()
                .map(|fleet| fleet.heartbeat())
                .unwrap_or_default();
            send_response(stream, trace, &Response::Heartbeat(beat))
        } // `Request` is non_exhaustive for downstream crates only; within
          // the defining crate the match above is already exhaustive.
    }
}

/// Answers a finished detect exchange with its verdict, or with the
/// failure it hit. Below one watermark period every mode is refused with
/// `Cpa`, as the in-process detector refuses such a trace.
fn finish_exchange(
    stream: &mut TcpStream,
    shared: &Shared,
    trace: Option<&TraceCtx>,
    open: DetectExchange,
    wire_bytes: u64,
) -> Flow {
    let (session, algo) = match open.session {
        Ok(session) => session,
        Err((code, message)) => return fail(stream, trace, code, &message),
    };
    let period = session.period();
    if open.streamed < period as u64 {
        let short = CpaError::InsufficientCycles {
            have: open.streamed,
            need: period,
        };
        return fail(stream, trace, ErrorCode::Cpa, &short.to_string());
    }
    let mut span = clockmark_obs::span(if open.identify {
        "serve.identify"
    } else {
        "serve.detect"
    })
    .field("mode", open.mode)
    .field("streamed", open.streamed)
    .field("period", period as u64)
    .field("algo", algo.as_str())
    .field("wire_bytes", open.wire_bytes.saturating_add(wire_bytes));
    if let Some(t) = trace {
        span = span
            .field("trace_id", trace_id_hex(&t.trace_id))
            .field("parent_span", t.current_span);
    }
    let verdict = session.finalize();
    drop(
        span.field("cycles", verdict.cycles)
            .field("early_stopped", verdict.early_stopped)
            .field("peak_rho", verdict.result.peak_rho)
            .field("detected", verdict.result.detected),
    );
    if !open.identify {
        clockmark_obs::observe("serve.detect.cycles_consumed", verdict.cycles as f64);
    }
    shared.note_served(algo);
    send_response(stream, trace, &Response::Verdict(verdict))
}

/// Runs a corpus-backed detect and classifies any failure for the wire.
/// Returns the verdict together with the CPA kernel that produced it.
#[allow(clippy::too_many_arguments)]
fn detect_corpus(
    shared: &Shared,
    corpus: &str,
    trace: &str,
    pattern: &[bool],
    algo: Option<CpaAlgo>,
    criterion: DetectionCriterion,
    trace_ctx: Option<&TraceCtx>,
) -> Result<(clockmark_cpa::TraceDetection, CpaAlgo), (ErrorCode, String)> {
    let detector =
        detector(pattern, algo, criterion).map_err(|e| (ErrorCode::Cpa, e.to_string()))?;
    let resolved = detector.resolved_algo();

    let store =
        clockmark_corpus::Corpus::open(corpus).map_err(|e| (ErrorCode::Corpus, e.to_string()))?;
    let entry = store.entry(trace).ok_or_else(|| {
        (
            ErrorCode::Corpus,
            format!("no trace named {trace:?} in corpus"),
        )
    })?;
    if entry.cycles > shared.limits.max_cycles {
        return Err((
            ErrorCode::TooManyCycles,
            format!(
                "trace holds {} cycles, over the server's {}-cycle budget",
                entry.cycles, shared.limits.max_cycles
            ),
        ));
    }
    let reader = store
        .source(trace)
        .map_err(|e| (ErrorCode::Corpus, e.to_string()))?;

    let mut detect_span = clockmark_obs::span("serve.detect")
        .field("cycles", entry.cycles)
        .field("period", pattern.len() as u64)
        .field("algo", resolved.as_str());
    if let Some(t) = trace_ctx {
        detect_span = detect_span
            .field("trace_id", trace_id_hex(&t.trace_id))
            .field("parent_span", t.current_span);
    }
    let outcome = detector.detect_trace(reader);
    if let Ok(detection) = &outcome {
        detect_span = detect_span
            .field("peak_rho", detection.result.peak_rho)
            .field("detected", detection.result.detected);
    }
    drop(detect_span);

    outcome.map(|detection| (detection, resolved)).map_err(|e| {
        let code = match &e {
            clockmark_cpa::TraceInputError::Cpa(_) => ErrorCode::Cpa,
            clockmark_cpa::TraceInputError::Input(_) => ErrorCode::Corpus,
        };
        (code, e.to_string())
    })
}

/// Writes a response frame, preceded by a [`Response::TraceEcho`] frame
/// carrying the server span id for this request while a trace context
/// is in effect.
fn send_response(stream: &mut TcpStream, trace: Option<&TraceCtx>, response: &Response) -> Flow {
    if let Some(t) = trace {
        let (ty, payload) = Response::TraceEcho {
            trace_id: t.trace_id,
            span_id: t.current_span,
        }
        .encode();
        if write_frame(stream, ty, &payload).is_err() {
            return Flow::Close;
        }
    }
    let (ty, payload) = response.encode();
    match write_frame(stream, ty, &payload) {
        Ok(()) => Flow::Continue,
        Err(_) => Flow::Close,
    }
}

fn send_error(
    stream: &mut impl Write,
    trace: Option<&TraceCtx>,
    code: ErrorCode,
    retry_after_ms: u32,
    message: &str,
) {
    if let Some(t) = trace {
        let (ty, payload) = Response::TraceEcho {
            trace_id: t.trace_id,
            span_id: t.current_span,
        }
        .encode();
        if write_frame(stream, ty, &payload).is_err() {
            return;
        }
    }
    let (ty, payload) = Response::Error {
        code,
        retry_after_ms,
        message: message.to_string(),
    }
    .encode();
    let _ = write_frame(stream, ty, &payload);
}

/// Reports a request failure and keeps the connection alive: the frame
/// that failed was still well-formed, so the session stays usable.
fn fail(stream: &mut TcpStream, trace: Option<&TraceCtx>, code: ErrorCode, message: &str) -> Flow {
    clockmark_obs::counter_add("serve.errors", 1);
    send_error(stream, trace, code, 0, message);
    Flow::Continue
}
