//! The `serve` and `client …` subcommands: the detection service from
//! the command line.
//!
//! `cmd_serve` runs a server in the foreground until a wire `Shutdown`
//! request drains it; the `client` commands drive one request each and
//! render the reply in the same format the in-process `detect` command
//! uses, so scripts can diff the two outputs byte for byte.

use std::fmt::Write as _;

use clockmark_cpa::{
    CandidatePattern, CpaAlgo, DetectMode, DetectOptions, DetectionCriterion, SequentialOptions,
    Verdict,
};
use clockmark_serve::{Client, ServeLimits, Server};

use crate::commands::PatternSpec;
use crate::{tracefile, ToolError};

/// Settings of the `serve` subcommand.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Address to bind, e.g. `127.0.0.1:4780` (port 0 picks a free one).
    pub addr: String,
    /// Resource limits to enforce.
    pub limits: ServeLimits,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:4780".to_owned(),
            limits: ServeLimits::default(),
        }
    }
}

/// Detection settings shared by `client detect` and `client detect-corpus`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientDetectOptions {
    /// Use the lenient criterion instead of the paper default.
    pub lenient: bool,
    /// Pin a spectrum kernel instead of the server-side heuristic.
    pub algo: Option<CpaAlgo>,
    /// Propagate a wire trace context and report the trace/span ids.
    pub traced: bool,
}

impl ClientDetectOptions {
    fn detect_options(self) -> DetectOptions {
        let criterion = if self.lenient {
            DetectionCriterion::lenient()
        } else {
            DetectionCriterion::default()
        };
        let mut options = DetectOptions::default().with_criterion(criterion);
        if let Some(algo) = self.algo {
            options = options.with_algo(algo);
        }
        options
    }
}

/// `serve`: run a detection server in the foreground until drained.
///
/// The bound address is printed (and flushed) before blocking, so a
/// harness can spawn the process, read the first line, and connect.
///
/// # Errors
///
/// Returns bind failures.
pub fn cmd_serve(options: &ServeOptions) -> Result<String, ToolError> {
    let handle = Server::new()
        .with_limits(options.limits)
        .bind(options.addr.as_str())?;
    println!("listening on {}", handle.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let status = handle.wait();
    Ok(format!(
        "drained: served {} detects, rejected {} connections\n",
        status.served, status.rejected
    ))
}

/// `client ping`: round-trip a liveness probe.
///
/// # Errors
///
/// Returns connection or protocol failures.
pub fn cmd_client_ping(addr: &str) -> Result<String, ToolError> {
    let mut client = connect(addr)?;
    client.ping()?;
    Ok(format!("pong from {addr}\n"))
}

/// `client status`: fetch and render the server's load counters.
///
/// # Errors
///
/// Returns connection or protocol failures.
pub fn cmd_client_status(addr: &str) -> Result<String, ToolError> {
    let mut client = connect(addr)?;
    let status = client.status()?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "sessions: {}/{} active{}, {} total",
        status.active_sessions,
        status.max_sessions,
        if status.draining { " (draining)" } else { "" },
        status.total_sessions,
    );
    let _ = writeln!(
        out,
        "served: {} detects, rejected: {} connections",
        status.served, status.rejected
    );
    let _ = writeln!(
        out,
        "algos: naive {}, folded {}, fft {}",
        status.algo_naive, status.algo_folded, status.algo_fft
    );
    let _ = writeln!(
        out,
        "engine: {} registered, {} readable, {} in-flight",
        status.registered, status.readable, status.in_flight
    );
    let _ = writeln!(out, "uptime: {}s", status.uptime_secs);
    Ok(out)
}

/// `client metrics`: dump the server's Prometheus text snapshot.
///
/// # Errors
///
/// Returns connection or protocol failures.
pub fn cmd_client_metrics(addr: &str) -> Result<String, ToolError> {
    let mut client = connect(addr)?;
    Ok(client.metrics()?)
}

/// Looks up one sample value in Prometheus exposition text by its full
/// series id (name plus label set, exactly as rendered).
fn prom_value(text: &str, series: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let (id, value) = line.rsplit_once(' ')?;
        if id == series {
            value.parse().ok()
        } else {
            None
        }
    })
}

fn fmt_seconds(v: Option<f64>) -> String {
    match v {
        Some(s) if s >= 1.0 => format!("{s:.2}s"),
        Some(s) if s >= 1e-3 => format!("{:.2}ms", s * 1e3),
        Some(s) if s > 0.0 => format!("{:.1}us", s * 1e6),
        Some(_) => "0".to_owned(),
        None => "-".to_owned(),
    }
}

fn fmt_rate(v: Option<f64>) -> String {
    match v {
        Some(r) => format!("{r:.1}"),
        None => "-".to_owned(),
    }
}

/// Renders a consumed-cycle quantile: whole cycles, `k` past 10⁴.
fn fmt_cycles(v: Option<f64>) -> String {
    match v {
        Some(c) if c >= 10_000.0 => format!("{:.1}k", c / 1_000.0),
        Some(c) => format!("{}", c.round() as u64),
        None => "-".to_owned(),
    }
}

/// Renders one `client watch` dashboard frame from a status report and
/// a Prometheus metrics snapshot.
pub fn render_watch_frame(
    addr: &str,
    status: &clockmark_serve::ServerStatus,
    metrics: &str,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "clockmark serve {addr} — up {}s{}",
        status.uptime_secs,
        if status.draining { " (draining)" } else { "" }
    );
    let _ = writeln!(
        out,
        "sessions: {}/{} active, {} total, {} rejected",
        status.active_sessions, status.max_sessions, status.total_sessions, status.rejected
    );
    let _ = writeln!(
        out,
        "served:   {} verdicts (naive {}, folded {}, fft {})",
        status.served, status.algo_naive, status.algo_folded, status.algo_fft
    );
    let _ = writeln!(
        out,
        "engine:   {} registered, {} readable, {} in-flight",
        status.registered, status.readable, status.in_flight
    );
    let rate = |w: &str| {
        prom_value(
            metrics,
            &format!("clockmark_serve_requests_window_rate{{window=\"{w}\"}}"),
        )
    };
    let _ = writeln!(
        out,
        "req/s:    1s {}  10s {}  60s {}",
        fmt_rate(rate("1s")),
        fmt_rate(rate("10s")),
        fmt_rate(rate("60s"))
    );
    let quant = |q: &str| {
        prom_value(
            metrics,
            &format!("clockmark_serve_request_seconds_window{{window=\"10s\",quantile=\"{q}\"}}"),
        )
    };
    let _ = writeln!(
        out,
        "latency:  p50 {}  p95 {}  p99 {}  (10s window)",
        fmt_seconds(quant("0.5")),
        fmt_seconds(quant("0.95")),
        fmt_seconds(quant("0.99"))
    );
    let cycles_quant = |q: &str| {
        prom_value(
            metrics,
            &format!(
                "clockmark_serve_detect_cycles_consumed_window{{window=\"60s\",quantile=\"{q}\"}}"
            ),
        )
    };
    let _ = writeln!(
        out,
        "cycles:   p50 {}  p95 {}  p99 {} consumed/verdict (60s window)",
        fmt_cycles(cycles_quant("0.5")),
        fmt_cycles(cycles_quant("0.95")),
        fmt_cycles(cycles_quant("0.99"))
    );
    let errors = prom_value(metrics, "clockmark_serve_errors_total").unwrap_or(0.0);
    let _ = writeln!(
        out,
        "errors:   {} request failures, {} busy rejections",
        errors, status.rejected
    );
    out
}

/// `client watch`: a refreshing terminal dashboard over `Status` +
/// `Metrics`. Draws `count` frames `interval_ms` apart (`count: None`
/// runs until the connection drops).
///
/// # Errors
///
/// Returns connection or protocol failures from the first exchange;
/// later failures (e.g. the server draining away) end the watch
/// gracefully.
pub fn cmd_client_watch(
    addr: &str,
    interval_ms: u64,
    count: Option<u64>,
) -> Result<String, ToolError> {
    let mut client = connect(addr)?;
    let mut frames = 0u64;
    let mut last = String::new();
    loop {
        let frame = client
            .status()
            .and_then(|status| Ok((status, client.metrics()?)));
        match frame {
            Ok((status, metrics)) => {
                last = render_watch_frame(addr, &status, &metrics);
                frames += 1;
            }
            Err(e) if frames == 0 => return Err(e.into()),
            // The server drained or dropped us after at least one good
            // frame: end the watch gracefully.
            Err(_) => return Ok(format!("{last}watch ended: server went away\n")),
        }
        if count.is_some_and(|n| frames >= n) {
            return Ok(last);
        }
        // Clear and home between frames so the dashboard repaints in
        // place on an ANSI terminal.
        print!("\x1b[2J\x1b[H{last}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(10)));
    }
}

/// `client shutdown`: ask the server to drain and exit.
///
/// # Errors
///
/// Returns connection or protocol failures.
pub fn cmd_client_shutdown(addr: &str) -> Result<String, ToolError> {
    let mut client = connect(addr)?;
    client.shutdown()?;
    Ok(format!("{addr} acknowledged shutdown, draining\n"))
}

/// `client detect`: stream a CSV trace to the server and render its
/// verdict exactly like the in-process `detect` command renders one.
///
/// With `sequential` set the server evaluates the trace incrementally
/// and the rendering gains the consumed-cycles / checkpoint-trail
/// summary; the verdict block itself stays byte-compatible.
///
/// # Errors
///
/// Returns trace-file, connection, or detection failures.
pub fn cmd_client_detect(
    addr: &str,
    trace_text: &str,
    spec: &PatternSpec,
    options: ClientDetectOptions,
    sequential: Option<SequentialOptions>,
) -> Result<String, ToolError> {
    let mode = sequential.map_or(DetectMode::Fixed, DetectMode::Sequential);
    client_exchange(addr, trace_text, spec, options, mode)
}

/// `client identify`: stream a CSV trace once and rank candidate
/// watermark patterns by correlation strength — the batched replacement
/// for one `client detect` per candidate seed.
///
/// # Errors
///
/// Returns trace-file, connection, or identification failures.
pub fn cmd_client_identify(
    addr: &str,
    trace_text: &str,
    spec: &PatternSpec,
    options: ClientDetectOptions,
    candidates: &[CandidatePattern],
) -> Result<String, ToolError> {
    let mode = DetectMode::Identify(candidates.to_vec());
    client_exchange(addr, trace_text, spec, options, mode)
}

/// Streams a CSV trace through one exchange in `mode` and renders the
/// verdict.
fn client_exchange(
    addr: &str,
    trace_text: &str,
    spec: &PatternSpec,
    options: ClientDetectOptions,
    mode: DetectMode,
) -> Result<String, ToolError> {
    let trace = tracefile::read_trace(trace_text)?;
    let pattern = spec.pattern()?;
    let mut client = connect(addr)?;
    if options.traced {
        client.enable_tracing();
    }
    let render = match mode {
        DetectMode::Fixed => render_detection,
        DetectMode::Sequential(_) => render_sequential,
        DetectMode::Identify(_) => render_identification,
    };
    let verdict = client.exchange(&pattern, options.detect_options(), mode, trace.as_watts())?;
    let mut out = render(&verdict, pattern.len());
    append_trace_line(&mut out, &client);
    Ok(out)
}

/// `client detect-corpus`: detect against a trace stored in a corpus on
/// the server's filesystem.
///
/// # Errors
///
/// Returns connection or detection failures.
pub fn cmd_client_detect_corpus(
    addr: &str,
    corpus: &str,
    trace: &str,
    spec: &PatternSpec,
    options: ClientDetectOptions,
) -> Result<String, ToolError> {
    let pattern = spec.pattern()?;
    let mut client = connect(addr)?;
    if options.traced {
        client.enable_tracing();
    }
    let detection = client.detect_corpus(corpus, trace, &pattern, options.detect_options())?;
    let mut out = render_detection(&detection.into(), pattern.len());
    append_trace_line(&mut out, &client);
    Ok(out)
}

/// Appends the trace-propagation summary line after a traced verdict.
fn append_trace_line(out: &mut String, client: &Client) {
    if let Some(trace_id) = client.trace_id_hex() {
        let _ = writeln!(
            out,
            "trace: id {trace_id}, server span {:#018x}, {} B sent, {} B received",
            client.last_server_span(),
            client.bytes_sent(),
            client.bytes_received()
        );
    }
}

/// Parses the `client identify` candidate list: comma-separated
/// `label=bits` entries (`bits` alone auto-labels as `cand<index>`).
///
/// Candidates should be genuinely different sequences — other seeds of
/// the same LFSR are cyclic shifts of one m-sequence, which the
/// phase-blind rotational correlator cannot tell apart.
///
/// # Errors
///
/// Returns [`ToolError::Usage`] for empty entries or non-binary digits.
pub fn parse_candidate_list(raw: &str) -> Result<Vec<CandidatePattern>, ToolError> {
    raw.split(',')
        .enumerate()
        .map(|(index, entry)| {
            let (label, bits) = match entry.split_once('=') {
                Some((label, bits)) => (label.to_owned(), bits),
                None => (format!("cand{index}"), entry),
            };
            if bits.is_empty() {
                return Err(ToolError::Usage(format!(
                    "--candidates entry {index} has no bits"
                )));
            }
            let pattern = bits
                .chars()
                .map(|c| match c {
                    '0' => Ok(false),
                    '1' => Ok(true),
                    other => Err(ToolError::Usage(format!(
                        "--candidates bits must be 0s and 1s, found {other:?}"
                    ))),
                })
                .collect::<Result<Vec<bool>, _>>()?;
            Ok(CandidatePattern::new(label, pattern))
        })
        .collect()
}

fn connect(addr: &str) -> Result<Client, ToolError> {
    Ok(Client::connect(addr)?)
}

fn render_detection(verdict: &Verdict, period: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace: {} cycles, pattern period {}",
        verdict.cycles, period
    );
    let _ = writeln!(out, "{}", verdict.result);
    out
}

fn render_identification(verdict: &Verdict, period: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace: {} cycles, pattern period {}, {} candidates",
        verdict.cycles,
        period,
        verdict.scores.len()
    );
    for (rank, score) in verdict.scores.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:>3}. {:<24} |rho| {:.6}  ratio {:.2}  zscore {:.2}{}",
            rank + 1,
            score.label,
            score.result.peak_rho.abs(),
            score.result.ratio,
            score.result.zscore,
            if score.result.detected {
                "  DETECTED"
            } else {
                ""
            }
        );
    }
    let best = &verdict.scores[0];
    let _ = writeln!(
        out,
        "best: {} (candidate {}{})",
        best.label,
        best.index,
        if best.result.detected {
            ", passes the detection criterion"
        } else {
            ", below the detection criterion"
        }
    );
    out
}

fn render_sequential(outcome: &Verdict, period: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace: {} cycles consumed, pattern period {}",
        outcome.cycles, period
    );
    let _ = writeln!(out, "{}", outcome.result);
    let _ = writeln!(
        out,
        "sequential: {} after {} checkpoint{}",
        if outcome.early_stopped {
            "stopped early"
        } else {
            "ran to the end of the trace"
        },
        outcome.checkpoints.len(),
        if outcome.checkpoints.len() == 1 {
            ""
        } else {
            "s"
        }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_options_map_flags() {
        let options = ClientDetectOptions {
            lenient: true,
            algo: Some(CpaAlgo::Fft),
            traced: false,
        };
        let mapped = options.detect_options();
        assert_eq!(mapped.criterion, DetectionCriterion::lenient());
        assert_eq!(mapped.algo, Some(CpaAlgo::Fft));

        let mapped = ClientDetectOptions::default().detect_options();
        assert_eq!(mapped.criterion, DetectionCriterion::default());
        assert_eq!(mapped.algo, None);
    }

    #[test]
    fn end_to_end_over_loopback() {
        let handle = Server::new().bind("127.0.0.1:0").expect("bind");
        let addr = handle.local_addr().to_string();

        assert!(cmd_client_ping(&addr).expect("ping").contains("pong"));
        // The status session itself occupies a slot while it is served.
        assert!(cmd_client_status(&addr)
            .expect("status")
            .contains("/8 active"));

        // A short watermarked trace in the CSV format `detect` reads.
        let pattern = PatternSpec::Lfsr { width: 5, seed: 1 }
            .pattern()
            .expect("pattern");
        let csv: String = (0..pattern.len() * 30)
            .map(|i| {
                let wm = if pattern[i % pattern.len()] {
                    1.0
                } else {
                    -1.0
                };
                format!("{}\n", wm + ((i * 37) % 101) as f64 * 0.002)
            })
            .collect();
        let rendered = cmd_client_detect(
            &addr,
            &csv,
            &PatternSpec::Lfsr { width: 5, seed: 1 },
            ClientDetectOptions::default(),
            None,
        )
        .expect("detect");
        assert!(rendered.contains("pattern period 31"), "{rendered}");
        assert!(!rendered.contains("trace: id"), "untraced by default");

        // The same detect with tracing on: identical verdict rendering
        // plus the trace-propagation summary line.
        let traced = cmd_client_detect(
            &addr,
            &csv,
            &PatternSpec::Lfsr { width: 5, seed: 1 },
            ClientDetectOptions {
                traced: true,
                ..ClientDetectOptions::default()
            },
            None,
        )
        .expect("traced detect");
        assert!(traced.contains("pattern period 31"), "{traced}");
        assert!(traced.contains("trace: id "), "{traced}");
        assert!(traced.starts_with(&rendered), "verdict rendering unchanged");

        // Sequential mode reports consumed cycles and the trail length.
        let sequential = cmd_client_detect(
            &addr,
            &csv,
            &PatternSpec::Lfsr { width: 5, seed: 1 },
            ClientDetectOptions::default(),
            Some(SequentialOptions::every(93)),
        )
        .expect("sequential detect");
        assert!(sequential.contains("cycles consumed"), "{sequential}");
        assert!(sequential.contains("sequential: "), "{sequential}");

        // Identify ranks the embedded pattern first. The decoys must be
        // genuinely different sequences, not other seeds of the same
        // LFSR: those are cyclic shifts of one m-sequence, and
        // rotational CPA is phase-blind by construction.
        let decoy = |salt: u64| -> Vec<bool> {
            let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ salt;
            (0..pattern.len())
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x & 1 == 1
                })
                .collect()
        };
        let candidates = vec![
            CandidatePattern::new("decoy-a", decoy(1)),
            CandidatePattern::new("embedded", pattern.clone()),
            CandidatePattern::new("decoy-b", decoy(2)),
        ];
        let identified = cmd_client_identify(
            &addr,
            &csv,
            &PatternSpec::Lfsr { width: 5, seed: 1 },
            ClientDetectOptions::default(),
            &candidates,
        )
        .expect("identify");
        assert!(identified.contains("3 candidates"), "{identified}");
        assert!(identified.contains("best: embedded"), "{identified}");

        // Metrics exposition and a single watch frame over the wire.
        let metrics = cmd_client_metrics(&addr).expect("metrics");
        assert!(
            metrics.contains("clockmark_serve_served_verdicts_total 4"),
            "{metrics}"
        );
        assert!(
            metrics.contains("clockmark_serve_uptime_seconds"),
            "{metrics}"
        );
        let frame = cmd_client_watch(&addr, 10, Some(1)).expect("watch frame");
        assert!(frame.contains("served:   4 verdicts"), "{frame}");
        assert!(frame.contains("cycles:   p50 "), "{frame}");
        assert!(frame.contains("req/s:"), "{frame}");
        assert!(frame.contains("latency:"), "{frame}");

        assert!(cmd_client_shutdown(&addr)
            .expect("shutdown")
            .contains("draining"));
        let status = handle.wait();
        assert!(status.draining);
    }

    #[test]
    fn watch_frame_renders_from_prometheus_text() {
        let status = clockmark_serve::ServerStatus {
            active_sessions: 1,
            max_sessions: 8,
            served: 40,
            rejected: 2,
            draining: false,
            uptime_secs: 123,
            total_sessions: 42,
            algo_naive: 5,
            algo_folded: 20,
            algo_fft: 15,
            registered: 7,
            readable: 1,
            in_flight: 2,
        };
        let metrics = "\
clockmark_serve_requests_window_rate{window=\"1s\"} 12\n\
clockmark_serve_requests_window_rate{window=\"10s\"} 9.75\n\
clockmark_serve_request_seconds_window{window=\"10s\",quantile=\"0.5\"} 0.0012\n\
clockmark_serve_request_seconds_window{window=\"10s\",quantile=\"0.95\"} 0.0034\n\
clockmark_serve_request_seconds_window{window=\"10s\",quantile=\"0.99\"} 0.0079\n\
clockmark_serve_detect_cycles_consumed_window{window=\"60s\",quantile=\"0.5\"} 8192\n\
clockmark_serve_detect_cycles_consumed_window{window=\"60s\",quantile=\"0.95\"} 24576\n\
clockmark_serve_detect_cycles_consumed_window{window=\"60s\",quantile=\"0.99\"} 65536\n\
clockmark_serve_errors_total 3\n";
        let frame = render_watch_frame("127.0.0.1:4780", &status, metrics);
        assert!(frame.contains("up 123s"), "{frame}");
        assert!(
            frame.contains("1/8 active, 42 total, 2 rejected"),
            "{frame}"
        );
        assert!(frame.contains("naive 5, folded 20, fft 15"), "{frame}");
        assert!(
            frame.contains("7 registered, 1 readable, 2 in-flight"),
            "{frame}"
        );
        assert!(frame.contains("1s 12.0  10s 9.8  60s -"), "{frame}");
        assert!(
            frame.contains("p50 1.20ms  p95 3.40ms  p99 7.90ms"),
            "{frame}"
        );
        assert!(
            frame.contains("3 request failures, 2 busy rejections"),
            "{frame}"
        );
        assert!(
            frame.contains("cycles:   p50 8192  p95 24.6k  p99 65.5k"),
            "{frame}"
        );
    }

    #[test]
    fn candidate_lists_parse_labels_and_bits() {
        let candidates = parse_candidate_list("a=10110,0111011,b=110").expect("valid");
        assert_eq!(candidates.len(), 3);
        assert_eq!(candidates[0].label, "a");
        assert_eq!(candidates[0].pattern, vec![true, false, true, true, false]);
        assert_eq!(candidates[1].label, "cand1");
        assert_eq!(candidates[2].label, "b");

        assert!(parse_candidate_list("a=10,b=").is_err(), "empty bits");
        assert!(parse_candidate_list("a=102").is_err(), "non-binary digit");
    }
}
