//! Shared helpers for the table/figure regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of
//! Kufel et al. (DATE 2014); see `EXPERIMENTS.md` at the repository root
//! for the index and the recorded paper-vs-measured comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use clockmark_cpa::SpreadSpectrum;

/// Runs a bench binary's body under the observability layer.
///
/// Resolves the global recorder from `CLOCKMARK_METRICS` /
/// `CLOCKMARK_LOG` before any instrumented code runs, wraps `f` in a
/// root `bench.run` span tagged with the binary name, and flushes the
/// recorder (writing the JSON-lines artifact and the summary table)
/// after `f` returns — including when it returns an error.
pub fn obs_scope<R>(bin: &'static str, f: impl FnOnce() -> R) -> R {
    clockmark_obs::init_from_env();
    clockmark_obs::info!("{bin}: starting");
    let result = {
        let _span = clockmark_obs::span("bench.run").field("bin", bin);
        f()
    };
    clockmark_obs::flush();
    result
}

/// Renders a spread spectrum as a coarse ASCII table: the maximum |ρ| in
/// each of `bins` rotation bins, with a bar proportional to the value.
///
/// This is the textual stand-in for the paper's Fig. 5 panels: a single
/// bin dominating the rest is "a single significant correlation
/// coefficient can be resolved".
pub fn render_spectrum(spectrum: &SpreadSpectrum, bins: usize) -> String {
    let period = spectrum.period();
    let bins = bins.min(period).max(1);
    let (peak_rotation, peak_value) = spectrum.peak_abs();
    let scale = peak_value.abs().max(1e-12);

    let mut out = String::new();
    for b in 0..bins {
        let start = b * period / bins;
        let end = ((b + 1) * period / bins).max(start + 1);
        let max_abs = spectrum.rho()[start..end]
            .iter()
            .fold(0.0f64, |acc, v| acc.max(v.abs()));
        let bar_len = ((max_abs / scale) * 50.0).round() as usize;
        let marker = if (start..end).contains(&peak_rotation) {
            "  <-- peak"
        } else {
            ""
        };
        out.push_str(&format!(
            "{start:>5}..{end:<5} |{:<50}| {max_abs:.5}{marker}\n",
            "#".repeat(bar_len.min(50))
        ));
    }
    out
}

/// Formats a `true`/`false` bit as the waveform glyphs used by the Fig. 2
/// listing.
pub fn wave(bit: bool) -> char {
    if bit {
        '▔'
    } else {
        '▁'
    }
}

/// Returns true when the process arguments contain `flag`.
pub fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// Summary of a validated Prometheus text-format document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromStats {
    /// Number of sample lines.
    pub samples: usize,
    /// Number of `# TYPE` family declarations.
    pub families: usize,
}

/// Is `name` a valid Prometheus metric name (`[a-zA-Z_:][a-zA-Z0-9_:]*`)?
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parses and consumes a `{label="value",…}` block, returning the rest
/// of the line (the sample value) or an error description.
fn skip_labels(rest: &str) -> Result<&str, String> {
    let mut chars = rest.char_indices();
    loop {
        // Label name up to `=`.
        let mut saw_name = false;
        for (i, c) in chars.by_ref() {
            if c == '=' {
                break;
            }
            if c == '}' && !saw_name {
                // Empty label set `{}`.
                return Ok(&rest[i + 1..]);
            }
            if !(c.is_ascii_alphanumeric() || c == '_') {
                return Err(format!("bad label name character {c:?}"));
            }
            saw_name = true;
        }
        // Quoted value with escapes.
        match chars.next() {
            Some((_, '"')) => {}
            other => return Err(format!("expected opening quote, found {other:?}")),
        }
        let mut escaped = false;
        let mut closed = false;
        for (_, c) in chars.by_ref() {
            if escaped {
                if !matches!(c, '\\' | '"' | 'n') {
                    return Err(format!("bad escape \\{c}"));
                }
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                closed = true;
                break;
            }
        }
        if !closed {
            return Err("unterminated label value".to_owned());
        }
        match chars.next() {
            Some((_, ',')) => continue,
            Some((i, '}')) => return Ok(&rest[i + 1..]),
            other => return Err(format!("expected `,` or `}}`, found {other:?}")),
        }
    }
}

/// Validates Prometheus text exposition (format 0.0.4) as produced by
/// the serve `Metrics` RPC: every line is a comment, a well-formed
/// `# TYPE` declaration, or a sample with a valid metric name, optional
/// label set, and parseable value; no family is TYPE-declared twice;
/// counter samples end in `_total`.
///
/// # Errors
///
/// Returns a description naming the first offending line.
pub fn validate_prometheus_text(text: &str) -> Result<PromStats, String> {
    let mut samples = 0usize;
    let mut families: Vec<String> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            // `# HELP …` and free-form comments are skipped; only
            // `# TYPE name kind` declarations are validated.
            let mut parts = comment.split_whitespace();
            if parts.next() == Some("TYPE") {
                let name = parts
                    .next()
                    .ok_or_else(|| format!("line {n}: TYPE without metric name"))?;
                if !valid_metric_name(name) {
                    return Err(format!("line {n}: invalid metric name `{name}`"));
                }
                let kind = parts
                    .next()
                    .ok_or_else(|| format!("line {n}: TYPE without a kind"))?;
                if !matches!(
                    kind,
                    "counter" | "gauge" | "summary" | "histogram" | "untyped"
                ) {
                    return Err(format!("line {n}: unknown TYPE kind `{kind}`"));
                }
                if kind == "counter" && !name.ends_with("_total") {
                    return Err(format!("line {n}: counter `{name}` must end in _total"));
                }
                if families.iter().any(|f| f == name) {
                    return Err(format!("line {n}: duplicate TYPE for `{name}`"));
                }
                families.push(name.to_owned());
            }
            continue;
        }
        // Sample: name[{labels}] value
        let name_end = line
            .find(['{', ' '])
            .ok_or_else(|| format!("line {n}: sample without a value"))?;
        let name = &line[..name_end];
        if !valid_metric_name(name) {
            return Err(format!("line {n}: invalid metric name `{name}`"));
        }
        let rest = if line[name_end..].starts_with('{') {
            skip_labels(&line[name_end + 1..]).map_err(|e| format!("line {n}: {e}"))?
        } else {
            &line[name_end..]
        };
        let value = rest.trim();
        let value_ok = matches!(value, "NaN" | "+Inf" | "-Inf") || value.parse::<f64>().is_ok();
        if !value_ok {
            return Err(format!("line {n}: unparseable sample value `{value}`"));
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("no samples in exposition text".to_owned());
    }
    Ok(PromStats {
        samples,
        families: families.len(),
    })
}

/// Reads `--reps N` style numeric arguments, with a default.
pub fn arg_value(name: &str, default: usize) -> usize {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                return v;
            }
        }
    }
    default
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockmark::prelude::Detector;

    #[test]
    fn render_marks_the_peak_bin() {
        let pattern = [true, false, false, true, false, true, false];
        let y: Vec<f64> = (0..700)
            .map(|i| if pattern[(i + 3) % 7] { 1.0 } else { 0.0 } + (i % 11) as f64 * 0.01)
            .collect();
        let s = Detector::new(&pattern)
            .expect("valid pattern")
            .spectrum(&y)
            .expect("valid");
        let rendered = render_spectrum(&s, 7);
        assert!(rendered.contains("<-- peak"));
        assert_eq!(rendered.lines().count(), 7);
    }

    #[test]
    fn wave_glyphs() {
        assert_ne!(wave(true), wave(false));
    }

    #[test]
    fn arg_value_falls_back_to_default() {
        assert_eq!(arg_value("--definitely-not-passed", 42), 42);
    }

    #[test]
    fn prometheus_checker_accepts_real_exposition_text() {
        let mut registry = clockmark_obs::Registry::new();
        registry.counter_add("serve.requests", 7);
        registry.gauge_set("serve.uptime_seconds", 12.0);
        registry.observe("serve.request_seconds", 0.002);
        registry.span_complete("serve.detect", 1_000_000);
        let text = clockmark_obs::prometheus_text(&registry.snapshot());
        let stats = validate_prometheus_text(&text).expect("valid");
        assert!(stats.samples >= 7, "{stats:?}");
        assert!(stats.families >= 3, "{stats:?}");
    }

    #[test]
    fn prometheus_checker_rejects_malformations() {
        let cases = [
            ("", "no samples"),
            ("# TYPE clockmark_x_total counter\n", "no samples"),
            ("# TYPE bad.name counter\nbad 1\n", "invalid metric name"),
            (
                "# TYPE clockmark_x widget\nclockmark_x 1\n",
                "unknown TYPE kind",
            ),
            (
                "# TYPE clockmark_x counter\nclockmark_x 1\n",
                "must end in _total",
            ),
            (
                "# TYPE clockmark_x gauge\n# TYPE clockmark_x gauge\nclockmark_x 1\n",
                "duplicate TYPE",
            ),
            ("clockmark_x notanumber\n", "unparseable sample value"),
            ("clockmark_x{l=\"unterminated 1\n", "unterminated"),
            ("clockmark_x{l=\"v\\q\"} 1\n", "bad escape"),
            ("bad.name 1\n", "invalid metric name"),
        ];
        for (text, want) in cases {
            let err = validate_prometheus_text(text).expect_err(text);
            assert!(err.contains(want), "{text:?} -> {err}");
        }
        // Labels, escapes and special values all pass.
        let ok = "clockmark_x{span=\"a\\\"b\\\\c\\nd\",q=\"0.5\"} NaN\nclockmark_y{} +Inf\n";
        assert_eq!(
            validate_prometheus_text(ok),
            Ok(PromStats {
                samples: 2,
                families: 0
            })
        );
    }
}
