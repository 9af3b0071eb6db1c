//! The result format: named metrics with units, correctness gates, the run
//! environment, and the JSON lines the benchmark prints.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// One correctness check and its outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Evidence either way.
    pub detail: String,
}

/// Appends `s` to `out` as a JSON string.
pub fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` to `out` as a JSON number with every digit of its shortest
/// round-trip form (`null` when not finite).
pub fn json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// A JSON object assembled field by field.
#[derive(Debug, Default, Clone)]
pub struct JsonObject {
    body: String,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        json_str(&mut self.body, key);
        self.body.push(':');
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        json_str(&mut self.body, value);
        self
    }

    /// Adds a number field.
    pub fn num(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        json_f64(&mut self.body, value);
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        let _ = write!(self.body, "{value}");
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.key(key);
        self.body.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a field holding already-encoded JSON.
    pub fn raw(mut self, key: &str, json: &str) -> Self {
        self.key(key);
        self.body.push_str(json);
        self
    }

    /// The encoded object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// Encodes `metrics` as `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .fold(JsonObject::new(), |obj, m| {
            let inner = JsonObject::new()
                .num("value", m.value)
                .str("unit", &m.unit)
                .finish();
            obj.raw(&m.name, &inner)
        })
        .finish()
}

/// Encodes `gates` as a JSON array.
pub fn gates_json(gates: &[Gate]) -> String {
    let items: Vec<String> = gates
        .iter()
        .map(|g| {
            JsonObject::new()
                .str("name", &g.name)
                .bool("ok", g.ok)
                .str("detail", &g.detail)
                .finish()
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    JsonObject::new()
        .bool("correct", correct)
        .int("attempted", attempted)
        .int("failed", failed)
        .raw("metrics", &metrics_json(metrics))
        .finish()
}
