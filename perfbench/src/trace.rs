//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public API (no instrumentation inside the crates). A span's name is
//! `<layer>.<call>`; the layer is everything before the first dot. Each
//! span keeps its start, end, parent span and the run id, plus optional
//! numeric arguments (counter deltas taken at the same boundary). The
//! spans stay in memory and are written once, at the end of the run, as
//! Chrome trace-event JSON, which Perfetto and `chrome://tracing` load.
//!
//! When tracing is off every call is a no-op, so the untraced passes pay
//! nothing.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Handle of an open span (`usize::MAX` when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

struct Span {
    name: String,
    parent: Option<usize>,
    start_us: f64,
    end_us: f64,
    args: Vec<(String, f64)>,
}

pub struct Tracer {
    on: bool,
    run_id: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, run_id: String) -> Tracer {
        Tracer {
            on,
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span whose parent is the innermost open span.
    pub fn begin(&mut self, name: &str) -> SpanId {
        if !self.on {
            return SpanId(usize::MAX);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_us: self.now_us(),
            end_us: f64::NAN,
            args: Vec::new(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `span` (which must be the innermost open span) and attaches
    /// `args` to it.
    pub fn end(&mut self, span: SpanId, args: &[(&str, f64)]) {
        if !self.on {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(span.0), "spans must close innermost first");
        let end = self.now_us();
        let s = &mut self.spans[span.0];
        s.end_us = end;
        s.args = args.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id, &[]);
        out
    }

    /// Writes every recorded span as Chrome trace-event JSON (`"X"`
    /// complete events).
    pub fn write_chrome(&self, path: &Path) -> io::Result<()> {
        assert!(self.open.is_empty(), "every span must be closed");
        let mut out = String::new();
        out.push_str("{\"displayTimeUnit\": \"ms\", \"otherData\": {\"run_id\": ");
        push_str_json(&mut out, &self.run_id);
        out.push_str("}, \"traceEvents\": [\n");
        out.push_str(
            "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, \
             \"args\": {\"name\": \"perfbench\"}}",
        );
        for (id, s) in self.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or("");
            out.push_str(",\n{\"name\": ");
            push_str_json(&mut out, &s.name);
            out.push_str(", \"cat\": ");
            push_str_json(&mut out, layer);
            let _ = write!(
                out,
                ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"args\": {{\"span_id\": {id}, \"parent\": {}, \"run_id\": ",
                s.start_us,
                s.end_us - s.start_us,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            );
            push_str_json(&mut out, &self.run_id);
            for (k, v) in &s.args {
                out.push_str(", ");
                push_str_json(&mut out, k);
                let _ = write!(out, ": {}", json_num(*v));
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

/// A JSON number (non-finite values have no JSON form and become `null`).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Appends `s` as a JSON string literal.
pub fn push_str_json(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}
