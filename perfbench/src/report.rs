//! Metric collection, summary statistics, correctness gates and the
//! result line.

use crate::trace::{json_num, push_str_json};
use std::fmt::Write as _;

/// Which list of `BENCHMARK.json` a metric belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Printed by untraced runs (`--trace 0`).
    EndToEnd,
    /// Printed by traced runs (`--trace 1`).
    Layer,
    /// Printed in the stamp only, in either mode: numbers that only some
    /// workloads have. `BENCHMARK.json` lists only metrics that every
    /// workload reports, so these cannot be in it.
    Detail,
}

struct Metric {
    name: String,
    unit: &'static str,
    kind: Kind,
    value: f64,
    /// One value per repeat, summarised in the stamp.
    samples: Vec<f64>,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    /// Calls into the system under test.
    pub attempted: u64,
    /// Calls that failed (an error, or a route that missed its owner).
    pub failed: u64,
    /// Free-form labels stamped on the result (kernel tiers, trace file).
    labels: Vec<(String, String)>,
}

impl Report {
    /// Records a metric measured once per repeat; its value is the median.
    pub fn add(&mut self, kind: Kind, name: &str, unit: &'static str, samples: Vec<f64>) {
        let value = median(&samples);
        self.push(kind, name, unit, value, samples);
    }

    /// Records a metric measured once per repeat; its value is `best` of
    /// the samples: `max` or `min` where every repeat does the same work
    /// (interference from other tenants of the host only ever makes a
    /// repeat worse), a quantile where the repeats differ.
    pub fn add_best(
        &mut self,
        kind: Kind,
        name: &str,
        unit: &'static str,
        samples: Vec<f64>,
        best: fn(&[f64]) -> f64,
    ) {
        let value = best(&samples);
        self.push(kind, name, unit, value, samples);
    }

    fn push(&mut self, kind: Kind, name: &str, unit: &'static str, value: f64, samples: Vec<f64>) {
        assert!(!samples.is_empty(), "metric {name} has no samples");
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            kind,
            value,
            samples,
        });
    }

    /// Records a metric with a single value.
    pub fn one(&mut self, kind: Kind, name: &str, unit: &'static str, value: f64) {
        self.add(kind, name, unit, vec![value]);
    }

    pub fn label(&mut self, key: &str, value: impl Into<String>) {
        self.labels.push((key.to_string(), value.into()));
    }

    /// The result as one JSON line: the four keys the benchmark contract
    /// names, plus a `stamp` object that `run.py` moves to its own line.
    pub fn to_json(&self, kind: Kind, stamp: &[(&str, String)]) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        let mut first = true;
        for m in self.metrics.iter().filter(|m| m.kind == kind) {
            if !first {
                out.push_str(", ");
            }
            first = false;
            push_str_json(&mut out, &m.name);
            let _ = write!(out, ": {{\"value\": {}, \"unit\": ", json_num(m.value));
            push_str_json(&mut out, m.unit);
            out.push('}');
        }
        out.push_str("}, \"stamp\": {");
        for (k, v) in stamp {
            push_str_json(&mut out, k);
            let _ = write!(out, ": {v}, ");
        }
        out.push_str("\"labels\": {");
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_str_json(&mut out, k);
            out.push_str(": ");
            push_str_json(&mut out, v);
        }
        out.push_str("}, \"details\": {");
        let mut first = true;
        for m in self.metrics.iter().filter(|m| m.kind == Kind::Detail) {
            if !first {
                out.push_str(", ");
            }
            first = false;
            push_str_json(&mut out, &m.name);
            let _ = write!(out, ": {{\"value\": {}, \"unit\": ", json_num(m.value));
            push_str_json(&mut out, m.unit);
            out.push('}');
        }
        out.push_str("}, \"summary\": {");
        let mut first = true;
        let shown = |m: &&Metric| m.kind == kind || m.kind == Kind::Detail;
        for m in self.metrics.iter().filter(shown) {
            if !first {
                out.push_str(", ");
            }
            first = false;
            let [q1, q2, q3] = quartiles(&m.samples);
            push_str_json(&mut out, &m.name);
            let _ = write!(
                out,
                ": {{\"repeats\": {}, \"min\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"max\": {}}}",
                m.samples.len(),
                json_num(min(&m.samples)),
                json_num(q1),
                json_num(q2),
                json_num(q3),
                json_num(max(&m.samples)),
            );
        }
        out.push_str("}}}");
        out
    }

    /// Fails the run if any reported value is not a finite number.
    pub fn check_finite(&self) {
        for m in &self.metrics {
            check(
                "finite-metrics",
                m.samples.iter().all(|v| v.is_finite()),
                || format!("{} has a non-finite sample: {:?}", m.name, m.samples),
            );
        }
    }
}

/// Unwraps `r`, failing the check named `name` on an error.
pub fn must<T, E: std::fmt::Display>(name: &str, r: Result<T, E>) -> T {
    r.unwrap_or_else(|e| fail(name, e.to_string()))
}

/// A correctness gate: on failure, names the check and exits non-zero
/// without printing a result.
pub fn check(name: &str, ok: bool, detail: impl FnOnce() -> String) {
    if !ok {
        fail(name, detail());
    }
}

fn fail(name: &str, detail: String) -> ! {
    eprintln!("perfbench: check failed: {name}: {detail}");
    std::process::exit(3);
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Linear-interpolated quantile of `xs` (`q` in `[0, 1]`).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let v = sorted(xs);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

fn quartiles(xs: &[f64]) -> [f64; 3] {
    [quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)]
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    check("peak-rss-readable", kb > 0.0, || {
        "VmHWM missing from /proc/self/status".to_string()
    });
    kb / 1024.0
}
