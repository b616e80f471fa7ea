//! Result collection and the output format: named metrics with units, the
//! correctness verdict, the run context, and the small statistics and
//! hashing helpers the workloads share.

use std::fmt::Write as _;

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports: metrics in emission order, operation
/// counts, failed correctness gates and context lines.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Printed with the metrics but not part of the result object.
    pub info: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub gate_failures: Vec<String>,
    pub context: Vec<(&'static str, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn info(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.info.push(Metric { name, value, unit });
    }

    /// Records a correctness gate; a failed gate makes the run incorrect.
    pub fn gate(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.gate_failures.push(what.into());
        }
    }

    pub fn context(&mut self, key: &'static str, value: impl ToString) {
        self.context.push((key, value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Human-readable lines: the context, then every metric with its unit.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.context {
            let _ = writeln!(out, "# {k}: {v}");
        }
        for m in self.metrics.iter().chain(&self.info) {
            let _ = writeln!(out, "{:<32} {:>18} {}", m.name, fmt_num(m.value), m.unit);
        }
        for g in &self.gate_failures {
            let _ = writeln!(out, "GATE FAILED: {g}");
        }
        out
    }

    /// The one-line JSON result object.
    pub fn json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() {
                fmt_num(m.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Full-precision number formatting (shortest round-trip form).
fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p ∈ [0, 100]` of an ascending slice; 0 if empty.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// FNV-1a over 32-bit words; the walk and embedding fingerprints.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, x: u32) {
        self.0 ^= u64::from(x);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`, Linux).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the checkout was made from, read from `.git` without
/// running git; `unknown` outside a git work tree.
pub fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
    }

    #[test]
    fn json_keeps_full_precision() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("a.b", 1.234_567_890_123, "s");
        r.metric("n", 42.0, "count");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a.b\": {\"value\": 1.234567890123, \"unit\": \"s\"}, \
             \"n\": {\"value\": 42, \"unit\": \"count\"}}}"
        );
    }
}
