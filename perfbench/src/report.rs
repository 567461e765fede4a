//! Run results: metrics with units, operation accounting, notes, and the
//! final JSON line; plus the small statistics and text-parsing helpers
//! the workloads share.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Why an operation failed.
#[derive(Debug)]
pub enum Fail {
    /// An error frame, or no reply at all.
    Unanswered(String),
    /// A reply that fails client-side verification: a wrong answer.
    Wrong(String),
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    /// Wrong answers and broken invariants, each of which fails the run.
    wrong: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    /// Counts one operation. Every failure counts as failed; a wrong
    /// answer also fails the run.
    pub fn op(&mut self, outcome: Result<(), Fail>) {
        self.attempted += 1;
        match outcome {
            Ok(()) => {}
            Err(Fail::Unanswered(why)) => {
                self.failed += 1;
                if self.failed <= 10 {
                    eprintln!("perfbench: operation failed: {why}");
                }
            }
            Err(Fail::Wrong(why)) => {
                self.failed += 1;
                self.wrong(why);
            }
        }
    }

    /// Records a broken invariant: the run is reported as incorrect.
    pub fn wrong(&mut self, why: String) {
        eprintln!("perfbench: check failed: {why}");
        self.wrong.push(why);
    }

    /// Checks `cond`, recording `why` as a broken invariant if it fails.
    pub fn check(&mut self, cond: bool, why: impl FnOnce() -> String) {
        if !cond {
            self.wrong(why());
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        debug_assert!(self.metrics.iter().all(|(n, _, _)| n != name), "metric {name} set twice");
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records the median of `samples` as `name`, noting every sample.
    pub fn median_metric(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        if samples.len() > 1 {
            self.note(format!("{name} samples: {samples:.4?}"));
        }
        self.metric(name, median(samples), unit);
    }

    /// Records the mean of `samples` as `name`, noting every sample. For
    /// samples taken at different times in a run: this host's speed
    /// switches between two levels, and a mean moves with the share of
    /// samples taken at each where a median jumps from one to the other.
    pub fn mean_metric(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        if samples.len() > 1 {
            self.note(format!("{name} samples: {samples:.4?}"));
        }
        self.metric(name, mean(samples), unit);
    }

    /// A human-readable line printed before the result (not parsed).
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn correct(&self) -> bool {
        self.wrong.is_empty()
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Prints the notes, then the result object as the last stdout line.
    pub fn print(&self) {
        for n in &self.notes {
            println!("# {n}");
        }
        for (name, value, unit) in &self.metrics {
            println!("# {name} = {value:.6} {unit}");
        }
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            );
        }
        out.push_str("}}");
        println!("{out}");
    }
}

/// A finite JSON number with all its digits (non-finite values, which no
/// metric should produce, print as 0 and are flagged on stderr).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        eprintln!("perfbench: non-finite metric value {v}");
        "0".to_string()
    }
}

/// Nearest-rank quantile of an ascending slice (`q` in (0, 1]).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let k = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[k - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Throughput and latency of a measured phase: operations over its wall
/// time, and the p50 and p90 of every operation's latency. Both pool the
/// whole phase. This host's speed switches between a fast and a slow
/// level for seconds at a time; a median over blocks of the phase flips
/// with it, while a pooled figure moves only with the share of the phase
/// spent at each level.
#[derive(Debug, Default)]
pub struct Measured {
    ops: usize,
    wall_s: f64,
    latency_ms: Vec<f64>,
}

impl Measured {
    /// Adds `ops` operations done in `wall_s` seconds, with one latency
    /// sample (ms) per measured operation.
    pub fn add(&mut self, ops: usize, wall_s: f64, latency_ms: &[f64]) {
        self.ops += ops;
        self.wall_s += wall_s;
        self.latency_ms.extend_from_slice(latency_ms);
    }

    /// Reports `throughput_ops_s`, `latency_p50_ms` and `latency_p90_ms`,
    /// noting how many samples lie beyond the p90 (the work per run is
    /// sized for at least ten).
    pub fn report(&self, r: &mut Report) {
        if self.latency_ms.is_empty() {
            return r.wrong("no measured operation completed".into());
        }
        let mut v = self.latency_ms.clone();
        v.sort_by(f64::total_cmp);
        let beyond = v.len() - (0.9 * v.len() as f64).ceil() as usize;
        r.metric("throughput_ops_s", self.ops as f64 / self.wall_s, "1/s");
        r.metric("latency_p50_ms", quantile(&v, 0.5), "ms");
        r.metric("latency_p90_ms", quantile(&v, 0.9), "ms");
        r.note(format!("{} latency samples, {beyond} beyond the p90", v.len()));
        if beyond < 10 {
            r.note("latency_p90_ms has fewer than 10 samples beyond it".into());
        }
    }
}

/// Parses a flat JSON object of numbers (the `Stats` frame body).
pub fn parse_flat_json(json: &str) -> BTreeMap<String, f64> {
    json.trim()
        .trim_start_matches('{')
        .trim_end_matches('}')
        .split(',')
        .filter_map(|kv| {
            let (k, v) = kv.split_once(':')?;
            Some((k.trim().trim_matches('"').to_string(), v.trim().parse().ok()?))
        })
        .collect()
}

/// The unsigned integer after `"key":` in `s`.
pub fn json_u64(s: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &s[s.find(&pat)? + pat.len()..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The string after `"key":"` in `s`.
pub fn json_str<'a>(s: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let rest = &s[s.find(&pat)? + pat.len()..];
    Some(&rest[..rest.find('"')?])
}

/// The value of VmHWM (peak resident set) of process `pid`, in MB.
pub fn vm_hwm_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .unwrap_or_else(|e| panic!("cannot read /proc/{pid}/status: {e}"));
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc status");
    kb / 1024.0
}
