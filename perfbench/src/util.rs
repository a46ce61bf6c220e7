//! Shared measurement helpers: order statistics, the clock-cost probe,
//! peak memory, machine metadata, a seeded stream, and the metric sink
//! the final JSON line is printed from.

use std::hint::black_box;
use std::time::Instant;

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in [0, 1] of `values` (0 for an
/// empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Cost of one `Instant::now()` in nanoseconds: the median over 21
/// batches of 20 000 reads.
pub fn clock_ns() -> f64 {
    const BATCH: u32 = 20_000;
    let batches: Vec<f64> = (0..21)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..BATCH {
                black_box(Instant::now());
            }
            t.elapsed().as_nanos() as f64 / f64::from(BATCH)
        })
        .collect();
    median(&batches)
}

/// Peak resident set size of this process (VmHWM) in MiB, or `None`
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    format!("\"{}\"", cimon_bench::json::escape(s))
}

/// Machine and build metadata stamped beside every result, so numbers
/// from different machines are never compared unlabelled, with the host
/// speed index and the `measured` values of the scaled metrics.
pub fn metadata(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    clock_ns: f64,
    host_msteps: f64,
    measured: &Metrics,
) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let clocksource =
        std::fs::read_to_string("/sys/devices/system/clocksource/clocksource0/current_clocksource")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string());
    format!(
        "{{\"meta\": {{\"nproc\": {nproc}, \"cpu_model\": {}, \"clocksource\": {}, \"rustc\": {}, \
         \"git_commit\": {}, \"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {}, \"trace.clock_ns\": {clock_ns}, \"host_speed_msteps\": {host_msteps}, \
         \"reference_msteps\": {:?}, \"measured\": {}}}}}",
        json_str(&cpu),
        json_str(&clocksource),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&git_commit()),
        json_str(workload),
        u8::from(trace),
        crate::hostspeed::REFERENCE_MSTEPS,
        measured.json(),
    )
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git (the benchmark may run from an export that has
/// no repository at all, which reads as `unknown`).
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Named metrics in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit));
    }

    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|(n, _, _)| n.as_str()).collect()
    }

    /// Human-readable table, one metric per line.
    pub fn table(&self) -> String {
        self.entries
            .iter()
            .map(|(n, v, u)| format!("  {n:<34} {v:>18.6} {u}\n"))
            .collect()
    }

    /// The `metrics` object of the result line. Non-finite values are
    /// written as -1 so the line stays valid JSON; callers count them
    /// as failures.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { -1.0 };
                format!(
                    "{}: {{\"value\": {v:?}, \"unit\": {}}}",
                    json_str(n),
                    json_str(u)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    pub fn non_finite(&self) -> usize {
        self.entries
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .count()
    }
}

/// Operation accounting for one run: attempted operations, failed ones,
/// and a note per distinct failure for the error stream.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn fail(&mut self, note: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(note.into());
        }
    }

    /// Check `cond`, counting one operation either way.
    pub fn check(&mut self, cond: bool, note: impl FnOnce() -> String) {
        if cond {
            self.ok(1);
        } else {
            self.fail(note());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_python_inclusive_method() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn metrics_json_keeps_all_digits() {
        let mut m = Metrics::default();
        m.put("a.b", 0.1 + 0.2, "s");
        assert_eq!(
            m.json(),
            "{\"a.b\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}}"
        );
    }
}
