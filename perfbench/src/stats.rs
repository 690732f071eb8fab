//! Order statistics, the result line, and readers for `/proc`.

use std::fmt::Write as _;
use std::time::Instant;

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        let only = data.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let (n, m) = (4usize, ld + 1);
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile of an ascending sample; `q` in `[0, 1]`.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// `/proc/<pid>/status` field in kB, as MB (`VmHWM` is the peak RSS).
pub fn proc_status_mb(pid: u32, field: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|line| line.starts_with(field))?;
    let kb: f64 = line[field.len()..]
        .trim_start_matches(':')
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Microseconds per clock tick of `/proc/<pid>/stat` (USER_HZ is 100 on
/// every Linux architecture this benchmark runs on).
pub const TICK_US: f64 = 10_000.0;

/// User plus system CPU of a process, in clock ticks.
pub fn cpu_ticks(pid: u32) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may hold spaces; fields restart after its ')'.
    let rest = &text[text.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the whole line.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Host-wide CPU time from `/proc/stat`, in clock ticks: the time the
/// hypervisor ran something else on this VM's vCPUs (steal) and the total.
pub fn cpu_steal() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = text
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|field| field.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// The filesystem type of the mount that holds `path`.
pub fn filesystem_of(path: &std::path::Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_owned();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".to_owned();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let _device = fields.next()?;
            let point = fields.next()?;
            let fstype = fields.next()?;
            path.starts_with(point)
                .then(|| (point.len(), fstype.to_owned()))
        })
        .max()
        .map(|(_, fstype)| fstype)
        .unwrap_or_else(|| "unknown".to_owned())
}

/// What one run reports: the result line's counters and its metrics.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, String)>,
}

impl Report {
    /// Records a metric. Every value must be a finite number.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        if !value.is_finite() {
            self.fail(format!("metric {name} is not a finite number ({value})"));
            return;
        }
        println!("metric {name} = {value} {unit}");
        self.metrics.push((name.to_owned(), value, unit.to_owned()));
    }

    /// Counts one failed operation or check and says why (the first 20).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failed <= 20 {
            println!("FAILED: {why}");
        }
    }

    /// Records a check: counts it as attempted, and as failed when false.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }

    /// Keeps exactly the `expected` `(name, unit)` metrics, in that order.
    /// A missing one reads 0 when `zero_missing` holds (a layer the
    /// workload does not exercise did no work) and is a failure otherwise,
    /// as is a unit that differs from the expected one. Metrics not
    /// expected were printed when recorded and leave the result line.
    pub fn conform(&mut self, expected: &[(String, String)], zero_missing: bool) {
        let mut recorded = std::mem::take(&mut self.metrics);
        for (name, unit) in expected {
            match recorded.iter().position(|(n, _, _)| n == name) {
                Some(at) => {
                    let metric = recorded.swap_remove(at);
                    if metric.2 != *unit {
                        self.fail(format!("metric {name} is in {}, not {unit}", metric.2));
                    }
                    self.metrics.push(metric);
                }
                None if zero_missing => {
                    println!("metric {name} = 0 {unit} (layer not exercised by this workload)");
                    self.metrics.push((name.clone(), 0.0, unit.clone()));
                }
                None => self.fail(format!("metric {name} was not measured")),
            }
        }
    }

    /// The result line: the last line the benchmark prints.
    pub fn result_line(&self) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                line,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        line.push_str("}}");
        line
    }
}

/// Reads the metrics back out of a result line (the spread mode's input).
pub fn parse_result_metrics(line: &str) -> Vec<(String, f64, String)> {
    let Some(start) = line.find("\"metrics\": {") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut rest = &line[start + 12..];
    while let Some(open) = rest.find('"') {
        rest = &rest[open + 1..];
        let Some(close) = rest.find('"') else { break };
        let name = rest[..close].to_owned();
        let Some(value_at) = rest.find("\"value\": ") else {
            break;
        };
        rest = &rest[value_at + 9..];
        let end = rest.find(',').unwrap_or(rest.len());
        let value: f64 = rest[..end].trim().parse().unwrap_or(f64::NAN);
        let Some(unit_at) = rest.find("\"unit\": \"") else {
            break;
        };
        rest = &rest[unit_at + 9..];
        let unit_end = rest.find('"').unwrap_or(rest.len());
        let unit = rest[..unit_end].to_owned();
        rest = &rest[unit_end..];
        if let Some(next) = rest.find('}') {
            rest = &rest[next + 1..];
        }
        out.push((name, value, unit));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 8.25));
    }

    #[test]
    fn result_line_round_trips() {
        let mut report = Report {
            attempted: 3,
            ..Report::default()
        };
        report.metric("setup_s", 0.25, "s");
        report.metric("latency_p50_ms", 81.5, "ms");
        let parsed = parse_result_metrics(&report.result_line());
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[1].0, "latency_p50_ms");
        assert_eq!(parsed[1].1, 81.5);
    }
}
