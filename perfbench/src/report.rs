//! Metric records, order statistics and the result line.

use std::fmt::Write as _;

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// What one benchmark invocation produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Every output check passed.
    pub correct: bool,
    /// Trials attempted (fresh, replayed from cache, or recomputed for
    /// a check).
    pub attempted: u64,
    /// Trials that failed, including those whose output check failed.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// The outcome digests of the run, one per sweep (spec).
    pub digests: Vec<u64>,
}

impl RunReport {
    /// The value of metric `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The single-line JSON result the benchmark prints last.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN or infinity; a non-finite value is a
            // measurement bug and reads as 0.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation;
/// 0 for an empty sample.
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

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The median of the means of `groups` interleaved groups of `values`:
/// group `g` holds the values at indices `g`, `g + groups`, ... Values
/// taken in time order thus give groups that each span the whole run.
/// On a host whose speed switches between two levels, the plain median
/// of a run's samples jumps from one level to the other as their shares
/// pass one half; each group's mean moves in proportion to the shares,
/// and the median over groups still ignores a single stalled sample.
pub fn median_of_means(values: &[f64], groups: usize) -> f64 {
    let groups = groups.clamp(1, values.len().max(1));
    let means: Vec<f64> = (0..groups)
        .map(|g| {
            let member: Vec<f64> = values.iter().skip(g).step_by(groups).copied().collect();
            ratio(member.iter().sum(), member.len() as f64)
        })
        .collect();
    median(&means)
}

/// The highest of p99.9 / p99 / p90 / p50 that has at least ten
/// samples beyond it, with its label; the maximum when the sample is
/// too small for any of them.
pub fn tail(values: &[f64]) -> (&'static str, f64) {
    // (label, quantile, samples needed for ten beyond it)
    for (label, q, n) in [
        ("p99.9", 0.999, 10_000),
        ("p99", 0.99, 1_000),
        ("p90", 0.9, 100),
        ("p50", 0.5, 20),
    ] {
        if values.len() >= n {
            return (label, quantile(values, q));
        }
    }
    ("max", quantile(values, 1.0))
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_tail_needs_ten_beyond() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(tail(&v), ("max", 5.0));
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&v).0, "p90");
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn median_of_means_follows_shares_and_ignores_one_stall() {
        // Two speed levels, the fast one slightly more often: the
        // median sits on the fast level, the group means between.
        let v = [1.0, 2.0, 1.0, 2.0, 1.0, 1.0, 2.0, 1.0];
        assert_eq!(median(&v), 1.0);
        assert_eq!(median_of_means(&v, 2), 1.375);
        // A stall moves one group's mean only.
        let v = [1.0, 1.0, 1.0, 1.0, 1.0, 9.0];
        assert_eq!(median_of_means(&v, 3), 1.0);
        assert_eq!(median_of_means(&[], 4), 0.0);
        assert_eq!(median_of_means(&[2.0], 4), 2.0);
    }

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let r = RunReport {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "setup_s",
                unit: "s",
                value: 0.25,
            }],
            digests: vec![],
        };
        assert_eq!(
            r.json_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
