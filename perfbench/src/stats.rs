//! Sample summaries and the result record every workload fills.

use std::time::Duration;

use crate::common::Rng;

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Fewest samples of an op type an untraced timed phase collects: enough
/// for the tail to be p75 or higher, never the median itself.
pub const MIN_SAMPLES: usize = 4 * TAIL_MIN_BEYOND;

/// Nearest-rank percentile of ascending `sorted` (1-based rank
/// `ceil(p/100 * n)`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`] of `n`
/// samples beyond its nearest rank; p50 when even that has fewer.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|&p| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            n.saturating_sub(rank) >= TAIL_MIN_BEYOND
        })
        .unwrap_or(50.0)
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Samples a [`Latencies`] keeps. Its memory is claimed up front, so
/// the benchmark's own bookkeeping adds the same to `peak_rss_mb` however
/// many ops a run completes.
pub const RESERVOIR: usize = 1 << 14;

/// Latency samples of one op type, in milliseconds: every sample up to
/// [`RESERVOIR`], then a uniform reservoir sample of all of them.
#[derive(Debug)]
pub struct Latencies {
    kept: Vec<f64>,
    len: usize,
    seen: u64,
    rng: Rng,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            // NaN, not zero: zeroed pages would stay unmapped until used.
            kept: vec![f64::NAN; RESERVOIR],
            len: 0,
            seen: 0,
            rng: Rng::new(RESERVOIR as u64, 0),
        }
    }
}

impl Latencies {
    pub fn push(&mut self, d: Duration) {
        let ms = d.as_secs_f64() * 1e3;
        self.seen += 1;
        if self.len < RESERVOIR {
            self.kept[self.len] = ms;
            self.len += 1;
        } else if let Some(slot) = self.kept.get_mut(self.rng.below(self.seen) as usize) {
            *slot = ms;
        }
    }

    /// Ops timed (samples seen, kept or not).
    pub fn len(&self) -> usize {
        self.seen as usize
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.kept[..self.len].to_vec();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn p50(&self) -> f64 {
        percentile(&self.sorted(), 50.0)
    }

    /// `(p50, tail percentile, tail value)` over the kept samples.
    pub fn summary(&self) -> (f64, f64, f64) {
        let v = self.sorted();
        let tail = tail_percentile(v.len());
        (percentile(&v, 50.0), tail, percentile(&v, tail))
    }
}

/// One workload run's outcome: metrics, op counts and checks.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Record `<prefix>_p50_ms` and `<prefix>_tail_ms`, printing the
    /// tail's percentile and the sample count.
    pub fn latency(&mut self, prefix: &str, samples: &Latencies) {
        let (p50, tail_p, tail) = samples.summary();
        println!(
            "  {prefix}: {} samples ({} kept), p50 {p50:.6} ms, p{tail_p} {tail:.6} ms",
            samples.len(),
            samples.len().min(RESERVOIR)
        );
        self.metric(&format!("{prefix}_p50_ms"), p50, "ms");
        self.metric(&format!("{prefix}_tail_ms"), tail, "ms");
    }

    /// A correctness or intended-work check; a failing one makes the run
    /// incorrect and the process exit non-zero.
    pub fn check(&mut self, what: &str, ok: bool, detail: impl std::fmt::Display) {
        if !ok {
            self.failures.push(format!("{what}: {detail}"));
        }
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.attempted > 0
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// Keep exactly the `wanted` metrics, in that order. A missing one
    /// reads 0 when `zero_missing` (a layer the workload does not touch)
    /// and fails the run otherwise.
    pub fn keep(&mut self, wanted: &[(&str, &'static str)], zero_missing: bool) {
        let mut kept = Vec::new();
        for &(name, unit) in wanted {
            match self.metrics.iter().find(|(n, _, _)| n == name) {
                Some(&(_, value, u)) => {
                    self.check("metric unit", u == unit, format!("{name}: {u} != {unit}"));
                    kept.push((name.to_string(), value, unit));
                }
                None if zero_missing => kept.push((name.to_string(), 0.0, unit)),
                None => {
                    self.check("metric present", false, name);
                    kept.push((name.to_string(), 0.0, unit));
                }
            }
        }
        self.metrics = kept;
    }

    pub fn names(&self) -> Vec<(&str, &'static str)> {
        self.metrics
            .iter()
            .map(|(n, _, u)| (n.as_str(), *u))
            .collect()
    }

    /// Print every metric with its unit, the failed checks, then the
    /// one-line JSON result as the last line of standard output.
    pub fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("metric {name} = {value:.6} {unit}");
        }
        for f in &self.failures {
            println!("CHECK FAILED {f}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_ladder_step_with_ten_samples_beyond() {
        // p99 of 1000 is rank 990: exactly 10 beyond.
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        // p95 of 200 is rank 190: 10 beyond.
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(20), 50.0);
        // Too few for any step: the median is the floor.
        assert_eq!(tail_percentile(5), 50.0);
        assert!(tail_percentile(MIN_SAMPLES) >= 75.0);
        for n in MIN_SAMPLES..3000 {
            let p = tail_percentile(n);
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            assert!(n - rank >= TAIL_MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn the_reservoir_keeps_a_bounded_uniform_sample() {
        let mut lat = Latencies::default();
        let n = 10 * RESERVOIR as u64;
        for us in 0..n {
            lat.push(Duration::from_micros(us));
        }
        assert_eq!(lat.len(), n as usize);
        assert_eq!(lat.kept.len(), RESERVOIR);
        // The median of 0..n µs is n/2 µs; a uniform sample lands close.
        let p50_us = lat.p50() * 1e3;
        let want = n as f64 / 2.0;
        assert!((p50_us - want).abs() < 0.02 * want, "{p50_us} vs {want}");
    }

    #[test]
    fn small_times_keep_their_digits() {
        let mut r = Report::default();
        r.metric("latency_p50_ms", 0.054, "ms");
        r.attempted = 1;
        let line = format!("{:?}", r.get("latency_p50_ms").unwrap());
        assert_eq!(line, "0.054");
        assert!(format!("{:.6}", 0.054_f64).starts_with("0.054"));
    }
}
