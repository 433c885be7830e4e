//! Statistics, the metric record, and the one-line JSON result.

use std::fmt::Write as _;
use std::time::Instant;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit (`s`, `us`, `1/s`, `count`, …).
    pub unit: &'static str,
    /// Samples the value summarises.
    pub samples: usize,
    /// What the number should move: the end-to-end metric and workload
    /// a per-layer metric maps to (empty for end-to-end metrics).
    pub maps_to: &'static str,
}

impl Metric {
    /// A metric that maps to nothing (end-to-end, or a check figure).
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
            samples,
            maps_to: "",
        }
    }

    /// A per-layer metric and the end-to-end metric it should move.
    pub fn layer(
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
        maps_to: &'static str,
    ) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
            samples,
            maps_to,
        }
    }
}

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `v` (sorted in place); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest of `p` and the lower of p90/p50 that leaves at least
/// ten of `n` samples beyond it, so a tail figure is never read off a
/// handful of samples.
pub fn tail_percentile(p: f64, n: usize) -> f64 {
    [p, 90.0, 50.0]
        .into_iter()
        .find(|q| *q <= p && n as f64 * (1.0 - q / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

/// Latency samples cut into slices of a run: a round, or a second of a
/// time-bound loop, or [`SLICE_CAP`] samples. Each slice's percentiles
/// are taken on their own and the run reports their means, so a host
/// that changes speed during a run blends into the figure instead of
/// flipping it, and the memory the samples take does not grow with the
/// host's speed.
#[derive(Debug, Default)]
pub struct Slices {
    cur: Vec<f64>,
    /// p50, p90 and p99 of each closed slice.
    closed: Vec<[f64; 3]>,
    samples: usize,
}

/// Samples in one slice, at most.
pub const SLICE_CAP: usize = 1 << 14;

impl Slices {
    /// Adds a sample to the open slice, closing it when full.
    pub fn push(&mut self, v: f64) {
        if self.cur.capacity() == 0 {
            self.cur.reserve_exact(SLICE_CAP);
        }
        self.cur.push(v);
        if self.cur.len() == SLICE_CAP {
            self.close();
        }
    }

    /// Closes the open slice, if it holds samples.
    pub fn close(&mut self) {
        let n = self.cur.len();
        if n == 0 {
            return;
        }
        self.samples += n;
        let cur = &mut self.cur;
        let [p50, p90, p99] = [50.0, 90.0, 99.0].map(|p| percentile(cur, tail_percentile(p, n)));
        self.closed.push([p50, p90, p99]);
        cur.clear();
    }

    /// Takes over `other`'s slices.
    pub fn absorb(&mut self, mut other: Slices) {
        other.close();
        self.closed.extend(other.closed);
        self.samples += other.samples;
    }

    /// Mean over slices of the slice median.
    pub fn p50(&self) -> f64 {
        self.mean(0)
    }

    /// Mean over slices of the slice p90 (see [`tail_percentile`]).
    pub fn p90(&self) -> f64 {
        self.mean(1)
    }

    /// Mean over slices of the slice p99 (see [`tail_percentile`]).
    pub fn p99(&self) -> f64 {
        self.mean(2)
    }

    fn mean(&self, k: usize) -> f64 {
        if self.closed.is_empty() {
            return 0.0;
        }
        self.closed.iter().map(|c| c[k]).sum::<f64>() / self.closed.len() as f64
    }

    /// Samples in closed slices.
    pub fn samples(&self) -> usize {
        self.samples
    }
}

/// Set-ups timed per run; the median is reported.
pub const SETUPS: usize = 21;

/// Builds with `setup` [`SETUPS`] times, timing each, and returns the
/// last build and the times.
pub fn timed_setups<T>(setup: impl Fn() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let t = Instant::now();
        built = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (built.expect("SETUPS is not zero"), times)
}

/// Appends the five end-to-end metrics every workload reports: the
/// median set-up time, successful operations per second of measured
/// time, the request latency median and 90th percentile, and peak
/// memory. The 90th, not the 99th: on a shared host the 99th of a
/// run moves with the neighbours more than with the program.
pub fn end_to_end(out: &mut Outcome, setups: &mut [f64], ok_ops: u64, busy_s: f64, lat: &Slices) {
    out.metrics.extend([
        Metric::new("setup_s", median(setups), "s", setups.len()),
        Metric::new("ops_per_s", ok_ops as f64 / busy_s, "1/s", ok_ops as usize),
        Metric::new("p50_us", lat.p50(), "us", lat.samples()),
        Metric::new("p90_us", lat.p90(), "us", lat.samples()),
        Metric::new("rss_mb", peak_rss_mb(), "MiB", 1),
    ]);
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Attempted operations that failed or never completed.
    pub failed: u64,
    /// Output-check failures; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records a failed output check (kept to the first few messages).
    pub fn error(&mut self, msg: String) {
        if self.errors.len() < 8 {
            self.errors.push(msg);
        } else if self.errors.len() == 8 {
            self.errors.push("… further check failures omitted".into());
        }
    }

    /// Folds `other` into `self`.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            self.error(e);
        }
        self.metrics.extend(other.metrics);
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric as `{"value", "unit"}`.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// True when every output check passed and every value is finite.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }
}

fn json_num(v: f64) -> String {
    if !v.is_finite() {
        return "null".into();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 4.0]), 2.5);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
    }

    #[test]
    fn slices_average_their_medians() {
        let mut s = Slices::default();
        [1.0, 2.0, 3.0].into_iter().for_each(|v| s.push(v));
        s.close();
        s.close();
        let mut other = Slices::default();
        other.push(10.0);
        s.absorb(other);
        assert_eq!(s.p50(), 6.0);
        assert_eq!(s.p99(), 6.0, "slices this small fall back to the median");
        assert_eq!(s.samples(), 4);
        let mut big = Slices::default();
        (0..SLICE_CAP + 1).for_each(|i| big.push(i as f64));
        big.close();
        assert_eq!(big.samples(), SLICE_CAP + 1);
        assert_eq!(big.closed.len(), 2, "a full slice closes itself");
        assert_eq!(tail_percentile(99.0, 1000), 99.0);
        assert_eq!(tail_percentile(99.0, 999), 90.0);
        assert_eq!(tail_percentile(90.0, 50), 50.0);
    }

    #[test]
    fn json_has_exactly_the_result_keys() {
        let mut o = Outcome {
            attempted: 3,
            failed: 1,
            ..Outcome::default()
        };
        o.metrics.push(Metric::new("setup_s", 0.25, "s", 5));
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        o.error("bad".into());
        assert!(!o.correct());
        o.errors.clear();
        o.metrics.push(Metric::new("x", f64::NAN, "s", 1));
        assert!(!o.correct(), "a non-finite value is never a result");
    }
}
