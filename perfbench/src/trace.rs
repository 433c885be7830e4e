//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span is timed from the benchmark's side of a public call: the
//! program itself carries no spans. Each layer keeps its call count,
//! total time and, where a percentile is reported, every span's
//! duration; nothing is written until the traced pass ends. A layer's
//! self time is its span total minus the time of the layers nested
//! inside it, which the caller subtracts (see [`LayerSplit`]).

use std::time::{Duration, Instant};

use crate::report::{Metric, Outcome};

/// How far the layer self times may fall short of (or exceed) the
/// traced pass's wall time, as a share of it.
pub const CLOSURE_BOUND: f64 = 0.10;

/// Spans of one layer.
#[derive(Debug, Default)]
pub struct Layer {
    /// Sum of the span durations.
    pub ns: u64,
    /// Every duration, when the layer keeps samples.
    pub samples: Option<Vec<f64>>,
}

/// The span recorder of one traced pass.
pub struct Tracer {
    layers: Vec<Layer>,
}

impl Tracer {
    /// A recorder for `layers` layers; those listed in `sampled` keep
    /// every span's duration.
    pub fn new(layers: usize, sampled: &[usize]) -> Self {
        let layers = (0..layers)
            .map(|i| Layer {
                samples: sampled.contains(&i).then(Vec::new),
                ..Layer::default()
            })
            .collect();
        Self { layers }
    }

    /// Runs `f` as one span of `layer`.
    #[inline]
    pub fn span<R>(&mut self, layer: usize, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.record(layer, t.elapsed());
        r
    }

    /// Records a span of `layer` from `*last` to now, and moves `*last`
    /// to now: back-to-back calls then cost one clock read each, and the
    /// loop code between two calls is charged to the second.
    #[inline]
    pub fn lap(&mut self, layer: usize, last: &mut Instant) {
        let now = Instant::now();
        self.record(layer, now - *last);
        *last = now;
    }

    /// Records one span of `layer` that took `d`.
    #[inline]
    pub fn record(&mut self, layer: usize, d: Duration) {
        let l = &mut self.layers[layer];
        let ns = d.as_nanos() as u64;
        l.ns += ns;
        if let Some(s) = &mut l.samples {
            s.push(ns as f64);
        }
    }

    /// The spans of `layer`.
    pub fn layer(&mut self, layer: usize) -> &mut Layer {
        &mut self.layers[layer]
    }
}

/// The self times of one traced pass, checked against its wall time.
pub struct LayerSplit {
    /// Workload the pass ran.
    pub workload: &'static str,
    /// `(layer name, self time)` for every layer of the pass.
    pub self_ns: Vec<(&'static str, u64)>,
    /// Wall time of the traced pass.
    pub traced_wall: Duration,
    /// Wall time of the untraced pass over the same inputs.
    pub untraced_wall: Duration,
    /// Operations the traced pass ran.
    pub ops: u64,
}

impl LayerSplit {
    /// Reports each layer's self time per operation, the closure error
    /// and the tracing overhead; fails the run when the self times do
    /// not close within [`CLOSURE_BOUND`].
    pub fn report(&self, out: &mut Outcome) {
        let wall = self.traced_wall.as_nanos() as f64;
        let sum: u64 = self.self_ns.iter().map(|(_, ns)| ns).sum();
        for (name, ns) in &self.self_ns {
            out.metrics.push(Metric::layer(
                format!("{}.self_ns_per_op.{name}", self.workload),
                *ns as f64 / self.ops.max(1) as f64,
                "ns",
                self.ops as usize,
                "ops_per_s and p50_us on this workload",
            ));
        }
        let closure = (wall - sum as f64) / wall;
        out.metrics.push(Metric::new(
            format!("{}.trace_closure_err", self.workload),
            closure.abs(),
            "ratio",
            self.self_ns.len(),
        ));
        if closure.abs() > CLOSURE_BOUND {
            out.error(format!(
                "{}: layer self times cover {:.1}% of the traced wall time (bound ±{:.0}%)",
                self.workload,
                100.0 * sum as f64 / wall,
                100.0 * CLOSURE_BOUND
            ));
        }
        let untraced = self.untraced_wall.as_secs_f64();
        out.metrics.push(Metric::new(
            format!("{}.trace_overhead_s", self.workload),
            self.traced_wall.as_secs_f64() - untraced,
            "s",
            1,
        ));
        out.metrics.push(Metric::new(
            format!("{}.trace_overhead_ratio", self.workload),
            self.traced_wall.as_secs_f64() / untraced - 1.0,
            "ratio",
            1,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_and_sample() {
        let mut t = Tracer::new(2, &[1]);
        let x = t.span(0, || 7);
        assert_eq!(x, 7);
        t.record(1, Duration::from_nanos(40));
        t.record(1, Duration::from_nanos(60));
        assert_eq!(t.layer(1).ns, 100);
        assert_eq!(t.layer(1).samples.as_deref(), Some(&[40.0, 60.0][..]));
        assert!(t.layer(0).samples.is_none());
    }

    #[test]
    fn closure_fails_the_run_when_time_is_unaccounted() {
        let split = |covered| LayerSplit {
            workload: "w",
            self_ns: vec![("a", covered), ("b", 100)],
            traced_wall: Duration::from_nanos(1000),
            untraced_wall: Duration::from_nanos(800),
            ops: 10,
        };
        let mut ok = Outcome::default();
        split(850).report(&mut ok);
        assert!(ok.errors.is_empty());
        let m = |o: &Outcome, n: &str| o.metrics.iter().find(|m| m.name == n).map(|m| m.value);
        assert_eq!(m(&ok, "w.trace_closure_err"), Some(0.05));
        assert_eq!(m(&ok, "w.self_ns_per_op.b"), Some(10.0));
        assert!((m(&ok, "w.trace_overhead_ratio").unwrap() - 0.25).abs() < 1e-12);
        let mut bad = Outcome::default();
        split(500).report(&mut bad);
        assert_eq!(bad.errors.len(), 1, "40% of the wall time is in no layer");
    }
}
