//! `vspace_nr`: the paper's Fig 1b/1c path.
//!
//! Two threads share one `NodeReplicated<VSpaceDispatch>` with two
//! replicas, one per thread, over the verified page table. Each thread
//! loops over batches in its own VA window: map 64 pages, resolve each
//! page 8 times, unmap the 64 pages, then check that a resolve of the
//! unmapped base misses. NR log writes and page-table writes run beside
//! replica-local reads; no storage or network code runs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use veros_kernel::vspace::{PtKind, VSpaceDispatch, VSpaceReadOp, VSpaceWriteOp};
use veros_nr::{Dispatch, NodeReplicated, ThreadToken};
use veros_telemetry::HistogramSnapshot;

use crate::report::{end_to_end, median, percentile, timed_setups, Metric, Outcome, Slices};
use crate::rng::Rng;
use crate::trace::{LayerSplit, Tracer};

/// Pages mapped per batch.
pub const BATCH_PAGES: u64 = 64;
/// Resolves of each mapped page per batch.
pub const RESOLVES_PER_PAGE: u64 = 8;
/// NR operations per batch, the post-unmap miss check included.
pub const OPS_PER_BATCH: u64 = 2 * BATCH_PAGES + BATCH_PAGES * RESOLVES_PER_PAGE + 1;
/// Worker threads, one per replica.
pub const THREADS: usize = 2;
/// Batches per thread in each pass of a traced run.
pub const TRACE_BATCHES: usize = 400;

/// Simulated frames per replica.
const FRAMES: usize = 1 << 12;
/// NR log entries.
const LOG_ENTRIES: usize = 1024;
/// Page slots in each thread's VA window; a batch maps 64 consecutive
/// slots at a seeded offset.
const WINDOW_PAGES: u64 = 1 << 12;

const PAGE: u64 = 4096;

fn window_base(thread: usize) -> u64 {
    (thread as u64 + 1) << 36
}

type Nr = NodeReplicated<VSpaceDispatch>;

fn build() -> Nr {
    NodeReplicated::new(THREADS, 1, LOG_ENTRIES, || {
        VSpaceDispatch::new(FRAMES, PtKind::Verified)
    })
}

/// Span layers of a traced pass.
const L_MAP: usize = 0;
const L_RESOLVE: usize = 1;
const L_UNMAP: usize = 2;

/// Length of a latency slice (see [`Slices`]).
const SLICE: Duration = Duration::from_secs(1);

/// One thread's batches.
#[derive(Default)]
struct ThreadRun {
    /// Batches run.
    count: u64,
    /// Sum of the batches' times, ns.
    busy_ns: u64,
    /// Batch latencies, µs.
    slices: Slices,
    /// `[map, resolve, unmap]` phase times of each batch, ns; kept by
    /// the fixed-size passes of a traced run only.
    phases: Vec<[u64; 3]>,
    /// Time from the barrier to the thread's last batch.
    window: Duration,
    errors: Vec<String>,
    tracer: Option<Tracer>,
}

/// Closes the span of the NR call that just returned, when tracing.
/// Spans are back to back (see [`Tracer::lap`]): the calls last tens
/// of nanoseconds, so a second clock read per call would distort them.
#[inline]
fn lap(tr: &mut Option<Tracer>, layer: usize, last: &mut Instant) {
    if let Some(t) = tr {
        t.lap(layer, last);
    }
}

/// The threads start each batch together, so every batch meets the
/// same interleaving: both map, then each resolve pass first replays
/// the other replica's maps, then both unmap. Left to drift, the two
/// loops fall in and out of phase and a batch's latency depends on
/// where the other thread happens to be.
struct Lockstep {
    barrier: Barrier,
    /// The stop decision of each batch, by batch parity: the decision
    /// for batch `b + 2` is written only after every thread passed the
    /// barrier of batch `b + 1`, so after it read the decision for `b`.
    stop: [AtomicBool; 2],
}

impl Lockstep {
    /// Waits for the other threads before batch `batch`; true when the
    /// run is over. Thread 0 ends the run at its deadline or batch
    /// count, any thread on a failed check; each decides before the
    /// barrier and reads after it, so all agree.
    fn next(&self, thread: usize, stop: Stop, batch: u64, failed: bool) -> bool {
        let decision = &self.stop[(batch % 2) as usize];
        if failed || (thread == 0 && stop.done(batch)) {
            decision.store(true, Ordering::SeqCst);
        }
        self.barrier.wait();
        decision.load(Ordering::SeqCst)
    }
}

fn thread_loop(
    nr: &Nr,
    tkn: ThreadToken,
    thread: usize,
    seed: u64,
    stop: Stop,
    step: &Lockstep,
) -> ThreadRun {
    let traced = matches!(stop, Stop::After(_, true));
    let mut rng = Rng::new(seed, 10 + thread as u64);
    let mut run = ThreadRun {
        tracer: traced.then(|| Tracer::new(3, &[L_MAP, L_RESOLVE, L_UNMAP])),
        ..ThreadRun::default()
    };
    let tr = &mut run.tracer;
    let mut pas = [0u64; BATCH_PAGES as usize];
    let start = Instant::now();
    let mut slice_start = start;
    while !step.next(thread, stop, run.count, !run.errors.is_empty()) {
        let base = window_base(thread) + rng.below(WINDOW_PAGES - BATCH_PAGES) * PAGE;
        let t0 = Instant::now();
        let mut last = t0;
        for (i, pa) in pas.iter_mut().enumerate() {
            let va = base + i as u64 * PAGE;
            let got = nr.execute_mut(VSpaceWriteOp::MapNew { va }, tkn);
            lap(tr, L_MAP, &mut last);
            match got {
                Ok(p) => *pa = p,
                Err(e) => run
                    .errors
                    .push(format!("vspace_nr: map {va:#x} failed: {e:?}")),
            }
        }
        let t1 = Instant::now();
        last = t1;
        for rep in 0..RESOLVES_PER_PAGE {
            for (i, pa) in pas.iter().enumerate() {
                let off = rep * 8;
                let va = base + i as u64 * PAGE + off;
                let got = nr.execute(VSpaceReadOp::Resolve { va }, tkn);
                lap(tr, L_RESOLVE, &mut last);
                if got != Ok(pa + off) {
                    run.errors.push(format!(
                        "vspace_nr: resolve {va:#x} gave {got:?}, mapped {:#x}",
                        pa + off
                    ));
                }
            }
        }
        let t2 = Instant::now();
        last = t2;
        for i in 0..BATCH_PAGES {
            let va = base + i * PAGE;
            let got = nr.execute_mut(VSpaceWriteOp::Unmap { va }, tkn);
            lap(tr, L_UNMAP, &mut last);
            if let Err(e) = got {
                run.errors
                    .push(format!("vspace_nr: unmap {va:#x} failed: {e:?}"));
            }
        }
        let t3 = Instant::now();
        if nr.execute(VSpaceReadOp::Resolve { va: base }, tkn).is_ok() {
            run.errors
                .push(format!("vspace_nr: resolve {base:#x} hit after unmap"));
        }
        let ns = |a: Instant, b: Instant| (b - a).as_nanos() as u64;
        let batch = (t3 - t0).as_nanos() as u64;
        run.count += 1;
        run.busy_ns += batch;
        run.slices.push(batch as f64 / 1e3);
        if t3 - slice_start >= SLICE {
            run.slices.close();
            slice_start = t3;
        }
        if let Stop::After(..) = stop {
            run.phases.push([ns(t0, t1), ns(t1, t2), ns(t2, t3)]);
        }
    }
    run.slices.close();
    run.window = start.elapsed();
    run
}

/// When the threads stop: at a deadline, or after a batch count, with
/// or without spans.
#[derive(Clone, Copy)]
enum Stop {
    At(Instant),
    After(usize, bool),
}

impl Stop {
    fn done(self, batches: u64) -> bool {
        match self {
            Stop::At(t) => Instant::now() >= t,
            Stop::After(n, _) => batches >= n as u64,
        }
    }
}

/// Runs both threads on `nr` and returns their batches.
fn run_threads(nr: &Nr, seed: u64, stop: Stop) -> Vec<ThreadRun> {
    let step = Lockstep {
        barrier: Barrier::new(THREADS),
        stop: [AtomicBool::new(false), AtomicBool::new(false)],
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let step = &step;
                s.spawn(move || {
                    let tkn = nr.register(t).expect("one slot per replica");
                    thread_loop(nr, tkn, t, seed, stop, step)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("vspace worker panicked"))
            .collect()
    })
}

fn absorb(out: &mut Outcome, runs: &[ThreadRun]) {
    for r in runs {
        out.attempted += r.count * OPS_PER_BATCH;
        r.errors.iter().for_each(|e| out.error(e.clone()));
    }
    // Every operation is checked; a batch with any failure fails whole.
    out.failed += runs
        .iter()
        .filter(|r| !r.errors.is_empty())
        .map(|_| OPS_PER_BATCH)
        .sum::<u64>();
}

/// The untraced `vspace_nr` run. A request is one batch; its latency is
/// the batch's map, resolve and unmap phases.
pub fn run(seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let (nr, mut setups) = timed_setups(build);
    let runs = run_threads(&nr, seed, Stop::At(Instant::now() + budget));
    absorb(&mut out, &runs);
    let window = runs
        .iter()
        .map(|r| r.window)
        .max()
        .unwrap_or_default()
        .as_secs_f64();
    let mut lat = Slices::default();
    runs.into_iter().for_each(|r| lat.absorb(r.slices));
    let ok_ops = out.attempted - out.failed;
    end_to_end(&mut out, &mut setups, ok_ops, window, &lat);
    out
}

/// Per-op mean time of the same op sequence on a standalone replica,
/// called through `VSpaceDispatch::dispatch_mut`/`dispatch` with no NR:
/// `[map, resolve, unmap]`, ns.
fn standalone_ns(seed: u64, batches: usize) -> [f64; 3] {
    let mut d = VSpaceDispatch::new(FRAMES, PtKind::Verified);
    let mut rng = Rng::new(seed, 10);
    let mut ns = [0u64; 3];
    for _ in 0..batches {
        let base = window_base(0) + rng.below(WINDOW_PAGES - BATCH_PAGES) * PAGE;
        let t0 = Instant::now();
        for i in 0..BATCH_PAGES {
            std::hint::black_box(d.dispatch_mut(&VSpaceWriteOp::MapNew {
                va: base + i * PAGE,
            }))
            .expect("standalone map");
        }
        let t1 = Instant::now();
        for rep in 0..RESOLVES_PER_PAGE {
            for i in 0..BATCH_PAGES {
                let va = base + i * PAGE + rep * 8;
                std::hint::black_box(d.dispatch(VSpaceReadOp::Resolve { va }))
                    .expect("standalone resolve");
            }
        }
        let t2 = Instant::now();
        for i in 0..BATCH_PAGES {
            std::hint::black_box(d.dispatch_mut(&VSpaceWriteOp::Unmap {
                va: base + i * PAGE,
            }))
            .expect("standalone unmap");
        }
        let t3 = Instant::now();
        for (k, (a, b)) in [(t0, t1), (t1, t2), (t2, t3)].into_iter().enumerate() {
            ns[k] += (b - a).as_nanos() as u64;
        }
    }
    let per = |total: u64, ops: u64| total as f64 / (batches as u64 * ops) as f64;
    [
        per(ns[0], BATCH_PAGES),
        per(ns[1], BATCH_PAGES * RESOLVES_PER_PAGE),
        per(ns[2], BATCH_PAGES),
    ]
}

struct NrCounters {
    appends: u64,
    retries: u64,
    tlb_misses: u64,
    splits: u64,
    combiner: HistogramSnapshot,
    lag: HistogramSnapshot,
}

impl NrCounters {
    fn read() -> Self {
        Self {
            appends: veros_nr::metrics::LOG_APPENDS.get(),
            retries: veros_nr::metrics::APPEND_RETRIES.get(),
            tlb_misses: veros_kernel::metrics::TLB_MISSES.get(),
            splits: veros_kernel::metrics::FRAME_SPLITS.get(),
            combiner: veros_nr::metrics::COMBINER_BATCH.snapshot(),
            lag: veros_nr::metrics::REPLAY_LAG.snapshot(),
        }
    }
}

/// The traced `vspace_nr` pass: an untraced and a traced pass of
/// [`TRACE_BATCHES`] batches per thread, a span around every
/// `execute_mut`/`execute`, and the standalone-replica replay.
pub fn trace(seed: u64, batches: usize) -> Outcome {
    let mut out = Outcome::default();
    let plain = run_threads(&build(), seed, Stop::After(batches, false));
    let before = NrCounters::read();
    let mut traced = run_threads(&build(), seed, Stop::After(batches, true));
    let after = NrCounters::read();
    absorb(&mut out, &plain);
    absorb(&mut out, &traced);

    let phase_ns = |runs: &[ThreadRun], k: usize, ops: u64| -> Vec<f64> {
        runs.iter()
            .flat_map(|r| &r.phases)
            .map(|b| b[k] as f64 / ops as f64)
            .collect()
    };
    let mut map = phase_ns(&plain, 0, BATCH_PAGES);
    let mut resolve = phase_ns(&plain, 1, BATCH_PAGES * RESOLVES_PER_PAGE);
    let mut unmap = phase_ns(&plain, 2, BATCH_PAGES);
    let n_batches = map.len();

    let mut tracers: Vec<Tracer> = traced.iter_mut().filter_map(|r| r.tracer.take()).collect();
    let mut samples = |layer: usize| -> Vec<f64> {
        tracers
            .iter_mut()
            .flat_map(|t| t.layer(layer).samples.take().unwrap_or_default())
            .collect()
    };
    let (mut s_map, mut s_resolve, mut s_unmap) =
        (samples(L_MAP), samples(L_RESOLVE), samples(L_UNMAP));
    let mut s_mut: Vec<f64> = s_map.iter().chain(&s_unmap).copied().collect();
    let (n_mut, n_read) = (s_mut.len(), s_resolve.len());
    let span_ns: f64 = [&s_map, &s_resolve, &s_unmap]
        .iter()
        .flat_map(|v| v.iter())
        .sum();

    let alone = standalone_ns(seed, batches);
    let vspace_ns =
        alone[0] * s_map.len() as f64 + alone[1] * n_read as f64 + alone[2] * s_unmap.len() as f64;
    let appends = (after.appends - before.appends).max(1) as f64;
    let combiner = after.combiner.diff(&before.combiner);
    let lag = after.lag.diff(&before.lag);
    let maps = (s_map.len() * THREADS) as f64; // every replica applies every map
    const OPS: &str = "ops_per_s and p50_us on vspace_nr";
    out.metrics.extend([
        Metric::new("vspace_nr.map_p50_ns", median(&mut map), "ns", n_batches),
        Metric::new(
            "vspace_nr.unmap_p50_ns",
            median(&mut unmap),
            "ns",
            n_batches,
        ),
        Metric::new(
            "vspace_nr.resolve_p50_ns",
            median(&mut resolve),
            "ns",
            n_batches,
        ),
        Metric::layer(
            "nr.execute_mut_ns_p50",
            percentile(&mut s_mut, 50.0),
            "ns",
            n_mut,
            OPS,
        ),
        Metric::layer(
            "nr.execute_mut_ns_p99",
            percentile(&mut s_mut, 99.0),
            "ns",
            n_mut,
            OPS,
        ),
        Metric::layer(
            "nr.execute_ns_p50",
            percentile(&mut s_resolve, 50.0),
            "ns",
            n_read,
            OPS,
        ),
        Metric::layer(
            "nr.execute_ns_p99",
            percentile(&mut s_resolve, 99.0),
            "ns",
            n_read,
            OPS,
        ),
        Metric::layer(
            "nr.map_ns_p50",
            percentile(&mut s_map, 50.0),
            "ns",
            s_map.len(),
            OPS,
        ),
        Metric::layer(
            "nr.unmap_ns_p50",
            percentile(&mut s_unmap, 50.0),
            "ns",
            s_unmap.len(),
            OPS,
        ),
        Metric::layer(
            "nr.log.append_retries_per_append",
            (after.retries - before.retries) as f64 / appends,
            "ratio",
            appends as usize,
            OPS,
        ),
        Metric::layer(
            "nr.combiner.batch_mean",
            combiner.sum as f64 / combiner.count.max(1) as f64,
            "count",
            combiner.count as usize,
            OPS,
        ),
        Metric::layer(
            "nr.replica.replay_lag_p99",
            crate::fleet::bucket_quantile(&lag, 0.99),
            "count",
            lag.count as usize,
            OPS,
        ),
        Metric::layer(
            "kernel.vspace.map_ns",
            alone[0],
            "ns",
            batches * BATCH_PAGES as usize,
            OPS,
        ),
        Metric::layer(
            "kernel.vspace.resolve_ns",
            alone[1],
            "ns",
            batches * (BATCH_PAGES * RESOLVES_PER_PAGE) as usize,
            OPS,
        ),
        Metric::layer(
            "kernel.vspace.unmap_ns",
            alone[2],
            "ns",
            batches * BATCH_PAGES as usize,
            OPS,
        ),
        Metric::layer(
            "kernel.tlb.hit_ratio",
            1.0 - (after.tlb_misses - before.tlb_misses) as f64 / (n_read as f64).max(1.0),
            "ratio",
            n_read,
            OPS,
        ),
        Metric::layer(
            "kernel.frame_alloc.splits_per_map",
            (after.splits - before.splits) as f64 / maps,
            "count",
            maps as usize,
            OPS,
        ),
    ]);
    // NR's own cost is what its spans take beyond the page-table work
    // the standalone replica measured for the same operations.
    let wall: u64 = traced.iter().map(|r| r.busy_ns).sum();
    let plain_wall: u64 = plain.iter().map(|r| r.busy_ns).sum();
    LayerSplit {
        workload: "vspace_nr",
        self_ns: vec![
            ("nr", (span_ns - vspace_ns).max(0.0) as u64),
            ("kernel.vspace", vspace_ns as u64),
        ],
        traced_wall: Duration::from_nanos(wall),
        untraced_wall: Duration::from_nanos(plain_wall),
        ops: (n_mut + n_read) as u64,
    }
    .report(&mut out);
    out
}
