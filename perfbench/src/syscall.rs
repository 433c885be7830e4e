//! `syscall_ring`: the process-centric syscall interface (paper §3).
//!
//! One thread on `Kernel::boot`. Each batch holds 8 linked
//! open → read → close chains over pre-created 1 KiB files, the fd
//! substituted from the open, plus one linked map → unmap pair. The
//! batch goes through one uring `Engine` driven inline, with no poller
//! thread. ABI marshalling, dispatch, the fd table, user-memory copy
//! and chain substitution run; NR and the network do not.

use std::time::{Duration, Instant};

use veros_kernel::syscall::{abi, Syscall};
use veros_kernel::{Kernel, KernelConfig, Pid, SysRet, Tid};
use veros_uring::{pair, Engine, Sqe, SqeFlags, SubstSource, UserRing};

use crate::report::{end_to_end, percentile, timed_setups, Metric, Outcome, Slices};
use crate::rng::Rng;
use crate::trace::{LayerSplit, Tracer};

/// open → read → close chains per batch.
pub const CHAINS: usize = 8;
/// Syscalls per batch: the chains plus the map/unmap pair.
pub const SQES: usize = 3 * CHAINS + 2;
/// Batches in each pass of a traced run.
pub const TRACE_BATCHES: usize = 20_000;
/// Rounds of the direct-syscall probe.
const DIRECT_ITERS: usize = 2000;

/// Pre-created files a chain picks from.
const FILES: u64 = 16;
const FILE_BYTES: u64 = 1024;
/// Paths, 32 bytes apart.
const PATH_VA: u64 = 0x61_0000;
/// One read buffer page per chain.
const BUF_VA: u64 = 0x62_0000;
/// Staging page for file contents.
const STAGE_VA: u64 = 0x6a_0000;
/// The page each batch maps and unmaps.
const MAP_VA: u64 = 0x80_0000;
const PAGE: u64 = 4096;

/// A booted kernel with the files staged and a ring attached.
pub struct Rig {
    k: Kernel,
    owner: (Pid, Tid),
    user: UserRing,
    engine: Engine,
    /// Contents of each file.
    patterns: Vec<Vec<u8>>,
}

fn path(file: u64) -> Vec<u8> {
    format!("/perf_{file:02}").into_bytes()
}

fn open(file: u64) -> Syscall {
    Syscall::Open {
        path_ptr: PATH_VA + 32 * file,
        path_len: path(file).len() as u64,
        create: false,
    }
}

impl Rig {
    /// Boots the kernel and creates the files through syscalls.
    pub fn new(seed: u64) -> Self {
        let mut k = Kernel::boot(KernelConfig::default()).expect("kernel boots");
        let owner = (k.init_pid, k.init_tid);
        for (va, pages) in [(PATH_VA, 1), (BUF_VA, CHAINS as u64), (STAGE_VA, 1)] {
            k.syscall(
                owner,
                Syscall::Map {
                    va,
                    pages,
                    writable: true,
                },
            )
            .expect("map rig pages");
        }
        let mut rng = Rng::new(seed, 20);
        let mut patterns = Vec::new();
        for f in 0..FILES {
            k.write_user(owner.0, PATH_VA + 32 * f, &path(f))
                .expect("stage path");
            let data: Vec<u8> = (0..FILE_BYTES).map(|_| rng.next_u64() as u8).collect();
            k.write_user(owner.0, STAGE_VA, &data)
                .expect("stage contents");
            let create = Syscall::Open {
                path_ptr: PATH_VA + 32 * f,
                path_len: path(f).len() as u64,
                create: true,
            };
            let fd = k.syscall(owner, create).expect("create file") as u32;
            k.syscall(
                owner,
                Syscall::Write {
                    fd,
                    buf_ptr: STAGE_VA,
                    buf_len: FILE_BYTES,
                },
            )
            .expect("fill file");
            k.syscall(owner, Syscall::Close { fd }).expect("close file");
            patterns.push(data);
        }
        let (user, kring) = pair(2 * SQES.next_power_of_two());
        Self {
            k,
            owner,
            user,
            engine: Engine::new(kring, owner),
            patterns,
        }
    }
}

/// Span layers of a traced pass.
const L_USER: usize = 0;
const L_ENGINE: usize = 1;

/// Length of a latency slice (see [`Slices`]).
const SLICE: Duration = Duration::from_secs(1);

/// The batches of one pass.
#[derive(Default)]
pub struct Pass {
    /// Batches run.
    pub batches: u64,
    /// Sum of their latencies, ns.
    pub busy_ns: u64,
    /// Batch latencies, µs.
    pub slices: Slices,
    /// Syscalls whose CQE was an error or never arrived.
    pub failed: u64,
    /// Output-check failures.
    pub errors: Vec<String>,
}

impl Pass {
    fn attempted(&self) -> u64 {
        self.batches * SQES as u64
    }
}

fn call<R>(tr: &mut Option<&mut Tracer>, layer: usize, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(t) => t.span(layer, f),
        None => f(),
    }
}

/// Runs batches on `rig` until `deadline` or `max` batches.
pub fn run_batches(
    rig: &mut Rig,
    seed: u64,
    deadline: Option<Instant>,
    max: usize,
    mut tr: Option<&mut Tracer>,
) -> Pass {
    let mut rng = Rng::new(seed, 21);
    let mut pass = Pass::default();
    let mut picks = [0u64; CHAINS];
    let mut results = [None; SQES];
    let Rig {
        k,
        owner,
        user,
        engine,
        patterns,
    } = rig;
    let mut slice_start = Instant::now();
    while pass.batches < max as u64 && deadline.is_none_or(|d| Instant::now() < d) {
        for (c, pick) in picks.iter_mut().enumerate() {
            *pick = rng.below(FILES);
            k.write_user(owner.0, BUF_VA + c as u64 * PAGE, &[0; FILE_BYTES as usize])
                .expect("clear buffer");
        }
        let t0 = Instant::now();
        call(&mut tr, L_USER, || {
            for (c, &f) in picks.iter().enumerate() {
                let ud = 3 * c as u64;
                let read = Syscall::Read {
                    fd: 0,
                    buf_ptr: BUF_VA + c as u64 * PAGE,
                    buf_len: FILE_BYTES,
                };
                let fd_prev = SqeFlags {
                    link: true,
                    subst: Some((SubstSource::Prev, abi::FD_REG)),
                };
                let fd_head = SqeFlags {
                    link: false,
                    subst: Some((SubstSource::Head, abi::FD_REG)),
                };
                user.submit_flagged(
                    ud,
                    &open(f),
                    SqeFlags {
                        link: true,
                        subst: None,
                    },
                )
                .expect("sq holds a batch");
                user.submit_flagged(ud + 1, &read, fd_prev)
                    .expect("sq holds a batch");
                user.submit_flagged(ud + 2, &Syscall::Close { fd: 0 }, fd_head)
                    .expect("sq holds a batch");
            }
            let map = Syscall::Map {
                va: MAP_VA,
                pages: 1,
                writable: true,
            };
            user.submit_flagged(
                3 * CHAINS as u64,
                &map,
                SqeFlags {
                    link: true,
                    subst: None,
                },
            )
            .expect("sq holds a batch");
            user.submit(
                3 * CHAINS as u64 + 1,
                &Syscall::Unmap {
                    va: MAP_VA,
                    pages: 1,
                },
            )
            .expect("sq holds a batch");
        });
        call(&mut tr, L_ENGINE, || engine.submit_batch(k));
        call(&mut tr, L_USER, || {
            results = [None; SQES];
            while let Some(cqe) = user.complete() {
                if let Some(slot) = results.get_mut(cqe.user_data as usize) {
                    *slot = Some(cqe.result);
                }
            }
        });
        let batch = t0.elapsed();
        pass.batches += 1;
        pass.busy_ns += batch.as_nanos() as u64;
        pass.slices.push(batch.as_nanos() as f64 / 1e3);
        if slice_start.elapsed() >= SLICE {
            pass.slices.close();
            slice_start = Instant::now();
        }

        let buffers: Vec<Vec<u8>> = (0..CHAINS as u64)
            .map(|c| {
                k.read_user(owner.0, BUF_VA + c * PAGE, FILE_BYTES)
                    .expect("read buffer")
            })
            .collect();
        let (failed, errors) = check_batch(&results, &buffers, &picks, patterns);
        pass.failed += failed;
        for e in errors {
            if pass.errors.len() < 4 {
                pass.errors.push(e);
            }
        }
    }
    pass.slices.close();
    pass
}

/// Checks one batch: each syscall completed without error, each read
/// returned 1 KiB, and each chain's buffer holds the file it opened.
/// Returns the failed syscalls and the check failures.
pub fn check_batch(
    results: &[Option<SysRet>; SQES],
    buffers: &[Vec<u8>],
    picks: &[u64; CHAINS],
    patterns: &[Vec<u8>],
) -> (u64, Vec<String>) {
    let mut failed = 0;
    let mut errors = Vec::new();
    for (slot, r) in results.iter().enumerate() {
        let is_read = slot < 3 * CHAINS && slot % 3 == 1;
        match r {
            Some(Ok(n)) if is_read && *n != FILE_BYTES => {
                errors.push(format!(
                    "syscall_ring: read in slot {slot} returned {n} bytes"
                ));
            }
            Some(Ok(_)) => {}
            _ => {
                failed += 1;
                errors.push(format!("syscall_ring: slot {slot} completed with {r:?}"));
            }
        }
    }
    for (c, (&f, got)) in picks.iter().zip(buffers).enumerate() {
        if *got != patterns[f as usize] {
            errors.push(format!(
                "syscall_ring: chain {c} read the wrong bytes from file {f}"
            ));
        }
    }
    (failed, errors)
}

fn absorb(out: &mut Outcome, pass: &Pass) {
    out.attempted += pass.attempted();
    out.failed += pass.failed;
    pass.errors.iter().for_each(|e| out.error(e.clone()));
}

/// The untraced `syscall_ring` run. A request is one batch; ops are
/// syscalls.
pub fn run(seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let (mut rig, mut setups) = timed_setups(|| Rig::new(seed));
    let pass = run_batches(
        &mut rig,
        seed,
        Some(Instant::now() + budget),
        usize::MAX,
        None,
    );
    absorb(&mut out, &pass);
    let busy = pass.busy_ns as f64 / 1e9;
    end_to_end(
        &mut out,
        &mut setups,
        pass.attempted() - pass.failed,
        busy,
        &pass.slices,
    );
    out
}

/// The batch's syscalls made one at a time through
/// `Kernel::syscall_batched`, the dispatch the engine calls, with no
/// ring: per-kind durations `[open, read, close, map, unmap]`, ns.
fn direct_ns(rig: &mut Rig, iters: usize) -> [Vec<f64>; 5] {
    let mut ns: [Vec<f64>; 5] = Default::default();
    let (k, owner) = (&mut rig.k, rig.owner);
    let mut time = |slot: usize, k: &mut Kernel, call: Syscall| {
        let t = Instant::now();
        let r = k.syscall_batched(owner, call);
        ns[slot].push(t.elapsed().as_nanos() as f64);
        r.expect("direct syscall succeeds")
    };
    for i in 0..iters as u64 {
        let fd = time(0, k, open(i % FILES)) as u32;
        time(
            1,
            k,
            Syscall::Read {
                fd,
                buf_ptr: BUF_VA,
                buf_len: FILE_BYTES,
            },
        );
        time(2, k, Syscall::Close { fd });
        time(
            3,
            k,
            Syscall::Map {
                va: MAP_VA,
                pages: 1,
                writable: true,
            },
        );
        time(
            4,
            k,
            Syscall::Unmap {
                va: MAP_VA,
                pages: 1,
            },
        );
    }
    ns
}

/// Mean ns of one SQE encode + decode through the ABI.
fn codec_ns(iters: usize) -> f64 {
    let mut scratch = veros_kernel::syscall::marshal::Encoder::new();
    let call = Syscall::Read {
        fd: 3,
        buf_ptr: BUF_VA,
        buf_len: FILE_BYTES,
    };
    let t = Instant::now();
    for i in 0..iters as u64 {
        let bytes = Sqe::new(i, std::hint::black_box(&call)).encode(&mut scratch);
        std::hint::black_box(Sqe::decode(&bytes).expect("round trip"));
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

struct UringCounters {
    cancelled: u64,
    overflows: u64,
    rejections: u64,
}

impl UringCounters {
    fn read() -> Self {
        Self {
            cancelled: veros_uring::metrics::CHAIN_LINKS_CANCELLED.get(),
            overflows: veros_uring::metrics::CQ_OVERFLOWS.get(),
            rejections: veros_uring::metrics::SQ_FULL_REJECTIONS.get(),
        }
    }
}

/// The traced `syscall_ring` pass: an untraced and a traced pass of
/// `batches` batches, spans around the user-side ring work and
/// `Engine::submit_batch`, and the direct-syscall probe. The kernel's
/// share of `submit_batch` is the probe's per-kind mean times the
/// batch's syscalls; the engine's self time is the rest.
pub fn trace(seed: u64, batches: usize) -> Outcome {
    let mut out = Outcome::default();
    let plain = run_batches(&mut Rig::new(seed), seed, None, batches, None);
    let mut tr = Tracer::new(2, &[L_ENGINE]);
    let mut rig = Rig::new(seed);
    let before = UringCounters::read();
    let traced = run_batches(&mut rig, seed, None, batches, Some(&mut tr));
    let after = UringCounters::read();
    absorb(&mut out, &plain);
    absorb(&mut out, &traced);

    let user_ns = tr.layer(L_USER).ns;
    let engine_ns = tr.layer(L_ENGINE).ns;
    let mut submit: Vec<f64> = tr
        .layer(L_ENGINE)
        .samples
        .take()
        .unwrap_or_default()
        .iter()
        .map(|ns| ns / 1e3)
        .collect();
    let direct = direct_ns(&mut rig, DIRECT_ITERS);
    let per_batch = [CHAINS, CHAINS, CHAINS, 1, 1];
    let batch_kernel_ns: f64 = direct
        .iter()
        .zip(per_batch)
        .map(|(v, n)| n as f64 * v.iter().sum::<f64>() / v.len() as f64)
        .sum();
    let sys_ns = (batch_kernel_ns * traced.batches as f64) as u64;
    let sqes = traced.attempted() as f64;
    const BATCH: &str = "p50_us on syscall_ring";
    const FAILED: &str = "attempted/failed on syscall_ring";
    out.metrics.extend([
        Metric::new(
            "syscall_ring.batch_p50_us",
            plain.slices.p50(),
            "us",
            plain.slices.samples(),
        ),
        Metric::new(
            "syscall_ring.batch_p99_us",
            plain.slices.p99(),
            "us",
            plain.slices.samples(),
        ),
        Metric::layer(
            "uring.submit_batch_us_p50",
            percentile(&mut submit, 50.0),
            "us",
            submit.len(),
            BATCH,
        ),
        Metric::layer(
            "uring.user_ns_per_sqe",
            user_ns as f64 / sqes,
            "ns",
            sqes as usize,
            BATCH,
        ),
        Metric::layer(
            "kernel.abi.codec_ns",
            codec_ns(100_000),
            "ns",
            100_000,
            BATCH,
        ),
        Metric::layer(
            "uring.chain.links_cancelled",
            (after.cancelled - before.cancelled) as f64,
            "count",
            1,
            FAILED,
        ),
        Metric::layer(
            "uring.cq.overflows",
            (after.overflows - before.overflows) as f64,
            "count",
            1,
            FAILED,
        ),
        Metric::layer(
            "uring.sq.full_rejections",
            (after.rejections - before.rejections) as f64,
            "count",
            1,
            FAILED,
        ),
    ]);
    for (name, mut v) in ["open", "read", "close", "map", "unmap"].iter().zip(direct) {
        let p50 = percentile(&mut v, 50.0);
        out.metrics.push(Metric::layer(
            format!("kernel.syscall.{name}_ns_p50"),
            p50,
            "ns",
            v.len(),
            BATCH,
        ));
    }
    LayerSplit {
        workload: "syscall_ring",
        self_ns: vec![
            ("uring.user", user_ns),
            ("uring.engine", engine_ns.saturating_sub(sys_ns)),
            ("kernel.syscall", sys_ns),
        ],
        traced_wall: Duration::from_nanos(traced.busy_ns),
        untraced_wall: Duration::from_nanos(plain.busy_ns),
        ops: traced.attempted(),
    }
    .report(&mut out);
    out
}
