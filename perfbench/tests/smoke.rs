//! Every workload at a tiny size, and every output check fed a wrong
//! answer.

use std::process::Command;
use std::time::Duration;

use veros_blockstore::Response;
use veros_cluster::workload;
use veros_cluster::{Fleet, FleetConfig, Op};
use veros_perfbench::report::Outcome;
use veros_perfbench::trace::CLOSURE_BOUND;
use veros_perfbench::{fleet, syscall, vspace};

fn metric(out: &Outcome, name: &str) -> f64 {
    out.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

fn assert_closes(out: &Outcome, workload: &str) {
    let err = metric(out, &format!("{workload}.trace_closure_err"));
    assert!(err <= CLOSURE_BOUND, "{workload}: closure error {err}");
}

#[test]
fn fleet_ycsb_round_passes_its_checks_and_the_probe_fails_over() {
    let sched = workload::schedule(&fleet::ycsb_workload(3, 300));
    let r = fleet::ycsb_round(&mut Fleet::new(fleet::ycsb_fleet(3)), sched);
    assert!(r.errors.is_empty(), "{:?}", r.errors);
    assert_eq!(
        r.attempted, 302,
        "300 scheduled ops plus the probe's put and read"
    );
    assert_eq!(r.ok, 302);
    assert!(
        r.failover_ticks < 1000,
        "failover took {} ticks",
        r.failover_ticks
    );
}

#[test]
fn fleet_ycsb_check_rejects_a_wrong_fill_pattern() {
    let mut f = Fleet::new(FleetConfig {
        clients: 1,
        ..fleet::ycsb_fleet(1)
    });
    let put = Op::Put {
        key: "ycsb-7".into(),
        data: vec![7; 128],
    };
    assert!(f.run_op(0, put, 5_000).expect("put completes").ok);
    let mut got = f
        .run_op(
            0,
            Op::Get {
                key: "ycsb-7".into(),
            },
            5_000,
        )
        .expect("get completes");
    assert!(fleet::check_ycsb(std::slice::from_ref(&got)).is_empty());
    got.read = Some(vec![8; 128]);
    assert_eq!(fleet::check_ycsb(&[got]).len(), 1);
}

#[test]
fn fleet_ycsb_traced_pass_reproduces_the_ticks_and_closes() {
    let out = fleet::ycsb_trace(5, 300);
    assert!(out.errors.is_empty(), "{:?}", out.errors);
    assert_closes(&out, "fleet_ycsb");
    assert!(metric(&out, "cluster.client.polls_per_op") > 1.0);
}

#[test]
fn chain_oracle_accepts_the_fleet_and_rejects_a_stale_read() {
    let ops = fleet::chain_ops(4, 40);
    let mut r = fleet::chain_round(&mut Fleet::new(fleet::chain_fleet(4)), ops);
    assert!(r.errors.is_empty(), "{:?}", r.errors);
    assert_eq!(r.ok_ops(), r.attempted());
    // Make one successful get of a written key return a different value.
    let pair = r
        .pairs
        .iter_mut()
        .find(|p| {
            matches!(
                p[1].0.as_ref().map(|g| &g.resp),
                Some(Response::GetOk { .. })
            )
        })
        .expect("some get hits a written key");
    pair[1].0.as_mut().expect("completed").read = Some(vec![0; 3]);
    assert_eq!(fleet::check_chain(&r.pairs).len(), 1);
}

#[test]
fn journal_exhaustion_counts_as_failed_puts_not_wrong_answers() {
    // A 256 KiB disk fills within the round; the oracle still holds.
    let cfg = FleetConfig {
        sectors: 1 << 9,
        ..fleet::chain_fleet(6)
    };
    let r = fleet::chain_round(&mut Fleet::new(cfg), fleet::chain_ops(6, 300));
    assert!(r.errors.is_empty(), "{:?}", r.errors);
    let failed = r.attempted() - r.ok_ops();
    assert!(failed > 0, "the journal never filled");
}

#[test]
fn an_op_that_never_completes_counts_as_failed() {
    // Above the wire's frame limit a put is dropped and never answered,
    // and the client stays wedged behind it, so the get fails too.
    let big = Op::Put {
        key: "chain-1".into(),
        data: vec![1; 4096],
    };
    let ops = vec![[
        big,
        Op::Get {
            key: "chain-1".into(),
        },
    ]];
    let r = fleet::chain_round(&mut Fleet::new(fleet::chain_fleet(1)), ops);
    assert!(r.pairs[0].iter().all(|(res, _)| res.is_none()));
    assert_eq!(r.attempted() - r.ok_ops(), 2);
    assert!(r.errors.is_empty(), "{:?}", r.errors);
}

#[test]
fn chain_traced_pass_reproduces_the_ticks_and_closes() {
    let out = fleet::chain_trace(2, 30);
    assert!(out.errors.is_empty(), "{:?}", out.errors);
    assert_closes(&out, "chain_put_get");
}

#[test]
fn wire_capacity_probe_finds_the_frame_limit() {
    let bytes = fleet::max_fleet_value_bytes(1);
    assert!((1024..4096).contains(&bytes), "{bytes}");
}

#[test]
fn vspace_nr_runs_checked_and_traced() {
    let out = vspace::run(1, Duration::from_millis(100));
    assert!(out.correct(), "{:?}", out.errors);
    assert!(out.attempted >= vspace::OPS_PER_BATCH);
    assert_eq!(out.failed, 0);
    let out = vspace::trace(1, 20);
    assert!(out.correct(), "{:?}", out.errors);
    assert_closes(&out, "vspace_nr");
}

#[test]
fn syscall_ring_runs_checked_and_traced() {
    let out = syscall::run(1, Duration::from_millis(100));
    assert!(out.correct(), "{:?}", out.errors);
    assert_eq!(out.attempted % syscall::SQES as u64, 0);
    assert_eq!(out.failed, 0);
    let out = syscall::trace(1, 100);
    assert!(out.correct(), "{:?}", out.errors);
    assert_closes(&out, "syscall_ring");
}

#[test]
fn syscall_ring_check_rejects_errors_short_reads_and_wrong_bytes() {
    let patterns: Vec<Vec<u8>> = (0..2u8).map(|f| vec![f; 1024]).collect();
    let picks = [1, 0, 1, 0, 1, 0, 1, 0];
    let buffers: Vec<Vec<u8>> = picks
        .iter()
        .map(|&f| patterns[f as usize].clone())
        .collect();
    let results = [Some(Ok(1024)); syscall::SQES];
    assert_eq!(
        syscall::check_batch(&results, &buffers, &picks, &patterns),
        (0, vec![])
    );

    let mut failing = results;
    failing[5] = Some(Err(veros_kernel::syscall::SysError::BadAddress));
    failing[7] = None;
    assert_eq!(
        syscall::check_batch(&failing, &buffers, &picks, &patterns).0,
        2
    );

    let mut short = results;
    short[4] = Some(Ok(10));
    assert_eq!(
        syscall::check_batch(&short, &buffers, &picks, &patterns)
            .1
            .len(),
        1
    );

    let mut swapped = buffers.clone();
    swapped.swap(0, 1);
    assert_eq!(
        syscall::check_batch(&results, &swapped, &picks, &patterns)
            .1
            .len(),
        2
    );
}

#[test]
fn cli_prints_the_result_line_last() {
    let exe = env!("CARGO_BIN_EXE_veros-perfbench");
    let run = |args: &[&str]| {
        Command::new(exe)
            .args(args)
            .output()
            .expect("benchmark runs")
    };
    let out = run(&[
        "--workload",
        "syscall_ring",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(stdout.starts_with("workload syscall_ring seed 3 trace 0"));
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    for m in ["setup_s", "ops_per_s", "p50_us", "p90_us", "rss_mb"] {
        assert!(
            last.contains(&format!("\"{m}\": {{\"value\": ")),
            "{m} missing: {last}"
        );
    }
    let bad = run(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert_eq!(bad.status.code(), Some(2));
    assert!(bad.stdout.is_empty());
}
