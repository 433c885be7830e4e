//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0`, runs the named workload untraced for `--seconds`
//! and prints its end-to-end metrics. With `--trace 1`, runs the traced
//! pass of every workload, the named one first, plus the single-layer
//! probes, and prints the whole per-layer table; the traced passes have
//! fixed sizes, so their figures compare across runs. Either way the
//! last line of standard output is the JSON result, and the exit code
//! is 1 when any output check failed.

use std::process::ExitCode;
use std::time::Duration;

use veros_perfbench::report::Outcome;
use veros_perfbench::{fleet, probes, syscall, vspace, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? == 1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn untraced(name: &str, seed: u64, budget: Duration) -> Outcome {
    match name {
        "fleet_ycsb" => fleet::ycsb_run(seed, budget),
        "chain_put_get" => fleet::chain_run(seed, budget),
        "vspace_nr" => vspace::run(seed, budget),
        _ => syscall::run(seed, budget),
    }
}

fn traced(name: &str, seed: u64) -> Outcome {
    match name {
        "fleet_ycsb" => fleet::ycsb_trace(seed, fleet::YCSB_ROUND_OPS),
        "chain_put_get" => fleet::chain_trace(seed, fleet::CHAIN_ROUND_PAIRS),
        "vspace_nr" => vspace::trace(seed, vspace::TRACE_BATCHES),
        _ => syscall::trace(seed, syscall::TRACE_BATCHES),
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = if args.trace {
        let mut out = Outcome::default();
        let order = std::iter::once(args.workload.as_str())
            .chain(WORKLOADS.iter().copied().filter(|w| *w != args.workload));
        for w in order {
            out.absorb(traced(w, args.seed));
        }
        probes::run(&mut out, args.seed);
        out
    } else {
        untraced(&args.workload, args.seed, Duration::from_secs(args.seconds))
    };
    println!(
        "workload {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for m in &out.metrics {
        let maps = if m.maps_to.is_empty() {
            String::new()
        } else {
            format!("  => {}", m.maps_to)
        };
        println!(
            "  {:<44} {:>16.4} {:<6} n={}{maps}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for e in &out.errors {
        println!("CHECK FAILED: {e}");
    }
    println!("{}", out.to_json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
