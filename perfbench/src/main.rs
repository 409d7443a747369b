//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_mixed|query_cold|datalog_tc|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one seeded workload (or, with `--workload all`, each in turn)
//! for a timed window, checks its outputs, and prints a human-readable
//! report followed by one JSON result line per workload. With
//! `--trace 0` the result carries the end-to-end metrics; with
//! `--trace 1` the workload runs twice on the same seed, untraced then
//! traced, and the result carries the per-layer metrics plus the
//! tracing overhead. See `perfbench/README.md`.

mod datalog_tc;
mod gen;
mod query_cold;
mod report;
mod serve_mixed;

use report::{Report, END_TO_END, PER_LAYER};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

const WORKLOADS: [&str; 3] = ["serve_mixed", "query_cold", "datalog_tc"];

fn run(workload: &str, seed: u64, seconds: u64, traced: bool) -> Report {
    match workload {
        "serve_mixed" => serve_mixed::run(seed, seconds, traced),
        "query_cold" => query_cold::run(seed, seconds, traced),
        _ => datalog_tc::run(seed, seconds, traced),
    }
}

fn tail_desc(workload: &str) -> String {
    match workload {
        "serve_mixed" => format!("p{} of reads", 100.0 * serve_mixed::TAIL),
        "query_cold" => format!("p{} of queries", 100.0 * query_cold::TAIL),
        _ => format!(
            "p{} over instances of each instance's median fixpoint",
            100.0 * datalog_tc::TAIL
        ),
    }
}

/// Run one workload and print its report; the result line comes last.
fn run_and_report(workload: &str, args: &Args) {
    println!("[{workload}] read_tail_ms is the {}", tail_desc(workload));
    let plain = run(workload, args.seed, args.seconds, false);
    print_report("untraced", &plain, END_TO_END);
    if !args.trace {
        println!("{}", plain.json(END_TO_END));
        return;
    }
    let mut traced = run(workload, args.seed, args.seconds, true);
    let pct = |m: &str| 100.0 * (traced.get(m) / plain.get(m) - 1.0);
    // Throughput lost (positive = tracing costs throughput) and p50 gained.
    let (ops, p50) = (-pct("ops_per_s"), pct("read_p50_ms"));
    traced.set("trace.overhead_ops_pct", ops);
    traced.set("trace.overhead_p50_pct", p50);
    print_report("traced", &traced, PER_LAYER);
    traced.attempted += plain.attempted;
    traced.failed += plain.failed;
    traced.correct &= plain.correct;
    println!("{}", traced.json(PER_LAYER));
}

fn print_report(label: &str, r: &Report, catalog: &[(&str, &str)]) {
    for l in &r.lines {
        println!("[{label}] {l}");
    }
    println!(
        "[{label}] failed_frac = {} ({} of {} attempted); outputs {}",
        r.failed as f64 / r.attempted.max(1) as f64,
        r.failed,
        r.attempted,
        if r.correct { "correct" } else { "INCORRECT" }
    );
    for (name, unit) in catalog {
        println!("[{label}] {name} = {} {unit}", r.get(name));
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        w if WORKLOADS.contains(&w) => vec![w],
        w => {
            eprintln!("perfbench: unknown workload {w}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} threads_available={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for w in workloads {
        run_and_report(w, &args);
    }
    ExitCode::SUCCESS
}
