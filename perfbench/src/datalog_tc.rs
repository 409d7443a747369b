//! `datalog_tc`: `dco::datalog::run_with` from two client threads over
//! seeded constraint-chain instances. The edges are genuine boxes, so
//! the engine's finite-point fast path never applies and the semi-naive
//! stages run the full tuple kernel. No store, server or planner is on
//! the path.
//!
//! Two threads rather than one: on a 2-CPU host a single client's
//! timings moved by 10–15% from process to process with the CPU it
//! landed on, while two clients keep both CPUs busy and agree to a few
//! percent.

use crate::gen;
use crate::report::{self, ms, ratio, Report};
use dco::core::guard::{run_guarded, GuardLimits};
use dco::datalog::{run_with, EngineConfig, Program};
use dco::prelude::*;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Tail percentile, taken over the instances: each instance's median
/// fixpoint latency in the window, then this quantile of those medians.
/// A 20 s window runs each of the 256 instances about eight times, and
/// p95 keeps twelve instances beyond it.
///
/// The tail of the raw latencies is printed too, but is no metric: the
/// instances differ little in cost (p99/p50 of the medians ≈ 1.2), so
/// the raw p99 measures host jitter. On a 2-vCPU VM, bursty contention
/// from another process moved it from 24 to 39 ms between runs, while
/// the p95 of the per-instance medians stayed within 17–20 ms.
pub const TAIL: f64 = 0.95;
const WARMUP: Duration = Duration::from_secs(1);
/// Set-ups timed before the window; `setup_s` is their median.
const SETUPS: usize = 15;
const THREADS: u64 = 2;
/// Every `CHECK_EVERY`-th instance is checked against the closed form,
/// each time it runs.
const CHECK_EVERY: u64 = 4;

struct Fixpoint {
    start: Instant,
    end: Instant,
    instance: u64,
    /// Fingerprint of the closure when the instance is one of the checked.
    fp: Option<u64>,
    ok: bool,
    stages: usize,
    /// Probe counts per site (traced runs only).
    probes: Vec<(&'static str, u64)>,
}

/// Distinct instances, built during set-up and cycled through. The
/// library keeps memory per distinct instance it has seen (peak RSS
/// grows by ~150 KB per fresh instance), so a fixed pool keeps the
/// resident set independent of throughput.
const POOL: u64 = 256;

/// Set-up: parse the program and build the instance pool.
fn set_up(seed: u64) -> (Program, Vec<Database>) {
    let program = parse_program(gen::TC_PROGRAM).expect("tc program parses");
    let pool = (0..POOL)
        .map(|i| gen::chain_database(&gen::chain_edges(seed, i)))
        .collect();
    (program, pool)
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Report {
    let mut r = Report::default();
    let mut setup_times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let s = set_up(seed);
        setup_times.push(t.elapsed().as_secs_f64());
        kept = Some(s);
    }
    let (program, pool) = kept.expect("at least one set-up");
    r.set("setup_s", report::median(&setup_times));
    r.line(report::setups_line(&setup_times));
    let config = EngineConfig::default();
    let global = dco::obs::global();
    let counters = || {
        (
            global.counter("datalog.runs").value(),
            global.counter("datalog.stages").value(),
            global.counter("datalog.body_evals").value(),
            dco::core::cache::sat_cache_stats(),
        )
    };

    let begin = Instant::now();
    let t0 = begin + WARMUP;
    let t1 = t0 + Duration::from_secs(seconds);
    // Client thread `thread` takes instances thread, thread + THREADS, …
    let client = |thread: u64| {
        let (mut runs, mut kept) = (Vec::new(), HashMap::new());
        let mut index = thread;
        while Instant::now() < t1 {
            let instance = index % POOL;
            let db = &pool[instance as usize];
            let start = Instant::now();
            let (out, probes) = if traced {
                dco::obs::trace::begin("datalog tc");
                let out = run_guarded(GuardLimits::none(), || run_with(&program, db, &config));
                let probes = dco::obs::trace::finish()
                    .map(|t| t.probes.iter().map(|p| (p.site, p.count)).collect())
                    .unwrap_or_default();
                let out = match out {
                    Ok(g) => g.value.map_err(|e| e.to_string()),
                    Err(e) => Err(e.to_string()),
                };
                (out, probes)
            } else {
                (
                    run_with(&program, db, &config).map_err(|e| e.to_string()),
                    Vec::new(),
                )
            };
            let end = Instant::now();
            let stages = out.as_ref().map_or(0, |o| o.stats.stages);
            let tc = out.as_ref().ok().and_then(|o| o.database.get("tc"));
            let fp = match tc {
                Some(tc) if instance.is_multiple_of(CHECK_EVERY) => {
                    let fp = report::fingerprint(tc);
                    kept.entry((instance, fp)).or_insert_with(|| tc.clone());
                    Some(fp)
                }
                _ => None,
            };
            runs.push(Fixpoint {
                start,
                end,
                instance,
                fp,
                ok: out.is_ok(),
                stages,
                probes,
            });
            index += THREADS;
        }
        (runs, kept)
    };
    let (runs, kept, at_t0) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..THREADS)
            .map(|t| scope.spawn(move || client(t)))
            .collect();
        std::thread::sleep(t0.saturating_duration_since(Instant::now()));
        let at_t0 = counters();
        let mut runs = Vec::new();
        let mut kept = HashMap::new();
        for c in clients {
            let (r, k) = c.join().expect("client thread");
            runs.extend(r);
            kept.extend(k);
        }
        (runs, kept, at_t0)
    });
    r.set("peak_rss_mb", report::peak_rss_mb());
    let (runs0, stages0, evals0, sat0) = at_t0;
    let (runs1, stages1, evals1, sat1) = counters();

    let in_window = |f: &Fixpoint| f.start >= t0 && f.end <= t1;
    let window: Vec<&Fixpoint> = runs.iter().filter(|f| in_window(f)).collect();
    let lat: Vec<f64> = window.iter().map(|f| ms(f.end - f.start)).collect();
    r.set(
        "ops_per_s",
        report::per_second(t0, window.iter().map(|q| q.end)),
    );
    r.set("read_p50_ms", report::median(&lat));
    let mut by_instance: HashMap<u64, Vec<f64>> = HashMap::new();
    for f in &window {
        by_instance
            .entry(f.instance)
            .or_default()
            .push(ms(f.end - f.start));
    }
    let medians: Vec<f64> = by_instance.values().map(|v| report::median(v)).collect();
    r.set("read_tail_ms", report::quantile(&medians, TAIL));
    r.line(format!(
        "window {seconds}s after {}s warm-up: {} fixpoints of {} edges over {} instances; p50 {:.3} ms, p{} of instance medians {:.3} ms ({} instances beyond)",
        WARMUP.as_secs(),
        window.len(),
        gen::CHAIN_EDGES,
        medians.len(),
        r.get("read_p50_ms"),
        TAIL * 100.0,
        r.get("read_tail_ms"),
        report::beyond(&medians, TAIL)
    ));

    r.line(report::percentiles_line("window", &lat));
    r.line(report::percentiles_line("instance medians", &medians));
    r.line(report::per_second_line(t0, window.iter().map(|q| q.end)));

    // Per layer: the engine's counters in the global registry, the
    // kernel's memo cache, and (traced) the guard probes per run.
    let n = (runs1 - runs0) as f64;
    r.set(
        "datalog.stages_per_run",
        ratio((stages1 - stages0) as f64, n),
    );
    r.set(
        "datalog.body_evals_per_run",
        ratio((evals1 - evals0) as f64, n),
    );
    let stage_ms: Vec<f64> = window
        .iter()
        .filter(|f| f.stages > 0)
        .map(|f| ms(f.end - f.start) / f.stages as f64)
        .collect();
    r.set("datalog.stage_ms", report::mean(&stage_ms));
    r.set(
        "core.sat_cache_hit_ratio",
        ratio(
            (sat1.hits - sat0.hits) as f64,
            (sat1.hits - sat0.hits + sat1.misses - sat0.misses) as f64,
        ),
    );
    r.set(
        "core.sat_cache_evictions",
        (sat1.evictions - sat0.evictions) as f64,
    );
    if traced {
        for (site, metric) in [
            ("dnf_insert", "eval.dnf_insert"),
            ("quantifier_elim", "eval.quantifier_elim"),
            ("cell_split", "eval.cell_split"),
        ] {
            let per_run: Vec<f64> = window
                .iter()
                .map(|f| {
                    f.probes
                        .iter()
                        .find(|(s, _)| *s == site)
                        .map_or(0.0, |(_, c)| *c as f64)
                })
                .collect();
            r.set(metric, report::mean(&per_run));
        }
    }
    r.line(format!(
        "stages/run {:.2}, body evals/run {:.2}, {:.3} ms/stage; sat cache hit ratio {:.3}, {} evictions",
        r.get("datalog.stages_per_run"),
        r.get("datalog.body_evals_per_run"),
        r.get("datalog.stage_ms"),
        r.get("core.sat_cache_hit_ratio"),
        r.get("core.sat_cache_evictions"),
    ));

    // Checks, outside the window: each distinct closure of a checked
    // instance against the chain's closed form.
    let verdicts: HashMap<(u64, u64), bool> = kept
        .iter()
        .map(|(&(instance, fp), tc)| {
            let closed = gen::chain_closure(&gen::chain_edges(seed, instance));
            ((instance, fp), tc.equivalent(&closed))
        })
        .collect();
    let wrong = |f: &Fixpoint| f.fp.is_some_and(|fp| !verdicts[&(f.instance, fp)]);
    let checked = runs.iter().filter(|f| f.fp.is_some()).count();
    let mismatches = runs.iter().filter(|f| wrong(f)).count();
    let failed = window.iter().filter(|f| !f.ok || wrong(f)).count();
    r.line(format!(
        "checked {checked} closures ({} distinct) against the closed form: {mismatches} mismatches",
        verdicts.len()
    ));
    r.attempted = window.len() as u64;
    r.failed = failed as u64;
    r.correct = mismatches == 0;
    r
}
