//! `query_cold`: in-process `Store::query` from two threads cycling 512
//! distinct formulas, so the 256-entry prepared cache never answers and
//! preflight, planning and the elimination kernel do the work. The
//! reactor and the WAL are not on the path.

use crate::gen;
use crate::report::{self, hist_mean_us, ms, ratio, Report, WorkDir};
use dco::prelude::*;
use dco::store::{QueryOutput, Store, StoreOptions};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Tail percentile of query latency: at HEAD a 20 s window holds
/// 600–1,000 queries, so p98 keeps at least ten samples beyond it.
pub const TAIL: f64 = 0.98;
const WARMUP: Duration = Duration::from_secs(8);
/// Set-ups timed before the window; `setup_s` is their median.
const SETUPS: usize = 15;
const THREADS: u64 = 2;
/// Distinct formulas per client thread, cycled in order. The two
/// threads' 512 formulas are twice the prepared cache's 256 FIFO
/// entries, so every lookup misses; and since the library keeps memory
/// per distinct formula it has evaluated, a fixed set keeps the resident
/// set from growing with throughput.
const PER_THREAD: u64 = 256;
/// Every `CHECK_EVERY`-th formula is checked, each time it runs.
const CHECK_EVERY: u64 = 4;
/// Formulas explained (outside the window) for the planner's q-error.
const EXPLAINED: u64 = 16;

fn set_up(relations: &[(String, GeneralizedRelation)], tag: &str) -> (WorkDir, Store) {
    let dir = WorkDir::new(tag);
    let store = Store::open(&dir.0, StoreOptions::default()).expect("open store");
    for (name, rel) in relations {
        store.create(name, 2).expect("create relation");
        store.insert(name, rel.clone()).expect("load relation");
    }
    (dir, store)
}

struct Query {
    start: Instant,
    end: Instant,
    /// Formula `thread · PER_THREAD + i` is `cold_formula(seed, thread, i)`.
    formula: u64,
    /// Fingerprint of the answer when the formula is one of the checked.
    fp: Option<u64>,
    ok: bool,
}

fn formula_text(seed: u64, formula: u64) -> String {
    gen::cold_formula(seed, formula / PER_THREAD, formula % PER_THREAD)
}

pub fn run(seed: u64, seconds: u64, _traced: bool) -> Report {
    let mut r = Report::default();
    let relations = gen::cold_database(seed);

    let mut setup_times = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let s = set_up(&relations, &format!("query_cold-{i}"));
        setup_times.push(t.elapsed().as_secs_f64());
        drop(kept.replace(s));
    }
    let (dir, store) = kept.expect("at least one set-up");
    r.set("setup_s", report::median(&setup_times));
    r.line(report::setups_line(&setup_times));

    let registry = store.registry();
    let h_total = registry.histogram("store.query.total");
    let h_eval = registry.histogram("store.query.eval");
    let begin = Instant::now();
    let t0 = begin + WARMUP;
    let t1 = t0 + Duration::from_secs(seconds);

    let (queries, kept, at_t0) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|thread| {
                let store = &store;
                scope.spawn(move || {
                    let (mut out, mut kept) = (Vec::new(), HashMap::new());
                    let mut index = 0;
                    while Instant::now() < t1 {
                        let formula = thread * PER_THREAD + index % PER_THREAD;
                        let text = formula_text(seed, formula);
                        let start = Instant::now();
                        let answer = store.query(&text);
                        let end = Instant::now();
                        let fp = match &answer {
                            Ok(a) if formula.is_multiple_of(CHECK_EVERY) => {
                                let fp = report::fingerprint(&a.relation);
                                kept.entry((formula, fp)).or_insert_with(|| a.clone());
                                Some(fp)
                            }
                            _ => None,
                        };
                        out.push(Query {
                            start,
                            end,
                            formula,
                            fp,
                            ok: answer.is_ok(),
                        });
                        index += 1;
                    }
                    (out, kept)
                })
            })
            .collect();
        std::thread::sleep(t0.saturating_duration_since(Instant::now()));
        let at_t0 = (
            store.stats(),
            h_total.snapshot(),
            h_eval.snapshot(),
            dco::core::cache::sat_cache_stats(),
        );
        let mut queries = Vec::new();
        let mut kept = HashMap::new();
        for w in workers {
            let (q, k) = w.join().expect("client thread");
            queries.extend(q);
            kept.extend(k);
        }
        (queries, kept, at_t0)
    });
    r.set("peak_rss_mb", report::peak_rss_mb());
    let (stats0, tot0, ev0, sat0) = at_t0;
    let stats1 = store.stats();
    let sat1 = dco::core::cache::sat_cache_stats();

    let in_window = |q: &Query| q.start >= t0 && q.end <= t1;
    let window: Vec<&Query> = queries.iter().filter(|q| in_window(q)).collect();
    let lat: Vec<f64> = window.iter().map(|q| ms(q.end - q.start)).collect();
    r.set(
        "ops_per_s",
        report::per_second(t0, window.iter().map(|q| q.end)),
    );
    r.set("read_p50_ms", report::median(&lat));
    r.set("read_tail_ms", report::quantile(&lat, TAIL));
    r.line(format!(
        "window {seconds}s after {}s warm-up, {THREADS} threads: {} queries; p50 {:.3} ms, p{} {:.3} ms ({} beyond)",
        WARMUP.as_secs(),
        window.len(),
        r.get("read_p50_ms"),
        TAIL * 100.0,
        r.get("read_tail_ms"),
        report::beyond(&lat, TAIL)
    ));

    r.line(report::percentiles_line("window", &lat));
    r.line(report::per_second_line(t0, window.iter().map(|q| q.end)));

    // Per layer: the store's own instruments over the window.
    let hits = stats1.cache_hits - stats0.cache_hits;
    let misses = stats1.cache_misses - stats0.cache_misses;
    r.set(
        "store.cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    r.set(
        "store.query.total_us",
        hist_mean_us(&tot0, &h_total.snapshot()),
    );
    r.set(
        "store.query.eval_us",
        hist_mean_us(&ev0, &h_eval.snapshot()),
    );
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
    let traces = store.recent_traces();
    let window_traces: Vec<_> = traces.iter().rev().take(window.len()).cloned().collect();
    report::record_traces(&window_traces, &mut r);
    r.line(format!(
        "prepared cache hit ratio {:.3} ({hits}/{}); sat cache hit ratio {:.3}, {} evictions",
        r.get("store.cache_hit_ratio"),
        hits + misses,
        r.get("core.sat_cache_hit_ratio"),
        r.get("core.sat_cache_evictions"),
    ));

    // Checks, outside the window: the sampled answers against `fo::eval`
    // on the same database without the store.
    let mut db_schema = Schema::new();
    for (name, _) in &relations {
        db_schema = db_schema.with(name, 2);
    }
    let mut db = Database::new(db_schema);
    for (name, rel) in &relations {
        db.set(name, rel.clone()).expect("declared");
    }
    // Each distinct answer once, on two checker threads.
    let answers: Vec<(&(u64, u64), &QueryOutput)> = kept.iter().collect();
    let verdicts: HashMap<(u64, u64), bool> = std::thread::scope(|scope| {
        let checkers: Vec<_> = answers
            .chunks(answers.len().div_ceil(THREADS as usize).max(1))
            .map(|chunk| {
                let db = &db;
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|(&key, answer)| (key, check(db, &formula_text(seed, key.0), answer)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        checkers
            .into_iter()
            .flat_map(|c| c.join().expect("checker thread"))
            .collect()
    });
    let wrong = |q: &Query| q.fp.is_some_and(|fp| !verdicts[&(q.formula, fp)]);
    let checked = queries.iter().filter(|q| q.fp.is_some()).count();
    let mismatches = queries.iter().filter(|q| wrong(q)).count();
    let failed = window.iter().filter(|q| !q.ok || wrong(q)).count();
    let errors = window.iter().filter(|q| !q.ok).count();
    r.line(format!(
        "checked {checked} answers ({} distinct) against fo::eval: {mismatches} mismatches; {errors} errors in the window",
        verdicts.len()
    ));

    let mut q_errors = Vec::new();
    for i in 0..EXPLAINED {
        if let Ok(e) =
            store.query_explain(&formula_text(seed, i * THREADS * PER_THREAD / EXPLAINED))
        {
            report::plan_q_errors(&e.plan.root, &mut q_errors);
        }
    }
    r.set("analysis.q_error_p50", report::median(&q_errors));
    r.set(
        "analysis.q_error_max",
        q_errors.iter().copied().fold(0.0, f64::max),
    );

    r.attempted = window.len() as u64;
    r.failed = failed as u64;
    r.correct = mismatches == 0;
    drop(store);
    drop(dir);
    r
}

/// An answer against `fo::eval` of the same formula.
fn check(db: &Database, text: &str, answer: &QueryOutput) -> bool {
    let formula = parse_formula(text).expect("generated formulas parse");
    match dco::fo::eval(db, &formula) {
        Ok(want) => want.columns == answer.columns && want.relation.equivalent(&answer.relation),
        Err(_) => false,
    }
}
