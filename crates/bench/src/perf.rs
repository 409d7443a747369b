//! Performance baselines and parallel-vs-sequential verification.
//!
//! Two jobs, both driven from the `experiments` binary:
//!
//! * [`run_perf`] times the hot workloads under the sequential and the
//!   parallel [`EvalConfig`], and the inflationary engine with and
//!   without semi-naive deltas, recording wall time, DNF sizes, and the
//!   satisfiability-cache hit rate. [`write_json`] serialises the
//!   records to `BENCH_results.json` (hand-rolled — no serde in-tree).
//! * [`verify_parallel`] recomputes every workload under 1 thread and
//!   under a forced multi-thread configuration and demands *structurally
//!   identical* results (`==` on the canonical DNF), the determinism
//!   guarantee the parallel layer promises.

use dco::datalog::{parse_program, run_with, EngineConfig, Program};
use dco::prelude::*;
use dco::store::{serve, Client, Store, StoreOptions};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One timed measurement.
#[derive(Debug, Clone)]
pub struct PerfRecord {
    /// Workload name (`tc_chain`, `fo_complement`, `algebra_intersect`, …).
    pub experiment: String,
    /// Instance size parameter.
    pub size: usize,
    /// Configuration label (`seq`, `par4`, `engine_naive`, `engine_delta`).
    pub config: String,
    /// Median-of-3 wall time in milliseconds.
    pub wall_ms: f64,
    /// Disjuncts in the result DNF.
    pub tuples: usize,
    /// Atoms across the result DNF.
    pub atoms: usize,
    /// Satisfiability-cache hits during the measured runs.
    pub cache_hits: u64,
    /// Satisfiability-cache misses during the measured runs.
    pub cache_misses: u64,
    /// Satisfiability-cache evictions during the measured runs.
    pub cache_evictions: u64,
    /// `hits / (hits + misses)`, 0.0 when the cache was untouched.
    pub cache_hit_rate: f64,
    /// Guarded runs that tripped a limit and returned a typed fault
    /// instead of a result (0 for unguarded rows).
    pub aborted: u64,
    /// Parallel workers that panicked and were retried sequentially by
    /// the guard layer (0 for unguarded rows).
    pub worker_retries: u64,
    /// WAL fsyncs the store issued during the run (0 for non-store rows
    /// and for stores opened with fsync disabled). Under group commit
    /// with concurrent writers, `fsyncs / tuples` drops below 1.
    pub fsyncs: u64,
    /// Largest commit batch a single fsync covered (0 for non-store
    /// rows): direct evidence that group commit actually batched.
    pub commit_batch_max: u64,
}

/// Median of three timed runs, in milliseconds.
fn time_ms(mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[1]
}

/// `n` constraint edges `[i, i+1/2] × [i+1, i+3/2]`: genuine boxes, so
/// transitive closure cannot take the finite-graph points fast path and
/// every stage runs the full DNF algebra (product, intersect, project).
pub fn chain_db(n: usize) -> Database {
    let tuples = (0..n).map(|i| {
        let lo = 2 * i as i128;
        GeneralizedTuple::from_raw(
            2,
            vec![
                RawAtom::new(Term::cst(rat(lo, 2)), RawOp::Le, Term::var(0)),
                RawAtom::new(Term::var(0), RawOp::Le, Term::cst(rat(lo + 1, 2))),
                RawAtom::new(Term::cst(rat(lo + 2, 2)), RawOp::Le, Term::var(1)),
                RawAtom::new(Term::var(1), RawOp::Le, Term::cst(rat(lo + 3, 2))),
            ],
        )
        .pop()
        .expect("chain edge is satisfiable")
    });
    Database::new(Schema::new().with("e", 2)).with("e", GeneralizedRelation::from_tuples(2, tuples))
}

fn tc_program() -> Program {
    parse_program(
        "tc(x, y) :- e(x, y).\n\
         tc(x, y) :- tc(x, z), e(z, y).\n",
    )
    .expect("tc program parses")
}

/// A multi-thread configuration with the fork threshold floored so the
/// parallel code paths run even on small instances.
fn forced_parallel(threads: usize) -> EvalConfig {
    EvalConfig {
        threads,
        parallel_threshold: 1,
        ..EvalConfig::default()
    }
}

/// The adversarial star-join query over [`crate::workloads::star_join_db`].
fn star_join_query() -> Formula {
    parse_formula("hub(x, y) & wing1(x, y) & wing2(x, y) & pin(x, y)")
        .expect("star join query parses")
}

/// One `join_order` row: the star join evaluated either in the written
/// (syntactic) conjunct order or in the statistics-planned order. Both
/// run sequentially — the row pair isolates the planner's contribution.
fn join_order_record(size: usize, config: &str) -> PerfRecord {
    let db = crate::workloads::star_join_db(size);
    let formula = match config {
        "planned" => {
            let stats = dco::analysis::stats::DbStats::of_database(&db);
            dco::analysis::plan_formula(&star_join_query(), &stats)
        }
        _ => star_join_query(),
    };
    relation_record(
        "join_order",
        size,
        config,
        EvalConfig::sequential(),
        move || {
            eval_fo(&db, &formula)
                .expect("star join evaluates")
                .relation
        },
    )
}

/// The seed kernel under a sequential schedule: the "before" row of the
/// before/after pair (`seed` vs `interned` config labels). Same binary,
/// same host — only the kernel fast paths differ.
fn seed_sequential() -> EvalConfig {
    EvalConfig {
        threads: 1,
        ..EvalConfig::seed_kernel()
    }
}

fn relation_record(
    experiment: &str,
    size: usize,
    config: &str,
    cfg: EvalConfig,
    f: impl Fn() -> GeneralizedRelation,
) -> PerfRecord {
    reset_sat_cache();
    let mut result: Option<GeneralizedRelation> = None;
    let wall_ms = time_ms(|| {
        result = Some(with_eval_config(cfg, &f));
    });
    let stats = sat_cache_stats();
    let r = result.expect("workload ran");
    PerfRecord {
        experiment: experiment.to_string(),
        size,
        config: config.to_string(),
        wall_ms,
        tuples: r.len(),
        atoms: r.size(),
        cache_hits: stats.hits,
        cache_misses: stats.misses,
        cache_evictions: stats.evictions,
        cache_hit_rate: stats.hit_rate(),
        aborted: 0,
        worker_retries: 0,
        fsyncs: 0,
        commit_batch_max: 0,
    }
}

fn engine_record(
    experiment: &str,
    size: usize,
    config: &str,
    cfg: EvalConfig,
    db: &Database,
    program: &Program,
    engine_cfg: &EngineConfig,
) -> PerfRecord {
    reset_sat_cache();
    let mut tuples = 0;
    let mut atoms = 0;
    let wall_ms = time_ms(|| {
        let fix = with_eval_config(cfg, || run_with(program, db, engine_cfg)).expect("fixpoint");
        let tc = fix.database.get("tc").expect("tc defined");
        tuples = tc.len();
        atoms = tc.size();
    });
    let stats = sat_cache_stats();
    PerfRecord {
        experiment: experiment.to_string(),
        size,
        config: config.to_string(),
        wall_ms,
        tuples,
        atoms,
        cache_hits: stats.hits,
        cache_misses: stats.misses,
        cache_evictions: stats.evictions,
        cache_hit_rate: stats.hit_rate(),
        aborted: 0,
        worker_retries: 0,
        fsyncs: 0,
        commit_batch_max: 0,
    }
}

/// Time every workload under each configuration. `threads` is the
/// multi-thread worker count (0 = auto).
pub fn run_perf(quick: bool, threads: usize) -> Vec<PerfRecord> {
    let tc_sizes: &[usize] = if quick { &[3, 5] } else { &[4, 8, 12] };
    let fo_sizes: &[usize] = if quick { &[4, 8] } else { &[8, 16, 24] };
    let par_label = format!("par{threads}");
    let program = tc_program();
    let mut out = Vec::new();

    // Transitive closure over constraint chains: the engine comparison
    // (naive full stages vs semi-naive deltas) plus the eval-config pair.
    for &n in tc_sizes {
        let db = chain_db(n);
        let naive = EngineConfig {
            use_deltas: false,
            ..EngineConfig::default()
        };
        out.push(engine_record(
            "tc_chain",
            n,
            "engine_naive",
            EvalConfig::sequential(),
            &db,
            &program,
            &naive,
        ));
        out.push(engine_record(
            "tc_chain",
            n,
            "engine_delta",
            EvalConfig::sequential(),
            &db,
            &program,
            &EngineConfig::default(),
        ));
        // Before/after rows for the kernel itself, same schedule and same
        // engine configuration — only the tuple-kernel fast paths differ.
        out.push(engine_record(
            "tc_chain",
            n,
            "seed",
            seed_sequential(),
            &db,
            &program,
            &EngineConfig::default(),
        ));
        out.push(engine_record(
            "tc_chain",
            n,
            "interned",
            EvalConfig::sequential(),
            &db,
            &program,
            &EngineConfig::default(),
        ));
        for (label, cfg) in [
            ("seq", EvalConfig::sequential()),
            (par_label.as_str(), forced_parallel(threads)),
        ] {
            reset_sat_cache();
            let mut tuples = 0;
            let mut atoms = 0;
            let wall_ms = time_ms(|| {
                let fix =
                    with_eval_config(cfg, || run_with(&program, &db, &EngineConfig::default()))
                        .expect("fixpoint");
                let tc = fix.database.get("tc").expect("tc defined");
                tuples = tc.len();
                atoms = tc.size();
            });
            let stats = sat_cache_stats();
            out.push(PerfRecord {
                experiment: "tc_chain".to_string(),
                size: n,
                config: label.to_string(),
                wall_ms,
                tuples,
                atoms,
                cache_hits: stats.hits,
                cache_misses: stats.misses,
                cache_evictions: stats.evictions,
                cache_hit_rate: stats.hit_rate(),
                aborted: 0,
                worker_retries: 0,
                fsyncs: 0,
                commit_batch_max: 0,
            });
        }
    }

    // FO with complement: `S(x) and not S(y)` over n disjoint intervals
    // forces the quantifier-free complement (n+1 disjuncts) and a product.
    for &n in fo_sizes {
        let db = crate::workloads::interval_db(n);
        for (label, cfg) in [
            ("seq", EvalConfig::sequential()),
            (par_label.as_str(), forced_parallel(threads)),
            ("seed", seed_sequential()),
            ("interned", EvalConfig::sequential()),
        ] {
            let db = &db;
            out.push(relation_record("fo_complement", n, label, cfg, move || {
                eval_fo_str(db, "S(x) and not S(y)")
                    .expect("query evaluates")
                    .relation
            }));
        }
    }

    // Raw DNF algebra: intersect an interval relation with a half-open
    // shift of itself — the tuple-pair loop the parallel map targets.
    for &n in fo_sizes {
        let db = crate::workloads::interval_db(n);
        let s = db.get("S").expect("S defined").clone();
        let shifted = {
            let f = dco::core::automorphism::Automorphism::translation(rat(1, 2));
            f.apply_relation(&s)
        };
        for (label, cfg) in [
            ("seq", EvalConfig::sequential()),
            (par_label.as_str(), forced_parallel(threads)),
            ("seed", seed_sequential()),
            ("interned", EvalConfig::sequential()),
        ] {
            let s = &s;
            let shifted = &shifted;
            out.push(relation_record(
                "algebra_intersect",
                n,
                label,
                cfg,
                move || s.intersect(shifted),
            ));
        }
    }

    // Join-order planning: the star join whose syntactic conjunct order
    // materialises an n×n strip grid that the cost-based order (pin
    // first) never builds. Both rows are sequential, so the ratio is the
    // planner's contribution alone.
    let join_sizes: &[usize] = if quick { &[6, 10] } else { &[8, 16, 24] };
    for &n in join_sizes {
        out.push(join_order_record(n, "syntactic"));
        out.push(join_order_record(n, "planned"));
    }

    // Guard-layer accounting: the same tc fixpoint under a no-limit guard
    // (probe overhead + containment, fault-free) and under a deliberately
    // tight tuple budget (every run aborts with a typed fault). The
    // `aborted` and `worker_retries` columns let the regression gate tell
    // a cancelled run from a slow one.
    for &n in tc_sizes {
        let db = chain_db(n);
        out.push(guarded_engine_record(
            "tc_chain", n, "guarded", &db, &program,
        ));
        out.push(guarded_abort_record("tc_chain", n, &db, &program));
    }

    // Store throughput: WAL-append load, cold-open recovery, and a burst
    // of concurrent prepared queries over TCP.
    out.extend(store_perf(quick));
    out
}

/// `n` pairwise-disjoint unit intervals `[3k, 3k+1]` for relation `s` —
/// disjointness pins the tuple count, so the rows are self-checking.
fn store_interval(k: usize) -> GeneralizedRelation {
    let lo = 3 * k as i128;
    GeneralizedRelation::from_raw(
        1,
        vec![
            RawAtom::new(Term::cst(rat(lo, 1)), RawOp::Le, Term::var(0)),
            RawAtom::new(Term::var(0), RawOp::Le, Term::cst(rat(lo + 1, 1))),
        ],
    )
}

/// Bench stores skip fsync (disk-sync latency is the host's property,
/// not the codec's) and never auto-snapshot, so cold-open measures a
/// pure WAL replay of `n` records.
fn bench_store_options() -> StoreOptions {
    StoreOptions {
        snapshot_every: 0,
        fsync: false,
        ..StoreOptions::default()
    }
}

fn fresh_store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dco-bench-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Create a store at `dir` and load `n` disjoint intervals into `s`.
fn load_store(dir: &Path, n: usize) -> Store {
    let store = Store::open(dir, bench_store_options()).expect("open bench store");
    store.create("s", 1).expect("create s");
    for k in 0..n {
        store.insert("s", store_interval(k)).expect("insert");
    }
    store
}

/// Cold-open recovery row: replay a WAL of `size` inserts from disk.
/// Deterministic and single-threaded — the store family's regression-
/// gate row (see [`bench_compare`]).
fn store_open_record(size: usize) -> PerfRecord {
    let dir = fresh_store_dir(&format!("open-{size}"));
    drop(load_store(&dir, size));
    let mut tuples = 0;
    let mut atoms = 0;
    let wall_ms = time_ms(|| {
        let store = Store::open(&dir, bench_store_options()).expect("cold open");
        let generation = store.read();
        let s = generation.db.get("s").expect("s recovered");
        tuples = s.len();
        atoms = s.size();
    });
    let _ = std::fs::remove_dir_all(&dir);
    PerfRecord {
        experiment: "store_throughput".to_string(),
        size,
        config: "store_open".to_string(),
        wall_ms,
        tuples,
        atoms,
        cache_hits: 0,
        cache_misses: 0,
        cache_evictions: 0,
        cache_hit_rate: 0.0,
        aborted: 0,
        worker_retries: 0,
        fsyncs: 0,
        commit_batch_max: 0,
    }
}

/// The first `count` relation names of the form `m{i}` that land in
/// pairwise-distinct shards of an `nshards`-way store. The fingerprint
/// is deterministic, so so is the search.
fn spread_names(count: usize, nshards: usize) -> Vec<String> {
    let mut names = Vec::new();
    let mut used = std::collections::BTreeSet::new();
    for i in 0..64 {
        let cand = format!("m{i}");
        if used.insert(dco::store::shard_of(&cand, nshards)) {
            names.push(cand);
            if names.len() == count {
                break;
            }
        }
    }
    assert_eq!(names.len(), count, "could not spread names over shards");
    names
}

/// Single-writer WAL-append throughput: `size` inserts into a fresh
/// store (fsync off). Gated by [`bench_compare`] — the single-threaded
/// baseline the multi-writer row is measured against.
fn store_load_record(size: usize) -> PerfRecord {
    let mut run = 0usize;
    let wall_ms = time_ms(|| {
        let dir = fresh_store_dir(&format!("load-{size}-{run}"));
        run += 1;
        let store = load_store(&dir, size);
        assert_eq!(store.read().seq, 1 + size as u64);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    });
    PerfRecord {
        experiment: "store_throughput".to_string(),
        size,
        config: "store_load".to_string(),
        wall_ms,
        tuples: size,
        atoms: 2 * size,
        cache_hits: 0,
        cache_misses: 0,
        cache_evictions: 0,
        cache_hit_rate: 0.0,
        aborted: 0,
        worker_retries: 0,
        fsyncs: 0,
        commit_batch_max: 0,
    }
}

/// Multi-writer throughput: `writers` threads each insert
/// `size / writers` intervals into their *own* relation, the relations
/// chosen to live in distinct shards, so validation and successor-state
/// computation run genuinely in parallel. Same total commit count as
/// the `store_load` row of the same size. Skipped by the gate on 1-CPU
/// hosts, like the `par*` rows.
fn store_load_mt_record(size: usize, writers: usize) -> PerfRecord {
    let names = spread_names(writers, StoreOptions::default().shards);
    let per = size / writers;
    let mut run = 0usize;
    let mut fsyncs = 0;
    let mut batch_max = 0;
    let wall_ms = time_ms(|| {
        let dir = fresh_store_dir(&format!("load-mt{writers}-{size}-{run}"));
        run += 1;
        let store = Store::open(&dir, bench_store_options()).expect("open bench store");
        for name in &names {
            store.create(name, 1).expect("create");
        }
        let threads: Vec<_> = names
            .iter()
            .cloned()
            .map(|name| {
                let store = store.clone();
                std::thread::spawn(move || {
                    for k in 0..per {
                        store.insert(&name, store_interval(k)).expect("insert");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("bench writer");
        }
        assert_eq!(store.read().seq, (writers + writers * per) as u64);
        let stats = store.stats();
        fsyncs = stats.fsyncs;
        batch_max = stats.commit_batch_max;
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    });
    PerfRecord {
        experiment: "store_throughput".to_string(),
        size,
        config: format!("store_load_mt{writers}"),
        wall_ms,
        tuples: writers * per,
        atoms: 2 * writers * per,
        cache_hits: 0,
        cache_misses: 0,
        cache_evictions: 0,
        cache_hit_rate: 0.0,
        aborted: 0,
        worker_retries: 0,
        fsyncs,
        commit_batch_max: batch_max,
    }
}

/// Group-commit row: `writers` threads issue `size / writers` durable
/// (fsync ON) inserts each into distinct-shard relations. The paired
/// `group_commit_w1` / `group_commit_w{N}` rows make the batching claim
/// measurable: with one writer every commit pays its own fsync
/// (`fsyncs == tuples`); with N concurrent writers followers ride the
/// leader's fsync and `fsyncs / tuples` drops below 1 while
/// `commit_batch_max` rises above 1. Informational (never gated): it
/// times the host's disk-sync latency.
fn group_commit_record(commits: usize, writers: usize) -> PerfRecord {
    let names = spread_names(writers, StoreOptions::default().shards);
    let per = commits / writers;
    let opts = StoreOptions {
        snapshot_every: 0,
        fsync: true,
        ..StoreOptions::default()
    };
    let mut run = 0usize;
    let mut fsyncs = 0;
    let mut batch_max = 0;
    let wall_ms = time_ms(|| {
        let dir = fresh_store_dir(&format!("gc{writers}-{commits}-{run}"));
        run += 1;
        let store = Store::open(&dir, opts.clone()).expect("open bench store");
        for name in &names {
            store.create(name, 1).expect("create");
        }
        let threads: Vec<_> = names
            .iter()
            .cloned()
            .map(|name| {
                let store = store.clone();
                std::thread::spawn(move || {
                    for k in 0..per {
                        store.insert(&name, store_interval(k)).expect("insert");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("bench writer");
        }
        let stats = store.stats();
        fsyncs = stats.fsyncs;
        batch_max = stats.commit_batch_max;
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    });
    PerfRecord {
        experiment: "group_commit".to_string(),
        size: commits,
        config: format!("group_commit_w{writers}"),
        wall_ms,
        tuples: writers * per,
        atoms: 2 * writers * per,
        cache_hits: 0,
        cache_misses: 0,
        cache_evictions: 0,
        cache_hit_rate: 0.0,
        aborted: 0,
        worker_retries: 0,
        fsyncs,
        commit_batch_max: batch_max,
    }
}

/// Sustained serving throughput at `conns` simultaneous connections:
/// every connection sends one `QUERY s(x)` per round, all written before
/// any reply is read, so the reactor holds `conns` outstanding requests
/// at once. After the first (cold) evaluation every reply is a
/// prepared-cache hit, so the row measures the serving path — reactor
/// frame handling, worker-pool dispatch, write-back — not evaluation.
/// `tuples` = total requests answered. Connections are dialed once,
/// outside the timed region, and reused across the median-of-3 runs.
fn store_conc_record(conns: usize, rounds: usize) -> PerfRecord {
    let dir = fresh_store_dir(&format!("conc-{conns}"));
    let store = load_store(&dir, 8);
    let handle = serve(store.clone(), "127.0.0.1:0").expect("bind bench server");
    let addr = handle.addr();
    let mut socks: Vec<std::net::TcpStream> = (0..conns)
        .map(|i| {
            let s = std::net::TcpStream::connect(addr)
                .unwrap_or_else(|e| panic!("bench connect #{i}: {e}"));
            s.set_nodelay(true).expect("nodelay");
            s.set_read_timeout(Some(std::time::Duration::from_secs(60)))
                .expect("read timeout");
            s
        })
        .collect();
    let wall_ms = time_ms(|| {
        for _ in 0..rounds {
            for s in socks.iter_mut() {
                dco::store::wire::write_frame(s, "QUERY s(x)").expect("request");
            }
            for s in socks.iter_mut() {
                let reply = dco::store::wire::read_frame(s)
                    .expect("well-framed reply")
                    .expect("connection open");
                assert!(reply.starts_with("OK {"), "bad reply: {reply}");
            }
        }
    });
    let stats = store.stats();
    drop(socks);
    handle.shutdown();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    PerfRecord {
        experiment: "store_serve".to_string(),
        size: conns,
        config: format!("store_conc{conns}"),
        wall_ms,
        tuples: conns * rounds,
        atoms: 0,
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
        cache_evictions: 0,
        cache_hit_rate: if stats.cache_hits + stats.cache_misses > 0 {
            stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses) as f64
        } else {
            0.0
        },
        aborted: 0,
        worker_retries: 0,
        fsyncs: 0,
        commit_batch_max: 0,
    }
}

/// Admission-controlled serving throughput: like `store_conc`, but
/// every request carries a propagated deadline and tuple budget, so
/// each round pays the full request-lifecycle machinery — option
/// parsing, queue-wait projection against the EWMA-calibrated service
/// time, budget derivation and guard tightening, and the served-late
/// check — on top of the plain serving path. The deadline is generous,
/// so nothing is actually shed (shed *behavior* is pass/fail, covered
/// by the overload acceptance test); what this row gates is the
/// overhead the lifecycle hardening adds to every served request.
/// `tuples` = total requests answered.
fn store_overload_record(conns: usize, rounds: usize) -> PerfRecord {
    let dir = fresh_store_dir(&format!("overload-{conns}"));
    let store = load_store(&dir, 8);
    let handle = serve(store.clone(), "127.0.0.1:0").expect("bind bench server");
    let addr = handle.addr();
    let mut socks: Vec<std::net::TcpStream> = (0..conns)
        .map(|i| {
            let s = std::net::TcpStream::connect(addr)
                .unwrap_or_else(|e| panic!("bench connect #{i}: {e}"));
            s.set_nodelay(true).expect("nodelay");
            s.set_read_timeout(Some(std::time::Duration::from_secs(60)))
                .expect("read timeout");
            s
        })
        .collect();
    let line = "QUERY @deadline_ms=60000,max_tuples=1000000 s(x)";
    let wall_ms = time_ms(|| {
        for _ in 0..rounds {
            for s in socks.iter_mut() {
                dco::store::wire::write_frame(s, line).expect("request");
            }
            for s in socks.iter_mut() {
                let reply = dco::store::wire::read_frame(s)
                    .expect("well-framed reply")
                    .expect("connection open");
                assert!(reply.starts_with("OK {"), "bad reply: {reply}");
            }
        }
    });
    let stats = store.stats();
    drop(socks);
    handle.shutdown();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    PerfRecord {
        experiment: "store_serve".to_string(),
        size: conns,
        config: format!("store_overload{conns}"),
        wall_ms,
        tuples: conns * rounds,
        atoms: 0,
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
        cache_evictions: 0,
        cache_hit_rate: if stats.cache_hits + stats.cache_misses > 0 {
            stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses) as f64
        } else {
            0.0
        },
        aborted: 0,
        worker_retries: 0,
        fsyncs: 0,
        commit_batch_max: 0,
    }
}

/// Replica catch-up: time for a fresh replica to dial the primary
/// (`REPL 0`), stream its full `size`-commit history as batch frames,
/// and apply it through the validate→publish path. One stream, no
/// thread scaling — gated on every host.
fn repl_lag_record(size: usize) -> PerfRecord {
    let pdir = fresh_store_dir(&format!("repl-primary-{size}"));
    let store = load_store(&pdir, size);
    let handle = serve(store.clone(), "127.0.0.1:0").expect("bind bench server");
    let addr = handle.addr();
    let target = store.read().seq;
    let mut run = 0usize;
    let wall_ms = time_ms(|| {
        let rdir = fresh_store_dir(&format!("repl-replica-{size}-{run}"));
        run += 1;
        let replica = Store::open(&rdir, bench_store_options()).expect("open replica");
        let stream = dco::store::replicate(replica.clone(), addr.to_string());
        assert!(
            stream.wait_for_seq(target, std::time::Duration::from_secs(60)),
            "replica never caught up to seq {target}"
        );
        stream.shutdown();
        assert_eq!(replica.read().seq, target, "replica stopped short");
        drop(replica);
        let _ = std::fs::remove_dir_all(&rdir);
    });
    handle.shutdown();
    drop(store);
    let _ = std::fs::remove_dir_all(&pdir);
    PerfRecord {
        experiment: "store_serve".to_string(),
        size,
        config: "repl_lag".to_string(),
        wall_ms,
        tuples: size,
        atoms: 2 * size,
        cache_hits: 0,
        cache_misses: 0,
        cache_evictions: 0,
        cache_hit_rate: 0.0,
        aborted: 0,
        worker_retries: 0,
        fsyncs: 0,
        commit_batch_max: 0,
    }
}

/// The store workload family:
///
/// * `store_load` — `size` WAL-logged inserts into a fresh store;
/// * `store_load_mt{N}` — the same commit count split over N writer
///   threads on distinct-shard relations;
/// * `store_open` — cold-open recovery replaying that WAL;
/// * `group_commit_w{N}` — durable (fsync ON) commits under 1 vs N
///   concurrent writers; the `fsyncs` and `commit_batch_max` columns
///   carry the batching evidence;
/// * `store_qc{C}` — C concurrent TCP clients each firing a burst of the
///   same prepared query (first evaluation cold, the rest answered by
///   the fingerprint × touched-shard epoch cache); `cache_hits`/
///   `cache_misses` are the store's own prepared-cache counters;
/// * `store_conc{C}` — sustained request rounds over C simultaneous
///   reactor connections (see [`store_conc_record`]);
/// * `repl_lag` — fresh-replica catch-up over the replication stream
///   (see [`repl_lag_record`]);
/// * `obs_overhead` — the `store_qc4` burst with the obs layer on vs
///   globally disabled (see [`obs_overhead_records`]).
pub fn store_perf(quick: bool) -> Vec<PerfRecord> {
    let sizes: &[usize] = if quick { &[32, 128] } else { &[64, 256] };
    let clients: usize = 4;
    let queries_each: usize = if quick { 8 } else { 16 };
    let group_commits: usize = if quick { 16 } else { 64 };
    let mut out = Vec::new();

    for &n in sizes {
        out.push(store_load_record(n));
        out.push(store_load_mt_record(n, 4));
        out.push(store_open_record(n));
        // Concurrent prepared-query burst over TCP.
        out.push(store_qc_record(
            n,
            clients,
            queries_each,
            "store_throughput",
            &format!("store_qc{clients}"),
        ));
    }

    // Observability overhead: the same prepared-query burst with the
    // whole obs layer recording (the default) vs globally disabled.
    // The paired rows carry the subsystem's overhead claim — see
    // [`obs_overhead_records`] and the gate in [`bench_compare`].
    out.extend(obs_overhead_records(quick));

    // Durable group commit: one writer (every commit pays an fsync) vs
    // four concurrent writers (followers ride the leader's fsync).
    out.push(group_commit_record(group_commits, 1));
    out.push(group_commit_record(group_commits, 4));

    // Reactor serving scale: sustained rounds at 64 / 256 / 1024
    // simultaneous connections (quick mode keeps one small row so the
    // JSON shape is covered without the connection herd).
    let conc: &[usize] = if quick { &[16] } else { &[64, 256, 1024] };
    let conc_rounds: usize = if quick { 2 } else { 4 };
    for &c in conc {
        out.push(store_conc_record(c, conc_rounds));
    }
    // Deadline-carrying serving rows: the request-lifecycle machinery's
    // overhead on the hot path (option parsing, budget derivation,
    // queue-wait projection) with a deadline generous enough that
    // nothing sheds.
    out.push(store_overload_record(
        if quick { 8 } else { 32 },
        conc_rounds,
    ));
    // Replication catch-up over TCP.
    out.push(repl_lag_record(if quick { 16 } else { 128 }));
    out
}

/// One `store_qc{C}` row: C concurrent TCP clients each firing a burst
/// of `queries_each` copies of the same prepared query against a
/// `size`-tuple store. The first evaluation is cold; the rest are
/// answered by the fingerprint × touched-shard epoch cache, so the row
/// measures the serving path end to end.
fn store_qc_record(
    size: usize,
    clients: usize,
    queries_each: usize,
    experiment: &str,
    config: &str,
) -> PerfRecord {
    let dir = fresh_store_dir(&format!("serve-{config}-{size}"));
    let store = load_store(&dir, size);
    let handle = serve(store.clone(), "127.0.0.1:0").expect("bind bench server");
    let addr = handle.addr();
    let mut tuples = 0;
    let mut atoms = 0;
    let wall_ms = time_ms(|| {
        let threads: Vec<_> = (0..clients)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut sizes = (0, 0);
                    for _ in 0..queries_each {
                        let q = client.query("s(x)").expect("query");
                        sizes = (q.relation.len(), q.relation.size());
                    }
                    client.close().expect("close");
                    sizes
                })
            })
            .collect();
        for t in threads {
            let (tu, at) = t.join().expect("bench client");
            tuples = tu;
            atoms = at;
        }
    });
    let stats = store.stats();
    handle.shutdown();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    PerfRecord {
        experiment: experiment.to_string(),
        size,
        config: config.to_string(),
        wall_ms,
        tuples,
        atoms,
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
        cache_evictions: 0,
        cache_hit_rate: if stats.cache_hits + stats.cache_misses > 0 {
            stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses) as f64
        } else {
            0.0
        },
        aborted: 0,
        worker_retries: 0,
        fsyncs: stats.fsyncs,
        commit_batch_max: stats.commit_batch_max,
    }
}

/// One interleaved repetition of the observability-overhead pair: the
/// `store_qc4` burst with [`dco::obs::set_enabled`] globally off, then
/// with the obs layer recording (the shipped default — counters,
/// gauges, histograms, per-query tracing). Always leaves the process
/// with obs re-enabled.
fn obs_overhead_pair(size: usize, queries_each: usize) -> (PerfRecord, PerfRecord) {
    dco::obs::set_enabled(false);
    let off = store_qc_record(size, 4, queries_each, "obs_overhead", "obs_off");
    dco::obs::set_enabled(true);
    let on = store_qc_record(size, 4, queries_each, "obs_overhead", "obs_on");
    (off, on)
}

/// The baseline's `obs_overhead` rows: three interleaved repetitions
/// of [`obs_overhead_pair`], each side keeping its minimum wall time.
/// Scheduler and TCP noise only ever add time, so min-of-reps is the
/// estimator that best isolates the obs layer's cost from host jitter
/// on a burst that finishes in tens of milliseconds. The design budget
/// is <3% (see DESIGN.md §17), enforced by [`bench_compare`].
fn obs_overhead_records(quick: bool) -> Vec<PerfRecord> {
    let size = if quick { 32 } else { 64 };
    let queries_each = if quick { 8 } else { 16 };
    let mut off: Option<PerfRecord> = None;
    let mut on: Option<PerfRecord> = None;
    for _ in 0..3 {
        let (o, n) = obs_overhead_pair(size, queries_each);
        if off.as_ref().is_none_or(|best| o.wall_ms < best.wall_ms) {
            off = Some(o);
        }
        if on.as_ref().is_none_or(|best| n.wall_ms < best.wall_ms) {
            on = Some(n);
        }
    }
    vec![
        off.expect("three repetitions ran"),
        on.expect("three repetitions ran"),
    ]
}

/// Fault-free guarded row: unguarded-identical result, plus the guard's
/// own retry counter.
fn guarded_engine_record(
    experiment: &str,
    size: usize,
    config: &str,
    db: &Database,
    program: &Program,
) -> PerfRecord {
    reset_sat_cache();
    let mut tuples = 0;
    let mut atoms = 0;
    let mut retries = 0;
    let wall_ms = time_ms(|| {
        let g = run_guarded(GuardLimits::none(), || {
            run_with(program, db, &EngineConfig::default())
        })
        .expect("fault-free guarded fixpoint");
        let fix = g.value.expect("fault-free guarded fixpoint");
        let tc = fix.database.get("tc").expect("tc defined");
        tuples = tc.len();
        atoms = tc.size();
        retries = g.stats.worker_retries;
    });
    let stats = sat_cache_stats();
    PerfRecord {
        experiment: experiment.to_string(),
        size,
        config: config.to_string(),
        wall_ms,
        tuples,
        atoms,
        cache_hits: stats.hits,
        cache_misses: stats.misses,
        cache_evictions: stats.evictions,
        cache_hit_rate: stats.hit_rate(),
        aborted: 0,
        worker_retries: retries,
        fsyncs: 0,
        commit_batch_max: 0,
    }
}

/// Deliberately-aborted guarded row: a tuple budget of 1 trips on every
/// run; `wall_ms` is time-to-fault and `aborted` counts the trips.
fn guarded_abort_record(
    experiment: &str,
    size: usize,
    db: &Database,
    program: &Program,
) -> PerfRecord {
    reset_sat_cache();
    let mut aborted = 0u64;
    let mut retries = 0u64;
    let wall_ms = time_ms(|| {
        let limits = GuardLimits::none().with_max_tuples(1);
        match run_guarded(limits, || run_with(program, db, &EngineConfig::default())) {
            Ok(g) if g.value.is_ok() => retries += g.stats.worker_retries,
            Ok(g) => {
                aborted += 1;
                retries += g.stats.worker_retries;
            }
            Err(f) => {
                aborted += 1;
                retries += f.stats.worker_retries;
            }
        }
    });
    let stats = sat_cache_stats();
    PerfRecord {
        experiment: experiment.to_string(),
        size,
        config: "guarded_abort".to_string(),
        wall_ms,
        tuples: 0,
        atoms: 0,
        cache_hits: stats.hits,
        cache_misses: stats.misses,
        cache_evictions: stats.evictions,
        cache_hit_rate: stats.hit_rate(),
        aborted,
        worker_retries: retries,
        fsyncs: 0,
        commit_batch_max: 0,
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Serialise records to a JSON document (pretty-printed, stable order).
pub fn write_json(records: &[PerfRecord], host_threads: usize) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"host_threads\": {host_threads},\n"));
    out.push_str("  \"timing_note\": \"median of 3 runs; thread-scaling numbers are only meaningful on multi-core hosts\",\n");
    out.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"experiment\": \"{}\", \"size\": {}, \"config\": \"{}\", \
             \"wall_ms\": {:.3}, \"tuples\": {}, \"atoms\": {}, \
             \"cache_hits\": {}, \"cache_misses\": {}, \"cache_evictions\": {}, \
             \"cache_hit_rate\": {:.4}, \"aborted\": {}, \"worker_retries\": {}, \
             \"fsyncs\": {}, \"commit_batch_max\": {}}}{}",
            json_escape(&r.experiment),
            r.size,
            json_escape(&r.config),
            r.wall_ms,
            r.tuples,
            r.atoms,
            r.cache_hits,
            r.cache_misses,
            r.cache_evictions,
            r.cache_hit_rate,
            r.aborted,
            r.worker_retries,
            r.fsyncs,
            r.commit_batch_max,
            if i + 1 == records.len() { "" } else { "," }
        ));
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// One row of a committed `BENCH_results.json` baseline, as far as the
/// regression gate needs it.
#[derive(Debug, Clone)]
struct BaselineRecord {
    experiment: String,
    size: usize,
    config: String,
    wall_ms: f64,
    /// Guard trips in the baseline row (absent in pre-guard baselines = 0).
    aborted: u64,
}

fn extract_str(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\": \"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

fn extract_num(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..]
        .find([',', '}'])
        .map(|i| i + start)
        .unwrap_or(line.len());
    line[start..end].trim().parse().ok()
}

/// Parse the records array of a `BENCH_results.json` document. Relies on
/// the one-record-per-line layout [`write_json`] emits (hand-rolled — no
/// serde in-tree).
fn parse_baseline_records(json: &str) -> Vec<BaselineRecord> {
    json.lines()
        .filter_map(|line| {
            Some(BaselineRecord {
                experiment: extract_str(line, "experiment")?,
                size: extract_num(line, "size")? as usize,
                config: extract_str(line, "config")?,
                wall_ms: extract_num(line, "wall_ms")?,
                aborted: extract_num(line, "aborted").unwrap_or(0.0) as u64,
            })
        })
        .collect()
}

/// CI regression gate: re-measure the baseline's gated rows on this
/// host (`tc_chain`/`engine_delta`, `store_open`, `store_load`,
/// `store_load_mt*`, `store_conc*`, `repl_lag`, the planned star join)
/// and fail when any regresses more than 30% in wall time. The
/// `obs_overhead` row is gated differently: its freshly measured
/// `obs_on`/`obs_off` pair must stay within the obs layer's 3% budget. Thread-
/// scaling rows (`par*`, `store_load_mt*`, and the multi-connection
/// `store_conc*` serving rows) are skipped on 1-CPU hosts, where their
/// timings are meaningless; `repl_lag` is a single stream and gates
/// everywhere. Sub-millisecond deltas never fail the gate — at that
/// scale a 30% ratio is timer noise, not a regression.
///
/// Returns the per-row comparison report, or an error describing every
/// regressed row (the caller exits nonzero).
pub fn bench_compare(baseline_json: &str) -> Result<Vec<String>, String> {
    let host = std::thread::available_parallelism().map_or(1, |p| p.get());
    let program = tc_program();
    let mut report = Vec::new();
    let mut failures = Vec::new();
    let mut compared = 0usize;
    for rec in parse_baseline_records(baseline_json) {
        if (rec.config.starts_with("par")
            || rec.config.starts_with("store_load_mt")
            || rec.config.starts_with("store_conc")
            || rec.config.starts_with("store_overload"))
            && host == 1
        {
            report.push(format!(
                "skip  {}/{}/{}: thread-scaling row on a 1-CPU host",
                rec.experiment, rec.size, rec.config
            ));
            continue;
        }
        if rec.aborted > 0 {
            // An aborted (guard-tripped) run measures time-to-fault, not
            // throughput: never a regression signal.
            report.push(format!(
                "skip  {}/{}/{}: {} aborted run(s), cancellation not regression",
                rec.experiment, rec.size, rec.config, rec.aborted
            ));
            continue;
        }
        // Observability overhead is gated against its *paired* row, not
        // the baseline wall time, and with a paired-minimum test: on a
        // small host, loopback-TCP scheduler jitter on a tens-of-ms
        // burst is ±10% — no single measurement can resolve a 3%
        // budget. But the jitter is symmetric while a genuine obs
        // regression shifts *every* pair, so the gate interleaves five
        // on/off repetitions and fails only when even the best pair is
        // over the <3% budget (DESIGN.md §17). The sub-millisecond
        // floor additionally keeps pure timer noise out. The `obs_off`
        // baseline row is the pair's other half — informational.
        if rec.experiment == "obs_overhead" {
            if rec.config != "obs_on" {
                continue;
            }
            compared += 1;
            let mut best: Option<(f64, PerfRecord, PerfRecord)> = None;
            for _ in 0..5 {
                let (off, on) = obs_overhead_pair(rec.size, 16);
                let ratio = on.wall_ms / off.wall_ms.max(f64::EPSILON);
                if best.as_ref().is_none_or(|(b, _, _)| ratio < *b) {
                    best = Some((ratio, off, on));
                }
            }
            let (ratio, off, on) = best.expect("five repetitions ran");
            let line = format!(
                "check obs_overhead/{}: best pair obs_off {:.3} ms, obs_on {:.3} ms ({:.2}x)",
                rec.size, off.wall_ms, on.wall_ms, ratio
            );
            if ratio > 1.03 && on.wall_ms - off.wall_ms > 0.5 {
                failures.push(format!("{line} — obs layer over its 3% budget"));
            }
            report.push(line);
            continue;
        }
        // Gated row families: the engine's semi-naive fixpoint, the
        // store's cold-open recovery, the WAL-append load (single- and,
        // on multi-core hosts, multi-writer), and the planned star join.
        // All run with fsync off, so a >30% wall-time jump is a real
        // regression, not disk or scheduler noise (`group_commit_*`/
        // `store_qc*` rows are informational only — they time the disk
        // and the network stack).
        let new = if rec.experiment == "tc_chain" && rec.config == "engine_delta" {
            let db = chain_db(rec.size);
            engine_record(
                &rec.experiment,
                rec.size,
                &rec.config,
                EvalConfig::sequential(),
                &db,
                &program,
                &EngineConfig::default(),
            )
        } else if rec.experiment == "store_throughput" && rec.config == "store_open" {
            store_open_record(rec.size)
        } else if rec.experiment == "store_throughput" && rec.config == "store_load" {
            store_load_record(rec.size)
        } else if rec.experiment == "store_throughput" && rec.config.starts_with("store_load_mt") {
            let writers: usize = rec.config["store_load_mt".len()..].parse().unwrap_or(4);
            store_load_mt_record(rec.size, writers.max(1))
        } else if rec.experiment == "store_serve" && rec.config.starts_with("store_conc") {
            store_conc_record(rec.size, 4)
        } else if rec.experiment == "store_serve" && rec.config.starts_with("store_overload") {
            store_overload_record(rec.size, 4)
        } else if rec.experiment == "store_serve" && rec.config == "repl_lag" {
            repl_lag_record(rec.size)
        } else if rec.experiment == "join_order" && rec.config == "planned" {
            join_order_record(rec.size, "planned")
        } else {
            continue;
        };
        compared += 1;
        let ratio = new.wall_ms / rec.wall_ms.max(f64::EPSILON);
        let line = format!(
            "check {}/{}/{}: baseline {:.3} ms, now {:.3} ms ({:.2}x)",
            rec.experiment, rec.size, rec.config, rec.wall_ms, new.wall_ms, ratio
        );
        if ratio > 1.30 && new.wall_ms - rec.wall_ms > 0.5 {
            failures.push(line.clone());
        }
        report.push(line);
    }
    if compared == 0 {
        return Err("bench-compare: baseline has no tc_chain/engine_delta rows".to_string());
    }
    if failures.is_empty() {
        Ok(report)
    } else {
        Err(format!(
            "bench-compare: {} row(s) regressed >30%:\n{}",
            failures.len(),
            failures.join("\n")
        ))
    }
}

/// Recompute every workload single-threaded and with `threads` forced
/// workers and require structurally identical canonical results. Returns
/// a description of the first divergence, if any.
pub fn verify_parallel(threads: usize) -> Result<(), String> {
    let program = tc_program();

    for n in [3, 5, 7] {
        let db = chain_db(n);
        let seq = with_eval_config(EvalConfig::sequential(), || {
            run_with(&program, &db, &EngineConfig::default())
        })
        .map_err(|e| format!("tc_chain({n}) sequential run failed: {e}"))?;
        let par = with_eval_config(forced_parallel(threads), || {
            run_with(&program, &db, &EngineConfig::default())
        })
        .map_err(|e| format!("tc_chain({n}) parallel run failed: {e}"))?;
        if seq.database != par.database {
            return Err(format!(
                "tc_chain({n}): parallel fixpoint diverges from sequential"
            ));
        }
        let naive = with_eval_config(EvalConfig::sequential(), || {
            run_with(
                &program,
                &db,
                &EngineConfig {
                    use_deltas: false,
                    ..EngineConfig::default()
                },
            )
        })
        .map_err(|e| format!("tc_chain({n}) naive run failed: {e}"))?;
        if !seq.database.equivalent(&naive.database) {
            return Err(format!(
                "tc_chain({n}): semi-naive fixpoint not equivalent to naive"
            ));
        }
    }

    for n in [4, 9] {
        let db = crate::workloads::interval_db(n);
        for query in ["S(x) and not S(y)", "exists y . S(y) and S(x) and x < y"] {
            let seq = with_eval_config(EvalConfig::sequential(), || eval_fo_str(&db, query))
                .map_err(|e| format!("fo({n}) sequential eval failed: {e}"))?;
            let par = with_eval_config(forced_parallel(threads), || eval_fo_str(&db, query))
                .map_err(|e| format!("fo({n}) parallel eval failed: {e}"))?;
            if seq.relation != par.relation {
                return Err(format!(
                    "fo({n}) {query:?}: parallel result diverges from sequential"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_parallel_passes_on_this_host() {
        verify_parallel(4).unwrap();
    }

    #[test]
    fn json_output_is_well_formed_enough() {
        let recs = run_perf(true, 2);
        assert!(!recs.is_empty());
        let json = write_json(&recs, 1);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert_eq!(json.matches("\"experiment\"").count(), recs.len());
    }
}
