//! `serve_mixed`: loopback TCP against the shipped `serve()` with
//! `StoreOptions::default()`, one reader and one writer connection, each
//! a closed loop.
//!
//! The reader cycles a seeded mix of [`gen::SERVED_FORMULAS`] formulas
//! (a warm prepared cache); the writer alternates INSERT and REMOVE of a
//! sliding window of pool tuples into a relation some of those formulas
//! read. Every reply is checked against an in-process evaluation over
//! the catalog state at the reply's generation, and after the window
//! the store is closed and reopened to time recovery and check it.

use crate::gen::{self, ServedCatalog, WriteOp};
use crate::report::{self, hist_mean_us, ms, ratio, us, Report, WorkDir};
use dco::prelude::*;
use dco::store::{serve, Client, ServerHandle, Store, StoreOptions};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Tail percentile of read (and write) latency: at HEAD a 20 s window
/// holds ~200 reads and ~200 writes, so p90 keeps about twenty samples
/// beyond it.
pub const TAIL: f64 = 0.90;
const WARMUP: Duration = Duration::from_secs(2);
/// Set-ups timed before the window; `setup_s` is their median.
const SETUPS: usize = 15;
/// A round trip at least this long on a request whose service took
/// well under a millisecond waited for the reactor's poll tick.
const TICK: Duration = Duration::from_millis(100);

struct Served {
    dir: WorkDir,
    store: Store,
    handle: ServerHandle,
    reader: Client,
    writer: Client,
    /// Generation right after the load.
    loaded_seq: u64,
}

/// Store creation and load, `serve`, and dialing both connections.
fn set_up(cat: &ServedCatalog, tag: &str) -> Served {
    let dir = WorkDir::new(tag);
    let store = Store::open(&dir.0, StoreOptions::default()).expect("open store");
    let mut loaded_seq = 0;
    for (name, rel) in &cat.relations {
        store.create(name, 2).expect("create relation");
        loaded_seq = store.insert(name, rel.clone()).expect("load relation");
    }
    for t in &cat.pool[..gen::SERVED_WINDOW] {
        loaded_seq = store
            .insert(&cat.target, t.clone())
            .expect("load pool tuple");
    }
    let handle = serve(store.clone(), "127.0.0.1:0").expect("bind server");
    let reader = Client::connect(handle.addr()).expect("dial reader");
    let writer = Client::connect(handle.addr()).expect("dial writer");
    Served {
        dir,
        store,
        handle,
        reader,
        writer,
        loaded_seq,
    }
}

fn tear_down(s: Served) {
    let _ = s.reader.close();
    let _ = s.writer.close();
    s.handle.shutdown();
}

struct Read {
    start: Instant,
    end: Instant,
    formula: usize,
    /// `(generation, reply fingerprint, cached)`, or the error.
    reply: Result<(u64, u64, bool), String>,
    decode: Duration,
}

struct Write {
    start: Instant,
    end: Instant,
    seq: Result<u64, String>,
    encode: Duration,
    /// WAL file size right after the ack (traced runs only).
    wal_len: Option<u64>,
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Report {
    let mut r = Report::default();
    let cat = gen::served_catalog(seed, StoreOptions::default().shards);
    let formulas = gen::served_formulas(seed, &cat);

    // Set-up is timed several times; the last one is kept.
    let mut setup_times = Vec::new();
    let mut served = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let s = set_up(&cat, &format!("serve_mixed-{i}"));
        setup_times.push(t.elapsed().as_secs_f64());
        if let Some(old) = served.replace(s) {
            tear_down(old);
        }
    }
    let Served {
        dir,
        store,
        handle,
        mut reader,
        mut writer,
        loaded_seq,
    } = served.expect("at least one set-up");
    r.set("setup_s", report::median(&setup_times));
    r.line(report::setups_line(&setup_times));
    let rss_setup = report::peak_rss_mb();

    let registry = store.registry();
    let h_queue = registry.histogram("server.queue_wait");
    let h_service = registry.histogram("server.eval");
    let h_total = registry.histogram("store.query.total");
    let h_eval = registry.histogram("store.query.eval");
    let h_fsync = registry.histogram("store.wal.fsync");
    let wal_path = dir.0.join("wal.log");

    let begin = Instant::now();
    let t0 = begin + WARMUP;
    let t1 = t0 + Duration::from_secs(seconds);
    let ((reads, exemplars), writes, at_t0, rss_warm) = std::thread::scope(|scope| {
        let reader_thread = scope.spawn(|| {
            let mut rng = gen::Rng::new(seed, 4);
            let mut reads = Vec::new();
            let mut exemplars = HashMap::new();
            while Instant::now() < t1 {
                let f = rng.range(0, formulas.len() as i64 - 1) as usize;
                let start = Instant::now();
                let (reply, decode) = if traced {
                    match reader.call_with_retry(&format!("QUERY {}", formulas[f]), None) {
                        Ok(body) => {
                            let d = Instant::now();
                            let out = dco::store::wire::query_output_from_json(&body);
                            (out.map_err(|e| e.to_string()), d.elapsed())
                        }
                        Err(e) => (Err(e.to_string()), Duration::ZERO),
                    }
                } else {
                    (
                        reader.query(&formulas[f]).map_err(|e| e.to_string()),
                        Duration::ZERO,
                    )
                };
                let end = Instant::now();
                let reply = reply.map(|out| {
                    let fp = report::fingerprint(&out.relation);
                    // One compact copy per distinct reply, for the
                    // checks after the window.
                    exemplars.entry((f, fp)).or_insert_with(|| {
                        (
                            out.columns.clone(),
                            dco::encoding::relation_to_json_str(&out.relation),
                        )
                    });
                    (out.generation, fp, out.cached)
                });
                reads.push(Read {
                    start,
                    end,
                    formula: f,
                    reply,
                    decode,
                });
            }
            (reads, exemplars)
        });
        let writer_thread = scope.spawn(|| {
            let mut writes: Vec<Write> = Vec::new();
            let mut k = 0;
            while Instant::now() < t1 {
                let op = gen::write_op(k);
                let start = Instant::now();
                let (seq, encode) = if traced {
                    let (verb, tuple) = match op {
                        WriteOp::Insert(i) => ("INSERT", &cat.pool[i]),
                        WriteOp::Remove(i) => ("REMOVE", &cat.pool[i]),
                    };
                    let e = Instant::now();
                    let json = dco::encoding::relation_to_json_str(tuple);
                    let encode = e.elapsed();
                    let seq = writer
                        .call(&format!("{verb} {} {json}", cat.target))
                        .map_err(|e| e.to_string())
                        .and_then(|b| b.parse::<u64>().map_err(|e| e.to_string()));
                    (seq, encode)
                } else {
                    let seq = match op {
                        WriteOp::Insert(i) => writer.insert(&cat.target, &cat.pool[i]),
                        WriteOp::Remove(i) => writer.remove_subsumed(&cat.target, &cat.pool[i]),
                    };
                    (seq.map_err(|e| e.to_string()), Duration::ZERO)
                };
                let end = Instant::now();
                let wal_len = traced
                    .then(|| std::fs::metadata(&wal_path).map(|m| m.len()).ok())
                    .flatten();
                let failed = seq.is_err();
                writes.push(Write {
                    start,
                    end,
                    seq,
                    encode,
                    wal_len,
                });
                if failed {
                    // The target's state is unknown from here on.
                    break;
                }
                k += 1;
            }
            writes
        });
        // Instrument readings at the start of the window.
        std::thread::sleep(t0.saturating_duration_since(Instant::now()));
        let rss_warm = report::peak_rss_mb();
        let at_t0 = (
            store.stats(),
            h_queue.snapshot(),
            h_service.snapshot(),
            h_total.snapshot(),
            h_eval.snapshot(),
            h_fsync.snapshot(),
            dco::core::cache::sat_cache_stats(),
        );
        (
            reader_thread.join().expect("reader thread"),
            writer_thread.join().expect("writer thread"),
            at_t0,
            rss_warm,
        )
    });
    r.set("peak_rss_mb", report::peak_rss_mb());

    // ---- instrument readings over the window ------------------------
    let (stats0, q0, s0, tot0, ev0, fs0, sat0) = at_t0;
    let stats1 = store.stats();
    let sat1 = dco::core::cache::sat_cache_stats();
    let traces = store.recent_traces();

    // ---- end-to-end -------------------------------------------------
    let in_window = |start: Instant, end: Instant| start >= t0 && end <= t1;
    let win_reads: Vec<&Read> = reads.iter().filter(|x| in_window(x.start, x.end)).collect();
    let win_writes: Vec<&Write> = writes
        .iter()
        .filter(|x| in_window(x.start, x.end))
        .collect();
    let read_ms: Vec<f64> = win_reads.iter().map(|x| ms(x.end - x.start)).collect();
    let write_ms: Vec<f64> = win_writes.iter().map(|x| ms(x.end - x.start)).collect();
    let ops = win_reads.len() + win_writes.len();
    r.set(
        "ops_per_s",
        report::per_second(
            t0,
            win_reads
                .iter()
                .map(|x| x.end)
                .chain(win_writes.iter().map(|x| x.end)),
        ),
    );
    r.set("read_p50_ms", report::median(&read_ms));
    r.set("read_tail_ms", report::quantile(&read_ms, TAIL));
    r.set("write_p50_ms", report::median(&write_ms));
    r.set("write_tail_ms", report::quantile(&write_ms, TAIL));
    r.line(format!(
        "window {seconds}s after {}s warm-up: {} reads, {} writes; read p50 {:.3} ms, p{} {:.3} ms ({} beyond); write p50 {:.3} ms, p{} {:.3} ms ({} beyond)",
        WARMUP.as_secs(),
        win_reads.len(),
        win_writes.len(),
        r.get("read_p50_ms"),
        TAIL * 100.0,
        r.get("read_tail_ms"),
        report::beyond(&read_ms, TAIL),
        r.get("write_p50_ms"),
        TAIL * 100.0,
        r.get("write_tail_ms"),
        report::beyond(&write_ms, TAIL),
    ));

    r.line(report::percentiles_line("read", &read_ms));
    r.line(report::percentiles_line("write", &write_ms));
    r.line(format!(
        "peak RSS after set-up {rss_setup:.2} MB, after warm-up {rss_warm:.2} MB, at window end {:.2} MB",
        r.get("peak_rss_mb")
    ));

    // ---- per layer --------------------------------------------------
    let tick_waits = win_reads
        .iter()
        .filter(|x| matches!(x.reply, Ok((_, _, true))) && x.end - x.start >= TICK)
        .count();
    r.set("server.tick_waits", tick_waits as f64);
    let hits = stats1.cache_hits - stats0.cache_hits;
    let misses = stats1.cache_misses - stats0.cache_misses;
    r.set(
        "store.cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    let queue_us = hist_mean_us(&q0, &h_queue.snapshot());
    let service_us = hist_mean_us(&s0, &h_service.snapshot());
    r.set("server.queue_wait_us", queue_us);
    r.set("server.service_us", service_us);
    r.set(
        "store.query.total_us",
        hist_mean_us(&tot0, &h_total.snapshot()),
    );
    r.set(
        "store.query.eval_us",
        hist_mean_us(&ev0, &h_eval.snapshot()),
    );
    r.set("wal.fsync_us", hist_mean_us(&fs0, &h_fsync.snapshot()));
    let commits = stats1.commits - stats0.commits;
    r.set(
        "store.commits_per_fsync",
        ratio(commits as f64, (stats1.fsyncs - stats0.fsyncs) as f64),
    );
    r.set("store.commit_batch_max", stats1.commit_batch_max as f64);
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
    let first_tick = reads
        .iter()
        .find(|x| x.end - x.start >= TICK)
        .map_or(-1.0, |x| (x.start - begin).as_secs_f64());
    r.line(format!(
        "first round trip >= {} ms began {first_tick:.3} s after the warm-up started (-1: none)",
        TICK.as_millis()
    ));
    r.line(format!(
        "server.tick_waits {tick_waits} (cached reads with a round trip >= {} ms); prepared cache hit ratio {:.3} ({hits}/{})",
        TICK.as_millis(),
        r.get("store.cache_hit_ratio"),
        hits + misses
    ));
    if traced {
        let rtts: Vec<f64> = win_reads
            .iter()
            .map(|x| us(x.end - x.start) - us(x.decode))
            .chain(
                win_writes
                    .iter()
                    .map(|x| us(x.end - x.start) - us(x.encode)),
            )
            .collect();
        let rtt = report::mean(&rtts);
        r.set("client.rtt_us", rtt);
        let enc: Vec<f64> = win_writes.iter().map(|x| us(x.encode)).collect();
        let dec: Vec<f64> = win_reads.iter().map(|x| us(x.decode)).collect();
        r.set("client.encode_us", report::mean(&enc));
        r.set("client.decode_us", report::mean(&dec));
        r.set("server.reply_gap_us", rtt - queue_us - service_us);
        // WAL growth per acknowledged write; a shrink is a snapshot
        // cycle truncating the log.
        let lens: Vec<u64> = win_writes.iter().filter_map(|x| x.wal_len).collect();
        let (mut grown, mut grows, mut cycles) = (0u64, 0u64, 0u64);
        for w in lens.windows(2) {
            if w[1] >= w[0] {
                grown += w[1] - w[0];
                grows += 1;
            } else {
                cycles += 1;
            }
        }
        r.set("wal.bytes_per_commit", ratio(grown as f64, grows as f64));
        r.set("snapshot.cycles", cycles as f64);
        let window_traces: Vec<_> = traces.iter().rev().take(win_reads.len()).cloned().collect();
        report::record_traces(&window_traces, &mut r);
        r.line(format!(
            "self times (µs/op): client {:.1} (encode/decode), reply gap {:.1} (wake, framing, flush, loopback), queue wait {queue_us:.1}, service {service_us:.1}",
            r.get("client.encode_us") + r.get("client.decode_us"),
            r.get("server.reply_gap_us"),
        ));
    }

    // ---- checks, all outside the window -----------------------------
    let checked = Checked::new(&cat, &formulas, loaded_seq, &writes);
    let mut correct = checked.writes_ok;
    let mut failed = win_writes.iter().filter(|x| x.seq.is_err()).count() as u64;
    let mut mismatches = 0;
    let mut memo: HashMap<(usize, usize, u64), bool> = HashMap::new();
    for x in &reads {
        let ok = match &x.reply {
            Ok((generation, fp, _)) => *memo
                .entry((x.formula, checked.state_at(*generation), *fp))
                .or_insert_with(|| {
                    checked.reply_ok(x.formula, *generation, &exemplars[&(x.formula, *fp)])
                }),
            Err(_) => false,
        };
        if !ok && x.reply.is_ok() {
            mismatches += 1;
            correct = false;
        }
        if !ok && in_window(x.start, x.end) {
            failed += 1;
        }
    }
    r.line(format!(
        "checked {} replies ({} distinct) against in-process evaluation: {mismatches} mismatches",
        reads.len(),
        memo.len()
    ));
    let q_errors = explain_q_errors(&store, &formulas);
    r.set("analysis.q_error_p50", report::median(&q_errors));
    r.set(
        "analysis.q_error_max",
        q_errors.iter().copied().fold(0.0, f64::max),
    );

    // ---- recovery ---------------------------------------------------
    drop(reader);
    drop(writer);
    handle.shutdown();
    drop(store);
    let t = Instant::now();
    let reopened = Store::open(&dir.0, StoreOptions::default());
    r.set("recovery_s", t.elapsed().as_secs_f64());
    let recovered_ok = match reopened {
        Ok(s) => checked.catalog_ok(&s.read().db),
        Err(_) => false,
    };
    correct &= recovered_ok;
    r.line(format!(
        "recovery: Store::open in {:.4} s; recovered catalog {} the acknowledged writes",
        r.get("recovery_s"),
        if recovered_ok {
            "equals"
        } else {
            "DIFFERS FROM"
        }
    ));
    drop(dir);

    r.attempted = ops as u64;
    r.failed = failed;
    r.correct = correct;
    r
}

fn explain_q_errors(store: &Store, formulas: &[String]) -> Vec<f64> {
    let mut out = Vec::new();
    for f in formulas {
        if let Ok(e) = store.query_explain(f) {
            report::plan_q_errors(&e.plan.root, &mut out);
        }
    }
    out
}

/// The reference side of the checks: the catalog state after every
/// prefix of the acknowledged writes.
struct Checked<'a> {
    cat: &'a ServedCatalog,
    formulas: &'a [String],
    loaded_seq: u64,
    /// Seqs of the acknowledged writes, in schedule order.
    seqs: Vec<u64>,
    writes_ok: bool,
}

impl<'a> Checked<'a> {
    fn new(
        cat: &'a ServedCatalog,
        formulas: &'a [String],
        loaded_seq: u64,
        writes: &[Write],
    ) -> Self {
        let seqs: Vec<u64> = writes
            .iter()
            .filter_map(|w| w.seq.as_ref().ok().copied())
            .collect();
        let writes_ok = seqs.len() == writes.len()
            && seqs.windows(2).all(|w| w[0] < w[1])
            && seqs.first().is_none_or(|&s| s > loaded_seq);
        Checked {
            cat,
            formulas,
            loaded_seq,
            seqs,
            writes_ok,
        }
    }

    /// Number of acknowledged writes visible at `generation`.
    fn writes_at(&self, generation: u64) -> usize {
        self.seqs.partition_point(|&s| s <= generation)
    }

    /// The schedule repeats every `2 · POOL` writes, so the state after
    /// `n` writes equals the state after `n mod 2·POOL`.
    fn state_at(&self, generation: u64) -> usize {
        self.writes_at(generation) % (2 * gen::SERVED_POOL)
    }

    /// The target relation after `n` writes, replayed with the store's
    /// own update semantics (union; drop tuples a deletion subsumes).
    fn target_after(&self, n: usize) -> GeneralizedRelation {
        let base = &self.cat.relations.last().expect("target").1;
        let mut rel = self.cat.pool[..gen::SERVED_WINDOW]
            .iter()
            .fold(base.clone(), |acc, t| acc.union(t));
        for k in 0..n {
            rel = match gen::write_op(k) {
                WriteOp::Insert(i) => rel.union(&self.cat.pool[i]),
                WriteOp::Remove(i) => {
                    let d = &self.cat.pool[i];
                    GeneralizedRelation::from_tuples(
                        2,
                        rel.tuples()
                            .iter()
                            .filter(|t| !d.tuples().iter().any(|u| u.subsumes(t)))
                            .cloned(),
                    )
                }
            };
        }
        rel
    }

    fn database(&self, n: usize) -> Database {
        let mut schema = Schema::new();
        for (name, _) in &self.cat.relations {
            schema = schema.with(name, 2);
        }
        let mut db = Database::new(schema);
        for (name, rel) in &self.cat.relations {
            let rel = if *name == self.cat.target {
                self.target_after(n)
            } else {
                rel.clone()
            };
            db.set(name, rel).expect("declared");
        }
        db
    }

    fn reply_ok(&self, f: usize, generation: u64, (columns, json): &(Vec<String>, String)) -> bool {
        if generation < self.loaded_seq {
            return false;
        }
        let Ok(relation) = dco::encoding::relation_from_json_str(json) else {
            return false;
        };
        let db = self.database(self.state_at(generation));
        let formula = parse_formula(&self.formulas[f]).expect("generated formulas parse");
        match dco::fo::eval(&db, &formula) {
            Ok(want) => want.columns == *columns && want.relation.equivalent(&relation),
            Err(_) => false,
        }
    }

    /// The recovered catalog must equal the state after every
    /// acknowledged write.
    fn catalog_ok(&self, db: &Database) -> bool {
        let want = self.database(self.seqs.len());
        self.cat
            .relations
            .iter()
            .all(|(name, _)| match (db.get(name), want.get(name)) {
                (Some(a), Some(b)) => a.equivalent(b),
                _ => false,
            })
    }
}
