//! Metric catalogs, the per-run report, and the small statistics the
//! workloads share.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// End-to-end metrics, printed by every workload with `--trace 0`.
/// Must match `end_to_end` in `BENCHMARK.json` (a test checks it).
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("read_p50_ms", "ms"),
    ("read_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A layer
/// the workload does not touch reads 0. Must match `per_layer` in
/// `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // store::client + store::wire
    ("client.rtt_us", "us"),
    ("client.encode_us", "us"),
    ("client.decode_us", "us"),
    // store::server + store::reactor
    ("server.queue_wait_us", "us"),
    ("server.service_us", "us"),
    ("server.reply_gap_us", "us"),
    ("server.tick_waits", "count"),
    // store::store, query path
    ("store.cache_hit_ratio", "ratio"),
    ("query.preflight_us", "us"),
    ("query.plan_us", "us"),
    ("query.eval_us", "us"),
    ("query.self_us", "us"),
    ("store.query.total_us", "us"),
    ("store.query.eval_us", "us"),
    // analysis (planner)
    ("analysis.q_error_p50", "ratio"),
    ("analysis.q_error_max", "ratio"),
    // fo + core
    ("eval.dnf_insert", "count"),
    ("eval.quantifier_elim", "count"),
    ("eval.cell_split", "count"),
    ("core.sat_cache_hit_ratio", "ratio"),
    ("core.sat_cache_evictions", "count"),
    // write path
    ("write_p50_ms", "ms"),
    ("write_tail_ms", "ms"),
    ("wal.fsync_us", "us"),
    ("store.commits_per_fsync", "ratio"),
    ("store.commit_batch_max", "count"),
    ("wal.bytes_per_commit", "B"),
    ("snapshot.cycles", "count"),
    ("recovery_s", "s"),
    // datalog
    ("datalog.stages_per_run", "count"),
    ("datalog.body_evals_per_run", "count"),
    ("datalog.stage_ms", "ms"),
    // tracing overhead: traced vs untraced run of the same seed
    ("trace.overhead_ops_pct", "%"),
    ("trace.overhead_p50_pct", "%"),
];

/// What one run of a workload measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the timed window.
    pub attempted: u64,
    /// Of those, failed: typed errors, sheds, timeouts, wrong answers.
    pub failed: u64,
    /// Every checked output (window and warm-up) matched its reference.
    pub correct: bool,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable detail printed before the result line.
    pub lines: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// The result line: `catalog` names every metric printed; a metric
    /// the run did not set reads 0.
    pub fn json(&self, catalog: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = catalog
            .iter()
            .map(|(name, unit)| {
                let v = self.get(name);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Nearest-rank `q`-quantile of an unsorted sample (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `p50 … p99` of a latency sample, for the report.
pub fn percentiles_line(what: &str, samples: &[f64]) -> String {
    let mut line = format!("{what} latency over {} samples (ms):", samples.len());
    for q in [0.5, 0.9, 0.95, 0.98, 0.99] {
        line.push_str(&format!(" p{}={:.3}", q * 100.0, quantile(samples, q)));
    }
    line
}

/// Each set-up's time in order, for the report.
pub fn setups_line(times: &[f64]) -> String {
    let ms: Vec<String> = times.iter().map(|t| format!("{:.3}", t * 1e3)).collect();
    format!("set-up times (ms): {}", ms.join(" "))
}

/// Completions per whole second of the window, for the report: a
/// drifting series means the window was not in a steady state.
pub fn per_second_line(t0: Instant, ends: impl Iterator<Item = Instant>) -> String {
    let mut buckets: Vec<u64> = Vec::new();
    for e in ends {
        let i = (e - t0).as_secs() as usize;
        if buckets.len() <= i {
            buckets.resize(i + 1, 0);
        }
        buckets[i] += 1;
    }
    let series: Vec<String> = buckets.iter().map(u64::to_string).collect();
    format!("completions per second of the window: {}", series.join(" "))
}

/// Samples strictly beyond the `q`-quantile.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let cut = quantile(samples, q);
    samples.iter().filter(|&&s| s > cut).count()
}

/// Operations per second over the timed window: the count divided by
/// the time from the window's start to the last completion in it.
pub fn per_second(t0: Instant, ends: impl Iterator<Item = Instant>) -> f64 {
    let mut n = 0;
    let mut last = t0;
    for e in ends {
        n += 1;
        last = last.max(e);
    }
    ratio(n as f64, (last - t0).as_secs_f64())
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fresh, empty scratch directory for store files, under the
/// benchmark's own directory (removed by [`WorkDir`]'s drop).
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> WorkDir {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the benchmark's work directory");
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the parent too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Mean of the observations a histogram gained between two snapshots,
/// converted from ns to µs.
pub fn hist_mean_us(
    before: &dco::obs::HistogramSnapshot,
    after: &dco::obs::HistogramSnapshot,
) -> f64 {
    let n = after.count().saturating_sub(before.count());
    let sum = after.sum().saturating_sub(before.sum());
    ratio(sum as f64, n as f64) / 1e3
}

/// Record per-query averages over a set of store traces: the query
/// path's self times and the eval kernel's probe counts. The store's
/// query spans (`queue_wait`, `preflight`, `plan`, `eval`, `cache_hit`)
/// are siblings under the trace root, so each span's self time is its
/// duration and the root's self time is what no span covers.
pub fn record_traces(records: &[dco::obs::TraceRecord], r: &mut Report) {
    let n = records.len().max(1) as f64;
    let mut spans: BTreeMap<&str, f64> = BTreeMap::new();
    let mut probes: BTreeMap<&str, f64> = BTreeMap::new();
    let mut root = 0.0;
    for rec in records {
        let mut covered = 0;
        for s in &rec.spans {
            *spans.entry(s.name).or_default() += s.dur_ns as f64 / 1e3 / n;
            covered += s.dur_ns;
        }
        root += rec.total_ns.saturating_sub(covered) as f64 / 1e3 / n;
        for p in &rec.probes {
            *probes.entry(p.site).or_default() += p.count as f64 / n;
        }
    }
    let span = |name: &str| spans.get(name).copied().unwrap_or(0.0);
    let probe = |name: &str| probes.get(name).copied().unwrap_or(0.0);
    r.set("query.preflight_us", span("preflight"));
    r.set("query.plan_us", span("plan"));
    r.set("query.eval_us", span("eval"));
    r.set("query.self_us", root);
    r.set("eval.dnf_insert", probe("dnf_insert"));
    r.set("eval.quantifier_elim", probe("quantifier_elim"));
    r.set("eval.cell_split", probe("cell_split"));
    let mut line = format!("trace self times over {} traces (µs/query):", records.len());
    for (name, v) in &spans {
        line.push_str(&format!(" {name}={v:.1}"));
    }
    line.push_str(&format!(" (root)={root:.1}; probes/query:"));
    for (name, v) in &probes {
        line.push_str(&format!(" {name}={v:.1}"));
    }
    r.line(line);
}

/// Order-sensitive fingerprint of a relation's representation. The
/// evaluators are deterministic, so outputs with equal fingerprints for
/// the same input share one reference check, and only one copy of each
/// distinct output needs keeping until the checks run.
pub fn fingerprint(rel: &dco::prelude::GeneralizedRelation) -> u64 {
    rel.tuples()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325 ^ rel.arity() as u64, |h, t| {
            (h ^ t.fingerprint()).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Per-query q-error (max(est/act, act/est)) over every measured node
/// of an EXPLAIN plan tree.
pub fn plan_q_errors(node: &dco::analysis::explain::PlanNode, out: &mut Vec<f64>) {
    if let Some(act) = node.actual {
        let est = node.estimated.max(1.0);
        let act = (act as f64).max(1.0);
        out.push((est / act).max(act / est));
    }
    for c in &node.children {
        plan_q_errors(c, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(beyond(&v, 0.9), 10);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn catalogs_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let json = dco::encoding::parse_json(&text).expect("BENCHMARK.json parses");
        for (key, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = json
                .get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = catalog
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key} differs from BENCHMARK.json");
        }
    }
}
