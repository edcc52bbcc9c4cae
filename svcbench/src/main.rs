//! `svcbench`: the end-to-end and per-layer benchmark of the treequery
//! query service.
//!
//! ```text
//! svcbench --workload <lookup_rw|scan_large|analytic_heavy> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Starts `treequery-serve` in a child process (`ServerConfig::default()`,
//! flight recorder off), drives it closed-loop over the line-JSON
//! protocol from [`workload::CONNECTIONS`] connections for `S` seconds,
//! checks every reply against in-process evaluation, and prints the
//! end-to-end metrics. With `--trace 1` it then replays the same request
//! streams in-process with spans around each layer call and prints the
//! per-layer metrics instead. The last stdout line is the JSON result;
//! the exit code is non-zero on any wrong answer.

mod client;
mod oracle;
mod reply;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use treequery_obs::Json;
use treequery_serve::ServerConfig;

use crate::client::RunLog;
use crate::stats::{median, median_rate, smoothed_p99, Summary};
use crate::workload::Workload;

const USAGE: &str = "usage: svcbench --workload <lookup_rw|scan_large|analytic_heavy> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Where span dumps go, relative to the working directory.
const OUT_DIR: &str = "svcbench-out";

/// End-to-end metrics in the result line of an untraced run.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "ops_per_s",
    "query_p50_ms",
    "query_p99_ms",
    "server_rss_mb",
    "server_cpu_ms_per_op",
];

/// Per-layer metrics in the result line of a traced run: those every
/// workload produces samples for. The rest (edit kinds, per-kernel
/// times, wire by reply band) are printed in the report of the workloads
/// that exercise them.
const PER_LAYER: [&str; 28] = [
    "proto.parse_us_p50",
    "catalog.read_wait_us_p50",
    "catalog.read_wait_us_p99",
    "document.engine_us_p50",
    "document.refreezes",
    "ir.lower_us_p50",
    "ir.lowers_per_query",
    "planner.plan_us_p50",
    "plan_cache.hit_ratio",
    "plan_cache.lookups_per_query",
    "plan_cache.entries",
    "admission.wait_us_p99",
    "admission.heavy_share",
    "exec.us_p50",
    "exec.us_p99",
    "exec.nodes_swept_per_query",
    "exec.candidate_nodes_per_query",
    "exec.union_parts_per_query",
    "exec.rows_per_query",
    "pool.parallel_share",
    "pool.chunks_per_query",
    "json.render_us_p50",
    "json.render_us_p99",
    "json.reply_kb_p50",
    "session.wire_us_p50",
    "session.wire_us_p99",
    "session.dispatch_self_us_p50",
    "trace.overhead_pct",
];

/// Which end-to-end metric each per-layer metric should move, and on
/// which workload (printed with the traced report).
const MOVES: [(&str, &str, &str); 17] = [
    ("proto.", "server_cpu_ms_per_op", "lookup_rw"),
    ("catalog.read_wait", "query_p99_ms", "lookup_rw"),
    ("catalog.write_wait", "edit_p99_ms", "lookup_rw"),
    ("document.engine", "query_p50_ms", "lookup_rw"),
    ("document.", "edit_p50_ms, edit_p99_ms", "lookup_rw"),
    ("ir.", "query_p50_ms, server_cpu_ms_per_op", "lookup_rw"),
    ("planner.", "query_p50_ms, server_rss_mb", "lookup_rw"),
    ("plan_cache.", "query_p50_ms, server_rss_mb", "lookup_rw"),
    ("admission.", "query_p99_ms", "analytic_heavy"),
    ("exec.us_", "query_p50_ms, query_p99_ms", "analytic_heavy"),
    (
        "exec.ground_minoux",
        "query_p50_ms, query_p99_ms",
        "analytic_heavy",
    ),
    (
        "exec.arc_consistency",
        "query_p50_ms, query_p99_ms",
        "analytic_heavy",
    ),
    (
        "exec.union.",
        "query_p50_ms, query_p99_ms",
        "analytic_heavy",
    ),
    ("exec.", "query_p50_ms, server_cpu_ms_per_op", "scan_large"),
    ("pool.", "query_p50_ms", "analytic_heavy, scan_large"),
    ("json.", "query_p50_ms, ops_per_s", "scan_large"),
    ("session.", "query_p50_ms, query_p99_ms", "scan_large"),
];

fn moves(metric: &str) -> (&'static str, &'static str) {
    MOVES
        .iter()
        .find(|(prefix, _, _)| metric.starts_with(prefix))
        .map_or(("-", "-"), |(_, m, w)| (*m, *w))
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| "--seed expects an integer")?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| "--seconds expects a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".to_owned()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The commit this checkout was built from, read from `.git` in the
/// working directory only (never from a parent directory).
fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".to_owned();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(sha) = read(&format!(".git/{r}")) {
        return sha.trim().to_owned();
    }
    read(".git/packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// What every result is stamped with, so results from different machines
/// or configurations are never mistaken for each other.
fn stamp(a: &Args) -> Json {
    let cfg = ServerConfig::default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj()
        .set("workload", a.workload.name())
        .set("seed", a.seed)
        .set("seconds", a.seconds)
        .set("connections", workload::CONNECTIONS)
        .set("nproc", nproc)
        .set("cpu_model", cpu_model())
        .set("git_sha", git_sha())
        .set(
            "build_profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .set("workers", treequery_core::plan::default_workers())
        .set(
            "workers_source",
            if std::env::var_os("TREEQUERY_WORKERS").is_some() {
                "TREEQUERY_WORKERS"
            } else {
                "available_parallelism"
            },
        )
        .set(
            "server_config",
            Json::obj()
                .set("heavy_cap", cfg.heavy_cap)
                .set("admit_timeout_ms", cfg.admit_timeout.as_millis() as u64)
                .set("drain_ms", cfg.drain.as_millis() as u64)
                .set("plan_cache", cfg.engine.plan_cache)
                .set("flight_recorder", "off"),
        )
}

/// One reported figure with the sample count behind it.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
    note: String,
}

pub fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
        samples,
        note: String::new(),
    }
}

fn counter(stats: &Json, key: &str) -> f64 {
    stats
        .get("engine")
        .and_then(|e| e.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0) as f64
}

/// End-to-end figures of the closed-loop run.
fn end_to_end(w: Workload, log: &RunLog, failed: usize) -> Vec<Metric> {
    let mut timed: Vec<&client::Record> = log
        .conns
        .iter()
        .flat_map(|c| c.records.iter().filter(|r| r.timed))
        .collect();
    timed.sort_by_key(|r| r.send_ns);
    let ms = |r: &&client::Record| r.rtt_ns() as f64 / 1e6;
    let queries: Vec<f64> = timed.iter().filter(|r| !r.is_edit).map(ms).collect();
    let edits: Vec<f64> = timed.iter().filter(|r| r.is_edit).map(ms).collect();
    let ops = timed.len();
    let recv: Vec<u64> = timed.iter().map(|r| r.recv_ns).collect();
    let q = Summary::of(&queries);
    let e = Summary::of(&edits);
    let mut m = vec![
        metric(
            "setup_s",
            median(&log.setup_s).unwrap_or(0.0),
            "s",
            log.setup_s.len(),
        ),
        metric("ops_per_s", median_rate(&recv, log.window_s), "1/s", ops),
        metric(
            "ops_per_s_mean",
            ops as f64 / log.window_s.max(1e-9),
            "1/s",
            ops,
        ),
        metric("query_p50_ms", q.p50, "ms", q.n),
        metric("query_p99_ms", smoothed_p99(&queries), "ms", q.n),
        metric("query_p99_ms_whole_run", q.p99, "ms", q.n),
    ];
    m[1].note = "median of 1 s buckets".to_owned();
    m[4].note = "mean of p98.5..p99.5".to_owned();
    m[5].note = format!("{} samples beyond", q.beyond_p99);
    if w == Workload::LookupRw {
        m.push(metric("edit_p50_ms", e.p50, "ms", e.n));
        m.push(metric("edit_p99_ms", e.p99, "ms", e.n));
        m.last_mut().expect("just pushed").note = format!("{} samples beyond", e.beyond_p99);
    }
    m.push(metric(
        "error_rate",
        failed as f64 / ops.max(1) as f64,
        "ratio",
        ops,
    ));
    m.push(metric("server_rss_mb", log.server_rss_mb, "MiB", 1));
    m.push(metric(
        "server_cpu_ms_per_op",
        log.server_cpu_s * 1e3 / ops.max(1) as f64,
        "ms",
        ops,
    ));
    m.push(metric(
        "generator_cpu_ms_per_op",
        log.gen_cpu_s * 1e3 / ops.max(1) as f64,
        "ms",
        ops,
    ));
    m.push(metric("host_steal_pct", log.steal_pct, "pct", 1));
    // Server-side work counters over the window (the `stats` verb).
    let nq = queries.len().max(1) as f64;
    let d = |k: &str| counter(&log.stats_after, k) - counter(&log.stats_before, k);
    m.push(metric(
        "server.lowers_per_query",
        d("queries_lowered") / nq,
        "count",
        queries.len(),
    ));
    m.push(metric(
        "server.plan_lookups_per_query",
        (d("plan_cache_hits") + d("plan_cache_misses")) / nq,
        "count",
        queries.len(),
    ));
    m
}

fn print_table(title: &str, metrics: &[Metric], with_moves: bool) {
    println!("{title}");
    for m in metrics {
        let extra = if with_moves {
            let (e2e, on) = moves(&m.name);
            format!("  moves {e2e} on {on}")
        } else {
            String::new()
        };
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!(" ({})", m.note)
        };
        println!(
            "  {:<34} {:>14.4} {:<6} n={}{note}{extra}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn metrics_json(metrics: &[Metric], keep: &[&str]) -> Json {
    let mut out = Json::obj();
    for name in keep {
        let m = metrics
            .iter()
            .find(|m| m.name == *name)
            .unwrap_or_else(|| panic!("metric {name} was not computed"));
        out = out.set(
            m.name.as_str(),
            Json::obj().set("value", m.value).set("unit", m.unit),
        );
    }
    out
}

fn report_json(metrics: &[Metric]) -> Json {
    let mut out = Json::obj();
    for m in metrics {
        out = out.set(
            m.name.as_str(),
            Json::obj()
                .set("value", m.value)
                .set("unit", m.unit)
                .set("samples", m.samples),
        );
    }
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("__serve") {
        client::serve_child();
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("svcbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("svcbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(a: &Args) -> std::io::Result<bool> {
    let started = Instant::now();
    let w = a.workload;
    let stamp = stamp(a);
    eprintln!("svcbench: {}", stamp.render());
    let epoch = Instant::now();
    let log = client::run(w, a.seed, a.seconds, a.trace, epoch)?;
    eprintln!(
        "svcbench: closed loop done after {:.1}s; checking answers",
        started.elapsed().as_secs_f64()
    );

    let ops = oracle::regenerate(w, a.seed, &log);
    let verdict = oracle::check(w, a.seed, &log, &ops);
    let timed_errors: usize = log
        .conns
        .iter()
        .flat_map(|c| c.records.iter())
        .filter(|r| r.timed && !r.ok)
        .count();
    let attempted: usize = log.conns.iter().map(|c| c.records.len() - c.warmup).sum();
    let failed = timed_errors + verdict.failed_ops;
    let mut correct = verdict.mismatches == 0 && verdict.errors == 0;
    for n in &verdict.notes {
        eprintln!("svcbench: MISMATCH {n}");
    }

    let e2e = end_to_end(w, &log, failed);
    let gen_bound = log.gen_cpu_s >= log.server_cpu_s;
    println!(
        "svcbench {} seed {} ({:.1}s window)",
        w.name(),
        a.seed,
        log.window_s
    );
    print_table("end-to-end", &e2e, false);
    println!(
        "  oracle: {} replies checked, {} errors, {} mismatches; strategies {:?}",
        verdict.checked, verdict.errors, verdict.mismatches, verdict.strategies
    );
    println!(
        "  generator: {:.3}s CPU vs server {:.3}s over the window{}",
        log.gen_cpu_s,
        log.server_cpu_s,
        if gen_bound {
            " -- GENERATOR-BOUND: the load generator, not the server, limits this run"
        } else {
            ""
        }
    );
    if gen_bound {
        eprintln!("svcbench: warning: generator-bound run");
    }
    let mut report = Json::obj()
        .set("stamp", stamp)
        .set("end_to_end", report_json(&e2e))
        .set("generator_bound", gen_bound)
        .set("oracle_checked", verdict.checked)
        .set("oracle_mismatches", verdict.mismatches);

    let metrics = if a.trace {
        eprintln!("svcbench: replaying in-process with spans");
        let traced = trace::run(w, a.seed, &log, &ops, OUT_DIR);
        let layer = traced.figures;
        print_table("per-layer (traced replay)", &layer, true);
        println!(
            "  reply-render parity: {} replies compared, {} differ, {} differ only in a plan cached at another document version",
            traced.parity_checked, traced.parity_failed, traced.parity_plan_only
        );
        for n in &traced.parity_notes {
            eprintln!("svcbench: PARITY {n}");
        }
        if let Some(p) = &traced.spans_file {
            println!("  spans written to {p}");
        }
        correct &= traced.parity_failed == 0;
        report = report
            .set("per_layer", report_json(&layer))
            .set("parity_failures", traced.parity_failed);
        metrics_json(&layer, &PER_LAYER)
    } else {
        metrics_json(&e2e, &END_TO_END)
    };
    println!("REPORT {}", report.render());
    let result = Json::obj()
        .set("correct", correct)
        .set("attempted", attempted)
        .set("failed", failed)
        .set("metrics", metrics);
    println!("{}", result.render());
    eprintln!("svcbench: done in {:.1}s", started.elapsed().as_secs_f64());
    Ok(correct)
}
