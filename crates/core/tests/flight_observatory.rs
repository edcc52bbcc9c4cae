//! Integration tests for the workload observatory: flight-recorder
//! capture through the public `Engine` API, the slow-query log, the
//! canonical Chrome trace golden, and ring eviction under concurrent
//! `eval_batch`.
//!
//! The flight recorder is process-global, so every test (and every
//! proptest case) holds [`flight_lock`] for its full install/uninstall
//! window.

use std::sync::{Mutex, MutexGuard, OnceLock};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use treequery_core::obs::flight::{self, FlightConfig};
use treequery_core::obs::{parse_json, traceexport, QueryCtx};
use treequery_core::tree::{random_recursive_tree, Tree};
use treequery_core::{Engine, EngineConfig, PlannerConfig, Query};

fn flight_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn small_tree(seed: u64, nodes: usize) -> Tree {
    let mut rng = StdRng::seed_from_u64(seed);
    random_recursive_tree(&mut rng, nodes, &["a", "b", "c", "d"])
}

/// An engine with the worker count pinned (so `TREEQUERY_WORKERS` cannot
/// perturb the tests) and an optional per-engine slow threshold.
fn engine_with(tree: &Tree, workers: usize, slow_ms: Option<u64>) -> Engine<'_> {
    Engine::with_config(
        tree,
        EngineConfig {
            planner: PlannerConfig {
                workers: Some(workers),
                slow_query_ms: slow_ms,
                ..PlannerConfig::default()
            },
            ..EngineConfig::default()
        },
    )
}

#[test]
fn records_capture_query_strategy_rows_and_cache() {
    let _guard = flight_lock();
    flight::install(FlightConfig::default());
    let tree = small_tree(7, 400);
    let engine = engine_with(&tree, 1, None);
    let rows = engine.xpath("//a/b").unwrap().len() as u64;
    engine.xpath("//a/b").unwrap();
    engine
        .eval(&Query::cq("q(x) :- child(x, y), label(y, b)."))
        .unwrap();
    let recent = flight::recent();
    flight::uninstall();

    assert_eq!(recent.len(), 3);
    let first = &recent[0];
    assert_eq!(first.query, "//a/b");
    assert_eq!(first.source, "xpath");
    assert_eq!(first.rows, rows);
    assert!(!first.strategy.is_empty(), "strategy recorded");
    assert!(!first.rationale.is_empty(), "planner rationale recorded");
    assert!(!first.cache_hit, "first evaluation misses the plan cache");
    assert!(
        recent[1].cache_hit,
        "second identical query hits the plan cache"
    );
    assert_eq!(recent[1].query_fingerprint, first.query_fingerprint);
    assert_eq!(recent[2].source, "cq");
    let ids: Vec<u64> = recent.iter().map(|r| r.id).collect();
    assert_eq!(ids, vec![1, 2, 3], "ids are 1-based and monotonic");
    assert!(recent.iter().all(|r| r.error.is_none()));
    assert!(
        recent.iter().all(|r| !r.spans.is_empty()),
        "every record carries its span tree"
    );
    assert!(recent.iter().all(|r| r.wall_ns > 0));
}

/// A plan chosen up front with `Engine::plan` is executed without a
/// second cache lookup, and the flight record still says whether that
/// one lookup hit.
#[test]
fn planned_evaluation_records_the_lookup_it_was_given() {
    let _guard = flight_lock();
    flight::install(FlightConfig::default());
    let tree = small_tree(5, 300);
    let engine = engine_with(&tree, 1, None);
    let token = treequery_core::CancelToken::new();
    let before = engine.metrics();
    for _ in 0..2 {
        let ir = engine.lower(&Query::xpath("//a[b]")).unwrap();
        let chosen = engine.plan(&ir);
        engine
            .eval_planned_with_cancel(&ir, &chosen, &token)
            .unwrap();
    }
    let recent = flight::recent();
    flight::uninstall();
    let counters = engine.metrics().delta_since(&before);

    assert_eq!(recent.len(), 2);
    assert!(!recent[0].cache_hit, "first lookup plans");
    assert!(recent[1].cache_hit, "second lookup hits");
    assert_eq!(counters.queries_lowered, 2);
    assert_eq!(counters.plan_cache_hits + counters.plan_cache_misses, 2);
}

#[test]
fn slow_log_retains_explain_analyze_and_a_reproducer() {
    let _guard = flight_lock();
    flight::install(FlightConfig::default());
    let tree = small_tree(11, 300);
    let engine = engine_with(&tree, 1, Some(0));
    engine.xpath("//c//d").unwrap();

    let slow = flight::slow_recent();
    assert_eq!(slow.len(), 1, "a 0ms threshold logs every query as slow");
    let entry = &slow[0];
    assert!(entry.detail.explain.contains("EXPLAIN ANALYZE"));
    assert!(entry.detail.explain.contains("//c//d"));
    assert!(entry.detail.explain.contains("Plan:"));
    assert!(
        entry
            .detail
            .reproducer
            .contains("Engine::new(&tree).eval(&Query::xpath(\"//c//d\"))"),
        "reproducer renders a re-runnable invocation:\n{}",
        entry.detail.reproducer
    );
    assert!(
        entry
            .detail
            .reproducer
            .contains(&format!("0x{:016x}", entry.record.tree_fingerprint)),
        "reproducer pins the tree fingerprint"
    );

    // An engine without a threshold still flight-records but never logs
    // slow (the install-time threshold here is None too).
    let quiet = engine_with(&tree, 1, None);
    quiet.xpath("//a").unwrap();
    assert_eq!(flight::slow_recent().len(), 1);
    assert_eq!(flight::recent().len(), 2);
    flight::uninstall();
}

/// The canonical Chrome trace of a fixed seed query is byte-identical
/// across runs and across 1-vs-4-worker engines: the tree sits below the
/// parallel threshold, so both settings plan sequentially and the span
/// forest (the only input to the canonical rendering) is deterministic.
#[test]
fn canonical_trace_golden_is_byte_identical_across_runs_and_workers() {
    let _guard = flight_lock();
    let tree = small_tree(42, 600);
    let mut renderings: Vec<String> = Vec::new();
    for workers in [1usize, 4, 1, 4] {
        flight::install(FlightConfig::default());
        let engine = engine_with(&tree, workers, None);
        engine.xpath("//a[b]/c").unwrap();
        let record = flight::latest().expect("the query was recorded");
        flight::uninstall();
        let trace = traceexport::chrome_trace_canonical(&[record]);
        let stats = traceexport::validate_chrome_trace(&trace).expect("canonical trace validates");
        assert_eq!(stats.queries, 1);
        assert!(stats.events > 1, "the trace holds a span tree, not a stub");
        renderings.push(trace.render());
    }
    assert!(
        renderings.iter().all(|r| r == &renderings[0]),
        "canonical trace must not depend on the run or the worker count"
    );
    // Golden shape: a parseable trace whose events all belong to query 1,
    // led by the root exec.run span.
    let golden = parse_json(&renderings[0]).expect("rendering parses back");
    let events = golden
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .collect();
    assert!(
        names.contains(&"exec.run"),
        "the trace holds the root execution span (events: {names:?})"
    );
    assert!(events.iter().all(|e| {
        e.get("args")
            .and_then(|a| a.get("query_id"))
            .and_then(|q| q.as_u64())
            == Some(1)
    }));
}

#[test]
fn trace_last_query_exports_the_most_recent_evaluation() {
    let _guard = flight_lock();
    flight::install(FlightConfig::default());
    let tree = small_tree(3, 250);
    let engine = engine_with(&tree, 1, None);
    assert!(
        engine.trace_last_query().is_none(),
        "no queries yet, no trace"
    );
    engine.xpath("//b").unwrap();
    engine.xpath("//a/c").unwrap();
    let trace = engine.trace_last_query().expect("trace after evaluation");
    flight::uninstall();
    let stats = traceexport::validate_chrome_trace(&trace).expect("trace validates");
    assert_eq!(stats.queries, 1, "only the latest query is exported");
}

fn batch_queries(n: usize) -> Vec<Query> {
    (0..n)
        .map(|i| Query::xpath(format!("//{}", ["a", "b", "c", "d"][i % 4])))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sequential evaluations: the ring holds exactly the newest
    /// `capacity` query ids, in order.
    #[test]
    fn ring_keeps_exactly_the_newest_ids_sequentially(cap in 1usize..9, extra in 0usize..25) {
        let _guard = flight_lock();
        let n = cap + extra;
        flight::install(FlightConfig { capacity: cap, ..FlightConfig::default() });
        let tree = small_tree(5, 150);
        let engine = engine_with(&tree, 1, None);
        for q in batch_queries(n) {
            engine.eval(&q).unwrap();
        }
        let ids: Vec<u64> = flight::recent().iter().map(|r| r.id).collect();
        let submitted = flight::submitted_total();
        flight::uninstall();
        let expect: Vec<u64> = (extra as u64 + 1..=n as u64).collect();
        prop_assert_eq!(ids, expect);
        prop_assert_eq!(submitted, n as u64);
    }

    /// Eviction never mixes up request attribution: every evaluation
    /// runs under a distinct tenant/trace-id request context (the way
    /// the query service wraps evaluations), and after the ring wraps,
    /// each surviving record still carries exactly the tenant, trace id,
    /// and admission wait that belong to its query id.
    #[test]
    fn eviction_preserves_tenant_attribution(cap in 1usize..9, extra in 0usize..25) {
        let _guard = flight_lock();
        let n = cap + extra;
        flight::install(FlightConfig { capacity: cap, ..FlightConfig::default() });
        let tree = small_tree(13, 150);
        let engine = engine_with(&tree, 1, None);
        for (i, q) in batch_queries(n).iter().enumerate() {
            let request = flight::RequestCtx {
                tenant: format!("tenant-{}", i % 3),
                trace_id: format!("trace-{}", i + 1),
                admission_wait_ns: (i as u64 + 1) * 10,
            };
            let ctx = QueryCtx {
                request: Some(std::sync::Arc::new(request)),
                ..QueryCtx::current()
            };
            ctx.enter(|| engine.eval(q)).unwrap();
        }
        let recent = flight::recent();
        flight::uninstall();
        let ids: Vec<u64> = recent.iter().map(|r| r.id).collect();
        let expect: Vec<u64> = (extra as u64 + 1..=n as u64).collect();
        prop_assert_eq!(ids, expect, "the newest ids survive eviction");
        for r in &recent {
            // Ids are 1-based and assigned in submission order, so the
            // record for id k ran under the context built for i = k - 1.
            let i = (r.id - 1) as usize;
            prop_assert_eq!(&r.tenant, &format!("tenant-{}", i % 3));
            prop_assert_eq!(&r.trace_id, &format!("trace-{}", i + 1));
            prop_assert_eq!(r.admission_wait_ns, (i as u64 + 1) * 10);
        }
    }

    /// Concurrent `eval_batch`: completions race, but the ring never
    /// exceeds its capacity, never duplicates a record, and never
    /// resurrects an id outside the submitted range.
    #[test]
    fn ring_eviction_is_exact_under_concurrent_eval_batch(cap in 1usize..9, extra in 0usize..25) {
        let _guard = flight_lock();
        let n = cap + extra;
        flight::install(FlightConfig { capacity: cap, ..FlightConfig::default() });
        let tree = small_tree(9, 150);
        let engine = engine_with(&tree, 4, None);
        for result in engine.eval_batch(&batch_queries(n)) {
            result.unwrap();
        }
        let recent = flight::recent();
        let submitted = flight::submitted_total();
        flight::uninstall();
        prop_assert_eq!(recent.len(), cap.min(n), "ring holds exactly min(cap, n) records");
        let mut ids: Vec<u64> = recent.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), recent.len(), "no duplicate records");
        prop_assert!(ids.iter().all(|&id| id >= 1 && id <= n as u64));
        prop_assert_eq!(submitted, n as u64);
    }
}
