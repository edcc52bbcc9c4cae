//! Integration tests for the counting allocator: exact attribution of a
//! known allocation pattern, scope propagation across the worker pool,
//! and the `mem` columns `EXPLAIN ANALYZE` joins onto the stage tree.
//!
//! The accounting switch is process-global and one test needs it off, so
//! these tests serialize on one mutex (mirroring the unit tests inside
//! `treequery-obs`). Scope totals are per capture and need no lock.

use std::sync::Mutex;

use treequery::obs::alloc::{current_scope, AccountingGuard, AllocScope, ScopeStats};
use treequery::obs::QueryCtx;
use treequery::plan::WorkerPool;
use treequery::{parse_term, Engine, Query};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Vec growth by explicit doubling reports *exact* byte counts: each
/// `reserve_exact` is one allocation of exactly the new capacity (realloc
/// counts as alloc(new) + free(old)), and nothing else on this thread
/// allocates between the scope's entry and the reads.
#[test]
fn vec_doubling_reports_exact_byte_counts() {
    let _l = lock();
    let _on = AccountingGuard::begin();
    let scope = AllocScope::enter("test.vec_doubling");
    let mut v: Vec<u8> = Vec::new();
    v.reserve_exact(1024); // alloc 1024
    v.resize(1024, 0);
    v.reserve_exact(1024); // realloc: alloc 2048, free 1024
    v.resize(2048, 0);
    v.reserve_exact(2048); // realloc: alloc 4096, free 2048
    let stats = scope.stats();
    assert_eq!(
        stats,
        ScopeStats {
            allocs: 3,
            frees: 2,
            bytes: 1024 + 2048 + 4096,
            freed_bytes: 1024 + 2048,
            peak_live: 4096 + 2048, // during realloc both blocks are charged
        },
        "doubling pattern must be counted exactly"
    );
    drop(v); // free 4096
    let stats = scope.stats();
    assert_eq!(stats.frees, 3);
    assert_eq!(stats.freed_bytes, 1024 + 2048 + 4096);
    assert_eq!(stats.bytes, stats.freed_bytes, "everything returned");
}

/// Scope attribution survives a `plan::pool` round-trip: tasks running on
/// pool workers charge the submitting thread's scope through the
/// propagated handle.
#[test]
fn scope_attribution_survives_a_pool_round_trip() {
    let _l = lock();
    let _on = AccountingGuard::begin();
    let scope = AllocScope::enter("test.pool_round_trip");
    let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8)
        .map(|i| {
            Box::new(move || {
                let v: Vec<u8> = Vec::with_capacity(16 * 1024);
                v.capacity() + i
            }) as Box<dyn FnOnce() -> usize + Send>
        })
        .collect();
    let results = WorkerPool::global().run_scoped(4, tasks);
    assert_eq!(results.len(), 8);
    let stats = scope.stats();
    assert!(
        stats.bytes >= 8 * 16 * 1024,
        "worker allocations must be charged to the submitting scope: {stats:?}"
    );
}

/// The context API the pool uses, exercised directly across a plain
/// spawned thread: the scope handle rides in the [`QueryCtx`].
#[test]
fn current_scope_handle_carries_attribution() {
    let _l = lock();
    let _on = AccountingGuard::begin();
    let scope = AllocScope::enter("test.handle");
    let handle = current_scope().expect("a scope is current");
    let ctx = QueryCtx {
        alloc: Some(handle),
        ..QueryCtx::default()
    };
    std::thread::scope(|s| {
        s.spawn(move || {
            ctx.enter(|| {
                let _v: Vec<u8> = Vec::with_capacity(32 * 1024);
            });
        });
    });
    assert!(scope.stats().bytes >= 32 * 1024, "{:?}", scope.stats());
}

/// `EXPLAIN ANALYZE` turns accounting on for the run and joins the scope
/// totals onto the stage tree: the executor stages carry `mem` columns
/// with non-zero byte counts, in both the struct and the rendering.
#[test]
fn explain_analyze_reports_per_stage_memory() {
    let _l = lock();
    let t = parse_term("site(people(person(name) person(name)) regions(item item))").unwrap();
    let e = Engine::new(&t);
    let analyzed = e.explain_analyze(&Query::xpath("//person")).unwrap();
    let run = analyzed
        .stages
        .iter()
        .find(|s| s.name == "exec.run")
        .expect("exec.run stage present");
    let mem = run.mem.expect("accounted run attaches mem to exec.run");
    assert!(mem.allocs > 0, "{mem:?}");
    assert!(mem.bytes > 0, "{mem:?}");
    let rendered = analyzed.render();
    assert!(
        rendered.contains("[mem: bytes="),
        "render must show mem columns:\n{rendered}"
    );
    // The machine-readable form carries the same columns.
    let json = treequery::obs::parse_json(&analyzed.to_json().render()).unwrap();
    let stages = json.get("stages").unwrap().as_arr().unwrap().to_vec();
    assert!(stages.iter().any(|s| s
        .get("mem")
        .and_then(|m| m.get("bytes"))
        .and_then(|b| b.as_u64())
        > Some(0)));
}

/// Accounting is off outside guards: a plain `Engine::eval` run, even
/// under a capture, leaves no scope totals behind.
#[test]
fn unaccounted_runs_attach_no_mem() {
    let _l = lock();
    let t = parse_term("r(a(b) a)").unwrap();
    let e = Engine::new(&t);
    let (nodes, captured) = treequery::obs::capture(|| e.xpath("//a").unwrap());
    assert_eq!(nodes.len(), 2);
    assert!(!captured.spans.is_empty(), "the run was captured");
    assert!(captured.alloc.is_empty(), "no guard, no attribution");
}
