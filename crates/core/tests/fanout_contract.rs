//! The fan-out contract under load: a caller-pinned worker count is
//! honoured while other queries are in flight, a machine-sized plan
//! declines to fan out when no core is idle, and the shared pool never
//! spawns more threads than the machine has cores.
//!
//! Own test binary on purpose: the in-flight count and the worker pool
//! are process-wide.

use std::time::{Duration, Instant};

use treequery_core::obs::QueryCtx;
use treequery_core::plan::{self, WorkerPool};
use treequery_core::tree::CancelToken;
use treequery_core::tree::{random_recursive_tree, Tree};
use treequery_core::{Engine, EngineConfig, PlannerConfig, Query};

use rand::rngs::StdRng;
use rand::SeedableRng;

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn engine(tree: &Tree, workers: Option<usize>) -> Engine<'_> {
    Engine::with_config(
        tree,
        EngineConfig {
            planner: PlannerConfig {
                workers,
                parallel_threshold: 0,
                ..PlannerConfig::default()
            },
            ..EngineConfig::default()
        },
    )
}

/// Keeps `n` queries executing until the returned token is cancelled:
/// each thread forces backtracking over an unsatisfiable triangle of
/// sibling order constraints on a wide star, which never finds a
/// solution and polls the ambient token as it searches.
fn hold_in_flight(n: usize) -> (Vec<std::thread::JoinHandle<()>>, CancelToken) {
    let token = CancelToken::with_deadline(Duration::from_secs(60));
    let handles = (0..n)
        .map(|_| {
            let token = token.clone();
            std::thread::spawn(move || {
                let star = treequery_core::tree::star(1500, "a");
                let engine = Engine::new(&star);
                let ir = engine
                    .lower(&Query::cq(
                        "child(z, a), child(z, b), child(z, c), \
                         pre_lt(a, b), pre_lt(b, c), pre_lt(c, a)",
                    ))
                    .unwrap();
                let ctx = QueryCtx {
                    cancel: Some(token),
                    ..QueryCtx::current()
                };
                let r = ctx.enter(|| engine.eval_ir_via(&ir, plan::Strategy::CqBacktrack, 1));
                assert!(
                    r.is_err(),
                    "the holder query finished before it was cancelled"
                );
            })
        })
        .collect();
    let started = Instant::now();
    while plan::queries_in_flight() < n {
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "holder queries never reached the executor"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    (handles, token)
}

#[test]
fn pinned_workers_fan_out_while_every_core_is_busy() {
    let mut rng = StdRng::seed_from_u64(13);
    let tree = random_recursive_tree(&mut rng, 3000, &["a", "b", "c"]);
    let query = Query::xpath("//a//b");
    let expect = engine(&tree, Some(1)).eval(&query).unwrap();

    let (holders, token) = hold_in_flight(cores());

    let pinned = engine(&tree, Some(4));
    assert_eq!(pinned.eval(&query).unwrap(), expect);
    let m = pinned.metrics();
    assert!(
        m.parallel_kernels > 0,
        "a pinned 4-worker plan must fan out"
    );
    assert_eq!(m.parallel_declined_busy, 0);

    // A machine-sized plan sees no idle core. Whether it was allowed to
    // fan out at all depends on the default worker count
    // (`TREEQUERY_WORKERS`, else the cores).
    let sized = engine(&tree, None);
    let union = Query::cq("q(x) :- child+(x, y), child+(x, z), child+(y, w), child+(z, w).");
    let planned = sized.explain(&union).unwrap();
    assert!(
        matches!(planned.strategy, plan::Strategy::CqRewriteUnion(_)),
        "{}",
        planned.rationale
    );
    let pinned_union = engine(&tree, Some(1)).eval(&union).unwrap();
    assert_eq!(sized.eval(&union).unwrap(), pinned_union);
    let m = sized.metrics();
    assert_eq!(m.parallel_kernels, 0, "{}", planned.parallel_rationale);
    assert_eq!(
        m.parallel_declined_busy,
        u64::from(planned.workers > 1),
        "{}",
        planned.parallel_rationale
    );

    token.cancel();
    for h in holders {
        h.join().unwrap();
    }
}

#[test]
fn the_pool_never_outgrows_the_machine() {
    let mut rng = StdRng::seed_from_u64(14);
    let tree = random_recursive_tree(&mut rng, 2000, &["a", "b"]);
    let wide = engine(&tree, Some(8));
    let out = wide.eval(&Query::xpath("//a//b")).unwrap();
    assert_eq!(
        out,
        engine(&tree, Some(1))
            .eval(&Query::xpath("//a//b"))
            .unwrap()
    );
    assert!(
        wide.metrics().parallel_chunks >= 8,
        "8 workers split into 8 chunks"
    );
    assert!(
        WorkerPool::global().workers() <= cores(),
        "{} pool threads on {} cores",
        WorkerPool::global().workers(),
        cores()
    );
}
