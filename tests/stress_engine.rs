//! Concurrency stress for the shared engine: many threads hammer one
//! `Engine` with a mix of `eval`, `eval_batch`, and `explain_analyze`
//! while the planner dispatches parallel kernels onto the shared worker
//! pool. Afterwards the counters must balance exactly — every lowered
//! query took exactly one plan-cache lookup, every miss computed exactly
//! one plan — and the quiesced snapshot must agree with the plain one at
//! rest.

use treequery::{Engine, EngineConfig, PlannerConfig, Query, QueryOutput, Tree};

fn stress_tree() -> Tree {
    let term = format!("r({})", "a(b(c) b) a(c(b)) b(a) ".repeat(50));
    treequery::parse_term(&term).unwrap()
}

fn parallel_engine(tree: &Tree) -> Engine<'_> {
    Engine::with_config(
        tree,
        EngineConfig {
            planner: PlannerConfig {
                workers: Some(4),
                parallel_threshold: 0,
                ..PlannerConfig::default()
            },
            batch_threads: Some(4),
            ..EngineConfig::default()
        },
    )
}

fn stress_queries() -> Vec<Query> {
    vec![
        Query::xpath("//a[b]/c"),
        Query::xpath("//b"),
        Query::xpath("//a/following-sibling::b"),
        Query::cq("q(x) :- label(x, a), child(x, y), label(y, b)."),
        Query::datalog("P(x) :- label(x, c). ?- P."),
    ]
}

#[test]
fn hammered_engine_keeps_its_counters_consistent() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 12;
    let tree = stress_tree();
    let engine = parallel_engine(&tree);
    let queries = stress_queries();
    // Sequential oracle from a fresh single-worker engine.
    let oracle: Vec<QueryOutput> = {
        let sequential = Engine::with_config(
            &tree,
            EngineConfig {
                planner: PlannerConfig {
                    workers: Some(1),
                    ..PlannerConfig::default()
                },
                batch_threads: Some(1),
                ..EngineConfig::default()
            },
        );
        queries
            .iter()
            .map(|q| sequential.eval(q).unwrap())
            .collect()
    };

    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for round in 0..ROUNDS {
                    for (q, expect) in queries.iter().zip(&oracle) {
                        assert_eq!(&engine.eval(q).unwrap(), expect);
                    }
                    if round % 3 == 0 {
                        let batch = engine.eval_batch(&queries);
                        for (got, expect) in batch.iter().zip(&oracle) {
                            assert_eq!(got.as_ref().unwrap(), expect);
                        }
                    }
                    if round % 4 == 0 {
                        let i = round % queries.len();
                        let analyzed = engine.explain_analyze(&queries[i]).unwrap();
                        assert_eq!(&analyzed.output, &oracle[i]);
                    }
                }
            });
        }
    });

    // Expected pipeline traffic: every eval / batch entry / analyze runs
    // lower → one cache lookup → execute.
    let batches = (0..ROUNDS).filter(|r| r % 3 == 0).count();
    let analyzes = (0..ROUNDS).filter(|r| r % 4 == 0).count();
    let per_thread = (ROUNDS + batches) * queries.len() + analyzes;
    let expected = (THREADS * per_thread) as u64;

    let m = engine.metrics_quiesced();
    assert_eq!(
        m,
        engine.metrics(),
        "at rest the quiesced snapshot equals the plain snapshot"
    );
    assert_eq!(m.queries_lowered, expected);
    assert_eq!(m.queries_executed, expected);
    // The cache-lookup ledger balances: one lookup per lowered query, one
    // computed plan per miss, one distinct plan per distinct query.
    assert_eq!(m.plan_cache_hits + m.plan_cache_misses, m.queries_lowered);
    assert_eq!(m.plan_cache_misses, m.plans_computed);
    assert_eq!(m.plan_cache_misses, queries.len() as u64);
    assert_eq!(engine.cached_plans(), queries.len());
    assert_eq!(m.batch_queries, (THREADS * batches * queries.len()) as u64);
    assert!(
        m.parallel_kernels > 0,
        "the 4-worker engine should have dispatched parallel kernels"
    );
    assert!(m.parallel_chunks >= m.parallel_kernels);
}

/// `EXPLAIN ANALYZE` under parallel execution is deterministic: worker
/// chunk spans are merged into one stable stage row per name, so two
/// warm-cache runs report exactly the same stage structure (names,
/// calls, depths, summed fields — everything except wall time).
#[test]
fn parallel_explain_analyze_is_deterministic() {
    let tree = stress_tree();
    let engine = parallel_engine(&tree);
    // The `descendant` step is a range sweep, the kernel that fans out;
    // local axes alone would run sequentially.
    let query = Query::xpath("//a[b]//c");
    let sequential = Engine::with_config(
        &tree,
        EngineConfig {
            planner: PlannerConfig {
                workers: Some(1),
                ..PlannerConfig::default()
            },
            ..EngineConfig::default()
        },
    );
    let expect = sequential.eval(&query).unwrap();

    // Warm the plan cache so both measured runs take the same path.
    let warm = engine.explain_analyze(&query).unwrap();
    assert_eq!(warm.plan.workers, 4, "{}", warm.plan.parallel_rationale);
    let first = engine.explain_analyze(&query).unwrap();
    let second = engine.explain_analyze(&query).unwrap();
    for analyzed in [&first, &second] {
        assert_eq!(analyzed.output, expect, "parallel ≡ sequential");
        assert!(analyzed.counters.parallel_kernels > 0);
    }

    let shape = |a: &treequery::AnalyzedPlan| {
        a.stages
            .iter()
            .map(|s| (s.name, s.calls, s.depth, s.fields.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(shape(&first), shape(&second));
    // The merged chunk rows are present and nested under their kernel.
    let chunk = first
        .stages
        .iter()
        .find(|s| s.name == "exec.sweep.chunk")
        .expect("parallel sweep ran in chunks");
    assert!(chunk.calls > 1, "multiple chunks merged into one row");
    let sweep = first
        .stages
        .iter()
        .find(|s| s.name == "exec.sweep")
        .unwrap();
    assert!(
        chunk.depth > sweep.depth,
        "chunk spans nest under the sweep"
    );
    // The rendering (minus times) is identical too: plan lines match.
    let plan_lines = |text: &str| {
        text.lines()
            .filter(|l| !l.contains("time=") && !l.starts_with("Measured"))
            .map(str::to_owned)
            .collect::<Vec<_>>()
    };
    assert_eq!(plan_lines(&first.render()), plan_lines(&second.render()));
}

/// Two analyses running at once on two engines see only their own
/// query: every report's stage tree, span fields, `mem` columns and
/// counters equal the solo run's; only wall times may differ.
#[test]
fn concurrent_explain_analyze_matches_solo_runs() {
    const ITERATIONS: usize = 50;
    // Wall times are the only field allowed to differ.
    let timeless = |mut a: treequery::AnalyzedPlan| {
        a.total_ns = 0;
        for stage in &mut a.stages {
            stage.total_ns = 0;
        }
        a
    };
    let left = stress_tree();
    let right = treequery::parse_term(&format!("r({})", "a(b a(b c)) c(a) ".repeat(80))).unwrap();
    let barrier = std::sync::Barrier::new(2);
    let analyze = |tree: &Tree, query: Query| {
        let config = EngineConfig {
            planner: PlannerConfig {
                workers: Some(1),
                ..PlannerConfig::default()
            },
            ..EngineConfig::default()
        };
        let engine = Engine::with_config(tree, config);
        // Warm the plan cache and this thread's scratch pools, then take
        // the solo reference.
        for _ in 0..3 {
            engine.explain_analyze(&query).unwrap();
        }
        let solo = timeless(engine.explain_analyze(&query).unwrap());
        assert!(
            solo.stages.iter().any(|s| s.mem.is_some()),
            "accounted runs carry mem columns"
        );
        barrier.wait();
        for i in 0..ITERATIONS {
            let concurrent = timeless(engine.explain_analyze(&query).unwrap());
            assert_eq!(concurrent, solo, "iteration {i} of {}", query.text());
        }
    };
    std::thread::scope(|s| {
        s.spawn(|| analyze(&left, Query::xpath("//a[b]//c")));
        s.spawn(|| {
            analyze(
                &right,
                Query::cq("q(x, z) :- label(x, a), child(x, y), label(y, b), descendant(x, z)."),
            )
        });
    });
}
