//! The instrumented executor: runs an [`ExplainedPlan`] against a tree,
//! counting work per pipeline stage, and hosts the plan cache keyed by
//! `(query fingerprint, tree fingerprint)`.

use std::collections::BTreeSet;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use treequery_cq as cq;
use treequery_datalog as datalog;
use treequery_obs::alloc::AllocScope;
use treequery_tree::{NodeId, NodeSet, Tree};
use treequery_xpath as xpath;

use super::fanout::{fan_out, machine_cores, FanOut, Kernel};
use super::ir::{IrBody, QueryIr};
use super::planner::{ExplainedPlan, Strategy};
use crate::{CqAnswer, CqPlan, EngineError};

/// The result of evaluating one query through the pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryOutput {
    /// A node-set answer in document order (XPath, datalog).
    Nodes(Vec<NodeId>),
    /// A tuple answer (conjunctive queries).
    Answer(CqAnswer),
}

impl QueryOutput {
    /// The node list, when the answer is a node set.
    pub fn nodes(&self) -> Option<&[NodeId]> {
        match self {
            QueryOutput::Nodes(v) => Some(v),
            QueryOutput::Answer(_) => None,
        }
    }

    /// The tuple answer, when the query was conjunctive.
    pub fn answer(&self) -> Option<&CqAnswer> {
        match self {
            QueryOutput::Nodes(_) => None,
            QueryOutput::Answer(a) => Some(a),
        }
    }
}

/// Per-stage work counters, updated atomically so batch workers can share
/// one instance. Read with [`Metrics::snapshot`].
#[derive(Debug, Default)]
pub struct Metrics {
    /// Queries lowered into the IR.
    pub queries_lowered: AtomicU64,
    /// Plans computed by the planner (cache misses included).
    pub plans_computed: AtomicU64,
    /// Plan-cache hits.
    pub plan_cache_hits: AtomicU64,
    /// Plan-cache misses.
    pub plan_cache_misses: AtomicU64,
    /// Queries executed end to end.
    pub queries_executed: AtomicU64,
    /// Queries aborted by cooperative cancellation (explicit CANCEL or a
    /// passed deadline observed at a chunk boundary).
    pub queries_cancelled: AtomicU64,
    /// Queries submitted through `eval_batch`.
    pub batch_queries: AtomicU64,
    /// Semijoin passes run by full reducers (2 per atom per reduced
    /// query).
    pub semijoin_passes: AtomicU64,
    /// Total size of the reduced candidate sets (the `||A||` the
    /// output-sensitive bound charges).
    pub candidate_nodes: AtomicU64,
    /// Acyclic parts evaluated inside rewrite unions.
    pub union_parts: AtomicU64,
    /// Nodes touched by linear sweeps (set-at-a-time, datalog grounding).
    pub nodes_swept: AtomicU64,
    /// Variable assignments attempted by the backtracking evaluator.
    pub backtrack_assignments: AtomicU64,
    /// Kernel invocations that were dispatched to the worker pool in more
    /// than one chunk (parallel sweeps, grounding passes, joins, union
    /// parts).
    pub parallel_kernels: AtomicU64,
    /// Chunk tasks submitted to the worker pool by those kernels.
    pub parallel_chunks: AtomicU64,
    /// Default-sized plans allowed to fan out that ran sequentially
    /// because other queries in flight left too few cores idle.
    pub parallel_declined_busy: AtomicU64,
}

/// A point-in-time copy of [`Metrics`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Queries lowered into the IR.
    pub queries_lowered: u64,
    /// Plans computed by the planner.
    pub plans_computed: u64,
    /// Plan-cache hits.
    pub plan_cache_hits: u64,
    /// Plan-cache misses.
    pub plan_cache_misses: u64,
    /// Queries executed end to end.
    pub queries_executed: u64,
    /// Queries aborted by cooperative cancellation.
    pub queries_cancelled: u64,
    /// Queries submitted through `eval_batch`.
    pub batch_queries: u64,
    /// Semijoin passes run by full reducers.
    pub semijoin_passes: u64,
    /// Total size of the reduced candidate sets.
    pub candidate_nodes: u64,
    /// Acyclic parts evaluated inside rewrite unions.
    pub union_parts: u64,
    /// Nodes touched by linear sweeps.
    pub nodes_swept: u64,
    /// Variable assignments attempted by the backtracking evaluator.
    pub backtrack_assignments: u64,
    /// Kernel invocations dispatched to the pool in more than one chunk.
    pub parallel_kernels: u64,
    /// Chunk tasks submitted to the worker pool.
    pub parallel_chunks: u64,
    /// Plans allowed to fan out that ran sequentially for lack of an
    /// idle core.
    pub parallel_declined_busy: u64,
    /// Re-reads [`Metrics::snapshot_quiesced`] needed before two
    /// consecutive snapshots agreed (0 = the first re-read already
    /// matched). Non-zero means the snapshot was taken under concurrent
    /// load; the flight recorder uses it to tag degraded records.
    pub quiesce_retries: u32,
    /// Whether this snapshot may be torn: set only by
    /// [`Metrics::snapshot_quiesced`] when its bounded retry loop
    /// exhausted without two consecutive reads agreeing (sustained
    /// concurrent load). Individual counters are still exact; only
    /// cross-counter consistency is suspect.
    pub torn: bool,
}

impl Metrics {
    fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one IR lowering.
    pub fn add_lowered(metrics: &Metrics) {
        Metrics::add(&metrics.queries_lowered, 1);
    }

    /// Records one planner invocation.
    pub fn add_planned(metrics: &Metrics) {
        Metrics::add(&metrics.plans_computed, 1);
    }

    /// Records `n` queries submitted through a batch.
    pub fn add_batch(metrics: &Metrics, n: u64) {
        Metrics::add(&metrics.batch_queries, n);
    }

    /// Copies all counters.
    ///
    /// **Tearing semantics:** each counter is loaded independently with
    /// `Relaxed` ordering, so a snapshot taken while other threads are
    /// mid-query can mix values from different instants — e.g.
    /// `queries_executed` already incremented but that query's
    /// `semijoin_passes` not yet added. Every individual counter is still
    /// exact and monotone; only *cross-counter consistency* is not
    /// guaranteed under concurrency. For reports that must be internally
    /// consistent (single-query runs like `Engine::explain_analyze`), use
    /// [`Metrics::snapshot_quiesced`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        MetricsSnapshot {
            queries_lowered: get(&self.queries_lowered),
            plans_computed: get(&self.plans_computed),
            plan_cache_hits: get(&self.plan_cache_hits),
            plan_cache_misses: get(&self.plan_cache_misses),
            queries_executed: get(&self.queries_executed),
            queries_cancelled: get(&self.queries_cancelled),
            batch_queries: get(&self.batch_queries),
            semijoin_passes: get(&self.semijoin_passes),
            candidate_nodes: get(&self.candidate_nodes),
            union_parts: get(&self.union_parts),
            nodes_swept: get(&self.nodes_swept),
            backtrack_assignments: get(&self.backtrack_assignments),
            parallel_kernels: get(&self.parallel_kernels),
            parallel_chunks: get(&self.parallel_chunks),
            parallel_declined_busy: get(&self.parallel_declined_busy),
            quiesce_retries: 0,
            torn: false,
        }
    }

    /// A snapshot that is consistent when the metrics have quiesced:
    /// re-reads until two consecutive snapshots agree (bounded retries),
    /// so a report taken after the last query finished never shows a torn
    /// mix of two queries' counters. Under *sustained* concurrent load
    /// there is no consistent instant to report; the helper then returns
    /// the last read with its `torn` flag set, so consumers (and
    /// `EXPLAIN ANALYZE`'s renderer) can say so instead of presenting a
    /// possibly-inconsistent snapshot as clean.
    pub fn snapshot_quiesced(&self) -> MetricsSnapshot {
        const ATTEMPTS: usize = 16;
        quiesce(ATTEMPTS, || self.snapshot())
    }

    /// Zeroes all counters.
    pub fn reset(&self) {
        let zero = |c: &AtomicU64| c.store(0, Ordering::Relaxed);
        zero(&self.queries_lowered);
        zero(&self.plans_computed);
        zero(&self.plan_cache_hits);
        zero(&self.plan_cache_misses);
        zero(&self.queries_executed);
        zero(&self.queries_cancelled);
        zero(&self.batch_queries);
        zero(&self.semijoin_passes);
        zero(&self.candidate_nodes);
        zero(&self.union_parts);
        zero(&self.nodes_swept);
        zero(&self.backtrack_assignments);
        zero(&self.parallel_kernels);
        zero(&self.parallel_chunks);
        zero(&self.parallel_declined_busy);
    }
}

impl MetricsSnapshot {
    /// Publishes the snapshot into the process-wide
    /// [`treequery_obs::metrics`] registry as `treequery_`-prefixed
    /// gauges, one per counter. This is the growth path for pipeline
    /// observables: the fixed atomic block stays for the hot executor
    /// counters, and anything that wants scraping (Prometheus text
    /// exposition via `obs::prom`, `harness --serve-metrics`) goes
    /// through the registry.
    pub fn publish_to_registry(&self) {
        let registry = treequery_obs::metrics::global();
        let rows: [(&'static str, &'static str, u64); 15] = [
            (
                "treequery_queries_lowered",
                "Queries lowered into the IR.",
                self.queries_lowered,
            ),
            (
                "treequery_plans_computed",
                "Plans computed by the planner.",
                self.plans_computed,
            ),
            (
                "treequery_plan_cache_hits",
                "Plan-cache hits.",
                self.plan_cache_hits,
            ),
            (
                "treequery_plan_cache_misses",
                "Plan-cache misses.",
                self.plan_cache_misses,
            ),
            (
                "treequery_queries_executed",
                "Queries executed end to end.",
                self.queries_executed,
            ),
            (
                "treequery_queries_cancelled",
                "Queries aborted by cooperative cancellation.",
                self.queries_cancelled,
            ),
            (
                "treequery_batch_queries",
                "Queries submitted through eval_batch.",
                self.batch_queries,
            ),
            (
                "treequery_semijoin_passes",
                "Semijoin passes run by full reducers.",
                self.semijoin_passes,
            ),
            (
                "treequery_candidate_nodes",
                "Total size of the reduced candidate sets.",
                self.candidate_nodes,
            ),
            (
                "treequery_union_parts",
                "Acyclic parts evaluated inside rewrite unions.",
                self.union_parts,
            ),
            (
                "treequery_nodes_swept",
                "Nodes touched by linear sweeps.",
                self.nodes_swept,
            ),
            (
                "treequery_backtrack_assignments",
                "Assignments attempted by the backtracking evaluator.",
                self.backtrack_assignments,
            ),
            (
                "treequery_parallel_kernels",
                "Kernel invocations dispatched to the pool in chunks.",
                self.parallel_kernels,
            ),
            (
                "treequery_parallel_chunks",
                "Chunk tasks submitted to the worker pool.",
                self.parallel_chunks,
            ),
            (
                "treequery_parallel_declined_busy",
                "Plans allowed to fan out that ran sequentially for lack of an idle core.",
                self.parallel_declined_busy,
            ),
        ];
        for (name, help, value) in rows {
            registry
                .gauge_or_existing(name, help)
                .set(i64::try_from(value).unwrap_or(i64::MAX));
        }
    }
}

/// The bounded-retry loop behind [`Metrics::snapshot_quiesced`],
/// parameterized over the read so tests can drive it with a
/// deterministic sequence: keep re-reading until two consecutive
/// snapshots agree; on exhaustion return the last read with `torn` set.
/// Either way the returned snapshot's `quiesce_retries` reports how many
/// re-reads disagreed before settling (reads themselves always carry 0,
/// so the equality check stays untainted by the retry count).
pub(crate) fn quiesce(
    attempts: usize,
    mut read: impl FnMut() -> MetricsSnapshot,
) -> MetricsSnapshot {
    let mut prev = read();
    for retry in 0..attempts {
        let mut next = read();
        if next == prev {
            next.quiesce_retries = retry as u32;
            return next;
        }
        prev = next;
    }
    prev.quiesce_retries = attempts as u32;
    prev.torn = true;
    prev
}

/// The plan cache: `(query fingerprint, tree fingerprint)` →
/// [`ExplainedPlan`]. Both fingerprints hash *normalized* forms, so
/// syntactically different but equivalent conjunctive paths share an
/// entry, and a second `Engine` over a structurally identical tree would
/// plan identically.
#[derive(Debug, Default)]
pub struct PlanCache {
    map: Mutex<HashMap<(u64, u64), Arc<ExplainedPlan>>>,
}

impl PlanCache {
    /// Looks up `(query_fp, tree_fp)`, computing and inserting the plan on
    /// a miss; records the hit/miss in `metrics`.
    pub fn get_or_insert(
        &self,
        query_fp: u64,
        tree_fp: u64,
        metrics: &Metrics,
        compute: impl FnOnce() -> ExplainedPlan,
    ) -> Arc<ExplainedPlan> {
        let mut map = self.map.lock().expect("plan cache poisoned");
        match map.entry((query_fp, tree_fp)) {
            std::collections::hash_map::Entry::Occupied(e) => {
                Metrics::add(&metrics.plan_cache_hits, 1);
                Arc::clone(e.get())
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                Metrics::add(&metrics.plan_cache_misses, 1);
                Arc::clone(e.insert(Arc::new(compute())))
            }
        }
    }

    /// Moves every entry keyed under `old_tree_fp` to `new_tree_fp`: the
    /// fingerprint-delta hook a mutable document calls after an edit.
    ///
    /// Plans stay *sound* across edits — a strategy's applicability
    /// depends only on the query IR, and execution always reads the live
    /// tree — so the entries are rekeyed rather than dropped; only their
    /// cost estimates age. Entries for *other* trees sharing the cache
    /// are untouched, which is the "invalidate only the affected tree"
    /// contract shared caches rely on.
    pub fn rekey_tree(&self, old_tree_fp: u64, new_tree_fp: u64) {
        if old_tree_fp == new_tree_fp {
            return;
        }
        let mut map = self.map.lock().expect("plan cache poisoned");
        let stale: Vec<u64> = map
            .keys()
            .filter(|(_, t)| *t == old_tree_fp)
            .map(|(q, _)| *q)
            .collect();
        for q in stale {
            if let Some(plan) = map.remove(&(q, old_tree_fp)) {
                map.insert((q, new_tree_fp), plan);
            }
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.map.lock().expect("plan cache poisoned").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all cached plans.
    pub fn clear(&self) {
        self.map.lock().expect("plan cache poisoned").clear();
    }
}

fn expect_path(ir: &QueryIr) -> &xpath::Path {
    match &ir.native {
        IrBody::Path(p) => p,
        _ => unreachable!("XPath strategy planned for a non-XPath IR"),
    }
}

/// A result set as a pre-order node list.
fn sorted_nodes(t: &Tree, set: &NodeSet) -> Vec<NodeId> {
    let mut nodes = set.to_vec();
    t.sort_by_pre(&mut nodes);
    nodes
}

/// [`sorted_nodes`] for a set taken from the scratch pool: its storage
/// goes back to the pool, so steady-state query execution only allocates
/// for the answer vector itself. Only pooled sets may come back — a
/// freshly built set put here would grow the pool by one bitset per
/// query.
fn pooled_sorted_nodes(t: &Tree, set: NodeSet) -> Vec<NodeId> {
    let nodes = sorted_nodes(t, &set);
    treequery_tree::scratch::put_set(set);
    nodes
}

/// Queries currently inside [`execute`], process-wide: the load signal
/// behind the idle-core rule of [`super::fanout`].
static IN_FLIGHT: AtomicUsize = AtomicUsize::new(0);

/// Queries currently executing in this process, across engines.
pub fn queries_in_flight() -> usize {
    IN_FLIGHT.load(Ordering::Relaxed)
}

/// Holds one slot of [`IN_FLIGHT`] for the life of a query (released on
/// unwind too).
struct InFlight;

impl InFlight {
    /// Enters; returns the guard and how many *other* queries are in
    /// flight.
    fn enter() -> (InFlight, usize) {
        let before = IN_FLIGHT.fetch_add(1, Ordering::Relaxed);
        (InFlight, before)
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        IN_FLIGHT.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The workers this run of `plan` may use. A pinned count is honoured
/// exactly; a default-sized one gets at most the cores the other queries
/// in flight leave idle, and runs sequentially (counted in
/// `parallel_declined_busy`) when that is below its kernel's break-even
/// point.
fn granted_workers(plan: &ExplainedPlan, others_in_flight: usize, metrics: &Metrics) -> usize {
    if plan.workers <= 1 || plan.workers_pinned {
        return plan.workers;
    }
    let Some(kernel) = Kernel::of_strategy(plan.strategy) else {
        return plan.workers;
    };
    let idle = machine_cores().saturating_sub(others_in_flight);
    let decision = fan_out(kernel, plan.workers, Some(idle));
    if matches!(decision, FanOut::NoIdleCore { .. }) {
        Metrics::add(&metrics.parallel_declined_busy, 1);
    }
    decision.workers()
}

/// Runs an acyclic CQ through the full reducer, charging the semijoin
/// passes and reduced candidate-set sizes to `metrics`. With more than
/// one worker the semijoin sweeps are dispatched chunk-wise through
/// [`super::par::PoolSweeper`].
fn run_acyclic_instrumented(
    q: &cq::Cq,
    t: &Tree,
    metrics: &Metrics,
    workers: usize,
) -> Option<BTreeSet<Vec<NodeId>>> {
    let e = {
        let mut span = treequery_obs::span("exec.semijoin");
        let _mem = AllocScope::enter("exec.semijoin");
        let e = if workers > 1 {
            let sweeper = super::par::PoolSweeper { workers, metrics };
            cq::Enumerator::with_sweeper(q, t, &sweeper)?
        } else {
            cq::Enumerator::new(q, t)?
        };
        let passes = 2 * q.atoms.len() as u64;
        Metrics::add(&metrics.semijoin_passes, passes);
        let mut candidate_total = 0u64;
        for v in 0..q.num_vars() {
            if let Some(set) = e.candidates(cq::CqVar(v as u32)) {
                candidate_total += set.len() as u64;
            }
        }
        Metrics::add(&metrics.candidate_nodes, candidate_total);
        span.record_u64("passes", passes);
        span.record_u64("candidates", candidate_total);
        e
    };
    let mut span = treequery_obs::span("exec.enumerate");
    let _mem = AllocScope::enter("exec.enumerate");
    let tuples = e.head_tuples();
    span.record_u64("tuples", tuples.len() as u64);
    Some(tuples)
}

/// Executes a planned query. The plan must have been produced from the
/// same IR (the engine guarantees this; strategies are matched against the
/// IR body and panic on impossible combinations).
pub fn execute(
    ir: &QueryIr,
    plan: &ExplainedPlan,
    tree: &Tree,
    metrics: &Metrics,
) -> Result<QueryOutput, EngineError> {
    Metrics::add(&metrics.queries_executed, 1);
    let (_in_flight, others) = InFlight::enter();
    // Entry checkpoint: an already-tripped ambient token (pre-cancelled,
    // or a deadline that passed while the query sat in an admission
    // queue) fails fast without touching a kernel.
    if let Some(reason) = treequery_tree::cancel::active_reason() {
        Metrics::add(&metrics.queries_cancelled, 1);
        return Err(EngineError::Cancelled(reason));
    }
    let workers = granted_workers(plan, others, metrics);
    let result = execute_kernels(ir, plan, workers, tree, metrics);
    // Exit checkpoint: the kernels bail out cooperatively at chunk
    // boundaries but return their partial results normally; this is
    // where a cancelled run's partials are discarded and the abort
    // becomes an error. One code path — every caller (server, fuzz
    // oracle, bench suite, batch eval) funnels through here.
    if let Some(reason) = treequery_tree::cancel::active_reason() {
        Metrics::add(&metrics.queries_cancelled, 1);
        return Err(EngineError::Cancelled(reason));
    }
    result
}

/// Strategy dispatch with the granted worker count; see [`execute`]
/// (which wraps this in the cancellation entry/exit checkpoints).
fn execute_kernels(
    ir: &QueryIr,
    plan: &ExplainedPlan,
    workers: usize,
    tree: &Tree,
    metrics: &Metrics,
) -> Result<QueryOutput, EngineError> {
    let mut run_span = treequery_obs::span("exec.run");
    let _mem = AllocScope::enter("exec.run");
    if run_span.is_recording() {
        run_span.record_str("strategy", plan.strategy.to_string());
    }
    match plan.strategy {
        Strategy::XPathSetAtATime => {
            let p = expect_path(ir);
            let swept = (tree.len() as u64).saturating_mul(p.size() as u64);
            Metrics::add(&metrics.nodes_swept, swept);
            let mut span = treequery_obs::span("exec.sweep");
            span.record_u64("nodes", tree.len() as u64);
            span.record_u64("query_size", p.size() as u64);
            span.record_u64("nodes_swept", swept);
            // The alloc scope covers only the sweep kernel: result
            // materialization below is charged to the surrounding
            // "exec.run" scope, so "exec.sweep" attribution reflects the
            // kernel's steady-state behaviour (zero after warm-up).
            let set = {
                let _mem = AllocScope::enter("exec.sweep");
                if workers > 1 {
                    super::par::par_eval_query(p, tree, workers, metrics)
                } else {
                    xpath::eval_query(p, tree)
                }
            };
            Ok(QueryOutput::Nodes(pooled_sorted_nodes(tree, set)))
        }
        Strategy::XPathReference => Ok(QueryOutput::Nodes(sorted_nodes(
            tree,
            &xpath::eval_reference(expect_path(ir), tree),
        ))),
        Strategy::XPathViaDatalog => {
            let prog = xpath::to_datalog(expect_path(ir));
            let swept = (tree.len() as u64).saturating_mul(prog.size() as u64);
            Metrics::add(&metrics.nodes_swept, swept);
            let mut span = treequery_obs::span("exec.ground_minoux");
            span.record_u64("nodes_swept", swept);
            let set = {
                let _mem = AllocScope::enter("exec.ground_minoux");
                if workers > 1 {
                    super::par::par_datalog_eval_query(&prog, tree, workers, metrics)
                } else {
                    datalog::eval_query(&prog, tree)
                }
            };
            Ok(QueryOutput::Nodes(sorted_nodes(tree, &set)))
        }
        Strategy::XPathViaAcyclicCq => {
            let q = ir
                .lowered_cq
                .as_ref()
                .expect("planner chose the CQ route without a lowered CQ");
            let tuples = run_acyclic_instrumented(q, tree, metrics, workers)
                .expect("Proposition 4.2 CQs are acyclic");
            let mut nodes: Vec<NodeId> = tuples.into_iter().map(|t| t[0]).collect();
            tree.sort_by_pre(&mut nodes);
            nodes.dedup();
            Ok(QueryOutput::Nodes(nodes))
        }
        Strategy::CqAcyclic => {
            let q = expect_cq(ir);
            let tuples =
                run_acyclic_instrumented(q, tree, metrics, workers).expect("planned acyclic");
            Ok(QueryOutput::Answer(CqAnswer {
                tuples,
                plan: CqPlan::Acyclic,
            }))
        }
        Strategy::CqXProperty(order) => {
            let q = expect_cq(ir);
            let candidates = (tree.len() as u64).saturating_mul(q.num_vars() as u64);
            Metrics::add(&metrics.candidate_nodes, candidates);
            let mut span = treequery_obs::span("exec.arc_consistency");
            let _mem = AllocScope::enter("exec.arc_consistency");
            span.record_u64("candidates", candidates);
            let tuples = match cq::eval_x_property(q, tree).expect("planned tractable") {
                Some(_witness) => std::iter::once(Vec::new()).collect(),
                None => BTreeSet::new(),
            };
            Ok(QueryOutput::Answer(CqAnswer {
                tuples,
                plan: CqPlan::XProperty(order),
            }))
        }
        Strategy::CqRewriteUnion(k) => {
            let q = expect_cq(ir);
            Metrics::add(&metrics.union_parts, k as u64);
            let passes = 2 * (k as u64).saturating_mul(q.atoms.len() as u64);
            Metrics::add(&metrics.semijoin_passes, passes);
            let mut span = treequery_obs::span("exec.union");
            span.record_u64("parts", k as u64);
            span.record_u64("passes", passes);
            let tuples = {
                let _mem = AllocScope::enter("exec.union");
                if workers > 1 {
                    super::par::par_eval_via_rewrite(q, tree, workers, metrics)
                        .expect("planned rewritable")
                } else {
                    cq::rewrite::eval_via_rewrite(q, tree).expect("planned rewritable")
                }
            };
            Ok(QueryOutput::Answer(CqAnswer {
                tuples,
                plan: CqPlan::RewriteUnion(k),
            }))
        }
        Strategy::CqBacktrack => {
            let q = expect_cq(ir);
            let mut span = treequery_obs::span("exec.backtrack");
            let _mem = AllocScope::enter("exec.backtrack");
            let (tuples, stats) = cq::eval_backtrack_with_stats(q, tree);
            Metrics::add(&metrics.backtrack_assignments, stats.assignments);
            span.record_u64("assignments", stats.assignments);
            Ok(QueryOutput::Answer(CqAnswer {
                tuples,
                plan: CqPlan::Backtrack,
            }))
        }
        Strategy::DatalogGround => {
            let prog = match &ir.body {
                IrBody::Program(p) => p,
                _ => unreachable!("datalog strategy planned for a non-datalog IR"),
            };
            let swept = (tree.len() as u64).saturating_mul(prog.size() as u64);
            Metrics::add(&metrics.nodes_swept, swept);
            let mut span = treequery_obs::span("exec.ground_minoux");
            span.record_u64("nodes_swept", swept);
            let set = {
                let _mem = AllocScope::enter("exec.ground_minoux");
                if workers > 1 {
                    super::par::par_datalog_eval_query(prog, tree, workers, metrics)
                } else {
                    datalog::eval_query(prog, tree)
                }
            };
            Ok(QueryOutput::Nodes(sorted_nodes(tree, &set)))
        }
    }
}

fn expect_cq(ir: &QueryIr) -> &cq::Cq {
    match &ir.body {
        IrBody::Cq(q) => q,
        _ => unreachable!("CQ strategy planned for a non-CQ IR"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ir::{lower, Query};
    use crate::plan::planner::{plan_ir, PlannerConfig};
    use crate::plan::stats::TreeStats;
    use treequery_tree::parse_term;

    fn run(q: Query, term: &str) -> (QueryOutput, MetricsSnapshot) {
        let t = parse_term(term).unwrap();
        let ir = lower(&q).unwrap();
        let plan = plan_ir(&ir, &TreeStats::compute(&t), &PlannerConfig::default());
        let metrics = Metrics::default();
        let out = execute(&ir, &plan, &t, &metrics).unwrap();
        (out, metrics.snapshot())
    }

    #[test]
    fn executor_counts_sweep_work() {
        let (out, m) = run(Query::xpath("//a"), "r(a a b)");
        assert_eq!(out.nodes().map(<[_]>::len), Some(2));
        assert!(m.nodes_swept > 0);
        assert_eq!(m.queries_executed, 1);
    }

    #[test]
    fn executor_counts_semijoin_work() {
        let (out, m) = run(
            Query::cq("q(x) :- label(x, a), child(x, y), label(y, b)."),
            "r(a(b) a(c))",
        );
        let answer = out.answer().unwrap();
        assert_eq!(answer.plan, CqPlan::Acyclic);
        assert_eq!(answer.tuples.len(), 1);
        assert_eq!(m.semijoin_passes, 6, "2 passes per atom");
        assert!(m.candidate_nodes > 0);
    }

    #[test]
    fn quiesce_returns_clean_when_reads_agree() {
        let metrics = Metrics::default();
        Metrics::add_lowered(&metrics);
        let snap = metrics.snapshot_quiesced();
        assert!(!snap.torn);
        assert_eq!(snap.quiesce_retries, 0);
        assert_eq!(snap.queries_lowered, 1);
    }

    #[test]
    fn quiesce_reports_retry_count_when_it_settles_late() {
        // Reads disagree twice, then stabilize: the returned snapshot is
        // clean but carries the retry count for degraded-record tagging.
        let mut n = 0u64;
        let snap = super::quiesce(8, || {
            n += 1;
            MetricsSnapshot {
                queries_executed: n.min(3),
                ..MetricsSnapshot::default()
            }
        });
        assert!(!snap.torn);
        assert_eq!(snap.queries_executed, 3);
        assert_eq!(snap.quiesce_retries, 2);
    }

    #[test]
    fn quiesce_flags_torn_on_retry_exhaustion() {
        // A read that changes every time never quiesces: the helper must
        // hand back the last read and say so.
        let mut n = 0u64;
        let snap = super::quiesce(4, || {
            n += 1;
            MetricsSnapshot {
                queries_executed: n,
                ..MetricsSnapshot::default()
            }
        });
        assert!(snap.torn);
        assert_eq!(snap.queries_executed, 5, "last of 1 initial + 4 retries");
        assert_eq!(snap.quiesce_retries, 4);
    }

    /// A forced plan for `strategy` over `ir`.
    fn forced(ir: &QueryIr, strategy: Strategy) -> ExplainedPlan {
        let mut plan = plan_ir(
            ir,
            &TreeStats::compute(&parse_term("r").unwrap()),
            &PlannerConfig::default(),
        );
        plan.strategy = strategy;
        plan.workers = 1;
        plan
    }

    #[test]
    fn every_strategy_keeps_the_scratch_pool_balanced() {
        let t = parse_term("r(a(b c) a(c) b(a(b)) a(b))").unwrap();
        let xpath = lower(&Query::xpath("//a[b]")).unwrap();
        let datalog = lower(&Query::datalog("P(x) :- label(x, b). ?- P.")).unwrap();
        let acyclic = lower(&Query::cq("q(x) :- label(x, a), child(x, y), label(y, b).")).unwrap();
        let cyclic = lower(&Query::cq(
            "q(x) :- child+(x, y), child+(x, z), child+(y, w), child+(z, w).",
        ))
        .unwrap();
        let xprop = lower(&Query::cq("child+(x, y), child+(y, z), child+(x, z)")).unwrap();
        let cases = [
            (&xpath, Strategy::XPathSetAtATime),
            (&xpath, Strategy::XPathReference),
            (&xpath, Strategy::XPathViaDatalog),
            (&xpath, Strategy::XPathViaAcyclicCq),
            (&datalog, Strategy::DatalogGround),
            (&acyclic, Strategy::CqAcyclic),
            (&cyclic, Strategy::CqRewriteUnion(3)),
            (&cyclic, Strategy::CqBacktrack),
            (&xprop, Strategy::CqXProperty(treequery_tree::Order::Pre)),
        ];
        let metrics = Metrics::default();
        // A surplus in the pool exposes the other imbalance too: a kernel
        // that takes a set and drops it would drain the surplus.
        let surplus: Vec<NodeSet> = (0..8)
            .map(|_| treequery_tree::scratch::take_set(0))
            .collect();
        surplus
            .into_iter()
            .for_each(treequery_tree::scratch::put_set);
        for (ir, strategy) in cases {
            let plan = forced(ir, strategy);
            let first = execute(ir, &plan, &t, &metrics).unwrap();
            let depth = treequery_tree::scratch::pooled_sets();
            for _ in 0..10 {
                assert_eq!(execute(ir, &plan, &t, &metrics).unwrap(), first);
            }
            assert_eq!(
                treequery_tree::scratch::pooled_sets(),
                depth,
                "{strategy} unbalanced the scratch pool"
            );
        }
    }

    #[test]
    fn default_sized_plans_fan_out_only_onto_idle_cores() {
        let ir = lower(&Query::cq(
            "q(x) :- child+(x, y), child+(x, z), child+(y, w), child+(z, w).",
        ))
        .unwrap();
        let mut plan = forced(&ir, Strategy::CqRewriteUnion(3));
        plan.workers = 2;
        let cores = machine_cores();
        let metrics = Metrics::default();
        // Every core runs another query: the union declines and says so.
        assert_eq!(granted_workers(&plan, cores, &metrics), 1);
        assert_eq!(metrics.snapshot().parallel_declined_busy, 1);
        // An idle machine grants the plan (capped by the cores).
        assert_eq!(granted_workers(&plan, 0, &metrics), 2.min(cores).max(1));
        // A pinned count is honoured exactly, however busy the machine.
        plan.workers_pinned = true;
        plan.workers = 4;
        assert_eq!(granted_workers(&plan, cores + 8, &metrics), 4);
        // A set-at-a-time plan below three idle cores runs sequentially.
        let mut sweep = forced(&ir, Strategy::XPathSetAtATime);
        sweep.workers = 4;
        assert_eq!(
            granted_workers(&sweep, cores.saturating_sub(2), &metrics),
            1
        );
        let declined = 2 + u64::from(cores < 2);
        assert_eq!(metrics.snapshot().parallel_declined_busy, declined);
    }

    #[test]
    fn plan_cache_hits_and_misses() {
        let t = parse_term("r(a b)").unwrap();
        let ir = lower(&Query::xpath("//a")).unwrap();
        let stats = TreeStats::compute(&t);
        let cache = PlanCache::default();
        let metrics = Metrics::default();
        let mk = || plan_ir(&ir, &stats, &PlannerConfig::default());
        let first = cache.get_or_insert(ir.fingerprint, 7, &metrics, mk);
        let second = cache.get_or_insert(ir.fingerprint, 7, &metrics, mk);
        assert_eq!(*first, *second);
        let other_tree = cache.get_or_insert(ir.fingerprint, 8, &metrics, mk);
        assert_eq!(*first, *other_tree);
        let m = metrics.snapshot();
        assert_eq!(m.plan_cache_hits, 1);
        assert_eq!(m.plan_cache_misses, 2);
        assert_eq!(cache.len(), 2);
    }
}
