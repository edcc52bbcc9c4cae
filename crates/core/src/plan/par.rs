//! The parallel execution subsystem: pre-order-range partitioned
//! versions of the hot kernels, dispatched on the shared
//! [`WorkerPool`].
//!
//! Every function here is a drop-in replacement for its sequential
//! counterpart with **byte-identical output**:
//!
//! * [`par_image`] / [`par_preimage`] — the `exec.sweep` carry-axis
//!   sweeps, split by output pre-order range; chunk bitsets are ORed, and
//!   OR is commutative, so the merged set equals the sequential
//!   [`Axis::image`] bit for bit (local axes run the sequential image);
//! * [`par_eval_query`] / [`par_select`] / [`par_sources`] — the
//!   set-at-a-time Core XPath evaluator with every axis sweep
//!   parallelized (the bitset intersections are word-ops and stay
//!   sequential);
//! * [`par_datalog_eval_query`] — Theorem 3.2 grounding chunked by
//!   `(rule, node range)` in rule-major, range-ascending task order,
//!   reassembled into a Horn formula byte-identical to the sequential
//!   `ground()` (same rule order, same atom interning order) before one
//!   Minoux solve;
//! * [`par_eval_via_rewrite`] — the Theorem 5.1 rewrite-to-acyclic
//!   union with each part's full-reducer semijoin program run as its own
//!   task (independent join-tree branches), results merged into the same
//!   `BTreeSet` the sequential evaluator builds;
//! * [`par_stack_tree_join`] — the Stack-Tree-Desc structural merge
//!   join chunked by descendant range with stack state stitched at
//!   chunk boundaries (`stack_join_seeds`), chunk outputs concatenated
//!   in chunk order.
//!
//! Determinism is the point: the planner may freely flip a query
//! between sequential and parallel execution without any observable
//! difference except wall time and the `parallel_*` metrics. Each kernel
//! asks [`fan_out`] whether its shape pays at the worker count it was
//! given, and runs its sequential counterpart when it does not.

use std::collections::BTreeSet;

use treequery_cq::rewrite::RewriteError;
use treequery_cq::Cq;
use treequery_datalog::{ground_rule_chunk, GroundAtom, Program};
use treequery_storage::{stack_tree_join_into, stack_tree_join_resumed_into, JoinSeedSet};
use treequery_tree::{
    incoming_carries_in_place, pre_range_at, pre_range_count, pre_ranges, scratch, Axis, NodeId,
    NodeSet, Tree,
};
use treequery_xpath::{Path, Qual};

use crate::plan::exec::Metrics;
use crate::plan::fanout::{fan_out, Kernel};
use crate::plan::pool::WorkerPool;

/// Boxes a closure for [`WorkerPool::run_scoped`].
type ScopedTask<'env, T> = Box<dyn FnOnce() -> T + Send + 'env>;

/// One grounding chunk: the ground rules (head, body) a rule produced
/// over one pre-order range.
type GroundChunk = Vec<(GroundAtom, Vec<GroundAtom>)>;

fn note_kernel(metrics: &Metrics, chunks: usize) {
    use std::sync::atomic::Ordering;
    metrics.parallel_kernels.fetch_add(1, Ordering::Relaxed);
    metrics
        .parallel_chunks
        .fetch_add(chunks as u64, Ordering::Relaxed);
}

/// Hands each [`WorkerPool::run_for`] chunk exclusive `&mut` access to
/// its own slot of a caller-owned slice, by raw pointer (the borrow
/// checker cannot see the chunk-index disjointness).
struct SyncSlice<T>(*mut T);

impl<T> SyncSlice<T> {
    fn new(v: &mut [T]) -> Self {
        Self(v.as_mut_ptr())
    }

    /// # Safety
    /// Callers must access disjoint indexes from concurrent threads, and
    /// `i` must be in bounds of the slice `new` was given.
    #[allow(clippy::mut_from_ref)]
    unsafe fn get(&self, i: usize) -> &mut T {
        unsafe { &mut *self.0.add(i) }
    }
}

// SAFETY: only usable via `get`, whose contract requires disjoint slots.
unsafe impl<T: Send> Sync for SyncSlice<T> {}

/// Parallel [`Axis::image_into`]: identical output, computed as chunked
/// pre-order-range slices claimed off the pool's allocation-free
/// parallel for and ORed together in chunk order. All working sets come
/// from the caller thread's scratch pools — never from worker
/// thread-locals — so the allocation profile is independent of how
/// chunks land on workers, and a warmed-up call allocates nothing.
/// Runs the sequential sweep when [`fan_out`] says the axis's kernel
/// does not pay at `workers` (every local axis; a carry axis below three
/// workers) and for tiny trees.
pub fn par_image_into(
    axis: Axis,
    t: &Tree,
    s: &NodeSet,
    workers: usize,
    metrics: &Metrics,
    out: &mut NodeSet,
) {
    let n = t.len();
    let workers = fan_out(Kernel::of_axis(axis), workers, None).workers();
    let chunks = pre_range_count(n, workers);
    if chunks <= 1 {
        axis.image_into(t, s, out);
        return;
    }
    let pool = WorkerPool::global();
    // Phase 1: each range's carry contribution, in parallel; a cheap
    // sequential in-place fold then yields the carry entering each range.
    // Pooling this phase too matters: the carry scan costs about as much
    // as the image scan, so leaving it sequential would cap the speedup
    // at 2× (Amdahl).
    let mut carries = scratch::take_carries();
    carries.resize(chunks, axis.carry_identity());
    note_kernel(metrics, chunks);
    {
        let slots = SyncSlice::new(&mut carries);
        pool.run_for(workers, chunks, &|i| {
            let r = pre_range_at(n, chunks, i);
            // SAFETY: chunk i writes slot i only.
            *unsafe { slots.get(i) } = axis.sweep_carry(t, s, r);
        });
    }
    incoming_carries_in_place(axis, &mut carries);
    // Phase 2: each range's slice of the image, written into per-chunk
    // sets taken from the caller's scratch pool.
    note_kernel(metrics, chunks);
    let mut outs = scratch::take_set_vec();
    for _ in 0..chunks {
        outs.push(scratch::take_set(n));
    }
    {
        let carries = &carries;
        let out_slots = SyncSlice::new(&mut outs);
        pool.run_for(workers, chunks, &|i| {
            let r = pre_range_at(n, chunks, i);
            let mut span = treequery_obs::span("exec.sweep.chunk");
            span.record_u64("nodes", u64::from(r.end - r.start));
            // SAFETY: chunk i writes slot i only.
            axis.image_range_into(t, s, r, carries[i], unsafe { out_slots.get(i) });
        });
    }
    out.clear();
    for slice in outs.iter() {
        out.union_with(slice);
    }
    scratch::put_set_vec(outs);
    scratch::put_carries(carries);
}

/// Parallel [`Axis::image`]: [`par_image_into`] returning a pooled set
/// (recycle with [`scratch::put_set`]).
pub fn par_image(axis: Axis, t: &Tree, s: &NodeSet, workers: usize, metrics: &Metrics) -> NodeSet {
    let mut out = scratch::take_set(t.len());
    par_image_into(axis, t, s, workers, metrics, &mut out);
    out
}

/// Parallel [`Axis::preimage_into`]: the parallel image of the inverse.
pub fn par_preimage_into(
    axis: Axis,
    t: &Tree,
    s: &NodeSet,
    workers: usize,
    metrics: &Metrics,
    out: &mut NodeSet,
) {
    par_image_into(axis.inverse(), t, s, workers, metrics, out);
}

/// Parallel [`Axis::preimage`]: returns a pooled set.
pub fn par_preimage(
    axis: Axis,
    t: &Tree,
    s: &NodeSet,
    workers: usize,
    metrics: &Metrics,
) -> NodeSet {
    par_image(axis.inverse(), t, s, workers, metrics)
}

/// An [`AxisSweeper`](treequery_cq::AxisSweeper) that runs every axis
/// image of the full reducer's semijoin passes as a chunked parallel
/// sweep on the shared pool.
pub struct PoolSweeper<'m> {
    /// Worker threads per sweep.
    pub workers: usize,
    /// Executor metrics receiving kernel/chunk counts.
    pub metrics: &'m Metrics,
}

impl treequery_cq::AxisSweeper for PoolSweeper<'_> {
    fn image_into(&self, axis: Axis, t: &Tree, s: &NodeSet, out: &mut NodeSet) {
        par_image_into(axis, t, s, self.workers, self.metrics, out);
    }
}

// ---------------------------------------------------------------------
// The set-at-a-time Core XPath evaluator, with parallel axis sweeps.
// Structure mirrors `treequery_xpath::eval` exactly; only
// `Axis::image`/`Axis::preimage` are swapped for the pooled versions.
// ---------------------------------------------------------------------

fn qual_nodes(q: &Qual, t: &Tree, workers: usize, metrics: &Metrics) -> NodeSet {
    match q {
        Qual::Label(l) => {
            let mut s = scratch::take_set(t.len());
            for &v in t.nodes_with_label_name(l) {
                s.insert(v);
            }
            s
        }
        Qual::Path(p) => {
            let full = scratch::take_full(t.len());
            let out = par_sources(p, t, &full, workers, metrics);
            scratch::put_set(full);
            out
        }
        Qual::And(a, b) => {
            let mut s = qual_nodes(a, t, workers, metrics);
            let other = qual_nodes(b, t, workers, metrics);
            s.intersect_with(&other);
            scratch::put_set(other);
            s
        }
        Qual::Or(a, b) => {
            let mut s = qual_nodes(a, t, workers, metrics);
            let other = qual_nodes(b, t, workers, metrics);
            s.union_with(&other);
            scratch::put_set(other);
            s
        }
        Qual::Not(inner) => {
            let mut s = qual_nodes(inner, t, workers, metrics);
            s.complement();
            s
        }
    }
}

fn step_filter(quals: &[Qual], t: &Tree, workers: usize, metrics: &Metrics) -> NodeSet {
    let mut s = scratch::take_full(t.len());
    for q in quals {
        let qn = qual_nodes(q, t, workers, metrics);
        s.intersect_with(&qn);
        scratch::put_set(qn);
    }
    s
}

/// Parallel [`treequery_xpath::select`]: identical output, as a pooled
/// set (recycle with [`scratch::put_set`]).
pub fn par_select(
    p: &Path,
    t: &Tree,
    from: &NodeSet,
    workers: usize,
    metrics: &Metrics,
) -> NodeSet {
    match p {
        Path::Step { axis, quals } => {
            let mut img = scratch::take_set(t.len());
            par_image_into(*axis, t, from, workers, metrics, &mut img);
            let filter = step_filter(quals, t, workers, metrics);
            img.intersect_with(&filter);
            scratch::put_set(filter);
            img
        }
        Path::Seq(p1, p2) => {
            let mid = par_select(p1, t, from, workers, metrics);
            let out = par_select(p2, t, &mid, workers, metrics);
            scratch::put_set(mid);
            out
        }
        Path::Union(p1, p2) => {
            let mut s = par_select(p1, t, from, workers, metrics);
            let other = par_select(p2, t, from, workers, metrics);
            s.union_with(&other);
            scratch::put_set(other);
            s
        }
    }
}

/// Parallel [`treequery_xpath::sources`]: identical output, as a pooled
/// set.
pub fn par_sources(
    p: &Path,
    t: &Tree,
    targets: &NodeSet,
    workers: usize,
    metrics: &Metrics,
) -> NodeSet {
    match p {
        Path::Step { axis, quals } => {
            let mut tgt = scratch::take_set(t.len());
            tgt.copy_from(targets);
            let filter = step_filter(quals, t, workers, metrics);
            tgt.intersect_with(&filter);
            scratch::put_set(filter);
            let mut out = scratch::take_set(t.len());
            par_preimage_into(*axis, t, &tgt, workers, metrics, &mut out);
            scratch::put_set(tgt);
            out
        }
        Path::Seq(p1, p2) => {
            let mid = par_sources(p2, t, targets, workers, metrics);
            let out = par_sources(p1, t, &mid, workers, metrics);
            scratch::put_set(mid);
            out
        }
        Path::Union(p1, p2) => {
            let mut s = par_sources(p1, t, targets, workers, metrics);
            let other = par_sources(p2, t, targets, workers, metrics);
            s.union_with(&other);
            scratch::put_set(other);
            s
        }
    }
}

/// Parallel [`treequery_xpath::eval_query`]: identical output (the same
/// bits in the same [`NodeSet`]), with every axis sweep running as
/// pre-order-range chunks on the shared pool. Returns a pooled set.
pub fn par_eval_query(p: &Path, t: &Tree, workers: usize, metrics: &Metrics) -> NodeSet {
    match p {
        Path::Step { axis, quals } => {
            let mut out = match axis {
                Axis::Child => {
                    let mut s = scratch::take_set(t.len());
                    s.insert(t.root());
                    s
                }
                Axis::Descendant | Axis::DescendantOrSelf => scratch::take_full(t.len()),
                _ => scratch::take_set(t.len()),
            };
            let filter = step_filter(quals, t, workers, metrics);
            out.intersect_with(&filter);
            scratch::put_set(filter);
            out
        }
        Path::Seq(p1, p2) => {
            let first = par_eval_query(p1, t, workers, metrics);
            let out = par_select(p2, t, &first, workers, metrics);
            scratch::put_set(first);
            out
        }
        Path::Union(p1, p2) => {
            let mut s = par_eval_query(p1, t, workers, metrics);
            let other = par_eval_query(p2, t, workers, metrics);
            s.union_with(&other);
            scratch::put_set(other);
            s
        }
    }
}

/// Parallel Theorem 3.2 pipeline: grounds `prog` in `(rule, node-range)`
/// chunks on the pool, reassembles a Horn formula **byte-identical** to
/// the sequential `ground()` (tasks are submitted rule-major with
/// ascending ranges and results consumed in submission order, and atom
/// interning is bodies-before-head per ground rule, exactly like the
/// sequential grounder), then runs one Minoux solve and extracts the
/// query predicate — the same [`NodeSet`] `datalog::eval_query` returns.
/// Below the grounding kernel's break-even worker count it runs
/// `datalog::eval_query` itself.
pub fn par_datalog_eval_query(
    prog: &Program,
    t: &Tree,
    workers: usize,
    metrics: &Metrics,
) -> NodeSet {
    let workers = fan_out(Kernel::Grounding, workers, None).workers();
    if workers <= 1 {
        return treequery_datalog::eval_query(prog, t);
    }
    let q = prog.query.expect("program has no query predicate");
    let n = t.len();
    let ranges = pre_ranges(n, workers);
    let mut tasks: Vec<ScopedTask<'_, GroundChunk>> = Vec::new();
    for rule in &prog.rules {
        for r in &ranges {
            let r = r.clone();
            tasks.push(Box::new(move || {
                let mut span = treequery_obs::span("exec.ground_chunk");
                span.record_u64("nodes", u64::from(r.end - r.start));
                ground_rule_chunk(rule, t, r)
            }));
        }
    }
    if tasks.len() > 1 {
        note_kernel(metrics, tasks.len());
    }
    let chunks = WorkerPool::global().run_scoped(workers, tasks);
    let (formula, atoms) = treequery_hornsat::assemble_ground_chunks(chunks);
    let solution = formula.solve();
    let mut out = NodeSet::empty(n);
    for (var, &(pred, node)) in atoms.iter() {
        if pred == q && solution.is_true(var) {
            out.insert(node);
        }
    }
    out
}

/// Parallel Theorem 5.1 evaluation: rewrites `q` to a union of acyclic
/// queries once, then evaluates each part (its own full-reducer semijoin
/// program over its join tree) as an independent pool task. Parts are
/// merged into a `BTreeSet` in part order; set union is order-blind, so
/// the answer equals the sequential `cq::rewrite::eval_via_rewrite`.
pub fn par_eval_via_rewrite(
    q: &Cq,
    t: &Tree,
    workers: usize,
    metrics: &Metrics,
) -> Result<BTreeSet<Vec<NodeId>>, RewriteError> {
    let workers = fan_out(Kernel::UnionParts, workers, None).workers();
    if workers <= 1 {
        return treequery_cq::rewrite::eval_via_rewrite(q, t);
    }
    let (union, _) = treequery_cq::rewrite_to_acyclic(q)?;
    let tasks: Vec<ScopedTask<'_, BTreeSet<Vec<NodeId>>>> = union
        .iter()
        .map(|part| {
            Box::new(move || {
                let _span = treequery_obs::span("exec.union.part");
                treequery_cq::eval_acyclic(part, t).expect("rewritten queries are acyclic")
            }) as ScopedTask<'_, _>
        })
        .collect();
    if tasks.len() > 1 {
        note_kernel(metrics, tasks.len());
    }
    let parts = WorkerPool::global().run_scoped(workers, tasks);
    let mut out = BTreeSet::new();
    for part in parts {
        out.extend(part);
    }
    Ok(out)
}

/// Reusable working state for [`par_stack_tree_join_into`]: the
/// flattened seed set plus per-chunk stacks and output staging. A warmed
/// instance makes repeated joins of same-shaped inputs allocation-free
/// (beyond amortized first-time output growth).
#[derive(Default)]
pub struct ParJoinScratch {
    seeds: JoinSeedSet,
    stacks: Vec<Vec<(u32, u32)>>,
    outs: Vec<Vec<(u32, u32)>>,
}

impl ParJoinScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Parallel Stack-Tree-Desc join writing into caller-owned buffers:
/// descendant chunks with stitched stack seeds run on the pool's
/// allocation-free parallel for, each chunk writing its own slot of the
/// scratch workspace, outputs concatenated into `out` (cleared first) in
/// chunk order — byte-identical to the sequential join. Small inputs run
/// sequentially (still through the scratch buffers).
pub fn par_stack_tree_join_into(
    ancestors: &[(u32, u32)],
    descendants: &[(u32, u32)],
    workers: usize,
    metrics: &Metrics,
    ws: &mut ParJoinScratch,
    out: &mut Vec<(u32, u32)>,
) {
    let sequential = workers <= 1 || descendants.len() < 2;
    if !sequential {
        ws.seeds.build(ancestors, descendants, workers);
    }
    if sequential || ws.seeds.len() <= 1 {
        if ws.stacks.is_empty() {
            ws.stacks.push(Vec::new());
        }
        stack_tree_join_into(ancestors, descendants, &mut ws.stacks[0], out);
        return;
    }
    let chunks = ws.seeds.len();
    while ws.stacks.len() < chunks {
        ws.stacks.push(Vec::new());
    }
    while ws.outs.len() < chunks {
        ws.outs.push(Vec::new());
    }
    note_kernel(metrics, chunks);
    {
        let seeds = &ws.seeds;
        let stack_slots = SyncSlice::new(&mut ws.stacks[..chunks]);
        let out_slots = SyncSlice::new(&mut ws.outs[..chunks]);
        WorkerPool::global().run_for(workers, chunks, &|i| {
            let range = seeds.range(i);
            let mut span = treequery_obs::span("exec.join.chunk");
            span.record_u64("descendants", (range.end - range.start) as u64);
            // SAFETY: chunk i writes slots i only.
            stack_tree_join_resumed_into(
                ancestors,
                &descendants[range],
                seeds.next_ancestor(i),
                seeds.stack(i),
                unsafe { stack_slots.get(i) },
                unsafe { out_slots.get(i) },
            );
        });
    }
    out.clear();
    for o in &ws.outs[..chunks] {
        out.extend_from_slice(o);
    }
}

/// Parallel Stack-Tree-Desc join: [`par_stack_tree_join_into`] with
/// one-shot buffers. Byte-identical to the sequential
/// [`treequery_storage::stack_tree_join`].
pub fn par_stack_tree_join(
    ancestors: &[(u32, u32)],
    descendants: &[(u32, u32)],
    workers: usize,
    metrics: &Metrics,
) -> Vec<(u32, u32)> {
    let mut ws = ParJoinScratch::new();
    let mut out = Vec::new();
    par_stack_tree_join_into(ancestors, descendants, workers, metrics, &mut ws, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use treequery_tree::{parse_term, random_recursive_tree};

    fn metrics() -> Metrics {
        Metrics::default()
    }

    #[test]
    fn par_image_matches_sequential_for_every_axis() {
        let mut rng = StdRng::seed_from_u64(77);
        for n in [1usize, 37, 200] {
            let t = random_recursive_tree(&mut rng, n, &["a", "b", "c"]);
            let s = NodeSet::from_iter(t.len(), t.nodes().filter(|v| v.0 % 3 != 1));
            let m = metrics();
            for axis in Axis::ALL {
                for workers in [1usize, 2, 8] {
                    assert_eq!(
                        par_image(axis, &t, &s, workers, &m),
                        axis.image(&t, &s),
                        "{axis} with {workers} workers on {n} nodes"
                    );
                }
            }
        }
    }

    #[test]
    fn par_xpath_matches_sequential_evaluator() {
        let mut rng = StdRng::seed_from_u64(78);
        let queries = [
            "//a[b]/c",
            "//a[not(b or c)]",
            "//b/ancestor::a[following-sibling::c]",
            "//a//b[not(parent::a)]",
            "//a[following::c] | //c/preceding::a",
        ];
        for _ in 0..5 {
            let t = random_recursive_tree(&mut rng, 120, &["a", "b", "c", "r"]);
            let m = metrics();
            for qs in queries {
                let p = treequery_xpath::parse_xpath(qs).unwrap();
                let seq = treequery_xpath::eval_query(&p, &t);
                for workers in [1usize, 2, 8] {
                    assert_eq!(
                        par_eval_query(&p, &t, workers, &m),
                        seq,
                        "{qs} with {workers} workers"
                    );
                }
            }
        }
    }

    #[test]
    fn par_datalog_matches_sequential_eval_query() {
        let progs = [
            "Q(x) :- label(x, a).\n?- Q.",
            "Q(x) :- P(y), firstchild(x, y).\nP(x) :- leaf(x).\n?- Q.",
            "Q(x) :- label(x, b), child(y, x), P0(y).\nP0(y) :- label(y, a).\n?- Q.",
        ];
        let mut rng = StdRng::seed_from_u64(79);
        let t = random_recursive_tree(&mut rng, 90, &["a", "b"]);
        let m = metrics();
        for src in progs {
            let prog = treequery_datalog::parse_program(src).unwrap();
            let seq = treequery_datalog::eval_query(&prog, &t);
            for workers in [1usize, 2, 8] {
                assert_eq!(
                    par_datalog_eval_query(&prog, &t, workers, &m),
                    seq,
                    "{src} with {workers} workers"
                );
            }
        }
    }

    #[test]
    fn par_join_is_byte_identical_and_counts_kernels() {
        let mut rng = StdRng::seed_from_u64(80);
        let t = random_recursive_tree(&mut rng, 300, &["a", "b"]);
        let x = treequery_storage::Xasr::from_tree(&t);
        let la = x.label_list("a");
        let lb = x.label_list("b");
        let seq = treequery_storage::stack_tree_join(la, lb);
        let m = metrics();
        for workers in [1usize, 2, 8] {
            assert_eq!(par_stack_tree_join(la, lb, workers, &m), seq);
        }
        let snap = m.snapshot();
        assert!(snap.parallel_kernels >= 2, "workers 2 and 8 dispatched");
        assert!(snap.parallel_chunks > snap.parallel_kernels);
    }

    #[test]
    fn par_rewrite_union_matches_sequential() {
        let q = treequery_cq::parse_cq("q(x, y) :- label(x, a), label(y, b), following(x, y).")
            .unwrap();
        let t = parse_term("r(a(b c) b(a(c) c) a b)").unwrap();
        let m = metrics();
        let seq = treequery_cq::rewrite::eval_via_rewrite(&q, &t).unwrap();
        for workers in [1usize, 2, 8] {
            let par = par_eval_via_rewrite(&q, &t, workers, &m).unwrap();
            assert_eq!(par, seq, "{workers} workers");
        }
    }
}
