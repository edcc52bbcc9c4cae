//! Arc-consistency over trees (Section 6).
//!
//! A pre-valuation Θ assigns each query variable a non-empty node set; it
//! is *arc-consistent* if every unary atom holds everywhere in its set and
//! every binary atom `R(x, y)` is supported in both directions
//! (Definition in Section 6). The unique subset-maximal arc-consistent
//! pre-valuation is computed here in two ways:
//!
//! * [`max_arc_consistent`] — an AC fixpoint over the *implicit* axis
//!   relations using the O(n) image/preimage sweeps (never materializing
//!   quadratic relations); works for arbitrary (also cyclic) queries;
//! * [`full_reduce`] — for acyclic queries, one bottom-up and one top-down
//!   semijoin pass over the join forest (Yannakakis' full reducer), which
//!   already yields the maximal arc-consistent pre-valuation.
//!
//! The literal Horn-SAT construction of Proposition 6.2 (over explicit
//! relations) lives in [`crate::relational`].

use treequery_tree::{cancel, scratch, Axis, NodeSet, Tree};

use crate::ast::{Cq, CqAtom, CqVar};
use crate::graph::JoinForest;

/// A pluggable kernel for whole-set axis images. The semijoin reducers are
/// generic over this trait so executors can swap the sequential O(n)
/// sweeps for a chunked parallel implementation without touching the
/// reduction logic. Implementations must write the exact axis image into
/// `out` (clearing it first); `out` must be a set over `t.len()` nodes.
pub trait AxisSweeper {
    /// Writes `{y | ∃x ∈ s: axis(x, y)}` into `out`.
    fn image_into(&self, axis: Axis, t: &Tree, s: &NodeSet, out: &mut NodeSet);

    /// Writes `{x | ∃y ∈ s: axis(x, y)}` into `out`. Defaults to the image
    /// of the inverse axis.
    fn preimage_into(&self, axis: Axis, t: &Tree, s: &NodeSet, out: &mut NodeSet) {
        self.image_into(axis.inverse(), t, s, out);
    }
}

/// The sequential sweeper: plain [`Axis::image_into`] order sweeps.
#[derive(Clone, Copy, Debug, Default)]
pub struct SeqSweeper;

impl AxisSweeper for SeqSweeper {
    fn image_into(&self, axis: Axis, t: &Tree, s: &NodeSet, out: &mut NodeSet) {
        axis.image_into(t, s, out);
    }
}

/// A binary constraint as used by the propagators: an axis or `<pre`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Rel {
    /// An axis relation.
    Axis(Axis),
    /// `x <pre y`.
    PreLt,
}

impl Rel {
    /// Whether `(x, y)` is in the relation.
    pub(crate) fn holds(
        self,
        t: &Tree,
        x: treequery_tree::NodeId,
        y: treequery_tree::NodeId,
    ) -> bool {
        match self {
            Rel::Axis(a) => a.holds(t, x, y),
            Rel::PreLt => t.pre(x) < t.pre(y),
        }
    }

    /// Image `{y | ∃x ∈ s: rel(x, y)}` in O(n), written into a
    /// caller-owned set over `t.len()` nodes (cleared first).
    pub(crate) fn image_into(
        self,
        t: &Tree,
        s: &NodeSet,
        out: &mut NodeSet,
        sweeper: &(impl AxisSweeper + ?Sized),
    ) {
        match self {
            Rel::Axis(a) => sweeper.image_into(a, t, s, out),
            Rel::PreLt => {
                // Nodes with pre rank greater than the minimum in s.
                out.clear();
                if let Some(min_pre) = s.iter().map(|v| t.pre(v)).min() {
                    for rank in min_pre + 1..t.len() as u32 {
                        out.insert(t.node_at_pre(rank));
                    }
                }
            }
        }
    }

    /// Preimage `{x | ∃y ∈ s: rel(x, y)}` in O(n), written into a
    /// caller-owned set over `t.len()` nodes (cleared first).
    pub(crate) fn preimage_into(
        self,
        t: &Tree,
        s: &NodeSet,
        out: &mut NodeSet,
        sweeper: &(impl AxisSweeper + ?Sized),
    ) {
        match self {
            Rel::Axis(a) => sweeper.preimage_into(a, t, s, out),
            Rel::PreLt => {
                out.clear();
                if let Some(max_pre) = s.iter().map(|v| t.pre(v)).max() {
                    for rank in 0..max_pre {
                        out.insert(t.node_at_pre(rank));
                    }
                }
            }
        }
    }
}

pub(crate) fn atom_rel(atom: &CqAtom) -> Option<(Rel, CqVar, CqVar)> {
    match atom {
        CqAtom::Axis(a, x, y) => Some((Rel::Axis(*a), *x, *y)),
        CqAtom::PreLt(x, y) => Some((Rel::PreLt, *x, *y)),
        CqAtom::Label(..) | CqAtom::Root(..) | CqAtom::Leaf(..) => None,
    }
}

/// Initial candidate sets: full domain filtered by label atoms and by
/// self-loop binary atoms `R(x, x)` (which hold exactly when `R` is
/// reflexive).
///
/// The returned sets (and their container) come from the thread-local
/// scratch pools; recycle them with [`scratch::put_set_vec`] when done to
/// keep steady-state evaluation allocation-free.
pub(crate) fn initial_sets(q: &Cq, t: &Tree) -> Vec<NodeSet> {
    let n = t.len();
    let mut sets = scratch::take_set_vec();
    for _ in 0..q.num_vars() {
        sets.push(scratch::take_full(n));
    }
    let mut filter = scratch::take_set(n);
    for atom in &q.atoms {
        match atom {
            CqAtom::Label(l, x) => {
                filter.clear();
                for &v in t.nodes_with_label_name(l) {
                    filter.insert(v);
                }
                sets[x.index()].intersect_with(&filter);
            }
            CqAtom::Root(x) => {
                filter.clear();
                filter.insert(t.root());
                sets[x.index()].intersect_with(&filter);
            }
            CqAtom::Leaf(x) => {
                filter.clear();
                for v in t.nodes().filter(|&v| t.is_leaf(v)) {
                    filter.insert(v);
                }
                sets[x.index()].intersect_with(&filter);
            }
            CqAtom::Axis(a, x, y) if x == y && !a.is_reflexive() => {
                sets[x.index()].clear();
            }
            CqAtom::PreLt(x, y) if x == y => sets[x.index()].clear(),
            _ => {}
        }
    }
    scratch::put_set(filter);
    sets
}

/// Computes the subset-maximal arc-consistent pre-valuation by AC fixpoint
/// iteration, or `None` if none exists (some variable's set empties).
///
/// Each pass revises every binary atom in both directions with the O(n)
/// image sweeps; passes repeat until a fixpoint. For acyclic queries two
/// passes suffice; for cyclic queries the iteration count is bounded by
/// the total number of removed candidates.
///
/// The returned sets come from the thread-local scratch pools; recycle
/// them with [`scratch::put_set_vec`].
pub fn max_arc_consistent(q: &Cq, t: &Tree) -> Option<Vec<NodeSet>> {
    max_arc_consistent_from(q, t, initial_sets(q, t))
}

/// [`max_arc_consistent`] starting from externally restricted candidate
/// sets (e.g. singletons for the k-ary membership reduction described
/// after Theorem 6.5). The given sets are intersected with the label/
/// self-loop filters before propagation. They must come from the scratch
/// pools (as `initial_sets` does): on `None` they go back there.
pub fn max_arc_consistent_from(q: &Cq, t: &Tree, init: Vec<NodeSet>) -> Option<Vec<NodeSet>> {
    let mut sets = init;
    let filters = initial_sets(q, t);
    for (s, filter) in sets.iter_mut().zip(filters.iter()) {
        s.intersect_with(filter);
    }
    scratch::put_set_vec(filters);
    let rels: Vec<(Rel, CqVar, CqVar)> = q
        .atoms
        .iter()
        .filter_map(atom_rel)
        .filter(|(_, x, y)| x != y)
        .collect();
    let mut buf = scratch::take_set(t.len());
    loop {
        // Cancellation checkpoint per fixpoint round (each round is
        // O(|Q| · n) of sweeps). The sets a cancelled exit leaves are
        // over-approximate; the executor discards them.
        if cancel::cancelled() {
            break;
        }
        let mut changed = false;
        for &(rel, x, y) in &rels {
            rel.image_into(t, &sets[x.index()], &mut buf, &SeqSweeper);
            changed |= sets[y.index()].intersect_with(&buf);
            rel.preimage_into(t, &sets[y.index()], &mut buf, &SeqSweeper);
            changed |= sets[x.index()].intersect_with(&buf);
        }
        if !changed {
            break;
        }
    }
    scratch::put_set(buf);
    // Only variables that occur in some atom must be non-empty; a variable
    // occurring in no atom ranges over the (non-empty) domain.
    for v in q.live_vars() {
        if sets[v.index()].is_empty() {
            scratch::put_set_vec(sets);
            return None;
        }
    }
    Some(sets)
}

/// Yannakakis' full reducer for an acyclic query: one bottom-up and one
/// top-down semijoin pass over `forest`. Equals [`max_arc_consistent`] on
/// acyclic queries but with a guaranteed two passes — `O(|Q| · n)` total.
///
/// The returned sets come from the thread-local scratch pools; recycle
/// them with [`scratch::put_set_vec`] to keep repeated evaluation
/// allocation-free after warm-up.
pub fn full_reduce(q: &Cq, t: &Tree, forest: &JoinForest) -> Option<Vec<NodeSet>> {
    reduce(q, t, forest, true, &SeqSweeper)
}

/// [`full_reduce`] with a caller-chosen axis-image kernel (e.g. a chunked
/// parallel sweeper).
pub fn full_reduce_with(
    q: &Cq,
    t: &Tree,
    forest: &JoinForest,
    sweeper: &(impl AxisSweeper + ?Sized),
) -> Option<Vec<NodeSet>> {
    reduce(q, t, forest, true, sweeper)
}

/// The ablation of [`full_reduce`]: the bottom-up semijoin pass only.
/// Sufficient for the Boolean answer (the roots' sets are exact), but the
/// non-root candidate sets over-approximate — enumeration over them is
/// *not* backtrack-free (experiment E6's ablation).
pub fn bottom_up_reduce(q: &Cq, t: &Tree, forest: &JoinForest) -> Option<Vec<NodeSet>> {
    reduce(q, t, forest, false, &SeqSweeper)
}

fn reduce(
    q: &Cq,
    t: &Tree,
    forest: &JoinForest,
    top_down: bool,
    sweeper: &(impl AxisSweeper + ?Sized),
) -> Option<Vec<NodeSet>> {
    let mut sets = initial_sets(q, t);
    let mut reduced = scratch::take_set(t.len());
    // On every exit path the scratch buffers go back to the pool; on
    // failure the candidate sets do too (the caller never sees them).
    let bail = |sets: Vec<NodeSet>, reduced: NodeSet| -> Option<Vec<NodeSet>> {
        scratch::put_set(reduced);
        scratch::put_set_vec(sets);
        None
    };

    // Bottom-up: children constrain parents.
    for &v in forest.bfs_order.iter().rev() {
        // Checkpoint per semijoin step (one forest edge = a few O(n)
        // sweeps). Skipping the rest leaves over-approximate sets; a
        // cancelled query never reads them.
        if cancel::cancelled() {
            break;
        }
        let Some((u, atom_idxs)) = &forest.parent[v.index()] else {
            continue;
        };
        for &ai in atom_idxs {
            let Some((rel, ax, ay)) = atom_rel(&q.atoms[ai]) else {
                continue;
            };
            // The atom connects u and v; semijoin-reduce u by v.
            if ax == *u && ay == v {
                rel.preimage_into(t, &sets[v.index()], &mut reduced, sweeper);
            } else {
                debug_assert!(ax == v && ay == *u);
                rel.image_into(t, &sets[v.index()], &mut reduced, sweeper);
            }
            sets[u.index()].intersect_with(&reduced);
        }
    }
    for &root in &forest.roots {
        if sets[root.index()].is_empty() {
            return bail(sets, reduced);
        }
    }

    // Top-down: parents constrain children.
    for &v in forest.bfs_order.iter().filter(|_| top_down) {
        if cancel::cancelled() {
            break;
        }
        let Some((u, atom_idxs)) = &forest.parent[v.index()] else {
            continue;
        };
        for &ai in atom_idxs {
            let Some((rel, ax, ay)) = atom_rel(&q.atoms[ai]) else {
                continue;
            };
            if ax == *u && ay == v {
                rel.image_into(t, &sets[u.index()], &mut reduced, sweeper);
            } else {
                rel.preimage_into(t, &sets[u.index()], &mut reduced, sweeper);
            }
            sets[v.index()].intersect_with(&reduced);
        }
        if sets[v.index()].is_empty() {
            return bail(sets, reduced);
        }
    }

    // Isolated live variables (e.g. head-only) must still be non-empty.
    // Iterated directly (with duplicates) rather than via
    // `Cq::live_vars`, whose collected set would allocate per call.
    let live = q
        .atoms
        .iter()
        .flat_map(CqAtom::vars)
        .chain(q.head.iter().copied());
    for v in live {
        if sets[v.index()].is_empty() {
            return bail(sets, reduced);
        }
    }
    scratch::put_set(reduced);
    Some(sets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backtrack::for_each_valuation;
    use crate::parser::parse_cq;
    use treequery_tree::parse_term;

    /// The exact solution-projection sets, from exhaustive backtracking.
    fn solution_projections(q: &Cq, t: &Tree) -> Vec<NodeSet> {
        let mut sets = vec![NodeSet::empty(t.len()); q.num_vars()];
        for_each_valuation(q, t, &mut |assignment| {
            for (i, a) in assignment.iter().enumerate() {
                if let Some(v) = a {
                    sets[i].insert(*v);
                }
            }
            true
        });
        sets
    }

    /// Proposition 6.9: for acyclic queries the maximal arc-consistent
    /// pre-valuation is exactly the per-variable projection of the
    /// solution set.
    #[test]
    fn acyclic_ac_equals_solution_projections() {
        let queries = [
            "label(x, a), child(x, y), label(y, b)",
            "child+(x, y), child+(y, z), label(z, c)",
            "child(x, y), nextsibling(y, z), following(z, w)",
            "label(x, b), child*(x, y)",
        ];
        let trees = ["a(b(c) b(a(c)) c)", "a(a(b(c d) b) b(c))", "a(b c)"];
        for qs in queries {
            let q = parse_cq(qs).unwrap();
            let forest = JoinForest::build(&q).unwrap();
            for ts in trees {
                let t = parse_term(ts).unwrap();
                let expected = solution_projections(&q, &t);
                let sat = expected
                    .iter()
                    .enumerate()
                    .all(|(i, s)| !q.live_vars().contains(&CqVar(i as u32)) || !s.is_empty());
                let ac = max_arc_consistent(&q, &t);
                let fr = full_reduce(&q, &t, &forest);
                match (sat, ac, fr) {
                    (false, None, None) => {}
                    (true, Some(ac), Some(fr)) => {
                        for v in q.live_vars() {
                            assert_eq!(ac[v.index()], expected[v.index()], "AC {qs} on {ts}");
                            assert_eq!(fr[v.index()], expected[v.index()], "FR {qs} on {ts}");
                        }
                    }
                    (s, a, f) => panic!(
                        "disagreement on {qs} / {ts}: sat={s} ac={:?} fr={:?}",
                        a.is_some(),
                        f.is_some()
                    ),
                }
            }
        }
    }

    /// On cyclic queries AC is an over-approximation of the projections
    /// (Example 6.1 shows it can be strict — see crate::relational).
    #[test]
    fn cyclic_ac_over_approximates() {
        let q = parse_cq("child(x, y), child(y, z), child+(x, z)").unwrap();
        let t = parse_term("a(b(c) d)").unwrap();
        let ac = max_arc_consistent(&q, &t).unwrap();
        let expected = solution_projections(&q, &t);
        for v in q.live_vars() {
            assert!(expected[v.index()].is_subset(&ac[v.index()]));
        }
    }

    #[test]
    fn unsatisfiable_label() {
        let q = parse_cq("label(x, zz), child(x, y)").unwrap();
        let t = parse_term("a(b)").unwrap();
        assert!(max_arc_consistent(&q, &t).is_none());
        let forest = JoinForest::build(&q).unwrap();
        assert!(full_reduce(&q, &t, &forest).is_none());
    }

    #[test]
    fn self_loop_atoms() {
        let t = parse_term("a(b)").unwrap();
        // Irreflexive self-loop: unsatisfiable.
        let q = parse_cq("child(x, x)").unwrap();
        assert!(max_arc_consistent(&q, &t).is_none());
        // Reflexive self-loop: trivially satisfied.
        let q2 = parse_cq("child*(x, x)").unwrap();
        assert!(max_arc_consistent(&q2, &t).is_some());
    }

    #[test]
    fn pre_lt_propagation() {
        let q = parse_cq("pre_lt(x, y)").unwrap();
        let t = parse_term("a(b c)").unwrap();
        let ac = max_arc_consistent(&q, &t).unwrap();
        // x can be anything except the last node in pre-order; y anything
        // except the root.
        assert_eq!(ac[0].len(), 2);
        assert_eq!(ac[1].len(), 2);
        assert!(!ac[1].contains(t.root()));
    }
}
