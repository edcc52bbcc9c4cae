//! Evaluation of monadic datalog over trees (Theorem 3.2), plus the
//! semi-naive delta pass that keeps a program's model maintained across
//! tree edits ([`IncrementalEval`]).

use std::collections::VecDeque;

use treequery_tree::{EditDelta, EditKind, EditOp, NodeId, NodeSet, Tree};

use crate::ast::{BodyAtom, PredId, Program, UnaryRef, VarId};
use crate::ground::{ground, AtomNumbering, GroundAtom};
use crate::matcher::{for_each_match, for_each_match_pinned};

/// Evaluates a program: returns the extension of every intensional
/// predicate, indexed by `PredId`.
///
/// Implementation per the paper: ground the program over the tree
/// ([`ground`]) and compute the minimal model with Minoux's linear-time
/// algorithm. For TMNF programs this runs in `O(|P| · |Dom|)` total.
pub fn eval(prog: &Program, tree: &Tree) -> Vec<NodeSet> {
    let (solution, atoms) = solve(prog, tree);
    (0..prog.num_preds() as u32)
        .map(|p| atoms.extension(solution.truth(), PredId(p)))
        .collect()
}

/// Evaluates the program's distinguished query predicate.
///
/// # Panics
/// Panics if the program has no query predicate.
pub fn eval_query(prog: &Program, tree: &Tree) -> NodeSet {
    let q = prog.query.expect("program has no query predicate");
    let (solution, atoms) = solve(prog, tree);
    atoms.extension(solution.truth(), q)
}

/// Grounds `prog` over `tree` (under a `datalog.ground` span) and solves
/// the formula.
fn solve(prog: &Program, tree: &Tree) -> (treequery_hornsat::Solution, AtomNumbering) {
    let (formula, atoms) = {
        let mut span = treequery_obs::span("datalog.ground");
        let _mem = treequery_obs::alloc::AllocScope::enter("datalog.ground");
        span.record_u64("program_size", prog.size() as u64);
        span.record_u64("nodes", tree.len() as u64);
        let grounded = ground(prog, tree);
        span.record_u64("ground_size", grounded.0.size() as u64);
        grounded
    };
    (formula.solve(), atoms)
}

/// Naive fixpoint evaluation: repeats immediate-consequence passes until
/// stable. Used as a differential-testing oracle for [`eval`].
pub fn eval_naive(prog: &Program, tree: &Tree) -> Vec<NodeSet> {
    let mut extensions = vec![NodeSet::empty(tree.len()); prog.num_preds()];
    loop {
        // Cancellation checkpoint per fixpoint round (each round is
        // O(|P| · n)); a cancelled exit returns the partial model, which
        // the caller discards.
        if treequery_tree::cancel::cancelled() {
            return extensions;
        }
        let mut changed = false;
        for rule in &prog.rules {
            let intensional: Vec<(PredId, u32)> = rule
                .body
                .iter()
                .filter_map(|a| match a {
                    BodyAtom::Unary(UnaryRef::Pred(p), v) => Some((*p, v.0)),
                    _ => None,
                })
                .collect();
            let mut derived = Vec::new();
            for_each_match(rule, tree, &mut |assignment| {
                if intensional
                    .iter()
                    .all(|&(p, v)| extensions[p.index()].contains(assignment[v as usize]))
                {
                    derived.push(assignment[rule.head_var.index()]);
                }
            });
            for node in derived {
                changed |= extensions[rule.head.index()].insert(node);
            }
        }
        if !changed {
            return extensions;
        }
    }
}

/// A datalog program's model, maintained incrementally across tree edits
/// by a DRed-style delta pass (overdelete on the pre-edit tree, then
/// semi-naive rederivation on the post-edit tree).
///
/// The incremental path covers relabels and leaf insertions — the edits
/// whose extensional change is confined to the edit site and its
/// structural neighbors. Subtree deletions compact node ids and are
/// handled by a full recompute (the documented fallback; a delete is
/// already O(n) on the index side). Refreezes change no facts at all and
/// cost nothing here.
///
/// The pass works per edit in two phases around the tree mutation:
///
/// 1. [`prepare_edit`](Self::prepare_edit) — **before** the tree is
///    edited. Every match that the edit invalidates touches a node whose
///    extensional facts change (the relabeled node; the insertion
///    parent and the two siblings the new leaf splices between), so
///    pinned matches at those nodes on the *old* tree overapproximate
///    the invalidated derivations. Their heads are overdeleted and the
///    deletion propagated through the rules (classic DRed
///    overdeletion — deleting too much is sound, rederivation
///    recovers).
/// 2. [`commit_edit`](Self::commit_edit) — **after** the tree is
///    edited. Each overdeleted fact is rederived if any match with that
///    head still fires on the new tree; then new facts are seeded from
///    pinned matches at the edit site and propagated semi-naively, each
///    inserted fact probing only the rules it can feed.
///
/// For connected rule bodies every pinned probe costs O(1) traversals,
/// so the whole pass is O(|change| · |P|) — flat in |D|, which
/// experiment E24 measures. [`work`](Self::work) counts the probes for
/// the debug-ladder bound test.
pub struct IncrementalEval {
    prog: Program,
    truths: Vec<NodeSet>,
    work: u64,
}

/// The overdeletion carried from [`IncrementalEval::prepare_edit`] to
/// [`IncrementalEval::commit_edit`].
pub enum PendingEdit {
    /// Facts overdeleted (already removed from the model), to attempt
    /// rederivation on the post-edit tree.
    Patch(Vec<GroundAtom>),
    /// The edit is out of the incremental fragment: recompute on commit.
    Rebuild,
}

impl IncrementalEval {
    /// Evaluates `prog` on `tree` and takes ownership of the model.
    pub fn new(prog: Program, tree: &Tree) -> IncrementalEval {
        let truths = eval(&prog, tree);
        IncrementalEval {
            prog,
            truths,
            work: 0,
        }
    }

    /// The maintained extension of every intensional predicate.
    pub fn extensions(&self) -> &[NodeSet] {
        &self.truths
    }

    /// The maintained extension of the query predicate.
    ///
    /// # Panics
    /// Panics if the program has no query predicate.
    pub fn query(&self) -> &NodeSet {
        let q = self.prog.query.expect("program has no query predicate");
        &self.truths[q.index()]
    }

    /// Cumulative maintenance work: pinned-match probes processed by the
    /// delta passes, plus `|P| · |Dom|` for every full recompute. The
    /// E24 ladder asserts this stays flat in |D| for relabel edits.
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Discards the model and re-evaluates from scratch.
    pub fn full_recompute(&mut self, tree: &Tree) {
        self.truths = eval(&self.prog, tree);
        self.work += (self.prog.size() * tree.len()) as u64;
    }

    /// Phase 1, on the tree as it is *before* applying `op`: DRed
    /// overdeletion of every fact whose derivation the edit can
    /// invalidate.
    pub fn prepare_edit(&mut self, old_tree: &Tree, op: &EditOp) -> PendingEdit {
        let Some(op) = op.normalize(old_tree) else {
            return PendingEdit::Patch(Vec::new());
        };
        let dirty: Vec<NodeId> = match &op {
            EditOp::DeleteSubtree { .. } => return PendingEdit::Rebuild,
            EditOp::Relabel { pre, .. } => vec![old_tree.node_at_pre(*pre)],
            EditOp::InsertLeaf {
                parent_pre,
                child_idx,
                ..
            } => {
                // The leaf does not exist yet; the facts that change on
                // the old tree live at the parent (leaf, child edges)
                // and the two siblings being spliced apart.
                let p = old_tree.node_at_pre(*parent_pre);
                let mut d = vec![p];
                if let Some(i) = (*child_idx as usize).checked_sub(1) {
                    d.extend(old_tree.children(p).nth(i));
                }
                d.extend(old_tree.children(p).nth(*child_idx as usize));
                d
            }
        };

        let mut deleted: Vec<GroundAtom> = Vec::new();
        let mut queue: VecDeque<GroundAtom> = VecDeque::new();
        // Seed: heads of matches binding any variable to a dirty node.
        for rule in &self.prog.rules {
            for var in (0..rule.num_vars).map(VarId) {
                for &d in &dirty {
                    let head_var = rule.head_var;
                    let head = rule.head;
                    let (truths, work) = (&mut self.truths, &mut self.work);
                    for_each_match_pinned(rule, old_tree, var, d, &mut |asg| {
                        *work += 1;
                        let fact = (head, asg[head_var.index()]);
                        if truths[fact.0.index()].remove(fact.1) {
                            deleted.push(fact);
                            queue.push_back(fact);
                        }
                    });
                }
            }
        }
        // Propagate: a deleted fact may have supported others.
        while let Some((pred, node)) = queue.pop_front() {
            for rule in &self.prog.rules {
                for atom in &rule.body {
                    let BodyAtom::Unary(UnaryRef::Pred(p), var) = atom else {
                        continue;
                    };
                    if *p != pred {
                        continue;
                    }
                    let head_var = rule.head_var;
                    let head = rule.head;
                    let (truths, work) = (&mut self.truths, &mut self.work);
                    for_each_match_pinned(rule, old_tree, *var, node, &mut |asg| {
                        *work += 1;
                        let fact = (head, asg[head_var.index()]);
                        if truths[fact.0.index()].remove(fact.1) {
                            deleted.push(fact);
                            queue.push_back(fact);
                        }
                    });
                }
            }
        }
        PendingEdit::Patch(deleted)
    }

    /// Phase 2, on the tree *after* the edit: rederive what survives and
    /// propagate the new facts semi-naively.
    pub fn commit_edit(&mut self, new_tree: &Tree, delta: &EditDelta, pending: PendingEdit) {
        let PendingEdit::Patch(deleted) = pending else {
            self.full_recompute(new_tree);
            return;
        };
        if delta.refroze {
            // A refreeze renumbers nothing and changes no facts, but be
            // conservative about any future widening of its scope.
            self.full_recompute(new_tree);
            return;
        }
        if delta.kind == EditKind::Insert {
            for set in &mut self.truths {
                set.grow(new_tree.len());
            }
        }

        let mut queue: VecDeque<GroundAtom> = VecDeque::new();
        // Seed A: facts newly derivable at the edit site.
        let mut dirty: Vec<NodeId> = Vec::new();
        if let Some(v) = delta.node {
            dirty.push(v);
            if delta.kind == EditKind::Insert {
                dirty.extend(new_tree.parent(v));
                dirty.extend(new_tree.prev_sibling(v));
                dirty.extend(new_tree.next_sibling(v));
            }
        }
        for i in 0..self.prog.rules.len() {
            for var in (0..self.prog.rules[i].num_vars).map(VarId) {
                for &d in &dirty {
                    self.try_insert_pinned(new_tree, i, var, d, &mut queue);
                }
            }
        }
        // Seed B: rederive overdeleted facts still supported.
        for &(pred, node) in &deleted {
            if self.truths[pred.index()].contains(node) {
                continue;
            }
            for i in 0..self.prog.rules.len() {
                if self.prog.rules[i].head != pred {
                    continue;
                }
                let head_var = self.prog.rules[i].head_var;
                self.try_insert_pinned(new_tree, i, head_var, node, &mut queue);
            }
        }
        // Propagate insertions semi-naively.
        while let Some((pred, node)) = queue.pop_front() {
            for i in 0..self.prog.rules.len() {
                let vars: Vec<VarId> = self.prog.rules[i]
                    .body
                    .iter()
                    .filter_map(|a| match a {
                        BodyAtom::Unary(UnaryRef::Pred(p), v) if *p == pred => Some(*v),
                        _ => None,
                    })
                    .collect();
                for var in vars {
                    self.try_insert_pinned(new_tree, i, var, node, &mut queue);
                }
            }
        }
    }

    /// Pinned matches of rule `i` with `var = node` on `tree`: for each
    /// match whose intensional body holds in the current model, inserts
    /// the head fact and enqueues it if new.
    fn try_insert_pinned(
        &mut self,
        tree: &Tree,
        i: usize,
        var: VarId,
        node: NodeId,
        queue: &mut VecDeque<GroundAtom>,
    ) {
        let rule = &self.prog.rules[i];
        let intensional: Vec<(PredId, VarId)> = rule
            .body
            .iter()
            .filter_map(|a| match a {
                BodyAtom::Unary(UnaryRef::Pred(p), v) => Some((*p, *v)),
                _ => None,
            })
            .collect();
        let head_var = rule.head_var;
        let head = rule.head;
        let (truths, work) = (&mut self.truths, &mut self.work);
        for_each_match_pinned(rule, tree, var, node, &mut |asg| {
            *work += 1;
            if intensional
                .iter()
                .all(|&(p, v)| truths[p.index()].contains(asg[v.index()]))
            {
                let fact = (head, asg[head_var.index()]);
                if truths[fact.0.index()].insert(fact.1) {
                    queue.push_back(fact);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use treequery_tree::{parse_term, Axis, NodeSet};

    /// Example 3.1. Note an erratum in the paper: the prose says the
    /// program "computes those nodes that have an *ancestor* labeled L",
    /// but with the paper's own definitions (FirstChild(x, y): y is the
    /// first child of x; NextSibling(x, y): y is the right neighbor of x)
    /// the rules derive P at every node with a proper *descendant* labeled
    /// L — P0 flows from an L node leftward through its sibling chain and
    /// upward through FirstChild. We test the formally correct semantics.
    const EXAMPLE_3_1: &str = "P0(x) :- label(x, L).
         P0(x0) :- nextsibling(x0, x), P0(x).
         P(x0) :- firstchild(x0, x), P0(x).
         P0(x) :- P(x).
         ?- P.";

    fn has_descendant_labeled_l(tree: &Tree) -> NodeSet {
        // Ground truth: nodes with a proper descendant labeled L.
        let mut out = NodeSet::empty(tree.len());
        for v in tree.nodes() {
            for u in tree.nodes() {
                if tree.is_ancestor(v, u) && tree.has_label_name(u, "L") {
                    out.insert(v);
                }
            }
        }
        out
    }

    #[test]
    fn example_3_1_semantics() {
        let prog = parse_program(EXAMPLE_3_1).unwrap();
        for term in [
            "L(a b(c))",
            "a(L(b) c)",
            "a(b c)",
            "L(L(L))",
            "a(b(L(c d(e))) f)",
        ] {
            let tree = parse_term(term).unwrap();
            let got = eval_query(&prog, &tree);
            assert_eq!(got, has_descendant_labeled_l(&tree), "on {term}");
        }
    }

    /// Cross-check Example 3.1 against the independent axis machinery:
    /// "has a descendant labeled L" is the Ancestor-image of the L nodes.
    #[test]
    fn example_3_1_against_axis_machinery() {
        let prog = parse_program(EXAMPLE_3_1).unwrap();
        let tree = parse_term("r(L(a(b) c) d(L(e)) f)").unwrap();
        let got = eval_query(&prog, &tree);
        let l_nodes =
            NodeSet::from_iter(tree.len(), tree.nodes_with_label_name("L").iter().copied());
        let expected = Axis::Ancestor.image(&tree, &l_nodes);
        assert_eq!(got, expected);
    }

    #[test]
    fn eval_matches_naive_on_examples() {
        let progs = [
            EXAMPLE_3_1,
            "Mark(x) :- leaf(x).
             Mark(x) :- firstchild(x, y), AllMarked(y).
             AllMarked(x) :- lastsibling(x), Mark(x).
             AllMarked(x) :- nextsibling(x, y), AllMarked(y), Mark(x).
             ?- Mark.",
            "Even(x) :- root(x).
             Odd(y) :- child(x, y), Even(x).
             Even(y) :- child(x, y), Odd(x).
             ?- Even.",
        ];
        for text in progs {
            let prog = parse_program(text).unwrap();
            for term in ["a", "a(b)", "a(b(c d) e(f(g) h))", "L(a(L(b)))"] {
                let tree = parse_term(term).unwrap();
                assert_eq!(
                    eval(&prog, &tree),
                    eval_naive(&prog, &tree),
                    "program {text} on {term}"
                );
            }
        }
    }

    /// `eval` (the compiled grounder) against `eval_naive` (the simple
    /// matcher) on every shape the grounder special-cases.
    #[test]
    fn eval_matches_naive_on_grounder_special_cases() {
        let cases = [
            // A label absent from the tree, and its complement.
            "P(x) :- label(x, zz). ?- P.",
            "P(x) :- notlabel(x, zz), leaf(x). ?- P.",
            "P(x) :- notlabel(x, a), firstchild(x, y). ?- P.",
            // dom, firstsibling and lastsibling.
            "P(x) :- dom(x), firstsibling(x). Q(x) :- lastsibling(x), P(x). ?- Q.",
            "P(x) :- dom(x). ?- P.",
            // A body with no extensional atom (safe rules always bind a
            // variable, so this is the nearest to a variable-free rule),
            // and a disconnected body.
            "Q(x) :- dom(x). P(x) :- Q(x). ?- P.",
            "P(x) :- root(x), Q(y). Q(x) :- label(x, b). ?- P.",
            "P(x) :- label(x, c), Q(y), R(z). Q(x) :- leaf(x). R(x) :- label(x, b). ?- P.",
            // A repeated intensional atom.
            "Q(x) :- label(x, a). P(x) :- Q(x), Q(x), leaf(x). ?- P.",
            "Q(x) :- leaf(x). P(x) :- firstchild(x, y), Q(y), Q(y). ?- P.",
            // A label filter on a non-first variable.
            "P(x) :- firstchild(x, y), label(y, b). ?- P.",
            "P(x) :- nextsibling(y, x), label(y, a), notlabel(x, c). ?- P.",
            "P(x) :- child(x, y), label(y, c), nextsibling(y, z), leaf(z). ?- P.",
            // Forward child, and two label filters on one variable.
            "Q(y) :- leaf(y). P(x) :- child(x, y), Q(y). ?- P.",
            "P(x) :- label(x, a), label(x, b). ?- P.",
        ];
        for text in cases {
            let prog = parse_program(text).unwrap();
            for term in [
                "a",
                "a(b c)",
                "a(b(c a) c(b) a(a b c))",
                "c(a(b) b(a(c)) c)",
            ] {
                let tree = parse_term(term).unwrap();
                assert_eq!(
                    eval(&prog, &tree),
                    eval_naive(&prog, &tree),
                    "program {text} on {term}"
                );
            }
        }
    }

    #[test]
    fn even_depth_program() {
        let prog = parse_program(
            "Even(x) :- root(x).
             Odd(y) :- child(x, y), Even(x).
             Even(y) :- child(x, y), Odd(x).
             ?- Even.",
        )
        .unwrap();
        let tree = parse_term("a(b(c(d)) e)").unwrap();
        let got = eval_query(&prog, &tree);
        for v in tree.nodes() {
            assert_eq!(got.contains(v), tree.depth(v) % 2 == 0, "{v:?}");
        }
    }

    #[test]
    fn incremental_matches_scratch_on_edit_scripts() {
        let programs = [
            EXAMPLE_3_1,
            "Mark(x) :- leaf(x).
             Mark(x) :- firstchild(x, y), AllMarked(y).
             AllMarked(x) :- lastsibling(x), Mark(x).
             AllMarked(x) :- nextsibling(x, y), AllMarked(y), Mark(x).
             ?- Mark.",
            "Even(x) :- root(x).
             Odd(y) :- child(x, y), Even(x).
             Even(y) :- child(x, y), Odd(x).
             ?- Even.",
            // Disconnected body: y roams the whole domain. The pinned
            // pass must stay correct (just not local) on it.
            "P(x) :- root(x), Q(y).
             Q(x) :- label(x, L).
             ?- P.",
        ];
        use treequery_tree::{EditOp, EditableTree};
        for src in programs {
            let prog = parse_program(src).unwrap();
            let mut et = EditableTree::new(parse_term("r(L(a b) c(d(L) e) f)").unwrap());
            let mut inc = IncrementalEval::new(prog.clone(), et.tree());
            let mut state = 0x6A09E667F3BCC908u64;
            let labels = ["L", "a", "b", "c"];
            for step in 0..120 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let n = et.tree().len() as u32;
                let op = match state % 4 {
                    0 => EditOp::InsertLeaf {
                        parent_pre: (state >> 8) as u32 % n,
                        child_idx: (state >> 40) as u32 % 4,
                        label: labels[(state >> 16) as usize % labels.len()].to_owned(),
                    },
                    1 if n > 1 => EditOp::DeleteSubtree {
                        pre: (state >> 8) as u32 % n,
                    },
                    _ => EditOp::Relabel {
                        pre: (state >> 8) as u32 % n,
                        label: labels[(state >> 16) as usize % labels.len()].to_owned(),
                    },
                };
                let pending = inc.prepare_edit(et.tree(), &op);
                let Some(delta) = et.apply(&op) else {
                    continue;
                };
                inc.commit_edit(et.tree(), &delta, pending);
                let scratch = eval(&prog, et.tree());
                assert_eq!(
                    inc.extensions(),
                    &scratch[..],
                    "program {src} diverged at step {step} after {op}"
                );
            }
        }
    }

    #[test]
    fn incremental_work_is_local_for_relabel() {
        // The same relabel edit on a 10x larger tree must not cost 10x
        // the maintenance work (the E24 claim, asserted at unit scale).
        use treequery_tree::{EditOp, EditableTree};
        let prog = parse_program(EXAMPLE_3_1).unwrap();
        let work_at = |size: usize| {
            let mut term = String::from("r(");
            for i in 0..size {
                term.push_str(if i % 7 == 0 { "L " } else { "a " });
            }
            term.push(')');
            let mut et = EditableTree::new(parse_term(&term).unwrap());
            let mut inc = IncrementalEval::new(prog.clone(), et.tree());
            let op = EditOp::Relabel {
                pre: 3,
                label: "L".to_owned(),
            };
            let pending = inc.prepare_edit(et.tree(), &op);
            let delta = et.apply(&op).unwrap();
            inc.commit_edit(et.tree(), &delta, pending);
            inc.work()
        };
        let (small, large) = (work_at(100), work_at(1000));
        assert!(
            large <= small.saturating_mul(3),
            "relabel maintenance work grew with |D|: {small} -> {large}"
        );
    }

    #[test]
    fn recursion_through_siblings() {
        // Mark/AllMarked: Mark(x) iff every node in x's subtree... actually
        // Mark(x) iff x is a leaf or the chain of its children is all
        // marked — i.e. Mark holds everywhere. The point: mutual recursion
        // converges and matches naive evaluation.
        let prog = parse_program(
            "Mark(x) :- leaf(x).
             Mark(x) :- firstchild(x, y), AllMarked(y).
             AllMarked(x) :- lastsibling(x), Mark(x).
             AllMarked(x) :- nextsibling(x, y), AllMarked(y), Mark(x).
             ?- Mark.",
        )
        .unwrap();
        let tree = parse_term("a(b(c d) e)").unwrap();
        let got = eval_query(&prog, &tree);
        assert_eq!(got.len(), tree.len());
    }
}
