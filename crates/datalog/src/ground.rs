//! Grounding monadic datalog programs over a tree (Theorem 3.2).
//!
//! Given a program `P` and a tree with node set `Dom`, computes an
//! equivalent propositional Horn formula. For TMNF programs (and more
//! generally programs whose rule bodies bind every variable through the
//! functional τ⁺ relations) the ground program has size `O(|P| · |Dom|)`
//! and is produced in that time, which together with Minoux's algorithm
//! yields the `O(|P| · |Dom|)` combined complexity of Theorem 3.2.
//!
//! The ground atoms are numbered densely: `P(v)` is the propositional
//! variable `P·|Dom| + v` ([`AtomNumbering`]), which is exactly the
//! `O(|P| · |Dom|)` atom set of the theorem, so no atom is ever hashed or
//! interned, and the extension of `P` is one slice of the truth vector.
//!
//! A [`Grounder`] compiles each rule once per evaluation: its match plan,
//! its unary filters with labels resolved to [`Symbol`]s (an absent
//! label never holds; its `notlabel` always holds and is dropped), and
//! its intensional atoms. A free variable with a label filter is bound
//! from that label's posting list; functional steps bind without
//! collecting anything. Bindings run in pre order, so the ground rules of
//! ascending pre-order ranges concatenate to the sequential grounding —
//! the partition the parallel executor grounds on ([`RangeGrounding`]).
//!
//! Rules may also use the non-functional `Child` relation or leave
//! variables unconstrained; grounding stays correct but the ground program
//! can be larger (that is why the TMNF translation eliminates `Child`).

use std::ops::Range;

use treequery_hornsat::{HornFormula, Var};
use treequery_tree::{NodeId, NodeSet, Symbol, Tree};

use crate::ast::{BasePred, BinRel, BodyAtom, PredId, Program, Rule, UnaryRef, VarId};

/// A ground intensional atom `pred(node)`.
pub type GroundAtom = (PredId, NodeId);

/// The dense numbering of ground atoms: `P(v)` is variable `P·|Dom| + v`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AtomNumbering {
    nodes: u32,
    preds: u32,
}

impl AtomNumbering {
    /// The numbering of `preds` predicates over `nodes` nodes.
    ///
    /// # Panics
    /// Panics if `preds · nodes` does not fit a `u32` variable id.
    pub fn new(preds: usize, nodes: usize) -> AtomNumbering {
        let vars = preds.checked_mul(nodes);
        assert!(
            vars.is_some_and(|v| v <= u32::MAX as usize),
            "{preds} predicates over {nodes} nodes exceed the variable id space"
        );
        AtomNumbering {
            nodes: nodes as u32,
            preds: preds as u32,
        }
    }

    /// Number of variables, `|P| · |Dom|`.
    pub fn num_vars(&self) -> u32 {
        self.preds * self.nodes
    }

    /// The variable of `pred(node)`.
    #[inline]
    pub fn var(&self, pred: PredId, node: NodeId) -> Var {
        debug_assert!(pred.0 < self.preds && node.0 < self.nodes);
        Var(pred.0 * self.nodes + node.0)
    }

    /// The extension of `pred` in a truth vector indexed by this
    /// numbering (a [`treequery_hornsat::Solution::truth`]).
    pub fn extension(&self, truth: &[bool], pred: PredId) -> NodeSet {
        let lo = pred.index() * self.nodes as usize;
        let slice = &truth[lo..lo + self.nodes as usize];
        NodeSet::from_iter(
            slice.len(),
            (0..slice.len() as u32)
                .filter(|&i| slice[i as usize])
                .map(NodeId),
        )
    }
}

/// A unary extensional filter with its label resolved against the tree.
#[derive(Clone, Copy, Debug)]
enum Filter {
    Root,
    Leaf,
    FirstSibling,
    LastSibling,
    Label(Symbol),
    NotLabel(Symbol),
}

impl Filter {
    #[inline]
    fn holds(self, tree: &Tree, v: NodeId) -> bool {
        match self {
            Filter::Root => tree.is_root(v),
            Filter::Leaf => tree.is_leaf(v),
            Filter::FirstSibling => tree.is_first_sibling(v),
            Filter::LastSibling => tree.is_last_sibling(v),
            Filter::Label(s) => tree.has_label(v, s),
            Filter::NotLabel(s) => !tree.has_label(v, s),
        }
    }
}

/// One step of a compiled match plan.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Bind a variable to every node, in pre order.
    BindAll(VarId),
    /// Bind a variable to the nodes of a label's posting list (pre order).
    BindLabel(VarId, Symbol),
    /// Bind `to` from the bound `from` along `rel` (forward: `from` is the
    /// relation's first argument).
    Traverse {
        rel: BinRel,
        from: VarId,
        to: VarId,
        forward: bool,
    },
    /// Both arguments bound: test `rel(x, y)`.
    Check(BinRel, VarId, VarId),
    /// Test a unary filter on a bound variable.
    Filter(VarId, Filter),
}

/// Room for this many rule variables on the stack; longer rules spill to
/// the heap.
const INLINE_VARS: usize = 8;

/// One rule, compiled against one tree.
#[derive(Debug)]
struct CompiledRule {
    head: PredId,
    head_var: VarId,
    num_vars: usize,
    /// Some filter names a label absent from the tree: no match exists.
    unsatisfiable: bool,
    steps: Vec<Step>,
    /// The intensional body atoms, in body order (with repeats).
    body: Vec<(PredId, VarId)>,
}

impl CompiledRule {
    fn compile(rule: &Rule, tree: &Tree) -> CompiledRule {
        let n_vars = rule.num_vars as usize;
        let mut binaries = Vec::new();
        let mut filters = Vec::new();
        let mut body = Vec::new();
        let mut unsatisfiable = false;
        for atom in &rule.body {
            match atom {
                BodyAtom::Binary(rel, x, y) => binaries.push((*rel, *x, *y)),
                BodyAtom::Unary(UnaryRef::Pred(p), v) => body.push((*p, *v)),
                BodyAtom::Unary(UnaryRef::Base(base), v) => {
                    let filter = match base {
                        BasePred::Dom => None,
                        BasePred::Root => Some(Filter::Root),
                        BasePred::Leaf => Some(Filter::Leaf),
                        BasePred::FirstSibling => Some(Filter::FirstSibling),
                        BasePred::LastSibling => Some(Filter::LastSibling),
                        BasePred::Label(l) => match tree.symbol(l) {
                            Some(s) => Some(Filter::Label(s)),
                            None => {
                                unsatisfiable = true;
                                None
                            }
                        },
                        BasePred::NotLabel(l) => tree.symbol(l).map(Filter::NotLabel),
                    };
                    filters.extend(filter.map(|f| (*v, f)));
                }
            }
        }
        let label_of = |v: VarId| {
            filters.iter().find_map(|&(fv, f)| match f {
                Filter::Label(s) if fv == v => Some(s),
                _ => None,
            })
        };

        let mut steps = Vec::new();
        let mut bound = vec![false; n_vars];
        let mut used = vec![false; binaries.len()];
        // Binding `v` brings its filters along, except the label its
        // posting list already guarantees.
        let bind = |v: VarId, via: Option<Symbol>, steps: &mut Vec<Step>| {
            for &(fv, f) in &filters {
                let implied = matches!((f, via), (Filter::Label(s), Some(t)) if s == t);
                if fv == v && !implied {
                    steps.push(Step::Filter(v, f));
                }
            }
        };
        loop {
            for (i, &(rel, x, y)) in binaries.iter().enumerate() {
                if !used[i] && bound[x.index()] && bound[y.index()] {
                    used[i] = true;
                    steps.push(Step::Check(rel, x, y));
                }
            }
            // Traverse an atom with exactly one bound side; forward Child
            // is the only one-to-many step, so it goes last.
            let reachable = |&(i, &(_, x, y)): &(usize, &(BinRel, VarId, VarId))| {
                !used[i] && (bound[x.index()] ^ bound[y.index()])
            };
            let next = binaries
                .iter()
                .enumerate()
                .filter(&reachable)
                .find(|(_, &(rel, x, _))| rel != BinRel::Child || !bound[x.index()])
                .or_else(|| binaries.iter().enumerate().find(&reachable));
            if let Some((i, &(rel, x, y))) = next {
                used[i] = true;
                let forward = bound[x.index()];
                let (from, to) = if forward { (x, y) } else { (y, x) };
                bound[to.index()] = true;
                steps.push(Step::Traverse {
                    rel,
                    from,
                    to,
                    forward,
                });
                bind(to, None, &mut steps);
                continue;
            }
            // Nothing reachable: bind a fresh variable, preferring one a
            // posting list can bind, then one of an unused binary atom.
            let fresh = (0..n_vars as u32)
                .map(VarId)
                .find(|&v| !bound[v.index()] && label_of(v).is_some())
                .or_else(|| {
                    binaries
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| !used[i])
                        .flat_map(|(_, &(_, x, y))| [x, y])
                        .find(|v| !bound[v.index()])
                })
                .or_else(|| (0..n_vars as u32).map(VarId).find(|v| !bound[v.index()]));
            let Some(v) = fresh else { break };
            bound[v.index()] = true;
            let via = label_of(v);
            steps.push(match via {
                Some(s) => Step::BindLabel(v, s),
                None => Step::BindAll(v),
            });
            bind(v, via, &mut steps);
        }
        CompiledRule {
            head: rule.head,
            head_var: rule.head_var,
            num_vars: n_vars,
            unsatisfiable,
            steps,
            body,
        }
    }

    /// The nodes the first step binds over the pre-order range `range`
    /// (an upper bound on the ground rules of a functional body).
    fn first_candidates(&self, tree: &Tree, range: &Range<u32>) -> usize {
        match self.steps.first() {
            _ if self.unsatisfiable => 0,
            Some(Step::BindLabel(_, s)) => posting_range(tree, *s, range).len(),
            _ => range.len(),
        }
    }

    /// Appends the ground instances whose first binding lies in the
    /// pre-order range `range` to `out`, in match order.
    fn ground_into(
        &self,
        tree: &Tree,
        atoms: AtomNumbering,
        range: Range<u32>,
        out: &mut HornFormula,
    ) {
        if self.unsatisfiable {
            return;
        }
        let mut inline = [NodeId(0); INLINE_VARS];
        let mut spilled = Vec::new();
        let asg: &mut [NodeId] = if self.num_vars <= INLINE_VARS {
            &mut inline[..self.num_vars]
        } else {
            spilled.resize(self.num_vars, NodeId(0));
            &mut spilled
        };
        self.run(tree, 0, &range, asg, &mut |asg| {
            out.add_rule_iter(
                atoms.var(self.head, asg[self.head_var.index()]),
                self.body.iter().map(|&(p, v)| atoms.var(p, asg[v.index()])),
            );
        });
    }

    fn run(
        &self,
        tree: &Tree,
        step: usize,
        first: &Range<u32>,
        asg: &mut [NodeId],
        emit: &mut impl FnMut(&[NodeId]),
    ) {
        let Some(&s) = self.steps.get(step) else {
            emit(asg);
            return;
        };
        let full = 0..tree.len() as u32;
        let range = if step == 0 { first } else { &full };
        match s {
            Step::BindAll(v) => {
                for rank in range.clone() {
                    asg[v.index()] = tree.node_at_pre(rank);
                    self.run(tree, step + 1, first, asg, emit);
                }
            }
            Step::BindLabel(v, sym) => {
                for &node in posting_range(tree, sym, range) {
                    asg[v.index()] = node;
                    self.run(tree, step + 1, first, asg, emit);
                }
            }
            Step::Traverse {
                rel,
                from,
                to,
                forward,
            } => {
                let x = asg[from.index()];
                if forward && rel == BinRel::Child {
                    for node in tree.children(x) {
                        asg[to.index()] = node;
                        self.run(tree, step + 1, first, asg, emit);
                    }
                    return;
                }
                let next = match (rel, forward) {
                    (BinRel::FirstChild, true) => tree.first_child(x),
                    (BinRel::NextSibling, true) => tree.next_sibling(x),
                    (BinRel::FirstChild, false) => {
                        tree.parent(x).filter(|_| tree.is_first_sibling(x))
                    }
                    (BinRel::NextSibling, false) => tree.prev_sibling(x),
                    (BinRel::Child, _) => tree.parent(x),
                };
                if let Some(node) = next {
                    asg[to.index()] = node;
                    self.run(tree, step + 1, first, asg, emit);
                }
            }
            Step::Check(rel, x, y) => {
                let (x, y) = (asg[x.index()], asg[y.index()]);
                let holds = match rel {
                    BinRel::FirstChild => tree.first_child(x) == Some(y),
                    BinRel::NextSibling => tree.next_sibling(x) == Some(y),
                    BinRel::Child => tree.parent(y) == Some(x),
                };
                if holds {
                    self.run(tree, step + 1, first, asg, emit);
                }
            }
            Step::Filter(v, f) => {
                if f.holds(tree, asg[v.index()]) {
                    self.run(tree, step + 1, first, asg, emit);
                }
            }
        }
    }
}

/// The part of `sym`'s posting list whose pre ranks lie in `range`.
fn posting_range<'t>(tree: &'t Tree, sym: Symbol, range: &Range<u32>) -> &'t [NodeId] {
    let postings = tree.nodes_with_label(sym);
    if range.start == 0 && range.end as usize >= tree.len() {
        return postings;
    }
    let lo = postings.partition_point(|&v| tree.pre(v) < range.start);
    let hi = postings.partition_point(|&v| tree.pre(v) < range.end);
    &postings[lo..hi]
}

/// A program compiled against one tree: the grounding half of
/// Theorem 3.2.
#[derive(Debug)]
pub struct Grounder<'t> {
    tree: &'t Tree,
    atoms: AtomNumbering,
    rules: Vec<CompiledRule>,
}

/// The ground rules every program rule produced over one pre-order range,
/// as flat dense-variable columns (a [`HornFormula`]) plus the end of
/// each program rule's run of ground rules.
#[derive(Debug, Default)]
pub struct RangeGrounding {
    formula: HornFormula,
    rule_ends: Vec<u32>,
}

impl RangeGrounding {
    /// The ground rules program rule `r` produced over the range. A range
    /// cut short by cancellation (or never run) has no end for its
    /// remaining rules; their runs are empty.
    fn rule_span(&self, r: usize) -> Range<usize> {
        let end_of = |i: usize| {
            self.rule_ends
                .get(i)
                .map_or(self.formula.num_rules(), |&e| e as usize)
        };
        let start = if r == 0 { 0 } else { end_of(r - 1) };
        start..end_of(r)
    }
}

impl<'t> Grounder<'t> {
    /// Compiles every rule of `prog` against `tree`.
    pub fn new(prog: &Program, tree: &'t Tree) -> Grounder<'t> {
        Grounder {
            tree,
            atoms: AtomNumbering::new(prog.num_preds(), tree.len()),
            rules: prog
                .rules
                .iter()
                .map(|r| CompiledRule::compile(r, tree))
                .collect(),
        }
    }

    /// The numbering of the ground atoms.
    pub fn atoms(&self) -> AtomNumbering {
        self.atoms
    }

    /// An empty formula over this grounding's variables, with room for
    /// the ground rules whose first binding lies in `range` (an upper
    /// bound when every later step is functional, so such rules never
    /// regrow a column).
    fn formula_for(&self, range: &Range<u32>) -> HornFormula {
        let (mut rules, mut body) = (0, 0);
        for rule in &self.rules {
            let k = rule.first_candidates(self.tree, range);
            rules += k;
            body += k * rule.body.len();
        }
        HornFormula::with_capacity(self.atoms.num_vars(), rules, body)
    }

    /// Grounds the whole program, rule by rule. Cancellation is checked
    /// per rule (one rule is one `O(|Dom|)` match sweep): a cancelled
    /// exit grounds a prefix of the program, whose model the executor
    /// discards.
    pub fn ground(&self) -> HornFormula {
        let range = 0..self.tree.len() as u32;
        let mut formula = self.formula_for(&range);
        for rule in &self.rules {
            if treequery_tree::cancel::cancelled() {
                break;
            }
            rule.ground_into(self.tree, self.atoms, range.clone(), &mut formula);
        }
        formula
    }

    /// Grounds every rule over the pre-order range `range`, with the
    /// same per-rule cancellation checkpoint as [`Grounder::ground`].
    pub fn ground_range(&self, range: Range<u32>) -> RangeGrounding {
        let mut out = RangeGrounding {
            formula: self.formula_for(&range),
            rule_ends: Vec::with_capacity(self.rules.len()),
        };
        for rule in &self.rules {
            if treequery_tree::cancel::cancelled() {
                break;
            }
            rule.ground_into(self.tree, self.atoms, range.clone(), &mut out.formula);
            out.rule_ends.push(out.formula.num_rules() as u32);
        }
        out
    }

    /// Concatenates range groundings into the program's formula: rule by
    /// rule, ranges in the order given. For ascending ranges that
    /// partition the pre order this is exactly [`Grounder::ground`].
    pub fn assemble(&self, parts: &[RangeGrounding]) -> HornFormula {
        let rules: usize = parts.iter().map(|p| p.formula.num_rules()).sum();
        let body: usize = parts
            .iter()
            .map(|p| p.formula.size() - p.formula.num_rules())
            .sum();
        let mut formula = HornFormula::with_capacity(self.atoms.num_vars(), rules, body);
        for r in 0..self.rules.len() {
            for part in parts {
                formula.append_rules(&part.formula, part.rule_span(r));
            }
        }
        formula
    }
}

/// Grounds a program over a tree into a definite Horn formula whose
/// variables are the intensional ground atoms `pred(node)`, numbered by
/// the returned [`AtomNumbering`].
pub fn ground(prog: &Program, tree: &Tree) -> (HornFormula, AtomNumbering) {
    let grounder = Grounder::new(prog, tree);
    (grounder.ground(), grounder.atoms())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use treequery_hornsat::RuleId;
    use treequery_tree::parse_term;

    /// Ascending range groundings must concatenate to the sequential
    /// grounding exactly: same ground rules, same order, same variables.
    #[test]
    fn chunked_grounding_is_byte_identical_to_sequential() {
        let programs = [
            "P(x) :- nextsibling(x, y).",
            "P(x) :- firstchild(x, y), leaf(y).",
            "P(x) :- root(x), Q(y).",
            "P(x) :- P0(x0), nextsibling(x0, x).",
            "P(x) :- child(x, y), Q(y).",
            "P(x) :- label(x, b), Q(x), Q(x). Q(y) :- child(x, y), label(x, d).",
            "P(x) :- notlabel(x, a), lastsibling(x), dom(y), label(y, f).",
        ];
        let tree = parse_term("r(a(b c) d(e(f) g) h)").unwrap();
        let n = tree.len() as u32;
        for src in programs {
            let prog = parse_program(src).unwrap();
            let (formula, atoms) = ground(&prog, &tree);
            let grounder = Grounder::new(&prog, &tree);
            assert_eq!(grounder.atoms(), atoms);
            for chunks in [1u32, 2, 3, n] {
                let step = n.div_ceil(chunks);
                let mut parts = Vec::new();
                let mut lo = 0;
                while lo < n {
                    let hi = (lo + step).min(n);
                    parts.push(grounder.ground_range(lo..hi));
                    lo = hi;
                }
                let f2 = grounder.assemble(&parts);
                assert_eq!(f2.num_rules(), formula.num_rules(), "{src}");
                assert_eq!(f2.num_vars(), formula.num_vars(), "{src}");
                assert_eq!(f2.size(), formula.size(), "{src}");
                for i in 0..formula.num_rules() {
                    let r = RuleId(i as u32);
                    assert_eq!(f2.head(r), formula.head(r), "{src} rule {i}");
                    assert_eq!(f2.body(r), formula.body(r), "{src} rule {i}");
                }
            }
        }
    }

    #[test]
    fn numbering_is_pred_major() {
        let atoms = AtomNumbering::new(3, 10);
        assert_eq!(atoms.num_vars(), 30);
        assert_eq!(atoms.var(PredId(2), NodeId(4)), Var(24));
        let mut truth = vec![false; 30];
        truth[13] = true;
        truth[19] = true;
        truth[20] = true;
        let ext = atoms.extension(&truth, PredId(1));
        assert_eq!(ext.to_vec(), vec![NodeId(3), NodeId(9)]);
    }

    #[test]
    fn ground_counts_matches() {
        // P(x) :- nextsibling(x, y): one ground rule per sibling pair.
        let prog = parse_program("P(x) :- nextsibling(x, y).").unwrap();
        let tree = parse_term("r(a b c)").unwrap();
        let (formula, _) = ground(&prog, &tree);
        assert_eq!(formula.num_rules(), 2);
    }

    #[test]
    fn ground_respects_unary_filters() {
        let prog = parse_program("P(x) :- firstchild(x, y), leaf(y).").unwrap();
        let tree = parse_term("r(a(b) c)").unwrap();
        // firstchild pairs: (r,a), (a,b); leaf(y) keeps only (a,b).
        let (formula, atoms) = ground(&prog, &tree);
        assert_eq!(formula.num_rules(), 1);
        assert_eq!(
            formula.head(RuleId(0)),
            atoms.var(PredId(0), tree.node_at_pre(1))
        );
    }

    #[test]
    fn absent_labels_resolve_at_compile_time() {
        let tree = parse_term("r(a b)").unwrap();
        let (formula, _) = ground(&parse_program("P(x) :- label(x, zz).").unwrap(), &tree);
        assert_eq!(formula.num_rules(), 0, "an absent label never holds");
        let (formula, _) = ground(&parse_program("P(x) :- notlabel(x, zz).").unwrap(), &tree);
        assert_eq!(formula.num_rules(), 3, "its complement always holds");
    }

    #[test]
    fn child_enumerates_all_children() {
        let prog = parse_program("P(x) :- child(x, y).").unwrap();
        let tree = parse_term("r(a b c(d))").unwrap();
        let (formula, _) = ground(&prog, &tree);
        assert_eq!(formula.num_rules(), 4);
    }

    #[test]
    fn unconstrained_variable_enumerates_domain() {
        // y occurs only in an intensional atom: grounding iterates it over
        // the whole domain.
        let prog = parse_program("P(x) :- root(x), Q(y).").unwrap();
        let tree = parse_term("r(a b)").unwrap();
        let (formula, _) = ground(&prog, &tree);
        assert_eq!(formula.num_rules(), 3);
    }

    #[test]
    fn cyclic_body_consistency_is_checked() {
        // firstchild(x,y) ∧ nextsibling(x,y) is unsatisfiable: no matches.
        let prog = parse_program("P(x) :- firstchild(x, y), nextsibling(x, y).").unwrap();
        let tree = parse_term("r(a(b) c)").unwrap();
        let (formula, _) = ground(&prog, &tree);
        assert_eq!(formula.num_rules(), 0);
    }

    #[test]
    fn tmnf_rule_grounding_is_linear_in_nodes() {
        let prog = parse_program("P(x) :- P0(x0), nextsibling(x0, x).").unwrap();
        let tree = parse_term("r(a b c d e)").unwrap();
        let (formula, _) = ground(&prog, &tree);
        // One ground instance per NextSibling edge.
        assert_eq!(formula.num_rules(), 4);
        for i in 0..formula.num_rules() {
            let r = RuleId(i as u32);
            assert_eq!(formula.body(r).len(), 1);
        }
    }
}
