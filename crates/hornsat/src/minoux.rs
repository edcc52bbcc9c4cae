//! Minoux's algorithm (Figure 3): linear-time unit resolution for
//! definite propositional Horn formulas.

/// A propositional variable (the paper's "predicate" `p` in Figure 3).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Var(pub u32);

impl Var {
    /// Dense index of the variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a rule within a [`HornFormula`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RuleId(pub u32);

impl RuleId {
    /// Dense index of the rule.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A definite propositional Horn formula: a conjunction of rules
/// `head ← b₁ ∧ … ∧ b_k` (k = 0 gives a fact).
///
/// This is the input format of Figure 3, where clause `i` is
/// `p_{i,1} ∨ ¬p_{i,2} ∨ … ∨ ¬p_{i,k_i}` with head `p_{i,1}`.
#[derive(Clone, Debug, Default)]
pub struct HornFormula {
    num_vars: u32,
    heads: Vec<Var>,
    /// Bodies, concatenated; `body_of[i]` is `body_pool[starts[i]..starts[i+1]]`.
    body_pool: Vec<Var>,
    body_starts: Vec<u32>,
}

impl HornFormula {
    /// Creates an empty formula.
    pub fn new() -> Self {
        Self {
            num_vars: 0,
            heads: Vec::new(),
            body_pool: Vec::new(),
            body_starts: vec![0],
        }
    }

    /// Creates an empty formula pre-sized for `vars` variables and `rules`
    /// rules with a total body size of `body`.
    pub fn with_capacity(vars: u32, rules: usize, body: usize) -> Self {
        let mut body_starts = Vec::with_capacity(rules + 1);
        body_starts.push(0);
        Self {
            num_vars: vars,
            heads: Vec::with_capacity(rules),
            body_pool: Vec::with_capacity(body),
            body_starts,
        }
    }

    /// Allocates a fresh variable.
    pub fn fresh_var(&mut self) -> Var {
        let v = Var(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Ensures variables `0..n` exist (useful when variables are external
    /// dense ids, e.g. produced by an [`crate::AtomTable`] or a grounder's
    /// fixed numbering).
    pub fn ensure_vars(&mut self, n: u32) {
        self.num_vars = self.num_vars.max(n);
    }

    /// Number of variables.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Number of rules.
    pub fn num_rules(&self) -> usize {
        self.heads.len()
    }

    /// Total size of the formula (head + body literals), the `l + Σ kᵢ`
    /// quantity the linear-time bound is measured in.
    pub fn size(&self) -> usize {
        self.heads.len() + self.body_pool.len()
    }

    /// Adds the rule `head ← body`. An empty body makes `head` a fact.
    pub fn add_rule(&mut self, head: Var, body: &[Var]) -> RuleId {
        self.add_rule_iter(head, body.iter().copied())
    }

    /// Adds the rule `head ← body`, taking the body literals from an
    /// iterator (a grounder emits them straight into the body pool, with
    /// no staging buffer).
    pub fn add_rule_iter(&mut self, head: Var, body: impl IntoIterator<Item = Var>) -> RuleId {
        debug_assert!(head.0 < self.num_vars, "head variable not allocated");
        let id = RuleId(u32::try_from(self.heads.len()).expect("too many rules"));
        self.heads.push(head);
        self.body_pool.extend(body);
        self.body_starts
            .push(u32::try_from(self.body_pool.len()).expect("body pool overflow"));
        debug_assert!(self.body(id).iter().all(|v| v.0 < self.num_vars));
        id
    }

    /// Appends the rules `rules` of `other`, which must number its
    /// variables the same way, in order: a concatenation of the head,
    /// body and start columns (the starts rebased onto this pool).
    pub fn append_rules(&mut self, other: &HornFormula, rules: std::ops::Range<usize>) {
        self.ensure_vars(other.num_vars);
        self.heads.extend_from_slice(&other.heads[rules.clone()]);
        let lo = other.body_starts[rules.start];
        let hi = other.body_starts[rules.end];
        self.body_pool
            .extend_from_slice(&other.body_pool[lo as usize..hi as usize]);
        let base = u32::try_from(self.body_pool.len()).expect("body pool overflow") - (hi - lo);
        self.body_starts.extend(
            other.body_starts[rules.start + 1..=rules.end]
                .iter()
                .map(|&s| base + (s - lo)),
        );
    }

    /// Adds the fact `head ←`.
    pub fn add_fact(&mut self, head: Var) -> RuleId {
        self.add_rule(head, &[])
    }

    /// The head of a rule.
    pub fn head(&self, r: RuleId) -> Var {
        self.heads[r.index()]
    }

    /// The body of a rule.
    pub fn body(&self, r: RuleId) -> &[Var] {
        let s = self.body_starts[r.index()] as usize;
        let e = self.body_starts[r.index() + 1] as usize;
        &self.body_pool[s..e]
    }

    /// The initialization phase of Figure 3: builds the `size`, `head` and
    /// `rules` data structures and the initial queue. Exposed separately so
    /// that the worked Example 3.3 can be reproduced verbatim (experiment
    /// E3); [`HornFormula::solve`] runs its main loop over exactly this
    /// state.
    ///
    /// The occurrence lists `rules[p]` are one counting-sort CSR column
    /// (read them with [`InitialState::rules_of`]): two passes over the
    /// body pool, three allocations, whatever the number of variables.
    pub fn initial_state(&self) -> InitialState<'_> {
        let nv = self.num_vars as usize;
        // offsets[p] counts p's occurrences, then (prefix sums) holds the
        // end of p's segment; filling rules back to front decrements it
        // to the segment's start, leaving each list in ascending rule
        // order.
        let mut offsets = vec![0u32; nv + 1];
        for &b in &self.body_pool {
            offsets[b.index()] += 1;
        }
        let mut end = 0u32;
        for slot in offsets.iter_mut() {
            end += *slot;
            *slot = end;
        }
        let mut occurrences = vec![RuleId(0); self.body_pool.len()];
        let mut size = vec![0u32; self.heads.len()];
        let mut queue = Vec::new();
        for (i, slot) in size.iter_mut().enumerate().rev() {
            let r = RuleId(i as u32);
            let body = self.body(r);
            *slot = body.len() as u32;
            for &b in body.iter().rev() {
                offsets[b.index()] -= 1;
                occurrences[offsets[b.index()] as usize] = r;
            }
        }
        for (i, &h) in self.heads.iter().enumerate() {
            if self.body_starts[i] == self.body_starts[i + 1] {
                queue.push(h);
            }
        }
        InitialState {
            size,
            heads: &self.heads,
            offsets,
            occurrences,
            queue,
        }
    }

    /// Minoux's algorithm (the main loop of Figure 3): computes the minimal
    /// model in time linear in [`HornFormula::size`].
    ///
    /// The derivation order doubles as the FIFO queue: every variable is
    /// appended once, when it becomes true, and the loop reads it back
    /// from a cursor.
    ///
    /// Emits a `hornsat.solve` span carrying the formula size (the
    /// quantity the Theorem 3.2 linear bound charges) and the number of
    /// variables derived true, when the query context carries a
    /// `treequery_obs` capture.
    pub fn solve(&self) -> Solution {
        let mut span = treequery_obs::span("hornsat.solve");
        let _mem = treequery_obs::alloc::AllocScope::enter("hornsat.solve");
        span.record_u64("vars", self.num_vars as u64);
        span.record_u64("rules", self.num_rules() as u64);
        span.record_u64("formula_size", self.size() as u64);
        let InitialState {
            mut size,
            heads,
            offsets,
            occurrences,
            queue: initial,
        } = self.initial_state();

        let mut truth = vec![false; self.num_vars as usize];
        let mut order = Vec::with_capacity(initial.len());
        for p in initial {
            // The figure appends every fact head; we deduplicate so each
            // variable is output (and its rule list scanned) exactly once.
            if !truth[p.index()] {
                truth[p.index()] = true;
                order.push(p);
            }
        }
        let mut next = 0;
        while let Some(&p) = order.get(next) {
            next += 1;
            let (lo, hi) = (offsets[p.index()], offsets[p.index() + 1]);
            for &r in &occurrences[lo as usize..hi as usize] {
                size[r.index()] -= 1;
                if size[r.index()] == 0 {
                    let h = heads[r.index()];
                    if !truth[h.index()] {
                        truth[h.index()] = true;
                        order.push(h);
                    }
                }
            }
        }
        span.record_u64("derived", order.len() as u64);
        Solution { truth, order }
    }

    /// Naive fixpoint evaluation (repeated passes until stable); quadratic,
    /// used as a differential-testing oracle for [`HornFormula::solve`].
    pub fn solve_naive(&self) -> Vec<bool> {
        let mut truth = vec![false; self.num_vars as usize];
        loop {
            let mut changed = false;
            for i in 0..self.num_rules() {
                let r = RuleId(i as u32);
                let h = self.head(r);
                if !truth[h.index()] && self.body(r).iter().all(|b| truth[b.index()]) {
                    truth[h.index()] = true;
                    changed = true;
                }
            }
            if !changed {
                return truth;
            }
        }
    }
}

/// The data structures after the initialization phase of Figure 3.
#[derive(Clone, Debug)]
pub struct InitialState<'f> {
    /// `size[i]`: number of body literals of rule `i` not yet resolved.
    pub size: Vec<u32>,
    /// `head[i]`: head variable of rule `i`.
    pub heads: &'f [Var],
    /// CSR offsets of the occurrence lists: `rules[p]` is
    /// `occurrences[offsets[p] .. offsets[p + 1]]`.
    pub offsets: Vec<u32>,
    /// All occurrence lists, concatenated by variable.
    pub occurrences: Vec<RuleId>,
    /// Initial queue: heads of facts, in rule order.
    pub queue: Vec<Var>,
}

impl InitialState<'_> {
    /// `rules[p]`: the rules in whose body `p` occurs (with
    /// multiplicity), in ascending rule order.
    pub fn rules_of(&self, p: Var) -> &[RuleId] {
        let lo = self.offsets[p.index()] as usize;
        let hi = self.offsets[p.index() + 1] as usize;
        &self.occurrences[lo..hi]
    }

    /// Number of variables (occurrence lists).
    pub fn num_vars(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// The minimal model of a definite Horn formula.
#[derive(Clone, Debug)]
pub struct Solution {
    truth: Vec<bool>,
    order: Vec<Var>,
}

impl Solution {
    /// Whether `v` is true in the minimal model.
    #[inline]
    pub fn is_true(&self, v: Var) -> bool {
        self.truth[v.index()]
    }

    /// The variables derived true, in derivation order (the order in which
    /// Figure 3 outputs "`p` is true").
    pub fn derivation_order(&self) -> &[Var] {
        &self.order
    }

    /// Number of true variables.
    pub fn num_true(&self) -> usize {
        self.order.len()
    }

    /// The truth vector, indexed by variable.
    pub fn truth(&self) -> &[bool] {
        &self.truth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The relabeled ground program of Example 3.3:
    /// r1: 1←  r2: 2←  r3: 3←  r4: 4←1  r5: 5←3,4  r6: 6←2,5.
    fn example_3_3() -> (HornFormula, Vec<Var>) {
        let mut f = HornFormula::new();
        // Variable 0 is unused so that variables 1..=6 match the example.
        let vars: Vec<Var> = (0..7).map(|_| f.fresh_var()).collect();
        f.add_fact(vars[1]);
        f.add_fact(vars[2]);
        f.add_fact(vars[3]);
        f.add_rule(vars[4], &[vars[1]]);
        f.add_rule(vars[5], &[vars[3], vars[4]]);
        f.add_rule(vars[6], &[vars[2], vars[5]]);
        (f, vars)
    }

    #[test]
    fn example_3_3_initial_state_matches_paper() {
        let (f, vars) = example_3_3();
        let st = f.initial_state();
        assert_eq!(st.size, vec![0, 0, 0, 1, 2, 2]);
        assert_eq!(
            st.heads,
            vec![vars[1], vars[2], vars[3], vars[4], vars[5], vars[6]]
        );
        // rules: 1 ↦ [r4], 2 ↦ [r6], 3 ↦ [r5], 4 ↦ [r5], 5 ↦ [r6], 6 ↦ [].
        assert_eq!(st.rules_of(vars[1]), [RuleId(3)]);
        assert_eq!(st.rules_of(vars[2]), [RuleId(5)]);
        assert_eq!(st.rules_of(vars[3]), [RuleId(4)]);
        assert_eq!(st.rules_of(vars[4]), [RuleId(4)]);
        assert_eq!(st.rules_of(vars[5]), [RuleId(5)]);
        assert!(st.rules_of(vars[6]).is_empty());
        assert_eq!(st.queue, vec![vars[1], vars[2], vars[3]]);
    }

    #[test]
    fn occurrence_lists_are_in_rule_order_with_multiplicity() {
        let mut f = HornFormula::new();
        let a = f.fresh_var();
        let b = f.fresh_var();
        let c = f.fresh_var();
        f.add_rule(c, &[a, b]);
        f.add_fact(b);
        f.add_rule(b, &[a, a]);
        f.add_rule(c, &[b, a]);
        let st = f.initial_state();
        assert_eq!(st.rules_of(a), [RuleId(0), RuleId(2), RuleId(2), RuleId(3)]);
        assert_eq!(st.rules_of(b), [RuleId(0), RuleId(3)]);
        assert!(st.rules_of(c).is_empty());
        assert_eq!(st.num_vars(), 3);
        assert_eq!(st.size, vec![2, 0, 2, 2]);
        assert_eq!(st.queue, vec![b]);
    }

    #[test]
    fn append_rules_concatenates_columns() {
        let mut part = HornFormula::new();
        let v: Vec<Var> = (0..4).map(|_| part.fresh_var()).collect();
        part.add_fact(v[0]);
        part.add_rule(v[1], &[v[0], v[2]]);
        part.add_rule(v[3], &[v[1]]);
        let mut whole = HornFormula::new();
        whole.ensure_vars(4);
        whole.add_rule(v[2], &[v[3]]);
        whole.append_rules(&part, 1..3);
        whole.append_rules(&part, 0..1);
        assert_eq!(whole.num_rules(), 4);
        assert_eq!(whole.size(), 8);
        let rules: Vec<(Var, Vec<Var>)> = (0..4)
            .map(|i| (whole.head(RuleId(i)), whole.body(RuleId(i)).to_vec()))
            .collect();
        assert_eq!(
            rules,
            vec![
                (v[2], vec![v[3]]),
                (v[1], vec![v[0], v[2]]),
                (v[3], vec![v[1]]),
                (v[0], vec![]),
            ]
        );
    }

    #[test]
    fn example_3_3_derivation() {
        let (f, vars) = example_3_3();
        let sol = f.solve();
        for (i, &var) in vars.iter().enumerate().skip(1) {
            assert!(sol.is_true(var), "var {i}");
        }
        assert!(!sol.is_true(vars[0]));
        // The first iteration pops 1, derives 4; the queue discipline gives
        // the order 1, 2, 3, 4, 5, 6.
        assert_eq!(
            sol.derivation_order(),
            &[vars[1], vars[2], vars[3], vars[4], vars[5], vars[6]]
        );
    }

    #[test]
    fn unsupported_heads_stay_false() {
        let mut f = HornFormula::new();
        let a = f.fresh_var();
        let b = f.fresh_var();
        let c = f.fresh_var();
        f.add_rule(a, &[b]);
        f.add_rule(b, &[a]);
        f.add_fact(c);
        let sol = f.solve();
        assert!(!sol.is_true(a));
        assert!(!sol.is_true(b));
        assert!(sol.is_true(c));
        assert_eq!(sol.num_true(), 1);
    }

    #[test]
    fn duplicate_body_literals() {
        let mut f = HornFormula::new();
        let a = f.fresh_var();
        let b = f.fresh_var();
        // b ← a ∧ a: both occurrences must be resolved; since `a` is popped
        // once and `rules[a]` lists the rule twice, size reaches 0 exactly
        // when a is true.
        f.add_rule(b, &[a, a]);
        f.add_fact(a);
        let sol = f.solve();
        assert!(sol.is_true(b));
    }

    #[test]
    fn repeated_facts_do_not_double_count() {
        let mut f = HornFormula::new();
        let a = f.fresh_var();
        let b = f.fresh_var();
        f.add_fact(a);
        f.add_fact(a);
        f.add_rule(b, &[a]);
        let sol = f.solve();
        assert!(sol.is_true(b));
        assert_eq!(sol.derivation_order(), &[a, b]);
    }

    #[test]
    fn empty_formula() {
        let f = HornFormula::new();
        let sol = f.solve();
        assert_eq!(sol.num_true(), 0);
    }

    #[test]
    fn chain_is_linear_in_practice() {
        // A long implication chain exercises the queue discipline.
        let mut f = HornFormula::new();
        let vars: Vec<Var> = (0..10_000).map(|_| f.fresh_var()).collect();
        for w in vars.windows(2) {
            f.add_rule(w[1], &[w[0]]);
        }
        f.add_fact(vars[0]);
        let sol = f.solve();
        assert_eq!(sol.num_true(), vars.len());
        assert_eq!(sol.derivation_order().first(), Some(&vars[0]));
        assert_eq!(sol.derivation_order().last(), Some(vars.last().unwrap()));
    }

    #[test]
    fn agrees_with_naive_on_small_cases() {
        let (f, _) = example_3_3();
        assert_eq!(f.solve().truth(), f.solve_naive().as_slice());
    }
}
