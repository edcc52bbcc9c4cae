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
        let mut f = Self::new();
        f.num_vars = vars;
        f.heads.reserve(rules);
        f.body_starts.reserve(rules + 1);
        f.body_pool.reserve(body);
        f
    }

    /// Allocates a fresh variable.
    pub fn fresh_var(&mut self) -> Var {
        let v = Var(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Ensures variables `0..n` exist (useful when variables are external
    /// dense ids, e.g. produced by an [`crate::AtomTable`]).
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
        debug_assert!(head.0 < self.num_vars, "head variable not allocated");
        debug_assert!(body.iter().all(|v| v.0 < self.num_vars));
        let id = RuleId(u32::try_from(self.heads.len()).expect("too many rules"));
        self.heads.push(head);
        self.body_pool.extend_from_slice(body);
        self.body_starts
            .push(u32::try_from(self.body_pool.len()).expect("body pool overflow"));
        id
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
    /// E3).
    pub fn initial_state(&self) -> InitialState {
        let l = self.heads.len();
        let mut size = vec![0u32; l];
        let mut rules = vec![Vec::new(); self.num_vars as usize];
        let mut queue = Vec::new();
        for (i, slot) in size.iter_mut().enumerate() {
            let r = RuleId(i as u32);
            let body = self.body(r);
            *slot = body.len() as u32;
            for &b in body {
                rules[b.index()].push(r);
            }
            if body.is_empty() {
                queue.push(self.heads[i]);
            }
        }
        InitialState {
            size,
            heads: self.heads.clone(),
            rules,
            queue,
        }
    }

    /// Minoux's algorithm (the main loop of Figure 3): computes the minimal
    /// model in time linear in [`HornFormula::size`].
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
            rules,
            queue: initial,
        } = self.initial_state();

        let mut truth = vec![false; self.num_vars as usize];
        let mut order = Vec::new();
        let mut queue = std::collections::VecDeque::with_capacity(initial.len());
        for p in initial {
            // The figure appends every fact head; we deduplicate so each
            // variable is output (and its rule list scanned) exactly once.
            if !truth[p.index()] {
                truth[p.index()] = true;
                queue.push_back(p);
            }
        }
        while let Some(p) = queue.pop_front() {
            order.push(p);
            for &r in &rules[p.index()] {
                size[r.index()] -= 1;
                if size[r.index()] == 0 {
                    let h = heads[r.index()];
                    if !truth[h.index()] {
                        truth[h.index()] = true;
                        queue.push_back(h);
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
pub struct InitialState {
    /// `size[i]`: number of body literals of rule `i` not yet resolved.
    pub size: Vec<u32>,
    /// `head[i]`: head variable of rule `i`.
    pub heads: Vec<Var>,
    /// `rules[p]`: rules in whose body `p` occurs (with multiplicity).
    pub rules: Vec<Vec<RuleId>>,
    /// Initial queue: heads of facts, in rule order.
    pub queue: Vec<Var>,
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
        assert_eq!(st.rules[vars[1].index()], vec![RuleId(3)]);
        assert_eq!(st.rules[vars[2].index()], vec![RuleId(5)]);
        assert_eq!(st.rules[vars[3].index()], vec![RuleId(4)]);
        assert_eq!(st.rules[vars[4].index()], vec![RuleId(4)]);
        assert_eq!(st.rules[vars[5].index()], vec![RuleId(5)]);
        assert!(st.rules[vars[6].index()].is_empty());
        assert_eq!(st.queue, vec![vars[1], vars[2], vars[3]]);
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
