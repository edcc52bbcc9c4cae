//! Seed-deterministic, structure-aware input generators.
//!
//! Every generated input is valid by construction: trees come out of
//! [`TreeBuilder`], queries are built directly in their ASTs. The same
//! [`StdRng`] state always yields the same input, which is what makes a
//! whole campaign replayable from a single seed.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use treequery_core::cq::{Cq, CqAtom};
use treequery_core::datalog::{parse_program, Program};
use treequery_core::tree::{EditOp, TreeBuilder};
use treequery_core::xpath::{Path, Qual};
use treequery_core::{Axis, Tree};

use crate::{CaseQuery, FuzzCase};

/// Size and shape bounds for generated inputs.
///
/// The defaults keep every case cheap enough that the worst applicable
/// strategy (exponential backtracking for cyclic CQs) still runs in
/// microseconds, so a campaign's throughput is dominated by the number
/// of strategies, not by pathological single inputs.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Maximum tree size in nodes (inclusive).
    pub max_nodes: usize,
    /// Node label alphabet.
    pub alphabet: Vec<String>,
    /// Maximum nesting depth for XPath qualifier sub-paths.
    pub xpath_depth: u32,
    /// Maximum number of CQ variables.
    pub cq_max_vars: usize,
    /// Maximum number of CQ atoms.
    pub cq_max_atoms: usize,
    /// Maximum number of datalog predicates.
    pub dl_max_preds: usize,
    /// Maximum edit-script length for edit-diff cases.
    pub max_edits: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_nodes: 24,
            alphabet: vec!["a".into(), "b".into(), "c".into()],
            xpath_depth: 2,
            cq_max_vars: 3,
            cq_max_atoms: 5,
            dl_max_preds: 3,
            max_edits: 6,
        }
    }
}

impl GenConfig {
    pub(crate) fn label(&self, rng: &mut StdRng) -> String {
        self.alphabet
            .choose(rng)
            .expect("alphabet must not be empty")
            .clone()
    }
}

/// The six fuzzing categories a campaign rotates through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Category {
    /// XPath inputs cross-checked across strategies and worker counts.
    XPathDiff,
    /// CQ inputs cross-checked across strategies and worker counts.
    CqDiff,
    /// Datalog inputs cross-checked (semi-naive / naive / TMNF).
    DatalogDiff,
    /// XPath inputs checked against the metamorphic laws.
    XPathLaws,
    /// CQ inputs checked against the metamorphic laws.
    CqLaws,
    /// Edit scripts: after each op of a script the incrementally
    /// maintained document (strategies × worker counts, XASR patching,
    /// the datalog delta pass) is cross-checked against a from-scratch
    /// rebuild oracle.
    EditDiff,
}

impl Category {
    /// All categories, in campaign rotation order.
    pub const ALL: [Category; 6] = [
        Category::XPathDiff,
        Category::CqDiff,
        Category::DatalogDiff,
        Category::XPathLaws,
        Category::CqLaws,
        Category::EditDiff,
    ];

    /// The stable name used in reports and corpus file names.
    pub fn name(self) -> &'static str {
        match self {
            Category::XPathDiff => "xpath-diff",
            Category::CqDiff => "cq-diff",
            Category::DatalogDiff => "datalog-diff",
            Category::XPathLaws => "xpath-laws",
            Category::CqLaws => "cq-laws",
            Category::EditDiff => "edit-diff",
        }
    }
}

/// Generates a random tree: one of four shape families (random-attach,
/// chain, star, binary-ish), with labels drawn from the alphabet.
pub fn gen_tree(rng: &mut StdRng, cfg: &GenConfig) -> Tree {
    let n = rng.gen_range(1..=cfg.max_nodes.max(1));
    let shape = rng.gen_range(0u32..5);
    let mut b = TreeBuilder::with_capacity(n);
    let mut nodes = vec![b.root(&cfg.label(rng))];
    for i in 1..n {
        let parent = match shape {
            // Random attachment: any earlier node.
            0 | 1 => nodes[rng.gen_range(0..i)],
            // Chain: previous node.
            2 => nodes[i - 1],
            // Star: the root.
            3 => nodes[0],
            // Binary-ish: node i hangs off node i/2.
            _ => nodes[(i - 1) / 2],
        };
        nodes.push(b.child(parent, &cfg.label(rng)));
    }
    b.freeze()
}

fn gen_qual(rng: &mut StdRng, cfg: &GenConfig, depth: u32) -> Qual {
    let roll = if depth == 0 {
        0
    } else {
        rng.gen_range(0u32..10)
    };
    match roll {
        0..=4 => Qual::Label(cfg.label(rng)),
        5 | 6 => Qual::Path(gen_path(rng, cfg, depth - 1)),
        7 => Qual::Not(Box::new(gen_qual(rng, cfg, depth - 1))),
        8 => Qual::And(
            Box::new(gen_qual(rng, cfg, depth - 1)),
            Box::new(gen_qual(rng, cfg, depth - 1)),
        ),
        _ => Qual::Or(
            Box::new(gen_qual(rng, cfg, depth - 1)),
            Box::new(gen_qual(rng, cfg, depth - 1)),
        ),
    }
}

fn gen_step(rng: &mut StdRng, cfg: &GenConfig, depth: u32) -> Path {
    let axis = *Axis::ALL.choose(rng).expect("axis list is non-empty");
    let mut quals = Vec::new();
    if rng.gen_bool(0.7) {
        quals.push(Qual::Label(cfg.label(rng)));
    }
    if depth > 0 && rng.gen_bool(0.3) {
        quals.push(gen_qual(rng, cfg, depth));
    }
    Path::Step { axis, quals }
}

fn gen_path(rng: &mut StdRng, cfg: &GenConfig, depth: u32) -> Path {
    let steps = rng.gen_range(1..=3usize);
    let mut p = gen_step(rng, cfg, depth);
    for _ in 1..steps {
        p = p.then(gen_step(rng, cfg, depth));
    }
    if depth > 0 && rng.gen_bool(0.2) {
        p = p.union(gen_path(rng, cfg, depth - 1));
    }
    p
}

/// Generates a random Core XPath expression.
pub fn gen_xpath(rng: &mut StdRng, cfg: &GenConfig) -> Path {
    gen_path(rng, cfg, cfg.xpath_depth)
}

/// Generates a random conjunctive query. The first `nvars - 1` atoms
/// connect each variable to an earlier one (so the query is usually
/// connected); extra atoms may introduce cycles, labels, root/leaf
/// tests, or (rarely) a document-order constraint.
pub fn gen_cq(rng: &mut StdRng, cfg: &GenConfig) -> Cq {
    let nvars = rng.gen_range(1..=cfg.cq_max_vars.max(1));
    let mut q = Cq::new();
    let vars: Vec<_> = (0..nvars).map(|i| q.add_var(format!("x{i}"))).collect();
    for i in 1..nvars {
        let ax = *Axis::ALL.choose(rng).expect("axis list is non-empty");
        let j = rng.gen_range(0..i);
        q.atoms.push(CqAtom::Axis(ax, vars[j], vars[i]));
    }
    let extra = rng.gen_range(0..=cfg.cq_max_atoms.saturating_sub(nvars.saturating_sub(1)));
    for _ in 0..extra {
        let v = *vars.choose(rng).expect("vars is non-empty");
        let atom = match rng.gen_range(0u32..10) {
            0..=3 => CqAtom::Label(cfg.label(rng), v),
            4..=6 => {
                let w = *vars.choose(rng).expect("vars is non-empty");
                let ax = *Axis::ALL.choose(rng).expect("axis list is non-empty");
                CqAtom::Axis(ax, v, w)
            }
            7 => CqAtom::Root(v),
            8 => CqAtom::Leaf(v),
            _ => {
                let w = *vars.choose(rng).expect("vars is non-empty");
                CqAtom::PreLt(v, w)
            }
        };
        q.atoms.push(atom);
    }
    if q.atoms.is_empty() {
        q.atoms.push(CqAtom::Label(cfg.label(rng), vars[0]));
    }
    for &v in &vars {
        if rng.gen_bool(0.5) {
            q.head.push(v);
        }
    }
    q
}

/// Generates a random monadic datalog program by emitting source text
/// and parsing it — the parser is the arbiter of validity, so generated
/// programs exercise exactly the surface syntax users write.
pub fn gen_datalog(rng: &mut StdRng, cfg: &GenConfig) -> Program {
    let npreds = rng.gen_range(1..=cfg.dl_max_preds.max(1));
    let mut text = String::new();
    for i in 0..npreds {
        let nrules = rng.gen_range(1..=2usize);
        for _ in 0..nrules {
            let j = rng.gen_range(0..npreds);
            let k = rng.gen_range(0..npreds);
            let body = match rng.gen_range(0u32..14) {
                0 | 1 => format!("label(X, {})", cfg.label(rng)),
                2 => "leaf(X)".to_owned(),
                3 => "root(X)".to_owned(),
                4 => format!("firstchild(X, Y), P{j}(Y)"),
                5 => format!("nextsibling(X, Y), P{j}(Y)"),
                6 => format!("child(X, Y), P{j}(Y)"),
                7 => format!("P{j}(X), label(X, {})", cfg.label(rng)),
                8 => "dom(X)".to_owned(),
                9 => format!("firstsibling(X), P{j}(X)"),
                10 => format!("lastsibling(X), notlabel(X, {})", cfg.label(rng)),
                11 => format!("P{j}(X), notlabel(X, {})", cfg.label(rng)),
                // Two intensional atoms: one at the head node, one at a
                // structural neighbor.
                12 => format!("P{j}(X), nextsibling(X, Y), P{k}(Y)"),
                _ => format!("firstchild(X, Y), P{j}(Y), P{k}(X)"),
            };
            text.push_str(&format!("P{i}(X) :- {body}.\n"));
        }
    }
    text.push_str(&format!("?- P{}.\n", rng.gen_range(0..npreds)));
    parse_program(&text).expect("generated program must parse")
}

/// Generates a random edit script. Addresses are raw `u32`s: the total
/// [`treequery_core::tree::EditOp::normalize`] semantics folds them onto
/// whatever tree the script meets, so scripts survive tree mutation and
/// shrinking without re-validation.
pub fn gen_edit_script(rng: &mut StdRng, cfg: &GenConfig) -> Vec<EditOp> {
    let k = rng.gen_range(1..=cfg.max_edits.max(1));
    let addr_bound = (4 * cfg.max_nodes.max(1)) as u32;
    (0..k)
        .map(|_| match rng.gen_range(0u32..4) {
            // Inserts twice as likely: they keep shrinking scripts from
            // draining the tree to a bare root.
            0 | 1 => EditOp::InsertLeaf {
                parent_pre: rng.gen_range(0..addr_bound),
                child_idx: rng.gen_range(0..4),
                label: cfg.label(rng),
            },
            2 => EditOp::DeleteSubtree {
                pre: rng.gen_range(0..addr_bound),
            },
            _ => EditOp::Relabel {
                pre: rng.gen_range(0..addr_bound),
                label: cfg.label(rng),
            },
        })
        .collect()
}

/// Generates one complete case for a category.
pub fn gen_case(rng: &mut StdRng, cfg: &GenConfig, cat: Category) -> FuzzCase {
    let tree = gen_tree(rng, cfg);
    let query = match cat {
        Category::XPathDiff | Category::XPathLaws => CaseQuery::XPath(gen_xpath(rng, cfg)),
        Category::CqDiff | Category::CqLaws => CaseQuery::Cq(gen_cq(rng, cfg)),
        Category::DatalogDiff => CaseQuery::Datalog(gen_datalog(rng, cfg)),
        // Edit scripts rotate through all three front-ends, so every
        // language's strategies get re-checked against mutated documents.
        Category::EditDiff => match rng.gen_range(0u32..3) {
            0 => CaseQuery::XPath(gen_xpath(rng, cfg)),
            1 => CaseQuery::Cq(gen_cq(rng, cfg)),
            _ => CaseQuery::Datalog(gen_datalog(rng, cfg)),
        },
    };
    let edits = if cat == Category::EditDiff {
        gen_edit_script(rng, cfg)
    } else {
        Vec::new()
    };
    FuzzCase { tree, query, edits }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn generators_are_seed_deterministic() {
        let cfg = GenConfig::default();
        for cat in Category::ALL {
            let a = gen_case(&mut StdRng::seed_from_u64(42), &cfg, cat);
            let b = gen_case(&mut StdRng::seed_from_u64(42), &cfg, cat);
            assert_eq!(
                treequery_core::tree::to_term(&a.tree),
                treequery_core::tree::to_term(&b.tree)
            );
            assert_eq!(a.query.to_string(), b.query.to_string());
            assert_eq!(a.edits, b.edits);
        }
    }

    #[test]
    fn edit_scripts_respect_bounds_and_only_edit_diff_has_them() {
        let cfg = GenConfig::default();
        let mut rng = StdRng::seed_from_u64(6);
        for i in 0..120 {
            let cat = Category::ALL[i % Category::ALL.len()];
            let case = gen_case(&mut rng, &cfg, cat);
            if cat == Category::EditDiff {
                assert!(!case.edits.is_empty() && case.edits.len() <= cfg.max_edits);
            } else {
                assert!(case.edits.is_empty());
            }
        }
    }

    #[test]
    fn generated_trees_respect_bounds() {
        let cfg = GenConfig::default();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let t = gen_tree(&mut rng, &cfg);
            assert!(!t.is_empty() && t.len() <= cfg.max_nodes);
        }
    }

    #[test]
    fn generated_queries_lower_cleanly() {
        let cfg = GenConfig::default();
        let mut rng = StdRng::seed_from_u64(2);
        for i in 0..100 {
            let cat = Category::ALL[i % Category::ALL.len()];
            let case = gen_case(&mut rng, &cfg, cat);
            let ir = case.query.lower();
            assert!(!treequery_core::applicable_strategies(&ir).is_empty());
        }
    }
}
