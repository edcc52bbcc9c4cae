//! The paper's worked examples, figures and tables, asserted end to end.

use treequery::{cq, parse_term, Axis, Order};

/// Figure 2: the XASR of the example tree, cell by cell.
#[test]
fn figure_2_xasr() {
    use treequery::storage::Xasr;
    let t = parse_term("a(b(a c) a(b d))").unwrap();
    let x = Xasr::from_tree(&t);
    let expected: [(u32, u32, Option<u32>, &str); 7] = [
        (1, 7, None, "a"),
        (2, 3, Some(1), "b"),
        (3, 1, Some(2), "a"),
        (4, 2, Some(2), "c"),
        (5, 6, Some(1), "a"),
        (6, 4, Some(5), "b"),
        (7, 5, Some(5), "d"),
    ];
    for (row, e) in x.rows().iter().zip(expected) {
        assert_eq!((row.pre, row.post, row.parent_pre, row.label.as_str()), e);
    }
}

/// Example 3.3: Minoux's data structures and derivation, exactly as
/// printed in the paper.
#[test]
fn example_3_3_minoux_trace() {
    use treequery::hornsat::{HornFormula, RuleId};
    let mut f = HornFormula::new();
    let v: Vec<_> = (0..7).map(|_| f.fresh_var()).collect();
    f.add_fact(v[1]); // r1: 1 ←
    f.add_fact(v[2]); // r2: 2 ←
    f.add_fact(v[3]); // r3: 3 ←
    f.add_rule(v[4], &[v[1]]); // r4: 4 ← 1
    f.add_rule(v[5], &[v[3], v[4]]); // r5: 5 ← 3, 4
    f.add_rule(v[6], &[v[2], v[5]]); // r6: 6 ← 2, 5
    let st = f.initial_state();
    assert_eq!(st.size, vec![0, 0, 0, 1, 2, 2]);
    assert_eq!(st.queue, vec![v[1], v[2], v[3]]);
    assert_eq!(st.rules_of(v[1]), [RuleId(3)]);
    let sol = f.solve();
    assert_eq!(
        sol.derivation_order(),
        &[v[1], v[2], v[3], v[4], v[5], v[6]]
    );
}

/// Table 1, validated exhaustively: for each axis pair (R, S), the
/// satisfiability of `R(x, z) ∧ S(y, z) ∧ x <pre y` over *all* ordered
/// trees with up to 5 nodes matches the paper's table (the witnesses the
/// table's "sat" entries need are at most 4 nodes).
#[test]
fn table_1_exhaustive() {
    use treequery::tree::all_trees;
    let axes = [
        Axis::Child,
        Axis::Descendant,
        Axis::NextSibling,
        Axis::FollowingSibling,
    ];
    for r in axes {
        for s in axes {
            let expected = cq::sat_table(r, s);
            let mut found = false;
            'outer: for n in 1..=5 {
                for t in all_trees(n, "x") {
                    for x in t.nodes() {
                        for y in t.nodes() {
                            for z in t.nodes() {
                                if t.pre(x) < t.pre(y) && r.holds(&t, x, z) && s.holds(&t, y, z) {
                                    found = true;
                                    break 'outer;
                                }
                            }
                        }
                    }
                }
            }
            assert_eq!(found, expected, "Table 1 cell ({}, {})", r.name(), s.name());
        }
    }
}

/// Figure 4: the (Child, NextSibling) graph of the figure's 15-node tree
/// has a valid width-2 decomposition.
#[test]
fn figure_4_tree_width_two() {
    use treequery::cq::decomposition::{decompose_tree_structure, exact_treewidth, Graph};
    let t = parse_term("v1(v2(v3 v4) v5(v6(v7 v8) v9(v10)) v11(v12) v13(v14 v15))").unwrap();
    let g = Graph::of_tree_structure(&t);
    let d = decompose_tree_structure(&t);
    assert!(d.is_valid_for(&g));
    assert_eq!(d.width(), 2);
    // And a tree with ≥ 2 consecutive siblings needs width exactly 2.
    let small = parse_term("a(b c)").unwrap();
    assert_eq!(exact_treewidth(&Graph::of_tree_structure(&small)), 2);
}

/// Proposition 6.6 / Figure 5: the complete axis × order X-property
/// matrix, exhaustively over all trees with ≤ 6 nodes, matches the
/// dichotomy classifier's table.
#[test]
fn proposition_6_6_matrix() {
    use treequery::cq::dichotomy::axis_compatible;
    use treequery::cq::x_property_counterexample;
    use treequery::tree::all_trees;
    let forward = [
        Axis::Child,
        Axis::Descendant,
        Axis::DescendantOrSelf,
        Axis::NextSibling,
        Axis::FollowingSibling,
        Axis::FollowingSiblingOrSelf,
        Axis::Following,
    ];
    for axis in forward {
        for order in Order::ALL {
            let claimed = axis_compatible(axis, order);
            let counterexample_exists = (1..=7).any(|n| {
                all_trees(n, "x")
                    .iter()
                    .any(|t| x_property_counterexample(t, axis, order).is_some())
            });
            assert_eq!(
                claimed,
                !counterexample_exists,
                "{} vs {}",
                axis.name(),
                order
            );
        }
    }
}

/// Example 6.1: an arc-consistent pre-valuation without a consistent
/// valuation.
#[test]
fn example_6_1() {
    use std::collections::BTreeSet;
    use treequery::cq::relational::{
        example_6_1, is_satisfiable_generic, max_arc_consistent_hornsat,
    };
    let (q, a) = example_6_1();
    let theta = max_arc_consistent_hornsat(&q, &a).expect("arc-consistent");
    assert_eq!(theta[0], BTreeSet::from([1, 3]));
    assert_eq!(theta[1], BTreeSet::from([2, 4]));
    assert!(!is_satisfiable_generic(&q, &a));
}

/// Figure 6 / Proposition 6.9: enumeration over the reduced sets never
/// dead-ends.
#[test]
fn figure_6_backtrack_free() {
    use treequery::cq::Enumerator;
    let t = parse_term("r(a(b(c) b) a(c(b)) b(a))").unwrap();
    for qs in [
        "q(x) :- label(x, a), child+(x, y), label(y, b), child(y, z).",
        "q(x, y) :- following(x, y), label(y, b).",
    ] {
        let q = cq::parse_cq(qs).unwrap();
        let e = Enumerator::new(&q, &t).unwrap();
        let stats = e.count();
        assert_eq!(stats.dead_branches, 0, "{qs}");
    }
}

/// The Example 3.1 program (with the prose corrected to "descendant
/// labeled L" — see crates/datalog) evaluated through the engine.
#[test]
fn example_3_1_program() {
    use treequery::Engine;
    let t = parse_term("r(L(a) b(L) c)").unwrap();
    let e = Engine::new(&t);
    let result = e
        .datalog(
            "P0(x) :- label(x, L).
             P0(x0) :- nextsibling(x0, x), P0(x).
             P(x0) :- firstchild(x0, x), P0(x).
             P0(x) :- P(x).
             ?- P.",
        )
        .unwrap();
    // Nodes with a proper descendant labeled L: the root and b.
    let labels: Vec<_> = result.iter().map(|&v| t.label_name(v)).collect();
    assert_eq!(labels, ["r", "b"]);
}
