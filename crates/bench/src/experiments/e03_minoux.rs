//! E3 — Figure 3 / Example 3.3: Minoux's algorithm, the worked trace and
//! its linear-time behavior.

use treequery_core::hornsat::{HornFormula, Var};

use crate::util::{fmt_dur, header, median_time, per_unit};

/// Builds the relabeled ground program of Example 3.3.
pub fn example_formula() -> (HornFormula, Vec<Var>) {
    let mut f = HornFormula::new();
    let v: Vec<Var> = (0..7).map(|_| f.fresh_var()).collect();
    f.add_fact(v[1]);
    f.add_fact(v[2]);
    f.add_fact(v[3]);
    f.add_rule(v[4], &[v[1]]);
    f.add_rule(v[5], &[v[3], v[4]]);
    f.add_rule(v[6], &[v[2], v[5]]);
    (f, v)
}

/// A formula stressing the queue: `m` rules forming interleaved chains.
pub fn chain_formula(m: usize) -> HornFormula {
    let mut f = HornFormula::new();
    let vars: Vec<Var> = (0..m + 1).map(|_| f.fresh_var()).collect();
    f.add_fact(vars[0]);
    for i in 1..=m {
        // Each head depends on up to two earlier variables.
        let a = vars[i - 1];
        let b = vars[i / 2];
        f.add_rule(vars[i], &[a, b]);
    }
    f
}

pub fn run() {
    header(
        "E3",
        "Figure 3 / Example 3.3 — Minoux's linear-time Horn-SAT",
    );
    let (f, _) = example_formula();
    let st = f.initial_state();
    println!("initial data structures (Example 3.3):");
    println!("  size  = {:?}", st.size);
    println!(
        "  head  = {:?}",
        st.heads.iter().map(|v| v.0).collect::<Vec<_>>()
    );
    for p in 1..st.num_vars() {
        println!(
            "  rules[{p}] = {:?}",
            st.rules_of(Var(p as u32))
                .iter()
                .map(|r| format!("r{}", r.0 + 1))
                .collect::<Vec<_>>()
        );
    }
    println!(
        "  q     = {:?}",
        st.queue.iter().map(|v| v.0).collect::<Vec<_>>()
    );
    let sol = f.solve();
    println!(
        "derivation order: {:?} (paper: 1, 2, 3, 4, 5, 6)",
        sol.derivation_order()
            .iter()
            .map(|v| v.0)
            .collect::<Vec<_>>()
    );

    println!("\nlinear-time scaling (time / formula size ≈ constant):");
    println!("{:>12} {:>12} {:>12}", "|Φ|", "time", "per literal");
    for m in [10_000usize, 40_000, 160_000, 640_000] {
        let f = chain_formula(m);
        let size = f.size() as u64;
        let d = median_time(5, || f.solve());
        println!("{size:>12} {:>12} {:>12}", fmt_dur(d), per_unit(d, size));
    }
}
