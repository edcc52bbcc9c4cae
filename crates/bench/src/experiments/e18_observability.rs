//! E18 — observability: measured span counts vs the paper's predicted
//! bounds, and the disabled-span overhead budget.
//!
//! Three validations on synthetic workloads:
//!
//! 1. **Semijoin passes.** For an acyclic CQ the Yannakakis full reducer
//!    runs exactly `2·|atoms|` semijoin passes (one bottom-up, one
//!    top-down sweep over the join forest); `explain_analyze`'s measured
//!    counter must equal that bound for every generated chain query.
//! 2. **Horn-SAT linearity (Theorem 3.2).** Grounding a fixed monadic
//!    datalog program over trees of doubling size must produce Horn
//!    formulas whose size — the quantity Minoux's algorithm is linear in
//!    — grows proportionally to the tree: the measured
//!    `hornsat.solve.formula_size` per node stays constant.
//! 3. **Noop overhead.** With no capture alive a span is one relaxed
//!    atomic load; the instrumented hot loop must run within a few
//!    percent of the uninstrumented one (the budget `ci.sh` enforces via
//!    `--check-noop-overhead`).

use rand::rngs::StdRng;
use rand::SeedableRng;
use treequery_core::obs;
use treequery_core::tree::random_recursive_tree;
use treequery_core::{Engine, Query, Strategy};

use crate::util::{fmt_dur, header};

/// Builds the chain CQ `q(x0) :- child(x0,x1), …, child(x_{k-1},x_k).`
/// — acyclic with exactly `k` atoms.
fn chain_cq(k: usize) -> String {
    let body: Vec<String> = (0..k).map(|i| format!("child(x{i}, x{})", i + 1)).collect();
    format!("q(x0) :- {}.", body.join(", "))
}

const DATALOG_PROG: &str = "P(x) :- label(x, a). \
     P(x0) :- firstchild(x0, x), P(x). \
     P(x0) :- nextsibling(x0, x), P(x). \
     ?- P.";

/// Result of the disabled-path overhead measurement.
#[derive(Clone, Copy, Debug)]
pub struct NoopOverhead {
    /// Instrumented / uninstrumented wall-time ratio (1.0 = free).
    pub ratio: f64,
    /// Absolute per-span cost of the disabled path, in nanoseconds.
    pub per_span_ns: f64,
}

#[inline(never)]
fn payload(seed: u64) -> u64 {
    let mut acc = seed | 1;
    for i in 0..128u64 {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i ^ seed);
    }
    acc
}

fn time_loop(iters: u64, instrumented: bool) -> std::time::Duration {
    let started = std::time::Instant::now();
    let mut acc = 0u64;
    for i in 0..iters {
        if instrumented {
            let _span = obs::span("bench.noop");
            acc ^= payload(i);
        } else {
            acc ^= payload(i);
        }
    }
    std::hint::black_box(acc);
    started.elapsed()
}

/// Measures the disabled-span overhead: the same arithmetic hot loop with
/// and without a span guard per iteration, medians over several reps,
/// under an empty query context (so a harness report's capture neither
/// records the loop's spans nor times them). With no capture alive
/// anywhere this is the one-relaxed-load disabled path; under
/// `--report`, the report's capture is alive, and it is the path a
/// thread outside every capture takes.
pub fn noop_overhead() -> NoopOverhead {
    obs::QueryCtx::default().enter(measure_noop_overhead)
}

fn measure_noop_overhead() -> NoopOverhead {
    const ITERS: u64 = 100_000;
    const REPS: usize = 9;
    // Warm both paths once before measuring.
    time_loop(ITERS / 10, true);
    time_loop(ITERS / 10, false);
    // Interleave instrumented/plain reps so frequency drift hits both
    // sides alike, and keep the minimum of each: the least-disturbed rep
    // is the closest estimate of the true per-iteration cost.
    let mut plain = std::time::Duration::MAX;
    let mut instrumented = std::time::Duration::MAX;
    for _ in 0..REPS {
        plain = plain.min(time_loop(ITERS, false));
        instrumented = instrumented.min(time_loop(ITERS, true));
    }
    let ratio = instrumented.as_secs_f64() / plain.as_secs_f64().max(1e-12);
    let per_span_ns =
        (instrumented.as_secs_f64() - plain.as_secs_f64()).max(0.0) * 1e9 / ITERS as f64;
    NoopOverhead { ratio, per_span_ns }
}

/// Measures the span cost with the flight recorder *installed* but no
/// query in scope — the flag is set, so spans take the slow path, find no
/// current query, and come back inert. `--check-noop-overhead` reports
/// this informationally alongside the gated disabled-path measurement.
pub fn flight_idle_overhead() -> NoopOverhead {
    obs::flight::install(obs::flight::FlightConfig::default());
    let measured = noop_overhead();
    obs::flight::uninstall();
    measured
}

pub fn run() {
    header("E18", "observability: measured spans vs predicted bounds");
    let mut rng = StdRng::seed_from_u64(18);
    let alphabet = ["a", "b", "c", "d"];

    // (1) semijoin passes = 2·|atoms| on acyclic chain queries.
    let t = random_recursive_tree(&mut rng, 20_000, &alphabet);
    let e = Engine::new(&t);
    println!("\nsemijoin passes on acyclic chains ({} nodes):", t.len());
    println!(
        "{:>6} {:>10} {:>10} {:>12} {:>8}",
        "atoms", "predicted", "measured", "candidates", "ok"
    );
    for k in [1usize, 2, 3, 5, 8] {
        let analyzed = e.explain_analyze(&Query::cq(chain_cq(k))).unwrap();
        assert_eq!(
            analyzed.plan.strategy,
            Strategy::CqAcyclic,
            "chain queries are acyclic"
        );
        let predicted = 2 * k as u64;
        let measured = analyzed.counters.semijoin_passes;
        assert_eq!(
            measured, predicted,
            "Yannakakis full reducer runs 2·|atoms| semijoin passes"
        );
        println!(
            "{:>6} {:>10} {:>10} {:>12} {:>8}",
            k, predicted, measured, analyzed.counters.candidate_nodes, "✓"
        );
    }

    // (2) Horn-SAT work is linear in tree size (Theorem 3.2): the ground
    // formula size per node stays constant as the tree doubles.
    println!("\nHorn-SAT work vs tree size (fixed datalog program):");
    println!(
        "{:>8} {:>14} {:>12} {:>10}",
        "nodes", "formula size", "size/node", "derived"
    );
    let mut ratios: Vec<f64> = Vec::new();
    for n in [4_000usize, 8_000, 16_000, 32_000] {
        let t = random_recursive_tree(&mut rng, n, &alphabet);
        let e = Engine::new(&t);
        let analyzed = e.explain_analyze(&Query::datalog(DATALOG_PROG)).unwrap();
        let solve = analyzed
            .stages
            .iter()
            .find(|s| s.name == "hornsat.solve")
            .expect("datalog route runs Minoux");
        let field = |key: &str| {
            solve
                .fields
                .iter()
                .find(|(k, _)| *k == key)
                .map_or(0, |(_, v)| *v)
        };
        let size = field("formula_size");
        let ratio = size as f64 / t.len() as f64;
        ratios.push(ratio);
        println!(
            "{:>8} {:>14} {:>12.2} {:>10}",
            t.len(),
            size,
            ratio,
            field("derived")
        );
    }
    let (min, max) = ratios
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &r| (lo.min(r), hi.max(r)));
    assert!(
        max / min < 1.5,
        "ground formula size must be linear in tree size (per-node ratio \
         spread {min:.2}..{max:.2})"
    );
    println!(
        "per-node ratio spread {:.2}..{:.2} (linear: stays within 1.5x) ✓",
        min, max
    );

    // (3) the disabled-span overhead budget.
    let overhead = noop_overhead();
    println!(
        "\ndisabled-span overhead: {:.2}% on the hot loop \
         ({:.2}ns per span; budget enforced by --check-noop-overhead)",
        (overhead.ratio - 1.0) * 100.0,
        overhead.per_span_ns
    );

    let sample = "//a[b]/c";
    let analyzed = e.explain_analyze(&Query::xpath(sample)).unwrap();
    println!("\nsample EXPLAIN ANALYZE ({sample}):");
    print!("{}", analyzed.render());
    println!(
        "\nspan counts match the paper's bounds; tracing is free when \
         disabled and {} when collecting.",
        fmt_dur(std::time::Duration::from_nanos(analyzed.total_ns))
    );
    crate::report::submit_metrics("e18", e.metrics().to_json());
}

#[cfg(test)]
mod tests {
    use super::*;
    use treequery_core::parse_term;

    #[test]
    fn chain_queries_have_exactly_k_atoms_and_validate_the_bound() {
        let t = parse_term("r(a(b(c)) a(b) d)").unwrap();
        let e = Engine::new(&t);
        for k in [1usize, 2, 4] {
            let analyzed = e.explain_analyze(&Query::cq(chain_cq(k))).unwrap();
            assert_eq!(analyzed.plan.strategy, Strategy::CqAcyclic);
            assert_eq!(analyzed.counters.semijoin_passes, 2 * k as u64);
        }
    }

    #[test]
    fn hornsat_span_reports_formula_size() {
        let t = parse_term("r(a(b) a b)").unwrap();
        let e = Engine::new(&t);
        let analyzed = e.explain_analyze(&Query::datalog(DATALOG_PROG)).unwrap();
        let solve = analyzed
            .stages
            .iter()
            .find(|s| s.name == "hornsat.solve")
            .expect("hornsat.solve span recorded");
        let size = solve
            .fields
            .iter()
            .find(|(k, _)| *k == "formula_size")
            .map(|(_, v)| *v)
            .unwrap();
        assert!(size > 0);
    }
}
