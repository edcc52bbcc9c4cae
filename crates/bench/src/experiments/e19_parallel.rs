//! E19 — intra-query parallelism: speedup scaling of the shared-pool
//! kernels over their sequential counterparts, with the parallel output
//! asserted identical (same bytes, same order) to sequential inside the
//! experiment.
//!
//! Two workloads, both at ≥64k nodes: the E12 structural join (chunked
//! Stack-Tree-Desc with stitched stack seeds) and a descendant sweep over
//! the E10 XMark document run through the engine with the worker count
//! pinned to 1 / 2 / 4. The sweep is a two-phase range kernel, so the
//! planner keeps it sequential at 2 workers and fans out at 4.

use treequery_core::plan::par::par_stack_tree_join;
use treequery_core::storage::stack_tree_join;
use treequery_core::{Engine, EngineConfig, Metrics, PlannerConfig};

use super::{e10_xpath_cq, e12_structural};
use crate::util::{fmt_dur, header, median_time};

const JOIN_NODES: usize = 65_536;

/// A query whose second step is a `descendant` (carry-axis) sweep: the
/// kernel that can fan out. E10's own query uses only local axes, which
/// never do.
const SWEEP_QUERY: &str = "//open_auction//bidder";

fn machine_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn engine_config(workers: usize) -> EngineConfig {
    EngineConfig {
        planner: PlannerConfig {
            workers: Some(workers),
            ..PlannerConfig::default()
        },
        ..EngineConfig::default()
    }
}

pub fn run() {
    header(
        "E19",
        "intra-query parallelism — speedup scaling on the shared pool",
    );
    let cores = machine_parallelism();
    println!("machine parallelism: {cores} (the 2x-at-4-workers gate applies at >= 4 cores)");

    // Workload 1: the E12 structural-join inputs.
    let (_t, x) = e12_structural::workload(JOIN_NODES);
    let la = x.label_list("a");
    let lb = x.label_list("b");
    let seq_out = stack_tree_join(la, lb);
    let seq = median_time(3, || stack_tree_join(la, lb));
    println!(
        "\nE12 structural join: {JOIN_NODES} nodes, {} ancestors x {} descendants, {} output pairs",
        la.len(),
        lb.len(),
        seq_out.len()
    );
    println!("{:>9} {:>12} {:>9}", "workers", "time", "speedup");
    println!("{:>9} {:>12} {:>9}", 1, fmt_dur(seq), "1.00x");
    for w in [2usize, 4] {
        let m = Metrics::default();
        let par_out = par_stack_tree_join(la, lb, w, &m);
        assert_eq!(
            par_out, seq_out,
            "parallel join output must equal sequential at {w} workers"
        );
        let t = median_time(3, || par_stack_tree_join(la, lb, w, &m));
        let speedup = seq.as_secs_f64() / t.as_secs_f64();
        println!("{w:>9} {:>12} {speedup:>8.2}x", fmt_dur(t));
        if w == 4 && cores >= 4 {
            assert!(
                speedup >= 2.0,
                "expected >= 2x speedup at 4 workers on {cores} cores, got {speedup:.2}x"
            );
        }
    }

    // Workload 2: a carry-axis sweep over the E10 document through the
    // engine, with the worker count pinned per engine.
    let doc = e10_xpath_cq::doc(80_000);
    assert!(doc.len() >= 64_000, "XMark document too small");
    let query = SWEEP_QUERY;
    let sequential = Engine::with_config(&doc, engine_config(1));
    let seq_nodes = sequential.xpath(query).unwrap();
    let seq = median_time(3, || sequential.xpath(query).unwrap());
    println!(
        "\nE10 XPath sweep: {} nodes, query {query}, {} result nodes",
        doc.len(),
        seq_nodes.len()
    );
    println!("{:>9} {:>12} {:>9}", "workers", "time", "speedup");
    println!("{:>9} {:>12} {:>9}", 1, fmt_dur(seq), "1.00x");
    for w in [2usize, 4] {
        let engine = Engine::with_config(&doc, engine_config(w));
        let par_nodes = engine.xpath(query).unwrap();
        assert_eq!(
            par_nodes, seq_nodes,
            "parallel XPath result must equal sequential (same order) at {w} workers"
        );
        let t = median_time(3, || engine.xpath(query).unwrap());
        let speedup = seq.as_secs_f64() / t.as_secs_f64();
        let kernels = engine.metrics().parallel_kernels;
        // A two-phase range sweep needs three workers to pay (plan::fanout).
        assert_eq!(
            kernels > 0,
            w >= 3,
            "{w} workers dispatched {kernels} parallel kernels"
        );
        println!("{w:>9} {:>12} {speedup:>8.2}x", fmt_dur(t));
        if w == 4 && cores >= 4 {
            assert!(
                speedup >= 2.0,
                "expected >= 2x speedup at 4 workers on {cores} cores, got {speedup:.2}x"
            );
        }
    }
    println!("parallel output is asserted identical to sequential in both workloads.");
}
