//! `EXPLAIN ANALYZE`: the planner's rationale merged with what one
//! measured run actually did — per-stage wall time from `treequery-obs`
//! spans plus a consistent work-counter delta.
//!
//! [`crate::Engine::explain_analyze`] runs the query once under its own
//! span capture ([`treequery_obs::capture`]), diffs
//! [`Metrics`](super::Metrics) snapshots around the run (using the
//! quiesced read so single-query numbers are never torn), and returns an
//! [`AnalyzedPlan`]: the [`ExplainedPlan`] the planner produced, the
//! measured [`StageStats`] per span name, the counter delta, and the
//! answer itself. [`AnalyzedPlan::render`] prints a Postgres-style tree;
//! [`AnalyzedPlan::to_json`] is the machine-readable form the harness
//! report embeds.

use treequery_obs::alloc::ScopeStats;
use treequery_obs::{Json, SpanSummary};

use super::exec::{MetricsSnapshot, QueryOutput};
use super::planner::ExplainedPlan;

/// Allocator activity attributed to one stage (self-exclusive: bytes a
/// nested stage allocated are charged to the nested stage, mirroring how
/// span self-time would read).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageMem {
    /// Heap allocations made while the stage's scope was innermost.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
    /// High-water mark of the stage's own live bytes (allocated minus
    /// freed within the scope).
    pub peak_live: u64,
}

impl StageMem {
    fn from_scope(s: &ScopeStats) -> StageMem {
        StageMem {
            allocs: s.allocs,
            bytes: s.bytes,
            peak_live: s.peak_live,
        }
    }
}

/// Measured behaviour of one span name during an analyzed run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageStats {
    /// The span name (e.g. `exec.semijoin`).
    pub name: &'static str,
    /// How many spans with this name closed during the run.
    pub calls: u64,
    /// Total wall time across those spans, in nanoseconds.
    pub total_ns: u64,
    /// Smallest nesting depth the stage was observed at (drives the
    /// renderer's indentation).
    pub depth: u32,
    /// Sums of the stage's structured `u64` fields (node counts,
    /// candidate-set sizes, …), by key.
    pub fields: Vec<(&'static str, u64)>,
    /// Allocator activity attributed to the stage, when the run was
    /// accounted (an `AllocScope` with the same name closed during it).
    pub mem: Option<StageMem>,
}

impl StageStats {
    fn from_summary(s: &SpanSummary) -> StageStats {
        StageStats {
            name: s.name,
            calls: s.calls,
            total_ns: s.total_ns,
            depth: s.depth,
            fields: s.field_sums.clone(),
            mem: None,
        }
    }

    /// The stage as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut fields = Json::obj();
        for (k, v) in &self.fields {
            fields = fields.set(*k, *v);
        }
        let mut obj = Json::obj()
            .set("name", self.name)
            .set("calls", self.calls)
            .set("total_ns", self.total_ns)
            .set("fields", fields);
        if let Some(mem) = &self.mem {
            obj = obj.set(
                "mem",
                Json::obj()
                    .set("allocs", mem.allocs)
                    .set("bytes", mem.bytes)
                    .set("peak_live", mem.peak_live),
            );
        }
        obj
    }
}

/// The result of `EXPLAIN ANALYZE`: predicted plan + measured run.
#[derive(Clone, Debug, PartialEq)]
pub struct AnalyzedPlan {
    /// The query text, as submitted.
    pub query: String,
    /// What the planner predicted (strategy, cost class, estimate,
    /// rationale).
    pub plan: ExplainedPlan,
    /// End-to-end wall time of the analyzed run, in nanoseconds.
    pub total_ns: u64,
    /// Number of result rows (nodes or tuples).
    pub output_rows: u64,
    /// Per-stage measured wall time and work, in first-seen order.
    pub stages: Vec<StageStats>,
    /// The executor counter delta attributable to this run (quiesced
    /// reads; consistent for single-query runs).
    pub counters: MetricsSnapshot,
    /// The answer the analyzed run produced.
    pub output: QueryOutput,
}

/// Renders nanoseconds with a stable unit ladder (deterministic given the
/// value, so the golden test can pin exact output).
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl AnalyzedPlan {
    /// The Postgres-`EXPLAIN ANALYZE`-style text form: the plan header
    /// with its rationale, the measured stage tree (indented by span
    /// depth), and the non-zero work counters.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "EXPLAIN ANALYZE [{}] {}\n",
            self.plan.source,
            self.query.trim()
        ));
        out.push_str(&format!(
            "Plan: {}  (cost {}, estimated {} node-touches)\n",
            self.plan.strategy, self.plan.cost, self.plan.estimated_work
        ));
        out.push_str(&format!("  rationale: {}\n", self.plan.rationale));
        out.push_str(&format!("  parallel: {}\n", self.plan.parallel_rationale));
        out.push_str(&format!(
            "Measured: total {}, {} output row(s)\n",
            fmt_ns(self.total_ns),
            self.output_rows
        ));
        let base_depth = self.stages.iter().map(|s| s.depth).min().unwrap_or(0);
        for stage in &self.stages {
            let indent = "  ".repeat((stage.depth - base_depth) as usize + 1);
            out.push_str(&format!(
                "{indent}-> {}  (calls={}, time={})",
                stage.name,
                stage.calls,
                fmt_ns(stage.total_ns)
            ));
            if !stage.fields.is_empty() {
                let fields: Vec<String> = stage
                    .fields
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect();
                out.push_str(&format!("  [{}]", fields.join(", ")));
            }
            if let Some(mem) = &stage.mem {
                out.push_str(&format!(
                    "  [mem: bytes={}, allocs={}, peak={}]",
                    mem.bytes, mem.allocs, mem.peak_live
                ));
            }
            out.push('\n');
        }
        let counters = self.counters.to_json();
        let nonzero: Vec<String> = match &counters {
            // `quiesce_retries` is read metadata, not pipeline work; it
            // renders in the quiescence suffix instead of the counter
            // list.
            Json::Obj(fields) => fields
                .iter()
                .filter(|(k, v)| k != "quiesce_retries" && v.as_u64().is_some_and(|v| v > 0))
                .map(|(k, v)| format!("{k}={}", v.as_u64().unwrap_or(0)))
                .collect(),
            _ => Vec::new(),
        };
        let quiescence = if self.counters.torn {
            format!(
                "  [torn after {} retries: counters did not quiesce; cross-counter consistency not guaranteed]",
                self.counters.quiesce_retries
            )
        } else if self.counters.quiesce_retries > 0 {
            format!(
                "  [quiesced after {} retries]",
                self.counters.quiesce_retries
            )
        } else {
            String::new()
        };
        out.push_str(&format!(
            "Counters: {}{}\n",
            if nonzero.is_empty() {
                "(all zero)".to_owned()
            } else {
                nonzero.join(" ")
            },
            quiescence
        ));
        out
    }

    /// The analyzed plan as one JSON object (embedded by
    /// `harness --report`).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("query", self.query.as_str())
            .set("plan", self.plan.to_json())
            .set("total_ns", self.total_ns)
            .set("output_rows", self.output_rows)
            .set(
                "stages",
                Json::Arr(self.stages.iter().map(StageStats::to_json).collect()),
            )
            .set("counters", self.counters.to_json())
    }
}

/// Builds an [`AnalyzedPlan`] from the pieces `explain_analyze` gathered:
/// span summaries become stages, and allocator scope totals are joined
/// onto them by stage name (scopes and spans share the naming scheme).
pub(crate) fn assemble(
    query: String,
    plan: ExplainedPlan,
    total_ns: u64,
    output: QueryOutput,
    stages: &[SpanSummary],
    mem_totals: &[(&'static str, ScopeStats)],
    counters: MetricsSnapshot,
) -> AnalyzedPlan {
    let output_rows = match &output {
        QueryOutput::Nodes(v) => v.len() as u64,
        QueryOutput::Answer(a) => a.tuples.len() as u64,
    };
    let stages = stages
        .iter()
        .map(|s| {
            let mut stage = StageStats::from_summary(s);
            stage.mem = mem_totals
                .iter()
                .find(|(name, _)| *name == s.name)
                .map(|(_, scope)| StageMem::from_scope(scope));
            stage
        })
        .collect();
    AnalyzedPlan {
        query,
        plan,
        total_ns,
        output_rows,
        stages,
        counters,
        output,
    }
}

impl ExplainedPlan {
    /// The plan rationale as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("source", self.source.to_string())
            .set("strategy", self.strategy.to_string())
            .set("cost", self.cost.to_string())
            .set("estimated_work", self.estimated_work)
            .set("rationale", self.rationale.as_str())
            .set("workers", self.workers as u64)
            .set("parallel", self.parallel_rationale.as_str())
            .set("query_fingerprint", self.query_fingerprint)
    }
}

impl MetricsSnapshot {
    /// The counters as a JSON object (field order fixed, all fields
    /// present — reports stay diffable across runs).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("queries_lowered", self.queries_lowered)
            .set("plans_computed", self.plans_computed)
            .set("plan_cache_hits", self.plan_cache_hits)
            .set("plan_cache_misses", self.plan_cache_misses)
            .set("queries_executed", self.queries_executed)
            .set("queries_cancelled", self.queries_cancelled)
            .set("batch_queries", self.batch_queries)
            .set("semijoin_passes", self.semijoin_passes)
            .set("candidate_nodes", self.candidate_nodes)
            .set("union_parts", self.union_parts)
            .set("nodes_swept", self.nodes_swept)
            .set("backtrack_assignments", self.backtrack_assignments)
            .set("parallel_kernels", self.parallel_kernels)
            .set("parallel_chunks", self.parallel_chunks)
            .set("parallel_declined_busy", self.parallel_declined_busy)
            .set("quiesce_retries", self.quiesce_retries)
            .set("torn", self.torn)
    }

    /// Field-wise saturating difference `self - earlier`: the work done
    /// between two snapshots.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            queries_lowered: self.queries_lowered.saturating_sub(earlier.queries_lowered),
            plans_computed: self.plans_computed.saturating_sub(earlier.plans_computed),
            plan_cache_hits: self.plan_cache_hits.saturating_sub(earlier.plan_cache_hits),
            plan_cache_misses: self
                .plan_cache_misses
                .saturating_sub(earlier.plan_cache_misses),
            queries_executed: self
                .queries_executed
                .saturating_sub(earlier.queries_executed),
            queries_cancelled: self
                .queries_cancelled
                .saturating_sub(earlier.queries_cancelled),
            batch_queries: self.batch_queries.saturating_sub(earlier.batch_queries),
            semijoin_passes: self.semijoin_passes.saturating_sub(earlier.semijoin_passes),
            candidate_nodes: self.candidate_nodes.saturating_sub(earlier.candidate_nodes),
            union_parts: self.union_parts.saturating_sub(earlier.union_parts),
            nodes_swept: self.nodes_swept.saturating_sub(earlier.nodes_swept),
            backtrack_assignments: self
                .backtrack_assignments
                .saturating_sub(earlier.backtrack_assignments),
            parallel_kernels: self
                .parallel_kernels
                .saturating_sub(earlier.parallel_kernels),
            parallel_chunks: self.parallel_chunks.saturating_sub(earlier.parallel_chunks),
            parallel_declined_busy: self
                .parallel_declined_busy
                .saturating_sub(earlier.parallel_declined_busy),
            quiesce_retries: self.quiesce_retries.max(earlier.quiesce_retries),
            torn: self.torn || earlier.torn,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::planner::{CostClass, Strategy};
    use crate::plan::SourceLang;

    #[test]
    fn fmt_ns_unit_ladder() {
        assert_eq!(fmt_ns(0), "0ns");
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_340_000), "2.34ms");
        assert_eq!(fmt_ns(1_200_000_000), "1.20s");
    }

    /// The golden test of the renderer: a hand-built plan with fixed
    /// timings must print exactly this tree.
    #[test]
    fn render_golden() {
        let analyzed = AnalyzedPlan {
            query: "q(x) :- label(x, a), child(x, y), label(y, b).".to_owned(),
            plan: ExplainedPlan {
                source: SourceLang::Cq,
                strategy: Strategy::CqAcyclic,
                cost: CostClass::OutputSensitive,
                estimated_work: 42,
                rationale: "query graph is acyclic (GYO)".to_owned(),
                workers: 1,
                workers_pinned: false,
                parallel_rationale: "sequential: cq/acyclic has no partitionable kernel".to_owned(),
                query_fingerprint: 7,
            },
            total_ns: 1_500_000,
            output_rows: 3,
            stages: vec![
                StageStats {
                    name: "pipeline.lower",
                    calls: 1,
                    total_ns: 12_000,
                    depth: 0,
                    fields: vec![],
                    mem: None,
                },
                StageStats {
                    name: "exec.run",
                    calls: 1,
                    total_ns: 1_400_000,
                    depth: 0,
                    fields: vec![],
                    mem: None,
                },
                StageStats {
                    name: "exec.semijoin",
                    calls: 1,
                    total_ns: 900_000,
                    depth: 1,
                    fields: vec![("passes", 6), ("candidates", 11)],
                    mem: None,
                },
                StageStats {
                    name: "exec.enumerate",
                    calls: 1,
                    total_ns: 400_000,
                    depth: 1,
                    fields: vec![("tuples", 3)],
                    mem: None,
                },
            ],
            counters: MetricsSnapshot {
                queries_lowered: 1,
                queries_executed: 1,
                semijoin_passes: 6,
                candidate_nodes: 11,
                ..MetricsSnapshot::default()
            },
            output: QueryOutput::Nodes(Vec::new()),
        };
        let expected = "\
EXPLAIN ANALYZE [cq] q(x) :- label(x, a), child(x, y), label(y, b).
Plan: cq/acyclic  (cost O(|D|·|Q| + out), estimated 42 node-touches)
  rationale: query graph is acyclic (GYO)
  parallel: sequential: cq/acyclic has no partitionable kernel
Measured: total 1.50ms, 3 output row(s)
  -> pipeline.lower  (calls=1, time=12.0µs)
  -> exec.run  (calls=1, time=1.40ms)
    -> exec.semijoin  (calls=1, time=900.0µs)  [passes=6, candidates=11]
    -> exec.enumerate  (calls=1, time=400.0µs)  [tuples=3]
Counters: queries_lowered=1 queries_executed=1 semijoin_passes=6 candidate_nodes=11
";
        assert_eq!(analyzed.render(), expected);
    }

    /// The parallel counterpart of the golden test: per-worker chunk
    /// spans are merged into one stable `exec.sweep.chunk` row (calls =
    /// number of chunks, fields summed), so the rendering is identical no
    /// matter which worker ran which chunk or in what order they
    /// finished.
    #[test]
    fn render_golden_parallel_chunks() {
        let analyzed = AnalyzedPlan {
            query: "//a".to_owned(),
            plan: ExplainedPlan {
                source: SourceLang::XPath,
                strategy: Strategy::XPathSetAtATime,
                cost: CostClass::Linear,
                estimated_work: 131_072,
                rationale: "general Core XPath".to_owned(),
                workers: 4,
                workers_pinned: true,
                parallel_rationale: "4 workers: pre-order range partition of the sweeps".to_owned(),
                query_fingerprint: 9,
            },
            total_ns: 2_000_000,
            output_rows: 5,
            stages: vec![
                StageStats {
                    name: "exec.run",
                    calls: 1,
                    total_ns: 1_900_000,
                    depth: 0,
                    fields: vec![],
                    mem: None,
                },
                StageStats {
                    name: "exec.sweep",
                    calls: 1,
                    total_ns: 1_800_000,
                    depth: 1,
                    fields: vec![
                        ("nodes", 65_536),
                        ("query_size", 2),
                        ("nodes_swept", 131_072),
                    ],
                    mem: None,
                },
                StageStats {
                    name: "exec.sweep.chunk",
                    calls: 4,
                    total_ns: 1_600_000,
                    depth: 2,
                    fields: vec![("nodes", 65_536)],
                    mem: None,
                },
            ],
            counters: MetricsSnapshot {
                queries_executed: 1,
                nodes_swept: 131_072,
                parallel_kernels: 1,
                parallel_chunks: 4,
                ..MetricsSnapshot::default()
            },
            output: QueryOutput::Nodes(Vec::new()),
        };
        let expected = "\
EXPLAIN ANALYZE [xpath] //a
Plan: xpath/set-at-a-time  (cost O(|D|·|Q|), estimated 131072 node-touches)
  rationale: general Core XPath
  parallel: 4 workers: pre-order range partition of the sweeps
Measured: total 2.00ms, 5 output row(s)
  -> exec.run  (calls=1, time=1.90ms)
    -> exec.sweep  (calls=1, time=1.80ms)  [nodes=65536, query_size=2, nodes_swept=131072]
      -> exec.sweep.chunk  (calls=4, time=1.60ms)  [nodes=65536]
Counters: queries_executed=1 nodes_swept=131072 parallel_kernels=1 parallel_chunks=4
";
        assert_eq!(analyzed.render(), expected);
    }

    /// The mem-column golden: an accounted run joins allocator scope
    /// totals onto stages by name, and a torn counter snapshot says so on
    /// the Counters line.
    #[test]
    fn render_golden_with_mem_and_torn() {
        let analyzed = AnalyzedPlan {
            query: "//b".to_owned(),
            plan: ExplainedPlan {
                source: SourceLang::XPath,
                strategy: Strategy::XPathSetAtATime,
                cost: CostClass::Linear,
                estimated_work: 128,
                rationale: "general Core XPath".to_owned(),
                workers: 1,
                workers_pinned: false,
                parallel_rationale: "sequential: below the parallel threshold".to_owned(),
                query_fingerprint: 3,
            },
            total_ns: 500_000,
            output_rows: 2,
            stages: vec![
                StageStats {
                    name: "exec.run",
                    calls: 1,
                    total_ns: 480_000,
                    depth: 0,
                    fields: vec![],
                    mem: Some(StageMem {
                        allocs: 3,
                        bytes: 256,
                        peak_live: 192,
                    }),
                },
                StageStats {
                    name: "exec.sweep",
                    calls: 1,
                    total_ns: 400_000,
                    depth: 1,
                    fields: vec![("nodes", 64), ("query_size", 2), ("nodes_swept", 128)],
                    mem: Some(StageMem {
                        allocs: 17,
                        bytes: 4096,
                        peak_live: 2048,
                    }),
                },
            ],
            counters: MetricsSnapshot {
                queries_executed: 1,
                nodes_swept: 128,
                quiesce_retries: 16,
                torn: true,
                ..MetricsSnapshot::default()
            },
            output: QueryOutput::Nodes(Vec::new()),
        };
        let expected = "\
EXPLAIN ANALYZE [xpath] //b
Plan: xpath/set-at-a-time  (cost O(|D|·|Q|), estimated 128 node-touches)
  rationale: general Core XPath
  parallel: sequential: below the parallel threshold
Measured: total 500.0µs, 2 output row(s)
  -> exec.run  (calls=1, time=480.0µs)  [mem: bytes=256, allocs=3, peak=192]
    -> exec.sweep  (calls=1, time=400.0µs)  [nodes=64, query_size=2, nodes_swept=128]  [mem: bytes=4096, allocs=17, peak=2048]
Counters: queries_executed=1 nodes_swept=128  [torn after 16 retries: counters did not quiesce; cross-counter consistency not guaranteed]
";
        assert_eq!(analyzed.render(), expected);
        let v = treequery_obs::parse_json(&analyzed.to_json().render()).unwrap();
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("quiesce_retries")
                .unwrap()
                .as_u64(),
            Some(16)
        );
        let stages = v.get("stages").unwrap().as_arr().unwrap();
        let mem = stages[1].get("mem").unwrap();
        assert_eq!(mem.get("bytes").unwrap().as_u64(), Some(4096));
        assert_eq!(mem.get("allocs").unwrap().as_u64(), Some(17));
    }

    #[test]
    fn snapshot_delta_is_fieldwise() {
        let a = MetricsSnapshot {
            queries_executed: 5,
            semijoin_passes: 12,
            ..MetricsSnapshot::default()
        };
        let b = MetricsSnapshot {
            queries_executed: 7,
            semijoin_passes: 18,
            nodes_swept: 3,
            ..MetricsSnapshot::default()
        };
        let d = b.delta_since(&a);
        assert_eq!(d.queries_executed, 2);
        assert_eq!(d.semijoin_passes, 6);
        assert_eq!(d.nodes_swept, 3);
        // Saturates instead of wrapping if the metrics were reset between.
        assert_eq!(a.delta_since(&b).queries_executed, 0);
    }

    #[test]
    fn json_forms_round_trip_through_the_parser() {
        let snapshot = MetricsSnapshot {
            queries_lowered: 2,
            nodes_swept: 99,
            ..MetricsSnapshot::default()
        };
        let v = treequery_obs::parse_json(&snapshot.to_json().render()).unwrap();
        assert_eq!(v.get("nodes_swept").unwrap().as_u64(), Some(99));
        let plan = ExplainedPlan {
            source: SourceLang::XPath,
            strategy: Strategy::XPathSetAtATime,
            cost: CostClass::Linear,
            estimated_work: 10,
            rationale: "general Core XPath \"sweep\"".to_owned(),
            workers: 4,
            workers_pinned: true,
            parallel_rationale: "4 workers: pre-order range partition".to_owned(),
            query_fingerprint: u64::MAX,
        };
        let v = treequery_obs::parse_json(&plan.to_json().render()).unwrap();
        assert_eq!(
            v.get("strategy").unwrap().as_str(),
            Some("xpath/set-at-a-time")
        );
        assert_eq!(v.get("workers").unwrap().as_u64(), Some(4));
        assert_eq!(v.get("query_fingerprint").unwrap().as_u64(), Some(u64::MAX));
    }
}
