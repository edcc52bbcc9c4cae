//! The three-stage query pipeline: logical IR → statistics-driven planner
//! → instrumented executor.
//!
//! * [`ir`] — the shared logical form all three front-ends lower into,
//!   with provenance and a normalized-form fingerprint;
//! * [`stats`] — cheap per-tree statistics and the tree fingerprint;
//! * [`planner`] — strategy selection with an inspectable rationale
//!   ([`ExplainedPlan`]);
//! * [`exec`] — plan execution with per-stage work counters and the plan
//!   cache;
//! * [`analyze`] — `EXPLAIN ANALYZE`: the plan rationale merged with
//!   measured per-stage spans and a consistent counter delta;
//! * [`fanout`] — the three rules deciding when a kernel fans out
//!   (local axes never; two-phase kernels from three workers; only onto
//!   idle cores);
//! * [`pool`] — the persistent shared worker pool behind intra-query
//!   parallelism and `Engine::eval_batch`;
//! * [`par`] — pre-order-range-partitioned parallel kernels with
//!   deterministic (byte-identical to sequential) merges.

pub mod analyze;
pub mod exec;
pub mod fanout;
pub mod ir;
pub mod par;
pub mod planner;
pub mod pool;
pub mod stats;

pub use analyze::{AnalyzedPlan, StageMem, StageStats};
pub use exec::{queries_in_flight, Metrics, MetricsSnapshot, PlanCache, QueryOutput};
pub use ir::{lower, Query, QueryIr, SourceLang};
pub use planner::{
    applicable_strategies, plan_ir, CostClass, ExplainedPlan, PlannerConfig, Strategy,
};
pub use pool::{default_workers, WorkerPool};
pub(crate) use stats::fingerprint_len_term;
pub use stats::{node_fingerprint, tree_fingerprint, IncrementalStats, TreeStats};
