//! When intra-query parallelism pays: the three fan-out rules, in one
//! place.
//!
//! Node-selecting queries run in `O(|D|·|Q|)` with set-at-a-time sweeps
//! (the paper's Figure 7), so workers can only change a constant factor.
//! That factor is negative unless the chunked kernel does less work per
//! worker than the sequential one does in total, *and* a core is free to
//! run the extra chunks. The rules follow from how each kernel works:
//!
//! 1. **Local axes never fan out.** `child`, `parent`, the sibling axes,
//!    `self` and `ancestor` keep no sweep state between pre-order ranges
//!    ([`CarryFlow::None`]). Their sequential image walks only the marked
//!    set (or, for `ancestor`, one prefix-count pass), while a range
//!    partition scans every rank — `O(|D|)` in total across the chunks.
//! 2. **Two-phase kernels need at least three workers.** A carry-axis
//!    sweep (`descendant`, `following`, `preceding`) makes two passes
//!    over its range (carry, then image), so `k` workers cost about
//!    `2|D|/k` plus a `k`-way merge against `|D|` for one sequential
//!    sweep: at `k = 2` wall time cannot improve and the CPU doubles.
//!    Chunked grounding has the same shape, because chunk assembly and
//!    the Minoux solve both stay sequential.
//! 3. **Fan out only to idle cores.** [`super::exec::execute`] counts the
//!    queries in flight; a plan whose worker count was left to the
//!    machine gets at most `cores − other queries in flight` workers. A
//!    caller-pinned count (`PlannerConfig::workers = Some(n)`,
//!    `Engine::eval_ir_via`) is honoured exactly, so tests and forced
//!    benchmark runs fan out deterministically.
//!
//! Rewrite unions are independent parts with no sequential pass of
//! comparable size, so they fan out from two workers on. Every rule is
//! about cost only: the parallel kernels are byte-identical to the
//! sequential ones.

use std::fmt;
use std::sync::OnceLock;

use treequery_tree::{Axis, CarryFlow};

use super::planner::Strategy;

/// The shape of a partitionable kernel, as far as fan-out cost goes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// An axis image without carried sweep state (rule 1).
    LocalAxis,
    /// A carry-axis sweep split into pre-order ranges: carry pass, fold,
    /// image pass, merge (rule 2).
    RangeSweep,
    /// Datalog grounding chunked by `(rule, node range)`, then assembled
    /// and solved sequentially (rule 2).
    Grounding,
    /// Independent acyclic parts of a rewrite union.
    UnionParts,
}

impl Kernel {
    /// The kernel an axis image runs as.
    pub fn of_axis(axis: Axis) -> Kernel {
        match axis.carry_flow() {
            CarryFlow::None => Kernel::LocalAxis,
            CarryFlow::Forward | CarryFlow::Backward => Kernel::RangeSweep,
        }
    }

    /// The partitionable kernel a strategy's executor arm dispatches, if
    /// any. Set-at-a-time plans are classed by their carry-axis sweeps;
    /// their local-axis sweeps stay sequential whatever the plan says.
    pub fn of_strategy(strategy: Strategy) -> Option<Kernel> {
        match strategy {
            Strategy::XPathSetAtATime => Some(Kernel::RangeSweep),
            Strategy::XPathViaDatalog | Strategy::DatalogGround => Some(Kernel::Grounding),
            Strategy::CqRewriteUnion(k) if k >= 2 => Some(Kernel::UnionParts),
            _ => None,
        }
    }

    /// Fewest workers at which the chunked kernel can beat the
    /// sequential one (`None`: never).
    fn min_workers(self) -> Option<usize> {
        match self {
            Kernel::LocalAxis => None,
            Kernel::RangeSweep | Kernel::Grounding => Some(3),
            Kernel::UnionParts => Some(2),
        }
    }

    /// How the kernel splits its work, for plan rationales.
    pub(crate) fn describe(self) -> &'static str {
        match self {
            Kernel::LocalAxis => "a local axis walks only the marked set",
            Kernel::RangeSweep => "a two-phase range sweep",
            Kernel::Grounding => {
                "chunked grounding (assembly and the Minoux solve stay sequential)"
            }
            Kernel::UnionParts => "independent acyclic union parts",
        }
    }
}

/// Why a kernel runs sequentially, or how wide it fans out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FanOut {
    /// Fan out over this many workers.
    Parallel(usize),
    /// One worker was configured.
    OneWorker,
    /// Rule 1: the kernel never pays.
    LocalAxis,
    /// Rule 2: the kernel needs `need` workers; `have` were granted.
    TooFewWorkers {
        /// The kernel.
        kernel: Kernel,
        /// Its break-even worker count.
        need: usize,
        /// Workers granted.
        have: usize,
    },
    /// Rule 3: enough workers were planned, but only `idle` cores are
    /// not running another query.
    NoIdleCore {
        /// The kernel.
        kernel: Kernel,
        /// Cores not occupied by other queries in flight.
        idle: usize,
    },
}

impl FanOut {
    /// Worker count the kernel should run with (1 = sequential).
    pub fn workers(self) -> usize {
        match self {
            FanOut::Parallel(k) => k,
            _ => 1,
        }
    }
}

impl fmt::Display for FanOut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FanOut::Parallel(k) => write!(f, "{k} workers"),
            FanOut::OneWorker => f.write_str("sequential: one worker configured"),
            FanOut::LocalAxis => write!(
                f,
                "sequential: {}; a range partition would scan every rank",
                Kernel::LocalAxis.describe()
            ),
            FanOut::TooFewWorkers { kernel, need, have } => write!(
                f,
                "sequential: {} needs ≥{need} workers; {have} available",
                kernel.describe()
            ),
            FanOut::NoIdleCore { kernel, idle } => write!(
                f,
                "sequential: {} would fan out, but {idle} core(s) are idle",
                kernel.describe()
            ),
        }
    }
}

/// The fan-out decision for one kernel: the single owner of rules 1–3,
/// called by the planner (with `idle_cores = None`, for the plan and its
/// rationale), by the executor (with the idle cores it counted, for
/// default-sized plans) and by the kernels themselves (with the granted
/// count).
///
/// `workers` is the planned or granted count; `idle_cores`, when given,
/// caps it (rule 3).
pub fn fan_out(kernel: Kernel, workers: usize, idle_cores: Option<usize>) -> FanOut {
    let Some(need) = kernel.min_workers() else {
        return FanOut::LocalAxis;
    };
    if workers <= 1 {
        return FanOut::OneWorker;
    }
    if workers < need {
        return FanOut::TooFewWorkers {
            kernel,
            need,
            have: workers,
        };
    }
    match idle_cores {
        Some(idle) if idle < need => FanOut::NoIdleCore { kernel, idle },
        Some(idle) => FanOut::Parallel(workers.min(idle)),
        None => FanOut::Parallel(workers),
    }
}

/// The machine's available parallelism (cached; 1 when unknown).
pub(crate) fn machine_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rule that decided, and the worker count it granted.
    fn rule(f: FanOut) -> (&'static str, usize) {
        let name = match f {
            FanOut::Parallel(_) => "parallel",
            FanOut::OneWorker => "one worker",
            FanOut::LocalAxis => "local axis",
            FanOut::TooFewWorkers { .. } => "too few workers",
            FanOut::NoIdleCore { .. } => "no idle core",
        };
        (name, f.workers())
    }

    #[test]
    fn rule_table() {
        for axis in Axis::ALL {
            let local = axis.carry_flow() == CarryFlow::None;
            for k in [1usize, 2, 3, 4, 8] {
                let expect = match (local, k) {
                    (true, _) => ("local axis", 1),
                    (false, 1) => ("one worker", 1),
                    (false, 2) => ("too few workers", 1),
                    (false, k) => ("parallel", k),
                };
                assert_eq!(
                    rule(fan_out(Kernel::of_axis(axis), k, None)),
                    expect,
                    "{axis}×{k}"
                );
            }
        }
        use Kernel::{Grounding, RangeSweep, UnionParts};
        let table = [
            (Grounding, 2, None, ("too few workers", 1)),
            (Grounding, 4, None, ("parallel", 4)),
            (UnionParts, 2, None, ("parallel", 2)),
            // The busy gate: `idle` = cores − other queries in flight.
            (UnionParts, 2, Some(0), ("no idle core", 1)),
            (UnionParts, 2, Some(1), ("no idle core", 1)),
            (UnionParts, 4, Some(3), ("parallel", 3)),
            (RangeSweep, 8, Some(4), ("parallel", 4)),
            (RangeSweep, 4, Some(2), ("no idle core", 1)),
            (Grounding, 4, Some(0), ("no idle core", 1)),
        ];
        for (kernel, k, idle, expect) in table {
            assert_eq!(
                rule(fan_out(kernel, k, idle)),
                expect,
                "{kernel:?}×{k}, idle {idle:?}"
            );
        }
    }

    #[test]
    fn rationales_name_the_rule() {
        assert_eq!(
            fan_out(Kernel::RangeSweep, 2, None).to_string(),
            "sequential: a two-phase range sweep needs ≥3 workers; 2 available"
        );
        let says = |f: FanOut, what: &str| assert!(f.to_string().contains(what), "{f}");
        says(fan_out(Kernel::LocalAxis, 4, None), "local axis");
        says(fan_out(Kernel::Grounding, 2, None), "Minoux");
        says(
            fan_out(Kernel::UnionParts, 2, Some(0)),
            "0 core(s) are idle",
        );
    }

    #[test]
    fn strategies_map_to_their_kernels() {
        let cases = [
            (Strategy::XPathSetAtATime, Some(Kernel::RangeSweep)),
            (Strategy::DatalogGround, Some(Kernel::Grounding)),
            (Strategy::XPathViaDatalog, Some(Kernel::Grounding)),
            (Strategy::CqRewriteUnion(3), Some(Kernel::UnionParts)),
            (Strategy::CqRewriteUnion(1), None),
            (Strategy::CqAcyclic, None),
        ];
        for (strategy, kernel) in cases {
            assert_eq!(Kernel::of_strategy(strategy), kernel, "{strategy}");
        }
    }
}
