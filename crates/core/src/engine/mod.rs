//! Refinement engines: different ways to answer `ExistsSortRefinement`.
//!
//! * [`IlpEngine`] — the paper's approach: encode the instance as an ILP
//!   (Section 6) and hand it to the `strudel-ilp` CP search, which branches
//!   and propagates until it meets a feasible assignment or refutes them
//!   all. Exact; the engine used by all experiments.
//! * [`ExhaustiveEngine`] — enumerates every signature→sort assignment (up to
//!   sort renaming). Exponential; exists as the ground-truth oracle the other
//!   engines are tested against on small instances.
//! * [`GreedyEngine`] — a seed-and-improve heuristic that cannot prove
//!   infeasibility but scales to arbitrarily many signatures; used as a
//!   baseline and for ablation benchmarks.

mod exhaustive;
mod greedy;
mod hybrid;
mod ilp;

pub use exhaustive::{ExhaustiveConfig, ExhaustiveEngine};
pub use greedy::GreedyEngine;
pub use hybrid::HybridEngine;
pub use ilp::{hint_from_refinement, signature_identity, IlpEngine, RefinementHint};
// Re-exported so downstream crates (the server reads solve statistics)
// need no direct `strudel-ilp` dependency.
pub use strudel_ilp::prelude::SolveStats;

use strudel_rdf::signature::SignatureView;
use strudel_rules::prelude::Ratio;

use crate::error::RefineError;
use crate::refinement::SortRefinement;
use crate::sigma::SigmaSpec;

/// The answer of a refinement engine for one `(view, σ, k, θ)` instance.
#[derive(Clone, Debug)]
pub enum RefineOutcome {
    /// A σ-sort refinement meeting the threshold was found.
    Refinement(SortRefinement),
    /// No refinement with at most `k` implicit sorts meets the threshold.
    Infeasible,
    /// The engine could not decide within its budget (time/node limits for
    /// the ILP engine, or by construction for the greedy engine).
    Unknown,
}

impl RefineOutcome {
    /// The refinement, if one was found.
    pub fn refinement(&self) -> Option<&SortRefinement> {
        match self {
            RefineOutcome::Refinement(refinement) => Some(refinement),
            _ => None,
        }
    }

    /// Whether the instance was decided (either way).
    pub fn is_decided(&self) -> bool {
        !matches!(self, RefineOutcome::Unknown)
    }
}

/// A strategy for solving the sort-refinement decision problem.
pub trait RefinementEngine {
    /// A short name used in logs and benchmark reports.
    fn name(&self) -> &'static str;

    /// Tries to find a σ-sort refinement of `view` with threshold `theta` and
    /// at most `k` implicit sorts.
    fn refine(
        &self,
        view: &SignatureView,
        spec: &SigmaSpec,
        k: usize,
        theta: Ratio,
    ) -> Result<RefineOutcome, RefineError>;

    /// [`refine`](Self::refine), plus the statistics of the exact search it
    /// ran: nodes, propagations and conflicts, all zero when no exact
    /// search ran. Engines that run one override this; the default reports
    /// none.
    fn refine_with_stats(
        &self,
        view: &SignatureView,
        spec: &SigmaSpec,
        k: usize,
        theta: Ratio,
    ) -> Result<(RefineOutcome, SolveStats), RefineError> {
        Ok((self.refine(view, spec, k, theta)?, SolveStats::default()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_accessors() {
        assert!(RefineOutcome::Infeasible.is_decided());
        assert!(!RefineOutcome::Unknown.is_decided());
        assert!(RefineOutcome::Unknown.refinement().is_none());
        assert!(RefineOutcome::Infeasible.refinement().is_none());
    }
}
