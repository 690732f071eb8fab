//! A hybrid engine: try the cheap greedy heuristic first, fall back to the
//! exact ILP engine when the heuristic does not reach the threshold.
//!
//! The paper's sequential θ-search spends most of its probes on clearly
//! feasible thresholds and only the last probe(s) near the feasibility
//! boundary are hard. The hybrid engine exploits that: a greedy success is a
//! certificate of feasibility (the refinement is checked against the
//! threshold), so the expensive ILP machinery is reserved for the probes the
//! heuristic cannot settle — including every infeasibility proof, which only
//! the ILP engine can provide.

use std::time::{Duration, Instant};

use strudel_rdf::signature::SignatureView;
use strudel_rules::prelude::Ratio;

use crate::error::RefineError;
use crate::sigma::SigmaSpec;

use super::{GreedyConfig, GreedyEngine, IlpEngine, RefineOutcome, RefinementEngine};

/// Greedy-then-ILP engine.
#[derive(Clone, Debug, Default)]
pub struct HybridEngine {
    greedy: GreedyEngine,
    ilp: IlpEngine,
    /// Shared wall-clock budget across both phases: the greedy phase runs
    /// under the full budget and the ILP fallback gets whatever remains, so
    /// a `--time-limit` covers the whole hybrid solve rather than each phase
    /// independently (the greedy phase used to ignore it entirely).
    time_limit: Option<Duration>,
}

impl HybridEngine {
    /// Creates a hybrid engine with default sub-engines.
    pub fn new() -> Self {
        HybridEngine::default()
    }

    /// Creates a hybrid engine from explicit sub-engines.
    pub fn with_engines(greedy: GreedyEngine, ilp: IlpEngine) -> Self {
        HybridEngine {
            greedy,
            ilp,
            time_limit: None,
        }
    }

    /// Sets a wall-clock budget shared by the greedy and ILP phases.
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }
}

impl RefinementEngine for HybridEngine {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn refine(
        &self,
        view: &SignatureView,
        spec: &SigmaSpec,
        k: usize,
        theta: Ratio,
    ) -> Result<RefineOutcome, RefineError> {
        let Some(budget) = self.time_limit else {
            return match self.greedy.refine(view, spec, k, theta)? {
                RefineOutcome::Refinement(refinement) => Ok(RefineOutcome::Refinement(refinement)),
                // The greedy engine answers Unknown when it cannot reach the
                // threshold and never answers Infeasible; either way the
                // exact engine decides.
                _ => self.ilp.refine(view, spec, k, theta),
            };
        };

        let start = Instant::now();
        let greedy = GreedyEngine::with_config(GreedyConfig {
            time_limit: Some(budget),
            ..self.greedy.config().clone()
        });
        match greedy.refine(view, spec, k, theta)? {
            RefineOutcome::Refinement(refinement) => Ok(RefineOutcome::Refinement(refinement)),
            _ => {
                let remaining = budget.saturating_sub(start.elapsed());
                if remaining.is_zero() {
                    return Ok(RefineOutcome::Unknown);
                }
                IlpEngine::with_time_limit(remaining).refine(view, spec, k, theta)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExhaustiveEngine;

    fn view() -> SignatureView {
        SignatureView::from_counts(
            vec![
                "http://ex/name".into(),
                "http://ex/birthDate".into(),
                "http://ex/deathDate".into(),
            ],
            vec![
                (vec![0], 10),
                (vec![0, 1], 6),
                (vec![0, 1, 2], 4),
                (vec![0, 2], 2),
            ],
        )
        .unwrap()
    }

    #[test]
    fn agrees_with_the_exhaustive_oracle() {
        let view = view();
        let hybrid = HybridEngine::new();
        let oracle = ExhaustiveEngine::new();
        for k in 1..=3 {
            for theta in [
                Ratio::new(1, 2),
                Ratio::new(4, 5),
                Ratio::new(19, 20),
                Ratio::ONE,
            ] {
                let ours = hybrid
                    .refine(&view, &SigmaSpec::Coverage, k, theta)
                    .unwrap();
                let truth = oracle
                    .refine(&view, &SigmaSpec::Coverage, k, theta)
                    .unwrap();
                match (&ours, &truth) {
                    (RefineOutcome::Refinement(r), RefineOutcome::Refinement(_)) => {
                        assert!(r.min_sigma() >= theta);
                    }
                    (RefineOutcome::Infeasible, RefineOutcome::Infeasible) => {}
                    other => panic!("hybrid and oracle disagree at k={k}, θ={theta}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn an_exhausted_budget_yields_unknown() {
        let view = view();
        let hybrid = HybridEngine::new().with_time_limit(std::time::Duration::ZERO);
        // A zero budget expires during the greedy phase and leaves nothing
        // for the ILP fallback: the only honest answer is Unknown.
        let outcome = hybrid
            .refine(&view, &SigmaSpec::Coverage, 2, Ratio::new(19, 20))
            .unwrap();
        assert!(matches!(outcome, RefineOutcome::Unknown));
    }

    #[test]
    fn a_generous_budget_still_decides_exactly() {
        let view = view();
        let hybrid = HybridEngine::new().with_time_limit(std::time::Duration::from_secs(60));
        let outcome = hybrid
            .refine(&view, &SigmaSpec::Coverage, 1, Ratio::ONE)
            .unwrap();
        // Greedy cannot prove this infeasible; the ILP fallback must still
        // run (with the remaining budget) and decide it.
        assert!(matches!(outcome, RefineOutcome::Infeasible));
    }

    #[test]
    fn greedy_shortcut_still_meets_threshold() {
        let view = view();
        let hybrid = HybridEngine::new();
        let outcome = hybrid
            .refine(&view, &SigmaSpec::Similarity, 2, Ratio::new(1, 2))
            .unwrap();
        let refinement = outcome.refinement().expect("easily feasible");
        assert!(refinement.min_sigma() >= Ratio::new(1, 2));
        refinement.validate(&view).unwrap();
    }
}
