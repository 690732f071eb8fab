//! Exhaustive enumeration of signature→sort assignments.
//!
//! The search walks restricted-growth strings (signature `0` always opens
//! sort `0`, signature `i` may join any already-opened sort or open the next
//! one), which enumerates every partition into at most `k` groups exactly
//! once up to sort renaming. It is exponential and guarded by a size limit —
//! its purpose is to be the trivially-correct oracle the ILP engine is
//! validated against, not to run on real datasets.

use strudel_rdf::signature::SignatureView;
use strudel_rules::prelude::Ratio;

use crate::error::RefineError;
use crate::refinement::SortRefinement;
use crate::sigma::SigmaSpec;

use super::{RefineOutcome, RefinementEngine};

/// Configuration of the exhaustive engine.
#[derive(Clone, Debug)]
pub struct ExhaustiveConfig {
    /// Upper bound on `k^(signatures − 1)`, the number of assignments that
    /// would have to be enumerated.
    pub max_assignments: u128,
}

impl Default for ExhaustiveConfig {
    fn default() -> Self {
        ExhaustiveConfig {
            max_assignments: 5_000_000,
        }
    }
}

/// The brute-force oracle engine.
#[derive(Clone, Debug, Default)]
pub struct ExhaustiveEngine {
    config: ExhaustiveConfig,
}

impl ExhaustiveEngine {
    /// Creates an engine with default configuration.
    pub fn new() -> Self {
        ExhaustiveEngine::default()
    }

    /// Creates an engine with an explicit configuration.
    pub fn with_config(config: ExhaustiveConfig) -> Self {
        ExhaustiveEngine { config }
    }

    fn search(
        &self,
        view: &SignatureView,
        spec: &SigmaSpec,
        k: usize,
        theta: Ratio,
        assignment: &mut Vec<usize>,
        used: usize,
    ) -> Result<Option<Vec<usize>>, RefineError> {
        if assignment.len() == view.signature_count() {
            // Check every non-empty group.
            for sort in 0..used {
                let members: Vec<usize> = assignment
                    .iter()
                    .enumerate()
                    .filter(|&(_, &s)| s == sort)
                    .map(|(sig, _)| sig)
                    .collect();
                let sigma = spec.evaluate(&view.subset(&members))?;
                if sigma < theta {
                    return Ok(None);
                }
            }
            return Ok(Some(assignment.clone()));
        }
        let next_options = (used + 1).min(k);
        for sort in 0..next_options {
            assignment.push(sort);
            let newly_used = used.max(sort + 1);
            if let Some(found) = self.search(view, spec, k, theta, assignment, newly_used)? {
                return Ok(Some(found));
            }
            assignment.pop();
        }
        Ok(None)
    }
}

impl RefinementEngine for ExhaustiveEngine {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn refine(
        &self,
        view: &SignatureView,
        spec: &SigmaSpec,
        k: usize,
        theta: Ratio,
    ) -> Result<RefineOutcome, RefineError> {
        let k = crate::encode::validate_inputs(view, theta, k)?;
        let signatures = view.signature_count();
        let assignments = (k as u128)
            .checked_pow(signatures.saturating_sub(1) as u32)
            .unwrap_or(u128::MAX);
        if assignments > self.config.max_assignments {
            return Err(RefineError::InstanceTooLarge {
                signatures,
                k,
                limit: self.config.max_assignments,
            });
        }
        let mut assignment = Vec::with_capacity(signatures);
        match self.search(view, spec, k, theta, &mut assignment, 0)? {
            Some(found) => {
                let refinement = SortRefinement::from_assignment(view, spec, theta, &found, k)?;
                Ok(RefineOutcome::Refinement(refinement))
            }
            None => Ok(RefineOutcome::Infeasible),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn finds_refinements_and_proves_infeasibility() {
        let view = view();
        let engine = ExhaustiveEngine::new();
        let feasible = engine
            .refine(&view, &SigmaSpec::Coverage, 2, Ratio::new(7, 10))
            .unwrap();
        assert!(feasible.refinement().is_some());
        let infeasible = engine
            .refine(&view, &SigmaSpec::Coverage, 1, Ratio::ONE)
            .unwrap();
        assert!(matches!(infeasible, RefineOutcome::Infeasible));
    }

    #[test]
    fn refuses_oversized_instances() {
        // 40 distinct singleton-property signatures: 3^39 assignments is far
        // beyond the configured limit.
        let many: Vec<(Vec<usize>, usize)> = (0..40).map(|i| (vec![i], i + 1)).collect();
        let view =
            SignatureView::from_counts((0..40).map(|i| format!("http://ex/p{i}")).collect(), many)
                .unwrap();
        let engine = ExhaustiveEngine::new();
        let err = engine
            .refine(&view, &SigmaSpec::Coverage, 3, Ratio::new(1, 2))
            .unwrap_err();
        assert!(matches!(err, RefineError::InstanceTooLarge { .. }));
    }

    #[test]
    fn symmetric_assignments_are_not_enumerated_twice() {
        // With 3 signatures and k = 3 there are Bell-like 5 partitions into at
        // most 3 groups rather than 27 raw assignments; the engine must still
        // find the all-singletons solution for θ = 1.
        let view = SignatureView::from_counts(
            vec!["http://ex/a".into(), "http://ex/b".into()],
            vec![(vec![0], 3), (vec![1], 2), (vec![0, 1], 1)],
        )
        .unwrap();
        let engine = ExhaustiveEngine::new();
        let outcome = engine
            .refine(&view, &SigmaSpec::Coverage, 3, Ratio::ONE)
            .unwrap();
        let refinement = outcome.refinement().unwrap();
        assert_eq!(refinement.k(), 3);
        assert_eq!(refinement.min_sigma(), Ratio::ONE);
    }
}
