//! Sort refinements and implicit sorts (Definition 4.2).
//!
//! A σ-sort refinement of a dataset `D` with threshold θ is an
//! entity-preserving partition `{D₁, …, Dₙ}` of `D` such that every `Dᵢ` has
//! `σ(Dᵢ) ≥ θ` and every `Dᵢ` is *closed under signatures*. Because of the
//! closure requirement, a refinement is fully described by an assignment of
//! signature sets to implicit sorts, which is how this module represents it.

use strudel_rdf::signature::SignatureView;
use strudel_rules::prelude::Ratio;

use crate::error::ValidationError;
use crate::sigma::SigmaSpec;

/// One implicit sort of a refinement.
#[derive(Clone, Debug)]
pub struct ImplicitSort {
    /// Indexes of the dataset's signature entries assigned to this sort.
    pub signatures: Vec<usize>,
    /// Number of subjects in the sort.
    pub subjects: usize,
    /// The structuredness of the sort under the refinement's function.
    pub sigma: Ratio,
}

/// A sort refinement: an assignment of every signature set of the dataset to
/// one of at most `k` implicit sorts, each meeting the threshold.
#[derive(Clone, Debug)]
pub struct SortRefinement {
    /// The non-empty implicit sorts, ordered by decreasing subject count.
    pub sorts: Vec<ImplicitSort>,
    /// The structuredness function used.
    pub spec: SigmaSpec,
    /// The threshold the refinement was required to meet.
    pub threshold: Ratio,
}

impl SortRefinement {
    /// Builds a refinement from an assignment vector (`assignment[sig] = sort
    /// index`), evaluating σ on every non-empty implicit sort: the spec is
    /// resolved against the view once, and a closed form reads each sort's
    /// summed counts.
    pub fn from_assignment(
        view: &SignatureView,
        spec: &SigmaSpec,
        threshold: Ratio,
        assignment: &[usize],
        k: usize,
    ) -> Result<Self, strudel_rules::error::EvalError> {
        assert_eq!(
            assignment.len(),
            view.signature_count(),
            "assignment must cover every signature"
        );
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (sig, &sort) in assignment.iter().enumerate() {
            assert!(sort < k, "assignment uses sort index {sort} ≥ k = {k}");
            groups[sort].push(sig);
        }
        let resolved = spec.resolve(view);
        let mut sorts = Vec::new();
        for signatures in groups.into_iter().filter(|g| !g.is_empty()) {
            let sigma = resolved.sigma_of(view, &signatures)?;
            let subjects = signatures
                .iter()
                .map(|&sig| view.entries()[sig].count)
                .sum();
            sorts.push(ImplicitSort {
                signatures,
                subjects,
                sigma,
            });
        }
        sorts.sort_by_key(|sort| std::cmp::Reverse(sort.subjects));
        Ok(SortRefinement {
            sorts,
            spec: spec.clone(),
            threshold,
        })
    }

    /// Number of (non-empty) implicit sorts.
    pub fn k(&self) -> usize {
        self.sorts.len()
    }

    /// The smallest structuredness across the implicit sorts (1 if there are
    /// no sorts).
    pub fn min_sigma(&self) -> Ratio {
        self.sorts
            .iter()
            .map(|s| s.sigma)
            .min()
            .unwrap_or(Ratio::ONE)
    }

    /// Total number of subjects across the implicit sorts.
    pub fn total_subjects(&self) -> usize {
        self.sorts.iter().map(|s| s.subjects).sum()
    }

    /// The assignment vector (`signature index → position in `self.sorts``).
    pub fn assignment(&self, view: &SignatureView) -> Vec<usize> {
        let mut assignment = vec![usize::MAX; view.signature_count()];
        for (sort_idx, sort) in self.sorts.iter().enumerate() {
            for &sig in &sort.signatures {
                assignment[sig] = sort_idx;
            }
        }
        assignment
    }

    /// Checks that the refinement is a valid σ-sort refinement of `view` with
    /// its threshold: every signature covered exactly once, no empty sorts,
    /// every sort at or above the threshold.
    pub fn validate(&self, view: &SignatureView) -> Result<(), ValidationError> {
        let mut seen = vec![false; view.signature_count()];
        for (sort_idx, sort) in self.sorts.iter().enumerate() {
            if sort.signatures.is_empty() {
                return Err(ValidationError::EmptySort(sort_idx));
            }
            for &sig in &sort.signatures {
                if sig >= view.signature_count() {
                    return Err(ValidationError::UnknownSignature(sig));
                }
                if seen[sig] {
                    return Err(ValidationError::DuplicateSignature(sig));
                }
                seen[sig] = true;
            }
            if sort.sigma < self.threshold {
                return Err(ValidationError::BelowThreshold {
                    sort: sort_idx,
                    sigma: sort.sigma.to_string(),
                    threshold: self.threshold.to_string(),
                });
            }
        }
        if let Some(missing) = seen.iter().position(|&covered| !covered) {
            return Err(ValidationError::MissingSignature(missing));
        }
        Ok(())
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
    fn from_assignment_groups_and_evaluates() {
        let view = view();
        // Signatures 0,1 (no deathDate) to sort 0; 2,3 (with deathDate) to sort 1.
        let refinement = SortRefinement::from_assignment(
            &view,
            &SigmaSpec::Coverage,
            Ratio::new(1, 2),
            &[0, 0, 1, 1],
            2,
        )
        .unwrap();
        assert_eq!(refinement.k(), 2);
        assert_eq!(refinement.total_subjects(), 22);
        assert!(refinement.min_sigma() > Ratio::ZERO);
        assert!(refinement.validate(&view).is_ok());
        // The larger sort (16 subjects) is listed first.
        assert_eq!(refinement.sorts[0].subjects, 16);
    }

    #[test]
    fn empty_sorts_are_dropped() {
        let view = view();
        let refinement = SortRefinement::from_assignment(
            &view,
            &SigmaSpec::Coverage,
            Ratio::ZERO,
            &[0, 0, 0, 0],
            3,
        )
        .unwrap();
        assert_eq!(refinement.k(), 1);
    }

    #[test]
    fn assignment_round_trips() {
        let view = view();
        let refinement = SortRefinement::from_assignment(
            &view,
            &SigmaSpec::Similarity,
            Ratio::ZERO,
            &[1, 0, 1, 0],
            2,
        )
        .unwrap();
        let assignment = refinement.assignment(&view);
        // Signatures mapped to the same implicit sort as in the input.
        assert_eq!(assignment[0], assignment[2]);
        assert_eq!(assignment[1], assignment[3]);
        assert_ne!(assignment[0], assignment[1]);
    }

    #[test]
    fn validation_detects_threshold_violations() {
        let view = view();
        let mut refinement = SortRefinement::from_assignment(
            &view,
            &SigmaSpec::Coverage,
            Ratio::ZERO,
            &[0, 0, 1, 1],
            2,
        )
        .unwrap();
        refinement.threshold = Ratio::ONE;
        assert!(matches!(
            refinement.validate(&view),
            Err(ValidationError::BelowThreshold { .. })
        ));
    }

    #[test]
    fn validation_detects_partition_defects() {
        let view = view();
        let base = SortRefinement::from_assignment(
            &view,
            &SigmaSpec::Coverage,
            Ratio::ZERO,
            &[0, 0, 1, 1],
            2,
        )
        .unwrap();

        let mut duplicated = base.clone();
        duplicated.sorts[0].signatures.push(2);
        assert!(matches!(
            duplicated.validate(&view),
            Err(ValidationError::DuplicateSignature(2))
        ));

        let mut missing = base.clone();
        missing.sorts[1].signatures.retain(|&sig| sig != 3);
        assert!(matches!(
            missing.validate(&view),
            Err(ValidationError::MissingSignature(3))
        ));

        let mut unknown = base.clone();
        unknown.sorts[1].signatures.push(9);
        assert!(matches!(
            unknown.validate(&view),
            Err(ValidationError::UnknownSignature(9))
        ));

        let mut empty = base;
        empty.sorts[1].signatures.clear();
        assert!(matches!(
            empty.validate(&view),
            Err(ValidationError::EmptySort(1))
        ));
    }
}
