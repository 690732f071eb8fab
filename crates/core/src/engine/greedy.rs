//! A greedy / local-search heuristic engine.
//!
//! The heuristic works in three phases:
//!
//! 1. **Construction** — signatures (largest first) are placed into the
//!    implicit sort where the placement keeps the minimum per-sort
//!    structuredness as high as possible;
//! 2. **Local search** — single signatures are moved between sorts while the
//!    minimum improves;
//! 3. **Consolidation** — once the threshold is met, whole sorts are merged
//!    as long as the merged sort still meets the threshold, so the heuristic
//!    also produces *few* sorts (which is what the lowest-k sweeps need).
//!
//! The engine cannot prove infeasibility — when the final minimum is below
//! the threshold it answers [`RefineOutcome::Unknown`] — but it scales far
//! beyond the exact engines and serves as the fast path of the hybrid engine
//! and as the ablation baseline in the benchmark suite.

use std::time::{Duration, Instant};

use strudel_rdf::signature::SignatureView;
use strudel_rules::prelude::Ratio;

use crate::error::RefineError;
use crate::refinement::SortRefinement;
use crate::sigma::SigmaSpec;

use super::{RefineOutcome, RefinementEngine};

/// Configuration of the greedy engine.
#[derive(Clone, Debug)]
pub struct GreedyConfig {
    /// Number of local-search improvement passes over all signatures.
    pub improvement_passes: usize,
    /// Whether to run the sort-merging consolidation phase.
    pub consolidate: bool,
    /// Wall-clock budget. The heuristic checks the deadline between
    /// placements/moves: construction interrupted mid-way answers
    /// [`RefineOutcome::Unknown`], while a deadline during the improvement
    /// phases just stops improving and returns the current partition.
    pub time_limit: Option<Duration>,
}

impl Default for GreedyConfig {
    fn default() -> Self {
        GreedyConfig {
            improvement_passes: 3,
            consolidate: true,
            time_limit: None,
        }
    }
}

/// The greedy/local-search engine.
#[derive(Clone, Debug, Default)]
pub struct GreedyEngine {
    config: GreedyConfig,
}

/// Working state of a candidate partition: per-sort member lists and cached σ.
struct Partition<'a> {
    view: &'a SignatureView,
    spec: &'a SigmaSpec,
    members: Vec<Vec<usize>>,
    sigmas: Vec<Option<Ratio>>,
}

impl<'a> Partition<'a> {
    fn new(view: &'a SignatureView, spec: &'a SigmaSpec, k: usize) -> Self {
        Partition {
            view,
            spec,
            members: vec![Vec::new(); k],
            sigmas: vec![None; k],
        }
    }

    fn sigma_of(&self, members: &[usize]) -> Result<Ratio, RefineError> {
        Ok(self.spec.evaluate(&self.view.subset(members))?)
    }

    fn recompute(&mut self, sort: usize) -> Result<(), RefineError> {
        self.sigmas[sort] = if self.members[sort].is_empty() {
            None
        } else {
            Some(self.sigma_of(&self.members[sort])?)
        };
        Ok(())
    }

    /// The minimum σ over non-empty sorts (1 when everything is empty).
    fn quality(&self) -> Ratio {
        self.sigmas
            .iter()
            .flatten()
            .copied()
            .min()
            .unwrap_or(Ratio::ONE)
    }

    /// σ the sort would have with one extra signature.
    fn sigma_with(&self, sort: usize, extra: usize) -> Result<Ratio, RefineError> {
        let mut members = self.members[sort].clone();
        members.push(extra);
        self.sigma_of(&members)
    }

    /// Quality of the partition if `extra` were added to `sort` (only that
    /// sort's σ changes).
    fn quality_with(&self, sort: usize, extra: usize) -> Result<Ratio, RefineError> {
        let candidate_sigma = self.sigma_with(sort, extra)?;
        let min_other = self
            .sigmas
            .iter()
            .enumerate()
            .filter(|&(idx, _)| idx != sort)
            .filter_map(|(_, sigma)| *sigma)
            .min()
            .unwrap_or(Ratio::ONE);
        Ok(candidate_sigma.min(min_other))
    }

    fn place(&mut self, sort: usize, signature: usize) -> Result<(), RefineError> {
        self.members[sort].push(signature);
        self.recompute(sort)
    }

    fn assignment(&self) -> Vec<usize> {
        let mut assignment = vec![0usize; self.view.signature_count()];
        for (sort, members) in self.members.iter().enumerate() {
            for &sig in members {
                assignment[sig] = sort;
            }
        }
        assignment
    }
}

impl GreedyEngine {
    /// Creates an engine with default configuration.
    pub fn new() -> Self {
        GreedyEngine::default()
    }

    /// Creates an engine with an explicit configuration.
    pub fn with_config(config: GreedyConfig) -> Self {
        GreedyEngine { config }
    }

    /// Creates an engine with a wall-clock budget.
    pub fn with_time_limit(limit: Duration) -> Self {
        GreedyEngine::with_config(GreedyConfig {
            time_limit: Some(limit),
            ..GreedyConfig::default()
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &GreedyConfig {
        &self.config
    }
}

impl RefinementEngine for GreedyEngine {
    fn name(&self) -> &'static str {
        "greedy"
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
        let mut partition = Partition::new(view, spec, k);
        let deadline = self.config.time_limit.map(|limit| Instant::now() + limit);
        let expired = || deadline.is_some_and(|deadline| Instant::now() >= deadline);

        // Phase 1 — greedy construction, largest signature sets first (the
        // view is already ordered that way).
        for sig in 0..signatures {
            if expired() {
                // An unfinished construction is not a usable partition.
                return Ok(RefineOutcome::Unknown);
            }
            let mut best: Option<(Ratio, usize)> = None;
            let mut saw_empty_sort = false;
            for candidate in 0..k {
                let is_empty = partition.members[candidate].is_empty();
                if is_empty && saw_empty_sort {
                    // All further empty sorts are symmetric to the first one.
                    break;
                }
                saw_empty_sort |= is_empty;
                let quality = partition.quality_with(candidate, sig)?;
                if best.map(|(q, _)| quality > q).unwrap_or(true) {
                    best = Some((quality, candidate));
                }
            }
            let (_, chosen) = best.expect("k ≥ 1 guarantees a candidate");
            partition.place(chosen, sig)?;
        }

        // Phase 2 — local search: move single signatures while the minimum
        // per-sort σ improves.
        'improve: for _ in 0..self.config.improvement_passes {
            let mut improved = false;
            for sig in 0..signatures {
                if expired() {
                    break 'improve;
                }
                let assignment = partition.assignment();
                let current_sort = assignment[sig];
                if partition.members[current_sort].len() == 1 {
                    continue;
                }
                let current_quality = partition.quality();
                for candidate in 0..k {
                    if candidate == current_sort {
                        continue;
                    }
                    // Evaluate the move: remove from current, add to candidate.
                    let mut source = partition.members[current_sort].clone();
                    source.retain(|&s| s != sig);
                    let source_sigma = if source.is_empty() {
                        None
                    } else {
                        Some(partition.sigma_of(&source)?)
                    };
                    let target_sigma = partition.sigma_with(candidate, sig)?;
                    let min_other = partition
                        .sigmas
                        .iter()
                        .enumerate()
                        .filter(|&(idx, _)| idx != current_sort && idx != candidate)
                        .filter_map(|(_, sigma)| *sigma)
                        .min()
                        .unwrap_or(Ratio::ONE);
                    let moved_quality = [Some(target_sigma), source_sigma, Some(min_other)]
                        .into_iter()
                        .flatten()
                        .min()
                        .unwrap_or(Ratio::ONE);
                    if moved_quality > current_quality {
                        partition.members[current_sort].retain(|&s| s != sig);
                        partition.members[candidate].push(sig);
                        partition.recompute(current_sort)?;
                        partition.recompute(candidate)?;
                        improved = true;
                        break;
                    }
                }
            }
            if !improved {
                break;
            }
        }

        // Phase 3 — consolidation: merge whole sorts while the merge keeps
        // the threshold, so the result also uses few sorts.
        if self.config.consolidate && partition.quality() >= theta {
            loop {
                if expired() {
                    break;
                }
                let occupied: Vec<usize> = (0..k)
                    .filter(|&sort| !partition.members[sort].is_empty())
                    .collect();
                let mut best_merge: Option<(Ratio, usize, usize)> = None;
                for (a_pos, &a) in occupied.iter().enumerate() {
                    for &b in occupied.iter().skip(a_pos + 1) {
                        let mut merged = partition.members[a].clone();
                        merged.extend_from_slice(&partition.members[b]);
                        let sigma = partition.sigma_of(&merged)?;
                        if sigma >= theta && best_merge.map(|(q, _, _)| sigma > q).unwrap_or(true) {
                            best_merge = Some((sigma, a, b));
                        }
                    }
                }
                match best_merge {
                    Some((_, a, b)) => {
                        let moved = std::mem::take(&mut partition.members[b]);
                        partition.members[a].extend(moved);
                        partition.recompute(a)?;
                        partition.recompute(b)?;
                    }
                    None => break,
                }
            }
        }

        let refinement =
            SortRefinement::from_assignment(view, spec, theta, &partition.assignment(), k)?;
        if refinement.min_sigma() >= theta {
            Ok(RefineOutcome::Refinement(refinement))
        } else {
            // The heuristic failed to reach the threshold; that is not a
            // proof that no refinement exists.
            Ok(RefineOutcome::Unknown)
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
    fn reaches_easily_feasible_thresholds() {
        let view = view();
        let engine = GreedyEngine::new();
        let outcome = engine
            .refine(&view, &SigmaSpec::Coverage, 2, Ratio::new(13, 20))
            .unwrap();
        let refinement = outcome.refinement().expect("greedy reaches θ = 0.65");
        refinement.validate(&view).unwrap();
        assert!(refinement.min_sigma() >= Ratio::new(13, 20));
    }

    #[test]
    fn an_expired_budget_yields_unknown_not_a_partial_partition() {
        let view = view();
        let engine = GreedyEngine::with_time_limit(std::time::Duration::ZERO);
        let outcome = engine
            .refine(&view, &SigmaSpec::Coverage, 2, Ratio::new(1, 2))
            .unwrap();
        assert!(matches!(outcome, RefineOutcome::Unknown));
    }

    #[test]
    fn never_claims_infeasibility() {
        let view = view();
        let engine = GreedyEngine::new();
        let outcome = engine
            .refine(&view, &SigmaSpec::Coverage, 1, Ratio::ONE)
            .unwrap();
        assert!(matches!(outcome, RefineOutcome::Unknown));
    }

    #[test]
    fn improves_over_the_trivial_single_sort() {
        let view = view();
        let engine = GreedyEngine::new();
        let whole = SigmaSpec::Coverage.evaluate(&view).unwrap();
        let outcome = engine
            .refine(&view, &SigmaSpec::Coverage, 3, Ratio::ZERO)
            .unwrap();
        let refinement = outcome.refinement().unwrap();
        assert!(
            refinement.min_sigma() >= whole,
            "greedy should not do worse than leaving the dataset whole"
        );
    }

    #[test]
    fn handles_k_larger_than_signature_count() {
        let view = view();
        let engine = GreedyEngine::new();
        let outcome = engine
            .refine(&view, &SigmaSpec::Coverage, 10, Ratio::ONE)
            .unwrap();
        let refinement = outcome.refinement().expect("singletons reach σ = 1");
        assert!(refinement.k() <= view.signature_count());
        assert_eq!(refinement.min_sigma(), Ratio::ONE);
    }

    #[test]
    fn consolidation_reduces_the_number_of_sorts() {
        // With a generous k and a modest threshold, the consolidation phase
        // should collapse the partition into few sorts instead of leaving
        // one sort per signature.
        let view = SignatureView::from_counts(
            vec!["http://ex/a".into(), "http://ex/b".into()],
            vec![(vec![0], 51), (vec![0, 1], 32), (vec![1], 20)],
        )
        .unwrap();
        let engine = GreedyEngine::new();
        let theta = Ratio::new(1, 2);
        let outcome = engine
            .refine(&view, &SigmaSpec::Coverage, view.signature_count(), theta)
            .unwrap();
        let refinement = outcome.refinement().expect("θ = 0.5 is easy");
        assert!(
            refinement.k() < view.signature_count(),
            "consolidation should merge some sorts, got k = {}",
            refinement.k()
        );
        assert!(refinement.min_sigma() >= theta);

        // Without consolidation the heuristic keeps more sorts.
        let no_merge = GreedyEngine::with_config(GreedyConfig {
            consolidate: false,
            ..GreedyConfig::default()
        });
        let outcome = no_merge
            .refine(&view, &SigmaSpec::Coverage, view.signature_count(), theta)
            .unwrap();
        let unmerged = outcome.refinement().expect("still feasible");
        assert!(unmerged.k() >= refinement.k());
    }
}
