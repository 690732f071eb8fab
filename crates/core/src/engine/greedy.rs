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
//! Every phase scores candidates: a placement, a move (its source and its
//! target sort) or a merge. For a builtin σ each sort keeps its running
//! [`ColumnCounts`] (subjects, subjects per column, and the subjects with
//! both columns of a dependency rule), and a candidate is scored by copying
//! the sort's counts into a reused scratch buffer, adding or taking away
//! one signature set's counts (or the other sort's), and applying the
//! closed form of `strudel_rules::builtin`: no sub-view is built and no
//! allocation made. The counts are exact integers, so the scores, and
//! every decision, are those of evaluating σ on the candidate's sub-view.
//! A custom rule has no closed form, so it is scored on the candidate's
//! sub-view through the generic evaluator.
//!
//! The engine cannot prove infeasibility — when the final minimum is below
//! the threshold it answers [`RefineOutcome::Unknown`] — but it scales far
//! beyond the exact engines and serves as the fast path of the hybrid engine
//! and as the ablation baseline in the benchmark suite.

use std::time::{Duration, Instant};

use strudel_rdf::signature::SignatureView;
use strudel_rules::builtin::{ClosedForm, ColumnCounts};
use strudel_rules::eval::Evaluator;
use strudel_rules::prelude::{Ratio, Rule};

use crate::error::RefineError;
use crate::refinement::SortRefinement;
use crate::sigma::{ResolvedSpec, SigmaSpec};

use super::{RefineOutcome, RefinementEngine};

/// Local-search passes over all signatures.
const IMPROVEMENT_PASSES: usize = 3;

/// The greedy/local-search engine.
#[derive(Clone, Debug, Default)]
pub struct GreedyEngine {
    /// Wall-clock budget. The heuristic checks the deadline between
    /// placements/moves: construction interrupted mid-way answers
    /// [`RefineOutcome::Unknown`], while a deadline during the improvement
    /// phases just stops improving and returns the current partition.
    time_limit: Option<Duration>,
}

/// A change to one sort whose σ the partition scores.
#[derive(Clone, Copy)]
enum Change {
    /// The sort gains a signature set.
    Add(usize),
    /// The sort loses one of its signature sets.
    Remove(usize),
    /// The sort absorbs every signature set of another sort.
    Merge(usize),
}

/// How the partition scores a sort.
enum Scorer<'a> {
    /// A closed form: every sort keeps its running counts, and a change is
    /// scored by copying the sort's counts into `scratch` and adding or
    /// taking away a signature set's counts (or the other sort's).
    Counts {
        form: ClosedForm,
        sorts: Vec<ColumnCounts>,
        scratch: ColumnCounts,
    },
    /// A custom rule has no closed form: a change is scored on the changed
    /// sort's sub-view through the generic evaluator.
    SubView(&'a Rule),
}

/// Working state of a candidate partition: per-sort members, each
/// signature's sort, and each sort's cached σ.
struct Partition<'a> {
    view: &'a SignatureView,
    scorer: Scorer<'a>,
    members: Vec<Vec<usize>>,
    /// The sort of every placed signature: the assignment, once all are.
    sort_of: Vec<usize>,
    sigmas: Vec<Option<Ratio>>,
}

impl<'a> Partition<'a> {
    fn new(view: &'a SignatureView, spec: &'a SigmaSpec, k: usize) -> Self {
        let scorer = match spec.resolve(view) {
            ResolvedSpec::Closed(form) => {
                let empty = form.empty_counts(view.property_count());
                Scorer::Counts {
                    form,
                    sorts: vec![empty.clone(); k],
                    scratch: empty,
                }
            }
            ResolvedSpec::Custom(rule) => Scorer::SubView(rule),
        };
        Partition {
            view,
            scorer,
            members: vec![Vec::new(); k],
            sort_of: vec![0; view.signature_count()],
            sigmas: vec![None; k],
        }
    }

    /// σ `sort` would have after `change`; the partition stays as it is.
    fn sigma_after(&mut self, sort: usize, change: Change) -> Result<Ratio, RefineError> {
        let entries = self.view.entries();
        match &mut self.scorer {
            Scorer::Counts {
                form,
                sorts,
                scratch,
            } => {
                scratch.clone_from(&sorts[sort]);
                match change {
                    Change::Add(sig) => scratch.add(&entries[sig]),
                    Change::Remove(sig) => scratch.remove(&entries[sig]),
                    Change::Merge(other) => scratch.merge(&sorts[other]),
                }
                Ok(form.sigma(scratch))
            }
            Scorer::SubView(rule) => {
                let mut members = self.members[sort].clone();
                match change {
                    Change::Add(sig) => members.push(sig),
                    Change::Remove(sig) => members.retain(|&s| s != sig),
                    Change::Merge(other) => members.extend_from_slice(&self.members[other]),
                }
                Ok(Evaluator::new(&self.view.subset(&members)).sigma(rule)?)
            }
        }
    }

    /// Applies `change` to `sort` and refreshes the σ of every sort it
    /// touches.
    fn apply(&mut self, sort: usize, change: Change) -> Result<(), RefineError> {
        let entries = self.view.entries();
        match change {
            Change::Add(sig) => {
                self.members[sort].push(sig);
                self.sort_of[sig] = sort;
            }
            Change::Remove(sig) => self.members[sort].retain(|&s| s != sig),
            Change::Merge(other) => {
                let moved = std::mem::take(&mut self.members[other]);
                for &sig in &moved {
                    self.sort_of[sig] = sort;
                }
                self.members[sort].extend(moved);
            }
        }
        if let Scorer::Counts { sorts, scratch, .. } = &mut self.scorer {
            match change {
                Change::Add(sig) => sorts[sort].add(&entries[sig]),
                Change::Remove(sig) => sorts[sort].remove(&entries[sig]),
                Change::Merge(other) => {
                    scratch.clone_from(&sorts[other]);
                    sorts[sort].merge(scratch);
                    sorts[other].clear();
                }
            }
        }
        self.recompute(sort)?;
        if let Change::Merge(other) = change {
            self.recompute(other)?;
        }
        Ok(())
    }

    fn recompute(&mut self, sort: usize) -> Result<(), RefineError> {
        self.sigmas[sort] = if self.members[sort].is_empty() {
            None
        } else {
            Some(match &self.scorer {
                Scorer::Counts { form, sorts, .. } => form.sigma(&sorts[sort]),
                Scorer::SubView(rule) => {
                    Evaluator::new(&self.view.subset(&self.members[sort])).sigma(rule)?
                }
            })
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

    /// The minimum σ over the non-empty sorts other than `skip`.
    fn quality_without(&self, skip: [usize; 2]) -> Ratio {
        self.sigmas
            .iter()
            .enumerate()
            .filter(|(idx, _)| !skip.contains(idx))
            .filter_map(|(_, sigma)| *sigma)
            .min()
            .unwrap_or(Ratio::ONE)
    }
}

impl GreedyEngine {
    /// Creates an engine with no time limit.
    pub fn new() -> Self {
        GreedyEngine::default()
    }

    /// Creates an engine with a wall-clock budget.
    pub fn with_time_limit(limit: Duration) -> Self {
        GreedyEngine {
            time_limit: Some(limit),
        }
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
        let deadline = self.time_limit.map(|limit| Instant::now() + limit);
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
                // Only the candidate sort's σ changes.
                let quality = partition
                    .sigma_after(candidate, Change::Add(sig))?
                    .min(partition.quality_without([candidate; 2]));
                if best.map(|(q, _)| quality > q).unwrap_or(true) {
                    best = Some((quality, candidate));
                }
            }
            let (_, chosen) = best.expect("k ≥ 1 guarantees a candidate");
            partition.apply(chosen, Change::Add(sig))?;
        }

        // Phase 2 — local search: move single signatures while the minimum
        // per-sort σ improves.
        'improve: for _ in 0..IMPROVEMENT_PASSES {
            let mut improved = false;
            for sig in 0..signatures {
                if expired() {
                    break 'improve;
                }
                let current_sort = partition.sort_of[sig];
                if partition.members[current_sort].len() == 1 {
                    continue;
                }
                let current_quality = partition.quality();
                // Evaluate each move: remove from current (which keeps at
                // least one signature), add to candidate.
                let source_sigma = partition.sigma_after(current_sort, Change::Remove(sig))?;
                for candidate in 0..k {
                    if candidate == current_sort {
                        continue;
                    }
                    let target_sigma = partition.sigma_after(candidate, Change::Add(sig))?;
                    let moved_quality = target_sigma
                        .min(source_sigma)
                        .min(partition.quality_without([current_sort, candidate]));
                    if moved_quality > current_quality {
                        partition.apply(current_sort, Change::Remove(sig))?;
                        partition.apply(candidate, Change::Add(sig))?;
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
        if partition.quality() >= theta {
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
                        let sigma = partition.sigma_after(a, Change::Merge(b))?;
                        if sigma >= theta && best_merge.map(|(q, _, _)| sigma > q).unwrap_or(true) {
                            best_merge = Some((sigma, a, b));
                        }
                    }
                }
                match best_merge {
                    Some((_, a, b)) => partition.apply(a, Change::Merge(b))?,
                    None => break,
                }
            }
        }

        let refinement = SortRefinement::from_assignment(view, spec, theta, &partition.sort_of, k)?;
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
    }
}
