//! The two search strategies built on the decision procedure (Section 7):
//!
//! * **Highest θ for a fixed k** — starting from the structuredness of the
//!   whole dataset (which is always feasible), increase θ in fixed steps
//!   (0.01 in the paper) and keep the last feasible refinement.
//! * **Lowest k for a fixed θ** — sweep k upward from 1 (or downward from
//!   |Λ(D)|) and return the smallest k admitting a refinement. The paper
//!   chooses the sweep direction per experiment; both are provided.

use std::time::{Duration, Instant};

use strudel_rdf::signature::SignatureView;
use strudel_rules::prelude::Ratio;

use crate::engine::{RefineOutcome, RefinementEngine};
use crate::error::RefineError;
use crate::refinement::SortRefinement;
use crate::sigma::SigmaSpec;

/// One probe of the underlying decision procedure.
#[derive(Clone, Debug)]
pub struct SearchStep {
    /// The threshold probed.
    pub theta: Ratio,
    /// The number of implicit sorts probed.
    pub k: usize,
    /// The engine's answer: `Some(true)` feasible, `Some(false)` infeasible,
    /// `None` undecided within budget.
    pub feasible: Option<bool>,
    /// Wall-clock time of the probe.
    pub duration: Duration,
}

/// Result of a highest-θ search.
#[derive(Clone, Debug)]
pub struct HighestThetaResult {
    /// The best refinement found (None only if even the starting θ failed,
    /// which cannot happen unless the engine hit its budget immediately).
    pub refinement: Option<SortRefinement>,
    /// The highest threshold for which a refinement was found.
    pub theta: Ratio,
    /// Every probe performed, in order.
    pub steps: Vec<SearchStep>,
    /// Whether the search stopped because the engine could not decide an
    /// instance within its budget (rather than because of infeasibility).
    pub hit_budget: bool,
}

/// Result of a lowest-k search.
#[derive(Clone, Debug)]
pub struct LowestKResult {
    /// The refinement at the smallest feasible k, if any.
    pub refinement: Option<SortRefinement>,
    /// The smallest k for which a refinement was found.
    pub k: Option<usize>,
    /// Every probe performed, in order.
    pub steps: Vec<SearchStep>,
    /// Whether an undecided probe cut the sweep short.
    pub hit_budget: bool,
}

/// Options of the highest-θ search.
#[derive(Clone, Debug)]
pub struct HighestThetaOptions {
    /// Increment between successive thresholds (the paper uses 0.01).
    pub step: Ratio,
    /// Starting threshold; defaults to σ(D), which is always feasible.
    pub start: Option<Ratio>,
}

impl Default for HighestThetaOptions {
    fn default() -> Self {
        HighestThetaOptions {
            step: Ratio::new(1, 100),
            start: None,
        }
    }
}

/// Direction of the lowest-k sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepDirection {
    /// Try k = 1, 2, 3, … until feasible.
    Upward,
    /// Start from k = |Λ(D)| and decrease while feasible.
    Downward,
}

/// Searches for the highest threshold θ admitting a refinement with at most
/// `k` implicit sorts (sequential search, as in Section 7).
pub fn highest_theta(
    view: &SignatureView,
    spec: &SigmaSpec,
    k: usize,
    engine: &dyn RefinementEngine,
    options: &HighestThetaOptions,
) -> Result<HighestThetaResult, RefineError> {
    crate::encode::validate_inputs(view, Ratio::ZERO, k)?;
    if options.step <= Ratio::ZERO {
        return Err(RefineError::NonPositiveStep(options.step.to_string()));
    }
    let start = match options.start {
        Some(theta) => theta,
        // Start from σ(D), rounded *down* to the step grid. σ(D) itself is
        // always feasible (leave the dataset whole), so the rounded value is
        // too — and grid-aligned thresholds keep the θ₁/θ₂ factors of the
        // ILP threshold constraint small (σ(D) of a large dataset can be a
        // fraction with a ~10¹²-sized denominator, which would overflow the
        // encoded coefficients).
        None => round_down_to_grid(spec.evaluate(view)?, options.step),
    };
    let mut theta = if start > Ratio::ONE {
        Ratio::ONE
    } else {
        start
    };
    let mut best: Option<(Ratio, SortRefinement)> = None;
    let mut steps = Vec::new();
    let mut hit_budget = false;

    loop {
        let begin = Instant::now();
        let outcome = engine.refine(view, spec, k, theta)?;
        let duration = begin.elapsed();
        match outcome {
            RefineOutcome::Refinement(refinement) => {
                steps.push(SearchStep {
                    theta,
                    k,
                    feasible: Some(true),
                    duration,
                });
                best = Some((theta, refinement));
            }
            RefineOutcome::Infeasible => {
                steps.push(SearchStep {
                    theta,
                    k,
                    feasible: Some(false),
                    duration,
                });
                break;
            }
            RefineOutcome::Unknown => {
                steps.push(SearchStep {
                    theta,
                    k,
                    feasible: None,
                    duration,
                });
                hit_budget = true;
                break;
            }
        }
        if theta >= Ratio::ONE {
            break;
        }
        let next = theta + options.step;
        theta = if next > Ratio::ONE { Ratio::ONE } else { next };
    }

    let (theta, refinement) = match best {
        Some((theta, refinement)) => (theta, Some(refinement)),
        None => (start, None),
    };
    Ok(HighestThetaResult {
        refinement,
        theta,
        steps,
        hit_budget,
    })
}

/// Rounds `value` down to the largest multiple of `step` not exceeding it
/// (assumes `step > 0`).
fn round_down_to_grid(value: Ratio, step: Ratio) -> Ratio {
    if step <= Ratio::ZERO {
        return value;
    }
    let quotient = value / step;
    // Floor of a non-negative rational.
    let floor = quotient.numer() / quotient.denom();
    Ratio::from_integer(floor) * step
}

/// Searches for the smallest number of implicit sorts admitting a refinement
/// with threshold `theta`.
pub fn lowest_k(
    view: &SignatureView,
    spec: &SigmaSpec,
    theta: Ratio,
    engine: &dyn RefinementEngine,
    direction: SweepDirection,
    max_k: Option<usize>,
) -> Result<LowestKResult, RefineError> {
    // Feasibility is monotone in k and saturates at the signature count, so
    // no sweep needs to probe past it.
    let limit = crate::encode::validate_inputs(view, theta, max_k.unwrap_or(usize::MAX).max(1))?;
    let mut steps = Vec::new();
    let mut hit_budget = false;
    let mut best: Option<(usize, SortRefinement)> = None;

    let probe = |k: usize,
                 steps: &mut Vec<SearchStep>,
                 hit_budget: &mut bool|
     -> Result<Option<SortRefinement>, RefineError> {
        let begin = Instant::now();
        let outcome = engine.refine(view, spec, k, theta)?;
        let duration = begin.elapsed();
        let feasible = match &outcome {
            RefineOutcome::Refinement(_) => Some(true),
            RefineOutcome::Infeasible => Some(false),
            RefineOutcome::Unknown => None,
        };
        steps.push(SearchStep {
            theta,
            k,
            feasible,
            duration,
        });
        if feasible.is_none() {
            *hit_budget = true;
        }
        Ok(match outcome {
            RefineOutcome::Refinement(refinement) => Some(refinement),
            _ => None,
        })
    };

    match direction {
        SweepDirection::Upward => {
            for k in 1..=limit {
                match probe(k, &mut steps, &mut hit_budget)? {
                    Some(refinement) => {
                        best = Some((k, refinement));
                        break;
                    }
                    None if hit_budget => break,
                    None => {}
                }
            }
        }
        SweepDirection::Downward => {
            let mut k = limit;
            while let Some(refinement) = probe(k, &mut steps, &mut hit_budget)? {
                // A refinement may use fewer than k non-empty sorts; jump
                // directly below what it actually used.
                let used = refinement.k().max(1);
                best = Some((used, refinement));
                if used == 1 {
                    break;
                }
                k = used - 1;
            }
        }
    }

    let (k, refinement) = match best {
        Some((k, refinement)) => (Some(k), Some(refinement)),
        None => (None, None),
    };
    Ok(LowestKResult {
        refinement,
        k,
        steps,
        hit_budget,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ExhaustiveEngine, IlpEngine};

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
    fn rounding_down_to_the_grid() {
        assert_eq!(
            round_down_to_grid(Ratio::new(773, 1000), Ratio::new(1, 100)),
            Ratio::new(77, 100)
        );
        assert_eq!(
            round_down_to_grid(Ratio::new(54, 100), Ratio::new(1, 100)),
            Ratio::new(54, 100)
        );
        assert_eq!(
            round_down_to_grid(Ratio::new(1, 3), Ratio::new(1, 20)),
            Ratio::new(6, 20)
        );
        assert_eq!(
            round_down_to_grid(Ratio::ONE, Ratio::new(1, 100)),
            Ratio::ONE
        );
        assert_eq!(
            round_down_to_grid(Ratio::new(1, 200), Ratio::new(1, 100)),
            Ratio::ZERO
        );
    }

    #[test]
    fn highest_theta_improves_on_the_whole_dataset() {
        let view = view();
        let engine = IlpEngine::new();
        let result = highest_theta(
            &view,
            &SigmaSpec::Coverage,
            2,
            &engine,
            &HighestThetaOptions::default(),
        )
        .unwrap();
        let whole = SigmaSpec::Coverage.evaluate(&view).unwrap();
        let refinement = result.refinement.expect("a refinement exists");
        assert!(result.theta >= whole);
        assert!(refinement.min_sigma() >= result.theta);
        refinement.validate(&view).unwrap();
        assert!(!result.steps.is_empty());
        // The last probe is either infeasible or θ reached 1.
        let last = result.steps.last().unwrap();
        assert!(last.feasible == Some(false) || last.theta == Ratio::ONE);
    }

    #[test]
    fn highest_theta_agrees_between_ilp_and_exhaustive() {
        let view = view();
        let coarse = HighestThetaOptions {
            step: Ratio::new(1, 20),
            start: None,
        };
        let ilp =
            highest_theta(&view, &SigmaSpec::Coverage, 2, &IlpEngine::new(), &coarse).unwrap();
        let exhaustive = highest_theta(
            &view,
            &SigmaSpec::Coverage,
            2,
            &ExhaustiveEngine::new(),
            &coarse,
        )
        .unwrap();
        assert_eq!(ilp.theta, exhaustive.theta);
    }

    #[test]
    fn lowest_k_upward_and_downward_agree() {
        let view = view();
        let theta = Ratio::new(9, 10);
        let engine = IlpEngine::new();
        let upward = lowest_k(
            &view,
            &SigmaSpec::Coverage,
            theta,
            &engine,
            SweepDirection::Upward,
            None,
        )
        .unwrap();
        let downward = lowest_k(
            &view,
            &SigmaSpec::Coverage,
            theta,
            &engine,
            SweepDirection::Downward,
            None,
        )
        .unwrap();
        assert_eq!(upward.k, downward.k);
        let k = upward.k.expect("θ = 0.9 is reachable with singleton sorts");
        assert!(k >= 1 && k <= view.signature_count());
        let refinement = upward.refinement.unwrap();
        assert!(refinement.min_sigma() >= theta);
    }

    #[test]
    fn lowest_k_is_one_for_trivial_thresholds() {
        let view = view();
        let engine = IlpEngine::new();
        let result = lowest_k(
            &view,
            &SigmaSpec::Coverage,
            Ratio::new(1, 10),
            &engine,
            SweepDirection::Upward,
            None,
        )
        .unwrap();
        assert_eq!(result.k, Some(1));
    }
}
