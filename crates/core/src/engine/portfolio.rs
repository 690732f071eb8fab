//! A raced engine portfolio for the cache-miss path.
//!
//! Three arms attack the same instance concurrently:
//!
//! * **greedy** — the heuristic; fast, can only answer with a verified
//!   refinement (its successes are feasibility certificates),
//! * **ilp-warm** — the exact solver seeded with a neighbor's solution
//!   (only entered when a hint is available),
//! * **ilp-cold** — the exact solver from scratch; the completeness
//!   backstop that can also prove infeasibility.
//!
//! The first arm to produce a *decisive* outcome (a refinement or an
//! infeasibility proof) wins; `Unknown` answers never win. The winner flips
//! the losers' cooperative stop flags, so the exact arms abandon their trees
//! within one node, and the race returns once every arm has stopped. All
//! arms are sound, so whichever wins, the answer is correct — racing only
//! changes *which* correct answer (and how fast) you get.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use strudel_ilp::prelude::SolveStats;
use strudel_rdf::signature::SignatureView;
use strudel_rules::prelude::Ratio;

use crate::error::RefineError;
use crate::sigma::SigmaSpec;

use super::ilp::RefinementHint;
use super::{
    GreedyConfig, GreedyEngine, IlpEngine, IlpEngineConfig, RefineOutcome, RefinementEngine,
};

/// Identifies which arm of the portfolio produced the answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PortfolioArm {
    /// The greedy heuristic arm.
    Greedy,
    /// The warm-started exact arm.
    IlpWarm,
    /// The cold exact arm.
    IlpCold,
}

impl PortfolioArm {
    /// Short identifier used in metrics and reports.
    pub fn name(self) -> &'static str {
        match self {
            PortfolioArm::Greedy => "greedy",
            PortfolioArm::IlpWarm => "ilp-warm",
            PortfolioArm::IlpCold => "ilp-cold",
        }
    }
}

/// The result of a raced solve.
#[derive(Clone, Debug)]
pub struct PortfolioOutcome {
    /// The winning (or fallback) outcome.
    pub outcome: RefineOutcome,
    /// Which arm won; `None` when no arm was decisive.
    pub winner: Option<PortfolioArm>,
    /// Solver statistics of the winning arm, when it was an exact arm.
    pub stats: Option<SolveStats>,
}

/// Races greedy / warm ILP / cold ILP inside a shared time budget.
#[derive(Clone, Debug, Default)]
pub struct PortfolioEngine {
    time_limit: Option<Duration>,
}

type ArmResult = Result<(RefineOutcome, Option<SolveStats>), RefineError>;

impl PortfolioEngine {
    /// Creates a portfolio with default sub-engines and no budget.
    pub fn new() -> Self {
        PortfolioEngine::default()
    }

    /// Sets the shared wall-clock budget for every arm.
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Races the arms on one instance. `hint` enables the warm arm.
    pub fn refine_raced(
        &self,
        view: &SignatureView,
        spec: &SigmaSpec,
        k: usize,
        theta: Ratio,
        hint: Option<&RefinementHint>,
    ) -> Result<PortfolioOutcome, RefineError> {
        let warm_stop = Arc::new(AtomicBool::new(false));
        let cold_stop = Arc::new(AtomicBool::new(false));
        // First decisive answer in; the winner silences the exact arms.
        let podium: Mutex<Option<(PortfolioArm, RefineOutcome, Option<SolveStats>)>> =
            Mutex::new(None);
        let declare = |arm: PortfolioArm, result: ArmResult| -> ArmResult {
            if let Ok((outcome, stats)) = &result {
                if outcome.is_decided() {
                    let mut podium = podium.lock().expect("podium lock");
                    if podium.is_none() {
                        *podium = Some((arm, outcome.clone(), *stats));
                        warm_stop.store(true, Ordering::Relaxed);
                        cold_stop.store(true, Ordering::Relaxed);
                    }
                }
            }
            result
        };

        let run_warm = hint.is_some_and(|hint| !hint.is_empty());
        let mut arm_results: Vec<ArmResult> = Vec::new();
        std::thread::scope(|scope| {
            let greedy_arm = scope.spawn(|| {
                let engine = GreedyEngine::with_config(GreedyConfig {
                    time_limit: self.time_limit,
                    ..GreedyConfig::default()
                });
                declare(
                    PortfolioArm::Greedy,
                    engine.refine(view, spec, k, theta).map(|o| (o, None)),
                )
            });
            let warm_arm = run_warm.then(|| {
                scope.spawn(|| {
                    let engine = IlpEngine::with_config(IlpEngineConfig {
                        time_limit: self.time_limit,
                        stop: Some(Arc::clone(&warm_stop)),
                        ..IlpEngineConfig::default()
                    });
                    declare(
                        PortfolioArm::IlpWarm,
                        engine
                            .refine_with_hint(view, spec, k, theta, hint)
                            .map(|(o, stats)| (o, Some(stats))),
                    )
                })
            });
            let cold_arm = scope.spawn(|| {
                let engine = IlpEngine::with_config(IlpEngineConfig {
                    time_limit: self.time_limit,
                    stop: Some(Arc::clone(&cold_stop)),
                    ..IlpEngineConfig::default()
                });
                declare(
                    PortfolioArm::IlpCold,
                    engine
                        .refine_with_hint(view, spec, k, theta, None)
                        .map(|(o, stats)| (o, Some(stats))),
                )
            });
            arm_results.push(greedy_arm.join().expect("greedy arm panicked"));
            if let Some(arm) = warm_arm {
                arm_results.push(arm.join().expect("warm arm panicked"));
            }
            arm_results.push(cold_arm.join().expect("cold arm panicked"));
        });

        if let Some((arm, outcome, stats)) = podium.into_inner().expect("podium lock") {
            return Ok(PortfolioOutcome {
                outcome,
                winner: Some(arm),
                stats,
            });
        }
        // No decisive arm: propagate the first error, else report Unknown
        // (every arm ran out of budget).
        for result in arm_results {
            result?;
        }
        Ok(PortfolioOutcome {
            outcome: RefineOutcome::Unknown,
            winner: None,
            stats: None,
        })
    }
}

impl RefinementEngine for PortfolioEngine {
    fn name(&self) -> &'static str {
        "portfolio"
    }

    fn refine(
        &self,
        view: &SignatureView,
        spec: &SigmaSpec,
        k: usize,
        theta: Ratio,
    ) -> Result<RefineOutcome, RefineError> {
        self.refine_raced(view, spec, k, theta, None)
            .map(|raced| raced.outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::super::hint_from_refinement;
    use super::*;

    fn view() -> SignatureView {
        SignatureView::from_counts(
            vec![
                "http://ex/name".into(),
                "http://ex/birthDate".into(),
                "http://ex/deathDate".into(),
                "http://ex/deathPlace".into(),
            ],
            vec![
                (vec![0], 40),
                (vec![0, 1], 25),
                (vec![0, 1, 2], 10),
                (vec![0, 1, 2, 3], 5),
                (vec![0, 2, 3], 2),
            ],
        )
        .unwrap()
    }

    #[test]
    fn race_finds_a_feasible_refinement() {
        let view = view();
        let portfolio = PortfolioEngine::new();
        let raced = portfolio
            .refine_raced(&view, &SigmaSpec::Coverage, 2, Ratio::new(13, 20), None)
            .unwrap();
        let refinement = raced.outcome.refinement().expect("feasible instance");
        refinement.validate(&view).unwrap();
        assert!(raced.winner.is_some());
        assert_ne!(raced.winner, Some(PortfolioArm::IlpWarm), "no hint given");
    }

    #[test]
    fn race_proves_infeasibility() {
        let view = view();
        let portfolio = PortfolioEngine::new();
        let raced = portfolio
            .refine_raced(&view, &SigmaSpec::Coverage, 1, Ratio::ONE, None)
            .unwrap();
        assert!(matches!(raced.outcome, RefineOutcome::Infeasible));
        // Only the exact cold arm can prove infeasibility without a hint.
        assert_eq!(raced.winner, Some(PortfolioArm::IlpCold));
    }

    #[test]
    fn warm_arm_runs_when_a_hint_is_available() {
        let view = view();
        let ilp = IlpEngine::new();
        let theta = Ratio::new(13, 20);
        let prior = ilp
            .refine(&view, &SigmaSpec::Coverage, 2, theta)
            .unwrap()
            .refinement()
            .cloned()
            .unwrap();
        let hint = hint_from_refinement(&view, &prior);
        let portfolio = PortfolioEngine::new();
        let raced = portfolio
            .refine_raced(&view, &SigmaSpec::Coverage, 2, theta, Some(&hint))
            .unwrap();
        let refinement = raced.outcome.refinement().expect("feasible instance");
        assert!(refinement.min_sigma() >= theta);
        assert!(raced.winner.is_some());
    }

    #[test]
    fn exhausted_budget_is_unknown_not_wrong() {
        let view = view();
        let portfolio = PortfolioEngine::new().with_time_limit(Duration::ZERO);
        let raced = portfolio
            .refine_raced(&view, &SigmaSpec::Coverage, 2, Ratio::new(19, 20), None)
            .unwrap();
        if let Some(winner) = raced.winner {
            // A zero budget can still be won by an arm that finishes its
            // first node before the deadline check; the answer must then be
            // decisive and sound.
            assert!(raced.outcome.is_decided(), "winner {winner:?} not decisive");
        } else {
            assert!(matches!(raced.outcome, RefineOutcome::Unknown));
        }
    }
}
