//! The branch & bound search loop: depth-first exploration driven by a
//! [`Brancher`], incumbent-based objective bounding, Luby-scheduled restarts,
//! and warm-start hints.
//!
//! ## Warm starts
//!
//! A [`WarmStart`] carries `(variable, value)` pairs from a prior solution of
//! a *neighboring* instance. The search uses it in two ways:
//!
//! 1. **Value ordering** — at every node, the alternative matching the hint
//!    is tried first, so an exactly-right hint walks straight to the old
//!    solution with zero conflicts, and a stale hint degrades gracefully:
//!    propagation rejects the wrong entries and the search repairs them with
//!    the regular alternatives (counted in [`SolveStats::hint_mismatches`]).
//! 2. **Incumbent seeding** — for objective-bearing models the hint is first
//!    dived on a scratch level; if it completes to a feasible assignment, that
//!    assignment becomes the initial incumbent so bounding prunes from node
//!    one. A hint that does not verify feasible seeds nothing: an incumbent
//!    is only ever installed with a full propagation-checked witness.
//!
//! Hints never affect *which* variable is branched on, only the value order,
//! so completeness and the returned objective value are unchanged.
//!
//! ## Restarts
//!
//! With [`SolverConfig::restart_conflict_base`] set, run `i` of the search is
//! abandoned after `base × luby(i)` conflicts and restarted from the root.
//! The incumbent and brancher state (activities) survive the restart; the
//! Luby sequence grows unboundedly, so some run always gets enough budget to
//! finish the tree and the search stays complete.

use std::time::Instant;

use crate::brancher::{BranchChoice, Brancher};
use crate::engine::Engine;
use crate::error::IlpError;
use crate::model::{Model, Objective, Sense, VarId};
use crate::solution::{SolveResult, SolveStats, SolveStatus};
use crate::solver::SolverConfig;

/// The `i`-th term (1-indexed) of the Luby restart sequence
/// `1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, …`.
///
/// # Panics
/// Panics if `i` is zero.
pub fn luby(i: u64) -> u64 {
    assert!(i >= 1, "luby is 1-indexed");
    let mut x = i - 1;
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

/// A warm-start hint: variable values carried over from a prior solution.
///
/// Hints may be partial (only some variables) and stale (values that are no
/// longer feasible); the search treats them as preferences, never as
/// constraints.
#[derive(Debug, Clone, Default)]
pub struct WarmStart {
    values: Vec<(VarId, i64)>,
}

impl WarmStart {
    /// A hint from explicit `(variable, value)` pairs.
    pub fn from_values(values: Vec<(VarId, i64)>) -> Self {
        WarmStart { values }
    }

    /// The hinted pairs.
    pub fn values(&self) -> &[(VarId, i64)] {
        &self.values
    }

    /// Whether the hint carries no information.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of hinted variables.
    pub fn len(&self) -> usize {
        self.values.len()
    }
}

pub(crate) struct SearchState<'a> {
    engine: Engine,
    model: &'a Model,
    config: &'a SolverConfig,
    brancher: Box<dyn Brancher>,
    /// Hinted value per variable index (value ordering preference).
    preferred: Vec<Option<i64>>,
    deadline: Option<Instant>,
    nodes: u64,
    conflicts: u64,
    restarts: u64,
    /// Conflict count at which the current run restarts, if restarts are on.
    conflict_limit: Option<u64>,
    restart_pending: bool,
    incumbent: Option<Vec<i64>>,
    incumbent_objective: Option<i128>,
    aborted: bool,
}

/// Runs the full solve: root propagation, optional warm dive, restart loop.
pub(crate) fn run(
    model: &Model,
    config: &SolverConfig,
    hint: Option<&WarmStart>,
) -> Result<SolveResult, IlpError> {
    let start = Instant::now();
    let mut engine = Engine::new(model)?;
    engine.schedule_all();

    let mut preferred = vec![None; model.num_vars()];
    let mut hint_vars = 0u64;
    if let Some(hint) = hint {
        for &(var, value) in hint.values() {
            // A stale hint may reference variables beyond this model; skip
            // them rather than reject the whole hint.
            if var.index() < preferred.len() {
                preferred[var.index()] = Some(value);
                hint_vars += 1;
            }
        }
    }

    let mut state = SearchState {
        engine,
        model,
        config,
        brancher: config.brancher.build(),
        preferred,
        deadline: config.time_limit.map(|limit| start + limit),
        nodes: 0,
        conflicts: 0,
        restarts: 0,
        conflict_limit: None,
        restart_pending: false,
        incumbent: None,
        incumbent_objective: None,
        aborted: false,
    };

    let root_feasible = state.engine.propagate().is_ok();
    if root_feasible {
        if model.objective().is_some() && hint_vars > 0 {
            state.seed_incumbent_from_hint();
        }

        let mut run_index = 1u64;
        loop {
            state.restart_pending = false;
            state.conflict_limit = config
                .restart_conflict_base
                .map(|base| state.conflicts + base * luby(run_index));
            let stop = state.search();
            if state.restart_pending && !state.aborted && !stop_is_final(&state, stop) {
                state.restarts += 1;
                run_index += 1;
                state.brancher.on_restart();
                continue;
            }
            break;
        }
    }

    let hint_mismatches = match &state.incumbent {
        Some(solution) => state
            .preferred
            .iter()
            .enumerate()
            .filter(|&(var, hinted)| hinted.is_some_and(|value| solution[var] != value))
            .count() as u64,
        None => 0,
    };

    let stats = SolveStats {
        nodes: state.nodes,
        propagations: state.engine.propagations,
        conflicts: state.conflicts,
        restarts: state.restarts,
        hint_vars,
        hint_mismatches,
        elapsed: start.elapsed(),
    };

    let status = match (&state.incumbent, state.aborted) {
        (Some(_), false) => SolveStatus::Optimal,
        (Some(_), true) => SolveStatus::Feasible,
        (None, false) => SolveStatus::Infeasible,
        (None, true) => SolveStatus::Unknown,
    };

    Ok(SolveResult {
        status,
        objective: state.incumbent_objective,
        solution: state.incumbent,
        stats,
    })
}

/// Whether a `stop` returned by the search is terminal rather than a
/// restart-triggered unwind: a pure feasibility (or first-solution) search
/// that found its solution must not be restarted away.
fn stop_is_final(state: &SearchState<'_>, stop: bool) -> bool {
    stop && state.incumbent.is_some()
        && (state.model.objective().is_none() || state.config.first_solution_only)
}

impl<'a> SearchState<'a> {
    /// Orientation-normalized objective value: larger is always better.
    fn oriented(objective: &Objective, value: i128) -> i128 {
        match objective.sense {
            Sense::Maximize => value,
            Sense::Minimize => -value,
        }
    }

    fn out_of_budget(&mut self) -> bool {
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.aborted = true;
                return true;
            }
        }
        if let Some(limit) = self.config.node_limit {
            if self.nodes >= limit {
                self.aborted = true;
                return true;
            }
        }
        if let Some(stop) = &self.config.stop {
            if stop.load(std::sync::atomic::Ordering::Relaxed) {
                self.aborted = true;
                return true;
            }
        }
        false
    }

    /// Dives on the hint at a scratch level: fix every hinted variable,
    /// propagate, and if the result is a complete feasible assignment install
    /// it as the initial incumbent. The level is popped either way — only a
    /// propagation-verified witness ever seeds the incumbent.
    fn seed_incumbent_from_hint(&mut self) {
        self.engine.push_level();
        let mut feasible = true;
        for var in 0..self.preferred.len() {
            let Some(value) = self.preferred[var] else {
                continue;
            };
            if self.engine.fix(var, value).is_err() || self.engine.propagate().is_err() {
                feasible = false;
                break;
            }
        }
        if feasible && self.engine.all_fixed() {
            let assignment = self.engine.assignment();
            if self.model.check_assignment(&assignment).is_ok() {
                self.incumbent_objective = self
                    .model
                    .objective()
                    .map(|objective| objective.expr.evaluate(&assignment));
                self.incumbent = Some(assignment);
            }
        }
        self.engine.pop_level();
    }

    /// Upper bound (in oriented terms) on the objective achievable from the
    /// current bounds; used to prune dominated subtrees.
    fn objective_upper_bound(&self, objective: &Objective) -> i128 {
        let oriented_constant = match objective.sense {
            Sense::Maximize => i128::from(objective.expr.constant),
            Sense::Minimize => -i128::from(objective.expr.constant),
        };
        let mut bound = oriented_constant;
        for &(var, coeff) in &objective.expr.terms {
            let coeff_i = i128::from(coeff);
            let oriented_coeff = match objective.sense {
                Sense::Maximize => coeff_i,
                Sense::Minimize => -coeff_i,
            };
            let value = if oriented_coeff >= 0 {
                i128::from(self.engine.upper(var.index()))
            } else {
                i128::from(self.engine.lower(var.index()))
            };
            bound += oriented_coeff * value;
        }
        bound
    }

    /// Moves the hinted alternative (if any) to the front, preserving the
    /// order of the rest. Only value order changes — never the set.
    fn apply_hint_order(&self, choices: &mut [BranchChoice]) {
        let hinted = choices.iter().position(|choice| match *choice {
            BranchChoice::Fix { var, value } => self.preferred[var] == Some(value),
            _ => false,
        });
        if let Some(index) = hinted {
            choices[..=index].rotate_right(1);
        }
    }

    /// Returns true when the search in this subtree should stop entirely
    /// (budget exhausted, restart pending, or a satisfying solution found
    /// for a pure feasibility problem).
    fn search(&mut self) -> bool {
        self.nodes += 1;
        if self.out_of_budget() {
            return true;
        }

        // Prune by objective bound.
        if let (Some(objective), Some(best)) = (self.model.objective(), self.incumbent_objective) {
            let oriented_best = Self::oriented(objective, best);
            if self.objective_upper_bound(objective) <= oriented_best {
                return false;
            }
        }

        if self.engine.all_fixed() {
            let assignment = self.engine.assignment();
            debug_assert_eq!(self.model.check_assignment(&assignment), Ok(()));
            let objective_value = self
                .model
                .objective()
                .map(|objective| objective.expr.evaluate(&assignment));
            let improves = match (self.model.objective(), self.incumbent_objective) {
                (None, _) => true,
                (Some(_), None) => true,
                (Some(objective), Some(best)) => {
                    Self::oriented(objective, objective_value.expect("objective evaluated"))
                        > Self::oriented(objective, best)
                }
            };
            if improves {
                self.incumbent = Some(assignment);
                self.incumbent_objective = objective_value;
            }
            // A feasibility problem (or first-solution mode) stops at the
            // first solution; an optimization problem keeps searching.
            return self.model.objective().is_none() || self.config.first_solution_only;
        }

        let mut choices = self.brancher.choose(&self.engine, self.model);
        self.apply_hint_order(&mut choices);
        for value_choice in choices {
            self.engine.push_level();
            let feasible = match self.apply_choice(&value_choice) {
                Ok(()) => match self.engine.propagate() {
                    Ok(()) => true,
                    Err(conflict) => {
                        self.note_conflict(conflict.row);
                        false
                    }
                },
                Err(conflict) => {
                    self.note_conflict(conflict.row);
                    false
                }
            };
            let stop = if feasible { self.search() } else { false };
            self.engine.pop_level();
            if stop {
                return true;
            }
            if self.out_of_budget() {
                return true;
            }
            if self.restart_pending {
                return true;
            }
        }
        false
    }

    fn note_conflict(&mut self, row: Option<usize>) {
        self.conflicts += 1;
        self.brancher.on_conflict(&self.engine, row);
        if let Some(limit) = self.conflict_limit {
            if self.conflicts >= limit {
                self.restart_pending = true;
            }
        }
    }

    fn apply_choice(&mut self, choice: &BranchChoice) -> Result<(), crate::engine::Conflict> {
        match *choice {
            BranchChoice::Fix { var, value } => self.engine.fix(var, value),
            BranchChoice::UpperAtMost { var, value } => self.engine.set_upper(var, value),
            BranchChoice::LowerAtLeast { var, value } => self.engine.set_lower(var, value),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn luby_prefix_matches_reference() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, 1];
        let got: Vec<u64> = (1..=expected.len() as u64).map(luby).collect();
        assert_eq!(got, expected);
    }

    #[test]
    #[should_panic(expected = "1-indexed")]
    fn luby_rejects_zero() {
        luby(0);
    }

    #[test]
    fn warm_start_accessors() {
        let hint = WarmStart::default();
        assert!(hint.is_empty());
        assert_eq!(hint.len(), 0);
        let hint = WarmStart::from_values(vec![(VarId(0), 1)]);
        assert!(!hint.is_empty());
        assert_eq!(hint.len(), 1);
        assert_eq!(hint.values(), &[(VarId(0), 1)]);
    }
}
