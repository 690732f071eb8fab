//! The depth-first search: branch on the first undecided decision group in
//! input order, propagate, and stop at the first feasible assignment.
//!
//! ## Warm starts
//!
//! A [`WarmStart`] carries `(variable, value)` pairs from a prior solution of
//! a *neighboring* instance. At every node the alternative matching the hint
//! is tried first, so an exactly-right hint walks straight to the old
//! solution with zero conflicts, and a stale hint degrades gracefully:
//! propagation rejects the wrong entries and the search repairs them with
//! the regular alternatives (counted in [`SolveStats::hint_mismatches`]).
//!
//! Hints never affect *which* variable is branched on, only the value order,
//! so the search stays complete and its status is the cold solve's.
//!
//! ## Value precedence
//!
//! A model that declares interchangeable labels is branched with value
//! precedence: a group is offered only the labels in use plus the lowest
//! unused one (the brancher's module docs give the symmetry argument).
//! Hints keep that pruning sound, because the brancher fixes the *set* of
//! alternatives before the hint orders it. A hint moves an offered label
//! to the front and never adds one the rule skipped, so whatever order it
//! imposes, each decision still sets a used or the lowest unused label,
//! and every node's unused labels stay symmetric. A hint that numbers its
//! labels in order of first use, as the refinement engine's do, is never
//! cut off by the rule; a hint labeled otherwise loses only its unused,
//! non-lowest labels.

use std::time::Instant;

use crate::brancher::{self, BranchChoice};
use crate::engine::Engine;
use crate::error::IlpError;
use crate::model::{Model, VarId};
use crate::solution::{SolveResult, SolveStats, SolveStatus};
use crate::solver::SolverConfig;

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

struct SearchState<'a> {
    engine: Engine,
    model: &'a Model,
    /// Hinted value per variable index (value ordering preference).
    preferred: Vec<Option<i64>>,
    deadline: Option<Instant>,
    nodes: u64,
    conflicts: u64,
    solution: Option<Vec<i64>>,
    aborted: bool,
}

/// Runs the full solve: root propagation, then the search.
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
        preferred,
        deadline: config.time_limit.map(|limit| start + limit),
        nodes: 0,
        conflicts: 0,
        solution: None,
        aborted: false,
    };
    if state.engine.propagate().is_ok() {
        state.search();
    }

    let hint_mismatches = match &state.solution {
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
        hint_vars,
        hint_mismatches,
        elapsed: start.elapsed(),
    };

    let status = match (&state.solution, state.aborted) {
        (Some(_), _) => SolveStatus::Feasible,
        (None, false) => SolveStatus::Infeasible,
        (None, true) => SolveStatus::Unknown,
    };

    Ok(SolveResult {
        status,
        solution: state.solution,
        stats,
    })
}

impl SearchState<'_> {
    fn out_of_budget(&mut self) -> bool {
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.aborted = true;
                return true;
            }
        }
        false
    }

    /// Moves the hinted alternative (if any) to the front, preserving the
    /// order of the rest. Only value order changes — never the set.
    fn apply_hint_order(&self, choices: &mut [BranchChoice]) {
        let hinted = choices
            .iter()
            .position(|choice| self.preferred[choice.var] == Some(i64::from(choice.value)));
        if let Some(index) = hinted {
            choices[..=index].rotate_right(1);
        }
    }

    /// Returns true when the search should stop entirely: a solution was
    /// found or the budget ran out.
    fn search(&mut self) -> bool {
        self.nodes += 1;
        if self.out_of_budget() {
            return true;
        }

        if self.engine.all_fixed() {
            let assignment = self.engine.assignment();
            debug_assert_eq!(self.model.check_assignment(&assignment), Ok(()));
            self.solution = Some(assignment);
            return true;
        }

        let mut choices = brancher::choose(&self.engine, self.model);
        self.apply_hint_order(&mut choices);
        for choice in choices {
            self.engine.push_level();
            let feasible = self
                .engine
                .fix(choice.var, choice.value)
                .and_then(|()| self.engine.propagate())
                .is_ok();
            self.conflicts += u64::from(!feasible);
            let stop = feasible && self.search();
            self.engine.pop_level();
            if stop || self.out_of_budget() {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
