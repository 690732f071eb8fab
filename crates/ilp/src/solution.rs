//! Solver outcomes: statuses, solutions and search statistics.

use std::time::Duration;

/// The status reported by a solve call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveStatus {
    /// A solution was found and proven optimal (or the model is a pure
    /// feasibility problem and a solution was found).
    Optimal,
    /// A solution was found but optimality was not proven (e.g. a limit hit).
    Feasible,
    /// The model was proven infeasible.
    Infeasible,
    /// No conclusion: a time or node limit was reached without a solution.
    Unknown,
}

impl SolveStatus {
    /// Whether a solution is available.
    pub fn has_solution(self) -> bool {
        matches!(self, SolveStatus::Optimal | SolveStatus::Feasible)
    }
}

/// A (partial) result of solving a model.
#[derive(Clone, Debug)]
pub struct SolveResult {
    /// The outcome status.
    pub status: SolveStatus,
    /// The best assignment found (indexed by `VarId::index()`), if any.
    pub solution: Option<Vec<i64>>,
    /// The objective value of the best assignment, if the model had an
    /// objective and a solution was found.
    pub objective: Option<i128>,
    /// Search statistics.
    pub stats: SolveStats,
}

impl SolveResult {
    /// The value of a variable in the best solution.
    ///
    /// # Panics
    /// Panics if no solution is available.
    pub fn value(&self, var: crate::model::VarId) -> i64 {
        self.solution.as_ref().expect("no solution available")[var.index()]
    }
}

/// Statistics accumulated during branch & bound.
#[derive(Clone, Copy, Default, Debug)]
pub struct SolveStats {
    /// Number of branch-and-bound nodes explored.
    pub nodes: u64,
    /// Number of individual bound tightenings performed by propagation.
    pub propagations: u64,
    /// Number of conflicts (pruned subtrees).
    pub conflicts: u64,
    /// Number of times the search restarted from the root.
    pub restarts: u64,
    /// Number of variables covered by the warm-start hint (0 = cold solve).
    pub hint_vars: u64,
    /// Number of hinted variables whose final value differs from the hint —
    /// nonzero means the hint was stale and the search repaired it.
    pub hint_mismatches: u64,
    /// Wall-clock time spent solving.
    pub elapsed: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_solution_availability() {
        assert!(SolveStatus::Optimal.has_solution());
        assert!(SolveStatus::Feasible.has_solution());
        assert!(!SolveStatus::Infeasible.has_solution());
        assert!(!SolveStatus::Unknown.has_solution());
    }

    #[test]
    #[should_panic(expected = "no solution available")]
    fn value_panics_without_solution() {
        let result = SolveResult {
            status: SolveStatus::Infeasible,
            solution: None,
            objective: None,
            stats: SolveStats::default(),
        };
        result.value(crate::model::VarId(0));
    }
}
