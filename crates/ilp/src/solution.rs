//! Solver outcomes: statuses, solutions and search statistics.

use std::time::Duration;

/// The status reported by a solve call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveStatus {
    /// An assignment satisfying every constraint was found.
    Feasible,
    /// The model was proven infeasible.
    Infeasible,
    /// No conclusion: the time limit cut the search short before it found a
    /// solution.
    Unknown,
}

/// A (partial) result of solving a model.
#[derive(Clone, Debug)]
pub struct SolveResult {
    /// The outcome status.
    pub status: SolveStatus,
    /// The assignment found (indexed by `VarId::index()`), if any.
    pub solution: Option<Vec<i64>>,
    /// Search statistics.
    pub stats: SolveStats,
}

/// Statistics accumulated during the search.
#[derive(Clone, Copy, Default, Debug)]
pub struct SolveStats {
    /// Number of search nodes explored.
    pub nodes: u64,
    /// Number of variables fixed, by branching decisions and by propagation.
    pub propagations: u64,
    /// Number of conflicts (pruned subtrees).
    pub conflicts: u64,
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

    /// A solve carries a solution exactly when its status is `Feasible`,
    /// also when a zero time limit cuts it short.
    #[test]
    fn status_solution_availability_under_a_zero_time_limit() {
        use crate::model::{Cmp, LinExpr, Model};
        use crate::solver::{Solver, SolverConfig};

        let at_least = |total: i64| {
            let mut model = Model::new();
            let x = model.add_binary("x");
            model.add_constraint("x", LinExpr::new().plus(1, x), Cmp::Ge, total);
            model
        };
        let stopped = Solver::with_config(SolverConfig {
            time_limit: Some(Duration::ZERO),
        });
        for (result, status) in [
            (Solver::new().solve(&at_least(1)), SolveStatus::Feasible),
            (Solver::new().solve(&at_least(2)), SolveStatus::Infeasible),
            (stopped.solve(&at_least(1)), SolveStatus::Unknown),
        ] {
            let result = result.unwrap();
            assert_eq!(result.status, status);
            assert_eq!(result.solution.is_some(), status == SolveStatus::Feasible);
        }
    }
}
