//! The solver facade: configuration and the `solve` / `solve_with_hint`
//! entry points over the search core in [`crate::search`].
//!
//! The solver is tuned for the shape of the paper's sort-refinement
//! instances: almost all variables (`U_{i,p}`, `T_{i,τ}`) are functionally
//! implied by the `X_{i,µ}` assignment variables, so the search only needs to
//! *branch* on the declared decision groups (one group per signature, one
//! member per candidate implicit sort) and let propagation fix everything
//! else. Models without decision groups fall back to binary/interval
//! branching. Every model is a feasibility question: the solve stops at the
//! first assignment that satisfies every constraint.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use crate::error::IlpError;
use crate::model::Model;
use crate::search::{self, WarmStart};
use crate::solution::SolveResult;

/// Configuration of the search: its two ways to stop early.
#[derive(Clone, Debug, Default)]
pub struct SolverConfig {
    /// Wall-clock limit for the whole solve.
    pub time_limit: Option<Duration>,
    /// Cooperative cancellation: when the flag becomes true the solve aborts
    /// at the next node, reporting `Unknown` like a time limit. Used to
    /// cancel losing arms of an engine portfolio.
    pub stop: Option<Arc<AtomicBool>>,
}

/// The depth-first ILP solver.
#[derive(Clone, Debug, Default)]
pub struct Solver {
    config: SolverConfig,
}

impl Solver {
    /// Creates a solver with default configuration.
    pub fn new() -> Self {
        Solver {
            config: SolverConfig::default(),
        }
    }

    /// Creates a solver with the given configuration.
    pub fn with_config(config: SolverConfig) -> Self {
        Solver { config }
    }

    /// Solves the model cold.
    pub fn solve(&self, model: &Model) -> Result<SolveResult, IlpError> {
        search::run(model, &self.config, None)
    }

    /// Solves the model seeded with a warm-start hint from a prior solution.
    ///
    /// The hint biases value ordering (hinted values are tried first). It
    /// never removes alternatives, so the search stays complete: the status
    /// is the same as a cold solve's, only the path to it changes.
    pub fn solve_with_hint(
        &self,
        model: &Model,
        hint: Option<&WarmStart>,
    ) -> Result<SolveResult, IlpError> {
        search::run(model, &self.config, hint.filter(|h| !h.is_empty()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, LinExpr, Model, VarId};
    use crate::solution::SolveStatus;

    #[test]
    fn solves_a_small_assignment_feasibility_problem() {
        // Three items, two bins, each item in exactly one bin, bin capacities.
        let mut model = Model::new();
        let sizes = [3i64, 2, 2];
        let mut assign = Vec::new();
        for (item, _) in sizes.iter().enumerate() {
            let in_a = model.add_binary(format!("item{item}_binA"));
            let in_b = model.add_binary(format!("item{item}_binB"));
            model.add_constraint(
                format!("item{item}_once"),
                LinExpr::new().plus(1, in_a).plus(1, in_b),
                Cmp::Eq,
                1,
            );
            model.add_decision_group(vec![in_a, in_b]);
            assign.push((in_a, in_b));
        }
        for (bin, pick) in [(0usize, 0usize), (1, 1)] {
            let mut expr = LinExpr::new();
            for (item, &size) in sizes.iter().enumerate() {
                let var = if pick == 0 {
                    assign[item].0
                } else {
                    assign[item].1
                };
                expr.add_term(size, var);
            }
            model.add_constraint(format!("cap_bin{bin}"), expr, Cmp::Le, 4);
        }
        let result = Solver::new().solve(&model).unwrap();
        assert_eq!(result.status, SolveStatus::Feasible);
        let solution = result.solution.unwrap();
        assert!(model.check_assignment(&solution).is_ok());
    }

    #[test]
    fn detects_infeasibility() {
        let mut model = Model::new();
        let x = model.add_binary("x");
        let y = model.add_binary("y");
        model.add_constraint("ge", LinExpr::new().plus(1, x).plus(1, y), Cmp::Ge, 2);
        model.add_constraint("le", LinExpr::new().plus(1, x).plus(1, y), Cmp::Le, 1);
        let result = Solver::new().solve(&model).unwrap();
        assert_eq!(result.status, SolveStatus::Infeasible);
        assert!(result.solution.is_none());
    }

    /// The 0/1 knapsack with weights 2,3,4,5, values 3,4,5,6 and capacity
    /// 5, asked whether a packing reaches a value of at least `floor`. The
    /// best value is 7 (items 0 and 1), and it is the only packing that
    /// reaches 7.
    fn knapsack(floor: i64) -> Model {
        let mut model = Model::new();
        let weights = [2i64, 3, 4, 5];
        let values = [3i64, 4, 5, 6];
        let vars: Vec<_> = (0..4).map(|i| model.add_binary(format!("x{i}"))).collect();
        let mut weight_expr = LinExpr::new();
        let mut value_expr = LinExpr::new();
        for i in 0..4 {
            weight_expr.add_term(weights[i], vars[i]);
            value_expr.add_term(values[i], vars[i]);
        }
        model.add_constraint("capacity", weight_expr, Cmp::Le, 5);
        model.add_constraint("value", value_expr, Cmp::Ge, floor);
        model
    }

    /// The knapsack's maximum as two decisions: a packing of value 7
    /// exists and is the unique one, and none reaches 8.
    #[test]
    fn maximizes_a_knapsack() {
        let result = Solver::new().solve(&knapsack(7)).unwrap();
        assert_eq!(result.status, SolveStatus::Feasible);
        assert_eq!(result.solution.unwrap(), vec![1, 1, 0, 0]);
        let result = Solver::new().solve(&knapsack(8)).unwrap();
        assert_eq!(result.status, SolveStatus::Infeasible);
    }

    /// The minimum of x + y subject to x + 2y ≥ 7, x, y ∈ [0, 5] is 4:
    /// bisecting the integer ranges reaches it and refutes 3.
    #[test]
    fn minimizes_with_integer_ranges() {
        let at_most = |total: i64| {
            let mut model = Model::new();
            let x = model.add_integer("x", 0, 5);
            let y = model.add_integer("y", 0, 5);
            model.add_constraint("cover", LinExpr::new().plus(1, x).plus(2, y), Cmp::Ge, 7);
            model.add_constraint(
                "total",
                LinExpr::new().plus(1, x).plus(1, y),
                Cmp::Le,
                total,
            );
            let result = Solver::new().solve(&model).unwrap();
            if let Some(solution) = &result.solution {
                assert!(model.check_assignment(solution).is_ok());
            }
            result.status
        };
        assert_eq!(at_most(4), SolveStatus::Feasible);
        assert_eq!(at_most(3), SolveStatus::Infeasible);
    }

    #[test]
    fn empty_model_is_trivially_satisfiable() {
        let model = Model::new();
        let result = Solver::new().solve(&model).unwrap();
        assert_eq!(result.status, SolveStatus::Feasible);
        assert_eq!(result.solution.unwrap().len(), 0);
    }

    #[test]
    fn exact_hint_is_followed_without_conflicts() {
        let model = knapsack(7);
        let hint = WarmStart::from_values(vec![
            (VarId(0), 1),
            (VarId(1), 1),
            (VarId(2), 0),
            (VarId(3), 0),
        ]);
        let result = Solver::new().solve_with_hint(&model, Some(&hint)).unwrap();
        assert_eq!(result.status, SolveStatus::Feasible);
        assert_eq!(result.stats.hint_vars, 4);
        assert_eq!(result.stats.hint_mismatches, 0);
        assert_eq!(result.stats.conflicts, 0);
    }

    #[test]
    fn stale_hint_is_repaired_to_the_same_optimum() {
        let model = knapsack(7);
        // Hinting items 2+3 (weight 9) is outright infeasible: the search
        // must repair the hint and still find the one packing of value 7.
        let hint = WarmStart::from_values(vec![(VarId(2), 1), (VarId(3), 1)]);
        let result = Solver::new().solve_with_hint(&model, Some(&hint)).unwrap();
        assert_eq!(result.status, SolveStatus::Feasible);
        assert_eq!(result.solution.unwrap(), vec![1, 1, 0, 0]);
        assert_eq!(result.stats.hint_vars, 2);
        assert!(result.stats.hint_mismatches > 0);
    }

    #[test]
    fn hint_with_out_of_range_variables_is_tolerated() {
        let model = knapsack(7);
        let hint = WarmStart::from_values(vec![(VarId(0), 1), (VarId(99), 1)]);
        let result = Solver::new().solve_with_hint(&model, Some(&hint)).unwrap();
        assert_eq!(result.solution.unwrap(), vec![1, 1, 0, 0]);
        assert_eq!(result.stats.hint_vars, 1);
    }

    #[test]
    fn stop_flag_aborts_the_solve() {
        let mut model = Model::new();
        let vars: Vec<_> = (0..12).map(|i| model.add_binary(format!("x{i}"))).collect();
        let mut expr = LinExpr::new();
        for &v in &vars {
            expr.add_term(1, v);
        }
        model.add_constraint("half", expr, Cmp::Ge, 6);
        let stop = Arc::new(AtomicBool::new(true));
        let config = SolverConfig {
            stop: Some(stop),
            ..SolverConfig::default()
        };
        let result = Solver::with_config(config).solve(&model).unwrap();
        // Pre-set flag: aborted at the first node without a conclusion,
        // although the model has plenty of solutions.
        assert_eq!(result.status, SolveStatus::Unknown);
        assert!(result.solution.is_none());
    }
}
