//! The solver facade: configuration and the `solve` / `solve_with_hint`
//! entry points over the search core in [`crate::search`].
//!
//! The solver is tuned for the shape of the paper's sort-refinement
//! instances: almost all variables (`U_{i,p}`, `T_{i,τ}`) are functionally
//! implied by the `X_{i,µ}` assignment variables, so the search only needs to
//! *branch* on the declared decision groups (one group per signature, one
//! member per candidate implicit sort) and let propagation fix everything
//! else. Models without decision groups fall back to binary/interval
//! branching, and objective-bearing models are handled with incumbent-based
//! bounding.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use crate::brancher::BrancherKind;
use crate::error::IlpError;
use crate::model::Model;
use crate::search::{self, WarmStart};
use crate::solution::SolveResult;

/// Configuration of the branch & bound search.
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// Wall-clock limit for the whole solve.
    pub time_limit: Option<Duration>,
    /// Limit on the number of explored nodes.
    pub node_limit: Option<u64>,
    /// Stop at the first feasible solution even if an objective is present.
    pub first_solution_only: bool,
    /// Which branching heuristic drives the search. The default
    /// ([`BrancherKind::InputOrder`]) explores the solver's canonical tree,
    /// so node counts and returned solutions are stable across releases.
    pub brancher: BrancherKind,
    /// Luby restart base, in conflicts: run `i` of the search is restarted
    /// after `base × luby(i)` conflicts. `None` disables restarts. Restarts
    /// pair best with [`BrancherKind::Activity`]; the stateless branchers
    /// re-explore the same tree after a restart.
    pub restart_conflict_base: Option<u64>,
    /// Cooperative cancellation: when the flag becomes true the solve aborts
    /// at the next node, reporting `Feasible`/`Unknown` like a time limit.
    /// Used to cancel losing arms of an engine portfolio.
    pub stop: Option<Arc<AtomicBool>>,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            time_limit: None,
            node_limit: None,
            first_solution_only: false,
            brancher: BrancherKind::InputOrder,
            restart_conflict_base: None,
            stop: None,
        }
    }
}

/// The branch & bound ILP solver.
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
    /// The hint biases value ordering (hinted values are tried first) and,
    /// for objective-bearing models, seeds the incumbent bound when the hint
    /// verifies feasible. It never removes alternatives, so the search stays
    /// complete: status and objective value are the same as a cold solve,
    /// only the path to them changes.
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
    use crate::model::{Cmp, LinExpr, Model, Sense, VarId};
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
        assert_eq!(result.status, SolveStatus::Optimal);
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

    fn knapsack() -> Model {
        // Classic 0/1 knapsack: weights 2,3,4,5 values 3,4,5,6, capacity 5.
        // Optimum is items {0,1} (weights 2+3) with value 7.
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
        model.set_objective(Sense::Maximize, value_expr);
        model
    }

    #[test]
    fn maximizes_a_knapsack() {
        let model = knapsack();
        let result = Solver::new().solve(&model).unwrap();
        assert_eq!(result.status, SolveStatus::Optimal);
        assert_eq!(result.objective, Some(7));
        let solution = result.solution.unwrap();
        assert_eq!(solution[0], 1);
        assert_eq!(solution[1], 1);
    }

    #[test]
    fn every_brancher_reaches_the_knapsack_optimum() {
        let model = knapsack();
        for kind in [
            BrancherKind::InputOrder,
            BrancherKind::FirstFail,
            BrancherKind::Activity,
        ] {
            let config = SolverConfig {
                brancher: kind,
                ..SolverConfig::default()
            };
            let result = Solver::with_config(config).solve(&model).unwrap();
            assert_eq!(result.status, SolveStatus::Optimal, "{}", kind.name());
            assert_eq!(result.objective, Some(7), "{}", kind.name());
        }
    }

    #[test]
    fn restarts_preserve_the_optimum() {
        let model = knapsack();
        let config = SolverConfig {
            restart_conflict_base: Some(1),
            brancher: BrancherKind::Activity,
            ..SolverConfig::default()
        };
        let result = Solver::with_config(config).solve(&model).unwrap();
        assert_eq!(result.status, SolveStatus::Optimal);
        assert_eq!(result.objective, Some(7));
    }

    #[test]
    fn minimizes_with_integer_ranges() {
        // Minimize x + y subject to x + 2y ≥ 7, x,y ∈ [0,5]; optimum 4 (x=1,y=3 or x=3,y=2).
        let mut model = Model::new();
        let x = model.add_integer("x", 0, 5);
        let y = model.add_integer("y", 0, 5);
        model.add_constraint("cover", LinExpr::new().plus(1, x).plus(2, y), Cmp::Ge, 7);
        model.set_objective(Sense::Minimize, LinExpr::new().plus(1, x).plus(1, y));
        let result = Solver::new().solve(&model).unwrap();
        assert_eq!(result.status, SolveStatus::Optimal);
        assert_eq!(result.objective, Some(4));
    }

    #[test]
    fn node_limit_yields_unknown_or_feasible() {
        // A model with plenty of solutions but a node limit of 1: the solver
        // must not claim infeasibility.
        let mut model = Model::new();
        let vars: Vec<_> = (0..10).map(|i| model.add_binary(format!("x{i}"))).collect();
        let mut expr = LinExpr::new();
        for &v in &vars {
            expr.add_term(1, v);
        }
        model.add_constraint("half", expr.clone(), Cmp::Ge, 5);
        model.set_objective(Sense::Maximize, expr);
        let config = SolverConfig {
            node_limit: Some(1),
            ..SolverConfig::default()
        };
        let result = Solver::with_config(config).solve(&model).unwrap();
        assert_ne!(result.status, SolveStatus::Infeasible);
    }

    #[test]
    fn first_solution_only_stops_early() {
        let mut model = Model::new();
        let vars: Vec<_> = (0..6).map(|i| model.add_binary(format!("x{i}"))).collect();
        let mut expr = LinExpr::new();
        for &v in &vars {
            expr.add_term(1, v);
        }
        model.add_constraint("some", expr.clone(), Cmp::Ge, 2);
        model.set_objective(Sense::Maximize, expr);
        let config = SolverConfig {
            first_solution_only: true,
            ..SolverConfig::default()
        };
        let result = Solver::with_config(config).solve(&model).unwrap();
        assert!(result.status.has_solution());
        // The first solution is not necessarily optimal (objective 6).
        assert!(result.objective.unwrap() >= 2);
    }

    #[test]
    fn empty_model_is_trivially_satisfiable() {
        let model = Model::new();
        let result = Solver::new().solve(&model).unwrap();
        assert_eq!(result.status, SolveStatus::Optimal);
        assert_eq!(result.solution.unwrap().len(), 0);
    }

    #[test]
    fn exact_hint_is_followed_without_conflicts() {
        let model = knapsack();
        let hint = WarmStart::from_values(vec![
            (VarId(0), 1),
            (VarId(1), 1),
            (VarId(2), 0),
            (VarId(3), 0),
        ]);
        let result = Solver::new().solve_with_hint(&model, Some(&hint)).unwrap();
        assert_eq!(result.status, SolveStatus::Optimal);
        assert_eq!(result.objective, Some(7));
        assert_eq!(result.stats.hint_vars, 4);
        assert_eq!(result.stats.hint_mismatches, 0);
    }

    #[test]
    fn stale_hint_is_repaired_to_the_same_optimum() {
        let model = knapsack();
        // Item 3 alone (value 6) is feasible but suboptimal, and hinting
        // items 2+3 (weight 9) is outright infeasible: the search must
        // repair the hint and still prove value 7 optimal.
        let hint = WarmStart::from_values(vec![(VarId(2), 1), (VarId(3), 1)]);
        let result = Solver::new().solve_with_hint(&model, Some(&hint)).unwrap();
        assert_eq!(result.status, SolveStatus::Optimal);
        assert_eq!(result.objective, Some(7));
        assert_eq!(result.stats.hint_vars, 2);
        assert!(result.stats.hint_mismatches > 0);
    }

    #[test]
    fn hint_with_out_of_range_variables_is_tolerated() {
        let model = knapsack();
        let hint = WarmStart::from_values(vec![(VarId(0), 1), (VarId(99), 1)]);
        let result = Solver::new().solve_with_hint(&model, Some(&hint)).unwrap();
        assert_eq!(result.objective, Some(7));
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
        model.add_constraint("half", expr.clone(), Cmp::Ge, 6);
        model.set_objective(Sense::Maximize, expr);
        let stop = Arc::new(AtomicBool::new(true));
        let config = SolverConfig {
            stop: Some(stop),
            ..SolverConfig::default()
        };
        let result = Solver::with_config(config).solve(&model).unwrap();
        // Pre-set flag: aborted at the first node without a conclusion.
        assert_eq!(result.status, SolveStatus::Unknown);
    }
}
