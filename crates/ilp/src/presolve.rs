//! Presolve: cheap model reductions applied before the search.
//!
//! The sort-refinement encodings contain many constraints that become
//! trivially satisfied once the instance data is known (e.g. linking rows for
//! rough assignments whose signatures can never co-exist). Removing them up
//! front shrinks the propagation working set without changing the set of
//! solutions.

use crate::model::{Cmp, Constraint, Model};

/// A report of the reductions performed by [`presolve`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PresolveReport {
    /// Constraints removed because no 0/1 assignment violates them.
    pub redundant_constraints: usize,
    /// Constraints that no 0/1 assignment satisfies.
    pub infeasible_constraints: usize,
}

impl PresolveReport {
    /// Whether presolve proved the model infeasible.
    pub fn proven_infeasible(&self) -> bool {
        self.infeasible_constraints > 0
    }
}

/// Extreme activities of a constraint expression over 0/1 assignments: each
/// term adds its coefficient to one end of the range and 0 to the other.
fn activity_range(constraint: &Constraint) -> (i128, i128) {
    let mut min_activity = 0;
    let mut max_activity = 0;
    for &(_, coeff) in &constraint.expr.terms {
        let coeff = i128::from(coeff);
        min_activity += coeff.min(0);
        max_activity += coeff.max(0);
    }
    (min_activity, max_activity)
}

/// Simplifies the model in place and reports what was done.
///
/// The transformation is solution-preserving: only constraints that no 0/1
/// assignment violates are dropped.
pub fn presolve(model: &mut Model) -> PresolveReport {
    let mut report = PresolveReport::default();

    let mut kept = Vec::with_capacity(model.constraints.len());
    for constraint in model.constraints.drain(..) {
        let (min_activity, max_activity) = activity_range(&constraint);
        let rhs = i128::from(constraint.rhs);
        let (redundant, infeasible) = match constraint.cmp {
            Cmp::Le => (max_activity <= rhs, min_activity > rhs),
            Cmp::Ge => (min_activity >= rhs, max_activity < rhs),
            Cmp::Eq => (
                min_activity == rhs && max_activity == rhs,
                min_activity > rhs || max_activity < rhs,
            ),
        };
        if infeasible {
            report.infeasible_constraints += 1;
            kept.push(constraint);
        } else if redundant {
            report.redundant_constraints += 1;
        } else {
            kept.push(constraint);
        }
    }
    model.constraints = kept;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, LinExpr, Model};
    use crate::solution::SolveStatus;
    use crate::solver::Solver;

    #[test]
    fn removes_redundant_constraints() {
        let mut model = Model::new();
        let x = model.add_binary("x");
        let y = model.add_binary("y");
        // x + y ≤ 5 can never be violated by two binaries.
        model.add_constraint("slack", LinExpr::new().plus(1, x).plus(1, y), Cmp::Le, 5);
        model.add_constraint("real", LinExpr::new().plus(1, x).plus(1, y), Cmp::Ge, 1);
        let report = presolve(&mut model);
        assert_eq!(report.redundant_constraints, 1);
        assert_eq!(model.num_constraints(), 1);
        assert!(!report.proven_infeasible());
    }

    #[test]
    fn detects_trivially_infeasible_constraints() {
        let mut model = Model::new();
        let x = model.add_binary("x");
        model.add_constraint("impossible", LinExpr::var(x), Cmp::Ge, 2);
        let report = presolve(&mut model);
        assert!(report.proven_infeasible());
        // The constraint is kept so the solver still reports infeasibility.
        assert_eq!(model.num_constraints(), 1);
        let result = Solver::new().solve(&model).unwrap();
        assert_eq!(result.status, SolveStatus::Infeasible);
    }

    #[test]
    fn presolve_preserves_the_solution_set() {
        // Build a model, solve it, presolve, solve again: identical outcome.
        let mut model = Model::new();
        let x = model.add_binary("x");
        let y = model.add_binary("y");
        let z = model.add_binary("z");
        model.add_constraint(
            "pick_two",
            LinExpr::new().plus(1, x).plus(1, y).plus(1, z),
            Cmp::Eq,
            2,
        );
        model.add_constraint("xy", LinExpr::new().plus(1, x).plus(1, y), Cmp::Le, 2);
        model.add_constraint(
            "never",
            LinExpr::new().plus(1, x).plus(1, y).plus(1, z),
            Cmp::Le,
            10,
        );
        model.add_constraint(
            "weight",
            LinExpr::new().plus(2, x).plus(1, y).plus(1, z),
            Cmp::Ge,
            3,
        );

        let before = Solver::new().solve(&model).unwrap();
        let report = presolve(&mut model);
        assert!(report.redundant_constraints >= 1);
        let after = Solver::new().solve(&model).unwrap();
        assert_eq!(before.status, after.status);
        assert_eq!(before.solution, after.solution);
    }

    /// An equality is redundant only when its range is the single point
    /// `rhs`: `x − x = 0` normalizes to the empty sum and goes, while
    /// `x = 0` stays although its range ends at the right-hand side.
    #[test]
    fn equality_redundancy_requires_exact_range() {
        let mut model = Model::new();
        let x = model.add_binary("x");
        model.add_constraint("empty", LinExpr::new().plus(1, x).plus(-1, x), Cmp::Eq, 0);
        model.add_constraint("pin", LinExpr::var(x), Cmp::Eq, 0);
        let report = presolve(&mut model);
        assert_eq!(report.redundant_constraints, 1);
        assert_eq!(model.constraints()[0].name.as_deref(), Some("pin"));
    }

    #[test]
    fn activity_range_spans_the_bounds() {
        let mut model = Model::new();
        let x = model.add_binary("x");
        let y = model.add_binary("y");
        let z = model.add_binary("z");
        let expr = LinExpr::new().plus(2, x).plus(-3, y).plus(4, z);
        model.add_constraint("c", expr, Cmp::Le, 100);
        assert_eq!(activity_range(&model.constraints()[0]), (-3, 6));
    }
}
