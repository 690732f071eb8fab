//! Presolve: cheap model reductions applied before branch & bound.
//!
//! The sort-refinement encodings contain many constraints that become
//! trivially satisfied once the instance data is known (e.g. linking rows for
//! rough assignments whose signatures can never co-exist) and variables whose
//! bounds are already equal. Removing them up front shrinks the propagation
//! working set without changing the set of solutions.

use crate::model::{Cmp, Constraint, Model, VarDef};

/// A report of the reductions performed by [`presolve`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PresolveReport {
    /// Constraints removed because they can never be violated within bounds.
    pub redundant_constraints: usize,
    /// Constraints detected as impossible to satisfy within bounds.
    pub infeasible_constraints: usize,
    /// Variables whose bounds were already fixed.
    pub fixed_variables: usize,
}

impl PresolveReport {
    /// Whether presolve proved the model infeasible.
    pub fn proven_infeasible(&self) -> bool {
        self.infeasible_constraints > 0
    }
}

/// Extreme activities of a constraint expression under the variable bounds.
fn activity_range(vars: &[VarDef], constraint: &Constraint) -> (i128, i128) {
    let mut min_activity = i128::from(constraint.expr.constant);
    let mut max_activity = i128::from(constraint.expr.constant);
    for &(var, coeff) in &constraint.expr.terms {
        let def = &vars[var.index()];
        let coeff = i128::from(coeff);
        let low = coeff * i128::from(def.lower);
        let high = coeff * i128::from(def.upper);
        min_activity += low.min(high);
        max_activity += low.max(high);
    }
    (min_activity, max_activity)
}

/// Simplifies the model in place and reports what was done.
///
/// The transformation is solution-preserving: only constraints that cannot be
/// violated by any assignment within the variable bounds are dropped.
pub fn presolve(model: &mut Model) -> PresolveReport {
    let mut report = PresolveReport {
        fixed_variables: model
            .vars()
            .iter()
            .filter(|def| def.lower == def.upper)
            .count(),
        ..PresolveReport::default()
    };

    let mut kept = Vec::with_capacity(model.constraints.len());
    for constraint in model.constraints.drain(..) {
        let (min_activity, max_activity) = activity_range(&model.vars, &constraint);
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
    fn counts_fixed_variables() {
        let mut model = Model::new();
        model.add_integer("fixed", 3, 3);
        model.add_binary("free");
        let report = presolve(&mut model);
        assert_eq!(report.fixed_variables, 1);
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
        model.set_objective(
            crate::model::Sense::Maximize,
            LinExpr::new().plus(2, x).plus(1, y).plus(1, z),
        );

        let before = Solver::new().solve(&model).unwrap();
        let report = presolve(&mut model);
        assert!(report.redundant_constraints >= 1);
        let after = Solver::new().solve(&model).unwrap();
        assert_eq!(before.status, after.status);
        assert_eq!(before.objective, after.objective);
    }

    #[test]
    fn equality_redundancy_requires_exact_range() {
        let mut model = Model::new();
        let x = model.add_integer("x", 2, 2);
        model.add_constraint("pin", LinExpr::var(x), Cmp::Eq, 2);
        let report = presolve(&mut model);
        assert_eq!(report.redundant_constraints, 1);
        assert_eq!(model.num_constraints(), 0);
    }

    #[test]
    fn activity_range_spans_the_bounds() {
        let mut model = Model::new();
        let x = model.add_integer("x", -2, 3);
        model.add_constraint("c", LinExpr::new().plus(2, x).plus_const(1), Cmp::Le, 100);
        let (low, high) = activity_range(model.vars(), &model.constraints()[0]);
        assert_eq!(low, -3);
        assert_eq!(high, 7);
    }
}
