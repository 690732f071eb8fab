//! Model-building API for (mixed) integer linear programs.
//!
//! The paper solves the sort-refinement decision problem by handing an ILP
//! instance `(A, b)` over 0/1 variables to a commercial solver (CPLEX). This
//! crate is the stand-in for that solver, so the model layer stays close to
//! what such solvers accept: integer variables with bounds and linear
//! constraints with `≤ / ≥ / =` comparisons, plus *decision groups* — a
//! branching hint declaring that a set of binary variables encodes a single
//! "pick one of k" decision (the `X_{i,µ}` variables of the encoding), and
//! the declaration that those k choices are interchangeable labels (the
//! implicit sorts). The paper's instances only ask whether a feasible
//! assignment exists, so a model has no objective.

use std::fmt;

/// Identifier of a model variable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// The index of the variable inside its model.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Definition of a single integer variable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VarDef {
    /// Human-readable name used in debugging output.
    pub name: String,
    /// Inclusive lower bound.
    pub lower: i64,
    /// Inclusive upper bound.
    pub upper: i64,
}

impl VarDef {
    /// Whether the variable is binary (bounds within {0, 1}).
    pub fn is_binary(&self) -> bool {
        self.lower >= 0 && self.upper <= 1
    }
}

/// A linear expression `Σ coeff · var + constant` with integer coefficients.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct LinExpr {
    /// The (variable, coefficient) terms. May contain repeated variables;
    /// [`LinExpr::normalize`] merges them.
    pub terms: Vec<(VarId, i64)>,
    /// The constant offset.
    pub constant: i64,
}

impl LinExpr {
    /// The empty expression (0).
    pub fn new() -> Self {
        LinExpr::default()
    }

    /// An expression consisting of a single variable.
    pub fn var(var: VarId) -> Self {
        LinExpr {
            terms: vec![(var, 1)],
            constant: 0,
        }
    }

    /// Adds `coeff · var` to the expression (builder style).
    pub fn plus(mut self, coeff: i64, var: VarId) -> Self {
        self.terms.push((var, coeff));
        self
    }

    /// Adds a constant to the expression (builder style).
    pub fn plus_const(mut self, value: i64) -> Self {
        self.constant += value;
        self
    }

    /// Adds `coeff · var` in place.
    pub fn add_term(&mut self, coeff: i64, var: VarId) {
        self.terms.push((var, coeff));
    }

    /// Merges duplicate variables and removes zero coefficients.
    pub fn normalize(&mut self) {
        self.terms.sort_by_key(|(var, _)| *var);
        let mut merged: Vec<(VarId, i64)> = Vec::with_capacity(self.terms.len());
        for &(var, coeff) in &self.terms {
            match merged.last_mut() {
                Some((last_var, last_coeff)) if *last_var == var => *last_coeff += coeff,
                _ => merged.push((var, coeff)),
            }
        }
        merged.retain(|(_, coeff)| *coeff != 0);
        self.terms = merged;
    }

    /// Evaluates the expression under an assignment of variable values.
    pub fn evaluate(&self, values: &[i64]) -> i128 {
        let mut total = i128::from(self.constant);
        for &(var, coeff) in &self.terms {
            total += i128::from(coeff) * i128::from(values[var.index()]);
        }
        total
    }
}

/// Comparison operator of a constraint.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Cmp {
    /// `expr ≤ rhs`
    Le,
    /// `expr ≥ rhs`
    Ge,
    /// `expr = rhs`
    Eq,
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cmp::Le => write!(f, "<="),
            Cmp::Ge => write!(f, ">="),
            Cmp::Eq => write!(f, "="),
        }
    }
}

/// A linear constraint `expr cmp rhs`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Constraint {
    /// Optional name for diagnostics.
    pub name: Option<String>,
    /// Left-hand side expression.
    pub expr: LinExpr,
    /// Comparison operator.
    pub cmp: Cmp,
    /// Right-hand side constant.
    pub rhs: i64,
}

impl Constraint {
    /// Whether the constraint holds under the given assignment.
    pub fn is_satisfied(&self, values: &[i64]) -> bool {
        let lhs = self.expr.evaluate(values);
        let rhs = i128::from(self.rhs);
        match self.cmp {
            Cmp::Le => lhs <= rhs,
            Cmp::Ge => lhs >= rhs,
            Cmp::Eq => lhs == rhs,
        }
    }
}

/// An integer linear program.
#[derive(Clone, Default, Debug)]
pub struct Model {
    pub(crate) vars: Vec<VarDef>,
    pub(crate) constraints: Vec<Constraint>,
    pub(crate) decision_groups: Vec<Vec<VarId>>,
    pub(crate) interchangeable_labels: bool,
}

impl Model {
    /// Creates an empty model.
    pub fn new() -> Self {
        Model::default()
    }

    /// Adds a binary (0/1) variable.
    pub fn add_binary(&mut self, name: impl Into<String>) -> VarId {
        self.add_integer(name, 0, 1)
    }

    /// Adds a bounded integer variable.
    ///
    /// # Panics
    /// Panics if `lower > upper`.
    pub fn add_integer(&mut self, name: impl Into<String>, lower: i64, upper: i64) -> VarId {
        assert!(lower <= upper, "variable bounds are inverted");
        let id = VarId(self.vars.len());
        self.vars.push(VarDef {
            name: name.into(),
            lower,
            upper,
        });
        id
    }

    /// Adds a constraint `expr cmp rhs`.
    pub fn add_constraint(
        &mut self,
        name: impl Into<String>,
        mut expr: LinExpr,
        cmp: Cmp,
        rhs: i64,
    ) {
        expr.normalize();
        self.constraints.push(Constraint {
            name: Some(name.into()),
            expr,
            cmp,
            rhs,
        });
    }

    /// Declares a decision group: a set of binary variables of which exactly
    /// one will be 1 in any solution. This is a *branching hint only* — the
    /// caller must still add the corresponding `Σ x = 1` constraint. The
    /// solver branches by picking which member of the group is set, which is
    /// dramatically more effective than branching on individual variables for
    /// assignment-shaped problems.
    pub fn add_decision_group(&mut self, vars: Vec<VarId>) {
        assert!(!vars.is_empty(), "decision group must not be empty");
        self.decision_groups.push(vars);
    }

    /// Declares that member `j` of every decision group is one and the same
    /// label `j`, and that the labels are interchangeable: permuting them,
    /// together with every other variable indexed by them, maps the set of
    /// rows onto itself and so every solution to a solution.
    ///
    /// The search then breaks that symmetry by *value precedence* (Law &
    /// Lee, CP 2004): it offers a group only the labels some decided group
    /// already uses, plus the lowest unused one. This is a promise by the
    /// caller, not something the solver checks. Every group must have the
    /// same length, and every row family must be emitted for every label
    /// alike (the sort-refinement encoding emits each of its families once
    /// per implicit sort). A model that breaks the promise can be reported
    /// infeasible although it has a solution: a group whose offered labels
    /// are all forced to 0 is a dead end, even when a label precedence
    /// skipped is still free.
    pub fn declare_interchangeable_labels(&mut self) {
        self.interchangeable_labels = true;
    }

    /// Whether [`Model::declare_interchangeable_labels`] was called.
    pub fn labels_interchangeable(&self) -> bool {
        self.interchangeable_labels
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The variable definitions.
    pub fn vars(&self) -> &[VarDef] {
        &self.vars
    }

    /// The constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The declared decision groups.
    pub fn decision_groups(&self) -> &[Vec<VarId>] {
        &self.decision_groups
    }

    /// Checks a full assignment against every constraint, returning the name
    /// (or index) of the first violated constraint.
    pub fn check_assignment(&self, values: &[i64]) -> Result<(), String> {
        if values.len() != self.vars.len() {
            return Err(format!(
                "assignment has {} values for {} variables",
                values.len(),
                self.vars.len()
            ));
        }
        for (idx, (def, &value)) in self.vars.iter().zip(values).enumerate() {
            if value < def.lower || value > def.upper {
                return Err(format!(
                    "variable {} ('{}') = {} violates bounds [{}, {}]",
                    idx, def.name, value, def.lower, def.upper
                ));
            }
        }
        for (idx, constraint) in self.constraints.iter().enumerate() {
            if !constraint.is_satisfied(values) {
                return Err(constraint
                    .name
                    .clone()
                    .unwrap_or_else(|| format!("constraint #{idx}")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linexpr_normalization_merges_terms() {
        let mut model = Model::new();
        let x = model.add_binary("x");
        let y = model.add_binary("y");
        let mut expr = LinExpr::new().plus(2, x).plus(3, y).plus(-2, x).plus(1, y);
        expr.normalize();
        assert_eq!(expr.terms, vec![(y, 4)]);
    }

    #[test]
    fn evaluate_and_check_assignment() {
        let mut model = Model::new();
        let x = model.add_binary("x");
        let y = model.add_integer("y", 0, 5);
        model.add_constraint("cap", LinExpr::new().plus(2, x).plus(1, y), Cmp::Le, 4);
        model.add_constraint("at_least", LinExpr::var(y), Cmp::Ge, 1);

        assert!(model.check_assignment(&[1, 2]).is_ok());
        assert_eq!(model.check_assignment(&[1, 3]).unwrap_err(), "cap");
        assert!(model
            .check_assignment(&[0, 9])
            .unwrap_err()
            .contains("bounds"));
        assert!(model.check_assignment(&[0]).is_err());
    }

    #[test]
    #[should_panic(expected = "bounds are inverted")]
    fn inverted_bounds_panic() {
        Model::new().add_integer("x", 3, 1);
    }

    #[test]
    fn binary_detection() {
        let mut model = Model::new();
        let x = model.add_binary("x");
        let y = model.add_integer("y", 0, 3);
        assert!(model.vars()[x.index()].is_binary());
        assert!(!model.vars()[y.index()].is_binary());
    }

    #[test]
    fn constraint_satisfaction_per_operator() {
        let mut model = Model::new();
        let x = model.add_integer("x", 0, 10);
        let expr = LinExpr::var(x);
        let le = Constraint {
            name: None,
            expr: expr.clone(),
            cmp: Cmp::Le,
            rhs: 5,
        };
        let ge = Constraint {
            name: None,
            expr: expr.clone(),
            cmp: Cmp::Ge,
            rhs: 5,
        };
        let eq = Constraint {
            name: None,
            expr,
            cmp: Cmp::Eq,
            rhs: 5,
        };
        assert!(le.is_satisfied(&[5]));
        assert!(!le.is_satisfied(&[6]));
        assert!(ge.is_satisfied(&[5]));
        assert!(!ge.is_satisfied(&[4]));
        assert!(eq.is_satisfied(&[5]));
        assert!(!eq.is_satisfied(&[4]));
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_decision_group_panics() {
        Model::new().add_decision_group(vec![]);
    }
}
