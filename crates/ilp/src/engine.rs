//! The propagation engine: normalized constraints, a 0/1 assignment with a
//! backtrackable trail, and event-driven propagation.
//!
//! Every model constraint is normalized into one or two `Σ aᵢ·xᵢ ≤ rhs`
//! rows over 0/1 variables. The engine maintains, for each row, the
//! *minimum activity* — the smallest value the left-hand side can take
//! under the current assignment — and uses it both to detect conflicts
//! early and to fix variables: a free term whose weight `|aᵢ|` exceeds the
//! row's slack `rhs − min_activity` can take only the value that keeps the
//! row at its minimum, 0 for a positive coefficient and 1 for a negative
//! one.
//!
//! Propagation is *event-driven*: every row **watches** exactly the fixings
//! that can raise its minimum activity. A row watches `(x, 1)` for each
//! variable it holds with a positive coefficient and `(x, 0)` for each one
//! with a negative coefficient; fixing a variable the other way leaves the
//! row at its minimum, so the row is not woken. Each watch carries the
//! weight `|aᵢ|`, so a fixing updates the watching rows' activities in one
//! addition per watcher, and so does undoing it.
//!
//! A woken row reads its terms only when one of them might be fixed. At
//! construction each row stores its *reach*, the largest `|aᵢ|` over its
//! terms. The slack only shrinks during a solve, so a row whose slack is at
//! least its reach returns right after the conflict check. The terms are
//! walked in place, never copied.
//!
//! Backtracking costs what was done since the matching level, never the
//! model's size: [`Engine::pop_level`] undoes the trail entries, clears only
//! the rows still queued, and keeps the count of free variables that makes
//! [`Engine::all_fixed`] O(1).

use std::collections::VecDeque;

use crate::error::IlpError;
use crate::model::{Cmp, Model};

/// A conflict: the current assignment cannot be extended to a feasible
/// solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conflict;

/// A normalized row `Σ aᵢ·xᵢ ≤ rhs`.
#[derive(Debug, Clone)]
struct Row {
    terms: Vec<(usize, i64)>,
    rhs: i128,
    /// The largest `|aᵢ|`: a slack of at least this much leaves every term
    /// of the row free.
    reach: i128,
}

impl Row {
    fn new(terms: Vec<(usize, i64)>, rhs: i128) -> Self {
        let reach = terms
            .iter()
            .map(|&(_, coeff)| i128::from(coeff.unsigned_abs()))
            .fold(0, i128::max);
        Row { terms, rhs, reach }
    }
}

/// One entry of a literal's watcher list: the row to wake and the weight
/// `|aᵢ|` by which the fixing raises the row's minimum activity. Watches
/// are built once at construction; carrying the weight makes both the
/// activity update and the wake decision O(1) per watcher.
#[derive(Debug, Clone, Copy)]
struct Watch {
    row: u32,
    weight: u64,
}

/// The index of the literal "`var` is fixed to `value`" in the watch lists.
fn literal(var: usize, value: bool) -> usize {
    2 * var + usize::from(value)
}

/// Event-driven propagation engine over the normalized form of a model.
pub struct Engine {
    rows: Vec<Row>,
    /// literal → rows whose minimum activity that fixing raises: `(x, 1)`
    /// for a positive coefficient, `(x, 0)` for a negative one.
    watches: Vec<Vec<Watch>>,
    /// The value each variable is fixed to, `None` while it is free.
    values: Vec<Option<bool>>,
    min_activity: Vec<i128>,
    /// The variables fixed so far, in order.
    trail: Vec<usize>,
    level_marks: Vec<usize>,
    queue: VecDeque<usize>,
    /// `in_queue[r]` holds exactly when row `r` is in `queue`.
    in_queue: Vec<bool>,
    /// Number of free variables.
    unfixed: usize,
    /// Total number of variables fixed, by decisions and by propagation.
    pub propagations: u64,
}

impl Engine {
    /// Builds the engine from a model, normalizing all constraints.
    pub fn new(model: &Model) -> Result<Self, IlpError> {
        let num_vars = model.num_vars();
        let mut rows = Vec::with_capacity(model.num_constraints() * 2);
        for constraint in model.constraints() {
            for &(var, _) in &constraint.expr.terms {
                if var.index() >= num_vars {
                    return Err(IlpError::UnknownVariable {
                        index: var.index(),
                        num_vars,
                    });
                }
            }
            let rhs = i128::from(constraint.rhs);
            let terms: Vec<(usize, i64)> = constraint
                .expr
                .terms
                .iter()
                .map(|&(var, coeff)| (var.index(), coeff))
                .collect();
            let negated = || terms.iter().map(|&(v, c)| (v, -c)).collect();
            match constraint.cmp {
                Cmp::Le => rows.push(Row::new(terms.clone(), rhs)),
                Cmp::Ge => rows.push(Row::new(negated(), -rhs)),
                Cmp::Eq => {
                    rows.push(Row::new(terms.clone(), rhs));
                    rows.push(Row::new(negated(), -rhs));
                }
            }
        }

        let mut watches = vec![Vec::new(); 2 * num_vars];
        for (row_idx, row) in rows.iter().enumerate() {
            for &(var, coeff) in &row.terms {
                if coeff != 0 {
                    watches[literal(var, coeff > 0)].push(Watch {
                        row: row_idx as u32,
                        weight: coeff.unsigned_abs(),
                    });
                }
            }
        }

        // With every variable free, a row sits at its minimum when each
        // negative term is 1 and each positive term is 0.
        let min_activity = rows
            .iter()
            .map(|row| {
                row.terms
                    .iter()
                    .map(|&(_, coeff)| i128::from(coeff.min(0)))
                    .sum()
            })
            .collect();
        Ok(Engine {
            min_activity,
            in_queue: vec![false; rows.len()],
            rows,
            watches,
            values: vec![None; num_vars],
            trail: Vec::new(),
            level_marks: Vec::new(),
            queue: VecDeque::new(),
            unfixed: num_vars,
            propagations: 0,
        })
    }

    /// The value a variable is fixed to, or `None` while it is free.
    pub fn value(&self, var: usize) -> Option<bool> {
        self.values[var]
    }

    /// Whether the variable is fixed.
    pub fn is_fixed(&self, var: usize) -> bool {
        self.values[var].is_some()
    }

    /// Whether every variable is fixed.
    pub fn all_fixed(&self) -> bool {
        self.unfixed == 0
    }

    /// The current assignment (meaningful when [`Engine::all_fixed`] holds;
    /// otherwise free variables read 0).
    pub fn assignment(&self) -> Vec<i64> {
        self.values
            .iter()
            .map(|&value| i64::from(value == Some(true)))
            .collect()
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.values.len()
    }

    /// Opens a new decision level.
    pub fn push_level(&mut self) {
        self.level_marks.push(self.trail.len());
    }

    /// Frees every variable fixed since the matching [`Engine::push_level`].
    pub fn pop_level(&mut self) {
        let mark = self
            .level_marks
            .pop()
            .expect("pop_level without matching push_level");
        for var in self.trail.drain(mark..).rev() {
            let value = self.values[var]
                .take()
                .expect("a trailed variable is fixed");
            self.unfixed += 1;
            for watch in &self.watches[literal(var, value)] {
                self.min_activity[watch.row as usize] -= i128::from(watch.weight);
            }
        }
        for row in self.queue.drain(..) {
            self.in_queue[row] = false;
        }
    }

    /// Fixes a variable to a value. Fixing it to the value it already holds
    /// changes nothing; fixing it to the other value is a conflict.
    pub fn fix(&mut self, var: usize, value: bool) -> Result<(), Conflict> {
        match self.values[var] {
            None => {
                self.assign(var, value);
                Ok(())
            }
            Some(held) if held == value => Ok(()),
            Some(_) => Err(Conflict),
        }
    }

    /// Fixes a free variable, recording it on the trail and waking exactly
    /// the rows watching the literal.
    fn assign(&mut self, var: usize, value: bool) {
        self.values[var] = Some(value);
        self.trail.push(var);
        self.unfixed -= 1;
        self.propagations += 1;
        let lit = literal(var, value);
        for watch_idx in 0..self.watches[lit].len() {
            let watch = self.watches[lit][watch_idx];
            let row = watch.row as usize;
            self.min_activity[row] += i128::from(watch.weight);
            if !self.in_queue[row] {
                self.in_queue[row] = true;
                self.queue.push_back(row);
            }
        }
    }

    /// Schedules every row for propagation (used once at the root).
    pub fn schedule_all(&mut self) {
        for idx in 0..self.rows.len() {
            if !self.in_queue[idx] {
                self.in_queue[idx] = true;
                self.queue.push_back(idx);
            }
        }
    }

    /// Runs propagation to a fixpoint.
    pub fn propagate(&mut self) -> Result<(), Conflict> {
        while let Some(row_idx) = self.queue.pop_front() {
            self.in_queue[row_idx] = false;
            self.propagate_row(row_idx)?;
        }
        Ok(())
    }

    fn propagate_row(&mut self, row_idx: usize) -> Result<(), Conflict> {
        let slack = self.rows[row_idx].rhs - self.min_activity[row_idx];
        if slack < 0 {
            return Err(Conflict);
        }
        if slack >= self.rows[row_idx].reach {
            return Ok(());
        }
        // Setting a term against the row raises its activity by the term's
        // weight, so a free term heavier than the slack must keep the row at
        // its minimum. That fixing never wakes this row, and the slack stays.
        for term in 0..self.rows[row_idx].terms.len() {
            let (var, coeff) = self.rows[row_idx].terms[term];
            if self.values[var].is_none() && i128::from(coeff.unsigned_abs()) > slack {
                self.assign(var, coeff < 0);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, LinExpr, Model};

    /// x + y = 1, 3x − 2z ≤ 1 (so x = 1 forces z = 1), and 2w ≤ 1 (so
    /// w = 0 at the root).
    fn simple_model() -> (Model, Vec<crate::model::VarId>) {
        let mut model = Model::new();
        let x = model.add_binary("x");
        let y = model.add_binary("y");
        let z = model.add_binary("z");
        let w = model.add_binary("w");
        model.add_constraint("sum", LinExpr::new().plus(1, x).plus(1, y), Cmp::Eq, 1);
        model.add_constraint("link", LinExpr::new().plus(3, x).plus(-2, z), Cmp::Le, 1);
        model.add_constraint("cap", LinExpr::new().plus(2, w), Cmp::Le, 1);
        (model, vec![x, y, z, w])
    }

    #[test]
    fn propagation_tightens_bounds() {
        let (model, vars) = simple_model();
        let value = |engine: &Engine, var: usize| engine.value(vars[var].index());
        let mut engine = Engine::new(&model).unwrap();
        engine.schedule_all();
        engine.propagate().unwrap();
        // w = 0 from the cap constraint; nothing else is forced.
        assert_eq!(value(&engine, 3), Some(false));
        assert_eq!(value(&engine, 2), None);

        // Fixing x = 1 forces y = 0 (sum) and z = 1 (link).
        engine.push_level();
        engine.fix(vars[0].index(), true).unwrap();
        engine.propagate().unwrap();
        assert_eq!(value(&engine, 1), Some(false));
        assert_eq!(value(&engine, 2), Some(true));
        assert!(engine.all_fixed());
        assert_eq!(engine.assignment(), vec![1, 0, 1, 0]);

        // Backtracking frees them again and keeps the root fixing.
        engine.pop_level();
        assert_eq!(value(&engine, 2), None);
        assert_eq!(value(&engine, 1), None);
        assert!(!engine.is_fixed(vars[0].index()));
        assert_eq!(value(&engine, 3), Some(false));
    }

    #[test]
    fn conflicting_bounds_are_detected() {
        let mut model = Model::new();
        let x = model.add_binary("x");
        let y = model.add_binary("y");
        model.add_constraint("ge", LinExpr::new().plus(1, x).plus(1, y), Cmp::Ge, 2);
        model.add_constraint("le", LinExpr::new().plus(1, x).plus(1, y), Cmp::Le, 1);
        let mut engine = Engine::new(&model).unwrap();
        engine.schedule_all();
        // x + y ≥ 2 forces both to 1, which violates x + y ≤ 1.
        assert!(engine.propagate().is_err());
    }

    /// Fixing a variable to the value it already holds is a no-op, and
    /// fixing it to the other value is a conflict.
    #[test]
    fn fixing_outside_bounds_is_a_conflict() {
        let (model, vars) = simple_model();
        let mut engine = Engine::new(&model).unwrap();
        let x = vars[0].index();
        engine.fix(x, true).unwrap();
        let (propagations, queued) = (engine.propagations, engine.queue.len());
        assert_eq!(engine.fix(x, true), Ok(()));
        assert_eq!(
            (engine.propagations, engine.queue.len(), engine.trail.len()),
            (propagations, queued, 1)
        );
        assert_eq!(engine.fix(x, false), Err(Conflict));
        assert_eq!(engine.value(x), Some(true));
    }

    /// 2x + y + z = 2: x = 1 forces y = z = 0 through the ≤ row, and x = 0
    /// forces y = z = 1 through the ≥ row.
    #[test]
    fn equality_rows_propagate_both_directions() {
        let mut model = Model::new();
        let x = model.add_binary("x");
        let y = model.add_binary("y");
        let z = model.add_binary("z");
        let expr = LinExpr::new().plus(2, x).plus(1, y).plus(1, z);
        model.add_constraint("eq", expr, Cmp::Eq, 2);
        let mut engine = Engine::new(&model).unwrap();
        engine.schedule_all();
        engine.propagate().unwrap();
        assert_eq!(engine.value(y.index()), None);
        for (x_value, rest) in [(true, false), (false, true)] {
            engine.push_level();
            engine.fix(x.index(), x_value).unwrap();
            engine.propagate().unwrap();
            assert_eq!(engine.value(y.index()), Some(rest));
            assert_eq!(engine.value(z.index()), Some(rest));
            engine.pop_level();
        }
    }

    #[test]
    fn unknown_variable_is_rejected() {
        let mut model_a = Model::new();
        let _x = model_a.add_binary("x");
        let mut model_b = Model::new();
        let b_var = model_b.add_binary("b");
        let extra = model_b.add_binary("extra");
        model_b.add_constraint(
            "c",
            LinExpr::new().plus(1, b_var).plus(1, extra),
            Cmp::Le,
            1,
        );
        // Constraint from model_b mentions a variable index out of range for model_a.
        let constraint = model_b.constraints()[0].clone();
        let mut broken = Model::new();
        let _only = broken.add_binary("only");
        broken.constraints.push(constraint);
        assert!(matches!(
            Engine::new(&broken),
            Err(IlpError::UnknownVariable { .. })
        ));
    }

    /// Fixings only wake rows they can push toward a conflict: fixing a
    /// variable the row holds with a negative coefficient to 1 leaves the
    /// row at its minimum and must not wake it.
    #[test]
    fn events_wake_only_affected_rows() {
        let mut model = Model::new();
        let x = model.add_binary("x");
        let y = model.add_binary("y");
        // y − x ≤ 0: watches (y, 1) and (x, 0), NOT (x, 1).
        model.add_constraint("row", LinExpr::new().plus(1, y).plus(-1, x), Cmp::Le, 0);
        let mut engine = Engine::new(&model).unwrap();
        engine.schedule_all();
        engine.propagate().unwrap();
        // x = 1 cannot force anything from the row; no wake, queue stays empty.
        engine.push_level();
        engine.fix(x.index(), true).unwrap();
        assert!(engine.queue.is_empty());
        engine.pop_level();
        // x = 0 raises the min activity and wakes the row, which fixes y = 0.
        engine.fix(x.index(), false).unwrap();
        assert!(!engine.queue.is_empty());
        engine.propagate().unwrap();
        assert_eq!(engine.value(y.index()), Some(false));
    }

    /// Backtracking through the watcher lists restores exact activities:
    /// propagate → conflict → pop must reproduce the root state bit for bit.
    #[test]
    fn pop_level_restores_activities_exactly() {
        let (model, vars) = simple_model();
        let mut engine = Engine::new(&model).unwrap();
        engine.schedule_all();
        engine.propagate().unwrap();
        let baseline = engine.min_activity.clone();
        for round in 0..3 {
            engine.push_level();
            let _ = engine.fix(vars[round % 2].index(), true);
            let _ = engine.propagate();
            engine.pop_level();
            assert_eq!(engine.min_activity, baseline, "round {round}");
        }
    }
}
