//! The propagation engine: normalized constraints, bound tracking with a
//! backtrackable trail, and event-driven integer bound propagation.
//!
//! Every model constraint is normalized into one or two `Σ aᵢ·xᵢ ≤ rhs`
//! rows. The engine maintains, for each row, the *minimum activity* — the
//! smallest value the left-hand side can take under the current bounds — and
//! uses it both to detect conflicts early and to tighten variable bounds
//! (standard bounds-consistency propagation for linear constraints).
//!
//! Propagation is *event-driven*: every row **watches** exactly the bound
//! events that can raise its minimum activity. A row watches the *lower*
//! bound of variables it holds with a positive coefficient and the *upper*
//! bound of variables with a negative coefficient; any other bound event on
//! its variables cannot produce a new inference from that row, so the row is
//! not woken. Each watch carries its coefficient, so posting an event updates
//! the watching rows' activities in one multiply-add per watcher — the
//! per-event linear rescan of the row (`row_coeff`) that the first version
//! of this engine paid is gone, on the hot path and on backtracking alike.
//!
//! A woken row reads its terms only when one of them might tighten. At
//! construction each row stores its *reach*, the largest `|aᵢ|·(ubᵢ − lbᵢ)`
//! over the root bounds. A term can tighten only when the row's slack
//! `rhs − min_activity` is below `|aᵢ|` times the term's current range, and
//! bounds only narrow during a solve, so a row whose slack is at least its
//! reach returns right after the conflict check. The terms are walked in
//! place, never copied.
//!
//! Backtracking costs what was done since the matching level, never the
//! model's size: [`Engine::pop_level`] undoes the trail entries, clears only
//! the rows still queued, and keeps the count of unfixed variables that
//! makes [`Engine::all_fixed`] O(1).

use std::collections::VecDeque;

use crate::error::IlpError;
use crate::model::{Cmp, Model};

/// A conflict: the current bounds cannot be extended to a feasible solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conflict {
    /// Index of the normalized row that became infeasible, if known.
    pub row: Option<usize>,
}

/// A normalized row `Σ aᵢ·xᵢ ≤ rhs`.
#[derive(Debug, Clone)]
struct Row {
    terms: Vec<(usize, i64)>,
    rhs: i128,
    /// The largest `|aᵢ|·(ubᵢ − lbᵢ)` over the root bounds: a slack of at
    /// least this much leaves every term of the row unable to tighten.
    reach: i128,
}

impl Row {
    fn new(terms: Vec<(usize, i64)>, rhs: i128, model: &Model) -> Self {
        let reach = terms
            .iter()
            .map(|&(var, coeff)| {
                let def = &model.vars()[var];
                i128::from(coeff.unsigned_abs()) * (i128::from(def.upper) - i128::from(def.lower))
            })
            .fold(0, i128::max);
        Row { terms, rhs, reach }
    }
}

/// One entry of a variable's watcher list: the row to wake and the
/// coefficient the variable carries in it. Watches are built once at
/// construction; carrying the coefficient makes both the activity update and
/// the wake decision O(1) per watcher.
#[derive(Debug, Clone, Copy)]
struct Watch {
    row: u32,
    coeff: i64,
}

/// A recorded bound change, undone on backtracking.
#[derive(Debug, Clone, Copy)]
enum TrailEntry {
    Lower { var: usize, old: i64 },
    Upper { var: usize, old: i64 },
}

/// Event-driven propagation engine over the normalized form of a model.
pub struct Engine {
    rows: Vec<Row>,
    /// var → rows watching the variable's *lower* bound (positive
    /// coefficient: a raised lower bound raises the row's min activity).
    lower_watches: Vec<Vec<Watch>>,
    /// var → rows watching the variable's *upper* bound (negative
    /// coefficient: a lowered upper bound raises the row's min activity).
    upper_watches: Vec<Vec<Watch>>,
    lower: Vec<i64>,
    upper: Vec<i64>,
    min_activity: Vec<i128>,
    trail: Vec<TrailEntry>,
    level_marks: Vec<usize>,
    queue: VecDeque<usize>,
    /// `in_queue[r]` holds exactly when row `r` is in `queue`.
    in_queue: Vec<bool>,
    /// Number of variables whose lower and upper bounds differ.
    unfixed: usize,
    /// Total number of bound tightenings performed.
    pub propagations: u64,
}

fn floor_div(a: i128, b: i128) -> i128 {
    let q = a / b;
    if a % b != 0 && (a < 0) != (b < 0) {
        q - 1
    } else {
        q
    }
}

fn ceil_div(a: i128, b: i128) -> i128 {
    let q = a / b;
    if a % b != 0 && (a < 0) == (b < 0) {
        q + 1
    } else {
        q
    }
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
            let base_rhs = i128::from(constraint.rhs) - i128::from(constraint.expr.constant);
            let terms: Vec<(usize, i64)> = constraint
                .expr
                .terms
                .iter()
                .map(|&(var, coeff)| (var.index(), coeff))
                .collect();
            let negated = || terms.iter().map(|&(v, c)| (v, -c)).collect();
            match constraint.cmp {
                Cmp::Le => rows.push(Row::new(terms.clone(), base_rhs, model)),
                Cmp::Ge => rows.push(Row::new(negated(), -base_rhs, model)),
                Cmp::Eq => {
                    rows.push(Row::new(terms.clone(), base_rhs, model));
                    rows.push(Row::new(negated(), -base_rhs, model));
                }
            }
        }

        let mut lower_watches = vec![Vec::new(); num_vars];
        let mut upper_watches = vec![Vec::new(); num_vars];
        for (row_idx, row) in rows.iter().enumerate() {
            for &(var, coeff) in &row.terms {
                let watch = Watch {
                    row: row_idx as u32,
                    coeff,
                };
                if coeff > 0 {
                    lower_watches[var].push(watch);
                } else if coeff < 0 {
                    upper_watches[var].push(watch);
                }
            }
        }

        let lower: Vec<i64> = model.vars().iter().map(|v| v.lower).collect();
        let upper: Vec<i64> = model.vars().iter().map(|v| v.upper).collect();
        let unfixed = lower.iter().zip(&upper).filter(|(l, u)| l != u).count();

        let mut engine = Engine {
            min_activity: vec![0; rows.len()],
            in_queue: vec![false; rows.len()],
            rows,
            lower_watches,
            upper_watches,
            lower,
            upper,
            trail: Vec::new(),
            level_marks: Vec::new(),
            queue: VecDeque::new(),
            unfixed,
            propagations: 0,
        };
        for row_idx in 0..engine.rows.len() {
            engine.min_activity[row_idx] = engine.compute_min_activity(row_idx);
        }
        Ok(engine)
    }

    fn compute_min_activity(&self, row_idx: usize) -> i128 {
        self.rows[row_idx]
            .terms
            .iter()
            .map(|&(var, coeff)| {
                let bound = if coeff > 0 {
                    self.lower[var]
                } else {
                    self.upper[var]
                };
                i128::from(coeff) * i128::from(bound)
            })
            .sum()
    }

    /// Current lower bound of a variable.
    pub fn lower(&self, var: usize) -> i64 {
        self.lower[var]
    }

    /// Current upper bound of a variable.
    pub fn upper(&self, var: usize) -> i64 {
        self.upper[var]
    }

    /// Whether the variable is fixed (lower == upper).
    pub fn is_fixed(&self, var: usize) -> bool {
        self.lower[var] == self.upper[var]
    }

    /// Whether every variable is fixed.
    pub fn all_fixed(&self) -> bool {
        self.unfixed == 0
    }

    /// The current assignment (meaningful when [`Engine::all_fixed`] holds;
    /// otherwise returns the lower bounds).
    pub fn assignment(&self) -> Vec<i64> {
        self.lower.clone()
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.lower.len()
    }

    /// The `(variable, coefficient)` terms of a normalized row. Branchers
    /// use this to credit the variables of a conflicting row.
    pub fn row_terms(&self, row: usize) -> &[(usize, i64)] {
        &self.rows[row].terms
    }

    /// The current decision depth (number of open levels).
    pub fn level(&self) -> usize {
        self.level_marks.len()
    }

    /// Opens a new decision level.
    pub fn push_level(&mut self) {
        self.level_marks.push(self.trail.len());
    }

    /// Undoes every bound change made since the matching [`Engine::push_level`].
    pub fn pop_level(&mut self) {
        let mark = self
            .level_marks
            .pop()
            .expect("pop_level without matching push_level");
        while self.trail.len() > mark {
            let entry = self.trail.pop().expect("trail length checked");
            match entry {
                TrailEntry::Lower { var, old } => {
                    // Undone in reverse, so the bounds are those just after
                    // this change: a fixed variable becomes free again.
                    self.unfixed += usize::from(self.is_fixed(var));
                    let delta = i128::from(self.lower[var] - old);
                    for watch in &self.lower_watches[var] {
                        self.min_activity[watch.row as usize] -= i128::from(watch.coeff) * delta;
                    }
                    self.lower[var] = old;
                }
                TrailEntry::Upper { var, old } => {
                    self.unfixed += usize::from(self.is_fixed(var));
                    let delta = i128::from(self.upper[var] - old);
                    for watch in &self.upper_watches[var] {
                        self.min_activity[watch.row as usize] -= i128::from(watch.coeff) * delta;
                    }
                    self.upper[var] = old;
                }
            }
        }
        for row in self.queue.drain(..) {
            self.in_queue[row] = false;
        }
    }

    /// Tightens the lower bound of a variable, recording the change on the
    /// trail and waking exactly the rows watching the event.
    pub fn set_lower(&mut self, var: usize, value: i64) -> Result<(), Conflict> {
        if value <= self.lower[var] {
            return Ok(());
        }
        if value > self.upper[var] {
            return Err(Conflict { row: None });
        }
        let old = self.lower[var];
        self.trail.push(TrailEntry::Lower { var, old });
        let delta = i128::from(value - old);
        self.lower[var] = value;
        self.unfixed -= usize::from(value == self.upper[var]);
        self.propagations += 1;
        for watch_idx in 0..self.lower_watches[var].len() {
            let watch = self.lower_watches[var][watch_idx];
            let row = watch.row as usize;
            self.min_activity[row] += i128::from(watch.coeff) * delta;
            if !self.in_queue[row] {
                self.in_queue[row] = true;
                self.queue.push_back(row);
            }
        }
        Ok(())
    }

    /// Tightens the upper bound of a variable.
    pub fn set_upper(&mut self, var: usize, value: i64) -> Result<(), Conflict> {
        if value >= self.upper[var] {
            return Ok(());
        }
        if value < self.lower[var] {
            return Err(Conflict { row: None });
        }
        let old = self.upper[var];
        self.trail.push(TrailEntry::Upper { var, old });
        let delta = i128::from(value - old);
        self.upper[var] = value;
        self.unfixed -= usize::from(value == self.lower[var]);
        self.propagations += 1;
        for watch_idx in 0..self.upper_watches[var].len() {
            let watch = self.upper_watches[var][watch_idx];
            let row = watch.row as usize;
            self.min_activity[row] += i128::from(watch.coeff) * delta;
            if !self.in_queue[row] {
                self.in_queue[row] = true;
                self.queue.push_back(row);
            }
        }
        Ok(())
    }

    /// Fixes a variable to a value.
    pub fn fix(&mut self, var: usize, value: i64) -> Result<(), Conflict> {
        self.set_lower(var, value)?;
        self.set_upper(var, value)
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

    /// Runs bound propagation to a fixpoint.
    pub fn propagate(&mut self) -> Result<(), Conflict> {
        while let Some(row_idx) = self.queue.pop_front() {
            self.in_queue[row_idx] = false;
            self.propagate_row(row_idx)?;
        }
        Ok(())
    }

    fn propagate_row(&mut self, row_idx: usize) -> Result<(), Conflict> {
        let min_activity = self.min_activity[row_idx];
        let rhs = self.rows[row_idx].rhs;
        if min_activity > rhs {
            return Err(Conflict { row: Some(row_idx) });
        }
        if rhs - min_activity >= self.rows[row_idx].reach {
            return Ok(());
        }
        // For each term, the slack available once the rest of the row sits at
        // its minimum determines how large (or small) the variable may be.
        for term in 0..self.rows[row_idx].terms.len() {
            let (var, coeff) = self.rows[row_idx].terms[term];
            if coeff == 0 || self.is_fixed(var) {
                continue;
            }
            let coeff_i = i128::from(coeff);
            let contribution = if coeff > 0 {
                coeff_i * i128::from(self.lower[var])
            } else {
                coeff_i * i128::from(self.upper[var])
            };
            let slack = rhs - (min_activity - contribution);
            if coeff > 0 {
                let bound = floor_div(slack, coeff_i);
                if bound < i128::from(self.upper[var]) {
                    let bound = i64::try_from(bound.max(i128::from(i64::MIN))).unwrap_or(i64::MIN);
                    self.set_upper(var, bound)?;
                }
            } else {
                let bound = ceil_div(slack, coeff_i);
                if bound > i128::from(self.lower[var]) {
                    let bound = i64::try_from(bound.min(i128::from(i64::MAX))).unwrap_or(i64::MAX);
                    self.set_lower(var, bound)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, LinExpr, Model};

    fn simple_model() -> (Model, Vec<crate::model::VarId>) {
        let mut model = Model::new();
        let x = model.add_binary("x");
        let y = model.add_binary("y");
        let z = model.add_integer("z", 0, 10);
        model.add_constraint("sum", LinExpr::new().plus(1, x).plus(1, y), Cmp::Eq, 1);
        model.add_constraint("link", LinExpr::new().plus(5, x).plus(-1, z), Cmp::Le, 0);
        model.add_constraint("cap", LinExpr::var(z), Cmp::Le, 7);
        (model, vec![x, y, z])
    }

    #[test]
    fn floor_and_ceil_division() {
        assert_eq!(floor_div(7, 2), 3);
        assert_eq!(floor_div(-7, 2), -4);
        assert_eq!(floor_div(7, -2), -4);
        assert_eq!(ceil_div(7, 2), 4);
        assert_eq!(ceil_div(-7, 2), -3);
        assert_eq!(ceil_div(-7, -2), 4);
    }

    #[test]
    fn propagation_tightens_bounds() {
        let (model, vars) = simple_model();
        let mut engine = Engine::new(&model).unwrap();
        engine.schedule_all();
        engine.propagate().unwrap();
        // z ≤ 7 from the cap constraint.
        assert_eq!(engine.upper(vars[2].index()), 7);

        // Fixing x = 1 forces y = 0 (sum) and z ≥ 5 (link).
        engine.push_level();
        engine.fix(vars[0].index(), 1).unwrap();
        engine.propagate().unwrap();
        assert_eq!(engine.upper(vars[1].index()), 0);
        assert_eq!(engine.lower(vars[2].index()), 5);

        // Backtracking restores the original bounds.
        engine.pop_level();
        assert_eq!(engine.lower(vars[2].index()), 0);
        assert_eq!(engine.upper(vars[1].index()), 1);
        assert!(!engine.is_fixed(vars[0].index()));
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

    #[test]
    fn fixing_outside_bounds_is_a_conflict() {
        let (model, vars) = simple_model();
        let mut engine = Engine::new(&model).unwrap();
        assert!(engine.fix(vars[0].index(), 2).is_err());
    }

    #[test]
    fn equality_rows_propagate_both_directions() {
        let mut model = Model::new();
        let x = model.add_integer("x", 0, 10);
        let y = model.add_integer("y", 0, 10);
        model.add_constraint("eq", LinExpr::new().plus(1, x).plus(1, y), Cmp::Eq, 4);
        let mut engine = Engine::new(&model).unwrap();
        engine.schedule_all();
        engine.propagate().unwrap();
        assert_eq!(engine.upper(x.index()), 4);
        assert_eq!(engine.upper(y.index()), 4);
        engine.push_level();
        engine.fix(x.index(), 3).unwrap();
        engine.propagate().unwrap();
        assert_eq!(engine.lower(y.index()), 1);
        assert_eq!(engine.upper(y.index()), 1);
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

    /// Events only wake rows the bound change can actually tighten: a
    /// raised lower bound must not wake a row holding the variable with a
    /// negative coefficient.
    #[test]
    fn events_wake_only_affected_rows() {
        let mut model = Model::new();
        let x = model.add_integer("x", 0, 10);
        let y = model.add_integer("y", 0, 10);
        // y - x ≤ 5: watches lower(y) and upper(x), NOT lower(x).
        model.add_constraint("row", LinExpr::new().plus(1, y).plus(-1, x), Cmp::Le, 5);
        let mut engine = Engine::new(&model).unwrap();
        engine.schedule_all();
        engine.propagate().unwrap();
        // Raising lower(x) cannot tighten the row; no wake, queue stays empty.
        engine.set_lower(x.index(), 3).unwrap();
        assert!(engine.queue.is_empty());
        // Lowering upper(x) raises min activity and wakes the row, which
        // tightens upper(y) to 9.
        engine.set_upper(x.index(), 4).unwrap();
        assert!(!engine.queue.is_empty());
        engine.propagate().unwrap();
        assert_eq!(engine.upper(y.index()), 9);
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
            let _ = engine.fix(vars[round % 2].index(), 1);
            let _ = engine.propagate();
            engine.pop_level();
            assert_eq!(engine.min_activity, baseline, "round {round}");
        }
    }
}
