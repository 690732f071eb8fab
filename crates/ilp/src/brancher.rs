//! The branching rule of the depth-first search.
//!
//! [`choose`] branches on the first undecided decision group, trying its
//! still-possible members in declaration order. A model with no undecided
//! group left branches on its first unfixed variable instead.
//!
//! ## Value precedence
//!
//! When the model declares its group members interchangeable labels
//! ([`Model::declare_interchangeable_labels`]), the group is offered only
//! the labels some decided group already uses, plus the lowest unused one
//! (Law & Lee, CP 2004). At any node the unused labels are symmetric:
//! every decision on the path set a member to a used label, and
//! propagation treats labels alike because the rows do. So the subtree
//! under any other unused label is a mirror image of the one under the
//! lowest, and skipping it loses no solution up to relabeling. Used labels
//! therefore always form a prefix `0..u`, and every solution the search
//! returns numbers its labels in order of first use.

use crate::engine::Engine;
use crate::model::{Model, VarId};

/// A single branching decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BranchChoice {
    /// Fix the variable to a value.
    Fix { var: usize, value: i64 },
    /// Tighten the upper bound to `value`.
    UpperAtMost { var: usize, value: i64 },
    /// Tighten the lower bound to `value`.
    LowerAtLeast { var: usize, value: i64 },
}

/// The alternatives to try at this node, in order. The search asks only
/// at nodes with an unfixed variable, so empty means a dead end: the first
/// undecided group has no member it may still set to 1.
pub(crate) fn choose(engine: &Engine, model: &Model) -> Vec<BranchChoice> {
    let groups = model.decision_groups();
    for group in groups {
        if !group_is_decided(engine, group) {
            let open = model
                .labels_interchangeable()
                .then(|| open_labels(engine, groups));
            return group_choices(engine, group, open.as_deref());
        }
    }
    fallback_choices(engine)
}

/// The labels value precedence lets a group take: `open[j]` holds for
/// every label some decided group uses, and for the lowest unused one.
fn open_labels(engine: &Engine, groups: &[Vec<VarId>]) -> Vec<bool> {
    let width = groups.iter().map(Vec::len).max().unwrap_or(0);
    let mut open = vec![false; width];
    for group in groups {
        if let Some(label) = group.iter().position(|&var| engine.lower(var.index()) == 1) {
            open[label] = true;
        }
    }
    if let Some(lowest_unused) = open.iter().position(|&used| !used) {
        open[lowest_unused] = true;
    }
    open
}

/// The still-possible `Fix(var, 1)` alternatives of a group among its open
/// labels (all of them when `open` is `None`). Empty when none is left,
/// which a model that keeps its promises never reaches: propagation runs to
/// a fixpoint, so a group whose members are all forced to 0 has already
/// failed its `Σ x = 1` row, and under value precedence an unused label
/// forced to 0 means, by symmetry, every unused label is.
fn group_choices(engine: &Engine, group: &[VarId], open: Option<&[bool]>) -> Vec<BranchChoice> {
    group
        .iter()
        .enumerate()
        .filter(|&(label, &var)| {
            engine.upper(var.index()) == 1 && open.map_or(true, |open| open[label])
        })
        .map(|(_, &var)| BranchChoice::Fix {
            var: var.index(),
            value: 1,
        })
        .collect()
}

fn group_is_decided(engine: &Engine, group: &[VarId]) -> bool {
    group.iter().any(|&var| engine.lower(var.index()) == 1)
}

/// Fallback when no decision group is left: branch on the first unfixed
/// variable (binary split, else interval bisection).
fn fallback_choices(engine: &Engine) -> Vec<BranchChoice> {
    for var in 0..engine.num_vars() {
        if !engine.is_fixed(var) {
            let lower = engine.lower(var);
            let upper = engine.upper(var);
            if upper - lower == 1 {
                return vec![
                    BranchChoice::Fix { var, value: upper },
                    BranchChoice::Fix { var, value: lower },
                ];
            }
            let mid = lower + (upper - lower) / 2;
            return vec![
                BranchChoice::UpperAtMost { var, value: mid },
                BranchChoice::LowerAtLeast {
                    var,
                    value: mid + 1,
                },
            ];
        }
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, LinExpr, Model};
    use crate::solution::SolveStatus;
    use crate::solver::Solver;

    fn group_model() -> Model {
        let mut model = Model::new();
        for item in 0..3 {
            let a = model.add_binary(format!("item{item}_a"));
            let b = model.add_binary(format!("item{item}_b"));
            model.add_constraint(
                format!("once{item}"),
                LinExpr::new().plus(1, a).plus(1, b),
                Cmp::Eq,
                1,
            );
            model.add_decision_group(vec![a, b]);
        }
        model
    }

    #[test]
    fn input_order_picks_first_group_ascending() {
        let model = group_model();
        let choices = choose(&Engine::new(&model).unwrap(), &model);
        assert_eq!(
            choices,
            vec![
                BranchChoice::Fix { var: 0, value: 1 },
                BranchChoice::Fix { var: 1, value: 1 },
            ]
        );
    }

    /// Under value precedence the first group may open only label 0, and
    /// once label 0 is used the next group may take it or open label 1,
    /// never label 2.
    #[test]
    fn precedence_opens_one_new_label_at_a_time() {
        let mut model = Model::new();
        let x: Vec<Vec<VarId>> = (0..3)
            .map(|item| {
                let row: Vec<VarId> = (0..3)
                    .map(|label| model.add_binary(format!("x{item}_{label}")))
                    .collect();
                let once = row.iter().fold(LinExpr::new(), |e, &v| e.plus(1, v));
                model.add_constraint(format!("once{item}"), once, Cmp::Eq, 1);
                model.add_decision_group(row.clone());
                row
            })
            .collect();
        model.declare_interchangeable_labels();
        let fix = |var: VarId| BranchChoice::Fix {
            var: var.index(),
            value: 1,
        };
        let mut engine = Engine::new(&model).unwrap();
        assert_eq!(choose(&engine, &model), vec![fix(x[0][0])]);
        engine.push_level();
        engine.fix(x[0][0].index(), 1).unwrap();
        engine.propagate().unwrap();
        assert_eq!(choose(&engine, &model), vec![fix(x[1][0]), fix(x[1][1])]);
    }

    /// A row that forces label 0 of the first group to 0 breaks the
    /// declaration's promise: labels 1 and 2 are still free, but value
    /// precedence offers only label 0. The group must be a dead end, so the
    /// solve ends with the documented wrong answer; a branch that changes
    /// no bound would recurse on the same node until the stack overflows.
    #[test]
    fn a_promise_breaking_group_is_a_dead_end() {
        let mut model = Model::new();
        let row: Vec<VarId> = (0..3)
            .map(|label| model.add_binary(format!("x{label}")))
            .collect();
        let once = row.iter().fold(LinExpr::new(), |e, &v| e.plus(1, v));
        model.add_constraint("once", once, Cmp::Eq, 1);
        model.add_constraint("not_label_0", LinExpr::new().plus(1, row[0]), Cmp::Eq, 0);
        model.add_decision_group(row);
        model.declare_interchangeable_labels();
        let mut engine = Engine::new(&model).unwrap();
        engine.schedule_all();
        engine.propagate().unwrap();
        assert_eq!(choose(&engine, &model), Vec::new());
        let result = Solver::new().solve(&model).unwrap();
        assert_eq!(result.status, SolveStatus::Infeasible);
        assert_eq!(result.stats.nodes, 1);
    }

    #[test]
    fn fallback_bisects_wide_domains() {
        let mut model = Model::new();
        let _x = model.add_integer("x", 0, 10);
        let engine = Engine::new(&model).unwrap();
        let choices = choose(&engine, &model);
        assert_eq!(
            choices,
            vec![
                BranchChoice::UpperAtMost { var: 0, value: 5 },
                BranchChoice::LowerAtLeast { var: 0, value: 6 },
            ]
        );
    }
}
