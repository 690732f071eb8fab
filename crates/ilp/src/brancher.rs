//! The branching rule of the depth-first search.
//!
//! [`choose`] branches on the first undecided decision group, trying its
//! still-possible members in declaration order. A model with no undecided
//! group left branches on its first unfixed variable instead.

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

/// The alternatives to try at this node, in order. Empty means every
/// variable is fixed (the node is a leaf).
pub(crate) fn choose(engine: &Engine, model: &Model) -> Vec<BranchChoice> {
    for group in model.decision_groups() {
        if !group_is_decided(engine, group) {
            return group_choices(engine, group);
        }
    }
    fallback_choices(engine)
}

/// The still-possible `Fix(var, 1)` alternatives of a group, or the
/// conflict-surfacing choice when every member is forced to 0.
fn group_choices(engine: &Engine, group: &[VarId]) -> Vec<BranchChoice> {
    let free: Vec<BranchChoice> = group
        .iter()
        .filter(|&&var| engine.upper(var.index()) == 1)
        .map(|&var| BranchChoice::Fix {
            var: var.index(),
            value: 1,
        })
        .collect();
    if !free.is_empty() {
        return free;
    }
    // All members are forced to 0: the group's exactly-one constraint will
    // conflict during propagation of the child; branch on the first member to
    // surface the conflict.
    vec![BranchChoice::Fix {
        var: group[0].index(),
        value: 0,
    }]
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
