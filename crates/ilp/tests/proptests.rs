//! Property-based tests for the ILP solver: the branch & bound result is
//! compared against brute-force enumeration on randomly generated small
//! models.

// Needs the external `proptest` crate: compiled only with `--features proptest`
// (unavailable in offline builds; see the manifest note).
#![cfg(feature = "proptest")]

use proptest::prelude::*;
use strudel_ilp::prelude::*;

/// A small random binary model description.
#[derive(Debug, Clone)]
struct RandomModel {
    num_vars: usize,
    constraints: Vec<(Vec<i64>, i64, u8)>, // coefficients, rhs, cmp selector
    objective: Option<Vec<i64>>,
}

fn random_model_strategy() -> impl Strategy<Value = RandomModel> {
    (2usize..6)
        .prop_flat_map(|num_vars| {
            let constraint = (
                proptest::collection::vec(-3i64..4, num_vars),
                -2i64..6,
                0u8..3,
            );
            (
                Just(num_vars),
                proptest::collection::vec(constraint, 1..5),
                proptest::option::of(proptest::collection::vec(-3i64..4, num_vars)),
            )
        })
        .prop_map(|(num_vars, constraints, objective)| RandomModel {
            num_vars,
            constraints,
            objective,
        })
}

fn build_model(description: &RandomModel) -> Model {
    let mut model = Model::new();
    let vars: Vec<VarId> = (0..description.num_vars)
        .map(|i| model.add_binary(format!("x{i}")))
        .collect();
    for (idx, (coefficients, rhs, cmp)) in description.constraints.iter().enumerate() {
        let mut expr = LinExpr::new();
        for (var, &coeff) in vars.iter().zip(coefficients) {
            expr.add_term(coeff, *var);
        }
        let cmp = match cmp % 3 {
            0 => Cmp::Le,
            1 => Cmp::Ge,
            _ => Cmp::Eq,
        };
        model.add_constraint(format!("c{idx}"), expr, cmp, *rhs);
    }
    if let Some(objective) = &description.objective {
        let mut expr = LinExpr::new();
        for (var, &coeff) in vars.iter().zip(objective) {
            expr.add_term(coeff, *var);
        }
        model.set_objective(Sense::Maximize, expr);
    }
    model
}

/// Brute-force: enumerate all 2^n assignments, return the best feasible
/// objective (or an arbitrary feasible flag for feasibility models).
fn brute_force(model: &Model) -> Option<i128> {
    let n = model.num_vars();
    let mut best: Option<i128> = None;
    for mask in 0u64..(1 << n) {
        let assignment: Vec<i64> = (0..n).map(|bit| ((mask >> bit) & 1) as i64).collect();
        if model.check_assignment(&assignment).is_ok() {
            let value = model
                .objective()
                .map(|objective| objective.expr.evaluate(&assignment))
                .unwrap_or(0);
            best = Some(match best {
                None => value,
                Some(current) => current.max(value),
            });
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The solver agrees with brute force about feasibility and, when an
    /// objective is present, about the optimal value.
    #[test]
    fn solver_matches_brute_force(description in random_model_strategy()) {
        let model = build_model(&description);
        let expected = brute_force(&model);
        let result = Solver::new().solve(&model).unwrap();
        match expected {
            None => prop_assert_eq!(result.status, SolveStatus::Infeasible),
            Some(best) => {
                prop_assert_eq!(result.status, SolveStatus::Optimal);
                let solution = result.solution.as_ref().expect("solution present");
                prop_assert!(model.check_assignment(solution).is_ok());
                if model.objective().is_some() {
                    prop_assert_eq!(result.objective, Some(best));
                }
            }
        }
    }

    /// Presolve never changes the answer.
    #[test]
    fn presolve_preserves_answers(description in random_model_strategy()) {
        let mut model = build_model(&description);
        let before = Solver::new().solve(&model).unwrap();
        let _report = presolve(&mut model);
        let after = Solver::new().solve(&model).unwrap();
        prop_assert_eq!(before.status, after.status);
        if model.objective().is_some() && before.status.has_solution() {
            prop_assert_eq!(before.objective, after.objective);
        }
    }

    /// Decision groups are only a branching hint: adding them (together with
    /// their exactly-one constraints already present) never changes the answer.
    #[test]
    fn decision_groups_do_not_change_answers(num_items in 2usize..5, num_bins in 2usize..4, seed in 0u64..1000) {
        // Simple assignment feasibility: item i in exactly one bin, bins have
        // pseudo-random capacities.
        let mut plain = Model::new();
        let mut hinted = Model::new();
        let mut plain_vars = Vec::new();
        let mut hinted_vars = Vec::new();
        for item in 0..num_items {
            let mut row_plain = Vec::new();
            let mut row_hinted = Vec::new();
            for bin in 0..num_bins {
                row_plain.push(plain.add_binary(format!("i{item}b{bin}")));
                row_hinted.push(hinted.add_binary(format!("i{item}b{bin}")));
            }
            let expr_plain = row_plain.iter().fold(LinExpr::new(), |e, &v| e.plus(1, v));
            let expr_hinted = row_hinted.iter().fold(LinExpr::new(), |e, &v| e.plus(1, v));
            plain.add_constraint(format!("once{item}"), expr_plain, Cmp::Eq, 1);
            hinted.add_constraint(format!("once{item}"), expr_hinted, Cmp::Eq, 1);
            hinted.add_decision_group(row_hinted.clone());
            plain_vars.push(row_plain);
            hinted_vars.push(row_hinted);
        }
        for bin in 0..num_bins {
            let cap = 1 + ((seed as i64 + bin as i64) % 3);
            let mut expr_plain = LinExpr::new();
            let mut expr_hinted = LinExpr::new();
            for item in 0..num_items {
                let weight = 1 + ((seed as i64 + item as i64 * 7 + bin as i64) % 2);
                expr_plain.add_term(weight, plain_vars[item][bin]);
                expr_hinted.add_term(weight, hinted_vars[item][bin]);
            }
            plain.add_constraint(format!("cap{bin}"), expr_plain, Cmp::Le, cap);
            hinted.add_constraint(format!("cap{bin}"), expr_hinted, Cmp::Le, cap);
        }
        let result_plain = Solver::new().solve(&plain).unwrap();
        let result_hinted = Solver::new().solve(&hinted).unwrap();
        prop_assert_eq!(result_plain.status, result_hinted.status);
    }
}
