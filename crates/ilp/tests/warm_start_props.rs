//! Property tests for the solver core, driven by the workspace's own
//! seeded RNG (`strudel_rdf::rng`).
//!
//! The invariants:
//!
//! * the solver agrees with brute-force enumeration about feasibility and,
//!   when an objective is present, about the optimal value,
//! * presolve and decision groups never change an answer,
//! * a warm solve — seeded with an *arbitrary* hint, correct, stale, or
//!   nonsensical — reaches exactly the same status and objective value as
//!   the cold solve of the same model (hints reorder the search, they never
//!   remove answers),
//! * that equivalence holds across every brancher and with restarts on,
//! * restart schedules are deterministic: re-running a restarting solve
//!   reproduces its node/conflict/restart counts exactly,
//! * the propagation engine reaches the same fixpoint as a reference that
//!   rescans every row, and backtracking restores the bounds exactly.

use strudel_ilp::engine::Engine;
use strudel_ilp::prelude::*;
use strudel_rdf::rng::StdRng;

/// A random binary model with an objective: 3–6 variables, 1–4 constraints
/// with small coefficients — large enough to branch, small enough that a
/// full optimization finishes instantly.
fn random_model(rng: &mut StdRng) -> (Model, Vec<VarId>) {
    let (mut model, vars) = random_feasibility_model(rng);
    let mut objective = LinExpr::new();
    for &var in &vars {
        objective.add_term(rng.gen_range(0..7usize) as i64 - 3, var);
    }
    model.set_objective(Sense::Maximize, objective);
    (model, vars)
}

/// The constraints of [`random_model`] alone: a pure feasibility model.
fn random_feasibility_model(rng: &mut StdRng) -> (Model, Vec<VarId>) {
    let num_vars = rng.gen_range(3..7usize);
    let num_constraints = rng.gen_range(1..5usize);
    let mut model = Model::new();
    let vars: Vec<VarId> = (0..num_vars)
        .map(|i| model.add_binary(format!("x{i}")))
        .collect();
    for c in 0..num_constraints {
        let mut expr = LinExpr::new();
        for &var in &vars {
            expr.add_term(rng.gen_range(0..7usize) as i64 - 3, var);
        }
        let cmp = match rng.gen_range(0..3usize) {
            0 => Cmp::Le,
            1 => Cmp::Ge,
            _ => Cmp::Eq,
        };
        model.add_constraint(
            format!("c{c}"),
            expr,
            cmp,
            rng.gen_range(0..8usize) as i64 - 2,
        );
    }
    (model, vars)
}

/// Half optimization models, half feasibility models.
fn random_model_of_either_kind(rng: &mut StdRng) -> Model {
    if rng.gen_bool(0.5) {
        random_model(rng).0
    } else {
        random_feasibility_model(rng).0
    }
}

/// Brute force: enumerates all 2^n assignments and returns the best
/// feasible objective (0 for a feasible model without one), or `None` when
/// nothing is feasible.
fn brute_force(model: &Model) -> Option<i128> {
    let n = model.num_vars();
    let mut best: Option<i128> = None;
    for mask in 0u64..(1 << n) {
        let assignment: Vec<i64> = (0..n).map(|bit| ((mask >> bit) & 1) as i64).collect();
        if model.check_assignment(&assignment).is_ok() {
            let value = model
                .objective()
                .map_or(0, |objective| objective.expr.evaluate(&assignment));
            best = Some(best.map_or(value, |current| current.max(value)));
        }
    }
    best
}

/// An arbitrary hint: a random subset of the variables with random values,
/// deliberately unvalidated — it may contradict every constraint.
fn random_hint(rng: &mut StdRng, vars: &[VarId]) -> WarmStart {
    let mut values = Vec::new();
    for &var in vars {
        if rng.gen_bool(0.6) {
            values.push((var, rng.gen_range(0..2usize) as i64));
        }
    }
    WarmStart::from_values(values)
}

#[test]
fn solver_matches_brute_force() {
    const SEED: u64 = 0xb4f7;
    let mut rng = StdRng::seed_from_u64(SEED);
    for case in 0..128 {
        let model = random_model_of_either_kind(&mut rng);
        let context = format!("seed {SEED:#x} case {case}: {model:?}");
        let result = Solver::new().solve(&model).expect("solve");
        let Some(best) = brute_force(&model) else {
            assert_eq!(result.status, SolveStatus::Infeasible, "{context}");
            continue;
        };
        assert_eq!(result.status, SolveStatus::Optimal, "{context}");
        let solution = result.solution.as_ref().expect("solution present");
        assert!(model.check_assignment(solution).is_ok(), "{context}");
        if model.objective().is_some() {
            assert_eq!(result.objective, Some(best), "{context}");
        }
    }
}

#[test]
fn presolve_preserves_answers() {
    const SEED: u64 = 0x9e5;
    let mut rng = StdRng::seed_from_u64(SEED);
    for case in 0..128 {
        let mut model = random_model_of_either_kind(&mut rng);
        let context = format!("seed {SEED:#x} case {case}: {model:?}");
        let before = Solver::new().solve(&model).expect("solve before presolve");
        presolve(&mut model);
        let after = Solver::new().solve(&model).expect("solve after presolve");
        assert_eq!(before.status, after.status, "{context}");
        if model.objective().is_some() && before.status.has_solution() {
            assert_eq!(before.objective, after.objective, "{context}");
        }
    }
}

/// Decision groups are only a branching hint: declaring them over rows
/// whose exactly-one constraints are already present never changes the
/// answer of an item-to-bin assignment model.
#[test]
fn decision_groups_do_not_change_answers() {
    const SEED: u64 = 0xd6;
    let mut rng = StdRng::seed_from_u64(SEED);
    for case in 0..128 {
        let (items, bins) = (rng.gen_range(2..5usize), rng.gen_range(2..4usize));
        let mut plain = Model::new();
        let rows: Vec<Vec<VarId>> = (0..items)
            .map(|item| {
                (0..bins)
                    .map(|bin| plain.add_binary(format!("i{item}b{bin}")))
                    .collect()
            })
            .collect();
        for (item, row) in rows.iter().enumerate() {
            let once = row.iter().fold(LinExpr::new(), |e, &v| e.plus(1, v));
            plain.add_constraint(format!("once{item}"), once, Cmp::Eq, 1);
        }
        for bin in 0..bins {
            let load = rows.iter().fold(LinExpr::new(), |e, row| {
                e.plus(rng.gen_range(1..3usize) as i64, row[bin])
            });
            let capacity = rng.gen_range(1..4usize) as i64;
            plain.add_constraint(format!("cap{bin}"), load, Cmp::Le, capacity);
        }
        let mut grouped = plain.clone();
        for row in rows {
            grouped.add_decision_group(row);
        }
        let status = |model: &Model| Solver::new().solve(model).expect("solve").status;
        assert_eq!(
            status(&plain),
            status(&grouped),
            "seed {SEED:#x} case {case}: {plain:?}"
        );
    }
}

#[test]
fn warm_and_cold_solves_agree_on_every_objective() {
    let mut rng = StdRng::seed_from_u64(0x5742_4d53); // "WBMS"
    for _ in 0..60 {
        let (model, vars) = random_model(&mut rng);
        let cold = Solver::new().solve(&model).expect("cold solve");
        let hint = random_hint(&mut rng, &vars);
        let warm = Solver::new()
            .solve_with_hint(&model, Some(&hint))
            .expect("warm solve");
        assert_eq!(cold.status, warm.status, "status diverged on {model:?}");
        assert_eq!(
            cold.objective,
            warm.objective,
            "objective diverged under hint {:?} on {model:?}",
            hint.values()
        );
        if let Some(solution) = &warm.solution {
            model.check_assignment(solution).expect("warm solution");
        }
    }
}

#[test]
fn every_brancher_reaches_the_same_objective_warm_or_cold() {
    let mut rng = StdRng::seed_from_u64(0xb7a9);
    for _ in 0..25 {
        let (model, vars) = random_model(&mut rng);
        let reference = Solver::new().solve(&model).expect("reference solve");
        let hint = random_hint(&mut rng, &vars);
        for brancher in [
            BrancherKind::InputOrder,
            BrancherKind::FirstFail,
            BrancherKind::Activity,
        ] {
            for restarts in [None, Some(2)] {
                let solver = Solver::with_config(SolverConfig {
                    brancher,
                    restart_conflict_base: restarts,
                    ..SolverConfig::default()
                });
                let result = solver
                    .solve_with_hint(&model, Some(&hint))
                    .expect("configured solve");
                assert_eq!(
                    reference.status, result.status,
                    "status diverged for {brancher:?}/restarts {restarts:?}"
                );
                assert_eq!(
                    reference.objective, result.objective,
                    "objective diverged for {brancher:?}/restarts {restarts:?}"
                );
            }
        }
    }
}

#[test]
fn restart_schedules_are_deterministic() {
    let mut rng = StdRng::seed_from_u64(0x1b);
    for _ in 0..20 {
        let (model, vars) = random_model(&mut rng);
        let hint = random_hint(&mut rng, &vars);
        let solve = || {
            Solver::with_config(SolverConfig {
                brancher: BrancherKind::Activity,
                restart_conflict_base: Some(1),
                ..SolverConfig::default()
            })
            .solve_with_hint(&model, Some(&hint))
            .expect("restarting solve")
        };
        let first = solve();
        let second = solve();
        assert_eq!(first.status, second.status);
        assert_eq!(first.objective, second.objective);
        assert_eq!(first.solution, second.solution);
        assert_eq!(first.stats.nodes, second.stats.nodes);
        assert_eq!(first.stats.conflicts, second.stats.conflicts);
        assert_eq!(first.stats.restarts, second.stats.restarts);
        assert_eq!(first.stats.propagations, second.stats.propagations);
    }
}

/// The Luby sequence itself is pure: the same run index always yields the
/// same budget multiplier, and the sequence restarts its doubling pattern
/// exactly where MiniSat's reference implementation does.
#[test]
fn luby_is_reproducible_across_interleavings() {
    let mut rng = StdRng::seed_from_u64(7);
    // Query in shuffled order; the answers must match the in-order pass.
    let mut order: Vec<u64> = (1..64).collect();
    let reference: Vec<u64> = order.iter().map(|&i| luby(i)).collect();
    rng.shuffle(&mut order);
    for (position, &i) in order.iter().enumerate() {
        let _ = position;
        assert_eq!(luby(i), reference[(i - 1) as usize]);
    }
}

/// A uniform integer in `low..=high`.
fn int_in(rng: &mut StdRng, low: i64, high: i64) -> i64 {
    low + rng.gen_range(0..(high - low + 1) as usize) as i64
}

/// A random feasibility model over binary and small-range integer
/// variables (bounds within −3..=5), so a row's reach often exceeds 1.
fn random_mixed_model(rng: &mut StdRng) -> Model {
    let mut model = Model::new();
    let vars: Vec<VarId> = (0..rng.gen_range(2..8usize))
        .map(|i| {
            if rng.gen_bool(0.5) {
                model.add_binary(format!("b{i}"))
            } else {
                let lower = int_in(rng, -3, 5);
                let upper = int_in(rng, lower, 5);
                model.add_integer(format!("n{i}"), lower, upper)
            }
        })
        .collect();
    for c in 0..rng.gen_range(1..6usize) {
        let mut expr = LinExpr::new();
        for &var in &vars {
            if rng.gen_bool(0.6) {
                expr.add_term(int_in(rng, -3, 3), var);
            }
        }
        let cmp = [Cmp::Le, Cmp::Ge, Cmp::Eq][rng.gen_range(0..3usize)];
        let rhs = int_in(rng, -4, 8);
        model.add_constraint(format!("c{c}"), expr, cmp, rhs);
    }
    model
}

/// The model's constraints as `Σ aᵢ·xᵢ ≤ rhs` rows.
fn normalized_rows(model: &Model) -> Vec<(Vec<(usize, i64)>, i128)> {
    let mut rows = Vec::new();
    for constraint in model.constraints() {
        let terms: Vec<(usize, i64)> = constraint
            .expr
            .terms
            .iter()
            .map(|&(var, coeff)| (var.index(), coeff))
            .collect();
        let negated: Vec<(usize, i64)> = terms.iter().map(|&(var, coeff)| (var, -coeff)).collect();
        let rhs = i128::from(constraint.rhs) - i128::from(constraint.expr.constant);
        match constraint.cmp {
            Cmp::Le => rows.push((terms, rhs)),
            Cmp::Ge => rows.push((negated, -rhs)),
            Cmp::Eq => {
                rows.push((terms, rhs));
                rows.push((negated, -rhs));
            }
        }
    }
    rows
}

/// The reference propagator: rescans every row in full, deriving each
/// term's bound from the rest of the row at its minimum, until a whole pass
/// changes nothing. Returns `false` on a conflict.
fn reference_propagate(
    rows: &[(Vec<(usize, i64)>, i128)],
    lower: &mut [i64],
    upper: &mut [i64],
) -> bool {
    let least = |coeff: i64, var: usize, lower: &[i64], upper: &[i64]| {
        let bound = if coeff > 0 { lower[var] } else { upper[var] };
        i128::from(coeff) * i128::from(bound)
    };
    loop {
        let mut changed = false;
        for (terms, rhs) in rows {
            let min_activity: i128 = terms
                .iter()
                .map(|&(var, coeff)| least(coeff, var, lower, upper))
                .sum();
            if min_activity > *rhs {
                return false;
            }
            for (i, &(var, coeff)) in terms.iter().enumerate() {
                if coeff == 0 {
                    continue;
                }
                let rest: i128 = terms
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, &(other, c))| least(c, other, lower, upper))
                    .sum();
                let slack = rhs - rest;
                if coeff > 0 {
                    let bound = slack.div_euclid(i128::from(coeff));
                    if bound < i128::from(upper[var]) {
                        if bound < i128::from(lower[var]) {
                            return false;
                        }
                        upper[var] = bound as i64;
                        changed = true;
                    }
                } else {
                    let bound = -slack.div_euclid(-i128::from(coeff));
                    if bound > i128::from(lower[var]) {
                        if bound > i128::from(upper[var]) {
                            return false;
                        }
                        lower[var] = bound as i64;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return true;
        }
    }
}

/// The engine's current `(lower, upper)` bounds.
fn engine_bounds(engine: &Engine) -> (Vec<i64>, Vec<i64>) {
    let vars = 0..engine.num_vars();
    (
        vars.clone().map(|var| engine.lower(var)).collect(),
        vars.map(|var| engine.upper(var)).collect(),
    )
}

/// Asserts the engine holds exactly these bounds and that `all_fixed`
/// agrees with a full scan of them.
fn assert_state(engine: &Engine, lower: &[i64], upper: &[i64], context: &str) {
    assert_eq!(
        engine_bounds(engine),
        (lower.to_vec(), upper.to_vec()),
        "{context}"
    );
    let scan = lower.iter().zip(upper).all(|(l, u)| l == u);
    assert_eq!(engine.all_fixed(), scan, "{context}");
}

/// After every `propagate`, the engine's conflict verdict (and, when there
/// is none, its bounds and `all_fixed`) equals the reference fixpoint's;
/// after every `pop_level`, the bounds are those saved at the matching push
/// and `all_fixed` agrees with a full scan. Bound changes mirror the
/// engine's own rules: at or inside the current bound is a no-op, past the
/// other bound is refused.
#[test]
fn propagation_matches_a_reference_fixpoint() {
    const SEED: u64 = 0xf1c5;
    let mut rng = StdRng::seed_from_u64(SEED);
    for case in 0..256 {
        let model = random_mixed_model(&mut rng);
        let context = format!("seed {SEED:#x} case {case}: {model:?}");
        let rows = normalized_rows(&model);
        let mut engine = Engine::new(&model).expect("engine");
        let (mut lower, mut upper) = engine_bounds(&engine);
        engine.schedule_all();
        let feasible = reference_propagate(&rows, &mut lower, &mut upper);
        assert_eq!(
            engine.propagate().is_ok(),
            feasible,
            "{context} at the root"
        );
        if !feasible {
            continue;
        }
        let (root_lower, root_upper) = (lower.clone(), upper.clone());
        // Bounds saved at each open level; `settled` holds when nothing
        // waits for propagation, `conflict` after a failed propagation.
        let mut saved: Vec<(Vec<i64>, Vec<i64>)> = Vec::new();
        let (mut settled, mut conflict) = (true, false);
        assert_state(&engine, &lower, &upper, &context);
        for step in 0..48 {
            let context = format!("{context} step {step}");
            let op = if conflict {
                1
            } else {
                rng.gen_range(0..6usize)
            };
            match op {
                1 if !saved.is_empty() => {
                    engine.pop_level();
                    (lower, upper) = saved.pop().expect("an open level");
                    assert_state(&engine, &lower, &upper, &context);
                    (settled, conflict) = (true, false);
                }
                0..=4 if settled && (op <= 1 || saved.is_empty()) => {
                    engine.push_level();
                    saved.push((lower.clone(), upper.clone()));
                }
                2..=4 => {
                    let var = rng.gen_range(0..engine.num_vars());
                    let value = int_in(&mut rng, root_lower[var] - 1, root_upper[var] + 1);
                    let (new_lower, new_upper) = match op {
                        2 => (value, value),
                        3 => (lower[var], value.min(upper[var])),
                        _ => (value.max(lower[var]), upper[var]),
                    };
                    let accepted = lower[var] <= new_lower
                        && new_upper <= upper[var]
                        && new_lower <= new_upper;
                    let result = match op {
                        2 => engine.fix(var, value),
                        3 => engine.set_upper(var, value),
                        _ => engine.set_lower(var, value),
                    };
                    assert_eq!(
                        result.is_ok(),
                        accepted,
                        "{context}: op {op} x{var} = {value}"
                    );
                    if accepted {
                        (lower[var], upper[var]) = (new_lower, new_upper);
                        settled = false;
                    }
                }
                _ => {
                    let feasible = reference_propagate(&rows, &mut lower, &mut upper);
                    assert_eq!(engine.propagate().is_ok(), feasible, "{context}");
                    if feasible {
                        assert_state(&engine, &lower, &upper, &context);
                    }
                    (settled, conflict) = (feasible, !feasible);
                }
            }
        }
    }
}
