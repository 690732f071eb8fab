//! Property tests for the solver core, driven by the workspace's own
//! seeded RNG (`strudel_rdf::rng`).
//!
//! The invariants:
//!
//! * the solver agrees with brute-force enumeration about feasibility, and
//!   about the best value of an objective asked as a floor: a floor at the
//!   best value is feasible and one above it is not,
//! * presolve and decision groups never change an answer,
//! * declaring interchangeable labels prunes only mirror images: on
//!   label-symmetric models the search keeps its status and its first
//!   solution, visits no more nodes, and keeps the status under any hint,
//! * a warm solve — seeded with an *arbitrary* hint, correct, stale, or
//!   nonsensical — reaches exactly the same status as the cold solve of the
//!   same model (hints reorder the search, they never remove answers),
//! * the propagation engine reaches the same fixpoint as a reference that
//!   rescans every row, and backtracking restores the bounds exactly.

use strudel_ilp::engine::Engine;
use strudel_ilp::prelude::*;
use strudel_rdf::rng::StdRng;

/// A random binary feasibility model: 3–6 variables, 1–4 constraints with
/// small coefficients — large enough to branch, small enough that brute
/// force finishes instantly.
fn random_model(rng: &mut StdRng) -> (Model, Vec<VarId>) {
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

/// A random objective over `vars`, with coefficients in −3..=3.
fn random_objective(rng: &mut StdRng, vars: &[VarId]) -> LinExpr {
    let mut objective = LinExpr::new();
    for &var in vars {
        objective.add_term(rng.gen_range(0..7usize) as i64 - 3, var);
    }
    objective
}

/// `model` with `objective ≥ floor` added.
fn with_floor(model: &Model, objective: &LinExpr, floor: i128) -> Model {
    let mut floored = model.clone();
    let floor = i64::try_from(floor).expect("small objectives");
    floored.add_constraint("floor", objective.clone(), Cmp::Ge, floor);
    floored
}

/// Half bare models, half models with a random objective floored at a
/// value drawn around its range.
fn random_model_of_either_kind(rng: &mut StdRng) -> Model {
    let (model, vars) = random_model(rng);
    if rng.gen_bool(0.5) {
        return model;
    }
    let objective = random_objective(rng, &vars);
    let floor = rng.gen_range(0..9usize) as i128 - 4;
    with_floor(&model, &objective, floor)
}

/// Brute force: enumerates all 2^n assignments and returns the best value
/// of `objective` over the feasible ones, or `None` when nothing is
/// feasible.
fn brute_force(model: &Model, objective: &LinExpr) -> Option<i128> {
    let n = model.num_vars();
    let mut best: Option<i128> = None;
    for mask in 0u64..(1 << n) {
        let assignment: Vec<i64> = (0..n).map(|bit| ((mask >> bit) & 1) as i64).collect();
        if model.check_assignment(&assignment).is_ok() {
            let value = objective.evaluate(&assignment);
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

/// The solver's status, after checking that a returned solution satisfies
/// the model.
fn status(model: &Model, hint: Option<&WarmStart>, context: &str) -> SolveStatus {
    let result = Solver::new().solve_with_hint(model, hint).expect("solve");
    if let Some(solution) = &result.solution {
        assert!(model.check_assignment(solution).is_ok(), "{context}");
    }
    result.status
}

#[test]
fn solver_matches_brute_force() {
    const SEED: u64 = 0xb4f7;
    let mut rng = StdRng::seed_from_u64(SEED);
    for case in 0..128 {
        let (model, vars) = random_model(&mut rng);
        let objective = random_objective(&mut rng, &vars);
        let context = format!("seed {SEED:#x} case {case}: {objective:?} on {model:?}");
        let Some(best) = brute_force(&model, &objective) else {
            let answer = status(&model, None, &context);
            assert_eq!(answer, SolveStatus::Infeasible, "{context}");
            continue;
        };
        let answer = status(&model, None, &context);
        assert_eq!(answer, SolveStatus::Feasible, "{context}");
        // A floor at the best value is feasible, and one above it is not.
        for (floor, expected) in [
            (best, SolveStatus::Feasible),
            (best + 1, SolveStatus::Infeasible),
        ] {
            let answer = status(&with_floor(&model, &objective, floor), None, &context);
            assert_eq!(answer, expected, "{context}: floor {floor}");
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
        let before = status(&model, None, &context);
        presolve(&mut model);
        assert_eq!(before, status(&model, None, &context), "{context}");
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
        let context = format!("seed {SEED:#x} case {case}: {plain:?}");
        assert_eq!(
            status(&plain, None, &context),
            status(&grouped, None, &context),
            "{context}"
        );
    }
}

/// A random label-symmetric model: 3–8 items into 2–4 bins, each item in
/// exactly one bin (one decision group per item, member `b` is bin `b`),
/// and the same row family for every bin: a capacity over random item
/// weights, a floor on the bin's load, and pairs of items that may not
/// share a bin. Tight capacities and dense conflicts make some cases
/// infeasible.
fn random_label_model(rng: &mut StdRng) -> (Model, Vec<VarId>) {
    let (items, bins) = (rng.gen_range(3..9usize), rng.gen_range(2..5usize));
    let mut model = Model::new();
    let x: Vec<Vec<VarId>> = (0..items)
        .map(|item| {
            let row: Vec<VarId> = (0..bins)
                .map(|bin| model.add_binary(format!("i{item}b{bin}")))
                .collect();
            let once = row.iter().fold(LinExpr::new(), |e, &v| e.plus(1, v));
            model.add_constraint(format!("once{item}"), once, Cmp::Eq, 1);
            model.add_decision_group(row.clone());
            row
        })
        .collect();
    let weights: Vec<i64> = (0..items)
        .map(|_| rng.gen_range(1..4usize) as i64)
        .collect();
    // A capacity near the mean load, so that whether the items fit is a
    // question for the search rather than for root propagation.
    let mean = weights.iter().sum::<i64>() / bins as i64;
    let capacity = mean + rng.gen_range(0..3usize) as i64;
    let floor = rng.gen_range(0..2usize) as i64;
    let apart: Vec<(usize, usize)> = (0..rng.gen_range(0..2 * items))
        .map(|_| (rng.gen_range(0..items), rng.gen_range(0..items)))
        .filter(|(a, b)| a != b)
        .collect();
    for bin in 0..bins {
        let load = x
            .iter()
            .zip(&weights)
            .fold(LinExpr::new(), |e, (row, &weight)| e.plus(weight, row[bin]));
        model.add_constraint(format!("cap{bin}"), load.clone(), Cmp::Le, capacity);
        model.add_constraint(format!("floor{bin}"), load, Cmp::Ge, floor);
        for &(a, b) in &apart {
            let pair = LinExpr::new().plus(1, x[a][bin]).plus(1, x[b][bin]);
            model.add_constraint(format!("apart{a}_{b}_{bin}"), pair, Cmp::Le, 1);
        }
    }
    (model, x.concat())
}

/// Declaring the bins interchangeable labels skips only subtrees that
/// mirror one already searched. Cold, the declared search reaches the
/// plain search's status and first solution (the plain search's first
/// solution is the lexicographically least, which numbers its bins in
/// order of first use) in no more nodes. Under an arbitrary hint, which
/// may number bins in any order, both still reach the cold status.
#[test]
fn value_precedence_prunes_only_mirror_images() {
    const SEED: u64 = 0x1abe15;
    const CASES: usize = 128;
    let mut rng = StdRng::seed_from_u64(SEED);
    let (mut feasible, mut pruned) = (0, 0);
    for case in 0..CASES {
        let (plain, vars) = random_label_model(&mut rng);
        let mut declared = plain.clone();
        declared.declare_interchangeable_labels();
        let context = format!("seed {SEED:#x} case {case}: {plain:?}");
        let cold = |model: &Model| Solver::new().solve(model).expect("solve");
        let (plain_cold, declared_cold) = (cold(&plain), cold(&declared));
        assert_eq!(declared_cold.status, plain_cold.status, "{context}");
        assert_eq!(declared_cold.solution, plain_cold.solution, "{context}");
        assert!(
            declared_cold.stats.nodes <= plain_cold.stats.nodes,
            "{context}: {} nodes declared against {} plain",
            declared_cold.stats.nodes,
            plain_cold.stats.nodes
        );
        let hint = random_hint(&mut rng, &vars);
        let context = format!("{context} under hint {:?}", hint.values());
        for model in [&plain, &declared] {
            assert_eq!(
                status(model, Some(&hint), &context),
                plain_cold.status,
                "{context}"
            );
        }
        feasible += usize::from(plain_cold.status == SolveStatus::Feasible);
        pruned += usize::from(declared_cold.stats.nodes < plain_cold.stats.nodes);
    }
    println!("{CASES} cases: {feasible} feasible, {pruned} pruned by precedence");
    assert!(
        0 < feasible && feasible < CASES,
        "seed {SEED:#x}: {feasible} of {CASES} cases feasible"
    );
    assert!(pruned > 0, "seed {SEED:#x}: precedence never pruned");
}

/// Every objective floor of a random model gets the same answer warm and
/// cold: the floor at the best value (feasible), one above it
/// (infeasible), and one drawn at random.
#[test]
fn warm_and_cold_solves_agree_on_every_objective() {
    let mut rng = StdRng::seed_from_u64(0x5742_4d53); // "WBMS"
    for case in 0..60 {
        let (model, vars) = random_model(&mut rng);
        let objective = random_objective(&mut rng, &vars);
        let best = brute_force(&model, &objective).unwrap_or(0);
        let drawn = rng.gen_range(0..9usize) as i128 - 4;
        for floor in [best, best + 1, drawn] {
            let floored = with_floor(&model, &objective, floor);
            let hint = random_hint(&mut rng, &vars);
            let context = format!(
                "case {case}: floor {floor} under hint {:?} on {floored:?}",
                hint.values()
            );
            assert_eq!(
                status(&floored, None, &context),
                status(&floored, Some(&hint), &context),
                "{context}"
            );
        }
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
