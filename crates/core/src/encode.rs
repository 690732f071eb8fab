//! The reduction from sort refinement to Integer Linear Programming
//! (Section 6 of the paper).
//!
//! Given an RDF graph (as a signature view), a rule `r = ϕ₁ ↦ ϕ₂`, a
//! threshold `θ = θ₁/θ₂` and a number of implicit sorts `k`, the encoding
//! introduces binary variables
//!
//! * `X_{i,µ}` — signature set `µ` is placed in implicit sort `i`,
//! * `U_{i,p}` — implicit sort `i` uses property `p`,
//! * `T_{i,τ}` — rough assignment `τ` is *consistent* in implicit sort `i`
//!   (all the signatures and properties it mentions are present),
//!
//! and the constraints of Section 6.2: each signature in exactly one sort,
//! `U` linked to `X`, `T` linked to `X`/`U`, and one threshold row per sort
//! using the precomputed `count(ϕ₁, τ, M)` / `count(ϕ₁ ∧ ϕ₂, τ, M)`
//! constants. The symmetry-breaking hash ordering of Section 6.3 is included
//! (with the capped exponent workaround for numerical stability).

use strudel_ilp::model::{Cmp, LinExpr, Model, VarId};
use strudel_rdf::signature::SignatureView;
use strudel_rules::eval::{Evaluator, RoughCountTable};
use strudel_rules::prelude::{Ratio, Rule};

use crate::error::RefineError;

/// Configuration of the encoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EncodingConfig {
    /// Whether to add the symmetry-breaking `hash(i) ≤ hash(i+1)` constraints
    /// of Section 6.3.
    pub symmetry_breaking: bool,
    /// Cap on the exponent used in the hash function. The paper notes that
    /// with many signatures the exponents cause "numerical instability in
    /// commercial ILP solvers"; capping trades that for a few hash collisions.
    pub max_hash_exponent: u32,
}

impl Default for EncodingConfig {
    fn default() -> Self {
        EncodingConfig {
            symmetry_breaking: true,
            max_hash_exponent: 40,
        }
    }
}

/// The result of encoding a sort-refinement instance.
#[derive(Debug)]
pub struct Encoding {
    /// The ILP model (`A_{(D,k,θ)}, b_{(D,k,θ)}` of Section 6).
    pub model: Model,
    /// `x[i][µ]` is the variable `X_{i,µ}`.
    pub x: Vec<Vec<VarId>>,
    /// `u[i][p]` is the variable `U_{i,p}`.
    pub u: Vec<Vec<VarId>>,
    /// `t[i][j]` is the variable `T_{i,τ_j}`, with `τ_j` the `j`-th entry of
    /// [`Encoding::table`].
    pub t: Vec<Vec<VarId>>,
    /// The rough-count table whose entries index the `T` variables.
    pub table: RoughCountTable,
    /// The number of implicit sorts encoded: the requested `k`, capped at
    /// the view's signature count.
    pub k: usize,
}

impl Encoding {
    /// Extracts the signature → sort assignment from a solved model.
    pub fn extract_assignment(&self, solution: &[i64]) -> Vec<usize> {
        let num_signatures = self.x.first().map(|row| row.len()).unwrap_or(0);
        let mut assignment = vec![0usize; num_signatures];
        for (sig, slot) in assignment.iter_mut().enumerate() {
            let sort = (0..self.k)
                .find(|&i| solution[self.x[i][sig].index()] == 1)
                .expect("every signature is assigned to exactly one sort");
            *slot = sort;
        }
        assignment
    }

    /// Number of variables in the encoded model.
    pub fn num_vars(&self) -> usize {
        self.model.num_vars()
    }

    /// Number of constraints in the encoded model.
    pub fn num_constraints(&self) -> usize {
        self.model.num_constraints()
    }
}

/// Validates the common inputs of a refinement problem and returns the
/// number of sorts worth encoding: a refinement never has more non-empty
/// sorts than the view has signatures, so any larger `k` asks the same
/// question as the signature count.
pub(crate) fn validate_inputs(
    view: &SignatureView,
    theta: Ratio,
    k: usize,
) -> Result<usize, RefineError> {
    if k == 0 {
        return Err(RefineError::ZeroSorts);
    }
    if theta < Ratio::ZERO || theta > Ratio::ONE {
        return Err(RefineError::ThresholdOutOfRange(theta.to_string()));
    }
    if view.signature_count() == 0 {
        return Err(RefineError::EmptyDataset);
    }
    Ok(k.min(view.signature_count()))
}

/// Encodes `ExistsSortRefinement(r)` on `(view, θ, k)` as an ILP instance.
pub fn encode(
    view: &SignatureView,
    rule: &Rule,
    k: usize,
    theta: Ratio,
    config: &EncodingConfig,
) -> Result<Encoding, RefineError> {
    validate_inputs(view, theta, k)?;
    let table = Evaluator::new(view).rough_counts(rule)?;
    encode_with_table(view, table, k, theta, config)
}

/// Encodes using a precomputed rough-count table (the table only depends on
/// the rule and the dataset, so callers running a θ-sweep reuse it).
// The encoder loops over index ranges (`for i in 0..k`, `for p in 0..`)
// because the generated constraints mirror the paper's subscripted variables
// (X_{i,µ}, U_{i,p}, T_{i,τ}); iterator/enumerate rewrites obscure that
// correspondence for no behavioural gain.
#[allow(clippy::needless_range_loop)]
pub fn encode_with_table(
    view: &SignatureView,
    table: RoughCountTable,
    k: usize,
    theta: Ratio,
    config: &EncodingConfig,
) -> Result<Encoding, RefineError> {
    let k = validate_inputs(view, theta, k)?;
    let num_signatures = view.signature_count();
    let num_properties = view.property_count();
    let num_rule_vars = table.variables.len();
    let mut model = Model::new();

    // X_{i,µ}: primary decision variables.
    let x: Vec<Vec<VarId>> = (0..k)
        .map(|i| {
            (0..num_signatures)
                .map(|sig| model.add_binary(format!("x_{i}_{sig}")))
                .collect()
        })
        .collect();
    // U_{i,p}.
    let u: Vec<Vec<VarId>> = (0..k)
        .map(|i| {
            (0..num_properties)
                .map(|p| model.add_binary(format!("u_{i}_{p}")))
                .collect()
        })
        .collect();
    // T_{i,τ}.
    let t: Vec<Vec<VarId>> = (0..k)
        .map(|i| {
            (0..table.entries.len())
                .map(|j| model.add_binary(format!("t_{i}_{j}")))
                .collect()
        })
        .collect();

    // Each signature is placed in exactly one implicit sort. The signature
    // choice variables also form the branching skeleton (decision groups),
    // registered in descending signature-set size order — the view's entry
    // order — so the solver decides the heavy signatures first.
    for sig in 0..num_signatures {
        let mut expr = LinExpr::new();
        let mut group = Vec::with_capacity(k);
        for x_i in x.iter() {
            expr.add_term(1, x_i[sig]);
            group.push(x_i[sig]);
        }
        model.add_constraint(format!("assign_sig{sig}"), expr, Cmp::Eq, 1);
        model.add_decision_group(group);
    }

    // Link U to X: U_{i,p} = 1 iff some signature in sort i supports p.
    for i in 0..k {
        for p in 0..num_properties {
            let supporting: Vec<usize> = (0..num_signatures)
                .filter(|&sig| view.entries()[sig].signature.contains(p))
                .collect();
            for &sig in &supporting {
                // X_{i,µ} ≤ U_{i,p}
                model.add_constraint(
                    format!("x_le_u_{i}_{p}_{sig}"),
                    LinExpr::new().plus(1, x[i][sig]).plus(-1, u[i][p]),
                    Cmp::Le,
                    0,
                );
            }
            // U_{i,p} ≤ Σ X_{i,µ} over supporting signatures.
            let mut expr = LinExpr::new().plus(1, u[i][p]);
            for &sig in &supporting {
                expr.add_term(-1, x[i][sig]);
            }
            model.add_constraint(format!("u_le_sum_{i}_{p}"), expr, Cmp::Le, 0);
        }
    }

    // Link T to X and U (Section 6.2, fourth bullet).
    let two_n = 2 * num_rule_vars as i64;
    for i in 0..k {
        for (j, entry) in table.entries.iter().enumerate() {
            // Σ_j (X + U) ≤ T + 2n − 1.
            let mut upper = LinExpr::new().plus(-1, t[i][j]);
            // 2n · T ≤ Σ_j (X + U).
            let mut lower = LinExpr::new().plus(two_n, t[i][j]);
            for &(sig, p) in &entry.cells {
                upper.add_term(1, x[i][sig]);
                upper.add_term(1, u[i][p]);
                lower.add_term(-1, x[i][sig]);
                lower.add_term(-1, u[i][p]);
            }
            model.add_constraint(format!("t_upper_{i}_{j}"), upper, Cmp::Le, two_n - 1);
            model.add_constraint(format!("t_lower_{i}_{j}"), lower, Cmp::Le, 0);
        }
    }

    // Threshold constraint per sort:
    //   θ₂ · Σ_τ count(ϕ₁∧ϕ₂, τ) · T_{i,τ}  ≥  θ₁ · Σ_τ count(ϕ₁, τ) · T_{i,τ}.
    let (theta1, theta2) = theta.as_fraction();
    for i in 0..k {
        let mut expr = LinExpr::new();
        for (j, entry) in table.entries.iter().enumerate() {
            let favorable = i128::try_from(entry.favorable_count)
                .ok()
                .and_then(|c| c.checked_mul(theta2))
                .ok_or_else(|| RefineError::Ilp("favorable count overflow".into()))?;
            let total = i128::try_from(entry.antecedent_count)
                .ok()
                .and_then(|c| c.checked_mul(theta1))
                .ok_or_else(|| RefineError::Ilp("antecedent count overflow".into()))?;
            let coefficient = favorable - total;
            let coefficient = i64::try_from(coefficient).map_err(|_| {
                RefineError::Ilp(format!(
                    "threshold coefficient {coefficient} for τ #{j} does not fit in 64 bits"
                ))
            })?;
            if coefficient != 0 {
                expr.add_term(coefficient, t[i][j]);
            }
        }
        model.add_constraint(format!("threshold_sort{i}"), expr, Cmp::Ge, 0);
    }

    // Symmetry breaking (Section 6.3): hash(i) ≤ hash(i+1).
    if config.symmetry_breaking && k > 1 {
        for i in 0..k - 1 {
            let mut expr = LinExpr::new();
            for sig in 0..num_signatures {
                let exponent = (sig as u32).min(config.max_hash_exponent);
                let weight = 1i64 << exponent;
                expr.add_term(weight, x[i][sig]);
                expr.add_term(-weight, x[i + 1][sig]);
            }
            model.add_constraint(format!("symmetry_{i}"), expr, Cmp::Le, 0);
        }
    }

    Ok(Encoding {
        model,
        x,
        u,
        t,
        table,
        k,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sigma::SigmaSpec;
    use strudel_ilp::prelude::{SolveStatus, Solver};

    fn view() -> SignatureView {
        SignatureView::from_counts(
            vec![
                "http://ex/name".into(),
                "http://ex/birthDate".into(),
                "http://ex/deathDate".into(),
            ],
            vec![
                (vec![0], 10),
                (vec![0, 1], 6),
                (vec![0, 1, 2], 4),
                (vec![0, 2], 2),
            ],
        )
        .unwrap()
    }

    #[test]
    fn encoding_has_the_expected_shape() {
        let view = view();
        let rule = SigmaSpec::Coverage.rule();
        let k = 2;
        let encoding = encode(
            &view,
            &rule,
            k,
            Ratio::new(3, 4),
            &EncodingConfig::default(),
        )
        .unwrap();
        // X: k·|Λ| = 8, U: k·|P| = 6, T: k·|τ| where |τ| = |Λ|·|P| (Cov has one
        // variable ranging over every cell with count > 0 → all 12 pairs).
        assert_eq!(encoding.x.iter().map(Vec::len).sum::<usize>(), 8);
        assert_eq!(encoding.u.iter().map(Vec::len).sum::<usize>(), 6);
        assert_eq!(encoding.table.entries.len(), 12);
        assert_eq!(encoding.num_vars(), 8 + 6 + 24);
        assert!(encoding.num_constraints() > 0);
        assert_eq!(encoding.model.decision_groups().len(), 4);
    }

    #[test]
    fn feasible_threshold_yields_a_solution_with_correct_assignment() {
        let view = view();
        let rule = SigmaSpec::Coverage.rule();
        // The dataset's own coverage is well above 1/2, so k = 1 at θ = 1/2
        // must be feasible.
        let encoding = encode(
            &view,
            &rule,
            1,
            Ratio::new(1, 2),
            &EncodingConfig::default(),
        )
        .unwrap();
        let result = Solver::new().solve(&encoding.model).unwrap();
        assert_eq!(result.status, SolveStatus::Feasible);
        let assignment = encoding.extract_assignment(&result.solution.unwrap());
        assert_eq!(assignment, vec![0, 0, 0, 0]);
    }

    #[test]
    fn infeasible_threshold_is_detected() {
        let view = view();
        let rule = SigmaSpec::Coverage.rule();
        // θ = 1 with k = 1 requires the whole dataset to have coverage 1,
        // which it does not.
        let encoding = encode(&view, &rule, 1, Ratio::ONE, &EncodingConfig::default()).unwrap();
        let result = Solver::new().solve(&encoding.model).unwrap();
        assert_eq!(result.status, SolveStatus::Infeasible);
    }

    #[test]
    fn threshold_one_with_enough_sorts_is_feasible() {
        let view = view();
        let rule = SigmaSpec::Coverage.rule();
        // Each signature alone has coverage 1, so k = |Λ| must be feasible at θ = 1.
        let encoding = encode(&view, &rule, 4, Ratio::ONE, &EncodingConfig::default()).unwrap();
        let result = Solver::new().solve(&encoding.model).unwrap();
        assert_eq!(result.status, SolveStatus::Feasible);
        let assignment = encoding.extract_assignment(&result.solution.unwrap());
        // All four signatures in distinct sorts.
        let mut sorted = assignment.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
    }

    #[test]
    fn input_validation() {
        let view = view();
        let rule = SigmaSpec::Coverage.rule();
        assert!(matches!(
            encode(
                &view,
                &rule,
                0,
                Ratio::new(1, 2),
                &EncodingConfig::default()
            ),
            Err(RefineError::ZeroSorts)
        ));
        assert!(matches!(
            encode(
                &view,
                &rule,
                2,
                Ratio::new(3, 2),
                &EncodingConfig::default()
            ),
            Err(RefineError::ThresholdOutOfRange(_))
        ));
        let empty = SignatureView::from_counts(vec!["http://ex/p".into()], vec![]).unwrap();
        assert!(matches!(
            encode(
                &empty,
                &rule,
                2,
                Ratio::new(1, 2),
                &EncodingConfig::default()
            ),
            Err(RefineError::EmptyDataset)
        ));
    }

    #[test]
    fn symmetry_breaking_preserves_feasibility() {
        let view = view();
        let rule = SigmaSpec::Similarity.rule();
        let theta = Ratio::new(4, 5);
        for symmetry in [true, false] {
            let config = EncodingConfig {
                symmetry_breaking: symmetry,
                ..EncodingConfig::default()
            };
            let encoding = encode(&view, &rule, 2, theta, &config).unwrap();
            let with = Solver::new().solve(&encoding.model).unwrap();
            let config_other = EncodingConfig {
                symmetry_breaking: !symmetry,
                ..EncodingConfig::default()
            };
            let encoding_other = encode(&view, &rule, 2, theta, &config_other).unwrap();
            let without = Solver::new().solve(&encoding_other.model).unwrap();
            assert_eq!(with.status, without.status);
        }
    }
}
