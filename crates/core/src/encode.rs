//! The reduction from sort refinement to Integer Linear Programming
//! (Section 6 of the paper).
//!
//! Given an RDF graph (as a signature view), a rule `r = ϕ₁ ↦ ϕ₂`, a
//! threshold `θ = θ₁/θ₂` and a number of implicit sorts `k`, the encoding
//! introduces binary variables
//!
//! * `X_{i,µ}` — signature set `µ` is placed in implicit sort `i`,
//! * `U_{i,p}` — implicit sort `i` uses property `p`,
//! * `T_{i,c}` — conjunction `c` holds in implicit sort `i` (all the
//!   signatures and properties it names are present),
//!
//! and the constraints of Section 6.2: each signature in exactly one sort,
//! `U` linked to `X`, `T` linked to `X`/`U`, and one threshold row per sort
//! using the precomputed `count(ϕ₁, τ, M)` / `count(ϕ₁ ∧ ϕ₂, τ, M)`
//! constants.
//!
//! ## One `T` per distinct conjunction
//!
//! The paper gives every rough assignment `τ` its own `T_{i,τ}`, the AND of
//! `X_{i,µ}` and `U_{i,p}` over the cells `(µ, p)` of `τ`. A `U_{i,p}` whose
//! property `p` belongs to a signature `µ` of `τ` adds nothing to that AND:
//! the row `X_{i,µ} ≤ U_{i,p}` already forces it whenever `X_{i,µ}` holds.
//! So each `τ` reduces to its signatures plus the properties of its cells
//! that none of those signatures has, and rough assignments with equal
//! reductions are the same conjunction. They always take the same value,
//! so the encoder gives them one `T` and sums their threshold coefficients
//! `θ₂·count(ϕ₁ ∧ ϕ₂, τ) − θ₁·count(ϕ₁, τ)`. Opposite-signed coefficients
//! then cancel inside the threshold row, which tightens its minimum
//! activity. A conjunction of one signature and no property is that
//! signature's `X`, so its coefficient goes on `X_{i,µ}` and it gets no
//! `T`; a conjunction whose coefficients sum to zero gets no variable.
//!
//! ## Symmetry breaking at branching time
//!
//! The `k` implicit sorts are interchangeable labels. Section 6.3 breaks
//! that symmetry with `hash(i) ≤ hash(i+1)` rows, written for a solver that
//! sees only rows, with coefficients that double from one signature to the
//! next. The encoder emits no such rows. It declares the labels instead
//! ([`Model::declare_interchangeable_labels`]), and the CP search breaks the
//! symmetry by value precedence while it branches: a signature may join a
//! sort already in use or open the lowest unused one. That declaration
//! holds because every row family below is emitted for every sort alike.
//! The two rules cannot be combined, because hash order and first-use order
//! pick different labelings of a partition: no labeling of
//! `{s0, s2} | {s1}` satisfies both, so together they would lose it.

use std::collections::BTreeMap;

use strudel_ilp::model::{Cmp, LinExpr, Model, VarId};
use strudel_rdf::signature::SignatureView;
use strudel_rules::eval::{Evaluator, RoughCountTable};
use strudel_rules::prelude::{Ratio, Rule};

use crate::error::RefineError;

/// Configuration of the encoding. It has no options left: Section 6.3's
/// hash rows, and with them the symmetry switch and the exponent cap, gave
/// way to value precedence in the search. The type, and the parameter of
/// [`encode_with_table`] that takes it, remain only because the benchmark
/// harness under `perfbench/` names both; they go with its next change.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EncodingConfig;

/// The result of encoding a sort-refinement instance.
#[derive(Debug)]
pub struct Encoding {
    /// The ILP model (`A_{(D,k,θ)}, b_{(D,k,θ)}` of Section 6).
    pub model: Model,
    /// `x[i][µ]` is the variable `X_{i,µ}`.
    pub x: Vec<Vec<VarId>>,
    /// `u[i][p]` is the variable `U_{i,p}`.
    pub u: Vec<Vec<VarId>>,
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
) -> Result<Encoding, RefineError> {
    validate_inputs(view, theta, k)?;
    let table = Evaluator::new(view).rough_counts(rule)?;
    encode_with_table(view, table, k, theta, &EncodingConfig)
}

/// A conjunction of `X_{i,µ}` over its signatures and `U_{i,p}` over its
/// properties, both sorted.
type Conjunction = (Vec<usize>, Vec<usize>);

/// Reduces every rough assignment of `table` to its conjunction and sums
/// the threshold coefficients `θ₂·favorable − θ₁·antecedent` of equal
/// conjunctions, in conjunction order. Zero sums are dropped.
fn conjunctions(
    view: &SignatureView,
    table: &RoughCountTable,
    theta: Ratio,
) -> Result<Vec<(Conjunction, i64)>, RefineError> {
    let (theta1, theta2) = theta.as_fraction();
    let mut sums: BTreeMap<Conjunction, i128> = BTreeMap::new();
    for entry in &table.entries {
        let mut signatures: Vec<usize> = entry.cells.iter().map(|&(sig, _)| sig).collect();
        signatures.sort_unstable();
        signatures.dedup();
        let mut properties: Vec<usize> = entry
            .cells
            .iter()
            .map(|&(_, p)| p)
            .filter(|&p| {
                !signatures
                    .iter()
                    .any(|&sig| view.entries()[sig].signature.contains(p))
            })
            .collect();
        properties.sort_unstable();
        properties.dedup();
        let favorable = i128::try_from(entry.favorable_count)
            .ok()
            .and_then(|c| c.checked_mul(theta2))
            .ok_or_else(|| RefineError::Ilp("favorable count overflow".into()))?;
        let total = i128::try_from(entry.antecedent_count)
            .ok()
            .and_then(|c| c.checked_mul(theta1))
            .ok_or_else(|| RefineError::Ilp("antecedent count overflow".into()))?;
        let sum = sums.entry((signatures, properties)).or_insert(0);
        *sum = favorable
            .checked_sub(total)
            .and_then(|coefficient| sum.checked_add(coefficient))
            .ok_or_else(|| RefineError::Ilp("threshold coefficient overflow".into()))?;
    }
    sums.into_iter()
        .filter(|&(_, sum)| sum != 0)
        .map(|(conjunction, sum)| {
            let coefficient = i64::try_from(sum).map_err(|_| {
                RefineError::Ilp(format!(
                    "threshold coefficient {sum} for conjunction {conjunction:?} does not fit in 64 bits"
                ))
            })?;
            Ok((conjunction, coefficient))
        })
        .collect()
}

/// Encodes using a precomputed rough-count table (the table only depends on
/// the rule and the dataset, so callers running a θ-sweep reuse it). The
/// [`EncodingConfig`] parameter is empty and ignored.
// The encoder loops over index ranges (`for i in 0..k`, `for p in 0..`)
// because the generated constraints mirror the paper's subscripted variables
// (X_{i,µ}, U_{i,p}, T_{i,c}); iterator/enumerate rewrites obscure that
// correspondence for no behavioural gain.
#[allow(clippy::needless_range_loop)]
pub fn encode_with_table(
    view: &SignatureView,
    table: RoughCountTable,
    k: usize,
    theta: Ratio,
    _config: &EncodingConfig,
) -> Result<Encoding, RefineError> {
    let k = validate_inputs(view, theta, k)?;
    let num_signatures = view.signature_count();
    let num_properties = view.property_count();
    let conjunctions = conjunctions(view, &table, theta)?;
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

    // Each signature is placed in exactly one implicit sort. The signature
    // choice variables also form the branching skeleton (decision groups),
    // registered in descending signature-set size order — the view's entry
    // order — so the solver decides the heavy signatures first. Member i of
    // every group is sort i, and the sorts are interchangeable labels.
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
    model.declare_interchangeable_labels();

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

    // Threshold constraint per sort:
    //   Σ_c (θ₂ · count(ϕ₁∧ϕ₂, c) − θ₁ · count(ϕ₁, c)) · T_{i,c}  ≥  0,
    // with T_{i,c} linked to X and U (Section 6.2, fourth bullet) unless c is
    // a lone X_{i,µ}, which carries its coefficient itself.
    for i in 0..k {
        let mut threshold = LinExpr::new();
        for (c, ((signatures, properties), coefficient)) in conjunctions.iter().enumerate() {
            let literals: Vec<VarId> = signatures
                .iter()
                .map(|&sig| x[i][sig])
                .chain(properties.iter().map(|&p| u[i][p]))
                .collect();
            if let [lone] = literals[..] {
                threshold.add_term(*coefficient, lone);
                continue;
            }
            let t = model.add_binary(format!("t_{i}_{c}"));
            let m = literals.len() as i64;
            // Σ literals ≤ T + m − 1, and m · T ≤ Σ literals.
            let mut upper = LinExpr::new().plus(-1, t);
            let mut lower = LinExpr::new().plus(m, t);
            for &literal in &literals {
                upper.add_term(1, literal);
                lower.add_term(-1, literal);
            }
            model.add_constraint(format!("t_upper_{i}_{c}"), upper, Cmp::Le, m - 1);
            model.add_constraint(format!("t_lower_{i}_{c}"), lower, Cmp::Le, 0);
            threshold.add_term(*coefficient, t);
        }
        model.add_constraint(format!("threshold_sort{i}"), threshold, Cmp::Ge, 0);
    }

    Ok(Encoding { model, x, u, k })
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
        let encoding = encode(&view, &rule, k, Ratio::new(3, 4)).unwrap();
        // Cov has one rough assignment per cell (µ, p) with a count: all 12.
        let table = Evaluator::new(&view).rough_counts(&rule).unwrap();
        assert_eq!(table.entries.len(), 12);
        // The 8 cells with p ∈ µ reduce to the lone X_{i,µ} of their
        // signature: 4 conjunctions that carry their coefficient on X and
        // get no T. The 4 cells with p ∉ µ ({name} lacks birthDate and
        // deathDate, {name, birthDate} lacks deathDate, {name, deathDate}
        // lacks birthDate) stay distinct X ∧ U conjunctions, one T each
        // per sort. So X: k·|Λ| = 8, U: k·|P| = 6, T: k·4 = 8.
        assert_eq!(encoding.x.iter().map(Vec::len).sum::<usize>(), 8);
        assert_eq!(encoding.u.iter().map(Vec::len).sum::<usize>(), 6);
        assert_eq!(encoding.num_vars(), 8 + 6 + 8);
        // Rows: 4 assignment rows, k·8 X ≤ U links (one per property a
        // signature has), k·3 U ≤ ΣX links, two links per T, and k
        // threshold rows. No Section-6.3 hash rows: the search breaks the
        // label symmetry, declared on the model.
        assert_eq!(encoding.num_constraints(), 4 + 16 + 6 + 2 * 8 + 2);
        assert_eq!(encoding.model.decision_groups().len(), 4);
        assert!(encoding.model.labels_interchangeable());
    }

    #[test]
    fn feasible_threshold_yields_a_solution_with_correct_assignment() {
        let view = view();
        let rule = SigmaSpec::Coverage.rule();
        // The dataset's own coverage is well above 1/2, so k = 1 at θ = 1/2
        // must be feasible.
        let encoding = encode(&view, &rule, 1, Ratio::new(1, 2)).unwrap();
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
        let encoding = encode(&view, &rule, 1, Ratio::ONE).unwrap();
        let result = Solver::new().solve(&encoding.model).unwrap();
        assert_eq!(result.status, SolveStatus::Infeasible);
    }

    #[test]
    fn threshold_one_with_enough_sorts_is_feasible() {
        let view = view();
        let rule = SigmaSpec::Coverage.rule();
        // Each signature alone has coverage 1, so k = |Λ| must be feasible at θ = 1.
        let encoding = encode(&view, &rule, 4, Ratio::ONE).unwrap();
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
            encode(&view, &rule, 0, Ratio::new(1, 2)),
            Err(RefineError::ZeroSorts)
        ));
        assert!(matches!(
            encode(&view, &rule, 2, Ratio::new(3, 2)),
            Err(RefineError::ThresholdOutOfRange(_))
        ));
        let empty = SignatureView::from_counts(vec!["http://ex/p".into()], vec![]).unwrap();
        assert!(matches!(
            encode(&empty, &rule, 2, Ratio::new(1, 2)),
            Err(RefineError::EmptyDataset)
        ));
    }
}
