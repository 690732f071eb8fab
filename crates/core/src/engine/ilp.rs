//! The ILP-backed refinement engine — the paper's solution strategy.

use std::time::Duration;

use strudel_ilp::prelude::{presolve, SolveStats, SolveStatus, Solver, SolverConfig, WarmStart};
use strudel_rdf::signature::SignatureView;
use strudel_rules::eval::RoughCountTable;
use strudel_rules::prelude::Ratio;

use crate::encode::{encode_with_table, Encoding, EncodingConfig};
use crate::error::RefineError;
use crate::refinement::SortRefinement;
use crate::sigma::SigmaSpec;

use super::{RefineOutcome, RefinementEngine};

/// Configuration of the ILP engine.
#[derive(Clone, Debug, Default)]
pub struct IlpEngineConfig {
    /// Wall-clock limit per decision-problem instance. `None` = unlimited,
    /// mirroring the paper's observation that proving infeasibility can take
    /// orders of magnitude longer than finding a solution.
    pub time_limit: Option<Duration>,
}

/// A warm-start hint at the refinement level: which sort each signature was
/// assigned to in a *neighboring* solution, keyed by signature identity (a
/// hash of the signature's property-name set) so it survives the entry
/// reordering between a view and its ±-one-signature neighbors.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RefinementHint {
    /// `(signature identity, sort index)` pairs from the prior solution.
    pub assignments: Vec<(u64, usize)>,
}

impl RefinementHint {
    /// Whether the hint carries no information.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }
}

/// Order-independent identity of one signature of a view: an FNV-1a hash of
/// the property *names* in the signature. Counts and entry positions are
/// excluded on purpose — a neighbor instance reorders entries and may have
/// slightly different counts, but the property set is what identifies "the
/// same" signature across instances.
pub fn signature_identity(view: &SignatureView, sig: usize) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for col in view.entries()[sig].signature.iter() {
        for byte in view.properties()[col].as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        hash ^= 0xff;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Builds a hint from a solved refinement of `view`, keyed by signature
/// identity so a neighboring instance can consume it.
pub fn hint_from_refinement(view: &SignatureView, refinement: &SortRefinement) -> RefinementHint {
    let assignment = refinement.assignment(view);
    RefinementHint {
        assignments: assignment
            .iter()
            .enumerate()
            .map(|(sig, &sort)| (signature_identity(view, sig), sort))
            .collect(),
    }
}

/// The engine that encodes the instance as an ILP and solves it exactly.
#[derive(Clone, Debug, Default)]
pub struct IlpEngine {
    config: IlpEngineConfig,
}

impl IlpEngine {
    /// Creates an engine with default configuration.
    pub fn new() -> Self {
        IlpEngine::default()
    }

    /// Creates an engine with an explicit configuration.
    pub fn with_config(config: IlpEngineConfig) -> Self {
        IlpEngine { config }
    }

    /// Creates an engine with a per-instance time limit.
    pub fn with_time_limit(limit: Duration) -> Self {
        IlpEngine::with_config(IlpEngineConfig {
            time_limit: Some(limit),
        })
    }

    /// Solves one instance reusing a precomputed rough-count table (the table
    /// depends only on the rule and the dataset, so θ- and k-sweeps avoid
    /// recomputing it).
    pub fn refine_with_table(
        &self,
        view: &SignatureView,
        spec: &SigmaSpec,
        table: RoughCountTable,
        k: usize,
        theta: Ratio,
    ) -> Result<RefineOutcome, RefineError> {
        self.refine_with_table_and_hint(view, spec, table, k, theta, None)
            .map(|(outcome, _)| outcome)
    }

    /// Solves one instance warm-started from a neighboring solution,
    /// returning the solver statistics alongside the outcome so callers can
    /// report warm-start effectiveness (nodes, conflicts, repaired hints).
    pub fn refine_with_hint(
        &self,
        view: &SignatureView,
        spec: &SigmaSpec,
        k: usize,
        theta: Ratio,
        hint: Option<&RefinementHint>,
    ) -> Result<(RefineOutcome, SolveStats), RefineError> {
        crate::encode::validate_inputs(view, theta, k)?;
        let rule = spec.rule();
        let table = strudel_rules::eval::Evaluator::new(view)
            .rough_counts(&rule)
            .map_err(RefineError::from)?;
        self.refine_with_table_and_hint(view, spec, table, k, theta, hint)
    }

    /// The full solve path: encode, presolve, translate the refinement-level
    /// hint into solver variable values, and solve.
    pub fn refine_with_table_and_hint(
        &self,
        view: &SignatureView,
        spec: &SigmaSpec,
        table: RoughCountTable,
        k: usize,
        theta: Ratio,
        hint: Option<&RefinementHint>,
    ) -> Result<(RefineOutcome, SolveStats), RefineError> {
        let mut encoding = encode_with_table(view, table, k, theta, &EncodingConfig)?;
        presolve(&mut encoding.model);
        let warm = hint.and_then(|hint| warm_start_for(&encoding, view, hint));
        let solver = Solver::with_config(SolverConfig {
            time_limit: self.config.time_limit,
        });
        let result = solver
            .solve_with_hint(&encoding.model, warm.as_ref())
            .map_err(|e| RefineError::Ilp(e.to_string()))?;
        let stats = result.stats;
        let outcome = match result.status {
            SolveStatus::Feasible => {
                let solution = result.solution.expect("status guarantees a solution");
                let assignment = encoding.extract_assignment(&solution);
                let refinement =
                    SortRefinement::from_assignment(view, spec, theta, &assignment, encoding.k)?;
                RefineOutcome::Refinement(refinement)
            }
            SolveStatus::Infeasible => RefineOutcome::Infeasible,
            SolveStatus::Unknown => RefineOutcome::Unknown,
        };
        Ok((outcome, stats))
    }
}

/// Translates a refinement-level hint into solver variable values.
///
/// The hint's sort indexes are opaque labels from the neighbor's solution.
/// The search breaks the symmetry of the encoding's labels by value
/// precedence, so the solution it reaches numbers sorts in the order their
/// first signature appears. Relabeling the hint the same way lands it
/// exactly on those labels, so an up-to-date hint dives conflict-free.
fn warm_start_for(
    encoding: &Encoding,
    view: &SignatureView,
    hint: &RefinementHint,
) -> Option<WarmStart> {
    let lookup: std::collections::HashMap<u64, usize> = hint.assignments.iter().copied().collect();
    // Prior sort label → member signatures of the *new* view, in order.
    let mut members: std::collections::BTreeMap<usize, Vec<usize>> =
        std::collections::BTreeMap::new();
    for sig in 0..view.signature_count() {
        if let Some(&sort) = lookup.get(&signature_identity(view, sig)) {
            members.entry(sort).or_default().push(sig);
        }
    }
    if members.is_empty() || members.len() > encoding.k {
        return None;
    }
    let mut order: Vec<&Vec<usize>> = members.values().collect();
    order.sort_by_key(|sigs| sigs[0]);
    let values = order
        .iter()
        .enumerate()
        .flat_map(|(label, sigs)| sigs.iter().map(move |&sig| (encoding.x[label][sig], 1)))
        .collect();
    Some(WarmStart::from_values(values))
}

impl RefinementEngine for IlpEngine {
    fn name(&self) -> &'static str {
        "ilp"
    }

    fn refine(
        &self,
        view: &SignatureView,
        spec: &SigmaSpec,
        k: usize,
        theta: Ratio,
    ) -> Result<RefineOutcome, RefineError> {
        crate::encode::validate_inputs(view, theta, k)?;
        let rule = spec.rule();
        let table = strudel_rules::eval::Evaluator::new(view)
            .rough_counts(&rule)
            .map_err(RefineError::from)?;
        self.refine_with_table(view, spec, table, k, theta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view() -> SignatureView {
        SignatureView::from_counts(
            vec![
                "http://ex/name".into(),
                "http://ex/birthDate".into(),
                "http://ex/deathDate".into(),
                "http://ex/deathPlace".into(),
            ],
            vec![
                (vec![0], 40),
                (vec![0, 1], 25),
                (vec![0, 1, 2], 10),
                (vec![0, 1, 2, 3], 5),
                (vec![0, 2, 3], 2),
            ],
        )
        .unwrap()
    }

    #[test]
    fn finds_a_cov_refinement_and_validates_it() {
        let view = view();
        let engine = IlpEngine::new();
        // The best 2-way split of this view groups {name} + {name,birthDate}
        // against the death-bearing signatures, reaching min σCov ≈ 0.69, so
        // θ = 0.65 is feasible while θ = 0.8 is not (see the test below).
        let theta = Ratio::new(13, 20);
        let outcome = engine
            .refine(&view, &SigmaSpec::Coverage, 2, theta)
            .unwrap();
        let refinement = outcome
            .refinement()
            .expect("θ = 0.65 with k = 2 is feasible");
        refinement.validate(&view).unwrap();
        assert!(refinement.min_sigma() >= theta);
        assert!(refinement.k() <= 2);

        let outcome = engine
            .refine(&view, &SigmaSpec::Coverage, 2, Ratio::new(4, 5))
            .unwrap();
        assert!(matches!(outcome, RefineOutcome::Infeasible));
    }

    #[test]
    fn reports_infeasibility_for_impossible_thresholds() {
        let view = view();
        let engine = IlpEngine::new();
        // Coverage 1.0 with a single sort requires all signatures identical.
        let outcome = engine
            .refine(&view, &SigmaSpec::Coverage, 1, Ratio::ONE)
            .unwrap();
        assert!(matches!(outcome, RefineOutcome::Infeasible));
    }

    #[test]
    fn threshold_one_with_k_equal_signature_count_is_feasible() {
        let view = view();
        let engine = IlpEngine::new();
        let outcome = engine
            .refine(
                &view,
                &SigmaSpec::Coverage,
                view.signature_count(),
                Ratio::ONE,
            )
            .unwrap();
        let refinement = outcome.refinement().expect("singleton sorts have σCov = 1");
        assert_eq!(refinement.k(), view.signature_count());
        assert_eq!(refinement.min_sigma(), Ratio::ONE);
    }

    #[test]
    fn warm_hint_from_a_neighbor_reproduces_the_cold_solution() {
        let view = view();
        // The neighbor drops the last signature (the S − 1 instance).
        let neighbor = SignatureView::from_counts(
            vec![
                "http://ex/name".into(),
                "http://ex/birthDate".into(),
                "http://ex/deathDate".into(),
                "http://ex/deathPlace".into(),
            ],
            vec![
                (vec![0], 40),
                (vec![0, 1], 25),
                (vec![0, 1, 2], 10),
                (vec![0, 1, 2, 3], 5),
            ],
        )
        .unwrap();
        let engine = IlpEngine::new();
        let theta = Ratio::new(13, 20);
        let spec = SigmaSpec::Coverage;

        let prior = engine
            .refine(&neighbor, &spec, 2, theta)
            .unwrap()
            .refinement()
            .cloned()
            .expect("neighbor instance is feasible");
        let hint = hint_from_refinement(&neighbor, &prior);
        assert!(!hint.is_empty());

        let (cold, cold_stats) = engine
            .refine_with_hint(&view, &spec, 2, theta, None)
            .unwrap();
        let (warm, warm_stats) = engine
            .refine_with_hint(&view, &spec, 2, theta, Some(&hint))
            .unwrap();
        assert_eq!(cold_stats.hint_vars, 0);
        assert!(warm_stats.hint_vars > 0);
        assert!(warm_stats.nodes <= cold_stats.nodes);
        let cold = cold.refinement().expect("feasible");
        let warm = warm.refinement().expect("feasible");
        assert_eq!(cold.assignment(&view), warm.assignment(&view));
    }

    #[test]
    fn a_stale_hint_still_solves_correctly() {
        let view = view();
        let engine = IlpEngine::new();
        let theta = Ratio::new(13, 20);
        // A deliberately bad hint: every signature in one sort (σCov too low
        // to be a real solution shape at this threshold with k = 2 the
        // solver must repair toward a feasible split).
        let hint = RefinementHint {
            assignments: (0..view.signature_count())
                .map(|sig| (signature_identity(&view, sig), 0))
                .collect(),
        };
        let (outcome, _) = engine
            .refine_with_hint(&view, &SigmaSpec::Coverage, 2, theta, Some(&hint))
            .unwrap();
        let refinement = outcome.refinement().expect("still feasible");
        refinement.validate(&view).unwrap();
        assert!(refinement.min_sigma() >= theta);
    }

    #[test]
    fn signature_identity_is_order_independent() {
        let view = view();
        let permuted = SignatureView::from_counts(
            vec![
                "http://ex/name".into(),
                "http://ex/birthDate".into(),
                "http://ex/deathDate".into(),
                "http://ex/deathPlace".into(),
            ],
            vec![
                (vec![0, 1, 2, 3], 5),
                (vec![0, 2, 3], 2),
                (vec![0], 40),
                (vec![0, 1], 25),
                (vec![0, 1, 2], 10),
            ],
        )
        .unwrap();
        // Same signatures, different entry order: identities must match up.
        let mut ours: Vec<u64> = (0..view.signature_count())
            .map(|sig| signature_identity(&view, sig))
            .collect();
        let mut theirs: Vec<u64> = (0..permuted.signature_count())
            .map(|sig| signature_identity(&permuted, sig))
            .collect();
        ours.sort_unstable();
        theirs.sort_unstable();
        assert_eq!(ours, theirs);
    }

    #[test]
    fn a_zero_time_limit_yields_unknown_not_a_wrong_answer() {
        let view = view();
        let engine = IlpEngine::with_time_limit(Duration::ZERO);
        // A search stopped before its first node cannot have found the
        // feasible instance's refinement, and must not claim it infeasible;
        // root propagation alone may still refute the infeasible one.
        let refine = |theta| {
            engine
                .refine(&view, &SigmaSpec::Coverage, 2, theta)
                .unwrap()
        };
        assert!(matches!(refine(Ratio::new(13, 20)), RefineOutcome::Unknown));
        assert!(refine(Ratio::new(4, 5)).refinement().is_none());
    }
}
