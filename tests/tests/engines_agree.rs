//! Cross-engine agreement: every engine a request or `serve --solver` can
//! name (`hybrid`, `ilp`, `greedy`), and the exact engine warm-started from
//! a hint, must reach the exhaustive oracle's decision on every random
//! small instance (greedy may leave it undecided), and every refinement any
//! engine returns must be a genuine certificate.
//!
//! Driven by the workspace's seeded generator (`strudel_rdf::rng`); every
//! assertion names the seed and the case index, and re-running the test
//! replays the same cases.

use strudel_core::engine::{signature_identity, RefinementHint};
use strudel_core::prelude::*;
use strudel_rdf::rng::StdRng;
use strudel_rdf::signature::SignatureView;
use strudel_rules::eval::Evaluator;
use strudel_rules::parser::parse_rule;
use strudel_server::prelude::EngineKind;

/// Cases per property, as in the original property suite.
const CASES: usize = 48;

/// A view of 2–5 signatures over four properties. Each signature draws 1–3
/// property indexes (repeats allowed) and 1–7 subjects; equal signatures
/// merge, so the draw repeats until at least two distinct ones remain.
fn random_view(rng: &mut StdRng) -> SignatureView {
    loop {
        let signatures: Vec<(Vec<usize>, usize)> = (0..rng.gen_range(2..6usize))
            .map(|_| {
                let properties = (0..rng.gen_range(1..4usize))
                    .map(|_| rng.gen_range(0..4usize))
                    .collect();
                (properties, rng.gen_range(1..8usize))
            })
            .collect();
        let view = SignatureView::from_counts(
            (0..4).map(|i| format!("http://ex/p{i}")).collect(),
            signatures,
        )
        .expect("indexes are within range by construction");
        if view.signature_count() >= 2 {
            return view;
        }
    }
}

/// One of the four builtin rule families, over properties 0–3.
fn random_spec(rng: &mut StdRng) -> SigmaSpec {
    let kind = rng.gen_range(0..4usize);
    let p1 = format!("http://ex/p{}", rng.gen_range(0..4usize));
    let p2 = format!("http://ex/p{}", rng.gen_range(0..4usize));
    match kind {
        0 => SigmaSpec::Coverage,
        1 => SigmaSpec::Similarity,
        2 => SigmaSpec::Dependency { p1, p2 },
        _ => SigmaSpec::SymDependency { p1, p2 },
    }
}

/// One of the families the engines score without the four above: σ_Cov
/// ignoring one or two properties (one of them, a time in five, absent
/// from the view), the disjunctive dependency (p2 = p1 a time in four),
/// and a custom rule, which has no closed form: the probability that a
/// cell of a subject with `p1` is filled.
fn random_other_spec(rng: &mut StdRng) -> SigmaSpec {
    let property = |rng: &mut StdRng| match rng.gen_range(0..5usize) {
        4 => "http://ex/absent".to_owned(),
        i => format!("http://ex/p{i}"),
    };
    let p1 = property(rng);
    let p2 = if rng.gen_range(0..4usize) == 0 {
        p1.clone()
    } else {
        property(rng)
    };
    match rng.gen_range(0..3usize) {
        0 => SigmaSpec::CoverageIgnoring(if rng.gen_bool(0.5) {
            vec![p1]
        } else {
            vec![p1, p2]
        }),
        1 => SigmaSpec::DependencyDisjunctive { p1, p2 },
        _ => SigmaSpec::Custom(
            parse_rule(&format!(
                "subj(c1) = subj(c2) and prop(c1) = <{p1}> and val(c1) = 1 -> val(c2) = 1"
            ))
            .expect("the custom rule parses"),
        ),
    }
}

/// A threshold in percent steps from `low` to 1.
fn random_theta(rng: &mut StdRng, low: usize) -> Ratio {
    Ratio::new(rng.gen_range(low..101usize) as i128, 100)
}

/// The least threshold above `theta` worth asking about: 10⁻⁶ is below the
/// gap between any two σ values of views this small.
fn just_above(theta: Ratio) -> Ratio {
    (theta + Ratio::new(1, 1_000_000)).min(Ratio::ONE)
}

/// The highest threshold some refinement into at most `k` sorts meets:
/// the oracle is asked for a strictly better refinement until none exists.
fn best_theta(view: &SignatureView, spec: &SigmaSpec, k: usize) -> Ratio {
    let mut best = Ratio::ZERO;
    while best < Ratio::ONE {
        match ExhaustiveEngine::new()
            .refine(view, spec, k, just_above(best))
            .unwrap()
        {
            RefineOutcome::Refinement(better) => best = better.min_sigma(),
            _ => break,
        }
    }
    best
}

/// An arbitrary warm-start hint, deliberately unvalidated: most signatures
/// of the view get a sort index drawn from `0..k + 2` (so some are out of
/// range), and up to two identities match no signature at all.
fn random_hint(rng: &mut StdRng, view: &SignatureView, k: usize) -> RefinementHint {
    let mut assignments = Vec::new();
    for sig in 0..view.signature_count() {
        if rng.gen_bool(0.7) {
            assignments.push((signature_identity(view, sig), rng.gen_range(0..k + 2)));
        }
    }
    for _ in 0..rng.gen_range(0..3usize) {
        assignments.push((rng.next_u64(), rng.gen_range(0..k + 2)));
    }
    RefinementHint { assignments }
}

/// The decision `outcome` states (`None` for `Unknown`), after checking
/// that a returned refinement is a genuine certificate: it partitions the
/// signatures into at most `k` sorts, and every sort's σ, recomputed by the
/// generic evaluator from the rule on the sort's sub-view (not by the closed
/// forms the engines score with), is the σ it states and meets θ.
fn decision(
    outcome: &RefineOutcome,
    (view, spec, k, theta): (&SignatureView, &SigmaSpec, usize, Ratio),
    context: &str,
) -> Option<bool> {
    match outcome {
        RefineOutcome::Refinement(refinement) => {
            if let Err(err) = refinement.validate(view) {
                panic!("{context}: invalid refinement: {err}");
            }
            assert!(refinement.min_sigma() >= theta, "{context}: below θ");
            assert!(refinement.k() <= k, "{context}: more than k sorts");
            for sort in &refinement.sorts {
                let sigma = Evaluator::new(&view.subset(&sort.signatures))
                    .sigma(&spec.rule())
                    .unwrap();
                assert_eq!(sigma, sort.sigma, "{context}: misstated σ");
            }
            Some(true)
        }
        RefineOutcome::Infeasible => Some(false),
        RefineOutcome::Unknown => None,
    }
}

/// A `k` far past any view's signature count: it asks the signature
/// count's question, since a refinement has no more non-empty sorts than
/// the view has signatures.
const HUGE_K: usize = 1 << 40;

/// `ExistsSortRefinement` decided by the oracle is the decision of every
/// engine the server runs: `hybrid`, `ilp`, and the exact engine cold and
/// warm-started from an arbitrary hint. Greedy may fail to decide but never
/// claims infeasibility, and every refinement any of them returns is a
/// genuine certificate. Every engine, the oracle included, also answers `k` = 2⁴⁰
/// with the oracle's decision at `k` = the signature count.
#[test]
fn every_engine_matches_the_exhaustive_oracle() {
    match_the_oracle(0x0e4a_c7e5, random_spec);
}

/// As above, for σ_Cov ignoring properties, the disjunctive dependency and
/// a custom rule: greedy scores the first two from column counts and the
/// custom rule on sub-views.
#[test]
fn every_engine_matches_the_oracle_on_the_other_families() {
    match_the_oracle(0xd15_c057, random_other_spec);
}

/// [`CASES`] random instances, each spec drawn by `draw_spec`, on which
/// every engine must reach the oracle's decision.
fn match_the_oracle(seed: u64, draw_spec: fn(&mut StdRng) -> SigmaSpec) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut feasible, mut seeded) = (0, 0);
    for case in 0..CASES {
        let view = random_view(&mut rng);
        let spec = draw_spec(&mut rng);
        let k = rng.gen_range(1..4usize);
        // A third of the thresholds sit exactly on the feasibility boundary
        // and a third just above it, where an incomplete search shows.
        let best = best_theta(&view, &spec, k);
        let theta = match rng.gen_range(0..3usize) {
            0 => random_theta(&mut rng, 0),
            1 => best,
            _ => just_above(best),
        };
        let hint = random_hint(&mut rng, &view, k);
        let instance = format!("seed {seed:#x} case {case}: {} θ {theta}", spec.name());
        let check = |k: usize, label: &str, outcome: &RefineOutcome| {
            let context = format!("{instance}, k {k}, {label}");
            decision(outcome, (&view, &spec, k, theta), &context)
        };
        let oracle = |k: usize| {
            let outcome = ExhaustiveEngine::new().refine(&view, &spec, k, theta);
            check(k, "exhaustive", &outcome.unwrap()).expect("the oracle decides")
        };

        let truth = oracle(k);
        feasible += usize::from(truth);
        let saturated = oracle(view.signature_count());
        for (k, truth) in [(k, truth), (HUGE_K, saturated)] {
            for kind in [EngineKind::Hybrid, EngineKind::Ilp, EngineKind::Greedy] {
                let outcome = kind.build(None).refine(&view, &spec, k, theta).unwrap();
                let answer = check(k, kind.name(), &outcome);
                assert!(
                    answer == Some(truth) || (kind == EngineKind::Greedy && answer.is_none()),
                    "{instance}, k {k}: {} answered {answer:?}",
                    kind.name()
                );
            }
            for warm in [None, Some(&hint)] {
                let (outcome, stats) = IlpEngine::new()
                    .refine_with_hint(&view, &spec, k, theta, warm)
                    .unwrap();
                seeded += usize::from(stats.hint_vars > 0);
                let label = format!("ilp {warm:?}");
                assert_eq!(
                    check(k, &label, &outcome),
                    Some(truth),
                    "{instance}, {label}"
                );
            }
        }
        assert_eq!(
            oracle(HUGE_K),
            saturated,
            "{instance}, exhaustive at k 2^40"
        );
    }
    let infeasible = CASES - feasible;
    println!("{CASES} cases: {feasible} feasible, {infeasible} infeasible, {seeded} seeded solves");
    assert!(
        feasible > 0 && infeasible > 0,
        "seed {seed:#x}: one answer never occurs"
    );
    assert!(seeded > 0, "seed {seed:#x}: no hint ever seeded a solve");
}

/// The greedy engine never claims infeasibility, and the hybrid engine
/// gives exactly the ILP answer.
#[test]
fn hybrid_equals_ilp() {
    const SEED: u64 = 0x4b1d;
    let mut rng = StdRng::seed_from_u64(SEED);
    for case in 0..CASES {
        let view = random_view(&mut rng);
        let k = rng.gen_range(1..3usize);
        let theta = random_theta(&mut rng, 50);
        let answer = |engine: &dyn RefinementEngine| {
            exists_sort_refinement(&view, &SigmaSpec::Coverage, theta, k, engine).unwrap()
        };
        let context = format!("seed {SEED:#x} case {case}: k {k} θ {theta}");
        let ilp = answer(&IlpEngine::new());
        assert_eq!(answer(&HybridEngine::new()), ilp, "{context}");
        assert_ne!(answer(&GreedyEngine::new()), Some(false), "{context}");
    }
}

/// Feasibility is monotone in k (a structural sanity property of the
/// decision problem itself), and θ = 0 is feasible with one sort.
#[test]
fn feasibility_monotonicity() {
    const SEED: u64 = 0x3a0f;
    let mut rng = StdRng::seed_from_u64(SEED);
    let answer = |view: &SignatureView, theta: Ratio, k: usize| {
        exists_sort_refinement(view, &SigmaSpec::Coverage, theta, k, &IlpEngine::new())
            .unwrap()
            .expect("the exact engine decides")
    };
    for case in 0..CASES {
        let view = random_view(&mut rng);
        let theta = random_theta(&mut rng, 0);
        let answers: Vec<bool> = (1..=3).map(|k| answer(&view, theta, k)).collect();
        let context = format!("seed {SEED:#x} case {case}: θ {theta}, k = 1..=3 {answers:?}");
        assert!(
            answers.windows(2).all(|pair| pair[0] <= pair[1]),
            "{context}"
        );
        assert!(
            answer(&view, Ratio::ZERO, 1),
            "{context}: θ = 0 with one sort"
        );
    }
}
