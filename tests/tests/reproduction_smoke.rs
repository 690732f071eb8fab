//! Reproduction smoke tests: cheap, budgeted versions of the paper's
//! experiments asserting the qualitative *shape* of each result. The full
//! regeneration lives in `cargo run -p strudel-bench --bin experiments`.

use std::time::Duration;

use strudel_core::engine::{hint_from_refinement, RefinementHint};
use strudel_core::prelude::*;
use strudel_datagen::{
    dbpedia_persons, dbpedia_persons_scaled, mixed_drug_companies_and_sultans, person_columns,
    wordnet_nouns,
};
use strudel_rdf::signature::SignatureView;

fn quick_engine() -> HybridEngine {
    HybridEngine::with_engines(
        GreedyEngine::new(),
        IlpEngine::with_time_limit(Duration::from_secs(3)),
    )
}

fn coarse_options() -> HighestThetaOptions {
    HighestThetaOptions {
        step: Ratio::new(1, 20),
        start: None,
    }
}

/// Figure 2/3 shape: DBpedia Persons is unstructured under Cov but moderately
/// structured under Sim; WordNet Nouns is the opposite extreme.
#[test]
fn dataset_structuredness_shape() {
    let dbpedia = dbpedia_persons();
    let wordnet = wordnet_nouns();
    let cov_dbpedia = SigmaSpec::Coverage.evaluate(&dbpedia).unwrap().to_f64();
    let sim_dbpedia = SigmaSpec::Similarity.evaluate(&dbpedia).unwrap().to_f64();
    let cov_wordnet = SigmaSpec::Coverage.evaluate(&wordnet).unwrap().to_f64();
    let sim_wordnet = SigmaSpec::Similarity.evaluate(&wordnet).unwrap().to_f64();
    assert!(cov_dbpedia < 0.6 && cov_dbpedia > 0.45);
    assert!(sim_dbpedia > 0.7);
    assert!(cov_wordnet < 0.5);
    assert!(sim_wordnet > 0.9);
    assert!(sim_wordnet > sim_dbpedia);
}

/// Figure 4a shape: the best k = 2 Cov split of DBpedia Persons separates
/// the subjects without death information ("the sort for people that are
/// alive!") from the rest, and raises the threshold above σCov(D) ≈ 0.54.
#[test]
fn dbpedia_cov_split_discovers_the_alive_sort() {
    // The scaled view has the same 64 signatures; only the counts shrink.
    let view = dbpedia_persons_scaled(1000);
    let cols = person_columns(&view);
    let result = highest_theta(
        &view,
        &SigmaSpec::Coverage,
        2,
        &quick_engine(),
        &coarse_options(),
    )
    .unwrap();
    let refinement = result
        .refinement
        .expect("feasible at the starting threshold");
    assert_eq!(refinement.k(), 2);
    assert!(result.theta.to_f64() > SigmaSpec::Coverage.evaluate(&view).unwrap().to_f64());
    let death_free = refinement.sorts.iter().any(|sort| {
        let sub = view.subset(&sort.signatures);
        sub.property_subject_count(cols.death_date) == 0
            && sub.property_subject_count(cols.death_place) == 0
    });
    assert!(
        death_free,
        "one implicit sort should contain only death-free signatures"
    );
}

/// Table 1 shape: knowing the deathPlace implies knowing nearly everything
/// else; the reverse directions are much weaker.
#[test]
fn dependency_table_shape() {
    let view = dbpedia_persons();
    let cols = person_columns(&view);
    let order = [
        cols.death_place,
        cols.birth_place,
        cols.death_date,
        cols.birth_date,
    ];
    let matrix = dependency_matrix(&view, &order);
    for cell in &matrix[0][1..4] {
        assert!(cell.to_f64() > 0.7, "deathPlace row must be high");
    }
    assert!(
        matrix[1][2].to_f64() < 0.5,
        "birthPlace → deathDate must be low"
    );
    assert!(
        matrix[3][0].to_f64() < 0.5,
        "birthDate → deathPlace must be low"
    );
}

/// Table 2 shape: givenName/surName is the most correlated pair; pairs with
/// deathPlace sit at the bottom.
#[test]
fn sym_dependency_ranking_shape() {
    let view = dbpedia_persons();
    let ranking = sym_dependency_ranking(&view);
    let top = &ranking[0];
    assert!(top.value.to_f64() > 0.99);
    assert!(
        top.property_a.contains("ivenName") || top.property_b.contains("ivenName"),
        "top pair should involve givenName, got {} / {}",
        top.property_a,
        top.property_b
    );
    let bottom = ranking.last().unwrap();
    assert!(bottom.value.to_f64() < 0.2);
}

/// Figure 6 shape: WordNet Nouns is already so uniform that a k = 2 split
/// barely improves σCov.
#[test]
fn wordnet_cov_split_improves_little() {
    let view = wordnet_nouns();
    let whole = SigmaSpec::Coverage.evaluate(&view).unwrap().to_f64();
    let result = highest_theta(
        &view,
        &SigmaSpec::Coverage,
        2,
        &quick_engine(),
        &coarse_options(),
    )
    .unwrap();
    assert!(result.theta.to_f64() >= whole - 1e-9);
    assert!(
        result.theta.to_f64() - whole < 0.3,
        "improvement {:.3} suspiciously large for a uniform dataset",
        result.theta.to_f64() - whole
    );
}

/// Section 7.4 shape: a k = 2 refinement of the drug-company/sultan mixture
/// recovers the split with perfect recall and reasonable accuracy, and the
/// generic-property-ignoring rule does at least as well.
#[test]
fn semantic_correctness_shape() {
    let dataset = mixed_drug_companies_and_sultans();
    let labels = dataset.positive_labels();
    let mut accuracies = Vec::new();
    for spec in [
        SigmaSpec::Coverage,
        SigmaSpec::CoverageIgnoring(
            strudel_rdf::vocab::GENERIC_PROPERTIES
                .iter()
                .map(|p| (*p).to_string())
                .collect(),
        ),
    ] {
        let result =
            highest_theta(&dataset.view, &spec, 2, &quick_engine(), &coarse_options()).unwrap();
        let refinement = result.refinement.expect("always feasible");
        let outcome = evaluate_binary_split(&dataset.view, &refinement, &labels);
        assert_eq!(
            outcome.true_positives
                + outcome.false_positives
                + outcome.false_negatives
                + outcome.true_negatives,
            67
        );
        assert!(
            outcome.accuracy() > 0.6,
            "accuracy {:.2}",
            outcome.accuracy()
        );
        accuracies.push(outcome.accuracy());
    }
    assert!(accuracies[1] >= accuracies[0] - 1e-9);
}

/// Two of the infeasibility proofs the paper pipeline asks: DBpedia Persons
/// at 1/40 scale has no k = 2 Cov refinement at θ = 3/4 or at θ = 69/100.
/// The tree the default ILP engine explores for each proof is pinned; a
/// change that means to alter the search updates these counts and says why.
///
/// Value precedence lets the first signature open only sort 0, so the
/// search never walks the mirror image (k! = 2) of a refuted subtree, and
/// one T per distinct conjunction leaves fewer rows to propagate per node.
#[test]
fn dbpedia_cov_k2_proofs_keep_their_search_tree() {
    let view = dbpedia_persons_scaled(40);
    let engine = IlpEngine::new();
    for (theta, nodes, propagations, conflicts) in [
        (Ratio::new(3, 4), 36, 1_662, 36),
        (Ratio::new(69, 100), 98, 5_534, 98),
    ] {
        let (outcome, stats) = engine
            .refine_with_hint(&view, &SigmaSpec::Coverage, 2, theta, None)
            .unwrap();
        assert!(matches!(outcome, RefineOutcome::Infeasible), "θ = {theta}");
        assert_eq!(
            (stats.nodes, stats.propagations, stats.conflicts),
            (nodes, propagations, conflicts),
            "θ = {theta}"
        );
    }
}

/// Variant `variant` of `bench_server`'s incremental S±1 family: 14 base
/// signatures over 10 properties, plus one extra signature for variants
/// 1 and up.
fn s_pm_1_view(variant: usize) -> SignatureView {
    let properties: Vec<String> = (0..10).map(|i| format!("http://ex/p{i}")).collect();
    let mut signatures: Vec<(Vec<usize>, usize)> = (0..14)
        .map(|i| {
            let width = 2 + (i % 4);
            let start = (i * 3) % 5;
            ((start..start + width).collect(), 10 + (i * 17) % 60)
        })
        .collect();
    if variant > 0 {
        let width = 2 + (variant % 3);
        let start = (variant * 2) % 5;
        signatures.push(((start..start + width).collect(), 7 + variant % 5));
    }
    SignatureView::from_counts(properties, signatures).unwrap()
}

/// The trees `bench_server`'s solver section reports, cold and
/// warm-started: Cov at k = 3 and θ = 1/2 over variants 1–7, each solved
/// from scratch and then seeded with variant 0's answer. A change that
/// means to alter the search or how hints order it updates these sums and
/// says why.
///
/// Value precedence keeps the cold search out of the mirror images of
/// refuted subtrees, and a hint relabeled in first-use order lands on the
/// labels that precedence opens.
///
/// Seeding must pay on every variant, not only in the sum: each warm solve
/// explores no more nodes than the cold one. Seeded from variant 0, each
/// also returns the cold assignment; that is pinned like the sums, not
/// promised by warm starts in general, since a hint can lead to another
/// refinement that meets θ (see `strudel_server::hints`).
#[test]
fn s_pm_1_family_keeps_its_cold_and_warm_trees() {
    let engine = IlpEngine::new();
    let (k, theta, spec) = (3, Ratio::new(1, 2), SigmaSpec::Coverage);
    let base = s_pm_1_view(0);
    let prior = engine.refine(&base, &spec, k, theta).unwrap();
    let hint = hint_from_refinement(&base, prior.refinement().expect("variant 0 is feasible"));
    let (mut cold_sum, mut warm_sum) = (0, 0);
    for variant in 1..=7 {
        let view = s_pm_1_view(variant);
        let solve = |hint: Option<&RefinementHint>| {
            let (outcome, stats) = engine
                .refine_with_hint(&view, &spec, k, theta, hint)
                .unwrap();
            let refinement = outcome.refinement().cloned();
            let refinement = refinement.unwrap_or_else(|| panic!("variant {variant} is feasible"));
            (refinement.assignment(&view), stats.nodes)
        };
        let (cold, cold_nodes) = solve(None);
        let (warm, warm_nodes) = solve(Some(&hint));
        assert!(
            warm_nodes <= cold_nodes,
            "variant {variant}: {warm_nodes} nodes warm against {cold_nodes} cold"
        );
        assert_eq!(
            warm, cold,
            "variant {variant}: variant 0's hint changed the answer"
        );
        cold_sum += cold_nodes;
        warm_sum += warm_nodes;
    }
    assert_eq!(cold_sum, 1_035, "cold");
    assert_eq!(warm_sum, 108, "warm");
}
