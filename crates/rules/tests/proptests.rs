//! Property tests for the rule language and its evaluators, driven by the
//! workspace's seeded generator (`strudel_rdf::rng`); every assertion names
//! the seed and the case index.

use strudel_rdf::rng::StdRng;
use strudel_rdf::signature::SignatureView;
use strudel_rules::prelude::*;

/// Cases per rule/view property.
const CASES: usize = 96;

/// Cases per rational-arithmetic law.
const RATIO_CASES: usize = 256;

/// A small view over four properties: 1–4 signatures of 0–3 property
/// indexes (repeats allowed), each held by 1–4 subjects.
fn random_view(rng: &mut StdRng) -> SignatureView {
    let signatures: Vec<(Vec<usize>, usize)> = (0..rng.gen_range(1..5usize))
        .map(|_| {
            let properties = (0..rng.gen_range(0..4usize))
                .map(|_| rng.gen_range(0..4usize))
                .collect();
            (properties, rng.gen_range(1..5usize))
        })
        .collect();
    let properties = (0..4).map(|i| format!("http://ex/p{i}")).collect();
    SignatureView::from_counts(properties, signatures)
        .expect("indexes are within range by construction")
}

/// The paper's rules (and variants) over property indexes 0–3.
fn random_rule(rng: &mut StdRng) -> Rule {
    let kind = rng.gen_range(0..6usize);
    let pa = format!("http://ex/p{}", rng.gen_range(0..4usize));
    let pb = format!("http://ex/p{}", rng.gen_range(0..4usize));
    match kind {
        0 => coverage(),
        1 => similarity(),
        2 => dependency(&pa, &pb),
        3 => sym_dependency(&pa, &pb),
        4 => dependency_disjunctive(&pa, &pb),
        _ => coverage_ignoring(&[&pa]),
    }
}

/// An integer drawn uniformly from `low..high`.
fn int(rng: &mut StdRng, low: i128, high: i128) -> i128 {
    low + rng.gen_range(0..(high - low) as usize) as i128
}

/// The signature-based evaluator agrees exactly with the naive
/// cell-enumeration oracle on every rule/view pair.
#[test]
fn fast_evaluator_agrees_with_naive() {
    const SEED: u64 = 0xfa57;
    let mut rng = StdRng::seed_from_u64(SEED);
    for case in 0..CASES {
        let view = random_view(&mut rng);
        let rule = random_rule(&mut rng);
        let fast = Evaluator::new(&view).sigma(&rule).unwrap();
        let naive = NaiveEvaluator::new(&view.to_matrix()).sigma(&rule);
        assert_eq!(
            fast, naive,
            "seed {SEED:#x} case {case}: rule {rule} on {view:?}"
        );
    }
}

/// Structuredness values always lie in [0, 1].
#[test]
fn sigma_is_within_unit_interval() {
    const SEED: u64 = 0x0e1;
    let mut rng = StdRng::seed_from_u64(SEED);
    for case in 0..CASES {
        let view = random_view(&mut rng);
        let rule = random_rule(&mut rng);
        let sigma = Evaluator::new(&view).sigma(&rule).unwrap();
        assert!(
            sigma >= Ratio::ZERO && sigma <= Ratio::ONE,
            "seed {SEED:#x} case {case}: σ = {sigma} for rule {rule}"
        );
    }
}

/// Rough-count tables are consistent: per-τ favorable ≤ antecedent, and
/// the totals match the direct counts.
#[test]
fn rough_count_tables_are_consistent() {
    const SEED: u64 = 0x7ab1e;
    let mut rng = StdRng::seed_from_u64(SEED);
    for case in 0..CASES {
        let view = random_view(&mut rng);
        let rule = random_rule(&mut rng);
        let context = format!("seed {SEED:#x} case {case}: rule {rule}");
        let evaluator = Evaluator::new(&view);
        let table = evaluator.rough_counts(&rule).unwrap();
        for entry in &table.entries {
            assert!(entry.favorable_count <= entry.antecedent_count, "{context}");
            assert!(entry.antecedent_count > 0, "{context}");
        }
        assert_eq!(
            table.total_antecedent(),
            evaluator.count(rule.antecedent()).unwrap(),
            "{context}"
        );
        assert_eq!(
            table.total_favorable(),
            evaluator.count(&rule.favorable_formula()).unwrap(),
            "{context}"
        );
    }
}

/// Parsing the display form of a rule gives back the same AST.
#[test]
fn display_parse_round_trip() {
    const SEED: u64 = 0xd15;
    let mut rng = StdRng::seed_from_u64(SEED);
    for case in 0..CASES {
        let rule = random_rule(&mut rng);
        let text = rule.to_string();
        let context = format!("seed {SEED:#x} case {case}: {text}");
        let reparsed = parse_rule(&text).unwrap_or_else(|err| panic!("{context}: {err}"));
        assert_eq!(reparsed.antecedent(), rule.antecedent(), "{context}");
        assert_eq!(reparsed.consequent(), rule.consequent(), "{context}");
    }
}

/// Duplicating every signature set scales counts but leaves Cov and the
/// dependency measures unchanged (they are ratios of subject counts).
#[test]
fn cov_and_dep_are_scale_invariant() {
    const SEED: u64 = 0x5ca1e;
    let mut rng = StdRng::seed_from_u64(SEED);
    for case in 0..CASES {
        let view = random_view(&mut rng);
        let factor = rng.gen_range(2..4usize);
        let context = format!("seed {SEED:#x} case {case}: factor {factor}");
        let scaled = SignatureView::from_counts(
            view.properties().to_vec(),
            view.entries()
                .iter()
                .map(|e| (e.signature.iter().collect(), e.count * factor))
                .collect(),
        )
        .unwrap();
        assert_eq!(sigma_cov(&view), sigma_cov(&scaled), "{context}");
        for a in 0..view.property_count() {
            for b in 0..view.property_count() {
                let measures = |v: &SignatureView| (sigma_dep(v, a, b), sigma_sym_dep(v, a, b));
                assert_eq!(measures(&view), measures(&scaled), "{context}: {a} {b}");
            }
        }
    }
}

#[test]
fn ratio_ordering_matches_f64() {
    const SEED: u64 = 0x0d3;
    let mut rng = StdRng::seed_from_u64(SEED);
    for case in 0..RATIO_CASES {
        let [a, b, c, d] = [(); 4].map(|_| int(&mut rng, 1, 1000));
        let x = Ratio::new(a, b);
        let y = Ratio::new(c, d);
        let expected = (a as f64 / b as f64)
            .partial_cmp(&(c as f64 / d as f64))
            .unwrap();
        // f64 comparisons of small fractions are exact enough for this range
        // unless the two values are equal as rationals.
        if x != y {
            assert_eq!(
                x.cmp(&y),
                expected,
                "seed {SEED:#x} case {case}: {a}/{b} vs {c}/{d}"
            );
        }
    }
}

#[test]
fn ratio_field_laws() {
    const SEED: u64 = 0xf1e1d;
    let mut rng = StdRng::seed_from_u64(SEED);
    for case in 0..RATIO_CASES {
        let x = Ratio::new(int(&mut rng, -50, 50), int(&mut rng, 1, 20));
        let y = Ratio::new(int(&mut rng, -50, 50), int(&mut rng, 1, 20));
        let context = format!("seed {SEED:#x} case {case}: x = {x}, y = {y}");
        assert_eq!(x + y, y + x, "{context}");
        assert_eq!(x * y, y * x, "{context}");
        assert_eq!((x + y) - y, x, "{context}");
        if !y.is_zero() {
            assert_eq!((x / y) * y, x, "{context}");
        }
    }
}
