//! Property test of the running column counts the greedy engine scores
//! with: random sequences of the updates it makes (place a signature set,
//! move one, merge two sorts, and score a change in a scratch copy) on
//! random views, where σ from each sort's counts must equal the generic
//! evaluator's σ of the rule on the equivalent sub-view, the empty sort
//! included.
//!
//! Driven by the workspace's seeded generator (`strudel_rdf::rng`); every
//! assertion names the seed and the case index.

use strudel_core::sigma::{ResolvedSpec, SigmaSpec};
use strudel_rdf::rng::StdRng;
use strudel_rdf::signature::SignatureView;
use strudel_rules::builtin::{ClosedForm, ColumnCounts};
use strudel_rules::eval::Evaluator;
use strudel_rules::prelude::Ratio;

const CASES: usize = 96;
/// Updates per case.
const STEPS: usize = 24;
/// Sorts per case.
const SORTS: usize = 3;

/// A property IRI the views never have.
const ABSENT: &str = "http://ex/absent";

/// A view of 1–6 signatures over four properties: each draws 0–3 property
/// indexes (repeats allowed) and 1–7 subjects.
fn random_view(rng: &mut StdRng) -> SignatureView {
    let signatures: Vec<(Vec<usize>, usize)> = (0..rng.gen_range(1..7usize))
        .map(|_| {
            let properties = (0..rng.gen_range(0..4usize))
                .map(|_| rng.gen_range(0..4usize))
                .collect();
            (properties, rng.gen_range(1..8usize))
        })
        .collect();
    SignatureView::from_counts(
        (0..4).map(|i| format!("http://ex/p{i}")).collect(),
        signatures,
    )
    .expect("indexes are within range by construction")
}

/// One of the four properties, or (one time in five) a property the view
/// lacks.
fn random_property(rng: &mut StdRng) -> String {
    match rng.gen_range(0..5usize) {
        4 => ABSENT.to_owned(),
        i => format!("http://ex/p{i}"),
    }
}

/// Every builtin family. The pairwise rules draw p2 = p1 one time in four.
fn random_spec(rng: &mut StdRng) -> SigmaSpec {
    let p1 = random_property(rng);
    let p2 = if rng.gen_range(0..4usize) == 0 {
        p1.clone()
    } else {
        random_property(rng)
    };
    match rng.gen_range(0..6usize) {
        0 => SigmaSpec::Coverage,
        1 => SigmaSpec::CoverageIgnoring(vec![p1, p2]),
        2 => SigmaSpec::Similarity,
        3 => SigmaSpec::Dependency { p1, p2 },
        4 => SigmaSpec::SymDependency { p1, p2 },
        _ => SigmaSpec::DependencyDisjunctive { p1, p2 },
    }
}

/// σ of the rule on the sub-view of `members`, by the generic evaluator.
fn oracle(view: &SignatureView, spec: &SigmaSpec, members: &[usize]) -> Ratio {
    Evaluator::new(&view.subset(members))
        .sigma(&spec.rule())
        .expect("builtin rules evaluate")
}

#[test]
fn running_counts_agree_with_the_generic_evaluator() {
    const SEED: u64 = 0xc0_4e75;
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut absent = 0;
    for case in 0..CASES {
        let view = random_view(&mut rng);
        let spec = random_spec(&mut rng);
        let context = format!("seed {SEED:#x} case {case}: {}", spec.spec_string());
        absent += usize::from(spec.spec_string().contains(ABSENT));
        let form: ClosedForm = match spec.resolve(&view) {
            ResolvedSpec::Closed(form) => form,
            ResolvedSpec::Custom(_) => panic!("{context}: a builtin has a closed form"),
        };
        let entries = view.entries();
        let empty = form.empty_counts(view.property_count());
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); SORTS];
        let mut counts: Vec<ColumnCounts> = vec![empty.clone(); SORTS];
        let mut scratch = empty;
        let mut unplaced: Vec<usize> = (0..view.signature_count()).collect();

        for step in 0..STEPS {
            let at = format!("{context}, step {step}");
            let sort = rng.gen_range(0..SORTS);
            let other = (sort + rng.gen_range(1..SORTS)) % SORTS;
            match rng.gen_range(0..4usize) {
                // Place an unplaced signature set.
                0 if !unplaced.is_empty() => {
                    let sig = unplaced.swap_remove(rng.gen_range(0..unplaced.len()));
                    members[sort].push(sig);
                    counts[sort].add(&entries[sig]);
                }
                // Move a member to another sort.
                1 if !members[sort].is_empty() => {
                    let pick = rng.gen_range(0..members[sort].len());
                    let sig = members[sort].swap_remove(pick);
                    counts[sort].remove(&entries[sig]);
                    members[other].push(sig);
                    counts[other].add(&entries[sig]);
                }
                // Merge another sort into this one, as consolidation does.
                2 => {
                    let moved = std::mem::take(&mut members[other]);
                    members[sort].extend(moved);
                    scratch.clone_from(&counts[other]);
                    counts[sort].merge(&scratch);
                    counts[other].clear();
                }
                // Score a change in the scratch copy, leaving the sort as is.
                _ => {
                    scratch.clone_from(&counts[sort]);
                    let mut changed = members[sort].clone();
                    if let Some(&sig) = unplaced.first() {
                        scratch.add(&entries[sig]);
                        changed.push(sig);
                    } else if let Some(sig) = changed.pop() {
                        scratch.remove(&entries[sig]);
                    }
                    assert_eq!(
                        form.sigma(&scratch),
                        oracle(&view, &spec, &changed),
                        "{at}: scored change to {changed:?}"
                    );
                }
            }
            for (sort, (members, counts)) in members.iter().zip(&counts).enumerate() {
                assert_eq!(
                    form.sigma(counts),
                    oracle(&view, &spec, members),
                    "{at}: sort {sort} of {members:?}"
                );
            }
        }
        // The whole view, through the spec's own evaluation.
        assert_eq!(
            spec.evaluate(&view).unwrap(),
            oracle(
                &view,
                &spec,
                &(0..view.signature_count()).collect::<Vec<_>>()
            ),
            "{context}: whole view"
        );
    }
    assert!(
        absent > 0,
        "seed {SEED:#x}: no spec names an absent property"
    );
}
