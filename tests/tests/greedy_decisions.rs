//! Pins the greedy engine's decisions on the paper's two datasets: every
//! outcome over a grid of rule families, k and θ is folded into one
//! FNV-1a digest, so a change to how greedy scores its candidates that
//! changes any placement, move, merge or stated σ fails here.

use strudel_core::prelude::*;
use strudel_datagen::dbpedia::properties as db;
use strudel_datagen::wordnet::properties as wn;
use strudel_datagen::{dbpedia_persons_scaled, wordnet_nouns_scaled};

/// The digest of every outcome below, recorded when the engine still
/// scored each candidate on a copied sub-view.
const EXPECTED: u64 = 0xffe0_4a81_b514_0786;

const KS: [usize; 5] = [1, 2, 3, 4, 6];

fn thetas() -> [Ratio; 9] {
    [
        (1, 2),
        (3, 5),
        (7, 10),
        (3, 4),
        (4, 5),
        (17, 20),
        (9, 10),
        (19, 20),
        (1, 1),
    ]
    .map(|(numer, denom)| Ratio::new(numer, denom))
}

/// Cov, Sim, and the Dep/SymDep pairs the `paper-pipeline` benchmark asks.
fn specs(pairs: &[(&str, &str)], symdep_only: &[(&str, &str)]) -> Vec<SigmaSpec> {
    let mut specs = vec![SigmaSpec::Coverage, SigmaSpec::Similarity];
    for &(p1, p2) in pairs {
        specs.push(SigmaSpec::Dependency {
            p1: p1.to_owned(),
            p2: p2.to_owned(),
        });
        specs.push(SigmaSpec::SymDependency {
            p1: p1.to_owned(),
            p2: p2.to_owned(),
        });
    }
    for &(p1, p2) in symdep_only {
        specs.push(SigmaSpec::SymDependency {
            p1: p1.to_owned(),
            p2: p2.to_owned(),
        });
    }
    specs
}

/// FNV-1a over the little-endian bytes of `word`.
fn fold(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn greedy_decisions_on_the_paper_datasets_are_pinned() {
    let datasets = [
        (
            "dbpedia 1/40",
            dbpedia_persons_scaled(40),
            specs(
                &[(db::DEATH_PLACE, db::BIRTH_PLACE)],
                &[(db::DEATH_PLACE, db::DEATH_DATE)],
            ),
        ),
        (
            "wordnet 1/10",
            wordnet_nouns_scaled(10),
            specs(&[(wn::MEMBER_MERONYM_OF, wn::PART_MERONYM_OF)], &[]),
        ),
    ];
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let (mut answered, mut unknown) = (0, 0);
    for (name, view, specs) in &datasets {
        for spec in specs {
            for k in KS {
                for theta in thetas() {
                    match GreedyEngine::new().refine(view, spec, k, theta).unwrap() {
                        RefineOutcome::Refinement(refinement) => {
                            answered += 1;
                            fold(&mut hash, 1);
                            for sort in &refinement.sorts {
                                fold(&mut hash, sort.signatures.len() as u64);
                                for &sig in &sort.signatures {
                                    fold(&mut hash, sig as u64);
                                }
                                fold(&mut hash, sort.sigma.numer() as u64);
                                fold(&mut hash, sort.sigma.denom() as u64);
                            }
                        }
                        RefineOutcome::Unknown => {
                            unknown += 1;
                            fold(&mut hash, 0);
                        }
                        RefineOutcome::Infeasible => {
                            panic!(
                                "{name} {} k {k} θ {theta}: greedy claimed infeasibility",
                                spec.name()
                            )
                        }
                    }
                }
            }
        }
    }
    println!("{answered} answered, {unknown} unknown, digest {hash:#018x}");
    assert!(
        answered > 0 && unknown > 0,
        "the grid must reach both outcomes"
    );
    assert_eq!(
        hash, EXPECTED,
        "greedy's decisions changed ({answered} answered, {unknown} unknown)"
    );
}
