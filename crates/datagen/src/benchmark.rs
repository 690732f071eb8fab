//! Benchmark-like dataset generators (Section 2.2.1's motivating claim).
//!
//! Duan et al. \[5\] — the paper's starting point — showed that the synthetic
//! datasets used by RDF benchmarks are "very relational-like and have high
//! fitness (values of σ_Cov close to 1) with respect to their sort", whereas
//! real datasets sit well below 0.5. To make that claim reproducible without
//! shipping the benchmarks themselves, this module generates sorts with the
//! *shape* of the popular benchmark schemas: a fixed set of mandatory
//! properties plus a couple of near-mandatory optional ones.
//!
//! The generated views are deliberately boring — that is the point. Compare
//! them with [`crate::dbpedia_persons`] / [`crate::wordnet_nouns`] to
//! reproduce the benchmark-vs-reality gap.

use std::collections::BTreeMap;

use strudel_rdf::rng::StdRng;
use strudel_rdf::signature::SignatureView;

/// Which benchmark's schema shape to imitate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BenchmarkProfile {
    /// LUBM-like university data (students, professors, publications).
    Lubm,
    /// SP2Bench-like DBLP data (articles, inproceedings).
    Sp2Bench,
    /// BSBM-like e-commerce data (products, offers, reviews).
    Bsbm,
}

impl BenchmarkProfile {
    /// All profiles, for sweeps.
    pub const ALL: [BenchmarkProfile; 3] = [
        BenchmarkProfile::Lubm,
        BenchmarkProfile::Sp2Bench,
        BenchmarkProfile::Bsbm,
    ];

    /// A short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            BenchmarkProfile::Lubm => "LUBM-like",
            BenchmarkProfile::Sp2Bench => "SP2Bench-like",
            BenchmarkProfile::Bsbm => "BSBM-like",
        }
    }

    /// The sort blueprints of the profile: `(sort name, mandatory properties,
    /// (optional property, presence probability))`.
    fn blueprints(self) -> Vec<SortBlueprint> {
        let ns = match self {
            BenchmarkProfile::Lubm => "http://lubm.example.org/univ#",
            BenchmarkProfile::Sp2Bench => "http://sp2b.example.org/dblp#",
            BenchmarkProfile::Bsbm => "http://bsbm.example.org/shop#",
        };
        let blueprint = |sort: &str, mandatory: &[&str], optional: &[(&str, f64)]| SortBlueprint {
            sort: format!("{ns}{sort}"),
            mandatory: mandatory.iter().map(|p| format!("{ns}{p}")).collect(),
            optional: optional
                .iter()
                .map(|(p, prob)| (format!("{ns}{p}"), *prob))
                .collect(),
        };
        match self {
            BenchmarkProfile::Lubm => vec![
                blueprint(
                    "GraduateStudent",
                    &[
                        "name",
                        "emailAddress",
                        "telephone",
                        "memberOf",
                        "undergraduateDegreeFrom",
                    ],
                    &[("advisor", 0.95), ("takesCourse", 0.98)],
                ),
                blueprint(
                    "FullProfessor",
                    &[
                        "name",
                        "emailAddress",
                        "telephone",
                        "worksFor",
                        "researchInterest",
                    ],
                    &[("doctoralDegreeFrom", 0.97), ("headOf", 0.9)],
                ),
                blueprint(
                    "Publication",
                    &["name", "publicationAuthor"],
                    &[("publicationDate", 0.96)],
                ),
            ],
            BenchmarkProfile::Sp2Bench => vec![
                blueprint(
                    "Article",
                    &["title", "creator", "journal", "pages", "year"],
                    &[("abstract", 0.92), ("seeAlso", 0.9)],
                ),
                blueprint(
                    "Inproceedings",
                    &["title", "creator", "booktitle", "pages", "year"],
                    &[("editor", 0.93)],
                ),
            ],
            BenchmarkProfile::Bsbm => vec![
                blueprint(
                    "Product",
                    &[
                        "label",
                        "comment",
                        "producer",
                        "productFeature",
                        "propertyNumeric1",
                    ],
                    &[("propertyTextual4", 0.94), ("propertyNumeric4", 0.94)],
                ),
                blueprint(
                    "Offer",
                    &[
                        "product",
                        "vendor",
                        "price",
                        "validFrom",
                        "validTo",
                        "deliveryDays",
                    ],
                    &[],
                ),
                blueprint(
                    "Review",
                    &["reviewFor", "reviewer", "title", "text", "reviewDate"],
                    &[("rating1", 0.9), ("rating2", 0.85)],
                ),
            ],
        }
    }
}

/// One generated benchmark sort.
#[derive(Clone, Debug)]
pub struct BenchmarkSort {
    /// The sort IRI.
    pub sort: String,
    /// The benchmark profile it came from.
    pub profile: BenchmarkProfile,
    /// The signature view of the sort.
    pub view: SignatureView,
}

struct SortBlueprint {
    sort: String,
    mandatory: Vec<String>,
    optional: Vec<(String, f64)>,
}

/// Generates every sort of a benchmark profile with `subjects_per_sort`
/// subjects each. Deterministic for a given `(profile, subjects, seed)`.
pub fn benchmark_sorts(
    profile: BenchmarkProfile,
    subjects_per_sort: usize,
    seed: u64,
) -> Vec<BenchmarkSort> {
    assert!(subjects_per_sort > 0, "a sort needs at least one subject");
    let mut rng = StdRng::seed_from_u64(seed);
    profile
        .blueprints()
        .into_iter()
        .map(|blueprint| {
            let properties: Vec<String> = blueprint
                .mandatory
                .iter()
                .chain(blueprint.optional.iter().map(|(p, _)| p))
                .cloned()
                .collect();
            let mandatory_count = blueprint.mandatory.len();
            let mut counts: BTreeMap<Vec<usize>, usize> = BTreeMap::new();
            for _ in 0..subjects_per_sort {
                let mut pattern: Vec<usize> = (0..mandatory_count).collect();
                for (offset, (_, probability)) in blueprint.optional.iter().enumerate() {
                    if rng.gen_bool(*probability) {
                        pattern.push(mandatory_count + offset);
                    }
                }
                *counts.entry(pattern).or_insert(0) += 1;
            }
            let view = SignatureView::from_counts(properties, counts.into_iter().collect())
                .expect("generated property indexes are in range");
            BenchmarkSort {
                sort: blueprint.sort,
                profile,
                view,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use strudel_rules::prelude::*;

    #[test]
    fn benchmark_sorts_are_highly_structured() {
        for profile in BenchmarkProfile::ALL {
            for sort in benchmark_sorts(profile, 2_000, 1) {
                let cov = sigma_cov(&sort.view);
                let sim = sigma_sim(&sort.view);
                assert!(
                    cov >= Ratio::new(9, 10),
                    "{} / {}: σ_Cov = {} should be ≥ 0.9",
                    profile.name(),
                    sort.sort,
                    cov
                );
                assert!(sim >= cov, "σ_Sim is never below σ_Cov on these shapes");
            }
        }
    }

    #[test]
    fn subjects_and_signatures_match_the_blueprint() {
        let sorts = benchmark_sorts(BenchmarkProfile::Lubm, 500, 7);
        assert_eq!(sorts.len(), 3);
        for sort in &sorts {
            assert_eq!(sort.view.subject_count(), 500);
            // With o optional properties there are at most 2^o signatures.
            assert!(sort.view.signature_count() <= 4);
            assert_eq!(sort.profile, BenchmarkProfile::Lubm);
        }
        // A sort without optional properties is perfectly structured.
        let offers = benchmark_sorts(BenchmarkProfile::Bsbm, 100, 7)
            .into_iter()
            .find(|s| s.sort.ends_with("Offer"))
            .unwrap();
        assert_eq!(offers.view.signature_count(), 1);
        assert_eq!(sigma_cov(&offers.view), Ratio::ONE);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = benchmark_sorts(BenchmarkProfile::Sp2Bench, 300, 11);
        let b = benchmark_sorts(BenchmarkProfile::Sp2Bench, 300, 11);
        assert_eq!(a.len(), b.len());
        for (left, right) in a.iter().zip(&b) {
            assert_eq!(left.view.ones(), right.view.ones());
            assert_eq!(left.view.signature_count(), right.view.signature_count());
        }
    }

    #[test]
    #[should_panic(expected = "at least one subject")]
    fn zero_subjects_panics() {
        benchmark_sorts(BenchmarkProfile::Lubm, 0, 1);
    }
}
