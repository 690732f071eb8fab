//! The structuredness functions discussed in the paper (Section 2.2 and 3.2),
//! both as rules of the language and as closed-form evaluators.
//!
//! The closed forms are algebraic simplifications of the generic rule
//! semantics, property-tested against the generic evaluator. Each depends
//! on a set of subjects only through a few counts, [`ColumnCounts`]: the
//! subject count `|S|`, each column's subject count `n_p`, and for the
//! dependency rules the subjects that have both of their properties. Every
//! formula is written once, in [`ClosedForm::sigma`], as a function of
//! those counts. The `sigma_*` functions sum a view's counts and call it,
//! and so does the greedy engine, which keeps each candidate sort's counts
//! running and scores a placement, a move or a merge by adding or taking
//! away one signature set's counts (or another sort's), without building a
//! sub-view.
//!
//! The arithmetic is exact: `SignatureView::from_counts` refuses a view
//! whose subject total `|S|` overflows `usize` or whose `|P| · |S|²` does
//! not fit in `i128`, and no total or favorable count of a closed form
//! exceeds `|S|` or `|P| · |S|²`.

use strudel_rdf::signature::{SignatureEntry, SignatureView};

use crate::ast::{Atom, Formula, Rule, Var};
use crate::rational::Ratio;

fn var(name: &str) -> Var {
    Var::new(name)
}

/// The σ_Cov rule: `c = c ↦ val(c) = 1`.
pub fn coverage() -> Rule {
    Rule::named(
        "Cov",
        Formula::atom(Atom::VarEq(var("c"), var("c"))),
        Formula::atom(Atom::ValEqConst(var("c"), true)),
    )
    .expect("the Cov rule is well-formed")
}

/// The modified σ_Cov rule that ignores the given property columns:
/// `c = c ∧ ¬(prop(c) = p₁) ∧ … ↦ val(c) = 1` (used in Section 7.4 to ignore
/// rdf:type, owl:sameAs, rdfs:subClassOf and rdfs:label).
pub fn coverage_ignoring(ignored_properties: &[&str]) -> Rule {
    let mut conjuncts = vec![Formula::atom(Atom::VarEq(var("c"), var("c")))];
    for property in ignored_properties {
        conjuncts.push(Formula::not(Formula::atom(Atom::PropEqConst(
            var("c"),
            (*property).to_owned(),
        ))));
    }
    Rule::named(
        "CovIgnoring",
        Formula::and_all(conjuncts),
        Formula::atom(Atom::ValEqConst(var("c"), true)),
    )
    .expect("the CovIgnoring rule is well-formed")
}

/// The σ_Sim rule:
/// `¬(c1 = c2) ∧ prop(c1) = prop(c2) ∧ val(c1) = 1 ↦ val(c2) = 1`.
pub fn similarity() -> Rule {
    Rule::named(
        "Sim",
        Formula::and_all(vec![
            Formula::not(Formula::atom(Atom::VarEq(var("c1"), var("c2")))),
            Formula::atom(Atom::PropEqProp(var("c1"), var("c2"))),
            Formula::atom(Atom::ValEqConst(var("c1"), true)),
        ]),
        Formula::atom(Atom::ValEqConst(var("c2"), true)),
    )
    .expect("the Sim rule is well-formed")
}

/// The σ_Dep[p1, p2] rule:
/// `subj(c1) = subj(c2) ∧ prop(c1) = p1 ∧ prop(c2) = p2 ∧ val(c1) = 1 ↦ val(c2) = 1`.
pub fn dependency(p1: &str, p2: &str) -> Rule {
    Rule::named(
        format!("Dep[{p1},{p2}]"),
        Formula::and_all(vec![
            Formula::atom(Atom::SubjEqSubj(var("c1"), var("c2"))),
            Formula::atom(Atom::PropEqConst(var("c1"), p1.to_owned())),
            Formula::atom(Atom::PropEqConst(var("c2"), p2.to_owned())),
            Formula::atom(Atom::ValEqConst(var("c1"), true)),
        ]),
        Formula::atom(Atom::ValEqConst(var("c2"), true)),
    )
    .expect("the Dep rule is well-formed")
}

/// The σ_SymDep[p1, p2] rule:
/// `subj(c1) = subj(c2) ∧ prop(c1) = p1 ∧ prop(c2) = p2 ∧ (val(c1) = 1 ∨ val(c2) = 1)
///  ↦ val(c1) = 1 ∧ val(c2) = 1`.
pub fn sym_dependency(p1: &str, p2: &str) -> Rule {
    Rule::named(
        format!("SymDep[{p1},{p2}]"),
        Formula::and_all(vec![
            Formula::atom(Atom::SubjEqSubj(var("c1"), var("c2"))),
            Formula::atom(Atom::PropEqConst(var("c1"), p1.to_owned())),
            Formula::atom(Atom::PropEqConst(var("c2"), p2.to_owned())),
            Formula::or(
                Formula::atom(Atom::ValEqConst(var("c1"), true)),
                Formula::atom(Atom::ValEqConst(var("c2"), true)),
            ),
        ]),
        Formula::and(
            Formula::atom(Atom::ValEqConst(var("c1"), true)),
            Formula::atom(Atom::ValEqConst(var("c2"), true)),
        ),
    )
    .expect("the SymDep rule is well-formed")
}

/// The disjunctive dependency variant of Section 3.2:
/// `subj(c1) = subj(c2) ∧ prop(c1) = p1 ∧ prop(c2) = p2 ↦ val(c1) = 0 ∨ val(c2) = 1`,
/// the probability that a random subject either lacks `p1` or has `p2`.
pub fn dependency_disjunctive(p1: &str, p2: &str) -> Rule {
    Rule::named(
        format!("DepDisj[{p1},{p2}]"),
        Formula::and_all(vec![
            Formula::atom(Atom::SubjEqSubj(var("c1"), var("c2"))),
            Formula::atom(Atom::PropEqConst(var("c1"), p1.to_owned())),
            Formula::atom(Atom::PropEqConst(var("c2"), p2.to_owned())),
        ]),
        Formula::or(
            Formula::atom(Atom::ValEqConst(var("c1"), false)),
            Formula::atom(Atom::ValEqConst(var("c2"), true)),
        ),
    )
    .expect("the DepDisj rule is well-formed")
}

/// The counts σ's closed forms read from a set of subjects: `|S|`, the
/// subjects `n_p` that have each property column, and, when a pairwise
/// rule tracks a pair of columns, the subjects that have both.
///
/// Each count is a sum over the set's signature sets (Section 6.1), so
/// the counts of a union are the sums of the parts' counts, and adding
/// or taking away one signature set updates them in place. Start from
/// [`ClosedForm::empty_counts`], which sets the tracked pair to the
/// form's.
#[derive(Debug, PartialEq, Eq)]
pub struct ColumnCounts {
    subjects: u128,
    columns: Vec<u128>,
    pair: Option<(usize, usize)>,
    both: u128,
}

impl Clone for ColumnCounts {
    fn clone(&self) -> Self {
        ColumnCounts {
            columns: self.columns.clone(),
            ..*self
        }
    }

    /// Copies into the existing column buffer: scoring a change in a
    /// scratch copy allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        self.subjects = source.subjects;
        self.columns.clone_from(&source.columns);
        self.pair = source.pair;
        self.both = source.both;
    }
}

impl ColumnCounts {
    /// Adds the subjects of one signature set.
    pub fn add(&mut self, entry: &SignatureEntry) {
        let count = entry.count as u128;
        self.subjects += count;
        for col in entry.signature.iter() {
            self.columns[col] += count;
        }
        if self.has_pair(entry) {
            self.both += count;
        }
    }

    /// Takes away the subjects of one signature set the counts hold.
    pub fn remove(&mut self, entry: &SignatureEntry) {
        let count = entry.count as u128;
        self.subjects -= count;
        for col in entry.signature.iter() {
            self.columns[col] -= count;
        }
        if self.has_pair(entry) {
            self.both -= count;
        }
    }

    /// Adds the subjects of a disjoint set, given by its counts.
    pub fn merge(&mut self, other: &ColumnCounts) {
        debug_assert_eq!(self.pair, other.pair, "counts of one closed form");
        self.subjects += other.subjects;
        for (mine, theirs) in self.columns.iter_mut().zip(&other.columns) {
            *mine += theirs;
        }
        self.both += other.both;
    }

    /// Empties the counts, keeping their columns and tracked pair.
    pub fn clear(&mut self) {
        self.subjects = 0;
        self.columns.fill(0);
        self.both = 0;
    }

    fn has_pair(&self, entry: &SignatureEntry) -> bool {
        self.pair
            .is_some_and(|(a, b)| entry.signature.contains(a) && entry.signature.contains(b))
    }
}

/// One of the paper's structuredness functions with its properties resolved
/// to a view's columns: σ in closed form over the [`ColumnCounts`] of a set
/// of subjects.
///
/// Each form is an algebraic simplification of its rule's generic semantics
/// (property-tested against [`Evaluator`](crate::eval::Evaluator)). For a
/// view that [`SignatureView::from_counts`] accepts, `|S|` fits in `usize`
/// and `|P| · |S|²` (σ_Sim's largest term) in `i128`, and every total and
/// favorable count below is at most `|S|` or `|P| · |S|²`, so the
/// arithmetic is exact and never overflows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClosedForm {
    /// σ_Cov: `(Σ_p n_p) / (|S| · |P(D)|)`, where `P(D)` counts only the
    /// properties with at least one subject.
    Cov,
    /// σ_Cov over every column but the listed ones.
    CovIgnoring(Vec<usize>),
    /// σ_Sim: for every used property `p`, the total cases are
    /// `n_p · (|S| − 1)` (pick a subject that has `p`, then any *different*
    /// subject) and the favorable cases are `n_p · (n_p − 1)`.
    Sim,
    /// σ_Dep[p1, p2]: the probability that a subject with `p1` also has `p2`.
    Dep(usize, usize),
    /// σ_SymDep[p1, p2]: the probability that a subject with `p1` or `p2`
    /// has both.
    SymDep(usize, usize),
    /// The disjunctive dependency: the probability that a random subject
    /// lacks `p1` or has `p2`.
    DepDisj(usize, usize),
    /// A dependency rule on a property the view lacks: no subject has it,
    /// so there are no total cases and σ = 1 on every set of subjects.
    Trivial,
}

impl ClosedForm {
    /// The counts of the empty set of subjects over `columns` property
    /// columns, tracking the pair of columns this form reads.
    pub fn empty_counts(&self, columns: usize) -> ColumnCounts {
        let pair = match *self {
            ClosedForm::Dep(p1, p2) | ClosedForm::SymDep(p1, p2) | ClosedForm::DepDisj(p1, p2) => {
                Some((p1, p2))
            }
            _ => None,
        };
        ColumnCounts {
            subjects: 0,
            columns: vec![0; columns],
            pair,
            both: 0,
        }
    }

    /// σ of the set of subjects `counts` describes.
    pub fn sigma(&self, counts: &ColumnCounts) -> Ratio {
        let subjects = counts.subjects;
        match self {
            ClosedForm::Cov => coverage_of(counts, &[]),
            ClosedForm::CovIgnoring(ignored) => coverage_of(counts, ignored),
            ClosedForm::Sim => {
                let mut total = 0u128;
                let mut favorable = 0u128;
                for &n_p in counts.columns.iter().filter(|&&n_p| n_p > 0) {
                    total += n_p * (subjects - 1);
                    favorable += n_p * (n_p - 1);
                }
                if total == 0 {
                    return Ratio::ONE;
                }
                Ratio::from_counts(favorable, total)
            }
            &ClosedForm::Dep(p1, p2)
            | &ClosedForm::SymDep(p1, p2)
            | &ClosedForm::DepDisj(p1, p2) => {
                let (with_p1, with_p2) = (counts.columns[p1], counts.columns[p2]);
                // No total cases, exactly as the rule semantics dictates.
                if with_p1 == 0 || with_p2 == 0 {
                    return Ratio::ONE;
                }
                let with_both = counts.both;
                match self {
                    ClosedForm::Dep(..) => Ratio::from_counts(with_both, with_p1),
                    ClosedForm::SymDep(..) => {
                        Ratio::from_counts(with_both, with_p1 + with_p2 - with_both)
                    }
                    // |¬p1 ∨ p2| = |S| − |p1| + |p1 ∧ p2|.
                    _ => Ratio::from_counts(subjects - with_p1 + with_both, subjects),
                }
            }
            ClosedForm::Trivial => Ratio::ONE,
        }
    }

    /// σ of a whole view: the sum of its signature sets' counts, then
    /// [`sigma`](Self::sigma).
    pub fn evaluate(&self, view: &SignatureView) -> Ratio {
        let mut counts = self.empty_counts(view.property_count());
        for entry in view.entries() {
            counts.add(entry);
        }
        self.sigma(&counts)
    }
}

/// σ_Cov over the columns not in `ignored`.
fn coverage_of(counts: &ColumnCounts, ignored: &[usize]) -> Ratio {
    let mut used_properties = 0u128;
    let mut ones = 0u128;
    for (col, &n_p) in counts.columns.iter().enumerate() {
        if n_p > 0 && !ignored.contains(&col) {
            used_properties += 1;
            ones += n_p;
        }
    }
    let total = counts.subjects * used_properties;
    if total == 0 {
        return Ratio::ONE;
    }
    Ratio::from_counts(ones, total)
}

/// σ_Cov of a view ([`ClosedForm::Cov`]).
pub fn sigma_cov(view: &SignatureView) -> Ratio {
    ClosedForm::Cov.evaluate(view)
}

/// σ_Cov of a view ignoring a set of property columns
/// ([`ClosedForm::CovIgnoring`]).
pub fn sigma_cov_ignoring(view: &SignatureView, ignored_columns: &[usize]) -> Ratio {
    ClosedForm::CovIgnoring(ignored_columns.to_vec()).evaluate(view)
}

/// σ_Sim of a view ([`ClosedForm::Sim`]).
pub fn sigma_sim(view: &SignatureView) -> Ratio {
    ClosedForm::Sim.evaluate(view)
}

/// σ_Dep[p1, p2] of a view ([`ClosedForm::Dep`]).
pub fn sigma_dep(view: &SignatureView, p1: usize, p2: usize) -> Ratio {
    ClosedForm::Dep(p1, p2).evaluate(view)
}

/// σ_SymDep[p1, p2] of a view ([`ClosedForm::SymDep`]).
pub fn sigma_sym_dep(view: &SignatureView, p1: usize, p2: usize) -> Ratio {
    ClosedForm::SymDep(p1, p2).evaluate(view)
}

/// The disjunctive dependency of a view ([`ClosedForm::DepDisj`]).
pub fn sigma_dep_disjunctive(view: &SignatureView, p1: usize, p2: usize) -> Ratio {
    ClosedForm::DepDisj(p1, p2).evaluate(view)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Evaluator;

    fn dbpedia_like_view() -> SignatureView {
        // A small view with the flavour of DBpedia Persons: everyone has a
        // name, some have birth data, few have death data.
        SignatureView::from_counts(
            vec![
                "http://ex/name".into(),
                "http://ex/birthDate".into(),
                "http://ex/birthPlace".into(),
                "http://ex/deathDate".into(),
                "http://ex/deathPlace".into(),
            ],
            vec![
                (vec![0], 40),
                (vec![0, 1], 25),
                (vec![0, 1, 2], 20),
                (vec![0, 1, 2, 3], 10),
                (vec![0, 1, 2, 3, 4], 5),
            ],
        )
        .unwrap()
    }

    #[test]
    fn closed_forms_agree_with_generic_evaluator() {
        let view = dbpedia_like_view();
        let evaluator = Evaluator::new(&view);

        assert_eq!(sigma_cov(&view), evaluator.sigma(&coverage()).unwrap());
        assert_eq!(sigma_sim(&view), evaluator.sigma(&similarity()).unwrap());

        let name = view.property_index("http://ex/name").unwrap();
        let birth_date = view.property_index("http://ex/birthDate").unwrap();
        let death_date = view.property_index("http://ex/deathDate").unwrap();
        let death_place = view.property_index("http://ex/deathPlace").unwrap();

        for (a, b) in [
            (death_place, death_date),
            (death_date, death_place),
            (birth_date, name),
            (name, death_date),
        ] {
            let pa = &view.properties()[a];
            let pb = &view.properties()[b];
            assert_eq!(
                sigma_dep(&view, a, b),
                evaluator.sigma(&dependency(pa, pb)).unwrap(),
                "Dep[{pa},{pb}]"
            );
            assert_eq!(
                sigma_sym_dep(&view, a, b),
                evaluator.sigma(&sym_dependency(pa, pb)).unwrap(),
                "SymDep[{pa},{pb}]"
            );
            assert_eq!(
                sigma_dep_disjunctive(&view, a, b),
                evaluator.sigma(&dependency_disjunctive(pa, pb)).unwrap(),
                "DepDisj[{pa},{pb}]"
            );
        }
    }

    #[test]
    fn coverage_ignoring_agrees_with_generic_evaluator() {
        let view = dbpedia_like_view();
        let evaluator = Evaluator::new(&view);
        let ignored = ["http://ex/deathDate", "http://ex/deathPlace"];
        let ignored_cols: Vec<usize> = ignored
            .iter()
            .map(|p| view.property_index(p).unwrap())
            .collect();
        assert_eq!(
            sigma_cov_ignoring(&view, &ignored_cols),
            evaluator.sigma(&coverage_ignoring(&ignored)).unwrap()
        );
    }

    #[test]
    fn dependency_is_directional() {
        let view = dbpedia_like_view();
        let death_place = view.property_index("http://ex/deathPlace").unwrap();
        let name = view.property_index("http://ex/name").unwrap();
        // Everybody with a death place has a name...
        assert_eq!(sigma_dep(&view, death_place, name), Ratio::ONE);
        // ...but few people with a name have a death place.
        assert_eq!(sigma_dep(&view, name, death_place), Ratio::new(5, 100));
    }

    #[test]
    fn dependencies_on_absent_properties_are_trivially_one() {
        let view = SignatureView::from_counts(
            vec!["http://ex/p".into(), "http://ex/q".into()],
            vec![(vec![0], 10)],
        )
        .unwrap();
        // q has no subjects at all.
        assert_eq!(sigma_dep(&view, 1, 0), Ratio::ONE);
        assert_eq!(sigma_dep(&view, 0, 1), Ratio::ONE);
        assert_eq!(sigma_sym_dep(&view, 0, 1), Ratio::ONE);
        assert_eq!(sigma_dep_disjunctive(&view, 0, 1), Ratio::ONE);
    }

    #[test]
    fn sym_dependency_is_symmetric() {
        let view = dbpedia_like_view();
        for a in 0..view.property_count() {
            for b in 0..view.property_count() {
                assert_eq!(sigma_sym_dep(&view, a, b), sigma_sym_dep(&view, b, a));
            }
        }
    }

    #[test]
    fn rule_names_are_set() {
        assert_eq!(coverage().name.as_deref(), Some("Cov"));
        assert_eq!(similarity().name.as_deref(), Some("Sim"));
        assert!(dependency("a", "b")
            .name
            .as_deref()
            .unwrap()
            .starts_with("Dep["));
        assert!(sym_dependency("a", "b")
            .name
            .as_deref()
            .unwrap()
            .starts_with("SymDep["));
    }

    #[test]
    fn empty_view_yields_one() {
        let view = SignatureView::from_counts(vec!["http://ex/p".into()], vec![]).unwrap();
        assert_eq!(sigma_cov(&view), Ratio::ONE);
        assert_eq!(sigma_sim(&view), Ratio::ONE);
    }
}
