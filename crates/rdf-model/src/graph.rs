//! The in-memory RDF graph: a set of triples plus an interning dictionary and
//! the indexes needed to answer the structural queries the paper relies on
//! (`S(D)`, `P(D)`, "s has property p in D", and the typed subgraph `D_t`).
//!
//! Index layout. Triples live once, in insertion order, in one vector; a
//! hash set of them rejects duplicates. The subject index is a vector
//! indexed by the subject's dense [`IriId`], holding the positions of its
//! triples, so an entity is one indexed load away and [`Graph::entity`]
//! lends its triples without copying them. The predicates are kept as a set
//! (`P(D)`), and `rdf:type` triples feed a `sort → members` map.
//!
//! [`Graph::typed_subgraph`] copies `D_t` into a graph of its own. M(D) does
//! not need the copy: `PropertyStructureView::from_sort` reads the members'
//! rows from this graph. The copy stays for callers that need a whole
//! `Graph` of one sort: the storage advisor (`strudel_storage::advisor`) and
//! the storage layouts it builds.

use std::collections::{BTreeMap, BTreeSet};

use crate::fxhash::FxHashSet;
use crate::term::{Dictionary, IriId, Literal, Object};
use crate::vocab::RDF_TYPE;

/// An RDF triple with interned components.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Triple {
    /// Subject (always an IRI, as in the paper's definition).
    pub subject: IriId,
    /// Predicate / property (always an IRI).
    pub predicate: IriId,
    /// Object: IRI or literal.
    pub object: Object,
}

/// A finite set of RDF triples (the paper's RDF graph `D`) with its dictionary.
///
/// The graph deduplicates triples on insertion and maintains:
/// * a subject index: for each subject, indexed by its dense [`IriId`], the
///   positions of its triples in insertion order, used to enumerate the
///   entity of a subject,
/// * the set of predicates, `P(D)`,
/// * a type index (`sort → subjects`) used to extract the typed subgraph
///   `D_t = {(s,p,o) ∈ D | (s, rdf:type, t) ∈ D}`.
#[derive(Clone, Default, Debug)]
pub struct Graph {
    dictionary: Dictionary,
    triples: Vec<Triple>,
    seen: FxHashSet<Triple>,
    /// Indexed by `IriId`; empty for an IRI that is not a subject.
    by_subject: Vec<Vec<u32>>,
    subject_count: usize,
    predicates: BTreeSet<IriId>,
    by_type: BTreeMap<IriId, BTreeSet<IriId>>,
    rdf_type: Option<IriId>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Shared access to the interning dictionary.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dictionary
    }

    /// Mutable access to the interning dictionary (for pre-interning terms).
    pub fn dictionary_mut(&mut self) -> &mut Dictionary {
        &mut self.dictionary
    }

    /// Number of distinct triples in the graph.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// Whether the graph contains no triples.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Iterates over all triples in insertion order.
    pub fn triples(&self) -> impl Iterator<Item = &Triple> {
        self.triples.iter()
    }

    /// Interns an IRI in this graph's dictionary.
    pub fn intern_iri(&mut self, iri: &str) -> IriId {
        self.dictionary.intern_iri(iri)
    }

    /// Returns the string form of an interned IRI.
    pub fn iri(&self, id: IriId) -> &str {
        self.dictionary.iri(id)
    }

    /// Inserts a triple given interned components. Returns `true` if the
    /// triple was not already present.
    pub fn insert(&mut self, subject: IriId, predicate: IriId, object: Object) -> bool {
        let triple = Triple {
            subject,
            predicate,
            object,
        };
        if !self.seen.insert(triple) {
            return false;
        }
        let pos = u32::try_from(self.triples.len()).expect("more than u32::MAX triples");
        self.triples.push(triple);
        if subject.index() >= self.by_subject.len() {
            self.by_subject.resize_with(subject.index() + 1, Vec::new);
        }
        let positions = &mut self.by_subject[subject.index()];
        if positions.is_empty() {
            self.subject_count += 1;
        }
        positions.push(pos);
        self.predicates.insert(predicate);

        // `rdf:type` is recognised the first time it is used as a predicate,
        // not interned up front, so the dictionary holds the graph's own
        // IRIs in the order the triples introduced them.
        let is_type = match self.rdf_type {
            Some(rdf_type) => predicate == rdf_type,
            None if self.dictionary.iri(predicate) == RDF_TYPE => {
                self.rdf_type = Some(predicate);
                true
            }
            None => false,
        };
        if is_type {
            if let Object::Iri(sort) = object {
                self.by_type.entry(sort).or_default().insert(subject);
            }
        }
        true
    }

    /// Convenience: inserts a triple with an IRI object, interning all strings.
    pub fn insert_iri_triple(&mut self, subject: &str, predicate: &str, object: &str) -> bool {
        let s = self.dictionary.intern_iri(subject);
        let p = self.dictionary.intern_iri(predicate);
        let o = self.dictionary.intern_iri(object);
        self.insert(s, p, Object::Iri(o))
    }

    /// Convenience: inserts a triple with a literal object, interning all strings.
    pub fn insert_literal_triple(
        &mut self,
        subject: &str,
        predicate: &str,
        literal: Literal,
    ) -> bool {
        let s = self.dictionary.intern_iri(subject);
        let p = self.dictionary.intern_iri(predicate);
        let o = self.dictionary.intern_literal(literal);
        self.insert(s, p, Object::Literal(o))
    }

    /// Convenience: declares `subject rdf:type sort`.
    pub fn insert_type(&mut self, subject: &str, sort: &str) -> bool {
        self.insert_iri_triple(subject, RDF_TYPE, sort)
    }

    /// The set of subjects `S(D)` in id order.
    pub fn subjects(&self) -> Vec<IriId> {
        self.by_subject
            .iter()
            .enumerate()
            .filter(|(_, positions)| !positions.is_empty())
            .map(|(index, _)| IriId(index as u32))
            .collect()
    }

    /// The set of properties `P(D)` in id order.
    pub fn properties(&self) -> Vec<IriId> {
        self.predicates.iter().copied().collect()
    }

    /// Number of distinct subjects.
    pub fn subject_count(&self) -> usize {
        self.subject_count
    }

    /// Number of distinct properties.
    pub fn property_count(&self) -> usize {
        self.predicates.len()
    }

    /// Returns whether `s` has property `p` in this graph (the paper's
    /// "s has property p in D": ∃o. (s,p,o) ∈ D).
    pub fn has_property(&self, subject: IriId, property: IriId) -> bool {
        self.entity(subject)
            .any(|triple| triple.predicate == property)
    }

    /// All triples whose subject is `subject` (the *entity* of the subject),
    /// in insertion order.
    pub fn entity(&self, subject: IriId) -> impl Iterator<Item = &Triple> + '_ {
        self.by_subject
            .get(subject.index())
            .into_iter()
            .flatten()
            .map(|&pos| &self.triples[pos as usize])
    }

    /// The sorts (IRIs `t`) for which some `(s, rdf:type, t)` triple exists.
    pub fn sorts(&self) -> Vec<IriId> {
        self.by_type.keys().copied().collect()
    }

    /// The subjects explicitly declared to be of sort `sort`.
    pub fn subjects_of_sort(&self, sort: IriId) -> Vec<IriId> {
        self.by_type
            .get(&sort)
            .map(|set| set.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Looks up a sort by IRI string and returns its declared subjects.
    pub fn subjects_of_sort_named(&self, sort: &str) -> Vec<IriId> {
        match self.dictionary.iri_id(sort) {
            Some(id) => self.subjects_of_sort(id),
            None => Vec::new(),
        }
    }

    /// Extracts the typed subgraph `D_t`: all triples whose subject is
    /// declared (via `rdf:type`) to be of sort `sort`. The returned graph
    /// shares no storage with `self` but re-interns the same strings, so ids
    /// are *not* comparable across the two graphs. It visits the members in
    /// id order and each member's triples in insertion order, so the copy's
    /// ids follow the order in which that walk first meets each IRI.
    pub fn typed_subgraph(&self, sort: &str) -> Graph {
        let mut result = Graph::new();
        let Some(sort_id) = self.dictionary.iri_id(sort) else {
            return result;
        };
        let Some(members) = self.by_type.get(&sort_id) else {
            return result;
        };
        for &subject in members {
            for triple in self.entity(subject) {
                let s = result
                    .dictionary
                    .intern_iri(self.dictionary.iri(triple.subject));
                let p = result
                    .dictionary
                    .intern_iri(self.dictionary.iri(triple.predicate));
                let o = match triple.object {
                    Object::Iri(id) => {
                        Object::Iri(result.dictionary.intern_iri(self.dictionary.iri(id)))
                    }
                    Object::Literal(id) => Object::Literal(
                        result
                            .dictionary
                            .intern_literal(self.dictionary.literal(id).clone()),
                    ),
                };
                result.insert(s, p, o);
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn person_graph() -> Graph {
        let mut g = Graph::new();
        g.insert_type("http://ex/alice", "http://ex/Person");
        g.insert_literal_triple(
            "http://ex/alice",
            "http://ex/name",
            Literal::simple("Alice"),
        );
        g.insert_literal_triple(
            "http://ex/alice",
            "http://ex/birthDate",
            Literal::simple("1980-01-01"),
        );
        g.insert_type("http://ex/bob", "http://ex/Person");
        g.insert_literal_triple("http://ex/bob", "http://ex/name", Literal::simple("Bob"));
        g.insert_iri_triple("http://ex/acme", "http://ex/industry", "http://ex/Pharma");
        g.insert_type("http://ex/acme", "http://ex/Company");
        g
    }

    #[test]
    fn duplicate_triples_are_ignored() {
        let mut g = Graph::new();
        assert!(g.insert_iri_triple("http://s", "http://p", "http://o"));
        assert!(!g.insert_iri_triple("http://s", "http://p", "http://o"));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn subjects_and_properties_are_reported() {
        let g = person_graph();
        assert_eq!(g.subject_count(), 3);
        // rdf:type, name, birthDate, industry.
        assert_eq!(g.property_count(), 4);
        let alice = g.dictionary().iri_id("http://ex/alice").unwrap();
        let name = g.dictionary().iri_id("http://ex/name").unwrap();
        let birth = g.dictionary().iri_id("http://ex/birthDate").unwrap();
        assert!(g.has_property(alice, name));
        assert!(g.has_property(alice, birth));
        let bob = g.dictionary().iri_id("http://ex/bob").unwrap();
        assert!(!g.has_property(bob, birth));
    }

    #[test]
    fn typed_subgraph_keeps_whole_entities() {
        let g = person_graph();
        let persons = g.typed_subgraph("http://ex/Person");
        assert_eq!(persons.subject_count(), 2);
        // Alice's entity: type, name, birthDate; Bob's: type, name.
        assert_eq!(persons.len(), 5);
        let companies = g.typed_subgraph("http://ex/Company");
        assert_eq!(companies.subject_count(), 1);
        assert_eq!(companies.len(), 2);
        let nothing = g.typed_subgraph("http://ex/DoesNotExist");
        assert!(nothing.is_empty());
    }

    #[test]
    fn sorts_and_membership() {
        let g = person_graph();
        let sorts: Vec<&str> = g.sorts().iter().map(|&id| g.iri(id)).collect();
        assert!(sorts.contains(&"http://ex/Person"));
        assert!(sorts.contains(&"http://ex/Company"));
        assert_eq!(g.subjects_of_sort_named("http://ex/Person").len(), 2);
        assert_eq!(g.subjects_of_sort_named("http://ex/Nope").len(), 0);
    }

    #[test]
    fn entity_returns_all_triples_of_subject() {
        let g = person_graph();
        let alice = g.dictionary().iri_id("http://ex/alice").unwrap();
        assert_eq!(g.entity(alice).count(), 3);
    }
}
