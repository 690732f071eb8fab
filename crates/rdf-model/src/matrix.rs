//! The property–structure view `M(D)` of an RDF graph (Section 2.1).
//!
//! `M(D)` is an `|S(D)| × |P(D)|` 0/1 matrix: `M[s][p] = 1` iff subject `s`
//! has property `p` in `D`. It deliberately discards object values — the
//! structuredness framework only looks at which properties are *set*.
//!
//! [`PropertyStructureView::from_sort`] builds the M(D) of a sort in one walk
//! over the parent graph, without copying the typed subgraph. Its columns are
//! the predicates of the members' triples (minus `rdf:type` when asked),
//! sorted by IRI. Its rows follow one rule: walk the members in id order,
//! and each member's triples in insertion order; a member takes the next row
//! the first time the walk meets it, as a subject, a predicate or an IRI
//! object. That is the order in which [`Graph::typed_subgraph`] interns the
//! members, and so the order [`PropertyStructureView::from_graph`] gives the
//! copy's rows; it is not the members' id order. The order matters beyond
//! the matrix: it decides each signature's example subjects, the order of
//! an annotated graph's type triples and the row order of property tables.

use std::collections::{BTreeMap, BTreeSet};

use crate::bitset::BitSet;
use crate::error::ModelError;
use crate::fxhash::FxHashMap;
use crate::graph::Graph;
use crate::term::{IriId, Object};
use crate::vocab::RDF_TYPE;

/// The property–structure view of an RDF graph: a dense 0/1 matrix with
/// labelled rows (subjects) and columns (properties).
///
/// Rows are stored as [`BitSet`]s over the property columns, so a 790 703 ×
/// 8 matrix (DBpedia Persons) occupies roughly one machine word per subject.
#[derive(Clone, Debug)]
pub struct PropertyStructureView {
    properties: Vec<String>,
    property_index: BTreeMap<String, usize>,
    subjects: Vec<String>,
    rows: Vec<BitSet>,
}

impl PropertyStructureView {
    /// Builds the view from a graph: one row per subject, in id order.
    ///
    /// When `exclude_rdf_type` is true the `rdf:type` property is dropped
    /// from the columns, matching the paper's dataset descriptions
    /// ("8 properties, excluding the type property").
    pub fn from_graph(graph: &Graph, exclude_rdf_type: bool) -> Self {
        Self::from_subjects(
            graph,
            graph.subjects(),
            graph.properties(),
            exclude_rdf_type,
        )
    }

    /// Builds the view of the typed subgraph `D_t` for the given sort IRI,
    /// straight from `graph`: the rows are the sort's members and the
    /// columns the predicates of their triples.
    ///
    /// Rows come in the order [`Graph::typed_subgraph`] followed by
    /// [`Self::from_graph`] gives them (see the module docs), so both paths
    /// build the same matrix.
    pub fn from_sort(
        graph: &Graph,
        sort: &str,
        exclude_rdf_type: bool,
    ) -> Result<Self, ModelError> {
        let members = graph.subjects_of_sort_named(sort);
        if members.is_empty() {
            return Err(ModelError::EmptySort(sort.to_owned()));
        }
        let mut met = vec![false; members.len()];
        let mut subjects = Vec::with_capacity(members.len());
        let mut meet = |iri: IriId| {
            if let Ok(at) = members.binary_search(&iri) {
                if !met[at] {
                    met[at] = true;
                    subjects.push(iri);
                }
            }
        };
        let mut predicates = BTreeSet::new();
        for &member in &members {
            meet(member);
            for triple in graph.entity(member) {
                if predicates.insert(triple.predicate) {
                    meet(triple.predicate);
                }
                if let Object::Iri(object) = triple.object {
                    meet(object);
                }
            }
        }
        Ok(Self::from_subjects(
            graph,
            subjects,
            predicates,
            exclude_rdf_type,
        ))
    }

    /// The row builder both constructors share: one row per subject, in the
    /// given order, over the given predicates sorted by IRI.
    fn from_subjects(
        graph: &Graph,
        subjects: Vec<IriId>,
        predicates: impl IntoIterator<Item = IriId>,
        exclude_rdf_type: bool,
    ) -> Self {
        let mut columns: Vec<(&str, IriId)> = predicates
            .into_iter()
            .map(|p| (graph.iri(p), p))
            .filter(|&(iri, _)| !(exclude_rdf_type && iri == RDF_TYPE))
            .collect();
        columns.sort_unstable();
        let column_of: FxHashMap<IriId, usize> = columns
            .iter()
            .enumerate()
            .map(|(col, &(_, p))| (p, col))
            .collect();
        // Subjects that only appear with excluded properties (e.g. only an
        // rdf:type triple) still count as subjects of the graph; their row
        // is all-zero, as in the paper's matrix definition restricted to the
        // retained columns.
        let rows = subjects
            .iter()
            .map(|&subject| {
                let mut row = BitSet::new(columns.len());
                for triple in graph.entity(subject) {
                    if let Some(&col) = column_of.get(&triple.predicate) {
                        row.insert(col);
                    }
                }
                row
            })
            .collect();
        let properties: Vec<String> = columns.iter().map(|&(iri, _)| iri.to_owned()).collect();
        let property_index = properties
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i))
            .collect();
        PropertyStructureView {
            properties,
            property_index,
            subjects: subjects.iter().map(|&s| graph.iri(s).to_owned()).collect(),
            rows,
        }
    }

    /// Builds a view directly from labelled rows. Intended for synthetic data
    /// and tests. All rows must have capacity equal to `properties.len()`.
    pub fn from_rows(
        properties: Vec<String>,
        subjects: Vec<String>,
        rows: Vec<BitSet>,
    ) -> Result<Self, ModelError> {
        if subjects.len() != rows.len() {
            return Err(ModelError::DimensionMismatch {
                context: "property-structure view rows",
                expected: subjects.len(),
                actual: rows.len(),
            });
        }
        for row in &rows {
            if row.capacity() != properties.len() {
                return Err(ModelError::DimensionMismatch {
                    context: "property-structure view row capacity",
                    expected: properties.len(),
                    actual: row.capacity(),
                });
            }
        }
        let property_index = properties
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i))
            .collect();
        Ok(PropertyStructureView {
            properties,
            property_index,
            subjects,
            rows,
        })
    }

    /// Number of subjects (rows), `|S(D)|`.
    pub fn subject_count(&self) -> usize {
        self.subjects.len()
    }

    /// Number of properties (columns), `|P(D)|`.
    pub fn property_count(&self) -> usize {
        self.properties.len()
    }

    /// The property labels in column order.
    pub fn properties(&self) -> &[String] {
        &self.properties
    }

    /// The subject labels in row order.
    pub fn subjects(&self) -> &[String] {
        &self.subjects
    }

    /// The column index of a property label, if present.
    pub fn property_index(&self, property: &str) -> Option<usize> {
        self.property_index.get(property).copied()
    }

    /// The matrix cell `M[row][col]`.
    pub fn value(&self, row: usize, col: usize) -> bool {
        self.rows[row].contains(col)
    }

    /// The row bit set of a subject.
    pub fn row(&self, row: usize) -> &BitSet {
        &self.rows[row]
    }

    /// Total number of 1-cells in the matrix (`Σ_{s,p} M[s][p]`).
    pub fn ones(&self) -> usize {
        self.rows.iter().map(BitSet::len).sum()
    }

    /// Number of subjects that have the property in column `col`.
    pub fn column_count(&self, col: usize) -> usize {
        self.rows.iter().filter(|row| row.contains(col)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Literal;

    fn example_graph() -> Graph {
        let mut g = Graph::new();
        for (subject, props) in [
            ("http://ex/s1", vec!["name", "birthDate", "deathDate"]),
            ("http://ex/s2", vec!["name", "birthDate"]),
            ("http://ex/s3", vec!["name"]),
        ] {
            g.insert_type(subject, "http://ex/Person");
            for p in props {
                g.insert_literal_triple(subject, &format!("http://ex/{p}"), Literal::simple("v"));
            }
        }
        g
    }

    #[test]
    fn from_graph_excluding_type() {
        let g = example_graph();
        let view = PropertyStructureView::from_graph(&g, true);
        assert_eq!(view.subject_count(), 3);
        assert_eq!(view.property_count(), 3);
        assert!(!view.properties().iter().any(|p| p == RDF_TYPE));
        assert_eq!(view.ones(), 6);
    }

    #[test]
    fn from_graph_including_type() {
        let g = example_graph();
        let view = PropertyStructureView::from_graph(&g, false);
        assert_eq!(view.property_count(), 4);
        assert_eq!(view.ones(), 9);
    }

    #[test]
    fn from_sort_errors_on_unknown_sort() {
        let g = example_graph();
        let err = PropertyStructureView::from_sort(&g, "http://ex/Nope", true).unwrap_err();
        assert!(matches!(err, ModelError::EmptySort(_)));
    }

    #[test]
    fn cell_values_match_graph() {
        let g = example_graph();
        let view = PropertyStructureView::from_graph(&g, true);
        let name = view.property_index("http://ex/name").unwrap();
        let death = view.property_index("http://ex/deathDate").unwrap();
        let s1 = view
            .subjects()
            .iter()
            .position(|s| s == "http://ex/s1")
            .unwrap();
        let s3 = view
            .subjects()
            .iter()
            .position(|s| s == "http://ex/s3")
            .unwrap();
        assert!(view.value(s1, name));
        assert!(view.value(s1, death));
        assert!(view.value(s3, name));
        assert!(!view.value(s3, death));
        assert_eq!(view.column_count(name), 3);
        assert_eq!(view.column_count(death), 1);
    }

    #[test]
    fn from_rows_validates_dimensions() {
        let err = PropertyStructureView::from_rows(
            vec!["p".into()],
            vec!["s".into()],
            vec![BitSet::new(2)],
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::DimensionMismatch { .. }));

        let err = PropertyStructureView::from_rows(
            vec!["p".into()],
            vec!["s".into(), "t".into()],
            vec![BitSet::new(1)],
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::DimensionMismatch { .. }));

        let view = PropertyStructureView::from_rows(
            vec!["p".into(), "q".into()],
            vec!["s".into()],
            vec![BitSet::from_indexes(2, &[1])],
        )
        .unwrap();
        assert!(view.value(0, 1));
        assert!(!view.value(0, 0));
    }
}
