//! # strudel-rdf
//!
//! RDF data model and structural views for the **strudel** toolkit — a Rust
//! reproduction of *"A Principled Approach to Bridging the Gap between Graph
//! Data and their Schemas"* (Arenas, Díaz, Fokoue, Kementsietsidis, Srinivas,
//! VLDB 2014).
//!
//! This crate provides the substrate every other crate builds on:
//!
//! * [`term`] / [`graph`] — interned RDF terms and an indexed triple store
//!   able to answer the structural queries of Section 2.1 (`S(D)`, `P(D)`,
//!   "s has property p", typed subgraph `D_t`),
//! * [`ntriples`] / [`turtle`] — parsers and a serializer for the formats
//!   real dumps ship in,
//! * [`matrix`] — the property–structure view `M(D)`,
//! * [`signature`] — signatures (Definition 4.1) and the signature view, the
//!   compact representation all refinement algorithms operate on.
//!
//! ## Example
//!
//! ```
//! use strudel_rdf::prelude::*;
//!
//! let doc = r#"
//! @prefix ex:   <http://example.org/> .
//! @prefix foaf: <http://xmlns.com/foaf/0.1/> .
//! ex:alice a foaf:Person ; foaf:name "Alice" ; ex:birthDate "1980-01-01" .
//! ex:bob   a foaf:Person ; foaf:name "Bob" .
//! "#;
//! let graph = parse_turtle(doc).unwrap();
//! let matrix = PropertyStructureView::from_sort(&graph, "http://xmlns.com/foaf/0.1/Person", true).unwrap();
//! assert_eq!(matrix.subject_count(), 2);
//! let signatures = SignatureView::from_matrix(&matrix);
//! assert_eq!(signatures.signature_count(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod error;
mod fxhash;
pub mod graph;
pub mod matrix;
pub mod ntriples;
pub mod rng;
pub mod signature;
pub mod term;
pub mod turtle;
pub mod vocab;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::bitset::BitSet;
    pub use crate::error::{ModelError, ParseError};
    pub use crate::graph::{Graph, Triple};
    pub use crate::matrix::PropertyStructureView;
    pub use crate::ntriples::{parse_ntriples, parse_ntriples_into, write_ntriples};
    pub use crate::signature::{SignatureEntry, SignatureView};
    pub use crate::term::{Dictionary, IriId, Literal, LiteralId, Object};
    pub use crate::turtle::{parse_turtle, parse_turtle_into};
    pub use crate::vocab::RDF_TYPE;
}
