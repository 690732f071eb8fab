//! # strudel-core
//!
//! Sort refinement of RDF graphs via structuredness rules and Integer Linear
//! Programming — the primary contribution of *"A Principled Approach to
//! Bridging the Gap between Graph Data and their Schemas"* (Arenas, Díaz,
//! Fokoue, Kementsietsidis, Srinivas, VLDB 2014), implemented in Rust.
//!
//! Given an RDF graph (via its signature view, see `strudel-rdf`) and a
//! structuredness function (a rule of the language in `strudel-rules`), this
//! crate answers the questions of the paper:
//!
//! * does a partition of the entities into at most `k` implicit sorts exist
//!   in which every sort has structuredness ≥ θ? ([`problem`])
//! * what is the highest θ achievable with `k` sorts, and what is the lowest
//!   `k` achieving a given θ? ([`search`])
//! * how do properties depend on each other? ([`dependency`])
//! * how well does a refinement of a mixed dataset recover its original
//!   sorts? ([`classify`])
//! * which explicit sorts of a graph are worth refining at all? ([`survey`])
//! * how is a discovered refinement written back into the data — as new
//!   `rdf:type` triples or as an entity-preserving split? ([`annotate`])
//!
//! The decision problem is NP-complete ([`reduction`] reproduces the
//! 3-colorability reduction); the production solving path encodes instances
//! as ILPs ([`encode`]) solved by the pure-Rust `strudel-ilp` CP search
//! ([`engine::IlpEngine`]), with an exhaustive oracle and a greedy baseline
//! alongside.
//!
//! ## Quickstart
//!
//! ```
//! use strudel_core::prelude::*;
//! use strudel_rdf::signature::SignatureView;
//!
//! // A small "persons"-like dataset: everyone has a name, some have death data.
//! let view = SignatureView::from_counts(
//!     vec!["http://ex/name".into(), "http://ex/birthDate".into(), "http://ex/deathDate".into()],
//!     vec![(vec![0], 50), (vec![0, 1], 30), (vec![0, 1, 2], 20)],
//! ).unwrap();
//!
//! // Find the best 2-way split under the coverage rule.
//! let engine = IlpEngine::new();
//! let result = highest_theta(
//!     &view, &SigmaSpec::Coverage, 2, &engine, &HighestThetaOptions::default(),
//! ).unwrap();
//! let refinement = result.refinement.unwrap();
//! assert!(refinement.min_sigma() >= SigmaSpec::Coverage.evaluate(&view).unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod annotate;
pub mod classify;
pub mod dependency;
pub mod encode;
pub mod engine;
pub mod error;
pub mod metrics;
pub mod problem;
pub mod reduction;
pub mod refinement;
pub mod report;
pub mod search;
pub mod sigma;
pub mod survey;
pub mod wire;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::annotate::{
        annotate_refinement, refinement_sort_iris, split_by_refinement, AnnotationSummary,
    };
    pub use crate::classify::{evaluate_binary_split, BinaryClassification};
    pub use crate::dependency::{dependency_matrix, sym_dependency_ranking, SymDepEntry};
    pub use crate::encode::{encode, Encoding, EncodingConfig};
    pub use crate::engine::{
        ExhaustiveEngine, GreedyEngine, HybridEngine, IlpEngine, RefineOutcome, RefinementEngine,
    };
    pub use crate::error::{AnnotateError, RefineError, ValidationError};
    pub use crate::metrics::{HistogramSnapshot, LatencyHistogram, StageTimer};
    pub use crate::problem::exists_sort_refinement;
    pub use crate::reduction::{
        coloring_achieves_threshold_one, coloring_partition, reduction_instance, rule_r0, sigma_r0,
        ReductionInstance,
    };
    pub use crate::refinement::{ImplicitSort, SortRefinement};
    pub use crate::report::{format_sigma, render_refinement, render_view, RenderOptions};
    pub use crate::search::{
        highest_theta, lowest_k, HighestThetaOptions, HighestThetaResult, LowestKResult,
        SearchStep, SweepDirection,
    };
    pub use crate::sigma::{parse_spec, SigmaSpec, SpecParseError};
    pub use crate::survey::{render_survey, survey_sorts, SortReport, SurveyOptions};
    pub use crate::wire::{WireHighestTheta, WireLowestK, WireOutcome, WireRefinement, WireSort};
    pub use strudel_rules::prelude::Ratio;
}
