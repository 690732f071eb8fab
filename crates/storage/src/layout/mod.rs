//! Physical layouts for an RDF dataset.
//!
//! Three layouts span the design space the paper's introduction refers to:
//!
//! * [`TripleStoreLayout`] — the "vertical" representation: one three-column
//!   table of `(subject, property, value)` rows with subject and property
//!   indexes. Agnostic to structuredness; entity lookups pay one probe plus
//!   scattered rows.
//! * [`HorizontalLayout`] — the horizontal database of Pan & Heflin \[11\]
//!   referenced in Section 2.1: a single wide table with one row per subject
//!   and one column per property. Entity lookups are one row, but every
//!   missing property is a stored NULL — its fill factor *is* σ_Cov.
//! * [`PropertyTablesLayout`] — one wide table per implicit sort of a sort
//!   refinement (or per signature). The layout the paper's sort refinements
//!   are meant to enable: each table is dense because its sort is highly
//!   structured.
//!
//! All layouts answer the same [`Query`] classes with
//! identical results and report their work through the shared cost model, so
//! the effect of structuredness on physical design can be measured directly.

mod horizontal;
mod property_tables;
mod triple_store;

pub use horizontal::HorizontalLayout;
pub use property_tables::PropertyTablesLayout;
pub use triple_store::TripleStoreLayout;

use crate::cost::{CostModel, QueryCost, StorageStats};
use crate::query::{Query, QueryOutput};

/// Options shared by all layout builders.
#[derive(Clone, Debug, Default)]
pub struct LayoutConfig {
    /// Drop `rdf:type` triples before laying the data out (the paper's
    /// dataset descriptions exclude the type property). Applied uniformly so
    /// query answers stay comparable across layouts.
    pub exclude_rdf_type: bool,
    /// The cost model used for storage and query accounting.
    pub cost_model: CostModel,
}

impl LayoutConfig {
    /// A configuration that excludes `rdf:type`, matching the paper's views.
    pub fn excluding_rdf_type() -> Self {
        LayoutConfig {
            exclude_rdf_type: true,
            cost_model: CostModel::default(),
        }
    }
}

/// A physical layout of an RDF dataset that can answer the workload queries.
pub trait Layout {
    /// A short name used in reports ("triple store", "horizontal", …).
    fn name(&self) -> &str;

    /// The static footprint of the layout.
    fn storage_stats(&self) -> StorageStats;

    /// Answers a query, reporting the work done.
    fn execute(&self, query: &Query) -> (QueryOutput, QueryCost);
}

/// Rounds bytes up to pages with the layout's cost model, charging at least
/// one page whenever any byte was read.
pub(crate) fn pages_for_read(model: &CostModel, bytes: usize) -> usize {
    model.pages_for_bytes(bytes).max(usize::from(bytes > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_config_defaults() {
        let config = LayoutConfig::default();
        assert!(!config.exclude_rdf_type);
        let excluding = LayoutConfig::excluding_rdf_type();
        assert!(excluding.exclude_rdf_type);
        assert_eq!(excluding.cost_model, CostModel::default());
    }

    #[test]
    fn page_rounding_charges_at_least_one_page() {
        let model = CostModel::default();
        assert_eq!(pages_for_read(&model, 0), 0);
        assert_eq!(pages_for_read(&model, 1), 1);
        assert_eq!(pages_for_read(&model, model.page_size + 1), 2);
    }
}
