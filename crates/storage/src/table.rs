//! The wide ("horizontal") relational table used by the property-table and
//! horizontal layouts.
//!
//! A [`WideTable`] has one row per subject and one column per property. A
//! cell holds zero or more [`Value`]s — zero models the NULL of the paper's
//! horizontal database \[11\], more than one models RDF's multi-valued
//! properties. The table keeps a subject index so point lookups do not scan.

use std::collections::BTreeMap;

use crate::cost::{CostModel, StorageStats};
use crate::value::Value;

/// A relational table with one row per subject and one column per property.
#[derive(Clone, Debug)]
pub struct WideTable {
    name: String,
    columns: Vec<String>,
    column_index: BTreeMap<String, usize>,
    subjects: Vec<String>,
    subject_index: BTreeMap<String, usize>,
    /// `cells[row][column]` — possibly empty (NULL), possibly multi-valued.
    cells: Vec<Vec<Vec<Value>>>,
}

impl WideTable {
    /// Creates an empty table with the given column labels. Duplicate column
    /// labels are collapsed (the first occurrence wins).
    pub fn new(name: impl Into<String>, columns: Vec<String>) -> Self {
        let mut unique = Vec::new();
        let mut column_index = BTreeMap::new();
        for column in columns {
            if !column_index.contains_key(&column) {
                column_index.insert(column.clone(), unique.len());
                unique.push(column);
            }
        }
        WideTable {
            name: name.into(),
            columns: unique,
            column_index,
            subjects: Vec::new(),
            subject_index: BTreeMap::new(),
            cells: Vec::new(),
        }
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Column labels in column order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Number of columns.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.subjects.len()
    }

    /// The column index of a property label, if the table has that column.
    pub fn column_of(&self, property: &str) -> Option<usize> {
        self.column_index.get(property).copied()
    }

    /// The subjects in row order.
    pub fn subjects(&self) -> &[String] {
        &self.subjects
    }

    /// The row index of a subject, if present (an index probe, not a scan).
    pub fn row_of(&self, subject: &str) -> Option<usize> {
        self.subject_index.get(subject).copied()
    }

    /// Returns the row index for the subject, inserting an all-NULL row if
    /// the subject is new.
    pub fn upsert_row(&mut self, subject: &str) -> usize {
        if let Some(&row) = self.subject_index.get(subject) {
            return row;
        }
        let row = self.subjects.len();
        self.subjects.push(subject.to_owned());
        self.subject_index.insert(subject.to_owned(), row);
        self.cells.push(vec![Vec::new(); self.columns.len()]);
        row
    }

    /// Appends a value to the cell `(row, column)`.
    ///
    /// # Panics
    /// Panics if the row or column is out of bounds; rows come from
    /// [`WideTable::upsert_row`] and columns from [`WideTable::column_of`],
    /// so a panic indicates a layout-construction bug.
    pub fn push_value(&mut self, row: usize, column: usize, value: Value) {
        self.cells[row][column].push(value);
    }

    /// The values stored in cell `(row, column)` (empty slice = NULL).
    pub fn cell(&self, row: usize, column: usize) -> &[Value] {
        &self.cells[row][column]
    }

    /// Iterates over `(row index, subject)` pairs.
    pub fn rows(&self) -> impl Iterator<Item = (usize, &str)> {
        self.subjects
            .iter()
            .enumerate()
            .map(|(idx, subject)| (idx, subject.as_str()))
    }

    /// Number of non-NULL cells in the table.
    pub fn occupied_cells(&self) -> usize {
        self.cells
            .iter()
            .map(|row| row.iter().filter(|cell| !cell.is_empty()).count())
            .sum()
    }

    /// Number of NULL cells in the table.
    pub fn null_cells(&self) -> usize {
        self.row_count() * self.column_count() - self.occupied_cells()
    }

    /// Bytes occupied by one row under the cost model.
    pub fn row_bytes(&self, row: usize, model: &CostModel) -> usize {
        let mut bytes = model.row_overhead + self.subjects[row].len();
        for cell in &self.cells[row] {
            if cell.is_empty() {
                bytes += model.null_cell_bytes;
            } else {
                bytes += model.cell_overhead;
                bytes += cell.iter().map(Value::payload_bytes).sum::<usize>();
            }
        }
        bytes
    }

    /// Total bytes occupied by the table under the cost model.
    pub fn bytes(&self, model: &CostModel) -> usize {
        model.table_overhead
            + (0..self.row_count())
                .map(|row| self.row_bytes(row, model))
                .sum::<usize>()
    }

    /// The static footprint of the table under the cost model.
    pub fn storage_stats(&self, model: &CostModel) -> StorageStats {
        let bytes = self.bytes(model);
        StorageStats {
            tables: 1,
            rows: self.row_count(),
            occupied_cells: self.occupied_cells(),
            null_cells: self.null_cells(),
            bytes,
            pages: model.pages_for_bytes(bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> WideTable {
        let mut table = WideTable::new(
            "persons",
            vec!["name".into(), "birthDate".into(), "deathDate".into()],
        );
        let ada = table.upsert_row("ada");
        table.push_value(ada, 0, Value::Literal("\"Ada\"".into()));
        table.push_value(ada, 1, Value::Literal("\"1815\"".into()));
        table.push_value(ada, 2, Value::Literal("\"1852\"".into()));
        let tim = table.upsert_row("tim");
        table.push_value(tim, 0, Value::Literal("\"Tim\"".into()));
        table
    }

    #[test]
    fn upsert_is_idempotent_and_indexed() {
        let mut table = sample_table();
        assert_eq!(table.row_count(), 2);
        assert_eq!(table.upsert_row("ada"), 0);
        assert_eq!(table.row_count(), 2);
        assert_eq!(table.row_of("tim"), Some(1));
        assert_eq!(table.row_of("nobody"), None);
        assert_eq!(table.column_of("birthDate"), Some(1));
        assert_eq!(table.column_of("missing"), None);
    }

    #[test]
    fn duplicate_columns_are_collapsed() {
        let table = WideTable::new("t", vec!["p".into(), "q".into(), "p".into()]);
        assert_eq!(table.column_count(), 2);
        assert_eq!(table.columns(), &["p".to_owned(), "q".to_owned()]);
    }

    #[test]
    fn null_accounting_matches_cells() {
        let table = sample_table();
        // ada fills 3 cells, tim fills 1 of 3.
        assert_eq!(table.occupied_cells(), 4);
        assert_eq!(table.null_cells(), 2);
        let stats = table.storage_stats(&CostModel::default());
        assert_eq!(stats.rows, 2);
        assert_eq!(stats.fill_factor(), Some(4.0 / 6.0));
        assert_eq!(stats.pages, 1);
    }

    #[test]
    fn multi_valued_cells_count_once_but_weigh_more() {
        let mut table = WideTable::new("t", vec!["p".into()]);
        let row = table.upsert_row("s");
        table.push_value(row, 0, Value::Literal("\"a\"".into()));
        let single_bytes = table.row_bytes(0, &CostModel::default());
        table.push_value(row, 0, Value::Literal("\"b\"".into()));
        assert_eq!(table.occupied_cells(), 1);
        assert_eq!(table.null_cells(), 0);
        assert!(table.row_bytes(0, &CostModel::default()) > single_bytes);
        assert_eq!(table.cell(0, 0).len(), 2);
    }

    #[test]
    fn row_iteration_preserves_insertion_order() {
        let table = sample_table();
        let order: Vec<&str> = table.rows().map(|(_, subject)| subject).collect();
        assert_eq!(order, vec!["ada", "tim"]);
    }
}
