//! Error types for parsing and model construction.

use std::fmt;

/// An error raised while parsing N-Triples or Turtle input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number where the error was detected.
    pub line: usize,
    /// 1-based column (byte offset within the line) where the error was detected.
    pub column: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl ParseError {
    /// Creates a parse error at the given position.
    pub fn new(line: usize, column: usize, message: impl Into<String>) -> Self {
        ParseError {
            line,
            column,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at line {}, column {}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Errors raised when building structural views of a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A view was requested for a sort IRI that has no typed subjects.
    EmptySort(String),
    /// A matrix/view construction was given inconsistent dimensions.
    DimensionMismatch {
        /// What was being constructed.
        context: &'static str,
        /// The expected dimension.
        expected: usize,
        /// The dimension actually supplied.
        actual: usize,
    },
    /// A view's subject counts leave the range in which σ's closed forms
    /// are exact: the subject total `|S|` overflows `usize`, or
    /// `|P| · |S|²` does not fit in `i128`.
    CountOverflow {
        /// The view's number of property columns, `|P|`.
        properties: usize,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::EmptySort(sort) => {
                write!(f, "sort <{sort}> has no subjects declared via rdf:type")
            }
            ModelError::DimensionMismatch {
                context,
                expected,
                actual,
            } => write!(
                f,
                "dimension mismatch while building {context}: expected {expected}, got {actual}"
            ),
            ModelError::CountOverflow { properties } => write!(
                f,
                "subject counts too large: the subject total |S| must fit in usize, \
                 and |P|·|S|² with {properties} properties in i128"
            ),
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_error_display_mentions_position() {
        let err = ParseError::new(3, 14, "unexpected character");
        let text = err.to_string();
        assert!(text.contains("line 3"));
        assert!(text.contains("column 14"));
        assert!(text.contains("unexpected character"));
    }

    #[test]
    fn model_error_display() {
        let err = ModelError::EmptySort("http://example.org/T".into());
        assert!(err.to_string().contains("http://example.org/T"));
        let err = ModelError::DimensionMismatch {
            context: "matrix row",
            expected: 3,
            actual: 5,
        };
        assert!(err.to_string().contains("expected 3"));
        let err = ModelError::CountOverflow { properties: 2 };
        assert!(err.to_string().contains("i128"));
    }
}
