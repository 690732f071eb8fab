//! Error types for the ILP solver.

use std::fmt;

/// Errors raised while building or solving a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IlpError {
    /// A constraint references a variable not belonging to the model being
    /// solved.
    UnknownVariable {
        /// The out-of-range variable index.
        index: usize,
        /// Number of variables in the model.
        num_vars: usize,
    },
}

impl fmt::Display for IlpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IlpError::UnknownVariable { index, num_vars } => {
                write!(
                    f,
                    "variable index {index} out of range (model has {num_vars} variables)"
                )
            }
        }
    }
}

impl std::error::Error for IlpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_key_numbers() {
        let err = IlpError::UnknownVariable {
            index: 7,
            num_vars: 3,
        };
        assert!(err.to_string().contains('7'));
        assert!(err.to_string().contains('3'));
    }
}
