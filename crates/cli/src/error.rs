//! Errors of the command-line tool.

use std::fmt;
use std::io;

use strudel_core::error::{AnnotateError, RefineError};
use strudel_rdf::error::{ModelError, ParseError};
use strudel_rules::error::{EvalError, RuleError};
use strudel_storage::error::StorageError;

/// Anything that can go wrong while running a CLI command.
#[derive(Debug)]
pub enum CliError {
    /// The command line itself is malformed (unknown command, missing or
    /// invalid argument). The message is shown together with the usage text.
    Usage(String),
    /// Reading or writing a file failed.
    Io {
        /// The path involved.
        path: String,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// Starting the refinement server failed. The error names what failed:
    /// the address, the segment, or a malformed trace variable.
    Serve(io::Error),
    /// Parsing an RDF document failed.
    Parse {
        /// The path of the offending document.
        path: String,
        /// The parse error, with line/column information.
        source: ParseError,
    },
    /// Parsing a structuredness rule failed.
    Rule(RuleError),
    /// Building a view of the dataset failed.
    Model(ModelError),
    /// Evaluating a structuredness function failed.
    Eval(EvalError),
    /// The refinement search failed.
    Refine(RefineError),
    /// The storage advisor failed.
    Storage(StorageError),
    /// Writing a refinement back into a graph failed.
    Annotate(AnnotateError),
    /// The dataset (or the requested sort) is empty.
    EmptyDataset(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(message) => write!(f, "{message}"),
            CliError::Io { path, source } => write!(f, "cannot access '{path}': {source}"),
            CliError::Serve(source) => write!(f, "cannot start the server: {source}"),
            CliError::Parse { path, source } => write!(f, "cannot parse '{path}': {source}"),
            CliError::Rule(err) => write!(f, "invalid rule: {err}"),
            CliError::Model(err) => write!(f, "cannot build the dataset view: {err}"),
            CliError::Eval(err) => write!(f, "structuredness evaluation failed: {err}"),
            CliError::Refine(err) => write!(f, "refinement search failed: {err}"),
            CliError::Storage(err) => write!(f, "layout advisor failed: {err}"),
            CliError::Annotate(err) => write!(f, "cannot materialise the refinement: {err}"),
            CliError::EmptyDataset(what) => write!(f, "{what} contains no subjects"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Io { source, .. } => Some(source),
            CliError::Serve(source) => Some(source),
            CliError::Parse { source, .. } => Some(source),
            CliError::Rule(err) => Some(err),
            CliError::Model(err) => Some(err),
            CliError::Eval(err) => Some(err),
            CliError::Refine(err) => Some(err),
            CliError::Storage(err) => Some(err),
            CliError::Annotate(err) => Some(err),
            _ => None,
        }
    }
}

impl From<RuleError> for CliError {
    fn from(err: RuleError) -> Self {
        CliError::Rule(err)
    }
}

impl From<ModelError> for CliError {
    fn from(err: ModelError) -> Self {
        CliError::Model(err)
    }
}

impl From<EvalError> for CliError {
    fn from(err: EvalError) -> Self {
        CliError::Eval(err)
    }
}

impl From<RefineError> for CliError {
    fn from(err: RefineError) -> Self {
        CliError::Refine(err)
    }
}

impl From<StorageError> for CliError {
    fn from(err: StorageError) -> Self {
        CliError::Storage(err)
    }
}

impl From<AnnotateError> for CliError {
    fn from(err: AnnotateError) -> Self {
        CliError::Annotate(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_culprit() {
        let usage = CliError::Usage("unknown command 'foo'".into());
        assert_eq!(usage.to_string(), "unknown command 'foo'");

        let io = CliError::Io {
            path: "/no/such/file.nt".into(),
            source: io::Error::new(io::ErrorKind::NotFound, "not found"),
        };
        assert!(io.to_string().contains("/no/such/file.nt"));

        let empty = CliError::EmptyDataset("sort <http://ex/Nothing>".into());
        assert!(empty.to_string().contains("http://ex/Nothing"));
    }

    #[test]
    fn conversions_preserve_the_source() {
        use std::error::Error;
        let err: CliError = RefineError::ZeroSorts.into();
        assert!(matches!(err, CliError::Refine(_)));
        assert!(err.source().is_some());

        let err: CliError = EvalError::SubjectConstantUnsupported.into();
        assert!(matches!(err, CliError::Eval(_)));
    }
}
