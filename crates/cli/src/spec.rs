//! Parsing command-line rule and engine specifications.

use std::time::Duration;

use strudel_core::sigma::{parse_spec, SigmaSpec, SpecParseError};
use strudel_server::prelude::EngineKind;

use crate::error::CliError;

/// Parses a `--rule` argument into a structuredness function.
///
/// Accepted forms:
///
/// * `cov` / `coverage` — σ_Cov,
/// * `sim` / `similarity` — σ_Sim,
/// * `cov-ignoring:<p1>,<p2>,…` — σ_Cov ignoring the listed property IRIs,
/// * `dep:<p1>,<p2>` — σ_Dep[p1, p2],
/// * `symdep:<p1>,<p2>` — σ_SymDep[p1, p2],
/// * `depdisj:<p1>,<p2>` — the disjunctive dependency variant,
/// * anything containing `->` — a rule of the language, parsed verbatim.
pub fn parse_sigma_spec(text: &str) -> Result<SigmaSpec, CliError> {
    parse_spec(text).map_err(|err| match err {
        SpecParseError::Rule(rule_err) => CliError::Rule(rule_err),
        other => CliError::Usage(other.to_string()),
    })
}

/// Parses a `--time-limit` argument (seconds, fractional allowed) into a
/// duration, rejecting negative, NaN, and infinite values with a usage
/// error instead of letting `Duration::from_secs_f64` panic.
pub fn parse_time_limit(parsed: &crate::args::ParsedArgs) -> Result<Option<Duration>, CliError> {
    match parsed.option_parsed::<f64>("time-limit")? {
        None => Ok(None),
        Some(seconds) if seconds.is_finite() && seconds >= 0.0 => {
            Ok(Some(Duration::from_secs_f64(seconds)))
        }
        Some(seconds) => Err(CliError::Usage(format!(
            "invalid value '{seconds}' for --time-limit: must be a non-negative number of seconds"
        ))),
    }
}

/// Parses an `--engine` argument into the engine family the server names
/// the same way (hybrid when absent). [`EngineKind::build`] builds it.
pub fn parse_engine(parsed: &crate::args::ParsedArgs) -> Result<EngineKind, CliError> {
    match parsed.option("engine") {
        Some(name) => EngineKind::parse(name).map_err(|err| CliError::Usage(err.message)),
        None => Ok(EngineKind::Hybrid),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_rule_names_parse() {
        assert_eq!(parse_sigma_spec("cov").unwrap(), SigmaSpec::Coverage);
        assert_eq!(parse_sigma_spec("Coverage").unwrap(), SigmaSpec::Coverage);
        assert_eq!(parse_sigma_spec(" sim ").unwrap(), SigmaSpec::Similarity);
        assert_eq!(
            parse_sigma_spec("dep:http://ex/a,http://ex/b").unwrap(),
            SigmaSpec::Dependency {
                p1: "http://ex/a".into(),
                p2: "http://ex/b".into()
            }
        );
        assert_eq!(
            parse_sigma_spec("SymDep:http://ex/a, http://ex/b").unwrap(),
            SigmaSpec::SymDependency {
                p1: "http://ex/a".into(),
                p2: "http://ex/b".into()
            }
        );
        assert!(matches!(
            parse_sigma_spec("cov-ignoring:http://ex/type").unwrap(),
            SigmaSpec::CoverageIgnoring(props) if props.len() == 1
        ));
        assert!(matches!(
            parse_sigma_spec("depdisj:http://ex/a,http://ex/b").unwrap(),
            SigmaSpec::DependencyDisjunctive { .. }
        ));
    }

    #[test]
    fn language_rules_parse_as_custom() {
        let spec = parse_sigma_spec("c = c -> val(c) = 1").unwrap();
        assert!(matches!(spec, SigmaSpec::Custom(_)));
    }

    #[test]
    fn bad_rules_are_rejected_with_guidance() {
        let err = parse_sigma_spec("covfefe").unwrap_err();
        assert!(err.to_string().contains("expected cov"));
        let err = parse_sigma_spec("dep:onlyone").unwrap_err();
        assert!(err.to_string().contains("at least 2"));
        let err = parse_sigma_spec("val(c = 1 ->").unwrap_err();
        assert!(matches!(err, CliError::Rule(_)));
    }
}
