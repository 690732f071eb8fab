//! A uniform handle on structuredness functions.
//!
//! The refinement engines need two things from a structuredness function:
//! its *rule* (for the ILP encoding's rough-count constants) and a way to
//! evaluate it on arbitrary sets of signatures (for reporting and for the
//! exhaustive/greedy engines). [`SigmaSpec`] bundles both, using the paper's
//! closed forms when available and the generic signature-based evaluator for
//! custom rules. [`SigmaSpec::resolve`] turns a builtin's property IRIs into
//! one view's columns once, so scoring many sets of that view's signatures
//! compares no strings and, for a closed form, builds no sub-view.

use std::fmt;

use strudel_rdf::signature::SignatureView;
use strudel_rules::builtin::{self, ClosedForm};
use strudel_rules::error::{EvalError, RuleError};
use strudel_rules::eval::Evaluator;
use strudel_rules::parser::parse_rule;
use strudel_rules::prelude::{Ratio, Rule};

/// A structuredness function the refinement machinery can work with.
#[derive(Clone, Debug, PartialEq)]
pub enum SigmaSpec {
    /// σ_Cov (Section 2.2.1).
    Coverage,
    /// σ_Cov restricted to ignore the given property IRIs (Section 7.4).
    CoverageIgnoring(Vec<String>),
    /// σ_Sim (Section 2.2.2).
    Similarity,
    /// σ_Dep[p1, p2] (Section 2.2.3).
    Dependency {
        /// The antecedent property IRI.
        p1: String,
        /// The consequent property IRI.
        p2: String,
    },
    /// σ_SymDep[p1, p2] (Section 2.2.3).
    SymDependency {
        /// The first property IRI.
        p1: String,
        /// The second property IRI.
        p2: String,
    },
    /// The disjunctive dependency variant (end of Section 3.2).
    DependencyDisjunctive {
        /// The antecedent property IRI.
        p1: String,
        /// The consequent property IRI.
        p2: String,
    },
    /// Any rule of the language, evaluated generically.
    Custom(Rule),
}

impl SigmaSpec {
    /// A short human-readable name (used in reports and benchmarks).
    pub fn name(&self) -> String {
        match self {
            SigmaSpec::Coverage => "Cov".to_owned(),
            SigmaSpec::CoverageIgnoring(props) => format!("Cov\\{{{}}}", props.len()),
            SigmaSpec::Similarity => "Sim".to_owned(),
            SigmaSpec::Dependency { p1, p2 } => {
                format!("Dep[{},{}]", short(p1), short(p2))
            }
            SigmaSpec::SymDependency { p1, p2 } => {
                format!("SymDep[{},{}]", short(p1), short(p2))
            }
            SigmaSpec::DependencyDisjunctive { p1, p2 } => {
                format!("DepDisj[{},{}]", short(p1), short(p2))
            }
            SigmaSpec::Custom(rule) => rule.name.clone().unwrap_or_else(|| "custom".to_owned()),
        }
    }

    /// The rule of the language defining this structuredness function.
    pub fn rule(&self) -> Rule {
        match self {
            SigmaSpec::Coverage => builtin::coverage(),
            SigmaSpec::CoverageIgnoring(props) => {
                let refs: Vec<&str> = props.iter().map(String::as_str).collect();
                builtin::coverage_ignoring(&refs)
            }
            SigmaSpec::Similarity => builtin::similarity(),
            SigmaSpec::Dependency { p1, p2 } => builtin::dependency(p1, p2),
            SigmaSpec::SymDependency { p1, p2 } => builtin::sym_dependency(p1, p2),
            SigmaSpec::DependencyDisjunctive { p1, p2 } => builtin::dependency_disjunctive(p1, p2),
            SigmaSpec::Custom(rule) => rule.clone(),
        }
    }

    /// Resolves the spec against `view`'s columns, once per view: a
    /// builtin's closed form with its property IRIs turned into column
    /// indexes, or a custom rule, which has no closed form.
    pub fn resolve(&self, view: &SignatureView) -> ResolvedSpec<'_> {
        let pair = |p1: &str, p2: &str, form: fn(usize, usize) -> ClosedForm| {
            match (view.property_index(p1), view.property_index(p2)) {
                (Some(a), Some(b)) => form(a, b),
                // A property absent from the view has no subjects: no total
                // cases, σ = 1 by definition.
                _ => ClosedForm::Trivial,
            }
        };
        ResolvedSpec::Closed(match self {
            SigmaSpec::Coverage => ClosedForm::Cov,
            SigmaSpec::CoverageIgnoring(props) => ClosedForm::CovIgnoring(
                props
                    .iter()
                    .filter_map(|p| view.property_index(p))
                    .collect(),
            ),
            SigmaSpec::Similarity => ClosedForm::Sim,
            SigmaSpec::Dependency { p1, p2 } => pair(p1, p2, ClosedForm::Dep),
            SigmaSpec::SymDependency { p1, p2 } => pair(p1, p2, ClosedForm::SymDep),
            SigmaSpec::DependencyDisjunctive { p1, p2 } => pair(p1, p2, ClosedForm::DepDisj),
            SigmaSpec::Custom(rule) => return ResolvedSpec::Custom(rule),
        })
    }

    /// Evaluates the structuredness of a (sub-)view, using a closed form when
    /// one exists and the generic evaluator otherwise.
    pub fn evaluate(&self, view: &SignatureView) -> Result<Ratio, EvalError> {
        match self.resolve(view) {
            ResolvedSpec::Closed(form) => Ok(form.evaluate(view)),
            ResolvedSpec::Custom(rule) => Evaluator::new(view).sigma(rule),
        }
    }

    /// The canonical textual form of the spec, round-tripping through
    /// [`parse_spec`]: `cov`, `sim`, `cov-ignoring:<p…>`, `dep:<p1>,<p2>`,
    /// `symdep:<p1>,<p2>`, `depdisj:<p1>,<p2>`, or the rule text for custom
    /// rules. Used verbatim on the wire by `strudel-server` and as part of
    /// its cache key, so equal strings must mean equal functions.
    pub fn spec_string(&self) -> String {
        match self {
            SigmaSpec::Coverage => "cov".to_owned(),
            SigmaSpec::CoverageIgnoring(props) => {
                format!("cov-ignoring:{}", props.join(","))
            }
            SigmaSpec::Similarity => "sim".to_owned(),
            SigmaSpec::Dependency { p1, p2 } => format!("dep:{p1},{p2}"),
            SigmaSpec::SymDependency { p1, p2 } => format!("symdep:{p1},{p2}"),
            SigmaSpec::DependencyDisjunctive { p1, p2 } => {
                format!("depdisj:{p1},{p2}")
            }
            SigmaSpec::Custom(rule) => rule.to_string(),
        }
    }
}

/// A [`SigmaSpec`] resolved against one view ([`SigmaSpec::resolve`]).
#[derive(Clone, Debug)]
pub enum ResolvedSpec<'s> {
    /// A builtin: its closed form over the view's columns.
    Closed(ClosedForm),
    /// A custom rule, evaluated generically on sub-views.
    Custom(&'s Rule),
}

impl ResolvedSpec<'_> {
    /// σ of the implicit sort made of the signature sets `members` of
    /// `view` (the view the spec was resolved against): a closed form sums
    /// their counts, and a custom rule evaluates their sub-view.
    pub fn sigma_of(&self, view: &SignatureView, members: &[usize]) -> Result<Ratio, EvalError> {
        match self {
            ResolvedSpec::Closed(form) => {
                let mut counts = form.empty_counts(view.property_count());
                for &sig in members {
                    counts.add(&view.entries()[sig]);
                }
                Ok(form.sigma(&counts))
            }
            ResolvedSpec::Custom(rule) => Evaluator::new(&view.subset(members)).sigma(rule),
        }
    }
}

fn short(iri: &str) -> &str {
    iri.rsplit(['/', '#']).next().unwrap_or(iri)
}

/// Why a spec string could not be parsed.
#[derive(Debug)]
pub enum SpecParseError {
    /// The text names no builtin and is not a rule of the language.
    Unknown(String),
    /// The text looked like a rule of the language but failed to parse.
    Rule(RuleError),
    /// A builtin form was missing required property IRIs.
    MissingProperties {
        /// The builtin form (e.g. `dep`).
        form: &'static str,
        /// How many comma-separated property IRIs the form needs.
        expected: usize,
    },
}

impl fmt::Display for SpecParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecParseError::Unknown(text) => write!(
                f,
                "unknown rule '{text}'; expected cov, sim, cov-ignoring:<props>, \
                 dep:<p1>,<p2>, symdep:<p1>,<p2>, depdisj:<p1>,<p2>, or a rule of \
                 the language (containing '->')"
            ),
            SpecParseError::Rule(err) => write!(f, "{err}"),
            SpecParseError::MissingProperties { form, expected } => write!(
                f,
                "'{form}:' needs at least {expected} comma-separated property IRI(s)"
            ),
        }
    }
}

impl std::error::Error for SpecParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpecParseError::Rule(err) => Some(err),
            _ => None,
        }
    }
}

/// Parses a spec string into a structuredness function.
///
/// Accepted forms (the same grammar the CLI's `--rule` flag and the server
/// protocol's `rule` field use):
///
/// * `cov` / `coverage` — σ_Cov,
/// * `sim` / `similarity` — σ_Sim,
/// * `cov-ignoring:<p1>,<p2>,…` — σ_Cov ignoring the listed property IRIs,
/// * `dep:<p1>,<p2>` — σ_Dep[p1, p2],
/// * `symdep:<p1>,<p2>` — σ_SymDep[p1, p2],
/// * `depdisj:<p1>,<p2>` — the disjunctive dependency variant,
/// * anything containing `->` — a rule of the language, parsed verbatim.
///
/// [`SigmaSpec::spec_string`] produces canonical inputs for this function.
pub fn parse_spec(text: &str) -> Result<SigmaSpec, SpecParseError> {
    let trimmed = text.trim();
    match trimmed.to_ascii_lowercase().as_str() {
        "cov" | "coverage" => return Ok(SigmaSpec::Coverage),
        "sim" | "similarity" => return Ok(SigmaSpec::Similarity),
        _ => {}
    }
    if let Some(rest) = strip_prefix_ci(trimmed, "cov-ignoring:") {
        let properties = split_properties(rest, "cov-ignoring", 1)?;
        return Ok(SigmaSpec::CoverageIgnoring(properties));
    }
    if let Some(rest) = strip_prefix_ci(trimmed, "dep:") {
        let properties = split_properties(rest, "dep", 2)?;
        return Ok(SigmaSpec::Dependency {
            p1: properties[0].clone(),
            p2: properties[1].clone(),
        });
    }
    if let Some(rest) = strip_prefix_ci(trimmed, "symdep:") {
        let properties = split_properties(rest, "symdep", 2)?;
        return Ok(SigmaSpec::SymDependency {
            p1: properties[0].clone(),
            p2: properties[1].clone(),
        });
    }
    if let Some(rest) = strip_prefix_ci(trimmed, "depdisj:") {
        let properties = split_properties(rest, "depdisj", 2)?;
        return Ok(SigmaSpec::DependencyDisjunctive {
            p1: properties[0].clone(),
            p2: properties[1].clone(),
        });
    }
    if trimmed.contains("->") || trimmed.contains('↦') {
        return parse_rule(trimmed)
            .map(SigmaSpec::Custom)
            .map_err(SpecParseError::Rule);
    }
    Err(SpecParseError::Unknown(trimmed.to_owned()))
}

fn strip_prefix_ci<'a>(text: &'a str, prefix: &str) -> Option<&'a str> {
    // Compare as bytes: slicing the str at prefix.len() would panic when a
    // multi-byte character straddles that offset (e.g. "dep\u{e9}:…"). The
    // prefixes are pure ASCII, so a byte match also proves the offset is a
    // character boundary.
    debug_assert!(prefix.is_ascii());
    if text.len() >= prefix.len()
        && text.as_bytes()[..prefix.len()].eq_ignore_ascii_case(prefix.as_bytes())
    {
        Some(&text[prefix.len()..])
    } else {
        None
    }
}

fn split_properties(
    rest: &str,
    form: &'static str,
    expected: usize,
) -> Result<Vec<String>, SpecParseError> {
    let properties: Vec<String> = rest
        .split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(str::to_owned)
        .collect();
    if properties.len() < expected {
        return Err(SpecParseError::MissingProperties { form, expected });
    }
    Ok(properties)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_view() -> SignatureView {
        SignatureView::from_counts(
            vec![
                "http://ex/name".into(),
                "http://ex/birthDate".into(),
                "http://ex/deathDate".into(),
            ],
            vec![(vec![0], 6), (vec![0, 1], 3), (vec![0, 1, 2], 1)],
        )
        .unwrap()
    }

    #[test]
    fn closed_forms_and_generic_evaluator_agree() {
        let view = sample_view();
        let specs = vec![
            SigmaSpec::Coverage,
            SigmaSpec::Similarity,
            SigmaSpec::CoverageIgnoring(vec!["http://ex/deathDate".into()]),
            SigmaSpec::Dependency {
                p1: "http://ex/birthDate".into(),
                p2: "http://ex/deathDate".into(),
            },
            SigmaSpec::SymDependency {
                p1: "http://ex/birthDate".into(),
                p2: "http://ex/deathDate".into(),
            },
            SigmaSpec::DependencyDisjunctive {
                p1: "http://ex/birthDate".into(),
                p2: "http://ex/deathDate".into(),
            },
        ];
        for spec in specs {
            let fast = spec.evaluate(&view).unwrap();
            let generic = Evaluator::new(&view).sigma(&spec.rule()).unwrap();
            assert_eq!(
                fast,
                generic,
                "spec {} disagrees with its rule",
                spec.name()
            );
        }
    }

    #[test]
    fn custom_rules_are_evaluated_generically() {
        let view = sample_view();
        let rule = strudel_rules::parser::parse_rule("c = c -> val(c) = 1").unwrap();
        let spec = SigmaSpec::Custom(rule);
        assert_eq!(
            spec.evaluate(&view).unwrap(),
            SigmaSpec::Coverage.evaluate(&view).unwrap()
        );
        assert_eq!(spec.name(), "custom");
    }

    #[test]
    fn dependency_on_missing_property_is_one() {
        let view = sample_view();
        let spec = SigmaSpec::Dependency {
            p1: "http://ex/notThere".into(),
            p2: "http://ex/name".into(),
        };
        assert_eq!(spec.evaluate(&view).unwrap(), Ratio::ONE);
    }

    #[test]
    fn spec_strings_round_trip_through_parse_spec() {
        let specs = vec![
            SigmaSpec::Coverage,
            SigmaSpec::Similarity,
            SigmaSpec::CoverageIgnoring(vec!["http://ex/type".into(), "http://ex/id".into()]),
            SigmaSpec::Dependency {
                p1: "http://ex/a".into(),
                p2: "http://ex/b".into(),
            },
            SigmaSpec::SymDependency {
                p1: "http://ex/a".into(),
                p2: "http://ex/b".into(),
            },
            SigmaSpec::DependencyDisjunctive {
                p1: "http://ex/a".into(),
                p2: "http://ex/b".into(),
            },
        ];
        for spec in specs {
            let text = spec.spec_string();
            let reparsed = parse_spec(&text)
                .unwrap_or_else(|err| panic!("canonical string '{text}' failed to parse: {err}"));
            assert_eq!(reparsed, spec, "round trip of '{text}'");
        }
        // Custom rules round-trip up to the optional name.
        let rule = strudel_rules::parser::parse_rule("c = c -> val(c) = 1").unwrap();
        let spec = SigmaSpec::Custom(rule);
        let reparsed = parse_spec(&spec.spec_string()).unwrap();
        match (&spec, &reparsed) {
            (SigmaSpec::Custom(a), SigmaSpec::Custom(b)) => {
                assert_eq!(a.antecedent(), b.antecedent());
                assert_eq!(a.consequent(), b.consequent());
            }
            _ => panic!("custom rule did not stay custom"),
        }
    }

    #[test]
    fn parse_spec_rejects_garbage_with_guidance() {
        let err = parse_spec("covfefe").unwrap_err();
        assert!(err.to_string().contains("expected cov"));
        let err = parse_spec("dep:onlyone").unwrap_err();
        assert!(err.to_string().contains("at least 2"));
        assert!(matches!(
            parse_spec("val(c = 1 ->"),
            Err(SpecParseError::Rule(_))
        ));
    }

    #[test]
    fn parse_spec_handles_non_ascii_without_panicking() {
        // A multi-byte character straddling a prefix length used to panic
        // the byte-offset slice in strip_prefix_ci.
        for text in [
            "dep\u{e9}:a,b",
            "co\u{e9}",
            "\u{1f980}\u{1f980}\u{1f980}\u{1f980}",
        ] {
            assert!(parse_spec(text).is_err(), "'{text}' is not a valid spec");
        }
        // Non-ASCII inside the property list is legitimate and kept.
        let spec = parse_spec("dep:http://ex/caf\u{e9},http://ex/b").unwrap();
        assert!(matches!(spec, SigmaSpec::Dependency { ref p1, .. } if p1.contains('\u{e9}')));
    }

    #[test]
    fn names_are_compact() {
        assert_eq!(SigmaSpec::Coverage.name(), "Cov");
        assert_eq!(SigmaSpec::Similarity.name(), "Sim");
        let dep = SigmaSpec::Dependency {
            p1: "http://dbpedia.org/ontology/deathPlace".into(),
            p2: "http://dbpedia.org/ontology/deathDate".into(),
        };
        assert_eq!(dep.name(), "Dep[deathPlace,deathDate]");
    }
}
