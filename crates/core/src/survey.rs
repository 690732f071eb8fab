//! Surveying the explicit sorts of an RDF graph.
//!
//! Real knowledge bases declare thousands of explicit sorts (`rdf:type`
//! values); Section 7.3 samples ~500 of them from YAGO before refining each
//! one. This module provides that first, descriptive pass over an arbitrary
//! graph: for every explicit sort it reports the size of the sort, the size
//! of its signature view, and its structuredness under any chosen set of
//! functions — the information a user needs to decide *which* sorts are worth
//! refining at all.

use strudel_rdf::graph::Graph;
use strudel_rdf::matrix::PropertyStructureView;
use strudel_rdf::signature::SignatureView;
use strudel_rules::error::EvalError;
use strudel_rules::prelude::Ratio;

use crate::sigma::SigmaSpec;

/// Options of a sort survey.
#[derive(Clone, Debug)]
pub struct SurveyOptions {
    /// The structuredness functions to evaluate on every sort.
    pub specs: Vec<SigmaSpec>,
    /// Sorts with fewer subjects than this are skipped (tiny sorts are noise
    /// in most knowledge bases).
    pub min_subjects: usize,
    /// Drop the `rdf:type` column from every sort's view (the paper's
    /// convention).
    pub exclude_rdf_type: bool,
}

impl Default for SurveyOptions {
    fn default() -> Self {
        SurveyOptions {
            specs: vec![SigmaSpec::Coverage, SigmaSpec::Similarity],
            min_subjects: 1,
            exclude_rdf_type: true,
        }
    }
}

/// The survey row of one explicit sort.
#[derive(Clone, Debug)]
pub struct SortReport {
    /// The sort IRI.
    pub sort: String,
    /// Number of subjects declared of this sort.
    pub subjects: usize,
    /// Number of properties used by subjects of this sort.
    pub properties: usize,
    /// Number of distinct signatures among the sort's subjects.
    pub signatures: usize,
    /// `(function name, value)` for every requested structuredness function.
    pub sigmas: Vec<(String, Ratio)>,
    /// The signature view of the sort, for follow-up refinement runs.
    pub view: SignatureView,
}

impl SortReport {
    /// The value of a structuredness function by name, if it was evaluated.
    pub fn sigma(&self, name: &str) -> Option<Ratio> {
        self.sigmas
            .iter()
            .find(|(label, _)| label == name)
            .map(|(_, value)| *value)
    }
}

/// Surveys every explicit sort of the graph, largest first.
pub fn survey_sorts(graph: &Graph, options: &SurveyOptions) -> Result<Vec<SortReport>, EvalError> {
    let mut reports = Vec::new();
    for sort_id in graph.sorts() {
        let sort = graph.iri(sort_id).to_owned();
        // `from_sort`'s only error is `EmptySort`: a sort with no members.
        let Ok(matrix) = PropertyStructureView::from_sort(graph, &sort, options.exclude_rdf_type)
        else {
            continue;
        };
        if matrix.subject_count() < options.min_subjects {
            continue;
        }
        let view = SignatureView::from_matrix(&matrix);
        let mut sigmas = Vec::with_capacity(options.specs.len());
        for spec in &options.specs {
            sigmas.push((spec.name(), spec.evaluate(&view)?));
        }
        reports.push(SortReport {
            sort,
            subjects: view.subject_count(),
            properties: view.property_count(),
            signatures: view.signature_count(),
            sigmas,
            view,
        });
    }
    reports.sort_by(|a, b| {
        b.subjects
            .cmp(&a.subjects)
            .then_with(|| a.sort.cmp(&b.sort))
    });
    Ok(reports)
}

/// Renders a survey as an aligned text table.
pub fn render_survey(reports: &[SortReport]) -> String {
    let mut out = String::new();
    let sigma_names: Vec<String> = reports
        .first()
        .map(|report| report.sigmas.iter().map(|(name, _)| name.clone()).collect())
        .unwrap_or_default();
    out.push_str(&format!(
        "{:<40} {:>10} {:>6} {:>6}",
        "sort", "subjects", "props", "sigs"
    ));
    for name in &sigma_names {
        out.push_str(&format!(" {name:>10}"));
    }
    out.push('\n');
    for report in reports {
        let sort = if report.sort.len() > 40 {
            format!("…{}", &report.sort[report.sort.len() - 39..])
        } else {
            report.sort.clone()
        };
        out.push_str(&format!(
            "{:<40} {:>10} {:>6} {:>6}",
            sort, report.subjects, report.properties, report.signatures
        ));
        for (_, value) in &report.sigmas {
            out.push_str(&format!(" {:>10.3}", value.to_f64()));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use strudel_rdf::term::Literal;

    fn two_sort_graph() -> Graph {
        let mut graph = Graph::new();
        // A structured sort: every city has both properties.
        for idx in 0..5 {
            let subject = format!("http://ex/city{idx}");
            graph.insert_type(&subject, "http://ex/City");
            graph.insert_literal_triple(&subject, "http://ex/name", Literal::simple("c"));
            graph.insert_literal_triple(&subject, "http://ex/population", Literal::simple("1"));
        }
        // A ragged sort: only some people have a birthDate.
        for idx in 0..10 {
            let subject = format!("http://ex/person{idx}");
            graph.insert_type(&subject, "http://ex/Person");
            graph.insert_literal_triple(&subject, "http://ex/name", Literal::simple("p"));
            if idx < 3 {
                graph.insert_literal_triple(
                    &subject,
                    "http://ex/birthDate",
                    Literal::simple("1990"),
                );
            }
        }
        graph
    }

    #[test]
    fn surveys_every_sort_largest_first() {
        let graph = two_sort_graph();
        let reports = survey_sorts(&graph, &SurveyOptions::default()).unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].sort, "http://ex/Person");
        assert_eq!(reports[0].subjects, 10);
        assert_eq!(reports[0].signatures, 2);
        assert_eq!(reports[1].sort, "http://ex/City");
        assert_eq!(reports[1].sigma("Cov"), Some(Ratio::ONE));
        assert!(reports[0].sigma("Cov").unwrap() < Ratio::ONE);
        assert!(reports[0].sigma("Sim").is_some());
        assert!(reports[0].sigma("nonexistent").is_none());
    }

    #[test]
    fn min_subjects_filters_small_sorts() {
        let graph = two_sort_graph();
        let options = SurveyOptions {
            min_subjects: 6,
            ..SurveyOptions::default()
        };
        let reports = survey_sorts(&graph, &options).unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].sort, "http://ex/Person");
    }

    #[test]
    fn untyped_graphs_survey_to_nothing() {
        let mut graph = Graph::new();
        graph.insert_literal_triple("http://ex/s", "http://ex/p", Literal::simple("v"));
        let reports = survey_sorts(&graph, &SurveyOptions::default()).unwrap();
        assert!(reports.is_empty());
        assert!(render_survey(&reports).contains("sort"));
    }

    #[test]
    fn rendering_contains_every_sort_and_value() {
        let graph = two_sort_graph();
        let reports = survey_sorts(&graph, &SurveyOptions::default()).unwrap();
        let text = render_survey(&reports);
        assert!(text.contains("http://ex/Person"));
        assert!(text.contains("http://ex/City"));
        assert!(text.contains("Cov"));
        assert!(text.contains("1.000"));
    }
}
