//! `strudel refine` — discover a sort refinement of a dataset.

use strudel_core::prelude::{
    annotate_refinement, exists_sort_refinement, format_sigma, highest_theta, lowest_k,
    render_refinement, HighestThetaOptions, RenderOptions, SweepDirection,
};
use strudel_core::refinement::SortRefinement;
use strudel_core::sigma::SigmaSpec;
use strudel_rdf::signature::SignatureView;
use strudel_rules::prelude::Ratio;

use crate::args::{parse_args, ArgSpec};
use crate::error::CliError;
use crate::io::{load_graph, save_ntriples, views_of};
use crate::spec::{parse_engine, parse_sigma_spec, parse_time_limit};

/// Argument specification of `refine`.
pub const SPEC: ArgSpec = ArgSpec {
    options: &[
        "sort",
        "rule",
        "k",
        "theta",
        "engine",
        "time-limit",
        "step",
        "max-k",
        "annotate",
        "base",
    ],
    flags: &["render"],
    min_positional: 1,
    max_positional: 1,
};

/// Usage text of `refine`.
pub const USAGE: &str =
    "strudel refine <FILE> [--sort IRI] [--rule SPEC] (--k N | --theta X | both)
               [--engine hybrid|ilp|greedy] [--time-limit SECS] [--step X] [--max-k N]
               [--render] [--annotate OUT.nt --base IRI]
  --k only:      finds the highest threshold θ reachable with at most k implicit sorts.
  --theta only:  finds the smallest k whose refinement meets the threshold.
  both:          decides whether a refinement with at most k sorts and threshold θ exists.
  --annotate:    writes the input plus new rdf:type triples for the discovered sorts.";

/// Runs the command.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let parsed = parse_args(args, &SPEC)?;
    let path = parsed.positional(0).expect("spec requires one positional");
    let graph = load_graph(path)?;
    let sort = parsed.option("sort");
    let (matrix, view) = views_of(&graph, sort)?;

    let spec = match parsed.option("rule") {
        Some(text) => parse_sigma_spec(text)?,
        None => SigmaSpec::Coverage,
    };
    let time_limit = parse_time_limit(&parsed)?;
    let engine = parse_engine(&parsed)?.build(time_limit);

    let k = parsed.option_parsed::<usize>("k")?;
    let theta = match parsed.option("theta") {
        Some(text) => Some(parse_ratio(text, "theta")?),
        None => None,
    };

    let mut out = String::new();
    out.push_str(&format!(
        "dataset: {path} — {} subjects, {} signatures, rule {}\n",
        view.subject_count(),
        view.signature_count(),
        spec.name()
    ));
    out.push_str(&format!(
        "σ_{}(D) = {}\n",
        spec.name(),
        format_sigma(spec.evaluate(&view)?)
    ));

    let refinement: Option<SortRefinement> = match (k, theta) {
        (Some(k), Some(theta)) => {
            let answer = exists_sort_refinement(&view, &spec, theta, k, engine.as_ref())?;
            out.push_str(&format!(
                "refinement with ≤ {k} sorts and θ = {theta}: {}\n",
                match answer {
                    Some(true) => "exists",
                    Some(false) => "does not exist",
                    None => "undecided within the engine's budget",
                }
            ));
            if answer == Some(true) {
                // Re-run to obtain the witness refinement for reporting.
                match engine.as_ref().refine(&view, &spec, k, theta)? {
                    strudel_core::engine::RefineOutcome::Refinement(refinement) => Some(refinement),
                    _ => None,
                }
            } else {
                None
            }
        }
        (Some(k), None) => {
            let mut options = HighestThetaOptions::default();
            if let Some(step) = parsed.option("step") {
                options.step = parse_ratio(step, "step")?;
            }
            let result = highest_theta(&view, &spec, k, engine.as_ref(), &options)?;
            out.push_str(&format!(
                "highest θ with ≤ {k} sorts: {}{}\n",
                format_sigma(result.theta),
                if result.hit_budget {
                    " (budget-limited)"
                } else {
                    ""
                }
            ));
            result.refinement
        }
        (None, Some(theta)) => {
            let max_k = parsed.option_parsed::<usize>("max-k")?;
            let result = lowest_k(
                &view,
                &spec,
                theta,
                engine.as_ref(),
                SweepDirection::Upward,
                max_k,
            )?;
            match result.k {
                Some(k) => out.push_str(&format!(
                    "lowest k with θ = {theta}: {k}{}\n",
                    if result.hit_budget {
                        " (budget-limited)"
                    } else {
                        ""
                    }
                )),
                None => out.push_str(&format!(
                    "no refinement meets θ = {theta} within the allowed number of sorts\n"
                )),
            }
            result.refinement
        }
        (None, None) => {
            return Err(CliError::Usage(
                "refine needs --k, --theta, or both".to_owned(),
            ))
        }
    };

    let Some(refinement) = refinement else {
        return Ok(out);
    };
    out.push_str(&describe_refinement(&view, &refinement));
    if parsed.has_flag("render") {
        out.push('\n');
        out.push_str(&render_refinement(
            &view,
            &refinement,
            &RenderOptions::default(),
        ));
    }

    if let Some(annotate_path) = parsed.option("annotate") {
        let base = parsed
            .option("base")
            .unwrap_or("http://strudel.example/refined");
        let mut annotated = graph.clone();
        let summary = annotate_refinement(&mut annotated, &matrix, &view, &refinement, base)?;
        save_ntriples(annotate_path, &annotated)?;
        out.push_str(&format!(
            "wrote {annotate_path}: {} triples ({} added) declaring sorts {}\n",
            annotated.len(),
            summary.triples_added,
            summary.sort_iris.join(", ")
        ));
    }
    Ok(out)
}

fn describe_refinement(view: &SignatureView, refinement: &SortRefinement) -> String {
    let mut out = format!("{} implicit sort(s):\n", refinement.k());
    for (idx, sort) in refinement.sorts.iter().enumerate() {
        let sub = view.subset(&sort.signatures);
        let used = (0..sub.property_count())
            .filter(|&col| sub.property_subject_count(col) > 0)
            .count();
        out.push_str(&format!(
            "  sort {idx}: {} subjects, {} signatures, {} properties used, σ = {}\n",
            sort.subjects,
            sort.signatures.len(),
            used,
            format_sigma(sort.sigma)
        ));
    }
    out
}

fn parse_ratio(text: &str, name: &str) -> Result<Ratio, CliError> {
    Ratio::parse(text)
        .map_err(|err| CliError::Usage(format!("invalid value '{text}' for --{name}: {err}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::test_support::{args, temp_path, write_persons_ntriples};

    #[test]
    fn highest_theta_mode_reports_sorts() {
        let file = write_persons_ntriples("refine-k");
        let output = run(&args(&[
            file.to_str().unwrap(),
            "--sort",
            "http://ex/Person",
            "--k",
            "2",
        ]))
        .unwrap();
        assert!(output.contains("highest θ"));
        assert!(output.contains("implicit sort(s)"));
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn lowest_k_mode_and_decision_mode_work() {
        let file = write_persons_ntriples("refine-theta");
        let output = run(&args(&[
            file.to_str().unwrap(),
            "--theta",
            "0.9",
            "--rule",
            "cov",
            "--max-k",
            "6",
        ]))
        .unwrap();
        assert!(output.contains("lowest k"));

        let output = run(&args(&[file.to_str().unwrap(), "--theta", "1", "--k", "3"])).unwrap();
        assert!(output.contains("exists") || output.contains("does not exist"));
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn annotation_writes_a_new_file() {
        let file = write_persons_ntriples("refine-annotate");
        let out_path = temp_path("refine-annotated.nt");
        let output = run(&args(&[
            file.to_str().unwrap(),
            "--sort",
            "http://ex/Person",
            "--k",
            "2",
            "--annotate",
            out_path.to_str().unwrap(),
            "--base",
            "http://ex/Person/refined",
        ]))
        .unwrap();
        assert!(output.contains("wrote"));
        let annotated = crate::io::load_graph(out_path.to_str().unwrap()).unwrap();
        let refined_sorts: Vec<_> = annotated
            .sorts()
            .into_iter()
            .map(|s| annotated.iri(s).to_owned())
            .filter(|s| s.starts_with("http://ex/Person/refined"))
            .collect();
        assert_eq!(refined_sorts.len(), 2);
        std::fs::remove_file(&file).ok();
        std::fs::remove_file(&out_path).ok();
    }

    /// `--time-limit 0` is a budget every engine honours: none may decide,
    /// although the question has an answer.
    #[test]
    fn a_zero_time_limit_leaves_every_engine_undecided() {
        let file = write_persons_ntriples("refine-zero-budget");
        for engine in ["greedy", "hybrid", "ilp"] {
            let output = run(&args(&[
                file.to_str().unwrap(),
                "--sort",
                "http://ex/Person",
                "--k",
                "2",
                "--theta",
                "1/2",
                "--engine",
                engine,
                "--time-limit",
                "0",
            ]))
            .unwrap();
            assert!(output.contains("undecided"), "{engine}: {output}");
        }
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn missing_objective_is_a_usage_error() {
        let file = write_persons_ntriples("refine-missing");
        let err = run(&args(&[file.to_str().unwrap()])).unwrap_err();
        assert!(err.to_string().contains("--k"));
        std::fs::remove_file(&file).ok();
    }
}
