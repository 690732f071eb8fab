//! `strudel layout` — schema-guided storage layout advice.

use strudel_core::sigma::SigmaSpec;
use strudel_rules::prelude::Ratio;
use strudel_storage::prelude::{
    advise, AdvisorConfig, AdvisorObjective, LayoutConfig, WorkloadConfig,
};

use crate::args::{parse_args, ArgSpec};
use crate::error::CliError;
use crate::io::load_graph;
use crate::spec::{parse_engine, parse_sigma_spec, parse_time_limit};

/// Argument specification of `layout`.
pub const SPEC: ArgSpec = ArgSpec {
    options: &[
        "sort",
        "rule",
        "k",
        "theta",
        "engine",
        "time-limit",
        "seed",
        "queries",
    ],
    flags: &[],
    min_positional: 1,
    max_positional: 1,
};

/// Usage text of `layout`.
pub const USAGE: &str = "strudel layout <FILE> [--sort IRI] [--rule SPEC] [--k N | --theta X]
               [--engine hybrid|ilp|greedy] [--time-limit SECS] [--seed N] [--queries N]
  Compares a triple store, the horizontal table and refinement-derived property
  tables on the same workload and recommends a layout (default: --k 4).";

/// Runs the command.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let parsed = parse_args(args, &SPEC)?;
    let path = parsed.positional(0).expect("spec requires one positional");
    let graph = load_graph(path)?;

    let spec = match parsed.option("rule") {
        Some(text) => parse_sigma_spec(text)?,
        None => SigmaSpec::Coverage,
    };
    let objective = match (parsed.option_parsed::<usize>("k")?, parsed.option("theta")) {
        (Some(_), Some(_)) => {
            return Err(CliError::Usage(
                "layout takes --k or --theta, not both".to_owned(),
            ))
        }
        (Some(k), None) => AdvisorObjective::HighestTheta { k: k.max(1) },
        (None, Some(theta)) => AdvisorObjective::LowestK {
            theta: Ratio::parse(theta).map_err(|err| {
                CliError::Usage(format!("invalid value '{theta}' for --theta: {err}"))
            })?,
            max_k: None,
        },
        (None, None) => AdvisorObjective::HighestTheta { k: 4 },
    };
    let time_limit = parse_time_limit(&parsed)?;
    let engine = parse_engine(&parsed)?.build(time_limit);

    let queries = parsed
        .option_parsed::<usize>("queries")?
        .unwrap_or(10)
        .max(1);
    let seed = parsed.option_parsed::<u64>("seed")?.unwrap_or(2014);
    let config = AdvisorConfig {
        spec,
        objective,
        layout: LayoutConfig::excluding_rdf_type(),
        workload: WorkloadConfig {
            subject_lookups: queries,
            value_lookups: queries,
            property_scans: queries.div_ceil(2),
            star_joins: queries.div_ceil(2),
            star_join_arity: 2,
            seed,
        },
    };
    let report = advise(&graph, parsed.option("sort"), &config, engine.as_ref())?;
    Ok(format!("dataset: {path}\n{report}\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::test_support::{args, write_persons_ntriples};

    #[test]
    fn advisor_report_names_all_layouts() {
        let file = write_persons_ntriples("layout-basic");
        let output = run(&args(&[
            file.to_str().unwrap(),
            "--sort",
            "http://ex/Person",
            "--k",
            "2",
            "--queries",
            "4",
        ]))
        .unwrap();
        assert!(output.contains("triple store"));
        assert!(output.contains("horizontal"));
        assert!(output.contains("property tables"));
        assert!(output.contains("recommended layout"));
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn theta_objective_is_supported_and_k_theta_conflict_is_rejected() {
        let file = write_persons_ntriples("layout-theta");
        let output = run(&args(&[
            file.to_str().unwrap(),
            "--theta",
            "0.9",
            "--queries",
            "3",
        ]))
        .unwrap();
        assert!(output.contains("recommended layout"));

        let err = run(&args(&[
            file.to_str().unwrap(),
            "--theta",
            "0.9",
            "--k",
            "2",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("not both"));
        std::fs::remove_file(&file).ok();
    }
}
