//! The strudel benchmark: three seeded workloads, measured end to end and
//! layer by layer, with every answer checked.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--strudel PATH]
//! perfbench --spread NAME [--runs N] [--seconds S] [--trace 0|1]
//! ```
//!
//! A run prints the realized input properties, one `metric` line per
//! metric, and as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer metrics of one traced
//! run; which metrics those are, and their units, is read from
//! `BENCHMARK.json` in the working directory, so every workload reports
//! the same set. `--spread` repeats one workload in fresh processes with
//! seeds 1 to N and prints each end-to-end metric's values, median,
//! quartiles and largest deviation from the median.

mod check;
mod loadgen;
mod pipeline;
mod serve;
mod stats;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use stats::Report;

const WORKLOADS: [&str; 3] = ["paper-pipeline", "serve-hot", "serve-churn"];

struct Args {
    workload: Option<String>,
    spread: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    strudel: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        spread: None,
        seed: 1,
        seconds: 30.0,
        trace: false,
        runs: 10,
        strudel: PathBuf::from(".bench_build/release/strudel"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<f64>()
                .map_err(|_| format!("bad {flag} value '{v}'"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--spread" => args.spread = Some(value),
            "--seed" => args.seed = number(&value)? as u64,
            "--seconds" => args.seconds = number(&value)?,
            "--trace" => args.trace = number(&value)? != 0.0,
            "--runs" => args.runs = number(&value)? as usize,
            "--strudel" => args.strudel = PathBuf::from(value),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    for name in args.workload.iter().chain(&args.spread) {
        if !WORKLOADS.contains(&name.as_str()) {
            return Err(format!(
                "unknown workload {name}; expected one of {WORKLOADS:?}"
            ));
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

/// The manifest that names the metrics, relative to the checkout root.
const MANIFEST: &str = "BENCHMARK.json";

/// The `(name, unit)` pairs of one metric list of the manifest:
/// `end_to_end` or `per_layer`.
fn manifest_metrics(list: &str) -> Result<Vec<(String, String)>, String> {
    let text =
        std::fs::read_to_string(MANIFEST).map_err(|err| format!("read {MANIFEST}: {err}"))?;
    metric_list(&text, list).map_err(|err| format!("{MANIFEST}: {err}"))
}

/// Reads one metric list out of the manifest's text. The lists hold flat
/// objects of short strings and numbers, so a scan for their `name` and
/// `unit` fields reads them.
fn metric_list(text: &str, list: &str) -> Result<Vec<(String, String)>, String> {
    let missing = || format!("no {list} list");
    let key = format!("\"{list}\"");
    let rest = &text[text.find(&key).ok_or_else(missing)? + key.len()..];
    let open = rest.find('[').ok_or_else(missing)?;
    let close = rest.find(']').ok_or_else(missing)?;
    let string_field = |entry: &str, field: &str| {
        let key = format!("\"{field}\"");
        let after = &entry[entry.find(&key)? + key.len()..];
        let value = &after[after.find('"')? + 1..];
        Some(value[..value.find('"')?].to_owned())
    };
    rest[open + 1..close]
        .split('}')
        .filter(|entry| entry.contains('{'))
        .map(|entry| {
            string_field(entry, "name")
                .zip(string_field(entry, "unit"))
                .ok_or_else(|| format!("a {list} entry lacks a name or unit"))
        })
        .collect()
}

fn run_workload(args: &Args, workload: &str) -> ExitCode {
    if !args.strudel.is_file() && workload != "paper-pipeline" {
        eprintln!(
            "error: strudel binary not found at {}",
            args.strudel.display()
        );
        return ExitCode::FAILURE;
    }
    let expected = match manifest_metrics(if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    }) {
        Ok(expected) => expected,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {workload}, seed {}, {} s, trace {}",
        args.seed, args.seconds, args.trace as u8
    );
    let mut report = Report::default();
    let steal_before = stats::cpu_steal();
    match workload {
        "paper-pipeline" => pipeline::run(args.seed, args.seconds, args.trace, &mut report),
        name => {
            if let Err(err) = serve::run(name, args, &mut report) {
                eprintln!("error: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    // Time the host took from this VM's vCPUs: it explains runs that read
    // slow without any change to the program.
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, stats::cpu_steal()) {
        let share = 100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        println!("environment: host steal {share:.2}% of vCPU time during the run");
    }
    // Every workload reports every metric of the manifest: a layer the
    // workload does not exercise reads 0 in a traced run, while a missing
    // end-to-end metric is a fault of the benchmark.
    report.conform(&expected, args.trace);
    let fail_pct = 100.0 * report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "fail_pct = {fail_pct} % ({} of {} operations failed)",
        report.failed, report.attempted
    );
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}

/// Repeats one workload in fresh processes and prints how much each
/// end-to-end metric spreads across them.
fn spread(args: &Args, workload: &str) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::FAILURE;
        }
    };
    let mut table: Vec<(String, String, Vec<f64>)> = Vec::new();
    for seed in 1..=args.runs as u64 {
        let output = Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--strudel")
            .arg(&args.strudel)
            .output();
        let stdout = match output {
            Ok(output) if output.status.success() => output.stdout,
            Ok(output) => {
                eprintln!("error: run with seed {seed} exited with {}", output.status);
                return ExitCode::FAILURE;
            }
            Err(err) => {
                eprintln!("error: {err}");
                return ExitCode::FAILURE;
            }
        };
        let text = String::from_utf8_lossy(&stdout);
        let last = text.lines().last().unwrap_or_default();
        println!("seed {seed}: {last}");
        for (name, value, unit) in stats::parse_result_metrics(last) {
            match table.iter_mut().find(|(n, _, _)| *n == name) {
                Some(row) => row.2.push(value),
                None => table.push((name, unit, vec![value])),
            }
        }
    }
    println!("metric unit median q1 q3 iqr/median max|dev|/median values");
    for (name, unit, values) in &table {
        let median = stats::median(values);
        let (q1, q3) = stats::quartiles(values);
        let max_dev = values
            .iter()
            .map(|v| (v - median).abs())
            .fold(0.0, f64::max);
        println!(
            "{name} {unit} {median} {q1} {q3} {:.4} {:.4} {values:?}",
            (q3 - q1) / median,
            max_dev / median
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::FAILURE;
        }
    };
    match (&args.workload, &args.spread) {
        (Some(workload), None) => run_workload(&args, workload),
        (None, Some(workload)) => spread(&args, workload),
        _ => {
            eprintln!("error: give exactly one of --workload NAME or --spread NAME");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_both_metric_lists_of_the_manifest() {
        let text = include_str!("../../BENCHMARK.json");
        let end_to_end = metric_list(text, "end_to_end").expect("end_to_end list");
        assert!(end_to_end.contains(&("setup_s".to_owned(), "s".to_owned())));
        let per_layer = metric_list(text, "per_layer").expect("per_layer list");
        assert!(per_layer.contains(&("ilp.nodes".to_owned(), "count".to_owned())));
        assert!(metric_list(text, "absent").is_err());
    }

    #[test]
    fn conform_keeps_the_expected_metrics_in_order() {
        let expected = [("a", "s"), ("b", "ms"), ("c", "count")]
            .map(|(name, unit)| (name.to_owned(), unit.to_owned()));
        let mut traced = Report::default();
        traced.metric("b", 2.0, "ms");
        traced.metric("extra", 9.0, "s");
        traced.metric("a", 1.0, "s");
        traced.conform(&expected, true);
        let names: Vec<String> = stats::parse_result_metrics(&traced.result_line())
            .into_iter()
            .map(|(name, value, _)| format!("{name}={value}"))
            .collect();
        assert_eq!(names, ["a=1", "b=2", "c=0"]);
        assert_eq!(traced.failed, 0);

        let mut untraced = Report::default();
        untraced.metric("a", 1.0, "ms");
        untraced.conform(&expected, false);
        // A unit that differs and two metrics never measured.
        assert_eq!(untraced.failed, 3);
    }
}
