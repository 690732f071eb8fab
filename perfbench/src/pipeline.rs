//! `paper-pipeline`: the paper's Section-7 pipeline, in process and on one
//! thread.
//!
//! Why this workload exists: it is the only one where N-Triples parsing,
//! M(D), the signature view, σ evaluation, greedy, encode, presolve and CP
//! search do the work, and its infeasibility proofs are where solver
//! changes show.
//!
//! Set-up materializes N-Triples text from the calibrated DBpedia Persons
//! and WordNet Nouns views. The seed draws the literal values and the line
//! order; the signature structure is the calibrated dataset's, so every
//! seed asks the solver for the same proofs. Each pass parses the text,
//! builds M(D) and the signature view, evaluates σ for all four rule
//! families, then answers a fixed question set with the CLI's default
//! hybrid engine and no time limit.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::time::Instant;

use strudel_core::encode::{encode_with_table, EncodingConfig};
use strudel_core::engine::{
    GreedyEngine, HybridEngine, IlpEngine, RefineOutcome, RefinementEngine,
};
use strudel_core::error::RefineError;
use strudel_core::refinement::SortRefinement;
use strudel_core::search::{
    highest_theta, lowest_k, HighestThetaOptions, SearchStep, SweepDirection,
};
use strudel_core::sigma::SigmaSpec;
use strudel_datagen::{dbpedia, wordnet};
use strudel_ilp::prelude::presolve;
use strudel_rdf::matrix::PropertyStructureView;
use strudel_rdf::ntriples::{parse_ntriples, write_ntriples};
use strudel_rdf::rng::StdRng;
use strudel_rdf::signature::SignatureView;
use strudel_rules::eval::Evaluator;
use strudel_rules::prelude::Ratio;

use crate::check;
use crate::stats::{median, secs, Report};

/// DBpedia Persons at 1/40 of its published size and WordNet Nouns at 1/10:
/// about 155 000 triples and 15 MB of N-Triples together. The proofs do
/// not depend on the scale (the signature sets are the same); the scale
/// sets how much the ingest layers parse and build.
const DBPEDIA_SCALE: u64 = 40;
const WORDNET_SCALE: u64 = 10;

/// Untraced runs report medians over at least this many passes.
const MIN_PASSES: usize = 3;
/// Traced runs repeat the pass so node counts can be compared.
const MIN_TRACED_PASSES: usize = 2;

struct Dataset {
    name: &'static str,
    sort: &'static str,
    source: SignatureView,
    families: Vec<SigmaSpec>,
    text: String,
    triples: usize,
}

fn dependency_pair(p1: &str, p2: &str) -> [SigmaSpec; 2] {
    [
        SigmaSpec::Dependency {
            p1: p1.to_owned(),
            p2: p2.to_owned(),
        },
        SigmaSpec::SymDependency {
            p1: p1.to_owned(),
            p2: p2.to_owned(),
        },
    ]
}

fn materialize(seed: u64) -> Vec<Dataset> {
    use dbpedia::properties as db;
    use wordnet::properties as wn;
    let specs = [
        (
            "dbpedia",
            dbpedia::PERSON_SORT,
            strudel_datagen::dbpedia_persons_scaled(DBPEDIA_SCALE),
            dependency_pair(db::DEATH_PLACE, db::BIRTH_PLACE),
        ),
        (
            "wordnet",
            wordnet::NOUN_SORT,
            strudel_datagen::wordnet_nouns_scaled(WORDNET_SCALE),
            dependency_pair(wn::MEMBER_MERONYM_OF, wn::PART_MERONYM_OF),
        ),
    ];
    specs
        .into_iter()
        .enumerate()
        .map(|(i, (name, sort, source, pair))| {
            let salt = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i as u64;
            let graph =
                strudel_datagen::materialize_graph(&source, sort, "http://bench.example/", salt);
            let written = write_ntriples(&graph);
            let mut lines: Vec<&str> = written.lines().collect();
            StdRng::seed_from_u64(salt).shuffle(&mut lines);
            let mut text = lines.join("\n");
            text.push('\n');
            let mut families = vec![SigmaSpec::Coverage, SigmaSpec::Similarity];
            families.extend(pair);
            Dataset {
                name,
                sort,
                source,
                families,
                text,
                triples: lines.len(),
            }
        })
        .collect()
}

enum Ask {
    HighestTheta(usize),
    LowestK(Ratio),
}

struct Question {
    dataset: usize,
    spec: SigmaSpec,
    ask: Ask,
    /// The answer and the feasible (F) / infeasible (I) sequence of the
    /// decision instances the search probed, recorded at the default seed.
    expected: &'static str,
}

/// Both question kinds, both datasets, all four rule families. The long
/// proofs are DBpedia Cov at k = 3 for θ = 3/4 and θ = 19/25 and WordNet
/// Sim at k = 4 for θ = 0.99: their questions take 0.3–2 s each, with the
/// host's load. Chosen so a pass takes a few seconds and a run measures
/// several.
/// Left out: DBpedia Cov lowest k at θ = 4/5 (the k = 4 proof alone takes
/// about 4 s), WordNet Sim highest θ at k = 2 or 3 (the θ = 0.97 and 0.98
/// proofs take 6–9 s), questions that stay undecided after 12 s (DBpedia
/// Sim lowest k at θ = 17/20 and highest θ at k = 3, WordNet Cov highest
/// θ at k = 3 or 4 and lowest k at θ = 7/10 or 3/4) and DBpedia Sim highest
/// θ at k = 2, which alone takes about 25 s.
fn questions() -> Vec<Question> {
    use dbpedia::properties as db;
    vec![
        Question {
            dataset: 0,
            spec: SigmaSpec::Coverage,
            ask: Ask::LowestK(Ratio::new(3, 4)),
            expected: "k=4 steps=IIIF",
        },
        Question {
            dataset: 0,
            spec: SigmaSpec::Coverage,
            ask: Ask::LowestK(Ratio::new(19, 25)),
            expected: "k=4 steps=IIIF",
        },
        Question {
            dataset: 1,
            spec: SigmaSpec::Similarity,
            ask: Ask::HighestTheta(4),
            expected: "theta=49/50 steps=FFFFFFFI",
        },
        Question {
            dataset: 0,
            spec: SigmaSpec::Coverage,
            ask: Ask::HighestTheta(2),
            expected: "theta=17/25 steps=FFFFFFFFFFFFFFFFI",
        },
        Question {
            dataset: 0,
            spec: SigmaSpec::SymDependency {
                p1: db::DEATH_PLACE.to_owned(),
                p2: db::DEATH_DATE.to_owned(),
            },
            ask: Ask::HighestTheta(2),
            expected: "theta=81/100 steps=FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFI",
        },
        Question {
            dataset: 0,
            spec: SigmaSpec::Dependency {
                p1: db::DEATH_PLACE.to_owned(),
                p2: db::BIRTH_PLACE.to_owned(),
            },
            ask: Ask::HighestTheta(2),
            expected: "theta=1 steps=FFFFFFFFF",
        },
        Question {
            dataset: 0,
            spec: SigmaSpec::Similarity,
            ask: Ask::LowestK(Ratio::new(4, 5)),
            expected: "k=2 steps=IF",
        },
    ]
}

/// Per-layer times and counts of one pass.
#[derive(Clone, Default)]
struct Layers {
    parse_s: f64,
    matrix_s: f64,
    view_s: f64,
    sigma_s: f64,
    instances: u64,
    greedy_s: f64,
    greedy_answered: u64,
    ilp_calls: u64,
    ilp_s: f64,
    slowest_ilp_s: f64,
    search_s: f64,
    nodes: u64,
    propagations: u64,
    conflicts: u64,
    rough_s: f64,
    rough_entries: u64,
    encode_s: f64,
    vars: u64,
    rows: u64,
    presolve_s: f64,
    replay_s: f64,
}

/// The calls `HybridEngine` makes with no time limit, each timed: greedy,
/// then the exact engine when greedy finds nothing. On every ILP instance
/// it also replays rough counts, encode and presolve to time and size
/// them; the replay time is kept apart so the pass can leave it out.
struct TracedEngine {
    greedy: GreedyEngine,
    ilp: IlpEngine,
    layers: RefCell<Layers>,
}

impl RefinementEngine for TracedEngine {
    fn name(&self) -> &'static str {
        "hybrid-traced"
    }

    fn refine(
        &self,
        view: &SignatureView,
        spec: &SigmaSpec,
        k: usize,
        theta: Ratio,
    ) -> Result<RefineOutcome, RefineError> {
        let begin = Instant::now();
        let greedy = self.greedy.refine(view, spec, k, theta)?;
        let greedy_s = secs(begin);
        {
            let mut layers = self.layers.borrow_mut();
            layers.instances += 1;
            layers.greedy_s += greedy_s;
        }
        if let RefineOutcome::Refinement(_) = greedy {
            self.layers.borrow_mut().greedy_answered += 1;
            return Ok(greedy);
        }
        let begin = Instant::now();
        let (outcome, stats) = self.ilp.refine_with_hint(view, spec, k, theta, None)?;
        let ilp_s = secs(begin);

        let replay = Instant::now();
        let begin = Instant::now();
        let table = Evaluator::new(view).rough_counts(&spec.rule())?;
        let rough_s = secs(begin);
        let rough_entries = table.entries.len() as u64;
        let begin = Instant::now();
        let encoding = encode_with_table(view, table, k, theta, &EncodingConfig::default())?;
        let encode_s = secs(begin);
        let mut model = encoding.model;
        let (vars, rows) = (model.num_vars() as u64, model.num_constraints() as u64);
        let begin = Instant::now();
        presolve(&mut model);
        let presolve_s = secs(begin);
        let replay_s = secs(replay);

        let mut layers = self.layers.borrow_mut();
        layers.ilp_calls += 1;
        layers.ilp_s += ilp_s;
        layers.slowest_ilp_s = layers.slowest_ilp_s.max(ilp_s);
        layers.search_s += stats.elapsed.as_secs_f64();
        layers.nodes += stats.nodes;
        layers.propagations += stats.propagations;
        layers.conflicts += stats.conflicts;
        layers.rough_s += rough_s;
        layers.rough_entries += rough_entries;
        layers.encode_s += encode_s;
        layers.vars += vars;
        layers.rows += rows;
        layers.presolve_s += presolve_s;
        layers.replay_s += replay_s;
        Ok(outcome)
    }
}

struct Answer {
    /// `k=…` or `theta=…`, then the step sequence: the recorded form.
    text: String,
    k: usize,
    theta: Ratio,
    refinement: Option<SortRefinement>,
    steps: Vec<SearchStep>,
    highest: bool,
    /// Wall time to answer, replays included in a traced pass.
    seconds: f64,
}

struct Pass {
    ingest_s: f64,
    refine_s: f64,
    views: Vec<SignatureView>,
    answers: Vec<Result<Answer, String>>,
    layers: Layers,
}

fn steps_text(steps: &[SearchStep]) -> String {
    steps
        .iter()
        .map(|step| match step.feasible {
            Some(true) => 'F',
            Some(false) => 'I',
            None => 'U',
        })
        .collect()
}

fn ask(
    view: &SignatureView,
    question: &Question,
    engine: &dyn RefinementEngine,
) -> Result<Answer, String> {
    match question.ask {
        Ask::HighestTheta(k) => {
            let result = highest_theta(
                view,
                &question.spec,
                k,
                engine,
                &HighestThetaOptions::default(),
            )
            .map_err(|err| err.to_string())?;
            Ok(Answer {
                text: format!("theta={} steps={}", result.theta, steps_text(&result.steps)),
                k,
                theta: result.theta,
                refinement: result.refinement,
                steps: result.steps,
                highest: true,
                seconds: 0.0,
            })
        }
        Ask::LowestK(theta) => {
            let result = lowest_k(
                view,
                &question.spec,
                theta,
                engine,
                SweepDirection::Upward,
                None,
            )
            .map_err(|err| err.to_string())?;
            let k = result.k.unwrap_or(0);
            Ok(Answer {
                text: format!("k={k} steps={}", steps_text(&result.steps)),
                k,
                theta,
                refinement: result.refinement,
                steps: result.steps,
                highest: false,
                seconds: 0.0,
            })
        }
    }
}

fn run_pass(datasets: &[Dataset], questions: &[Question], traced: bool) -> Result<Pass, String> {
    let mut layers = Layers::default();
    let begin = Instant::now();
    let mut views = Vec::with_capacity(datasets.len());
    for dataset in datasets {
        let lap = Instant::now();
        let graph = parse_ntriples(&dataset.text).map_err(|err| err.to_string())?;
        layers.parse_s += secs(lap);
        let lap = Instant::now();
        let matrix = PropertyStructureView::from_sort(&graph, dataset.sort, true)
            .map_err(|err| err.to_string())?;
        layers.matrix_s += secs(lap);
        let lap = Instant::now();
        let view = SignatureView::from_matrix(&matrix);
        layers.view_s += secs(lap);
        let lap = Instant::now();
        for spec in &dataset.families {
            spec.evaluate(&view).map_err(|err| err.to_string())?;
        }
        layers.sigma_s += secs(lap);
        views.push(view);
    }
    let ingest_s = secs(begin);

    let traced_engine = TracedEngine {
        greedy: GreedyEngine::new(),
        ilp: IlpEngine::new(),
        layers: RefCell::new(Layers::default()),
    };
    let hybrid = HybridEngine::new();
    let engine: &dyn RefinementEngine = if traced { &traced_engine } else { &hybrid };
    let begin = Instant::now();
    let answers: Vec<Result<Answer, String>> = questions
        .iter()
        .map(|question| {
            let lap = Instant::now();
            let answer = ask(&views[question.dataset], question, engine);
            answer.map(|answer| Answer {
                seconds: secs(lap),
                ..answer
            })
        })
        .collect();
    let searched = traced_engine.layers.into_inner();
    let refine_s = secs(begin) - searched.replay_s;
    layers = Layers {
        parse_s: layers.parse_s,
        matrix_s: layers.matrix_s,
        view_s: layers.view_s,
        sigma_s: layers.sigma_s,
        ..searched
    };
    Ok(Pass {
        ingest_s,
        refine_s,
        views,
        answers,
        layers,
    })
}

/// The (property-name set, count) pairs of a view: parsing orders
/// properties alphabetically, so views are compared by names.
fn named_signatures(view: &SignatureView) -> BTreeSet<(Vec<String>, usize)> {
    view.entries()
        .iter()
        .map(|entry| {
            let mut names: Vec<String> = entry
                .signature
                .iter()
                .map(|col| view.properties()[col].clone())
                .collect();
            names.sort();
            (names, entry.count)
        })
        .collect()
}

fn check_answer(answer: &Answer, question: &Question, view: &SignatureView) -> Result<(), String> {
    if answer.steps.iter().any(|step| step.feasible.is_none()) {
        return Err("a decision instance was left undecided".to_owned());
    }
    let last = answer.steps.last().ok_or("the search probed nothing")?;
    let proven = if answer.highest {
        last.feasible == Some(false) || last.theta == Ratio::ONE
    } else {
        let (last, before) = answer.steps.split_last().expect("non-empty");
        last.feasible == Some(true) && before.iter().all(|step| step.feasible == Some(false))
    };
    if !proven {
        return Err("the search did not end on a proven step".to_owned());
    }
    let refinement = answer.refinement.as_ref().ok_or("no refinement returned")?;
    let sorts: Vec<Vec<usize>> = refinement
        .sorts
        .iter()
        .map(|sort| sort.signatures.clone())
        .collect();
    check::certificate(view, &question.spec, answer.k, answer.theta, &sorts)?;
    if answer.text != question.expected {
        return Err(format!(
            "answer `{}` differs from the recorded `{}`",
            answer.text, question.expected
        ));
    }
    Ok(())
}

fn print_inputs(datasets: &[Dataset]) {
    for dataset in datasets {
        let view = &dataset.source;
        let tables: Vec<String> = dataset
            .families
            .iter()
            .map(|spec| {
                let entries = Evaluator::new(view)
                    .rough_counts(&spec.rule())
                    .map(|table| table.entries.len().to_string())
                    .unwrap_or_else(|err| format!("error: {err}"));
                format!("{}={entries}", spec.name())
            })
            .collect();
        println!(
            "input {}: {} triples, {} bytes, {} subjects, {} signatures, {} properties, \
             rough-count entries {}",
            dataset.name,
            dataset.triples,
            dataset.text.len(),
            view.subject_count(),
            view.signature_count(),
            view.property_count(),
            tables.join(" ")
        );
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool, report: &mut Report) {
    let questions = questions();
    // Each pass is set up afresh, so the set-ups sample the host across
    // the run as the passes do: its speed drifts over seconds, and
    // back-to-back set-ups would all land in one phase of it.
    let mut setups = Vec::new();
    let mut datasets = Vec::new();
    let start = Instant::now();
    let min_passes = if traced {
        MIN_TRACED_PASSES
    } else {
        MIN_PASSES
    };
    let mut passes = Vec::new();
    while passes.len() < min_passes || secs(start) < seconds {
        datasets.clear();
        let begin = Instant::now();
        datasets = materialize(seed);
        setups.push(secs(begin));
        if passes.is_empty() {
            print_inputs(&datasets);
        }
        match run_pass(&datasets, &questions, traced) {
            Ok(pass) => passes.push(pass),
            Err(err) => {
                report.check(false, || format!("pass failed: {err}"));
                break;
            }
        }
    }
    println!("set-ups {setups:?} s");

    // Checks run after the timed passes.
    for (p, pass) in passes.iter().enumerate() {
        for (dataset, view) in datasets.iter().zip(&pass.views) {
            let same = named_signatures(view) == named_signatures(&dataset.source);
            report.check(same, || {
                format!(
                    "pass {p}: ingested {} differs from its source view",
                    dataset.name
                )
            });
        }
        for (q, (answer, question)) in pass.answers.iter().zip(&questions).enumerate() {
            let outcome = answer
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|answer| check_answer(answer, question, &pass.views[question.dataset]));
            report.check(outcome.is_ok(), || {
                format!("pass {p}, question {q}: {}", outcome.unwrap_err())
            });
        }
    }
    if let Some(pass) = passes.first() {
        for (q, answer) in pass.answers.iter().enumerate() {
            if let Ok(answer) = answer {
                let times: Vec<f64> = passes
                    .iter()
                    .filter_map(|pass| pass.answers[q].as_ref().ok())
                    .map(|answer| answer.seconds)
                    .collect();
                println!(
                    "answer {q}: {} in {:.3} s (median per pass)",
                    answer.text,
                    median(&times)
                );
            }
        }
    }
    if passes.is_empty() {
        return;
    }
    let ingest: Vec<f64> = passes.iter().map(|pass| pass.ingest_s).collect();
    let refine: Vec<f64> = passes.iter().map(|pass| pass.refine_s).collect();
    println!(
        "passes {}: ingest_s {ingest:?} refine_s {refine:?}",
        passes.len()
    );
    println!(
        "ingest_s = {} s, refine_s = {} s (medians per pass)",
        median(&ingest),
        median(&refine)
    );

    if !traced {
        // The user's operation is one run of the experiment: the N-Triples
        // text in memory to every answer.
        let latency: Vec<f64> = passes
            .iter()
            .map(|pass| (pass.ingest_s + pass.refine_s) * 1e3)
            .collect();
        report.metric("setup_s", median(&setups), "s");
        report.metric("latency_p50_ms", median(&latency), "ms");
        // Set-ups and passes alternate, so this is the larger of their
        // peaks, in the steady state of the allocator. Resetting the mark
        // after each set-up would measure how much freed heap the
        // allocator happened to keep, which differs from pass to pass.
        let rss = crate::stats::proc_status_mb(std::process::id(), "VmHWM").unwrap_or(f64::NAN);
        report.metric("peak_rss_mb", rss, "MB");
        return;
    }

    let nodes: BTreeSet<u64> = passes.iter().map(|pass| pass.layers.nodes).collect();
    report.check(nodes.len() == 1, || {
        format!("ilp.nodes differ between traced passes: {nodes:?}")
    });
    for (p, pass) in passes.iter().enumerate() {
        let l = &pass.layers;
        let blocking = l.parse_s + l.matrix_s + l.view_s + l.sigma_s + l.greedy_s + l.ilp_s;
        let wall = pass.ingest_s + pass.refine_s;
        println!("pass {p}: blocking-path layers sum to {blocking:.4} s of {wall:.4} s wall");
        report.check((blocking - wall).abs() <= 0.1 * wall, || {
            format!("pass {p}: layers sum to {blocking} s, wall time is {wall} s")
        });
    }
    let per_layer = |f: &dyn Fn(&Layers) -> f64| {
        median(
            &passes
                .iter()
                .map(|pass| f(&pass.layers))
                .collect::<Vec<_>>(),
        )
    };
    let total_mb: f64 = datasets.iter().map(|d| d.text.len() as f64).sum::<f64>() / 1e6;
    report.metric("pipeline.ingest_s", median(&ingest), "s");
    report.metric("pipeline.refine_s", median(&refine), "s");
    report.metric("ntriples.parse_s", per_layer(&|l| l.parse_s), "s");
    report.metric(
        "ntriples.mb_per_s",
        total_mb / per_layer(&|l| l.parse_s),
        "MB/s",
    );
    report.metric("matrix.build_s", per_layer(&|l| l.matrix_s), "s");
    report.metric("signature.view_s", per_layer(&|l| l.view_s), "s");
    report.metric("eval.sigma_s", per_layer(&|l| l.sigma_s), "s");
    report.metric(
        "search.instances",
        per_layer(&|l| l.instances as f64),
        "count",
    );
    report.metric(
        "ilp.slowest_instance_s",
        per_layer(&|l| l.slowest_ilp_s),
        "s",
    );
    report.metric("greedy.refine_s", per_layer(&|l| l.greedy_s), "s");
    report.metric(
        "greedy.answered_ratio",
        per_layer(&|l| l.greedy_answered as f64 / l.instances.max(1) as f64),
        "ratio",
    );
    report.metric("eval.rough_counts_s", per_layer(&|l| l.rough_s), "s");
    report.metric(
        "eval.rough_entries",
        per_layer(&|l| l.rough_entries as f64),
        "count",
    );
    report.metric("encode.build_s", per_layer(&|l| l.encode_s), "s");
    report.metric("encode.vars", per_layer(&|l| l.vars as f64), "count");
    report.metric("encode.rows", per_layer(&|l| l.rows as f64), "count");
    report.metric("presolve.run_s", per_layer(&|l| l.presolve_s), "s");
    report.metric("ilp.search_s", per_layer(&|l| l.search_s), "s");
    report.metric("ilp.nodes", per_layer(&|l| l.nodes as f64), "count");
    report.metric(
        "ilp.propagations",
        per_layer(&|l| l.propagations as f64),
        "count",
    );
    report.metric("ilp.conflicts", per_layer(&|l| l.conflicts as f64), "count");
    report.metric(
        "ilp.nodes_per_s",
        per_layer(&|l| l.nodes as f64 / l.search_s.max(1e-9)),
        "1/s",
    );
}
