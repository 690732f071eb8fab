//! The motivating measurements outside the evaluation section:
//!
//! * **Figure 1** (Section 2.2): the three toy datasets D₁, D₂, D₃ whose
//!   matrices the paper prints to contrast σ_Cov and σ_Sim — adding a single
//!   exotic triple halves σ_Cov but leaves σ_Sim at ≈ 1, while a diagonal
//!   matrix drives both to ≈ 0.
//! * **Section 2.2.1 / Duan et al. \[5\]**: benchmark data is "very
//!   relational-like" (σ_Cov close to 1) whereas real datasets sit around or
//!   below 0.5 — the observation that motivates the whole paper.

use std::fmt;

use strudel_core::prelude::SigmaSpec;
use strudel_datagen::{benchmark_sorts, dbpedia_persons, wordnet_nouns, BenchmarkProfile};
use strudel_rdf::signature::SignatureView;

/// Number of subjects used for the Figure 1 matrices (any "large N" works).
const FIGURE1_N: usize = 1_000;

/// One row of the Figure 1 comparison.
#[derive(Clone, Debug)]
pub struct Figure1Row {
    /// Dataset name (D1, D2, D3).
    pub dataset: &'static str,
    /// What the matrix looks like.
    pub description: &'static str,
    /// Measured σ_Cov.
    pub cov: f64,
    /// Measured σ_Sim.
    pub sim: f64,
    /// The paper's qualitative expectation, as printed in Section 2.2.
    pub expectation: &'static str,
}

/// The Figure 1 report.
#[derive(Clone, Debug)]
pub struct Figure1Report {
    /// Number of subjects N used to instantiate the matrices.
    pub n: usize,
    /// One row per toy dataset.
    pub rows: Vec<Figure1Row>,
}

impl fmt::Display for Figure1Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== Figure 1: σ_Cov vs σ_Sim on the toy matrices (N = {}) ==",
            self.n
        )?;
        writeln!(
            f,
            "  {:<4} {:<38} {:>8} {:>8}  expectation",
            "data", "matrix", "σCov", "σSim"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "  {:<4} {:<38} {:>8.3} {:>8.3}  {}",
                row.dataset, row.description, row.cov, row.sim, row.expectation
            )?;
        }
        Ok(())
    }
}

fn measure(view: &SignatureView) -> (f64, f64) {
    (
        SigmaSpec::Coverage.evaluate(view).unwrap().to_f64(),
        SigmaSpec::Similarity.evaluate(view).unwrap().to_f64(),
    )
}

/// Builds D₁ (everyone has the single property p).
pub fn figure1_d1(n: usize) -> SignatureView {
    SignatureView::from_counts(vec!["http://ex/p".into()], vec![(vec![0], n)]).unwrap()
}

/// Builds D₂ (D₁ plus one subject that also has the exotic property q).
pub fn figure1_d2(n: usize) -> SignatureView {
    SignatureView::from_counts(
        vec!["http://ex/p".into(), "http://ex/q".into()],
        vec![(vec![0], n.saturating_sub(1)), (vec![0, 1], 1)],
    )
    .unwrap()
}

/// Builds D₃ (subject i has only property pᵢ — a diagonal matrix).
pub fn figure1_d3(n: usize) -> SignatureView {
    let properties: Vec<String> = (0..n).map(|i| format!("http://ex/p{i}")).collect();
    let signatures: Vec<(Vec<usize>, usize)> = (0..n).map(|i| (vec![i], 1)).collect();
    SignatureView::from_counts(properties, signatures).unwrap()
}

/// Regenerates Figure 1.
pub fn figure1() -> Figure1Report {
    let (d1_cov, d1_sim) = measure(&figure1_d1(FIGURE1_N));
    let (d2_cov, d2_sim) = measure(&figure1_d2(FIGURE1_N));
    let (d3_cov, d3_sim) = measure(&figure1_d3(FIGURE1_N));
    Figure1Report {
        n: FIGURE1_N,
        rows: vec![
            Figure1Row {
                dataset: "D1",
                description: "all subjects have the single property p",
                cov: d1_cov,
                sim: d1_sim,
                expectation: "σCov = 1, σSim = 1",
            },
            Figure1Row {
                dataset: "D2",
                description: "D1 plus one triple (s1, q, o)",
                cov: d2_cov,
                sim: d2_sim,
                expectation: "σCov ≈ 0.5, σSim ≈ 1",
            },
            Figure1Row {
                dataset: "D3",
                description: "diagonal: subject i has only property p_i",
                cov: d3_cov,
                sim: d3_sim,
                expectation: "σCov ≈ 0, σSim = 0",
            },
        ],
    }
}

/// One measured sort in the benchmark-vs-reality comparison.
#[derive(Clone, Debug)]
pub struct GapEntry {
    /// Sort or dataset label.
    pub label: String,
    /// Whether the data is benchmark-shaped (synthetic schema) or a real
    /// dataset stand-in.
    pub benchmark: bool,
    /// σ_Cov.
    pub cov: f64,
    /// σ_Sim.
    pub sim: f64,
}

/// The Section 2.2.1 benchmark-vs-reality report.
#[derive(Clone, Debug)]
pub struct BenchmarkGapReport {
    /// All measured entries, benchmark sorts first.
    pub entries: Vec<GapEntry>,
    /// Smallest σ_Cov among benchmark-shaped sorts.
    pub min_benchmark_cov: f64,
    /// Largest σ_Cov among the real-dataset stand-ins.
    pub max_real_cov: f64,
}

impl fmt::Display for BenchmarkGapReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== Section 2.2.1: benchmark data vs real data (Duan et al. [5]) =="
        )?;
        writeln!(
            f,
            "  {:<44} {:>10} {:>8} {:>8}",
            "sort", "kind", "σCov", "σSim"
        )?;
        for entry in &self.entries {
            writeln!(
                f,
                "  {:<44} {:>10} {:>8.3} {:>8.3}",
                entry.label,
                if entry.benchmark { "benchmark" } else { "real" },
                entry.cov,
                entry.sim
            )?;
        }
        writeln!(
            f,
            "  benchmark σCov ≥ {:.3} everywhere; real datasets top out at {:.3} — the gap the paper sets out to bridge",
            self.min_benchmark_cov, self.max_real_cov
        )
    }
}

/// Regenerates the Section 2.2.1 comparison using the benchmark-shaped
/// generators and the calibrated real-dataset stand-ins.
pub fn section22(subjects_per_sort: usize, seed: u64) -> BenchmarkGapReport {
    let mut entries = Vec::new();
    for profile in BenchmarkProfile::ALL {
        for sort in benchmark_sorts(profile, subjects_per_sort, seed) {
            let (cov, sim) = measure(&sort.view);
            let local = sort.sort.rsplit(['/', '#']).next().unwrap_or(&sort.sort);
            entries.push(GapEntry {
                label: format!("{} {}", profile.name(), local),
                benchmark: true,
                cov,
                sim,
            });
        }
    }
    for (label, view) in [
        ("DBpedia Persons (calibrated)", dbpedia_persons()),
        ("WordNet Nouns (calibrated)", wordnet_nouns()),
    ] {
        let (cov, sim) = measure(&view);
        entries.push(GapEntry {
            label: label.to_owned(),
            benchmark: false,
            cov,
            sim,
        });
    }
    let min_benchmark_cov = entries
        .iter()
        .filter(|e| e.benchmark)
        .map(|e| e.cov)
        .fold(f64::INFINITY, f64::min);
    let max_real_cov = entries
        .iter()
        .filter(|e| !e.benchmark)
        .map(|e| e.cov)
        .fold(0.0, f64::max);
    BenchmarkGapReport {
        entries,
        min_benchmark_cov,
        max_real_cov,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_reproduces_the_papers_contrast() {
        let report = figure1();
        let d1 = &report.rows[0];
        let d2 = &report.rows[1];
        let d3 = &report.rows[2];
        assert_eq!(d1.cov, 1.0);
        assert_eq!(d1.sim, 1.0);
        assert!((d2.cov - 0.5).abs() < 0.01, "σCov(D2) = {}", d2.cov);
        assert!(d2.sim > 0.99, "σSim(D2) = {}", d2.sim);
        assert!(d3.cov < 0.01, "σCov(D3) = {}", d3.cov);
        assert_eq!(d3.sim, 0.0);
        let text = report.to_string();
        assert!(text.contains("D2"));
        assert!(text.contains("expectation"));
    }

    #[test]
    fn section22_shows_the_benchmark_reality_gap() {
        let report = section22(500, 1);
        assert!(report.entries.len() >= 8);
        assert!(report.min_benchmark_cov >= 0.9);
        assert!(report.max_real_cov <= 0.6);
        assert!(report.min_benchmark_cov > report.max_real_cov + 0.3);
        assert!(report.to_string().contains("benchmark"));
    }
}
