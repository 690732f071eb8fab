//! Property tests for the storage layer.
//!
//! The load-bearing invariants:
//!
//! * every layout returns the same answer for every query (cost may differ,
//!   answers may not),
//! * the fill factor of the horizontal layout equals σ_Cov of the dataset
//!   when every subject sets a property at most once,
//! * the one-table-per-signature property-table layout never stores a NULL,
//!   and its occupied cell count equals the number of 1-cells of `M(D)`.
//!
//! Driven by the workspace's seeded generator (`strudel_rdf::rng`); every
//! assertion names the seed and the case index.

use strudel_core::sigma::SigmaSpec;
use strudel_rdf::graph::Graph;
use strudel_rdf::matrix::PropertyStructureView;
use strudel_rdf::rng::StdRng;
use strudel_rdf::signature::SignatureView;
use strudel_rdf::term::Literal;
use strudel_storage::prelude::*;

const CASES: usize = 48;

const PROPERTIES: [&str; 5] = [
    "http://ex/name",
    "http://ex/birthDate",
    "http://ex/deathDate",
    "http://ex/birthPlace",
    "http://ex/deathPlace",
];

/// A dataset description of 1–24 subjects: per subject, the subset of
/// `PROPERTIES` it sets.
fn random_dataset(rng: &mut StdRng) -> Vec<Vec<bool>> {
    (0..rng.gen_range(1..25usize))
        .map(|_| PROPERTIES.iter().map(|_| rng.gen_bool(0.5)).collect())
        .collect()
}

fn build_graph(rows: &[Vec<bool>]) -> Graph {
    let mut graph = Graph::new();
    for (idx, row) in rows.iter().enumerate() {
        let subject = format!("http://ex/entity{idx}");
        graph.insert_type(&subject, "http://ex/Thing");
        for (col, &present) in row.iter().enumerate() {
            if present {
                graph.insert_literal_triple(
                    &subject,
                    PROPERTIES[col],
                    Literal::simple(format!("value-{idx}-{col}")),
                );
            }
        }
    }
    graph
}

fn build_layouts(
    graph: &Graph,
) -> (
    TripleStoreLayout,
    HorizontalLayout,
    Option<PropertyTablesLayout>,
) {
    let config = LayoutConfig::excluding_rdf_type();
    let triple_store = TripleStoreLayout::build(graph, &config);
    let horizontal = HorizontalLayout::build(graph, &config);
    let matrix = PropertyStructureView::from_graph(graph, true);
    let view = SignatureView::from_matrix(&matrix);
    let property_tables = if matrix.subject_count() > 0 {
        Some(
            PropertyTablesLayout::one_table_per_signature(graph, &matrix, &view, &config)
                .expect("a non-empty dataset always yields a per-signature layout"),
        )
    } else {
        None
    };
    (triple_store, horizontal, property_tables)
}

fn workload_for(graph: &Graph) -> Vec<Query> {
    let mut queries = generate_workload(
        graph,
        &WorkloadConfig {
            subject_lookups: 4,
            value_lookups: 4,
            property_scans: 3,
            star_joins: 3,
            star_join_arity: 2,
            seed: 7,
        },
    );
    // Also probe things that are *not* there, which is where layouts tend to
    // disagree if they are buggy.
    queries.push(Query::SubjectLookup {
        subject: "http://ex/absent".into(),
    });
    queries.push(Query::PropertyScan {
        property: "http://ex/absentProperty".into(),
    });
    queries.push(Query::StarJoin {
        properties: vec![PROPERTIES[0].into(), "http://ex/absentProperty".into()],
    });
    queries
}

#[test]
fn layouts_agree_on_every_query() {
    const SEED: u64 = 0x1a70;
    let mut rng = StdRng::seed_from_u64(SEED);
    for case in 0..CASES {
        let graph = build_graph(&random_dataset(&mut rng));
        let (triple_store, horizontal, property_tables) = build_layouts(&graph);
        let queries = workload_for(&graph);
        let mut layouts: Vec<&dyn Layout> = vec![&triple_store, &horizontal];
        if let Some(tables) = &property_tables {
            layouts.push(tables);
        }
        // run_workload returns an error (instead of summaries) on any answer
        // mismatch, so a successful run is the assertion.
        let summaries = run_workload(&layouts, &queries)
            .unwrap_or_else(|err| panic!("seed {SEED:#x} case {case}: layouts disagree: {err}"));
        assert_eq!(summaries.len(), layouts.len(), "seed {SEED:#x} case {case}");
    }
}

#[test]
fn horizontal_fill_factor_is_coverage() {
    const SEED: u64 = 0xf111;
    let mut rng = StdRng::seed_from_u64(SEED);
    for case in 0..CASES {
        let graph = build_graph(&random_dataset(&mut rng));
        let matrix = PropertyStructureView::from_graph(&graph, true);
        let view = SignatureView::from_matrix(&matrix);
        let horizontal = HorizontalLayout::build(&graph, &LayoutConfig::excluding_rdf_type());
        let sigma_cov = SigmaSpec::Coverage.evaluate(&view).unwrap().to_f64();
        // No cells at all is only possible when no subject sets any
        // property, where σ_Cov is 1 by the empty-total-cases convention.
        let fill = horizontal.storage_stats().fill_factor().unwrap_or(1.0);
        assert!(
            (fill - sigma_cov).abs() < 1e-9,
            "seed {SEED:#x} case {case}: fill factor {fill} vs σ_Cov {sigma_cov}"
        );
    }
}

#[test]
fn per_signature_tables_store_no_nulls() {
    const SEED: u64 = 0x0a11;
    let mut rng = StdRng::seed_from_u64(SEED);
    for case in 0..CASES {
        let context = format!("seed {SEED:#x} case {case}");
        let graph = build_graph(&random_dataset(&mut rng));
        let matrix = PropertyStructureView::from_graph(&graph, true);
        let view = SignatureView::from_matrix(&matrix);
        let config = LayoutConfig::excluding_rdf_type();
        let layout = PropertyTablesLayout::one_table_per_signature(&graph, &matrix, &view, &config)
            .expect("non-empty dataset");
        let stats = layout.storage_stats();
        assert_eq!(stats.null_cells, 0, "{context}");
        assert_eq!(stats.occupied_cells, view.ones(), "{context}");
        assert_eq!(stats.rows, view.subject_count(), "{context}");
        assert_eq!(layout.tables().len(), view.signature_count(), "{context}");
    }
}

#[test]
fn property_tables_never_cost_more_cells_than_horizontal_on_scans() {
    const SEED: u64 = 0x5ca5;
    let mut rng = StdRng::seed_from_u64(SEED);
    for case in 0..CASES {
        let graph = build_graph(&random_dataset(&mut rng));
        let (_, horizontal, property_tables) = build_layouts(&graph);
        let Some(property_tables) = property_tables else {
            continue;
        };
        for property in PROPERTIES {
            let context = format!("seed {SEED:#x} case {case}: scan {property}");
            let query = Query::PropertyScan {
                property: property.into(),
            };
            let (h_out, h_cost) = horizontal.execute(&query);
            let (p_out, p_cost) = property_tables.execute(&query);
            assert_eq!(h_out, p_out, "{context}");
            // The per-signature tables only scan rows that could match, so
            // they never inspect more cells than the wide table does.
            assert!(p_cost.cells_scanned <= h_cost.cells_scanned, "{context}");
        }
    }
}

#[test]
fn multi_valued_properties_round_trip_through_all_layouts() {
    let mut graph = Graph::new();
    graph.insert_type("http://ex/poly", "http://ex/Thing");
    graph.insert_literal_triple("http://ex/poly", PROPERTIES[0], Literal::simple("first"));
    graph.insert_literal_triple("http://ex/poly", PROPERTIES[0], Literal::simple("second"));
    graph.insert_iri_triple("http://ex/poly", PROPERTIES[1], "http://ex/other");
    graph.insert_type("http://ex/mono", "http://ex/Thing");
    graph.insert_literal_triple("http://ex/mono", PROPERTIES[0], Literal::simple("only"));

    let (triple_store, horizontal, property_tables) = build_layouts(&graph);
    let property_tables = property_tables.expect("dataset is non-empty");
    let layouts: Vec<&dyn Layout> = vec![&triple_store, &horizontal, &property_tables];
    let queries = vec![
        Query::SubjectLookup {
            subject: "http://ex/poly".into(),
        },
        Query::PropertyScan {
            property: PROPERTIES[0].into(),
        },
        Query::ValueLookup {
            subject: "http://ex/poly".into(),
            property: PROPERTIES[0].into(),
        },
        Query::StarJoin {
            properties: vec![PROPERTIES[0].into(), PROPERTIES[1].into()],
        },
    ];
    let summaries = run_workload(&layouts, &queries).expect("layouts must agree");
    assert_eq!(summaries.len(), 3);

    let (values, _) = triple_store.execute(&queries[2]);
    assert_eq!(
        values.len(),
        2,
        "both values of the multi-valued cell survive"
    );
}
