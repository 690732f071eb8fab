//! Property tests for the RDF model crate, driven by the crate's seeded
//! generator (`strudel_rdf::rng`); every assertion names the seed and the
//! case index.

use strudel_rdf::prelude::*;
use strudel_rdf::rng::StdRng;

const CASES: usize = 64;

fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

/// A "safe" IRI (no characters needing escapes): a lowercase letter and up
/// to eight more letters or digits under `http://example.org/`.
fn random_iri(rng: &mut StdRng) -> String {
    const TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
    let mut name = String::from(char::from(b'a' + rng.gen_range(0..26usize) as u8));
    for _ in 0..rng.gen_range(0..9usize) {
        name.push(char::from(pick(rng, TAIL)));
    }
    format!("http://example.org/{name}")
}

/// A literal of up to 20 characters drawn from printable ASCII plus the
/// characters N-Triples must escape or encode (tab, newline, quote,
/// backslash, non-ASCII), as a plain, `xsd:string`-typed or
/// language-tagged literal.
fn random_literal(rng: &mut StdRng) -> Literal {
    let alphabet: Vec<char> = (' '..='~').chain(['à', 'é', 'π', '\t', '\n']).collect();
    let lexical: String = (0..rng.gen_range(0..21usize))
        .map(|_| pick(rng, &alphabet))
        .collect();
    match rng.gen_range(0..3usize) {
        0 => Literal::simple(lexical),
        1 => Literal::typed(lexical, "http://www.w3.org/2001/XMLSchema#string"),
        _ => {
            let lang: String = (0..2)
                .map(|_| char::from(b'a' + rng.gen_range(0..26usize) as u8))
                .collect();
            Literal::lang(lexical, lang)
        }
    }
}

/// Serialize → parse is the identity on the triple set.
#[test]
fn ntriples_round_trip() {
    const SEED: u64 = 0x2714;
    let mut rng = StdRng::seed_from_u64(SEED);
    for case in 0..CASES {
        let mut graph = Graph::new();
        for _ in 0..rng.gen_range(0..40usize) {
            let subject = random_iri(&mut rng);
            let predicate = random_iri(&mut rng);
            if rng.gen_bool(0.5) {
                let object = random_iri(&mut rng);
                graph.insert_iri_triple(&subject, &predicate, &object);
            } else {
                let literal = random_literal(&mut rng);
                graph.insert_literal_triple(&subject, &predicate, literal);
            }
        }
        let text = write_ntriples(&graph);
        let reparsed = parse_ntriples(&text).unwrap_or_else(|err| {
            panic!("seed {SEED:#x} case {case}: serializer output must parse: {err}\n{text}")
        });
        let context = format!("seed {SEED:#x} case {case}");
        assert_eq!(reparsed.len(), graph.len(), "{context}");
        assert_eq!(reparsed.subject_count(), graph.subject_count(), "{context}");
        assert_eq!(
            reparsed.property_count(),
            graph.property_count(),
            "{context}"
        );
        // The triple set must survive; compare canonical re-serializations.
        let text2 = write_ntriples(&reparsed);
        let mut lines1: Vec<&str> = text.lines().collect();
        let mut lines2: Vec<&str> = text2.lines().collect();
        lines1.sort_unstable();
        lines2.sort_unstable();
        assert_eq!(lines1, lines2, "{context}");
    }
}

/// The signature view always conserves subjects, ones and column counts.
#[test]
fn signature_view_conserves_counts() {
    const SEED: u64 = 0x5167;
    let mut rng = StdRng::seed_from_u64(SEED);
    for case in 0..CASES {
        let context = format!("seed {SEED:#x} case {case}");
        let rows = rng.gen_range(1..60usize);
        let properties: Vec<String> = (0..6).map(|i| format!("http://example.org/p{i}")).collect();
        let subjects: Vec<String> = (0..rows)
            .map(|i| format!("http://example.org/s{i}"))
            .collect();
        let bit_rows: Vec<BitSet> = (0..rows)
            .map(|_| {
                let set: Vec<usize> = (0..6).filter(|_| rng.gen_bool(0.5)).collect();
                BitSet::from_indexes(6, &set)
            })
            .collect();
        let matrix = PropertyStructureView::from_rows(properties, subjects, bit_rows).unwrap();
        let view = SignatureView::from_matrix(&matrix);

        assert_eq!(view.subject_count(), matrix.subject_count(), "{context}");
        assert_eq!(view.ones(), matrix.ones(), "{context}");
        for col in 0..matrix.property_count() {
            assert_eq!(
                view.property_subject_count(col),
                matrix.column_count(col),
                "{context} column {col}"
            );
        }
        // Entries are sorted by descending count.
        let counts: Vec<usize> = view.entries().iter().map(|e| e.count).collect();
        assert!(
            counts.windows(2).all(|pair| pair[0] >= pair[1]),
            "{context}: counts {counts:?}"
        );
        // Round trip through the expanded matrix preserves the signature multiset.
        let back = SignatureView::from_matrix(&view.to_matrix());
        assert_eq!(back.signature_count(), view.signature_count(), "{context}");
        assert_eq!(back.subject_count(), view.subject_count(), "{context}");
    }
}

/// Graph membership queries agree with the matrix view.
#[test]
fn matrix_agrees_with_graph() {
    const SEED: u64 = 0x3a7;
    let mut rng = StdRng::seed_from_u64(SEED);
    for case in 0..CASES {
        let mut graph = Graph::new();
        for _ in 0..rng.gen_range(1..50usize) {
            let s = rng.gen_range(0..8usize);
            let p = rng.gen_range(0..5usize);
            graph.insert_literal_triple(
                &format!("http://example.org/s{s}"),
                &format!("http://example.org/p{p}"),
                Literal::simple("v"),
            );
        }
        let matrix = PropertyStructureView::from_graph(&graph, true);
        for (row, subject) in matrix.subjects().iter().enumerate() {
            for (col, property) in matrix.properties().iter().enumerate() {
                let sid = graph.dictionary().iri_id(subject).unwrap();
                let pid = graph.dictionary().iri_id(property).unwrap();
                assert_eq!(
                    matrix.value(row, col),
                    graph.has_property(sid, pid),
                    "seed {SEED:#x} case {case}: {subject} {property}"
                );
            }
        }
    }
}
