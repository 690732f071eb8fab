//! Property test for the wire protocol: randomly generated solve requests
//! survive encode → text → parse → decode with every field and the cache
//! key intact, random JSON values round-trip byte-for-byte, and random
//! batch envelopes decode element-wise with order preserved and per-element
//! errors isolated.
//!
//! Uses the workspace's seeded xoshiro generator (`strudel_rdf::rng`);
//! failures print the seed, and re-running with that seed reproduces them.

use strudel_core::sigma::SigmaSpec;
use strudel_rdf::rng::StdRng;
use strudel_rdf::signature::SignatureView;
use strudel_rules::prelude::Ratio;
use strudel_server::json::{self, Json};
use strudel_server::prelude::{EngineKind, Request, ShardStamp, SolveOp, SolveRequest, Source};
use strudel_server::protocol::{
    decode_line, decode_payload, decode_request, encode_batch, encode_batch_request, encode_error,
    encode_frame_into, encode_solve_bin, encode_success, try_decode_frame, view_from_json,
    view_to_json, Decoded, FrameKind, FRAME_MAGIC,
};

const CASES: u64 = 300;

fn random_view(rng: &mut StdRng) -> SignatureView {
    let n_props = rng.gen_range(1usize..8);
    let properties: Vec<String> = (0..n_props)
        .map(|i| format!("http://example.org/p{i}"))
        .collect();
    let n_sigs = rng.gen_range(1usize..10);
    let signatures: Vec<(Vec<usize>, usize)> = (0..n_sigs)
        .map(|_| {
            let width = rng.gen_range(1usize..n_props + 1);
            let mut columns: Vec<usize> = (0..n_props).collect();
            rng.shuffle(&mut columns);
            columns.truncate(width);
            (columns, rng.gen_range(1usize..100))
        })
        .collect();
    SignatureView::from_counts(properties, signatures).expect("indexes are in range")
}

fn random_spec(rng: &mut StdRng, view: &SignatureView) -> SigmaSpec {
    let pick =
        |rng: &mut StdRng| view.properties()[rng.gen_range(0usize..view.property_count())].clone();
    match rng.gen_range(0usize..6) {
        0 => SigmaSpec::Coverage,
        1 => SigmaSpec::Similarity,
        2 => SigmaSpec::CoverageIgnoring(vec![pick(rng)]),
        3 => SigmaSpec::Dependency {
            p1: pick(rng),
            p2: pick(rng),
        },
        4 => SigmaSpec::SymDependency {
            p1: pick(rng),
            p2: pick(rng),
        },
        _ => SigmaSpec::DependencyDisjunctive {
            p1: pick(rng),
            p2: pick(rng),
        },
    }
}

fn random_ratio(rng: &mut StdRng) -> Ratio {
    Ratio::new(
        rng.gen_range(0u64..100) as i128,
        rng.gen_range(1u64..100) as i128,
    )
}

fn random_request(rng: &mut StdRng) -> SolveRequest {
    let op = match rng.gen_range(0usize..3) {
        0 => SolveOp::Refine,
        1 => SolveOp::HighestTheta,
        _ => SolveOp::LowestK,
    };
    let view = random_view(rng);
    let spec = random_spec(rng, &view);
    let engine = match rng.gen_range(0usize..3) {
        0 => EngineKind::Hybrid,
        1 => EngineKind::Ilp,
        _ => EngineKind::Greedy,
    };
    SolveRequest {
        k: match op {
            SolveOp::LowestK => None,
            _ => Some(rng.gen_range(1usize..6)),
        },
        theta: match op {
            SolveOp::HighestTheta => None,
            _ => Some(random_ratio(rng)),
        },
        step: (op == SolveOp::HighestTheta && rng.gen_bool(0.5))
            .then(|| Ratio::new(1, rng.gen_range(2u64..200) as i128)),
        max_k: (op == SolveOp::LowestK && rng.gen_bool(0.5)).then(|| rng.gen_range(1usize..10)),
        time_limit: rng
            .gen_bool(0.3)
            .then(|| std::time::Duration::from_millis(rng.gen_range(1u64..5000))),
        routing: rng.gen_bool(0.3).then(|| ShardStamp {
            shard: rng.gen_range(0u64..8) as u32,
            epoch: rng.gen_range(0u64..u64::MAX),
        }),
        // Never "default": the decoder normalizes an explicit default to
        // `None`, which would be a (correct) canonicalization, not a
        // round-trip — the byte-identity assertion below wants the latter.
        tenant: rng
            .gen_bool(0.3)
            .then(|| format!("tenant-{}", rng.gen_range(0u64..5))),
        op,
        view,
        spec,
        engine,
    }
}

#[test]
fn random_solve_requests_round_trip_with_cache_key_intact() {
    let seed = 20140731;
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..CASES {
        let request = random_request(&mut rng);
        let line = request.to_json().to_text();
        let decoded = decode_request(&line)
            .unwrap_or_else(|err| panic!("seed {seed} case {case}: '{line}' rejected: {err}"));
        let Request::Solve(back) = decoded else {
            panic!("seed {seed} case {case}: decoded to a non-solve request");
        };
        assert_eq!(back.op, request.op, "seed {seed} case {case}");
        assert_eq!(back.spec, request.spec, "seed {seed} case {case}");
        assert_eq!(back.engine, request.engine, "seed {seed} case {case}");
        assert_eq!(back.k, request.k, "seed {seed} case {case}");
        assert_eq!(back.theta, request.theta, "seed {seed} case {case}");
        assert_eq!(back.step, request.step, "seed {seed} case {case}");
        assert_eq!(back.max_k, request.max_k, "seed {seed} case {case}");
        assert_eq!(
            back.time_limit, request.time_limit,
            "seed {seed} case {case}"
        );
        assert_eq!(back.routing, request.routing, "seed {seed} case {case}");
        assert_eq!(back.tenant, request.tenant, "seed {seed} case {case}");
        assert_eq!(
            back.cache_key(),
            request.cache_key(),
            "seed {seed} case {case}: cache keys must survive the wire"
        );
        // Encoding the decoded request reproduces the exact line
        // (the protocol encoder is canonical).
        assert_eq!(
            back.to_json().to_text(),
            line,
            "seed {seed} case {case}: re-encoding must be byte-identical"
        );
    }
}

#[test]
fn random_views_round_trip_through_their_wire_form() {
    let seed = 424242;
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..CASES {
        let view = random_view(&mut rng);
        let encoded = view_to_json(&view);
        let back =
            view_from_json(&encoded).unwrap_or_else(|err| panic!("seed {seed} case {case}: {err}"));
        assert_eq!(
            back.cache_key(),
            view.cache_key(),
            "seed {seed} case {case}"
        );
        assert_eq!(back.subject_count(), view.subject_count());
        assert_eq!(back.signature_count(), view.signature_count());
        assert_eq!(view_to_json(&back).to_text(), encoded.to_text());
    }
}

/// A request object that must fail element decoding, picked from the
/// protocol's distinct failure classes.
fn random_bad_request(rng: &mut StdRng) -> Json {
    match rng.gen_range(0usize..5) {
        0 => Json::obj(vec![("op", Json::str("frobnicate"))]),
        1 => Json::obj(vec![("not-op", Json::Int(1))]),
        2 => Json::obj(vec![("op", Json::str("refine"))]), // missing view
        3 => Json::obj(vec![("op", Json::str("shutdown"))]), // forbidden in batches
        _ => Json::obj(vec![
            ("op", Json::str("batch")),
            ("requests", Json::Arr(vec![])),
        ]), // batches cannot nest
    }
}

#[test]
fn random_batches_decode_element_wise_with_order_preserved() {
    let seed = 20260731;
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..CASES {
        let n = rng.gen_range(0usize..12);
        // Each element is a valid solve request, a valid control op, or a
        // deliberately broken object; remember which, in order.
        let mut elements: Vec<(Json, bool)> = Vec::with_capacity(n);
        for _ in 0..n {
            match rng.gen_range(0usize..5) {
                0 => elements.push((random_bad_request(&mut rng), false)),
                1 => elements.push((Json::obj(vec![("op", Json::str("status"))]), true)),
                2 => elements.push((
                    Json::obj(vec![("op", Json::str("trace")), ("slow", Json::Bool(true))]),
                    true,
                )),
                _ => elements.push((random_request(&mut rng).to_json(), true)),
            }
        }
        let values: Vec<Json> = elements.iter().map(|(value, _)| value.clone()).collect();
        let line = encode_batch_request(&values);

        let Decoded::Batch(decoded) = decode_line(&line) else {
            panic!("seed {seed} case {case}: batch line decoded as single");
        };
        assert_eq!(decoded.len(), n, "seed {seed} case {case}");
        for (idx, ((original, valid), result)) in elements.iter().zip(&decoded).enumerate() {
            assert_eq!(
                result.is_ok(),
                *valid,
                "seed {seed} case {case} element {idx}: {original}"
            );
            // Order preservation: a decoded solve element re-encodes to its
            // original object, and control ops match their op name.
            match result {
                Ok(Request::Solve(solve)) => {
                    assert_eq!(
                        solve.to_json().to_text(),
                        original.to_text(),
                        "seed {seed} case {case} element {idx} out of order"
                    );
                }
                Ok(Request::Status) => {
                    assert_eq!(original.get("op").and_then(Json::as_str), Some("status"));
                }
                Ok(Request::Trace { slow_only, .. }) => {
                    assert_eq!(original.get("op").and_then(Json::as_str), Some("trace"));
                    assert!(slow_only, "seed {seed} case {case}: 'slow' flag dropped");
                }
                Ok(
                    Request::Shutdown
                    | Request::Promote
                    | Request::ReplSubscribe { .. }
                    | Request::Hello { .. },
                ) => {
                    panic!(
                        "seed {seed} case {case}: connection/server-wide ops must not \
                         decode in a batch"
                    )
                }
                Err(_) => {}
            }
        }
    }
}

#[test]
fn random_batch_responses_frame_elements_byte_identically() {
    let seed = 99173;
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..CASES {
        let n = rng.gen_range(0usize..10);
        let items: Vec<String> = (0..n)
            .map(|_| {
                if rng.gen_bool(0.3) {
                    let message: String = (0..rng.gen_range(0usize..12))
                        .map(|_| {
                            char::from_u32(rng.gen_range(32u32..127)).expect("printable ASCII")
                        })
                        .collect();
                    encode_error(&message)
                } else {
                    let source = match rng.gen_range(0usize..3) {
                        0 => Source::Solved,
                        1 => Source::Cache,
                        _ => Source::Coalesced,
                    };
                    let result = random_json(&mut rng, 2).to_text();
                    encode_success("refine", source, &result)
                }
            })
            .collect();
        let line = encode_batch(&items);
        let value = json::parse(&line)
            .unwrap_or_else(|err| panic!("seed {seed} case {case}: '{line}': {err}"));
        assert_eq!(value.get("ok").and_then(Json::as_bool), Some(true));
        let results = value.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(results.len(), n, "seed {seed} case {case}");
        // Canonical serialization: every parsed element re-encodes to the
        // exact bytes spliced into the envelope, in order — the batch-level
        // byte-identity guarantee.
        for (idx, (element, original)) in results.iter().zip(&items).enumerate() {
            assert_eq!(
                &element.to_text(),
                original,
                "seed {seed} case {case} element {idx}"
            );
        }
    }
}

/// Binary↔JSON framing equivalence: the same random request decoded
/// through the `bin1` payload codec and through the JSON line codec yields
/// the *same* typed request — same cache key, byte-identical canonical
/// re-encode — so both framings produce byte-identical `result_text`s
/// (responses are keyed and replayed by exactly those two properties),
/// tenant-tagged requests included.
#[test]
fn random_requests_decode_identically_under_both_framings() {
    let seed = 48151623;
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..CASES {
        let request = random_request(&mut rng);
        let line = request.to_json().to_text();
        let Ok(Request::Solve(via_json)) = decode_request(&line) else {
            panic!("seed {seed} case {case}: JSON decode rejected '{line}'");
        };
        let Decoded::Single(Ok(Request::Solve(via_bin))) =
            decode_payload(&encode_solve_bin(&request))
        else {
            panic!("seed {seed} case {case}: binary decode rejected the same request");
        };
        assert_eq!(
            via_bin.cache_key(),
            via_json.cache_key(),
            "seed {seed} case {case}: framings must agree on the cache key"
        );
        assert_eq!(
            via_bin.to_json().to_text(),
            via_json.to_json().to_text(),
            "seed {seed} case {case}: framings must agree byte-for-byte"
        );
        assert_eq!(via_bin.tenant, via_json.tenant, "seed {seed} case {case}");
    }
}

/// Error-envelope equivalence across framings: a batch mixing good, bad,
/// and tenant-tagged elements decodes to the same per-element outcomes —
/// errors in the same positions, identical requests elsewhere — whether it
/// travels as a JSON batch line or a `bin1` batch payload (with broken
/// elements riding the embedded-JSON escape hatch).
#[test]
fn random_batches_decode_identically_under_both_framings() {
    let seed = 31337;
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..CASES {
        let n = rng.gen_range(0usize..10);
        let values: Vec<Json> = (0..n)
            .map(|_| match rng.gen_range(0usize..4) {
                0 => random_bad_request(&mut rng),
                1 => Json::obj(vec![("op", Json::str("status"))]),
                _ => random_request(&mut rng).to_json(),
            })
            .collect();
        let line = encode_batch_request(&values);
        let Decoded::Batch(via_json) = decode_line(&line) else {
            panic!("seed {seed} case {case}: batch line decoded as single");
        };
        let elements: Vec<Vec<u8>> = values
            .iter()
            .map(|value| strudel_server::protocol::encode_json_payload(&value.to_text()))
            .collect();
        let payload = strudel_server::protocol::encode_batch_bin(&elements);
        let Decoded::Batch(via_bin) = decode_payload(&payload) else {
            panic!("seed {seed} case {case}: batch payload decoded as single");
        };
        assert_eq!(via_bin.len(), via_json.len(), "seed {seed} case {case}");
        for (idx, (bin, json_side)) in via_bin.iter().zip(&via_json).enumerate() {
            match (bin, json_side) {
                (Ok(Request::Solve(a)), Ok(Request::Solve(b))) => {
                    assert_eq!(
                        a.to_json().to_text(),
                        b.to_json().to_text(),
                        "seed {seed} case {case} element {idx}"
                    );
                }
                (Ok(a), Ok(b)) => assert_eq!(
                    std::mem::discriminant(a),
                    std::mem::discriminant(b),
                    "seed {seed} case {case} element {idx}"
                ),
                (Err(_), Err(_)) => {}
                (bin, json_side) => panic!(
                    "seed {seed} case {case} element {idx}: framings disagree \
                     (bin ok={}, json ok={})",
                    bin.is_ok(),
                    json_side.is_ok()
                ),
            }
        }
    }
}

/// Frame-level robustness: random frames survive encode → decode with
/// every field intact, every torn prefix asks for more bytes instead of
/// failing, and corruption (bad magic, oversized payload claims) is
/// rejected without consuming or corrupting a following healthy frame.
#[test]
fn random_frames_round_trip_and_reject_corruption_cleanly() {
    let seed = 60221413;
    let mut rng = StdRng::seed_from_u64(seed);
    let max_payload = 1 << 20;
    for case in 0..CASES {
        let tenant = if rng.gen_bool(0.4) {
            format!("tenant-{}", rng.gen_range(0u64..5))
        } else {
            String::new()
        };
        let payload: Vec<u8> = (0..rng.gen_range(0usize..200))
            .map(|_| rng.gen_range(0u64..256) as u8)
            .collect();
        let kind = if rng.gen_bool(0.5) {
            FrameKind::Request
        } else {
            FrameKind::Response
        };
        let mut wire = Vec::new();
        encode_frame_into(&mut wire, kind, &tenant, &payload);

        // Every strict prefix is "need more", never an error or a frame.
        for cut in 0..wire.len() {
            match try_decode_frame(&wire[..cut], max_payload) {
                Ok(None) => {}
                other => panic!(
                    "seed {seed} case {case}: cut {cut}/{} produced {other:?}",
                    wire.len()
                ),
            }
        }
        // The whole frame decodes with every field intact, and a trailing
        // healthy frame is untouched by the first one's consumption.
        let mut doubled = wire.clone();
        encode_frame_into(&mut doubled, FrameKind::Request, "", b"after");
        let view = try_decode_frame(&doubled, max_payload)
            .expect("healthy frame")
            .expect("complete frame");
        assert_eq!(view.kind, kind, "seed {seed} case {case}");
        assert_eq!(view.tenant, tenant, "seed {seed} case {case}");
        assert_eq!(view.payload, &payload[..], "seed {seed} case {case}");
        assert_eq!(view.consumed, wire.len(), "seed {seed} case {case}");
        let consumed = view.consumed;
        let second = try_decode_frame(&doubled[consumed..], max_payload)
            .expect("second frame healthy")
            .expect("second frame complete");
        assert_eq!(second.payload, b"after", "seed {seed} case {case}");

        // Corrupt magic is a hard error, not a request for more bytes.
        let mut bad_magic = wire.clone();
        bad_magic[0] ^= 0xFF;
        assert!(
            try_decode_frame(&bad_magic, max_payload).is_err(),
            "seed {seed} case {case}: bad magic must be fatal"
        );
        assert_ne!(FRAME_MAGIC[0] ^ 0xFF, FRAME_MAGIC[0]);

        // A payload-length claim beyond the decoder's cap is refused
        // up front — oversized frames never buffer unboundedly.
        assert!(
            try_decode_frame(&wire, payload.len().saturating_sub(1)).is_err() || payload.is_empty(),
            "seed {seed} case {case}: oversized payload claims must be fatal"
        );
    }
}

fn random_json(rng: &mut StdRng, depth: usize) -> Json {
    let pick = if depth == 0 {
        rng.gen_range(0usize..4) // leaves only
    } else {
        rng.gen_range(0usize..6)
    };
    match pick {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => Json::Int(rng.gen_range(0u64..u64::MAX / 4) as i64 - (i64::MAX / 4)),
        3 => {
            let len = rng.gen_range(0usize..12);
            let text: String = (0..len)
                .map(|_| {
                    // Bias towards characters that exercise escaping.
                    match rng.gen_range(0usize..8) {
                        0 => '"',
                        1 => '\\',
                        2 => '\n',
                        3 => '\u{9}',
                        4 => '\u{1}',
                        5 => 'π',
                        6 => '🦀',
                        _ => char::from_u32(rng.gen_range(32u32..127)).expect("printable ASCII"),
                    }
                })
                .collect();
            Json::Str(text)
        }
        4 => Json::Arr(
            (0..rng.gen_range(0usize..5))
                .map(|_| random_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.gen_range(0usize..5))
                .map(|i| (format!("key{i}"), random_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

#[test]
fn random_json_values_reparse_byte_identically() {
    let seed = 7;
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..CASES {
        let value = random_json(&mut rng, 3);
        let text = value.to_text();
        let back = json::parse(&text)
            .unwrap_or_else(|err| panic!("seed {seed} case {case}: '{text}': {err}"));
        assert_eq!(back, value, "seed {seed} case {case}");
        assert_eq!(back.to_text(), text, "seed {seed} case {case}");
    }
}
