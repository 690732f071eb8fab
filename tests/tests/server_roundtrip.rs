//! End-to-end client/server integration: a real `strudel-server` on a real
//! TCP port, driven by concurrent clients, proving the acceptance criteria
//! of the service —
//!
//! * concurrent TCP clients are served correctly,
//! * a repeated identical `refine` request is answered from the cache,
//!   observable through the `status` counters,
//! * the cold and the cached answer are **byte-identical**,
//! * the answer agrees with solving the same instance in-process.

use std::thread;

use strudel_core::prelude::*;
use strudel_integration::small_persons_view;
use strudel_rules::prelude::Ratio;
use strudel_server::prelude::*;

fn start_test_server() -> ServerHandle {
    server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_capacity: 32,
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral port")
}

fn persons_refine_request() -> SolveRequest {
    SolveRequest {
        op: SolveOp::Refine,
        view: small_persons_view(),
        spec: SigmaSpec::Coverage,
        engine: EngineKind::Hybrid,
        k: Some(2),
        theta: Some(Ratio::new(3, 4)),
        step: None,
        max_k: None,
        time_limit: None,
        routing: None,
        tenant: None,
    }
}

#[test]
fn repeated_refine_hits_the_cache_with_byte_identical_answers() {
    let handle = start_test_server();
    let mut client = Client::connect(handle.addr()).expect("connect");

    let request = persons_refine_request();
    let cold = client.solve(&request).expect("cold solve");
    assert_eq!(cold.source(), Some(Source::Solved));

    let cached = client.solve(&request).expect("cached solve");
    assert_eq!(cached.source(), Some(Source::Cache));

    // The bar: byte-identical result payloads, compared on
    // the raw bytes the server sent, not on re-serialized values.
    let cold_bytes = cold.result_text().expect("cold result bytes");
    let cached_bytes = cached.result_text().expect("cached result bytes");
    assert_eq!(
        cold_bytes, cached_bytes,
        "cache replay must be byte-identical"
    );
    assert!(!cold_bytes.is_empty());

    // …and the cache hit is observable through the status counters.
    let status = client.status().expect("status");
    let cache = status
        .result()
        .and_then(|result| result.get("cache"))
        .expect("status carries cache counters")
        .clone();
    let hits = cache.get("hits").and_then(Json::as_int).unwrap();
    assert!(
        hits >= 1,
        "status must show at least one cache hit: {cache:?}"
    );

    client.shutdown().expect("shutdown");
    handle.wait();
}

#[test]
fn server_answers_agree_with_in_process_solving() {
    let handle = start_test_server();
    let mut client = Client::connect(handle.addr()).expect("connect");

    let request = persons_refine_request();
    let response = client.solve(&request).expect("solve");
    let result = response.result().expect("result");

    // Solve the identical instance in-process with the same engine family.
    let engine = HybridEngine::new();
    let outcome = engine
        .refine(
            &request.view,
            &request.spec,
            request.k.unwrap(),
            request.theta.unwrap(),
        )
        .expect("in-process solve");

    match (result.get("outcome").and_then(Json::as_str), &outcome) {
        (Some("refinement"), RefineOutcome::Refinement(local)) => {
            let remote = strudel_server::protocol::refinement_from_json(
                result.get("refinement").expect("refinement payload"),
            )
            .expect("decodable refinement")
            .to_refinement()
            .expect("convertible refinement");
            // Both refinements must be valid for the instance and agree on
            // the headline numbers (engines are deterministic here, but
            // sort-internal ordering is the representation's business).
            remote
                .validate(&request.view)
                .expect("remote refinement is valid");
            local
                .validate(&request.view)
                .expect("local refinement is valid");
            assert_eq!(remote.k(), local.k());
            assert_eq!(remote.total_subjects(), local.total_subjects());
            assert_eq!(remote.min_sigma(), local.min_sigma());
        }
        (Some("infeasible"), RefineOutcome::Infeasible) => {}
        (Some("unknown"), RefineOutcome::Unknown) => {}
        (got, expected) => panic!("server said {got:?}, in-process gave {expected:?}"),
    }

    client.shutdown().expect("shutdown");
    handle.wait();
}

#[test]
fn concurrent_clients_all_get_correct_answers() {
    let handle = start_test_server();
    let addr = handle.addr();

    // Half the clients repeat one instance (exercising cache + coalescing),
    // half ask distinct instances (exercising parallel solving).
    let mut joins = Vec::new();
    for worker in 0..6 {
        joins.push(thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let mut request = persons_refine_request();
            if worker % 2 == 1 {
                // Distinct thresholds make distinct instances.
                request.theta = Some(Ratio::new(1, 2 + worker as i128));
            }
            let response = client.solve(&request).expect("solve");
            let outcome = response
                .result()
                .and_then(|result| result.get("outcome"))
                .and_then(Json::as_str)
                .expect("every response states an outcome")
                .to_owned();
            (worker, outcome, response.result_text().unwrap().to_owned())
        }));
    }
    let mut identical_payloads = Vec::new();
    for join in joins {
        let (worker, outcome, payload) = join.join().expect("client thread");
        assert!(
            outcome == "refinement" || outcome == "infeasible" || outcome == "unknown",
            "worker {worker} got outcome {outcome}"
        );
        if worker % 2 == 0 {
            identical_payloads.push(payload);
        }
    }
    // All repeats of the identical instance received identical bytes.
    for payload in &identical_payloads[1..] {
        assert_eq!(payload, &identical_payloads[0]);
    }

    let mut client = Client::connect(addr).expect("connect");
    let status = client.status().expect("status");
    let requests = status
        .result()
        .and_then(|result| result.get("requests"))
        .expect("request counters")
        .clone();
    assert_eq!(
        requests.get("refine").and_then(Json::as_int),
        Some(6),
        "all six solve requests were counted: {requests:?}"
    );

    client.shutdown().expect("shutdown");
    handle.wait();
}
