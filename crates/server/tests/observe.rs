//! E2e tests of the observability surface over real TCP: the `trace` wire
//! command on both poller backends and both framings, the slow-request
//! log's promotion past sampling, tenant-tagged histograms, and the
//! accuracy contract — the observe block's per-stage latencies must
//! account for the end-to-end latency a client actually measures.

mod common;

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use strudel_core::sigma::SigmaSpec;
use strudel_rdf::signature::SignatureView;
use strudel_rules::prelude::Ratio;
use strudel_server::prelude::*;

fn start_traced_server(
    kind: Option<PollerKind>,
    trace_sample: Option<u64>,
    trace_slow_ms: Option<u64>,
) -> ServerHandle {
    server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_capacity: 64,
        poller: kind,
        trace_sample,
        trace_slow_ms,
        ..ServerConfig::default()
    })
    .expect("binding an ephemeral port")
}

/// A view big enough that a cold greedy refine takes measurable time.
fn test_view(salt: usize) -> SignatureView {
    let properties: Vec<String> = (0..10).map(|i| format!("http://ex/p{i}")).collect();
    let signatures: Vec<(Vec<usize>, usize)> = (0..24)
        .map(|i| {
            let width = 1 + (i % 5);
            let start = i % 6;
            ((start..start + width).collect(), 10 + (i * 7 + salt) % 90)
        })
        .collect();
    SignatureView::from_counts(properties, signatures).expect("valid synthetic view")
}

fn refine_request(salt: usize, tenant: Option<&str>) -> SolveRequest {
    SolveRequest {
        op: SolveOp::Refine,
        view: test_view(salt),
        spec: SigmaSpec::Coverage,
        engine: EngineKind::Greedy,
        k: Some(3),
        theta: Some(Ratio::new(4, 5)),
        step: None,
        max_k: None,
        time_limit: None,
        routing: None,
        tenant: tenant.map(str::to_owned),
    }
}

/// The spans of a `trace` response body, panicking on a malformed shape.
fn spans_of(response: &Response) -> Vec<Json> {
    let result = response.result().expect("trace succeeds");
    assert!(result.get("depth").and_then(Json::as_int).is_some());
    assert!(result.get("dropped").and_then(Json::as_int).is_some());
    match result.get("spans") {
        Some(Json::Arr(spans)) => spans.clone(),
        other => panic!("spans must be an array, got {other:?}"),
    }
}

/// Asserts one span carries every field of the wire contract, with the
/// stage micros partitioning the total.
fn assert_well_formed(span: &Json) {
    for key in ["seq", "conn", "nodes", "total_us"] {
        assert!(
            span.get(key).and_then(Json::as_int).is_some(),
            "span lacks integer {key}: {span}"
        );
    }
    for key in ["tenant", "op", "outcome", "engine"] {
        assert!(
            span.get(key).and_then(Json::as_str).is_some(),
            "span lacks string {key}: {span}"
        );
    }
    assert!(
        span.get("slow").and_then(Json::as_bool).is_some(),
        "span lacks slow flag: {span}"
    );
    let stage = |key: &str| span.get(key).and_then(Json::as_int).expect("stage micros");
    let sum = stage("decode_us")
        + stage("admission_us")
        + stage("cache_us")
        + stage("solve_us")
        + stage("flush_us");
    let total = stage("total_us");
    // The laps partition the request's wall time by construction.
    assert!(
        sum <= total && total - sum <= total / 5 + 50,
        "stage micros must account for the total: sum {sum}, total {total}, span {span}"
    );
}

#[test]
fn trace_returns_sampled_spans_on_both_framings() {
    common::for_each_backend("trace_returns_sampled_spans_on_both_framings", |kind| {
        let handle = start_traced_server(Some(kind), Some(1), None);
        let addr = handle.addr();
        for framing in [FramingMode::Json, FramingMode::Bin1] {
            let options = ClientOptions {
                framing: Some(framing),
                ..ClientOptions::default()
            };
            let mut client = Client::connect_with(addr, options).expect("connect");
            client
                .solve(&refine_request(0, None))
                .expect("solve succeeds");
            let response = client.trace(false, None).expect("trace succeeds");
            let spans = spans_of(&response);
            assert!(!spans.is_empty(), "1/1 sampling must record every solve");
            for span in &spans {
                assert_well_formed(span);
                assert_eq!(span.get("op").and_then(Json::as_str), Some("refine"));
                assert_eq!(span.get("slow").and_then(Json::as_bool), Some(false));
            }
            // Sequence numbers are monotonically increasing.
            let seqs: Vec<i64> = spans
                .iter()
                .map(|span| span.get("seq").and_then(Json::as_int).unwrap())
                .collect();
            assert!(seqs.windows(2).all(|pair| pair[0] < pair[1]), "{seqs:?}");
        }
        handle.shutdown();
        handle.wait();
    });
}

#[test]
fn slow_log_promotes_past_sampling_and_tenants_filter() {
    common::for_each_backend(
        "slow_log_promotes_past_sampling_and_tenants_filter",
        |kind| {
            // Sampling off entirely; a 0 ms threshold promotes every request.
            let handle = start_traced_server(Some(kind), Some(0), Some(0));
            let addr = handle.addr();
            let mut client = Client::connect(addr).expect("connect");
            client
                .solve(&refine_request(0, None))
                .expect("default-tenant solve");
            client
                .solve(&refine_request(1, Some("acme")))
                .expect("acme solve");

            let all = spans_of(&client.trace(false, None).expect("trace"));
            assert_eq!(all.len(), 2, "0 ms slow log records everything");
            for span in &all {
                assert_well_formed(span);
                assert_eq!(span.get("slow").and_then(Json::as_bool), Some(true));
            }
            let slow_only = spans_of(&client.trace(true, None).expect("trace --slow"));
            assert_eq!(slow_only.len(), 2);
            let acme = spans_of(&client.trace(false, Some("acme")).expect("tenant filter"));
            assert_eq!(acme.len(), 1);
            assert_eq!(
                acme[0].get("tenant").and_then(Json::as_str),
                Some("acme"),
                "tenant filter must only return that tenant's spans"
            );

            // The observe block tags the tenant's total histogram too.
            let status = client.status().expect("status");
            let result = status.result().expect("status result");
            let tenants = match result.get("observe").and_then(|o| o.get("tenants")) {
                Some(Json::Arr(tenants)) => tenants.clone(),
                other => panic!("observe.tenants must be an array, got {other:?}"),
            };
            let names: Vec<&str> = tenants
                .iter()
                .filter_map(|t| t.get("name").and_then(Json::as_str))
                .collect();
            assert!(names.contains(&"acme"), "tenants: {names:?}");

            handle.shutdown();
            handle.wait();
        },
    );
}

/// A refine the victim connection will not live to see answered. The time
/// limit is a cap that the search reaches undecided (the test asserts it in
/// process), and it frees the worker promptly after the abort. At k = 8 and
/// θ = 99/100 the search proves the view infeasible in a few nodes, too
/// fast for the victim to die first.
fn doomed_request() -> SolveRequest {
    SolveRequest {
        op: SolveOp::Refine,
        view: common::hard_view(),
        spec: SigmaSpec::Coverage,
        engine: EngineKind::Ilp,
        k: Some(3),
        theta: Some(Ratio::new(3, 4)),
        step: None,
        max_k: None,
        time_limit: Some(Duration::from_millis(600)),
        routing: None,
        tenant: Some("doomed".to_owned()),
    }
}

/// The orphaned-span regression: a connection that dies with a solve
/// still in flight must close that span as `aborted` — not leak it (the
/// old bug: the span waited forever on a flush that could never happen,
/// invisible to the histograms and the flight recorder alike).
#[test]
fn a_dying_connection_closes_its_spans_as_aborted() {
    // The premise: the doomed solve is still in flight when the victim
    // dies. A search that decides it within its cap flushes the answer
    // before the RST, and no span can be aborted.
    common::assert_stays_undecided(&doomed_request());

    common::for_each_backend("a_dying_connection_closes_its_spans_as_aborted", |kind| {
        // 0 ms slow threshold: every finished span reaches the recorder,
        // aborted ones included.
        let handle = start_traced_server(Some(kind), Some(0), Some(0));
        let addr = handle.addr();

        // The victim speaks line-JSON on a raw socket — the Client type
        // insists on reading each response, and the point here is to
        // leave one unread and then disappear.
        let mut victim = TcpStream::connect(addr).expect("victim connects");
        victim
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let fast = refine_request(0, None).to_json().to_text();
        victim
            .write_all(fast.as_bytes())
            .and_then(|()| victim.write_all(b"\n"))
            .expect("fast request");
        // Block until the fast response is sitting *unread* in the
        // victim's receive buffer: dropping a socket with unread data
        // makes the kernel send RST rather than FIN, which is what kills
        // the connection server-side while the next solve is in flight.
        let mut peeked = [0u8; 1];
        victim
            .peek(&mut peeked)
            .expect("fast response reaches the victim's buffer");

        let slow = doomed_request().to_json().to_text();
        victim
            .write_all(slow.as_bytes())
            .and_then(|()| victim.write_all(b"\n"))
            .expect("slow request");
        // Long enough for the event loop to read and dispatch the slow
        // solve; far shorter than the solve itself.
        std::thread::sleep(Duration::from_millis(100));
        drop(victim); // unread data in the buffer: this close is an RST

        // The span closes when the stranded completion lands, so give the
        // poll loop the solve's full time budget plus slack.
        let mut observer = Client::connect(addr).expect("observer connects");
        let deadline = Instant::now() + Duration::from_secs(5);
        let aborted = loop {
            let spans = spans_of(&observer.trace(false, Some("doomed")).expect("trace"));
            let found = spans
                .iter()
                .find(|span| span.get("outcome").and_then(Json::as_str) == Some("aborted"));
            if let Some(span) = found {
                break span.clone();
            }
            assert!(
                Instant::now() < deadline,
                "no aborted span surfaced; tenant spans: {spans:?}"
            );
            std::thread::sleep(Duration::from_millis(25));
        };
        // The aborted span is a full citizen of the wire contract: the
        // work is priced into the stage laps like any flushed span.
        assert_well_formed(&aborted);
        assert_eq!(aborted.get("op").and_then(Json::as_str), Some("refine"));
        assert_eq!(aborted.get("tenant").and_then(Json::as_str), Some("doomed"));

        handle.shutdown();
        handle.wait();
    });
}

#[test]
fn observe_stage_latencies_account_for_measured_e2e_latency() {
    // Slow log at 0 ms: every request is timed, so the stage histograms
    // see the full population — no sampling noise in the comparison.
    let handle = start_traced_server(None, Some(0), Some(0));
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");

    // Cold solves of near-identical cost (distinct tenants force distinct
    // cache keys), each measured end-to-end at the client.
    const ROUNDS: usize = 7;
    let mut measured_us: Vec<u64> = (0..ROUNDS)
        .map(|round| {
            let tenant = format!("t{round}");
            let request = refine_request(0, Some(&tenant));
            let started = Instant::now();
            client.solve(&request).expect("cold solve");
            started.elapsed().as_micros() as u64
        })
        .collect();
    measured_us.sort_unstable();
    let measured_median = measured_us[ROUNDS / 2];

    let status = client.status().expect("status");
    let result = status.result().expect("status result");
    let observe = result.get("observe").expect("observe block");
    let stages = observe.get("stages").expect("stage histograms");
    let p50_sum: i64 = ["decode", "admission", "cache", "solve", "flush"]
        .iter()
        .map(|stage| {
            stages
                .get(stage)
                .and_then(|s| s.get("p50"))
                .and_then(Json::as_int)
                .expect("stage p50")
        })
        .sum();
    let p50_sum = p50_sum as f64;
    let median = measured_median as f64;
    // The acceptance bar: the per-stage medians must account for what the
    // client actually measured, within 20%. Bucketing errs high by at most
    // 12.5%; the client side adds connect/RTT the server never sees, which
    // errs the measurement high instead — both stay inside the window when
    // the solves are the dominant term.
    assert!(
        (p50_sum - median).abs() <= 0.20 * median,
        "stage p50 sum {p50_sum} vs measured median {median} drifts beyond 20% \
         (measured spread: {measured_us:?})"
    );

    handle.shutdown();
    handle.wait();
}
