//! Service-level tests over real TCP: concurrency, single-flight
//! accounting, cache behaviour, batch envelopes, persistence/warm starts,
//! graceful shutdown, and protocol robustness.
//!
//! The behavior-critical tests (byte-identical warm starts,
//! drain-on-shutdown, slow-reader flushing) run once per poller backend
//! via [`common::for_each_backend`]; the rest honor the `STRUDEL_POLLER`
//! override, which CI uses to re-run the whole suite per backend.

mod common;

use std::path::PathBuf;
use std::sync::Arc;
use std::thread;

use strudel_core::sigma::SigmaSpec;
use strudel_rdf::signature::SignatureView;
use strudel_rules::prelude::Ratio;
use strudel_server::prelude::*;

fn start_test_server(workers: usize, cache_capacity: usize) -> ServerHandle {
    server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        cache_capacity,
        ..ServerConfig::default()
    })
    .expect("binding an ephemeral port")
}

fn start_test_server_on(kind: PollerKind, workers: usize, cache_capacity: usize) -> ServerHandle {
    server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        cache_capacity,
        poller: Some(kind),
        ..ServerConfig::default()
    })
    .expect("binding an ephemeral port")
}

/// A scratch path for persistent-cache tests. CI points
/// `STRUDEL_TEST_PERSIST_DIR` at a tmpfs mount; everywhere else the system
/// temp dir is used.
fn persist_path(tag: &str) -> PathBuf {
    let dir = std::env::var_os("STRUDEL_TEST_PERSIST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    dir.join(format!("strudel-test-{tag}-{}.segment", std::process::id()))
}

/// A view large enough that a hybrid highest-theta search takes visible
/// time, widening the single-flight window.
fn chunky_view() -> SignatureView {
    let properties: Vec<String> = (0..10).map(|i| format!("http://ex/p{i}")).collect();
    let signatures: Vec<(Vec<usize>, usize)> = (0..24)
        .map(|i| {
            let width = 1 + (i % 5);
            let start = i % 6;
            ((start..start + width).collect(), 10 + (i * 7) % 90)
        })
        .collect();
    SignatureView::from_counts(properties, signatures).expect("valid synthetic view")
}

fn refine_request(theta: Ratio) -> SolveRequest {
    SolveRequest {
        op: SolveOp::Refine,
        view: chunky_view(),
        spec: SigmaSpec::Coverage,
        engine: EngineKind::Greedy,
        k: Some(3),
        theta: Some(theta),
        step: None,
        max_k: None,
        time_limit: None,
        routing: None,
        tenant: None,
    }
}

#[test]
fn concurrent_identical_requests_solve_exactly_once() {
    let handle = start_test_server(2, 64);
    let addr = handle.addr();
    let request = Arc::new(SolveRequest {
        op: SolveOp::HighestTheta,
        view: chunky_view(),
        spec: SigmaSpec::Coverage,
        engine: EngineKind::Greedy,
        k: Some(3),
        theta: None,
        step: Some(Ratio::new(1, 100)),
        max_k: None,
        time_limit: None,
        routing: None,
        tenant: None,
    });

    const CLIENTS: usize = 8;
    let mut joins = Vec::new();
    for _ in 0..CLIENTS {
        let request = Arc::clone(&request);
        joins.push(thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let response = client.solve(&request).expect("solve succeeds");
            (
                response.source().expect("success has a source"),
                response
                    .result_text()
                    .expect("success has a result")
                    .to_owned(),
            )
        }));
    }
    let outcomes: Vec<(Source, String)> = joins.into_iter().map(|j| j.join().unwrap()).collect();

    // Everyone got the same bytes, whatever path served them.
    let reference = &outcomes[0].1;
    for (_, text) in &outcomes {
        assert_eq!(text, reference, "all clients share one answer");
    }

    let mut status_client = Client::connect(addr).expect("connect for status");
    let status = status_client.status().expect("status");
    let result = status.result().expect("status result");
    let cache = result.get("cache").expect("cache block");
    let flight = result.get("singleflight").expect("singleflight block");
    let insertions = cache.get("insertions").unwrap().as_int().unwrap();
    let hits = cache.get("hits").unwrap().as_int().unwrap();
    let leaders = flight.get("leaders").unwrap().as_int().unwrap();
    let shared = flight.get("shared").unwrap().as_int().unwrap();

    // The load-bearing invariant: CLIENTS identical requests caused exactly
    // one solve — one cache insertion, one client observing source=solved.
    // The others coalesced onto the leader or hit the cache afterwards.
    assert_eq!(insertions, 1, "identical requests must solve once");
    assert!(
        leaders >= 1 && leaders + shared + hits >= CLIENTS as i64,
        "every request is accounted for: leaders={leaders} shared={shared} hits={hits}"
    );
    let sources: Vec<Source> = outcomes.iter().map(|(source, _)| *source).collect();
    assert_eq!(
        sources.iter().filter(|s| **s == Source::Solved).count(),
        1,
        "exactly one client observed the solve: {sources:?}"
    );

    status_client.shutdown().expect("shutdown");
    handle.wait();
}

#[test]
fn distinct_requests_do_not_share_cache_entries() {
    let handle = start_test_server(2, 64);
    let mut client = Client::connect(handle.addr()).expect("connect");

    let half = client.solve(&refine_request(Ratio::new(1, 2))).unwrap();
    let third = client.solve(&refine_request(Ratio::new(1, 3))).unwrap();
    assert_eq!(half.source(), Some(Source::Solved));
    assert_eq!(third.source(), Some(Source::Solved));

    // Re-asking either comes from the cache, with its own entry.
    let half_again = client.solve(&refine_request(Ratio::new(1, 2))).unwrap();
    assert_eq!(half_again.source(), Some(Source::Cache));
    assert_eq!(half_again.result_text(), half.result_text());

    let status = client.status().unwrap();
    let entries = status
        .result()
        .unwrap()
        .get("cache")
        .unwrap()
        .get("entries")
        .unwrap()
        .as_int()
        .unwrap();
    assert_eq!(entries, 2, "two distinct instances, two cache entries");

    client.shutdown().unwrap();
    handle.wait();
}

#[test]
fn lru_eviction_is_observable_through_status() {
    // Capacity 2: the third distinct instance evicts the least recent.
    let handle = start_test_server(1, 2);
    let mut client = Client::connect(handle.addr()).expect("connect");

    client.solve(&refine_request(Ratio::new(1, 2))).unwrap();
    client.solve(&refine_request(Ratio::new(1, 3))).unwrap();
    // Touch 1/2 so 1/3 is the LRU victim.
    assert_eq!(
        client
            .solve(&refine_request(Ratio::new(1, 2)))
            .unwrap()
            .source(),
        Some(Source::Cache)
    );
    client.solve(&refine_request(Ratio::new(1, 4))).unwrap();

    // 1/3 was evicted: asking again re-solves; 1/2 survived: cache.
    assert_eq!(
        client
            .solve(&refine_request(Ratio::new(1, 3)))
            .unwrap()
            .source(),
        Some(Source::Solved),
        "the LRU entry must have been evicted"
    );
    assert_eq!(
        client
            .solve(&refine_request(Ratio::new(1, 4)))
            .unwrap()
            .source(),
        Some(Source::Cache)
    );

    let status = client.status().unwrap();
    let evictions = status
        .result()
        .unwrap()
        .get("cache")
        .unwrap()
        .get("evictions")
        .unwrap()
        .as_int()
        .unwrap();
    assert!(evictions >= 2, "evictions must be counted, saw {evictions}");

    client.shutdown().unwrap();
    handle.wait();
}

#[test]
fn malformed_lines_get_error_responses_and_the_connection_survives() {
    let handle = start_test_server(1, 8);
    let mut client = Client::connect(handle.addr()).expect("connect");

    // A refine line with the given theta text and rule text.
    let refine_line = |theta: &str, rule: &str| {
        format!(
            "{{\"op\":\"refine\",\"view\":{{\"properties\":[\"p\"],\"signatures\":[[[0],1]]}},\"k\":1,\"theta\":\"{theta}\",\"rule\":\"{rule}\"}}"
        )
    };
    let atom = "val(c) = 1";
    let deep = 100_000;
    let mut bad_lines: Vec<String> = [
        "this is not json",
        "{\"op\":\"frobnicate\"}",
        "{\"no\":\"op\"}",
        "{\"op\":\"refine\"}",
        "{\"op\":\"refine\",\"view\":{\"properties\":[\"p\"],\"signatures\":[[[7],1]]},\"k\":1,\"theta\":\"1/2\"}",
        "{\"op\":\"refine\",\"view\":{\"properties\":[\"p\"],\"signatures\":[[[0],1]]},\"k\":1,\"theta\":\"0.5.5\"}",
    ]
    .map(str::to_owned)
    .into();
    let rule_line = |antecedent: String| refine_line("1/2", &format!("{antecedent} -> {atom}"));
    bad_lines.extend([
        // i128::MIN as a denominator once panicked the event-loop thread.
        refine_line("1/-170141183460469231731687303715884105728", "cov"),
        // Rules nested this deep once overflowed the event-loop stack.
        rule_line(format!("{}{atom}{}", "(".repeat(deep), ")".repeat(deep))),
        rule_line("not ".repeat(deep) + atom),
        rule_line(atom.to_owned() + &format!(" and {atom}").repeat(deep)),
        rule_line(atom.to_owned() + &format!(" or {atom}").repeat(deep)),
        // A step this small once made one sweep record probes until the
        // worker's memory ran out.
        "{\"op\":\"highest-theta\",\"view\":{\"properties\":[\"p\"],\"signatures\":[[[0],1]]},\"k\":2,\"step\":\"1/1000000000000\"}".to_owned(),
    ]);
    for bad in &bad_lines {
        let raw = client.call_raw(bad).expect("connection stays up");
        assert!(raw.starts_with("{\"ok\":false,"), "for {bad:.120}: {raw}");
    }

    // A step too large to cross-multiply once panicked the event-loop
    // thread at decode. It decodes: refine ignores the step, and
    // highest-theta reports its overflow from a worker.
    let huge_step = |op: &str| {
        format!(
            "{{\"op\":\"{op}\",\"view\":{{\"properties\":[\"p\",\"q\"],\"signatures\":[[[0],9],[[0,1],1]]}},\"k\":1,\"theta\":\"1/2\",\"step\":\"170141183460469231731687303715884105727\"}}"
        )
    };
    for (op, answer) in [
        ("refine", "{\"ok\":true,"),
        ("highest-theta", "{\"ok\":false,"),
    ] {
        let raw = client
            .call_raw(&huge_step(op))
            .expect("connection stays up");
        assert!(raw.starts_with(answer), "for {op}: {raw}");
    }

    // The same connection still serves good requests afterwards.
    let response = client.solve(&refine_request(Ratio::new(1, 2))).unwrap();
    assert_eq!(response.source(), Some(Source::Solved));

    client.shutdown().unwrap();
    handle.wait();
}

/// A `k` far past the view's signature count asks the signature count's
/// question; it once made a worker allocate `k` sorts and abort `serve`.
#[test]
fn a_huge_k_is_answered_and_the_server_keeps_serving() {
    let handle = start_test_server(1, 8);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let view = "{\"properties\":[\"p\",\"q\"],\"signatures\":[[[0],9],[[0,1],1]]}";
    let k = 1u64 << 40;
    let lines = [
        format!("{{\"op\":\"refine\",\"view\":{view},\"k\":{k},\"theta\":\"1/2\"}}"),
        format!(
            "{{\"op\":\"refine\",\"view\":{view},\"k\":{k},\"theta\":\"1/2\",\"engine\":\"ilp\"}}"
        ),
        format!("{{\"op\":\"highest-theta\",\"view\":{view},\"k\":{k}}}"),
    ];
    for line in &lines {
        let raw = client.call_raw(line).expect("the server answers");
        assert!(raw.starts_with("{\"ok\":true,"), "for {line}: {raw}");
    }

    let response = client.solve(&refine_request(Ratio::new(1, 2))).unwrap();
    assert_eq!(response.source(), Some(Source::Solved));

    client.shutdown().unwrap();
    handle.wait();
}

#[test]
fn batches_preserve_order_isolate_errors_and_coalesce_duplicates() {
    let handle = start_test_server(2, 64);
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Warm one entry so the batch mixes a cache hit with cold solves.
    let warm = refine_request(Ratio::new(1, 2));
    client.solve(&warm).expect("warm the cache");

    let requests = vec![
        warm.to_json(),                                                  // [0] cache hit
        Json::obj(vec![("op", Json::str("status"))]),                    // [1] control op
        strudel_server::json::parse("{\"op\":\"frobnicate\"}").unwrap(), // [2] bad element
        refine_request(Ratio::new(1, 5)).to_json(),                      // [3] cold solve
        refine_request(Ratio::new(1, 5)).to_json(),                      // [4] duplicate of [3]
        strudel_server::json::parse("{\"op\":\"shutdown\"}").unwrap(),   // [5] forbidden in batch
    ];
    let outcomes = client.call_batch(&requests).expect("batch call");
    assert_eq!(outcomes.len(), 6, "one result per request, in order");

    let ok = |idx: usize| outcomes[idx].as_ref().expect("element succeeds");
    assert_eq!(ok(0).source(), Some(Source::Cache));
    assert_eq!(
        ok(0).result_text(),
        client.solve(&warm).unwrap().result_text(),
        "cached element keeps byte-identity inside a batch"
    );
    assert_eq!(ok(1).value.get("op").and_then(Json::as_str), Some("status"));
    assert!(outcomes[2].is_err(), "bad element fails alone");
    assert_eq!(ok(3).source(), Some(Source::Solved));
    assert_eq!(
        ok(4).source(),
        Some(Source::Coalesced),
        "identical element in the same batch shares the leader's solve"
    );
    assert_eq!(ok(4).result_text(), ok(3).result_text());
    assert!(
        outcomes[5].is_err(),
        "shutdown is rejected inside a batch: {:?}",
        outcomes[5]
    );

    // The server is still up (the embedded shutdown was rejected).
    let status = client.status().expect("still serving");
    let requests_block = status.result().unwrap().get("requests").unwrap().clone();
    assert_eq!(requests_block.get("batch").and_then(Json::as_int), Some(1));
    assert_eq!(
        requests_block.get("batched").and_then(Json::as_int),
        Some(6)
    );

    client.shutdown().expect("shutdown");
    handle.wait();
}

#[test]
fn status_exposes_evictions_capacity_batch_counters_and_open_connections() {
    // Capacity 2 forces evictions; a parked second client raises the gauge.
    let handle = start_test_server(1, 2);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let _parked = Client::connect(handle.addr()).expect("second connection");

    for denominator in 2..6 {
        client
            .solve(&refine_request(Ratio::new(1, denominator)))
            .expect("solve");
    }
    // One batch envelope with two elements, for the batch counters.
    let outcomes = client
        .call_batch(&[
            refine_request(Ratio::new(1, 2)).to_json(),
            refine_request(Ratio::new(1, 3)).to_json(),
        ])
        .expect("batch");
    assert_eq!(outcomes.len(), 2);

    let status = client.status().expect("status");
    let result = status.result().expect("status result").clone();
    let int = |block: &str, field: &str| {
        result
            .get(block)
            .and_then(|b| b.get(field))
            .and_then(Json::as_int)
            .unwrap_or_else(|| panic!("status lacks {block}.{field}: {result:?}"))
    };
    assert!(int("cache", "evictions") >= 2, "4 inserts into capacity 2");
    assert_eq!(int("cache", "capacity"), 2);
    assert_eq!(int("requests", "batch"), 1);
    assert_eq!(int("requests", "batched"), 2);
    assert!(
        result
            .get("open_connections")
            .and_then(Json::as_int)
            .expect("open-connection gauge")
            >= 2,
        "both live connections are gauged: {result:?}"
    );
    // No persistence configured: the block is explicitly null.
    assert_eq!(result.get("persist"), Some(&Json::Null));

    client.shutdown().expect("shutdown");
    handle.wait();
}

#[test]
fn warm_start_replays_the_segment_and_serves_byte_identical_answers() {
    common::for_each_backend("warm-start", warm_start_leg);
}

fn warm_start_leg(kind: PollerKind) {
    let path = persist_path(&format!("warm-start-{kind}"));
    std::fs::remove_file(&path).ok();
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_capacity: 64,
        persist_path: Some(path.clone()),
        poller: Some(kind),
        ..ServerConfig::default()
    };

    // First life: solve a few instances cold, remember the exact bytes.
    let thetas = [Ratio::new(1, 2), Ratio::new(1, 3), Ratio::new(2, 3)];
    let mut cold_bytes = Vec::new();
    {
        let handle = server::start(&config).expect("first life");
        let mut client = Client::connect(handle.addr()).expect("connect");
        for theta in thetas {
            let response = client.solve(&refine_request(theta)).expect("cold solve");
            assert_eq!(response.source(), Some(Source::Solved));
            cold_bytes.push(response.result_text().expect("result bytes").to_owned());
        }
        client.shutdown().expect("shutdown");
        handle.wait(); // drains and flushes the segment
    }

    // Second life: same segment, fresh process state. Every previously
    // cached request must be answered from the cache — no recomputation —
    // with byte-identical result payloads.
    let handle = server::start(&config).expect("second life");
    let mut client = Client::connect(handle.addr()).expect("connect");
    for (theta, cold) in thetas.into_iter().zip(&cold_bytes) {
        let response = client.solve(&refine_request(theta)).expect("warm solve");
        assert_eq!(
            response.source(),
            Some(Source::Cache),
            "a restarted server must not recompute cached instances"
        );
        assert_eq!(
            response.result_text().expect("result bytes"),
            cold,
            "warm answers must be byte-identical to the first life's"
        );
    }

    let status = client.status().expect("status");
    let result = status.result().expect("status result").clone();
    let cache = result.get("cache").expect("cache block");
    assert_eq!(
        cache.get("hits").and_then(Json::as_int),
        Some(thetas.len() as i64),
        "every warm request is a cache hit: {cache:?}"
    );
    let persist = result.get("persist").expect("persist block");
    assert_eq!(
        persist.get("replayed").and_then(Json::as_int),
        Some(thetas.len() as i64),
        "the segment replayed every entry: {persist:?}"
    );
    assert_eq!(persist.get("errors").and_then(Json::as_int), Some(0));

    client.shutdown().expect("shutdown");
    handle.wait();
    std::fs::remove_file(&path).ok();
}

#[test]
fn graceful_shutdown_drains_in_flight_work_before_exit() {
    common::for_each_backend("drain-on-shutdown", graceful_shutdown_leg);
}

fn graceful_shutdown_leg(kind: PollerKind) {
    // One worker and a deep backlog: the shutdown request arrives while
    // most of the batch is still queued or solving.
    let handle = start_test_server_on(kind, 1, 256);
    let addr = handle.addr();

    let worker = thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        let requests: Vec<Json> = (2..34)
            .map(|denominator| refine_request(Ratio::new(1, denominator)).to_json())
            .collect();
        client.call_batch(&requests).expect("batch completes")
    });

    // Give the batch a moment to get in flight, then ask for shutdown.
    thread::sleep(std::time::Duration::from_millis(30));
    let mut control = Client::connect(addr).expect("control connection");
    control.shutdown().expect("shutdown acknowledged");
    let status = handle.wait();

    let outcomes = worker.join().expect("batch client");
    assert_eq!(outcomes.len(), 32);
    for (idx, outcome) in outcomes.iter().enumerate() {
        let response = outcome
            .as_ref()
            .unwrap_or_else(|err| panic!("element {idx} was dropped during shutdown: {err}"));
        assert!(response.source().is_some());
    }
    assert_eq!(
        status.refine, 32,
        "every queued element was solved, none abandoned"
    );
}

#[test]
fn a_slow_reader_is_flushed_as_it_drains_without_losing_lines() {
    common::for_each_backend("slow-reader-flush", slow_reader_leg);
}

/// Regression test for the scan loop's flush-starvation edge: a
/// connection whose write buffer has filled (the client pipelines
/// requests but reads nothing) used to wait out a park cycle per flush
/// opportunity; under the poller trait it holds explicit WRITE interest
/// and is flushed the moment the peer drains. The observable contract —
/// asserted here against both backends — is that every pipelined
/// response arrives intact once the client starts reading, with the
/// server's buffers forced through repeated backpressure cycles.
fn slow_reader_leg(kind: PollerKind) {
    use std::io::{BufRead, BufReader, Write};
    const LINES: usize = 200;
    const PER_BATCH: usize = 50;

    let handle = start_test_server_on(kind, 1, 8);
    let mut stream = std::net::TcpStream::connect(handle.addr()).expect("connect");

    // Pipeline LINES batch envelopes of PER_BATCH status requests without
    // reading a byte: the responses (~MBs in total) overflow the socket's
    // send buffer, so the server is forced to hold un-flushed bytes and
    // wait for writability.
    let element = "{\"op\":\"status\"}";
    let batch = format!(
        "{{\"op\":\"batch\",\"requests\":[{}]}}\n",
        vec![element; PER_BATCH].join(",")
    );
    for _ in 0..LINES {
        stream.write_all(batch.as_bytes()).expect("pipeline write");
    }
    // Let the server catch up and hit the backpressure wall before the
    // reader shows up.
    thread::sleep(std::time::Duration::from_millis(200));

    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut received = 0usize;
    let mut line = String::new();
    while received < LINES {
        line.clear();
        let n = reader.read_line(&mut line).expect("read response line");
        assert!(n > 0, "EOF after only {received}/{LINES} responses");
        assert!(
            line.starts_with("{\"ok\":true,\"op\":\"batch\""),
            "response {received} is not a batch envelope: {}",
            &line[..line.len().min(120)]
        );
        assert_eq!(
            line.matches("\"op\":\"status\"").count(),
            PER_BATCH,
            "response {received} lost elements"
        );
        received += 1;
    }

    let mut client = Client::connect(handle.addr()).expect("control connection");
    let status = client.status().expect("status");
    let result = status.result().expect("status result").clone();
    let poller = result.get("poller").expect("poller status block");
    assert_eq!(
        poller.get("backend").and_then(Json::as_str),
        Some(kind.name()),
        "the configured backend is the one reported: {poller:?}"
    );
    assert!(
        poller.get("registered").and_then(Json::as_int) >= Some(2),
        "both live connections are registered: {poller:?}"
    );
    client.shutdown().expect("shutdown");
    handle.wait();
}

#[test]
fn a_wedged_peer_times_out_instead_of_hanging_the_client() {
    // A listener that accepts (via the OS backlog) but never answers is
    // the wedged-shard scenario the Router fails fast on: the read
    // deadline must expire as ClientError::Timeout, not block forever.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap().to_string();

    let mut client = Client::connect_with(
        &addr,
        ClientOptions {
            read_timeout: Some(std::time::Duration::from_millis(200)),
            ..ClientOptions::default()
        },
    )
    .expect("connect (the backlog accepts)");
    let began = std::time::Instant::now();
    let err = client.status().expect_err("no response is coming");
    assert!(
        matches!(err, ClientError::Timeout { what: "read", .. }),
        "expected a read timeout, got: {err}"
    );
    assert!(
        began.elapsed() < std::time::Duration::from_secs(5),
        "the deadline must fire promptly, took {:?}",
        began.elapsed()
    );
    // The wire is desynced (the late response may still arrive), so the
    // connection is poisoned: further calls fail instead of silently
    // reading the previous request's answer.
    let err = client.status().expect_err("poisoned after timeout");
    assert!(
        matches!(err, ClientError::Io(_)) && err.to_string().contains("desynced"),
        "expected the poisoned-connection error, got: {err}"
    );
    drop(listener);
}

#[test]
fn a_final_line_without_trailing_newline_is_served_at_eof() {
    // `printf '{"op":"status"}' | nc host port` clients half-close without
    // a trailing newline; the buffered remainder must be dispatched, not
    // dropped.
    use std::io::{Read, Write};
    let handle = start_test_server(1, 8);
    let mut stream = std::net::TcpStream::connect(handle.addr()).expect("connect");
    stream
        .write_all(b"{\"op\":\"status\"}")
        .expect("write without newline");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    assert!(
        response.starts_with("{\"ok\":true,\"op\":\"status\""),
        "the un-terminated line must still be answered: {response:?}"
    );

    let mut client = Client::connect(handle.addr()).expect("connect");
    client.shutdown().expect("shutdown");
    handle.wait();
}

#[test]
fn the_port_rebinds_immediately_after_shutdown() {
    // SO_REUSEADDR (which std's TcpListener::bind sets on Unix before
    // binding) is what lets a restarted server reclaim its port while the
    // previous instance's connections are still in TIME_WAIT. Exercise
    // real traffic, stop, and rebind the exact address without a grace
    // period — without the option this fails with AddrInUse.
    let handle = start_test_server(1, 8);
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");
    client
        .solve(&refine_request(Ratio::new(1, 2)))
        .expect("traffic creates connections that will sit in TIME_WAIT");
    client.shutdown().expect("shutdown");
    handle.wait();

    let rebound = server::start(&ServerConfig {
        addr: addr.to_string(),
        workers: 1,
        cache_capacity: 8,
        ..ServerConfig::default()
    })
    .expect("rebinding the same port immediately after shutdown");
    let mut client = Client::connect(addr).expect("connect to the rebound server");
    client.status().expect("the rebound server serves");
    client.shutdown().expect("shutdown");
    rebound.wait();
}

#[test]
fn shutdown_stops_accepting_new_connections() {
    let handle = start_test_server(1, 8);
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown acknowledged");
    let status = handle.wait();
    assert!(status.connections >= 1);

    // The listener is gone; connecting now fails (possibly after the OS
    // drains its backlog, so allow a few attempts).
    let mut refused = false;
    for _ in 0..50 {
        match Client::connect(addr) {
            Err(_) => {
                refused = true;
                break;
            }
            Ok(mut leftover) => {
                // A backlog connection may be accepted by nobody: any call
                // on it must fail.
                if leftover.status().is_err() {
                    refused = true;
                    break;
                }
            }
        }
        thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(refused, "the server must stop serving after shutdown");
}

/// The solver core's serving-stack seam: under `--solver ilp` the first
/// `refine` of a family solves cold and registers its solution in the
/// neighbor index; an S+1 variant of the same question then solves warm,
/// and the `status` solver block accounts both.
#[test]
fn a_neighboring_instance_solves_warm_under_the_ilp_solver_mode() {
    let handle = server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_capacity: 64,
        solver: SolverMode::Ilp,
        ..ServerConfig::default()
    })
    .expect("binding an ephemeral port");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let properties: Vec<String> = (0..4).map(|i| format!("http://ex/p{i}")).collect();
    let base: Vec<(Vec<usize>, usize)> = vec![
        (vec![0], 40),
        (vec![0, 1], 25),
        (vec![0, 1, 2], 10),
        (vec![0, 1, 2, 3], 5),
        (vec![0, 2, 3], 2),
    ];
    let mut neighbor = base.clone();
    neighbor.push((vec![1, 2], 3)); // S+1: one extra signature
    let request = |signatures: Vec<(Vec<usize>, usize)>| SolveRequest {
        op: SolveOp::Refine,
        view: SignatureView::from_counts(properties.clone(), signatures).expect("valid view"),
        spec: SigmaSpec::Coverage,
        engine: EngineKind::Ilp,
        k: Some(2),
        theta: Some(Ratio::new(1, 2)),
        step: None,
        max_k: None,
        time_limit: None,
        routing: None,
        tenant: None,
    };

    let cold = client.solve(&request(base)).expect("cold solve");
    assert_eq!(cold.source(), Some(Source::Solved));
    let warm = client.solve(&request(neighbor)).expect("warm solve");
    assert_eq!(warm.source(), Some(Source::Solved));

    let status = client.status().expect("status");
    let result = status.result().expect("status result").clone();
    let solver = result.get("solver").expect("solver block").clone();
    let int = |field: &str| {
        solver
            .get(field)
            .and_then(Json::as_int)
            .unwrap_or_else(|| panic!("solver block lacks {field}: {solver:?}"))
    };
    assert_eq!(
        solver.get("mode").and_then(Json::as_str),
        Some("ilp"),
        "mode: {solver:?}"
    );
    assert_eq!(int("cold_solves"), 1);
    assert_eq!(int("warm_solves"), 1, "the S+1 variant must seed warm");
    assert_eq!(int("seed_lookups"), 2);
    assert_eq!(int("seed_hits"), 1);
    assert!(int("nodes") >= 2, "both exact solves explore nodes");

    client.shutdown().expect("shutdown");
    handle.wait();
}
