//! Throughput benchmark of the refinement service: cold solves vs cache
//! hits, single requests vs batch envelopes, coalesced bursts, and warm
//! starts from the persistent segment — over real TCP on localhost.
//!
//! Pure std (`harness = false`): the harness times with `Instant` and
//! prints a small table. Run with:
//!
//! ```text
//! cargo bench -p strudel-bench --bench bench_server
//! ```
//!
//! The numbers to look at: cached requests/s should dwarf the cold rate by
//! orders of magnitude (the point of the result cache); batched cached
//! requests/s are asserted only never to cost throughput against
//! single-request; and the warm-start section shows a restarted server answering every
//! previously-cached request from the replayed segment, byte-identically,
//! without recomputing (also asserted). The cluster section compares a
//! key-diverse cold workload on one process vs 3 shards behind the
//! `Router` (≥ 2× is asserted, and `BENCH_cluster.json` written, only on
//! machines with at least 4 cores — the speedup is real parallelism, so
//! it needs real cores). The wire
//! section drives the same batched cached workload over line-JSON and
//! the bin1 binary framing and asserts bin1 delivers ≥ 1.2× the
//! throughput while moving fewer request bytes per element (read off the
//! `wire` status counters). The tenant
//! section floods a rate-limited tenant against an unlimited one and
//! asserts admission control bounds the flood while the quiet tenant's
//! cached path keeps most of its solo throughput. The solver section
//! solves a family of views under `--solver ilp` in two orders, checks
//! every answer against its request, and asserts both orders get
//! byte-identical answers, with the cold leg under a node ceiling. The
//! observability section prices the tracing layer itself: the batched
//! cached workload with tracing off vs 1/64 sampling, asserting the
//! traced leg keeps ≥ 95% of the untraced throughput. Every other section runs its
//! servers at 1/16 sampling and prints the per-stage p50/p99 table out
//! of the `observe` status block, so each headline number comes with
//! its lifecycle cost breakdown.
//!
//! Besides the printed tables, every section whose bar ran persists a
//! `BENCH_<section>.json` trajectory file (throughput, p99, counters —
//! integers only, so runs diff cleanly) into the working directory, or
//! into `STRUDEL_BENCH_DIR` when set — CI archives these per run.

use std::sync::Arc;
use std::thread;
use std::time::Instant;

use strudel_core::metrics::HistogramSnapshot;
use strudel_core::sigma::SigmaSpec;
use strudel_rdf::signature::SignatureView;
use strudel_rules::prelude::Ratio;
use strudel_server::json::Json;
use strudel_server::prelude::*;

/// A solve-heavy instance: distinct per `variant` so cold runs never hit
/// the cache.
fn request(variant: usize) -> SolveRequest {
    let properties: Vec<String> = (0..8).map(|i| format!("http://ex/p{i}")).collect();
    let signatures: Vec<(Vec<usize>, usize)> = (0..16)
        .map(|i| {
            let width = 1 + (i % 4);
            let start = i % 5;
            (
                (start..start + width).collect(),
                5 + (i * 13 + variant * 7) % 80,
            )
        })
        .collect();
    SolveRequest {
        op: SolveOp::Refine,
        view: SignatureView::from_counts(properties, signatures).expect("valid view"),
        spec: SigmaSpec::Coverage,
        engine: EngineKind::Hybrid,
        k: Some(3),
        theta: Some(Ratio::new(1, 2)),
        step: None,
        max_k: None,
        time_limit: None,
        routing: None,
        tenant: None,
    }
}

fn requests_per_second(count: usize, run: impl FnOnce()) -> f64 {
    let begin = Instant::now();
    run();
    count as f64 / begin.elapsed().as_secs_f64()
}

/// Checks a `refine` answer against its request rather than against
/// another answer: a refinement at the request's θ with at most k sorts
/// that covers every signature of the view once, each sort's subjects and
/// σ recomputed from the view, and each σ at or above θ.
fn check_refinement(request: &SolveRequest, result_text: &str) -> Result<(), String> {
    let result = strudel_server::json::parse(result_text).map_err(|err| err.to_string())?;
    let wire = result
        .get("refinement")
        .ok_or_else(|| format!("not a refinement: {result_text}"))?;
    let refinement = strudel_server::protocol::refinement_from_json(wire)
        .map_err(|err| err.to_string())?
        .to_refinement()
        .map_err(|err| err.to_string())?;
    let k = request.k.expect("a refine request has k");
    if refinement.k() > k {
        return Err(format!("{} sorts for k = {k}", refinement.k()));
    }
    if Some(refinement.threshold) != request.theta {
        return Err(format!(
            "threshold {} for θ {:?}",
            refinement.threshold, request.theta
        ));
    }
    refinement
        .validate(&request.view)
        .map_err(|err| err.to_string())?;
    for sort in &refinement.sorts {
        let sub = request.view.subset(&sort.signatures);
        let sigma = request.spec.evaluate(&sub).map_err(|err| err.to_string())?;
        if (sort.subjects, sort.sigma) != (sub.subject_count(), sigma) {
            return Err(format!(
                "sort {:?} reports {} subjects at σ {}, recomputed {} at σ {sigma}",
                sort.signatures,
                sort.subjects,
                sort.sigma,
                sub.subject_count()
            ));
        }
    }
    Ok(())
}

/// Persists one section's numbers as `BENCH_<section>.json` — the
/// trajectory file CI archives per run. Integer fields only, so two runs
/// diff line by line. Emission failure is reported, never fatal: the
/// benchmark's asserts are the contract, the files are telemetry.
fn emit_trajectory(section: &str, fields: Vec<(&str, Json)>) {
    let dir = std::env::var_os("STRUDEL_BENCH_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    let path = dir.join(format!("BENCH_{section}.json"));
    let line = format!("{}\n", Json::obj(fields).to_text());
    if let Err(err) = std::fs::write(&path, line) {
        eprintln!("  (could not write {}: {err})", path.display());
    }
}

/// The sampling divisor every section's servers run with: cheap enough to
/// leave on under the tight throughput assertions (the overhead section
/// below puts a bar on exactly that), dense enough that each section's
/// stage table rests on real spans.
const BENCH_TRACE_SAMPLE: u64 = 16;

/// Prints the per-stage p50/p99 latency table from a status result's
/// `observe` block — the request-lifecycle cost breakdown of the section
/// that just ran. Silent when the server ran untraced or recorded nothing.
fn print_observe_stages(result: &Json) {
    print_observe_stages_merged(&[result]);
}

/// The same table with the stage histograms of several shards' status
/// results merged bucket-by-bucket first (the cluster section).
fn print_observe_stages_merged(results: &[&Json]) {
    let mut merged: Vec<(String, HistogramSnapshot)> = Vec::new();
    for result in results {
        let Some(Json::Obj(stages)) = result
            .get("observe")
            .and_then(|observe| observe.get("stages"))
        else {
            continue;
        };
        for (name, stage) in stages {
            let Some(histogram) = strudel_server::trace::histogram_from_json(stage) else {
                continue;
            };
            if histogram.count == 0 {
                continue;
            }
            match merged.iter_mut().find(|(seen, _)| seen == name) {
                Some((_, acc)) => acc.merge(&histogram),
                None => merged.push((name.clone(), histogram)),
            }
        }
    }
    if merged.is_empty() {
        return;
    }
    println!("  stage latencies (sampled spans):");
    for (name, histogram) in &merged {
        println!(
            "    {name:<10} {:>7} spans   p50 {:>7} µs   p99 {:>7} µs",
            histogram.count,
            histogram.p50(),
            histogram.p99(),
        );
    }
}

/// The named tenant's integer counter out of a status response.
fn tenant_counter(client: &mut Client, name: &str, field: &str) -> i64 {
    client
        .status()
        .expect("status")
        .result()
        .and_then(|result| result.get("tenants"))
        .and_then(Json::as_arr)
        .and_then(|tenants| {
            tenants
                .iter()
                .find(|t| t.get("name").and_then(Json::as_str) == Some(name))
                .and_then(|t| t.get(field))
                .and_then(Json::as_int)
        })
        .unwrap_or(-1)
}

fn main() {
    const COLD: usize = 40;
    const CACHED: usize = 2000;
    const BATCH_SIZE: usize = 50;
    const COALESCED_CLIENTS: usize = 8;
    const COALESCED_ROUNDS: usize = 10;
    const WARM: usize = 24;

    let handle = server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        cache_capacity: 4096,
        trace_sample: Some(BENCH_TRACE_SAMPLE),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");

    // Cold: every request is a distinct instance — full solve each time.
    let cold_rps = requests_per_second(COLD, || {
        for variant in 0..COLD {
            client.solve(&request(variant)).expect("cold solve");
        }
    });

    // Cached, one request per line: one instance, repeated — after the
    // first, pure cache replay, but every repeat still pays a full
    // write/read round trip.
    let cached_request = request(0); // solved above, already resident
    let cached_rps = requests_per_second(CACHED, || {
        for _ in 0..CACHED {
            let response = client.solve(&cached_request).expect("cached solve");
            assert_eq!(response.source(), Some(Source::Cache));
        }
    });

    // Cached, batched: the same volume of repeats shipped BATCH_SIZE per
    // envelope — one line each way per batch amortizes framing & syscalls.
    let batch: Vec<Json> = (0..BATCH_SIZE).map(|_| cached_request.to_json()).collect();
    let batched_rps = requests_per_second(CACHED, || {
        for _ in 0..CACHED / BATCH_SIZE {
            let outcomes = client.call_batch(&batch).expect("cached batch");
            for outcome in outcomes {
                let response = outcome.expect("batched element succeeds");
                assert_eq!(response.source(), Some(Source::Cache));
            }
        }
    });

    // Coalesced: bursts of concurrent identical *fresh* instances — one
    // solve per burst, shared via single-flight.
    let coalesced_total = COALESCED_CLIENTS * COALESCED_ROUNDS;
    let coalesced_rps = requests_per_second(coalesced_total, || {
        for round in 0..COALESCED_ROUNDS {
            let burst = Arc::new(request(COLD + 1 + round));
            let joins: Vec<_> = (0..COALESCED_CLIENTS)
                .map(|_| {
                    let burst = Arc::clone(&burst);
                    thread::spawn(move || {
                        let mut client = Client::connect(addr).expect("connect");
                        client.solve(&burst).expect("coalesced solve");
                    })
                })
                .collect();
            for join in joins {
                join.join().expect("burst client");
            }
        }
    });

    let status = client.status().expect("status");
    let result = status.result().expect("status result").clone();
    let cache = result.get("cache").expect("cache counters");
    let flight = result.get("singleflight").expect("flight counters");
    let backend = result
        .get("poller")
        .and_then(|poller| poller.get("backend"))
        .and_then(Json::as_str)
        .expect("poller backend")
        .to_owned();
    let batch_speedup = batched_rps / cached_rps.max(f64::MIN_POSITIVE);

    println!("server throughput (localhost TCP, 4 workers, event loop, {backend} poller):");
    println!("  cold solves:        {cold_rps:>10.0} req/s ({COLD} distinct instances)");
    println!("  cache hits:         {cached_rps:>10.0} req/s ({CACHED} repeats, 1 request/line)");
    println!(
        "  cache hits batched: {batched_rps:>10.0} req/s ({CACHED} repeats, {BATCH_SIZE} requests/envelope)"
    );
    println!(
        "  coalesced bursts:   {coalesced_rps:>10.0} req/s ({COALESCED_ROUNDS} bursts × {COALESCED_CLIENTS} concurrent identical)"
    );
    println!(
        "  speedup cached/cold:     {:>8.1}×",
        cached_rps / cold_rps.max(f64::MIN_POSITIVE)
    );
    println!("  speedup batched/single:  {batch_speedup:>8.1}× (cached path)");
    println!(
        "  cache: {} hits / {} misses / {} insertions; single-flight: {} led / {} shared",
        cache.get("hits").unwrap(),
        cache.get("misses").unwrap(),
        cache.get("insertions").unwrap(),
        flight.get("leaders").unwrap(),
        flight.get("shared").unwrap(),
    );
    print_observe_stages(&result);
    // The single-request path is already cheap enough (one-pass
    // `decode_line`, the read pump's scratch buffer) that the envelope's
    // remaining win is within run-to-run noise, so the bar asserts only
    // that batching never *costs* throughput. The framing section below
    // has its own bar on the per-request byte cost.
    assert!(
        batch_speedup >= 0.9,
        "batching must not cost the cached path throughput on the {backend} backend, \
         measured {batch_speedup:.1}×"
    );
    emit_trajectory(
        "throughput",
        vec![
            ("backend", Json::str(backend.clone())),
            ("cold_rps", Json::Int(cold_rps as i64)),
            ("cached_rps", Json::Int(cached_rps as i64)),
            ("batched_rps", Json::Int(batched_rps as i64)),
            ("coalesced_rps", Json::Int(coalesced_rps as i64)),
            (
                "batch_speedup_pct",
                Json::Int((batch_speedup * 100.0) as i64),
            ),
        ],
    );

    client.shutdown().expect("shutdown");
    handle.wait();

    // ── Warm start ──────────────────────────────────────────────────────
    // Solve WARM distinct instances into a persistent segment, shut down,
    // restart on the same segment, and re-ask: every answer must come from
    // the replayed cache, byte-identical, with zero recomputation.
    let segment =
        std::env::temp_dir().join(format!("strudel-bench-warm-{}.segment", std::process::id()));
    std::fs::remove_file(&segment).ok();
    let persist_config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        cache_capacity: 4096,
        persist_path: Some(segment.clone()),
        trace_sample: Some(BENCH_TRACE_SAMPLE),
        ..ServerConfig::default()
    };

    let first = server::start(&persist_config).expect("bind first life");
    let mut client = Client::connect(first.addr()).expect("connect");
    let mut cold_payloads = Vec::new();
    let cold_start = Instant::now();
    for variant in 0..WARM {
        let response = client.solve(&request(variant)).expect("cold solve");
        cold_payloads.push(response.result_text().expect("payload").to_owned());
    }
    let cold_fill = cold_start.elapsed();
    client.shutdown().expect("shutdown");
    first.wait();

    let second = server::start(&persist_config).expect("bind second life");
    let mut client = Client::connect(second.addr()).expect("connect");
    let warm_start = Instant::now();
    for (variant, cold) in cold_payloads.iter().enumerate() {
        let response = client.solve(&request(variant)).expect("warm solve");
        assert_eq!(
            response.source(),
            Some(Source::Cache),
            "instance {variant} was recomputed after restart"
        );
        assert_eq!(
            response.result_text().expect("payload"),
            cold,
            "instance {variant} not byte-identical after restart"
        );
    }
    let warm_serve = warm_start.elapsed();

    let status = client.status().expect("status");
    let result = status.result().expect("status result").clone();
    let hits = result
        .get("cache")
        .and_then(|cache| cache.get("hits"))
        .and_then(Json::as_int)
        .expect("hit counter");
    let replayed = result
        .get("persist")
        .and_then(|persist| persist.get("replayed"))
        .and_then(Json::as_int)
        .expect("replay counter");
    assert_eq!(hits, WARM as i64, "every warm request must be a cache hit");
    assert_eq!(replayed, WARM as i64, "the segment must replay every entry");

    println!("warm start (persistent segment, {WARM} instances):");
    println!(
        "  cold fill (first life):  {:>8.1} ms",
        cold_fill.as_secs_f64() * 1e3
    );
    println!(
        "  warm serve (restarted):  {:>8.1} ms",
        warm_serve.as_secs_f64() * 1e3
    );
    println!(
        "  speedup warm/cold:       {:>8.1}×  ({hits} hits, {replayed} replayed, 0 recomputed)",
        cold_fill.as_secs_f64() / warm_serve.as_secs_f64().max(f64::MIN_POSITIVE)
    );
    print_observe_stages(&result);
    emit_trajectory(
        "warm_start",
        vec![
            ("cold_fill_us", Json::Int(cold_fill.as_micros() as i64)),
            ("warm_serve_us", Json::Int(warm_serve.as_micros() as i64)),
            ("hits", Json::Int(hits)),
            ("replayed", Json::Int(replayed)),
        ],
    );

    client.shutdown().expect("shutdown");
    second.wait();
    std::fs::remove_file(&segment).ok();

    // ── Cluster ─────────────────────────────────────────────────────────
    // Cold solves are CPU-bound, so a single process is capped by its own
    // compute pool. Sharding the key space across 3 processes (1 worker
    // each, so the per-process ceiling is explicit) and routing a
    // key-diverse batch through the Router must beat the single process by
    // the parallelism the cluster adds.
    // A balanced key-diverse workload: distinct instances, an equal number
    // owned by each shard, so the measured speedup is the architecture's
    // scaling headroom rather than the residual imbalance of 30 specific
    // hashes (the balance *bound* is property-tested in strudel-core).
    const CLUSTER_COLD: usize = 30;
    let ring = ShardRing::new(3);
    let mut diverse: Vec<SolveRequest> = Vec::new();
    let mut split = [0usize; 3];
    let mut variant = 0;
    while diverse.len() < CLUSTER_COLD {
        let candidate = request(variant);
        variant += 1;
        let shard = ring.route(candidate.cache_key().view) as usize;
        if split[shard] < CLUSTER_COLD / 3 {
            split[shard] += 1;
            diverse.push(candidate);
        }
    }
    let batch: Vec<Json> = diverse.iter().map(SolveRequest::to_json).collect();

    let single = server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        cache_capacity: 4096,
        trace_sample: Some(BENCH_TRACE_SAMPLE),
        ..ServerConfig::default()
    })
    .expect("bind single");
    let mut client = Client::connect(single.addr()).expect("connect");
    let single_rps = requests_per_second(CLUSTER_COLD, || {
        for outcome in client.call_batch(&batch).expect("single cold batch") {
            outcome.expect("element solves");
        }
    });
    client.shutdown().expect("shutdown");
    single.wait();

    let shards: Vec<_> = (0..3u32)
        .map(|index| {
            server::start(&ServerConfig {
                addr: "127.0.0.1:0".into(),
                workers: 1,
                cache_capacity: 4096,
                shard: Some(ShardSpec { index, count: 3 }),
                trace_sample: Some(BENCH_TRACE_SAMPLE),
                ..ServerConfig::default()
            })
            .expect("bind shard")
        })
        .collect();
    let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();
    let mut router = Router::connect(&addrs).expect("connect router");
    for request in &diverse {
        assert_eq!(
            router.shard_of(request),
            ring.route(request.cache_key().view),
            "router and standalone ring must agree"
        );
    }
    let cluster_rps = requests_per_second(CLUSTER_COLD, || {
        for outcome in router.solve_batch(&diverse).expect("cluster cold batch") {
            let response = outcome.expect("element solves");
            assert_eq!(response.source(), Some(Source::Solved));
        }
    });
    let shard_statuses: Vec<Response> = router
        .status_all()
        .into_iter()
        .map(|outcome| outcome.expect("shard status"))
        .collect();
    router.shutdown_all().expect("shutdown cluster");
    for shard in shards {
        shard.wait();
    }

    let cluster_speedup = cluster_rps / single_rps.max(f64::MIN_POSITIVE);
    let cores = thread::available_parallelism().map_or(1, |n| n.get());
    println!("cluster cold solves ({CLUSTER_COLD} key-diverse instances, 1 worker/process):");
    println!("  1 process:          {single_rps:>10.0} req/s");
    println!(
        "  3 shards (router):  {cluster_rps:>10.0} req/s (split {}/{}/{} across shards)",
        split[0], split[1], split[2]
    );
    println!("  speedup 3-shard/1:       {cluster_speedup:>8.1}×  ({cores} cores available)");
    // The parallel win needs cores to park the extra shards on: assert and
    // persist on CI-sized machines (the workflow runs this), only report
    // everywhere else — a fewer-core "speedup" is not the number the
    // trajectory tracks.
    if cores >= 4 {
        assert!(
            cluster_speedup >= 2.0,
            "3 shards must serve a key-diverse cold workload at least 2× faster \
             than one process, measured {cluster_speedup:.1}×"
        );
        emit_trajectory(
            "cluster",
            vec![
                ("single_rps", Json::Int(single_rps as i64)),
                ("cluster_rps", Json::Int(cluster_rps as i64)),
                ("speedup_pct", Json::Int((cluster_speedup * 100.0) as i64)),
                ("cores", Json::Int(cores as i64)),
            ],
        );
    } else {
        println!("  (speedup assertion skipped: needs >= 4 cores, found {cores})");
    }
    print_observe_stages_merged(
        &shard_statuses
            .iter()
            .map(|status| status.result().expect("shard status result"))
            .collect::<Vec<_>>(),
    );

    // ── Replication ─────────────────────────────────────────────────────
    // A leader solves REPL distinct instances while a follower replays the
    // stream; the section reports how fast the standby catches up and how
    // a promoted standby serves the dead leader's answers. The assertions
    // are correctness, not speed: zero recomputation and byte-identity
    // across the failure boundary.
    const REPL: usize = 24;
    let leader = server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        cache_capacity: 4096,
        trace_sample: Some(BENCH_TRACE_SAMPLE),
        ..ServerConfig::default()
    })
    .expect("bind leader");
    let follower = server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        cache_capacity: 4096,
        follow: Some(leader.addr().to_string()),
        trace_sample: Some(BENCH_TRACE_SAMPLE),
        ..ServerConfig::default()
    })
    .expect("bind follower");

    let mut at_leader = Client::connect(leader.addr()).expect("connect leader");
    let mut at_follower = Client::connect(follower.addr()).expect("connect follower");
    let mut leader_payloads = Vec::new();
    let fill_start = Instant::now();
    for variant in 0..REPL {
        let response = at_leader.solve(&request(variant)).expect("leader solve");
        leader_payloads.push(response.result_text().expect("payload").to_owned());
    }
    let fill = fill_start.elapsed();

    // Wait until the standby has replayed everything, timing the lag.
    let entries = |client: &mut Client| -> i64 {
        client
            .status()
            .expect("status")
            .result()
            .and_then(|result| result.get("cache"))
            .and_then(|cache| cache.get("entries"))
            .and_then(Json::as_int)
            .unwrap_or(0)
    };
    let catchup_start = Instant::now();
    while entries(&mut at_follower) < REPL as i64 {
        assert!(
            catchup_start.elapsed() < std::time::Duration::from_secs(10),
            "follower never caught up"
        );
        thread::sleep(std::time::Duration::from_millis(5));
    }
    let catchup = catchup_start.elapsed();

    // The leader dies; the standby is promoted and serves every answer
    // from its replicated cache, byte-identically, plus new writes.
    at_leader.shutdown().expect("shutdown leader");
    leader.wait();
    at_follower.promote().expect("promote standby");
    let serve_start = Instant::now();
    for (variant, expected) in leader_payloads.iter().enumerate() {
        let response = at_follower.solve(&request(variant)).expect("standby serve");
        assert_eq!(
            response.source(),
            Some(Source::Cache),
            "instance {variant} was recomputed by the promoted standby"
        );
        assert_eq!(
            response.result_text().expect("payload"),
            expected,
            "instance {variant} not byte-identical across replication + promotion"
        );
    }
    let served = serve_start.elapsed();
    let fresh = at_follower
        .solve(&request(REPL + 1))
        .expect("promoted standby accepts writes");
    assert_eq!(fresh.source(), Some(Source::Solved));

    println!("replication ({REPL} instances, leader + 1 warm standby):");
    println!(
        "  leader cold fill:        {:>8.1} ms",
        fill.as_secs_f64() * 1e3
    );
    println!(
        "  standby catch-up lag:    {:>8.1} ms (after the last solve)",
        catchup.as_secs_f64() * 1e3
    );
    println!(
        "  promoted standby serves: {:>8.1} ms ({REPL} byte-identical cache hits, 0 recomputed)",
        served.as_secs_f64() * 1e3
    );
    let standby_status = at_follower.status().expect("status");
    print_observe_stages(standby_status.result().expect("status result"));
    emit_trajectory(
        "replication",
        vec![
            ("instances", Json::Int(REPL as i64)),
            ("leader_fill_us", Json::Int(fill.as_micros() as i64)),
            ("catchup_us", Json::Int(catchup.as_micros() as i64)),
            ("promoted_serve_us", Json::Int(served.as_micros() as i64)),
        ],
    );

    at_follower.shutdown().expect("shutdown standby");
    follower.wait();

    // ── Wire framing ────────────────────────────────────────────────────
    // The binary framing's reason to exist: on the batched cached path the
    // per-request cost is pure byte handling — encode, frame, decode — so
    // the same workload is driven twice, once over line-JSON and once over
    // bin1, and the `wire` status block supplies exact bytes-on-the-wire
    // counters. Asserted: bin1 moves fewer request bytes per element and
    // turns that into at least 1.2× the line-JSON throughput.
    const WIRE_CACHED: usize = 2000;
    const WIRE_BATCH: usize = 50;
    let bytes_in_of = |client: &mut Client| -> i64 {
        client
            .status()
            .expect("status")
            .result()
            .and_then(|result| result.get("wire"))
            .and_then(|wire| wire.get("bytes_in"))
            .and_then(Json::as_int)
            .expect("wire.bytes_in counter")
    };
    let handle = server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_capacity: 4096,
        trace_sample: Some(BENCH_TRACE_SAMPLE),
        ..ServerConfig::default()
    })
    .expect("bind framing-bench server");
    let addr = handle.addr();
    let mut control = Client::connect(addr).expect("connect control");
    let cached_request = request(0);
    control.solve(&cached_request).expect("warm the cache");
    let wire_batch: Vec<SolveRequest> = (0..WIRE_BATCH).map(|_| cached_request.clone()).collect();

    // One leg per framing: the same batched cached workload, with the
    // server's ingress byte counter snapshotted around each leg (the
    // control client's status lines pollute the delta by a few tens of
    // bytes against megabytes of workload — noise, not signal).
    let mut measure = |framing: Option<FramingMode>| -> (f64, i64) {
        let mut client = Client::connect_with(
            addr,
            ClientOptions {
                framing,
                ..ClientOptions::default()
            },
        )
        .expect("connect framing leg");
        let before = bytes_in_of(&mut control);
        let rps = requests_per_second(WIRE_CACHED, || {
            for _ in 0..WIRE_CACHED / WIRE_BATCH {
                for outcome in client.solve_batch(&wire_batch).expect("cached batch") {
                    let response = outcome.expect("batched element succeeds");
                    assert_eq!(response.source(), Some(Source::Cache));
                }
            }
        });
        let bytes = bytes_in_of(&mut control) - before;
        (rps, bytes / WIRE_CACHED as i64)
    };
    let (json_rps, json_bytes_per_req) = measure(None);
    let (bin_rps, bin_bytes_per_req) = measure(Some(FramingMode::Bin1));

    let status = control.status().expect("status");
    let status = status.result().expect("status result").clone();
    control.shutdown().expect("shutdown");
    handle.wait();
    let backend = status
        .get("poller")
        .and_then(|poller| poller.get("backend"))
        .and_then(Json::as_str)
        .expect("poller backend")
        .to_owned();
    let speedup = bin_rps / json_rps.max(f64::MIN_POSITIVE);

    println!(
        "wire framing ({WIRE_CACHED} cached round-trips, {WIRE_BATCH} requests/envelope, json vs bin1, {backend} poller):"
    );
    println!(
        "  json: {json_rps:>8.0} req/s ({json_bytes_per_req} B/req in)   bin1: {bin_rps:>8.0} req/s ({bin_bytes_per_req} B/req in)   speedup: {speedup:>5.1}×"
    );
    print_observe_stages(&status);
    assert!(
        speedup >= 1.2,
        "bin1 must serve the batched cached path at least 1.2× faster than \
         line-JSON, measured {speedup:.2}×"
    );
    assert!(
        bin_bytes_per_req < json_bytes_per_req,
        "bin1 must move fewer request bytes per element than line-JSON, \
         measured {bin_bytes_per_req} vs {json_bytes_per_req} B/req"
    );
    emit_trajectory(
        "wire",
        vec![
            ("backend", Json::str(backend)),
            ("json_rps", Json::Int(json_rps as i64)),
            ("bin_rps", Json::Int(bin_rps as i64)),
            ("speedup_pct", Json::Int((speedup * 100.0) as i64)),
            ("json_bytes_per_req", Json::Int(json_bytes_per_req)),
            ("bin_bytes_per_req", Json::Int(bin_bytes_per_req)),
        ],
    );

    // ── Multi-tenant QoS ────────────────────────────────────────────────
    // The noisy-neighbor scenario the tenant layer exists for: a steady
    // tenant's cached path is measured solo, then again while a
    // rate-limited tenant floods cold solves from another connection.
    // Asserted: the token bucket bounds what the flood actually lands
    // (burst + rate × window, with slack for requests in flight), every
    // refusal is the structured `over_quota`, the steady tenant is never
    // refused, and its contended throughput keeps at least 20% of solo —
    // admission does the isolating, not luck.
    const TENANT_CACHED: usize = 1000;
    const NOISY_RATE: u64 = 50;
    const NOISY_BURST: u64 = 10;
    let handle = server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_capacity: 4096,
        tenants: Some(
            TenantSpecSet::parse(&format!(
                "noisy:rate={NOISY_RATE},burst={NOISY_BURST};steady"
            ))
            .expect("tenant spec"),
        ),
        trace_sample: Some(BENCH_TRACE_SAMPLE),
        ..ServerConfig::default()
    })
    .expect("bind tenant-bench server");
    let addr = handle.addr();
    let mut steady = Client::connect(addr).expect("connect steady");
    let steady_request = {
        let mut request = request(0);
        request.tenant = Some("steady".to_owned());
        request
    };
    steady
        .solve(&steady_request)
        .expect("warm the steady cache");

    let measure_steady = |steady: &mut Client| -> (f64, std::time::Duration) {
        let mut latencies = Vec::with_capacity(TENANT_CACHED);
        for _ in 0..TENANT_CACHED {
            let began = Instant::now();
            let response = steady.solve(&steady_request).expect("steady cached solve");
            latencies.push(began.elapsed());
            assert_eq!(response.source(), Some(Source::Cache));
        }
        latencies.sort_unstable();
        let p99 = latencies[(TENANT_CACHED * 99) / 100 - 1];
        let total: std::time::Duration = latencies.iter().sum();
        (TENANT_CACHED as f64 / total.as_secs_f64(), p99)
    };
    let (solo_rps, solo_p99) = measure_steady(&mut steady);

    // The flood: distinct cold instances, as fast as refusals come back,
    // for at least a second — long enough that a 50/s bucket must refuse
    // the overwhelming majority.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let flood_stop = Arc::clone(&stop);
    let flood_started = Instant::now();
    let flood = thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect noisy");
        let (mut admitted, mut refused) = (0u64, 0u64);
        let mut variant = 10_000;
        while !flood_stop.load(std::sync::atomic::Ordering::Relaxed) {
            let mut flood_request = request(variant);
            variant += 1;
            flood_request.tenant = Some("noisy".to_owned());
            match client.solve(&flood_request) {
                Ok(_) => admitted += 1,
                Err(ClientError::OverQuota { detail, .. }) => {
                    assert_eq!(detail.tenant, "noisy");
                    assert!(detail.retry_after_ms >= 1);
                    refused += 1;
                }
                Err(other) => panic!("expected over_quota under the flood, got: {other}"),
            }
        }
        (admitted, refused)
    });
    let (contended_rps, contended_p99) = measure_steady(&mut steady);
    while flood_started.elapsed() < std::time::Duration::from_secs(1) {
        thread::sleep(std::time::Duration::from_millis(10));
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let (admitted, refused) = flood.join().expect("flood thread");
    let flood_window = flood_started.elapsed();

    let isolation = contended_rps / solo_rps.max(f64::MIN_POSITIVE);
    println!("multi-tenant QoS (steady cached path vs a rate-limited flood, {TENANT_CACHED} round-trips each):");
    println!(
        "  steady solo:        {solo_rps:>10.0} req/s   p99 {:>8.1} µs",
        solo_p99.as_secs_f64() * 1e6
    );
    println!(
        "  steady under flood: {contended_rps:>10.0} req/s   p99 {:>8.1} µs",
        contended_p99.as_secs_f64() * 1e6
    );
    println!(
        "  noisy flood:        {admitted:>10} admitted / {refused} refused ({NOISY_RATE}/s bucket, burst {NOISY_BURST}, {:.2} s window)",
        flood_window.as_secs_f64()
    );
    println!(
        "  isolation:               {:>8.0} % of solo throughput kept",
        isolation * 100.0
    );
    let tenant_status = steady.status().expect("status");
    print_observe_stages(tenant_status.result().expect("status result"));

    // The bucket's arithmetic is exact; the slack covers requests already
    // past admission when the window closed.
    let admission_ceiling =
        (NOISY_BURST as f64 + NOISY_RATE as f64 * flood_window.as_secs_f64()) * 1.25 + 5.0;
    assert!(
        (admitted as f64) <= admission_ceiling,
        "the token bucket must bound the flood: {admitted} admitted in \
         {:.2} s exceeds the ceiling of {admission_ceiling:.0}",
        flood_window.as_secs_f64()
    );
    assert!(
        refused >= 1,
        "a flood against a {NOISY_RATE}/s bucket must see refusals"
    );
    assert_eq!(
        tenant_counter(&mut steady, "steady", "refusals"),
        0,
        "the unlimited tenant is never refused"
    );
    assert_eq!(
        tenant_counter(&mut steady, "steady", "hits"),
        2 * TENANT_CACHED as i64,
        "every steady read must be a cache hit"
    );
    assert!(
        isolation >= 0.20,
        "the steady tenant must keep at least 20% of its solo cached \
         throughput under the flood, measured {:.0}%",
        isolation * 100.0
    );
    emit_trajectory(
        "tenants",
        vec![
            ("steady_solo_rps", Json::Int(solo_rps as i64)),
            ("steady_contended_rps", Json::Int(contended_rps as i64)),
            ("steady_solo_p99_us", Json::Int(solo_p99.as_micros() as i64)),
            (
                "steady_contended_p99_us",
                Json::Int(contended_p99.as_micros() as i64),
            ),
            ("noisy_admitted", Json::Int(admitted as i64)),
            ("noisy_refused", Json::Int(refused as i64)),
            ("isolation_pct", Json::Int((isolation * 100.0) as i64)),
        ],
    );

    steady.shutdown().expect("shutdown");
    handle.wait();

    // ── Solver ──────────────────────────────────────────────────────────
    // The exact miss path under `--solver ilp`: variants 1–7 of a family
    // that appends one signature to a shared base view, Cov at k = 3 and
    // θ = 1/2, solved by two tenants in opposite orders. (Only variant 2's
    // appended signature is new; the others equal a base signature, which
    // `from_counts` merges, so those variants change only a count. The
    // node ceiling was measured on this data, so it stays.)
    //
    // Asserted: every answer is a refinement that meets its own request,
    // the cold leg (variants 1–7 in order) stays under the seed solver's
    // node ceiling, and the reverse leg (variants 7–1) gets the cold leg's
    // answers byte for byte. Every solve starts from scratch, so an answer
    // depends on its request alone and not on what its tenant solved
    // before.
    //
    // 7 variants: the node ceiling below was measured over variants 1–7.
    const SOLVER_VARIANTS: usize = 7;
    // The seed solver explored 5369 nodes on this family; the event-driven
    // core's cold leg must come in under that ceiling.
    const SOLVER_NODE_CEILING: i64 = 5369;
    let solver_request = |variant: usize, tenant: &str| -> SolveRequest {
        let properties: Vec<String> = (0..10).map(|i| format!("http://ex/p{i}")).collect();
        let mut signatures: Vec<(Vec<usize>, usize)> = (0..14)
            .map(|i| {
                let width = 2 + (i % 4);
                let start = (i * 3) % 5;
                ((start..start + width).collect(), 10 + (i * 17) % 60)
            })
            .collect();
        let width = 2 + (variant % 3);
        let start = (variant * 2) % 5;
        signatures.push(((start..start + width).collect(), 7 + variant % 5));
        SolveRequest {
            op: SolveOp::Refine,
            view: SignatureView::from_counts(properties, signatures).expect("valid view"),
            spec: SigmaSpec::Coverage,
            engine: EngineKind::Ilp,
            k: Some(3),
            theta: Some(Ratio::new(1, 2)),
            step: None,
            max_k: None,
            time_limit: None,
            routing: None,
            tenant: Some(tenant.to_owned()),
        }
    };
    let handle = server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1, // serialize solves: throughput is pure search
        cache_capacity: 4096,
        solver: Some(EngineKind::Ilp),
        trace_sample: Some(BENCH_TRACE_SAMPLE),
        ..ServerConfig::default()
    })
    .expect("bind solver-bench server");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let solver_nodes = |client: &mut Client| -> i64 {
        client
            .status()
            .expect("status")
            .result()
            .and_then(|result| result.get("solver"))
            .and_then(|solver| solver.get("nodes"))
            .and_then(Json::as_int)
            .expect("solver.nodes counter")
    };
    let solve_leg = |client: &mut Client, tenant: &str, order: &[usize]| -> Vec<String> {
        let mut texts = vec![String::new(); SOLVER_VARIANTS];
        for &variant in order {
            let request = solver_request(variant, tenant);
            let response = client.solve(&request).expect("solver leg");
            assert_eq!(response.source(), Some(Source::Solved));
            let text = response.result_text().expect("payload");
            if let Err(err) = check_refinement(&request, text) {
                panic!("variant {variant}'s answer for {tenant} does not meet its request: {err}");
            }
            texts[variant - 1] = text.to_owned();
        }
        texts
    };

    let order: Vec<usize> = (1..=SOLVER_VARIANTS).collect();
    let mut cold_texts = Vec::new();
    let solver_cold_rps = requests_per_second(SOLVER_VARIANTS, || {
        cold_texts = solve_leg(&mut client, "cold", &order);
    });
    let cold_leg_nodes = solver_nodes(&mut client);
    let reverse: Vec<usize> = order.iter().rev().copied().collect();
    let reverse_texts = solve_leg(&mut client, "reverse", &reverse);
    let reverse_leg_nodes = solver_nodes(&mut client) - cold_leg_nodes;

    let status = client.status().expect("status");
    let cold_solves = status
        .result()
        .and_then(|result| result.get("solver"))
        .and_then(|solver| solver.get("cold_solves"))
        .and_then(Json::as_int)
        .expect("solver.cold_solves counter");
    println!("solver (--solver ilp, {SOLVER_VARIANTS} variants, 1 worker):");
    println!("  cold leg: {solver_cold_rps:>8.1} req/s");
    println!(
        "  {cold_solves} solves, nodes: {cold_leg_nodes} cold leg / {reverse_leg_nodes} \
         reverse leg (cold ceiling {SOLVER_NODE_CEILING})"
    );
    print_observe_stages(status.result().expect("status result"));

    for (variant, (cold, reverse)) in (1..).zip(cold_texts.iter().zip(&reverse_texts)) {
        assert_eq!(
            cold, reverse,
            "variant {variant}'s answer differs between two tenants that solved \
             the variants in opposite orders"
        );
    }
    assert!(
        cold_leg_nodes <= SOLVER_NODE_CEILING,
        "the event-driven core must stay under the seed solver's node \
         ceiling cold, explored {cold_leg_nodes} vs {SOLVER_NODE_CEILING}"
    );
    emit_trajectory(
        "solver",
        vec![
            ("cold_rps", Json::Int(solver_cold_rps as i64)),
            ("cold_solves", Json::Int(cold_solves)),
            ("cold_leg_nodes", Json::Int(cold_leg_nodes)),
            ("reverse_leg_nodes", Json::Int(reverse_leg_nodes)),
        ],
    );

    client.shutdown().expect("shutdown");
    handle.wait();

    // ── Observability overhead ──────────────────────────────────────────
    // The flight recorder's admission ticket: lifecycle tracing at the
    // production sampling rate must be close to free on the hottest path
    // there is — batched cache hits, where per-request work is minimal and
    // any per-request timing cost shows up undiluted. The same workload
    // runs with tracing off (`--trace-sample 0`) and at 1/64 sampling,
    // legs alternated across rounds so drift hits both equally, taking
    // each leg's best round. Asserted: the traced leg keeps at least 95%
    // of the untraced throughput (at most 5% overhead).
    const OBSERVE_CACHED: usize = 2000;
    const OBSERVE_BATCH: usize = 50;
    const OBSERVE_ROUNDS: usize = 3;
    const OBSERVE_SAMPLE: u64 = 64;
    let mut best_rps = [0f64; 2]; // [tracing off, 1/OBSERVE_SAMPLE]
    let mut traced_status: Option<Json> = None;
    for round in 0..OBSERVE_ROUNDS {
        for (leg, sample) in [(0usize, 0u64), (1, OBSERVE_SAMPLE)] {
            let handle = server::start(&ServerConfig {
                addr: "127.0.0.1:0".into(),
                workers: 2,
                cache_capacity: 4096,
                trace_sample: Some(sample),
                ..ServerConfig::default()
            })
            .expect("bind observe-bench server");
            let mut client = Client::connect(handle.addr()).expect("connect");
            let cached_request = request(0);
            client.solve(&cached_request).expect("warm the cache");
            let batch: Vec<Json> = (0..OBSERVE_BATCH)
                .map(|_| cached_request.to_json())
                .collect();
            let rps = requests_per_second(OBSERVE_CACHED, || {
                for _ in 0..OBSERVE_CACHED / OBSERVE_BATCH {
                    for outcome in client.call_batch(&batch).expect("cached batch") {
                        let response = outcome.expect("batched element succeeds");
                        assert_eq!(response.source(), Some(Source::Cache));
                    }
                }
            });
            best_rps[leg] = best_rps[leg].max(rps);
            if leg == 1 && round == OBSERVE_ROUNDS - 1 {
                let status = client.status().expect("status");
                traced_status = Some(status.result().expect("status result").clone());
            }
            client.shutdown().expect("shutdown");
            handle.wait();
        }
    }
    let [off_rps, traced_rps] = best_rps;
    let overhead = 1.0 - traced_rps / off_rps.max(f64::MIN_POSITIVE);
    let traced_status = traced_status.expect("the traced leg ran");
    let observe = traced_status.get("observe").expect("observe block");
    let sampled = observe
        .get("sampled")
        .and_then(Json::as_int)
        .expect("sampled counter");
    let ticks = observe
        .get("ticks")
        .and_then(Json::as_int)
        .expect("ticks counter");

    println!(
        "observability overhead ({OBSERVE_CACHED} batched cached round-trips/leg, \
         best of {OBSERVE_ROUNDS} alternated rounds):"
    );
    println!("  tracing off:        {off_rps:>10.0} req/s");
    println!(
        "  1/{OBSERVE_SAMPLE} sampling:      {traced_rps:>10.0} req/s \
         ({sampled} spans recorded out of {ticks} requests)"
    );
    println!(
        "  overhead:                {:>8.1} %  (acceptance: <= 5%)",
        overhead * 100.0
    );
    print_observe_stages(&traced_status);
    assert!(
        sampled >= ticks / OBSERVE_SAMPLE as i64,
        "1/{OBSERVE_SAMPLE} sampling must record its share: {sampled} spans \
         out of {ticks} requests"
    );
    assert!(
        traced_rps >= off_rps * 0.95,
        "tracing at 1/{OBSERVE_SAMPLE} sampling must keep at least 95% of the \
         untraced batched cached throughput, measured {traced_rps:.0} vs \
         {off_rps:.0} req/s ({:.1}% overhead)",
        overhead * 100.0
    );
    emit_trajectory(
        "observe",
        vec![
            ("off_rps", Json::Int(off_rps as i64)),
            ("traced_rps", Json::Int(traced_rps as i64)),
            ("overhead_pct", Json::Int((overhead * 100.0) as i64)),
            ("sample_every", Json::Int(OBSERVE_SAMPLE as i64)),
            ("sampled", Json::Int(sampled)),
            ("ticks", Json::Int(ticks)),
        ],
    );
}
