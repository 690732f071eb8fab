//! Cluster-level end-to-end tests: three real shard processes (in-process
//! event loops on real TCP ports), a key-routing [`Router`] in front, and
//! the acceptance criteria of the shard layer —
//!
//! * a mixed batch is split per shard and every sub-request is served by
//!   the shard that owns its key (asserted via per-shard `status`
//!   counters),
//! * a request sent to the wrong shard gets the structured `wrong_shard`
//!   error (as does a request stamped with a stale ring epoch) rather than
//!   a solve,
//! * killing and warm-restarting one shard on its per-shard persistent
//!   segment replays byte-identical answers, while the other shards keep
//!   serving throughout.

mod common;

use std::path::PathBuf;

use strudel_core::sigma::SigmaSpec;
use strudel_rdf::signature::SignatureView;
use strudel_rules::prelude::Ratio;
use strudel_server::prelude::*;

const SHARDS: u32 = 3;

/// A scratch base path for persistent-cache tests. CI points
/// `STRUDEL_TEST_PERSIST_DIR` at a tmpfs mount; everywhere else the system
/// temp dir is used.
fn persist_base(tag: &str) -> PathBuf {
    let dir = std::env::var_os("STRUDEL_TEST_PERSIST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    dir.join(format!(
        "strudel-cluster-{tag}-{}.segment",
        std::process::id()
    ))
}

/// A shard config pinned to one poller backend (`None` lets
/// `STRUDEL_POLLER`/platform auto-detection decide, as production does).
fn shard_config_on(
    poller: Option<PollerKind>,
    index: u32,
    persist: Option<&PathBuf>,
) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_capacity: 64,
        persist_path: persist.cloned(),
        shard: Some(ShardSpec {
            index,
            count: SHARDS,
        }),
        poller,
        ..ServerConfig::default()
    }
}

fn start_cluster(persist: Option<&PathBuf>) -> (Vec<ServerHandle>, Vec<String>) {
    start_cluster_on(None, persist)
}

fn start_cluster_on(
    poller: Option<PollerKind>,
    persist: Option<&PathBuf>,
) -> (Vec<ServerHandle>, Vec<String>) {
    let handles: Vec<ServerHandle> = (0..SHARDS)
        .map(|index| server::start(&shard_config_on(poller, index, persist)).expect("bind shard"))
        .collect();
    let addrs = handles
        .iter()
        .map(|handle| handle.addr().to_string())
        .collect();
    (handles, addrs)
}

/// A distinct solve instance per `variant` (distinct view → distinct key).
fn request(variant: usize) -> SolveRequest {
    let properties: Vec<String> = (0..6).map(|i| format!("http://ex/p{i}")).collect();
    let signatures: Vec<(Vec<usize>, usize)> = (0..8)
        .map(|i| {
            let width = 1 + (i % 3);
            let start = i % 4;
            (
                (start..start + width).collect(),
                3 + (i * 11 + variant * 13) % 50,
            )
        })
        .collect();
    SolveRequest {
        op: SolveOp::Refine,
        view: SignatureView::from_counts(properties, signatures).expect("valid view"),
        spec: SigmaSpec::Coverage,
        engine: EngineKind::Greedy,
        k: Some(2),
        theta: Some(Ratio::new(1, 2)),
        step: None,
        max_k: None,
        time_limit: None,
        routing: None,
        tenant: None,
    }
}

/// Enough distinct requests that every shard owns at least `min_each`.
fn spread_requests(ring: &ShardRing, min_each: usize) -> Vec<SolveRequest> {
    let mut requests = Vec::new();
    let mut per_shard = vec![0usize; SHARDS as usize];
    for variant in 0.. {
        let request = request(variant);
        per_shard[ring.route(request.cache_key().view) as usize] += 1;
        requests.push(request);
        if per_shard.iter().all(|&n| n >= min_each) {
            break;
        }
        assert!(variant < 1000, "keys never spread: {per_shard:?}");
    }
    requests
}

fn shard_counters(response: &Response) -> (i64, i64, i64) {
    let result = response.result().expect("status result");
    let int = |block: &str, field: &str| {
        result
            .get(block)
            .and_then(|b| b.get(field))
            .and_then(Json::as_int)
            .unwrap_or(0)
    };
    (
        int("requests", "refine"),
        int("cache", "hits"),
        int("shard", "wrong_shard"),
    )
}

#[test]
fn mixed_batches_are_served_by_the_owning_shards() {
    let (handles, addrs) = start_cluster(None);
    let mut router = Router::connect(&addrs).expect("connect router");
    let ring = router.ring().clone();
    let requests = spread_requests(&ring, 2);
    let owners: Vec<u32> = requests.iter().map(|r| router.shard_of(r)).collect();
    let mut expected = vec![0i64; SHARDS as usize];
    for &owner in &owners {
        expected[owner as usize] += 1;
    }
    // The repeated single below is one more request on its owner (served
    // from cache, but the per-op counter counts requests, not solves).
    expected[owners[0] as usize] += 1;

    // Mixed traffic: a batch with every request plus two singles repeated
    // from the batch (they must land on the same shard and hit its cache).
    let outcomes = router.solve_batch(&requests).expect("cluster batch");
    assert_eq!(outcomes.len(), requests.len());
    for (idx, outcome) in outcomes.iter().enumerate() {
        let response = outcome
            .as_ref()
            .unwrap_or_else(|err| panic!("element {idx} failed: {err}"));
        assert_eq!(
            response.source(),
            Some(Source::Solved),
            "element {idx} should be a cold solve"
        );
    }
    let repeat = router.solve(&requests[0]).expect("repeat");
    assert_eq!(
        repeat.source(),
        Some(Source::Cache),
        "a repeated key converges on the shard that solved it"
    );
    assert_eq!(
        repeat.result_text(),
        outcomes[0].as_ref().unwrap().result_text(),
        "cache replay through the router is byte-identical"
    );

    // The bar: per-shard status counters account for
    // exactly the keys the ring assigns to each shard — requests were
    // *served by their owners*, not wherever a connection happened to be.
    for (shard, status) in router.status_all().into_iter().enumerate() {
        let status = status.expect("shard status");
        let (refines, hits, wrong) = shard_counters(&status);
        assert_eq!(
            refines, expected[shard],
            "shard {shard} solved a different set than the ring assigns: {expected:?}"
        );
        assert_eq!(wrong, 0, "no request was misrouted");
        if ring.route(requests[0].cache_key().view) == shard as u32 {
            assert!(hits >= 1, "the repeated key must hit shard {shard}'s cache");
        }
        // The shard identity block is reported.
        let block = status
            .result()
            .and_then(|r| r.get("shard"))
            .expect("shard block")
            .clone();
        assert_eq!(
            block.get("index").and_then(Json::as_int),
            Some(shard as i64)
        );
        assert_eq!(
            block.get("count").and_then(Json::as_int),
            Some(i64::from(SHARDS))
        );
        // And the derived hit_rate travels next to the raw counters.
        assert!(status
            .result()
            .and_then(|r| r.get("cache"))
            .and_then(|c| c.get("hit_rate"))
            .and_then(Json::as_str)
            .is_some());
    }

    router.shutdown_all().expect("shutdown cluster");
    for handle in handles {
        handle.wait();
    }
}

#[test]
fn misrouted_and_stale_requests_get_structured_wrong_shard_errors() {
    let (handles, addrs) = start_cluster(None);
    let ring = ShardRing::new(SHARDS);

    // Find a request and a shard that does NOT own it.
    let request = request(0);
    let owner = ring.route(request.cache_key().view);
    let wrong = (owner + 1) % SHARDS;
    let mut client = Client::connect(&addrs[wrong as usize]).expect("connect wrong shard");

    // Misrouted: refused with the structured error, not solved.
    let err = client.solve(&request).expect_err("wrong shard must refuse");
    let ClientError::WrongShard { detail, .. } = err else {
        panic!("expected the structured wrong_shard error, got: {err}");
    };
    assert_eq!(detail.shard, wrong);
    assert_eq!(detail.owner, owner);
    assert_eq!(detail.epoch, ring.epoch());

    // Stale ring epoch: refused even by the owner.
    let mut stale = request.clone();
    stale.routing = Some(ShardStamp {
        shard: owner,
        epoch: ShardRing::new(SHARDS + 1).epoch(),
    });
    let mut owner_client = Client::connect(&addrs[owner as usize]).expect("connect owner");
    let err = owner_client
        .solve(&stale)
        .expect_err("stale epoch must be refused");
    assert!(
        matches!(err, ClientError::WrongShard { .. }),
        "expected wrong_shard for a stale epoch, got: {err}"
    );

    // The owner still solves the correctly-routed request, and the wrong
    // shard's refusal shows up in its counters.
    let solved = owner_client.solve(&request).expect("owner solves");
    assert_eq!(solved.source(), Some(Source::Solved));
    let status = client.status().expect("status");
    let (refines, _, wrong_count) = shard_counters(&status);
    assert_eq!(refines, 0, "the refused request must not count as a solve");
    assert_eq!(wrong_count, 1, "the refusal is counted");

    for addr in &addrs {
        Client::connect(addr).unwrap().shutdown().unwrap();
    }
    for handle in handles {
        handle.wait();
    }
}

#[test]
fn killing_and_warm_restarting_one_shard_replays_byte_identically() {
    // Byte-identity across a kill + warm restart is the cluster suite's
    // sharpest behavioral proof, so it runs once per poller backend.
    common::for_each_backend("cluster-warm-restart", warm_restart_leg);
}

fn warm_restart_leg(kind: PollerKind) {
    let base = persist_base(&format!("warm-{kind}"));
    for index in 0..SHARDS {
        std::fs::remove_file(shard_segment_path(
            &base,
            &ShardSpec {
                index,
                count: SHARDS,
            },
        ))
        .ok();
    }

    let (handles, addrs) = start_cluster_on(Some(kind), Some(&base));
    let mut router = Router::connect(&addrs).expect("connect router");
    let ring = router.ring().clone();
    let requests = spread_requests(&ring, 2);

    // Mixed single/batch traffic fills every shard's cache and segment.
    let mut cold_bytes = Vec::new();
    let (singles, batched) = requests.split_at(requests.len() / 2);
    for request in singles {
        let response = router.solve(request).expect("cold single");
        cold_bytes.push(response.result_text().expect("payload").to_owned());
    }
    for outcome in router.solve_batch(batched).expect("cold batch") {
        let response = outcome.expect("batched element");
        cold_bytes.push(response.result_text().expect("payload").to_owned());
    }
    let ordered: Vec<&SolveRequest> = singles.iter().chain(batched.iter()).collect();

    // Every shard namespaced its own segment under the shared base path.
    for index in 0..SHARDS {
        let path = shard_segment_path(
            &base,
            &ShardSpec {
                index,
                count: SHARDS,
            },
        );
        assert!(path.exists(), "shard {index} must own {}", path.display());
    }
    assert!(!base.exists(), "no shard may write the bare base path");

    // Kill the shard owning the first request, then warm-restart it on the
    // same port and the same base path. The old event loop must be joined
    // (wait) before the rebind, or the two listeners race for the port.
    let victim = ring.route(ordered[0].cache_key().view);
    let victim_addr = addrs[victim as usize].clone();
    let mut handles: Vec<Option<ServerHandle>> = handles.into_iter().map(Some).collect();
    let old = handles[victim as usize].take().expect("victim is running");
    old.shutdown();
    let status = old.wait();
    assert!(status.connections >= 1, "the victim served before dying");
    handles[victim as usize] = Some(
        server::start(&ServerConfig {
            addr: victim_addr,
            ..shard_config_on(Some(kind), victim, Some(&base))
        })
        .expect("warm-restart the victim shard"),
    );

    // The router's cached connection to the victim is dead; it reconnects
    // transparently and every answer replays from the segment,
    // byte-identically, with zero recomputation.
    for (request, cold) in ordered.iter().zip(&cold_bytes) {
        let response = router.solve(request).expect("warm solve");
        assert_eq!(
            response.source(),
            Some(Source::Cache),
            "no shard may recompute after the restart"
        );
        assert_eq!(
            response.result_text().expect("payload"),
            cold,
            "warm answers must be byte-identical"
        );
    }
    let victim_status = router.status_all()[victim as usize]
        .as_ref()
        .expect("victim status")
        .result()
        .expect("result")
        .clone();
    let replayed = victim_status
        .get("persist")
        .and_then(|p| p.get("replayed"))
        .and_then(Json::as_int)
        .unwrap_or(0);
    assert!(
        replayed >= 1,
        "the restarted shard must have replayed its segment: {victim_status:?}"
    );

    router.shutdown_all().expect("shutdown cluster");
    for handle in handles.into_iter().flatten() {
        handle.wait();
    }
    for index in 0..SHARDS {
        std::fs::remove_file(shard_segment_path(
            &base,
            &ShardSpec {
                index,
                count: SHARDS,
            },
        ))
        .ok();
    }
}
