//! Multi-tenant QoS end-to-end tests over real TCP: the noisy-neighbor
//! story the tenant subsystem exists for, plus the seams around it —
//!
//! * a rate-limited tenant flooding the server is refused with the
//!   structured `over_quota` error while an unlimited tenant's cached
//!   reads keep being served promptly,
//! * `over_quota` is surfaced per *element* inside a batch envelope, not
//!   as a connection-fatal error,
//! * weighted cache reserves protect a tenant's resident entries from a
//!   flooding neighbor's evictions,
//! * a bounded compute-pool share refuses a second concurrent *lead*
//!   while coalescing joins stay free,
//! * kill → promote and a warm restart both preserve per-tenant
//!   accounting, because segment records and the replication stream are
//!   tenant-tagged.

mod common;

use std::path::PathBuf;
use std::thread;
use std::time::{Duration, Instant};

use strudel_core::sigma::SigmaSpec;
use strudel_rdf::signature::SignatureView;
use strudel_rules::prelude::Ratio;
use strudel_server::json;
use strudel_server::prelude::*;
use strudel_server::protocol;

/// A scratch base path for persistent segments. CI points
/// `STRUDEL_TEST_PERSIST_DIR` at a tmpfs mount; everywhere else the system
/// temp dir is used.
fn persist_base(tag: &str) -> PathBuf {
    let dir = std::env::var_os("STRUDEL_TEST_PERSIST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    dir.join(format!(
        "strudel-tenant-{tag}-{}.segment",
        std::process::id()
    ))
}

fn scrub(base: &PathBuf, shards: u32) {
    if shards == 0 {
        std::fs::remove_file(base).ok();
        return;
    }
    for index in 0..shards {
        std::fs::remove_file(shard_segment_path(
            base,
            &ShardSpec {
                index,
                count: shards,
            },
        ))
        .ok();
    }
}

/// A distinct solve instance per `variant` (distinct view → distinct
/// key), stamped with `tenant`. The view depends only on the variant, so
/// the same variant under two tenants is the same problem in two cache
/// namespaces — and the deterministic solver gives byte-identical answers.
fn request_for(variant: usize, tenant: Option<&str>) -> SolveRequest {
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
        tenant: tenant.map(str::to_owned),
    }
}

/// An exact refine of [`common::hard_view`] that runs to its 600 ms cap
/// undecided in both build profiles, so a pool-share refusal can be
/// provoked while it is still in flight. `theta` tells instances apart.
fn slow_request(tenant: &str, theta: Ratio) -> SolveRequest {
    SolveRequest {
        op: SolveOp::Refine,
        view: common::hard_view(),
        spec: SigmaSpec::Coverage,
        engine: EngineKind::Ilp,
        k: Some(3),
        theta: Some(theta),
        step: None,
        max_k: None,
        time_limit: Some(Duration::from_millis(600)),
        routing: None,
        tenant: Some(tenant.to_owned()),
    }
}

/// Polls `check` until it returns true or the deadline passes.
fn wait_until(what: &str, timeout: Duration, mut check: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    loop {
        if check() {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting for: {what}");
        thread::sleep(Duration::from_millis(20));
    }
}

/// Reads an integer out of a status response's nested blocks.
fn status_int(client: &mut Client, path: &[&str]) -> i64 {
    let response = client.status().expect("status");
    let mut value = response.result().expect("status result").clone();
    for key in path {
        value = value.get(key).cloned().unwrap_or(Json::Null);
    }
    value.as_int().unwrap_or(-1)
}

/// The named tenant's block out of the status `tenants` array.
fn tenant_block(client: &mut Client, name: &str) -> Json {
    let response = client.status().expect("status");
    response
        .result()
        .and_then(|result| result.get("tenants"))
        .and_then(Json::as_arr)
        .and_then(|tenants| {
            tenants
                .iter()
                .find(|t| t.get("name").and_then(Json::as_str) == Some(name))
                .cloned()
        })
        .unwrap_or_else(|| panic!("no tenant '{name}' in the status tenants block"))
}

/// One integer field of the named tenant's status block.
fn tenant_int(client: &mut Client, name: &str, field: &str) -> i64 {
    tenant_block(client, name)
        .get(field)
        .and_then(Json::as_int)
        .unwrap_or(-1)
}

#[test]
fn noisy_neighbor_is_throttled_while_the_quiet_tenant_stays_served() {
    let handle = server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_capacity: 64,
        tenants: Some(TenantSpecSet::parse("noisy:rate=1,burst=1;quiet:weight=1").expect("spec")),
        ..ServerConfig::default()
    })
    .expect("binding an ephemeral port");
    let addr = handle.addr().to_string();

    // The quiet tenant warms three instances before the storm.
    let mut quiet = Client::connect(&addr).expect("connect quiet");
    for variant in 0..3 {
        quiet
            .solve(&request_for(variant, Some("quiet")))
            .expect("quiet cold solve");
    }

    // The noisy tenant floods 30 *distinct* instances from another
    // connection. With a one-token bucket at 1 req/s almost all of them
    // must bounce — each with the structured refusal naming the tenant
    // and a positive, bounded back-off.
    let flood_addr = addr.clone();
    let flood = thread::spawn(move || {
        let mut client = Client::connect(&flood_addr).expect("connect noisy");
        let (mut admitted, mut refused) = (0u32, 0u32);
        for variant in 100..130 {
            match client.solve(&request_for(variant, Some("noisy"))) {
                Ok(_) => admitted += 1,
                Err(ClientError::OverQuota { detail, .. }) => {
                    assert_eq!(detail.tenant, "noisy", "the refusal names the tenant");
                    assert!(
                        (1..=1500).contains(&detail.retry_after_ms),
                        "retry_after_ms must be positive and near the refill: {}",
                        detail.retry_after_ms
                    );
                    refused += 1;
                }
                Err(other) => panic!("expected over_quota, got: {other}"),
            }
        }
        (admitted, refused)
    });

    // Meanwhile the quiet tenant's cached reads keep landing, promptly.
    let mut slowest = Duration::ZERO;
    for round in 0..5 {
        for variant in 0..3 {
            let started = Instant::now();
            let response = quiet
                .solve(&request_for(variant, Some("quiet")))
                .expect("quiet cached read");
            slowest = slowest.max(started.elapsed());
            assert_eq!(
                response.source(),
                Some(Source::Cache),
                "round {round} variant {variant} must hit the quiet tenant's cache"
            );
        }
    }
    assert!(
        slowest < Duration::from_secs(2),
        "quiet cached reads stayed prompt under the flood (slowest: {slowest:?})"
    );

    let (admitted, refused) = flood.join().expect("flood thread");
    assert!(
        admitted >= 1,
        "the bucket starts full: one flood request lands"
    );
    assert!(
        refused >= 25,
        "a 1 req/s tenant cannot land 30 requests in one breath: \
         admitted={admitted} refused={refused}"
    );

    // The status roll-up tells the same story, per tenant.
    let mut status = Client::connect(&addr).expect("connect status");
    assert!(tenant_int(&mut status, "noisy", "refusals") >= 25);
    assert_eq!(tenant_int(&mut status, "quiet", "refusals"), 0);
    assert!(tenant_int(&mut status, "quiet", "hits") >= 15);
    assert_eq!(tenant_int(&mut status, "quiet", "misses"), 3);

    status.shutdown().expect("shutdown");
    handle.wait();
}

#[test]
fn over_quota_is_isolated_per_element_inside_a_batch() {
    let handle = server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_capacity: 64,
        tenants: Some(TenantSpecSet::parse("limited:rate=1,burst=1").expect("spec")),
        ..ServerConfig::default()
    })
    .expect("binding an ephemeral port");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // One batch: two elements from the limited tenant (the second exceeds
    // the one-token bucket) and one from the default tenant. The raw
    // response proves the refusal is structured *and* element-scoped.
    let batch: Vec<Json> = vec![
        request_for(0, Some("limited")).to_json(),
        request_for(1, Some("limited")).to_json(),
        request_for(2, None).to_json(),
    ];
    let raw = client
        .call_raw(&protocol::encode_batch_request(&batch))
        .expect("batch round-trip");
    let value = json::parse(&raw).expect("batch response parses");
    let results = value
        .get("results")
        .and_then(Json::as_arr)
        .expect("batch results");
    assert_eq!(results.len(), 3);

    assert_eq!(
        results[0].get("ok").and_then(Json::as_bool),
        Some(true),
        "the first limited element takes the bucket's one token"
    );
    let refused = &results[1];
    assert_eq!(refused.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        refused.get("code").and_then(Json::as_str),
        Some("over_quota"),
        "the second limited element is refused with the structured code"
    );
    assert_eq!(
        refused.get("tenant").and_then(Json::as_str),
        Some("limited")
    );
    assert!(
        refused
            .get("retry_after_ms")
            .and_then(Json::as_int)
            .unwrap_or(0)
            >= 1
    );
    assert_eq!(
        results[2].get("ok").and_then(Json::as_bool),
        Some(true),
        "the default tenant's element is untouched by its neighbor's quota"
    );

    // The refusal was element-fatal, not connection-fatal: the same
    // connection keeps working.
    let response = client
        .solve(&request_for(2, None))
        .expect("the connection survives an over_quota element");
    assert_eq!(response.source(), Some(Source::Cache));

    client.shutdown().expect("shutdown");
    handle.wait();
}

#[test]
fn weighted_reserves_protect_a_tenant_from_a_flooding_neighbor() {
    // Capacity 12 over weights hog=1, protected=1, default=1 → each
    // tenant reserves floor(12/3) = 4 entries.
    let handle = server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_capacity: 12,
        tenants: Some(TenantSpecSet::parse("hog:weight=1;protected:weight=1").expect("spec")),
        ..ServerConfig::default()
    })
    .expect("binding an ephemeral port");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // The protected tenant fills exactly its reserve…
    let mut answers = Vec::new();
    for variant in 0..4 {
        let response = client
            .solve(&request_for(variant, Some("protected")))
            .expect("protected cold solve");
        answers.push(response.result_text().expect("payload").to_owned());
    }
    assert_eq!(tenant_int(&mut client, "protected", "reserved"), 4);

    // …then the hog floods 30 distinct instances, thrashing the cache.
    for variant in 100..130 {
        client
            .solve(&request_for(variant, Some("hog")))
            .expect("hog solves are admitted (no rate limit), just evicted");
    }

    // The weighted policy evicted *only* the hog's own over-reserve
    // entries; every protected answer is still resident, byte-identical.
    for (variant, cold) in answers.iter().enumerate() {
        let response = client
            .solve(&request_for(variant, Some("protected")))
            .expect("protected read");
        assert_eq!(
            response.source(),
            Some(Source::Cache),
            "variant {variant}: the flood must not evict a tenant at its reserve"
        );
        assert_eq!(response.result_text().expect("payload"), cold);
    }
    assert_eq!(tenant_int(&mut client, "protected", "evictions"), 0);
    assert_eq!(tenant_int(&mut client, "protected", "entries"), 4);
    assert!(tenant_int(&mut client, "hog", "evictions") >= 20);
    assert!(
        tenant_int(&mut client, "hog", "entries") <= 8,
        "the hog is confined to the capacity left over by the reserves"
    );

    client.shutdown().expect("shutdown");
    handle.wait();
}

#[test]
fn pool_share_refuses_a_second_lead_but_coalescing_joins_stay_free() {
    let lead_theta = Ratio::new(3, 4);
    common::assert_stays_undecided(&slow_request("cpu", lead_theta));
    let handle = server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_capacity: 64,
        tenants: Some(TenantSpecSet::parse("cpu:pool=1").expect("spec")),
        ..ServerConfig::default()
    })
    .expect("binding an ephemeral port");
    let addr = handle.addr().to_string();

    // One slow solve occupies the tenant's single pool slot.
    let lead_addr = addr.clone();
    let lead = thread::spawn(move || {
        let mut client = Client::connect(&lead_addr).expect("connect lead");
        client
            .solve(&slow_request("cpu", lead_theta))
            .expect("the leading solve completes")
    });
    let mut status = Client::connect(&addr).expect("connect status");
    wait_until(
        "the lead to occupy its slot",
        Duration::from_secs(10),
        || tenant_int(&mut status, "cpu", "inflight") == 1,
    );

    // A *different* instance for the same tenant would need a second
    // slot: refused, with the structured detail.
    let mut second = Client::connect(&addr).expect("connect second");
    let err = second
        .solve(&slow_request("cpu", Ratio::new(74, 100)))
        .expect_err("a second concurrent lead exceeds pool=1");
    let ClientError::OverQuota { detail, .. } = err else {
        panic!("expected the structured over_quota error, got: {err}");
    };
    assert_eq!(detail.tenant, "cpu");
    assert!(detail.retry_after_ms >= 1);

    // Joining the *in-flight* instance costs no slot: the same request
    // coalesces onto the leader and shares its answer.
    let join = second
        .solve(&slow_request("cpu", lead_theta))
        .expect("a coalescing join is not pool-gated");
    let led = lead.join().expect("lead thread");
    assert_eq!(
        join.result_text().expect("payload"),
        led.result_text().expect("payload"),
        "the join shares the leader's answer"
    );
    assert!(tenant_int(&mut status, "cpu", "refusals") >= 1);
    assert_eq!(tenant_int(&mut status, "cpu", "inflight"), 0);

    status.shutdown().expect("shutdown");
    handle.wait();
}

#[test]
fn promotion_and_warm_restart_preserve_per_tenant_accounting() {
    let leader_base = persist_base("promo-leader");
    let follower_base = persist_base("promo-follower");
    scrub(&leader_base, 1);
    scrub(&follower_base, 1);
    let spec = ShardSpec { index: 0, count: 1 };
    let tenants = TenantSpecSet::parse("acme:weight=2;beta-corp:weight=1").expect("spec");

    let leader = server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_capacity: 64,
        persist_path: Some(leader_base.clone()),
        shard: Some(spec),
        tenants: Some(tenants.clone()),
        ..ServerConfig::default()
    })
    .expect("bind leader");
    let leader_addr = leader.addr().to_string();
    let mut at_leader = Client::connect(&leader_addr).expect("connect leader");

    // Three namespaces on the leader: acme, beta-corp, and the default.
    let acme = at_leader
        .solve(&request_for(0, Some("acme")))
        .expect("acme cold solve")
        .result_text()
        .expect("payload")
        .to_owned();
    let beta = at_leader
        .solve(&request_for(1, Some("beta-corp")))
        .expect("beta-corp cold solve")
        .result_text()
        .expect("payload")
        .to_owned();
    let plain = at_leader
        .solve(&request_for(2, None))
        .expect("default cold solve")
        .result_text()
        .expect("payload")
        .to_owned();
    assert_eq!(tenant_int(&mut at_leader, "acme", "misses"), 1);
    assert_eq!(
        at_leader
            .solve(&request_for(0, Some("acme")))
            .expect("acme warm read")
            .source(),
        Some(Source::Cache)
    );
    assert_eq!(tenant_int(&mut at_leader, "acme", "hits"), 1);

    let follower = server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_capacity: 64,
        persist_path: Some(follower_base.clone()),
        shard: Some(spec),
        follow: Some(leader_addr.clone()),
        tenants: Some(tenants.clone()),
        ..ServerConfig::default()
    })
    .expect("bind follower");
    let mut at_follower = Client::connect(follower.addr()).expect("connect follower");
    wait_until("replication catch-up", Duration::from_secs(5), || {
        status_int(&mut at_follower, &["cache", "entries"]) >= 3
    });

    // Kill the leader; promote the follower. The replicated records were
    // tenant-tagged, so the promoted shard still knows whose entry is
    // whose.
    leader.shutdown();
    leader.wait();
    at_follower.promote().expect("promote");

    for (variant, tenant, cold) in [
        (0usize, Some("acme"), &acme),
        (1, Some("beta-corp"), &beta),
        (2, None, &plain),
    ] {
        let response = at_follower
            .solve(&request_for(variant, tenant))
            .expect("promoted read");
        assert_eq!(
            response.source(),
            Some(Source::Cache),
            "{tenant:?} variant {variant} must replay from the replicated cache"
        );
        assert_eq!(response.result_text().expect("payload"), cold);
    }
    assert_eq!(tenant_int(&mut at_follower, "acme", "entries"), 1);
    assert_eq!(tenant_int(&mut at_follower, "beta-corp", "entries"), 1);
    assert!(tenant_int(&mut at_follower, "acme", "hits") >= 1);

    // Namespaces stayed disjoint through the fail-over: acme's variant 0
    // under the *default* tenant is a miss, and the promoted shard is
    // writable, so it solves — to the byte-identical answer, since the
    // problem is the same.
    let cross = at_follower
        .solve(&request_for(0, None))
        .expect("fresh solve after promote");
    assert_eq!(cross.source(), Some(Source::Solved));
    assert_eq!(cross.result_text().expect("payload"), &acme);

    at_follower.shutdown().expect("shutdown promoted follower");
    follower.wait();

    // A warm restart from the promoted follower's own segment replays the
    // tenant-tagged records: per-tenant residency survives the process.
    let warmed = server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_capacity: 64,
        persist_path: Some(follower_base.clone()),
        shard: Some(spec),
        tenants: Some(tenants),
        ..ServerConfig::default()
    })
    .expect("bind warm restart");
    let mut at_warmed = Client::connect(warmed.addr()).expect("connect warm restart");
    assert_eq!(tenant_int(&mut at_warmed, "acme", "entries"), 1);
    assert_eq!(tenant_int(&mut at_warmed, "beta-corp", "entries"), 1);
    for (variant, tenant, cold) in [
        (0usize, Some("acme"), &acme),
        (1, Some("beta-corp"), &beta),
        (2, None, &plain),
        (0, None, &acme),
    ] {
        let response = at_warmed
            .solve(&request_for(variant, tenant))
            .expect("warm read");
        assert_eq!(
            response.source(),
            Some(Source::Cache),
            "{tenant:?} variant {variant} must replay from the warm-started segment"
        );
        assert_eq!(response.result_text().expect("payload"), cold);
    }

    at_warmed.shutdown().expect("shutdown warm restart");
    warmed.wait();
    scrub(&leader_base, 1);
    scrub(&follower_base, 1);
}
