//! Replication end-to-end tests: a real leader/follower pair (in-process
//! event loops on real TCP ports), segment shipping over the wire
//! protocol, promotion, and client fail-over — the acceptance criteria of
//! the replication layer:
//!
//! * a follower replays the leader's puts byte-identically, both from the
//!   subscription snapshot and from the live stream, and refuses writes
//!   with the structured `not_leader` error naming the leader,
//! * kill + promote yields a writable shard whose cached answers are
//!   byte-identical to the dead leader's,
//! * a resurrected old leader's responses are refused via epoch mismatch,
//! * the `Router` transparently fails over mid-batch, preserving
//!   per-element error isolation,
//! * `--auto-promote` takes over after a missed-heartbeat window without
//!   any operator involvement.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use strudel_core::sigma::SigmaSpec;
use strudel_rdf::signature::SignatureView;
use strudel_rules::prelude::Ratio;
use strudel_server::prelude::*;

/// A scratch base path for persistent segments. CI points
/// `STRUDEL_TEST_PERSIST_DIR` at a tmpfs mount; everywhere else the system
/// temp dir is used.
fn persist_base(tag: &str) -> PathBuf {
    let dir = std::env::var_os("STRUDEL_TEST_PERSIST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    dir.join(format!("strudel-repl-{tag}-{}.segment", std::process::id()))
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

/// Polls `check` until it returns true or the deadline passes.
fn wait_until(what: &str, timeout: Duration, mut check: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    loop {
        if check() {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting for: {what}");
        std::thread::sleep(Duration::from_millis(20));
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

fn status_str(client: &mut Client, path: &[&str]) -> String {
    let response = client.status().expect("status");
    let mut value = response.result().expect("status result").clone();
    for key in path {
        value = value.get(key).cloned().unwrap_or(Json::Null);
    }
    value.as_str().unwrap_or("").to_owned()
}

#[test]
fn followers_replay_snapshot_and_live_stream_byte_identically() {
    let leader = server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_capacity: 64,
        ..ServerConfig::default()
    })
    .expect("bind leader");
    let leader_addr = leader.addr().to_string();
    let mut at_leader = Client::connect(&leader_addr).expect("connect leader");

    // Two solves *before* the follower exists exercise the snapshot path.
    let mut cold = Vec::new();
    for variant in 0..2 {
        let response = at_leader.solve(&request(variant)).expect("cold solve");
        cold.push(response.result_text().expect("payload").to_owned());
    }

    let follower_base = persist_base("stream-follower");
    scrub(&follower_base, 0);
    let follower = server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        cache_capacity: 64,
        persist_path: Some(follower_base.clone()),
        follow: Some(leader_addr.clone()),
        ..ServerConfig::default()
    })
    .expect("bind follower");
    let mut at_follower = Client::connect(follower.addr()).expect("connect follower");

    // The snapshot lands…
    wait_until("snapshot replay", Duration::from_secs(5), || {
        status_int(&mut at_follower, &["cache", "entries"]) >= 2
    });
    // …and two more solves on the leader arrive over the live stream.
    for variant in 2..4 {
        let response = at_leader.solve(&request(variant)).expect("cold solve");
        cold.push(response.result_text().expect("payload").to_owned());
    }
    wait_until("live stream replay", Duration::from_secs(5), || {
        status_int(&mut at_follower, &["cache", "entries"]) >= 4
    });

    // Every answer on the follower is a cache hit, byte-identical to the
    // leader's cold response.
    for (variant, cold) in cold.iter().enumerate() {
        let response = at_follower.solve(&request(variant)).expect("follower read");
        assert_eq!(
            response.source(),
            Some(Source::Cache),
            "variant {variant} must come from the replicated cache"
        );
        assert_eq!(
            response.result_text().expect("payload"),
            cold,
            "variant {variant} not byte-identical across replication"
        );
    }

    // The follower's own persistent segment received the stream.
    assert!(
        follower_base.exists(),
        "the follower writes its own segment"
    );
    assert!(
        status_int(&mut at_follower, &["persist", "puts"]) >= 4,
        "replicated puts are written through to the follower's segment"
    );

    // Status tells the story on both sides.
    assert_eq!(
        status_str(&mut at_follower, &["replication", "role"]),
        "follower"
    );
    assert_eq!(
        status_str(&mut at_follower, &["replication", "leader"]),
        leader_addr
    );
    assert_eq!(
        status_int(&mut at_leader, &["replication", "subscribers"]),
        1
    );
    assert!(status_int(&mut at_leader, &["replication", "records_sent"]) >= 4);
    assert!(status_int(&mut at_follower, &["replication", "records_applied"]) >= 4);

    // A write (an uncached solve) is refused with the structured error
    // naming the leader.
    let err = at_follower
        .solve(&request(99))
        .expect_err("followers refuse writes");
    let ClientError::NotLeader { detail, .. } = err else {
        panic!("expected the structured not_leader error, got: {err}");
    };
    assert_eq!(detail.leader, leader_addr);
    assert_eq!(
        status_int(&mut at_follower, &["replication", "refused_writes"]),
        1
    );

    at_leader.shutdown().expect("shutdown leader");
    leader.wait();
    at_follower.shutdown().expect("shutdown follower");
    follower.wait();
    scrub(&follower_base, 0);
}

/// Regression test: replicated records land on the follower's *feed
/// thread*, but the group-fsync clock (`--fsync interval`) is serviced by
/// the follower's event loop. Without an explicit wake after a feed-side
/// append, an otherwise-idle follower under the epoll backend blocks in
/// an unbounded wait with a dirty segment — the durability window
/// silently stretches from 100 ms to "whenever a client next connects"
/// (the scan backend's background sweep masked this). All observations go
/// through `ServerHandle::status`, which snapshots shared state without
/// touching the loop, so the test cannot wake it by accident.
#[test]
fn an_idle_followers_segment_is_group_fsynced_without_client_traffic() {
    let follower_base = persist_base("idle-fsync");
    scrub(&follower_base, 0);

    let leader = server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        cache_capacity: 64,
        ..ServerConfig::default()
    })
    .expect("bind leader");
    let follower = server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        cache_capacity: 64,
        persist_path: Some(follower_base.clone()),
        follow: Some(leader.addr().to_string()),
        fsync: FsyncPolicy::parse("interval:100").expect("policy"),
        ..ServerConfig::default()
    })
    .expect("bind follower");

    // One replicated record, no client ever touching the follower.
    let mut at_leader = Client::connect(leader.addr()).expect("connect leader");
    at_leader.solve(&request(0)).expect("leader solve");
    wait_until(
        "the follower applies the record",
        Duration::from_secs(5),
        || follower.status().cache.entries >= 1,
    );
    // The fsync window must elapse and the barrier run with no help from
    // any connection — only the feed thread's wake can get the loop there.
    wait_until("the idle follower fsyncs", Duration::from_secs(3), || {
        follower.status().persist.expect("persist stats").fsyncs >= 1
    });

    at_leader.shutdown().expect("shutdown leader");
    leader.wait();
    follower.shutdown();
    follower.wait();
    scrub(&follower_base, 0);
}

#[test]
fn kill_promote_failover_and_refuse_the_resurrected_old_leader() {
    let leader_base = persist_base("promo-leader");
    let follower_base = persist_base("promo-follower");
    scrub(&leader_base, 1);
    scrub(&follower_base, 1);
    let spec = ShardSpec { index: 0, count: 1 };
    let base_epoch = ShardRing::new(1).epoch();

    let leader = server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_capacity: 64,
        persist_path: Some(leader_base.clone()),
        shard: Some(spec),
        ..ServerConfig::default()
    })
    .expect("bind leader");
    let leader_addr = leader.addr().to_string();

    let follower = server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_capacity: 64,
        persist_path: Some(follower_base.clone()),
        shard: Some(spec),
        follow: Some(leader_addr.clone()),
        ..ServerConfig::default()
    })
    .expect("bind follower");
    let follower_addr = follower.addr().to_string();

    // The router knows the standby from day one: `leader+follower`.
    let mut router =
        Router::connect(&[format!("{leader_addr}+{follower_addr}")]).expect("connect router");
    assert_eq!(router.shard_epoch(0), base_epoch);

    let mut cold = Vec::new();
    for variant in 0..3 {
        let response = router.solve(&request(variant)).expect("cold solve");
        assert_eq!(response.source(), Some(Source::Solved));
        cold.push(response.result_text().expect("payload").to_owned());
    }
    let mut at_follower = Client::connect(&follower_addr).expect("connect follower");
    wait_until("replication catch-up", Duration::from_secs(5), || {
        status_int(&mut at_follower, &["cache", "entries"]) >= 3
    });

    // Kill the leader, then promote the follower the way an operator
    // would (`strudel promote`).
    leader.shutdown();
    leader.wait();
    let promoted = at_follower.promote().expect("promote");
    let new_epoch = promoted
        .result()
        .and_then(|result| result.get("epoch"))
        .and_then(Json::as_int)
        .expect("promotion epoch") as u64;
    assert_eq!(new_epoch, base_epoch.wrapping_add(1));
    assert_eq!(
        status_str(&mut at_follower, &["replication", "role"]),
        "leader"
    );

    // The router fails over transparently: cached answers replay
    // byte-identically from the promoted follower, with the new epoch
    // adopted for stamping.
    for (variant, cold) in cold.iter().enumerate() {
        let response = router.solve(&request(variant)).expect("failover solve");
        assert_eq!(
            response.source(),
            Some(Source::Cache),
            "variant {variant} must replay from the standby's replicated cache"
        );
        assert_eq!(response.result_text().expect("payload"), cold);
    }
    assert_eq!(
        router.shard_epoch(0),
        new_epoch,
        "the router adopted the bump"
    );

    // And the promoted shard is writable: a brand-new instance solves.
    let fresh = router
        .solve(&request(7))
        .expect("fresh solve after promote");
    assert_eq!(fresh.source(), Some(Source::Solved));

    // A router started *after* the fail-over, with the promoted server as
    // its primary, must adopt the bumped epoch at connect instead of
    // stamping the stale base epoch forever.
    let mut late_router =
        Router::connect(std::slice::from_ref(&follower_addr)).expect("late router");
    assert_eq!(
        late_router.shard_epoch(0),
        new_epoch,
        "a fresh router adopts the promoted primary's epoch"
    );
    let late = late_router.solve(&request(0)).expect("late router solve");
    assert_eq!(late.source(), Some(Source::Cache));
    assert_eq!(late.result_text().expect("payload"), &cold[0]);

    // Resurrect the old leader on its old address and segment. It still
    // runs the old epoch, so requests stamped with the promoted epoch are
    // refused — the structured wrong_shard error, not a stale answer.
    let resurrected = server::start(&ServerConfig {
        addr: leader_addr.clone(),
        workers: 1,
        cache_capacity: 64,
        persist_path: Some(leader_base.clone()),
        shard: Some(spec),
        ..ServerConfig::default()
    })
    .expect("resurrect old leader");
    let mut at_old = Client::connect(&leader_addr).expect("connect old leader");
    let mut stale = request(0);
    stale.routing = Some(ShardStamp {
        shard: 0,
        epoch: new_epoch,
    });
    let err = at_old
        .solve(&stale)
        .expect_err("the old leader must refuse the new epoch");
    let ClientError::WrongShard { detail, message } = err else {
        panic!("expected wrong_shard (epoch mismatch), got: {err}");
    };
    assert_eq!(
        detail.epoch, base_epoch,
        "the refusal names the stale epoch"
    );
    assert!(
        message.contains("epoch mismatch"),
        "refusal must blame the epoch: {message}"
    );

    at_old.shutdown().expect("shutdown old leader");
    resurrected.wait();
    at_follower.shutdown().expect("shutdown promoted follower");
    follower.wait();
    scrub(&leader_base, 1);
    scrub(&follower_base, 1);
}

#[test]
fn router_fails_over_mid_batch_with_per_element_isolation() {
    const SHARDS: u32 = 2;
    let ring = ShardRing::new(SHARDS);
    let spec = |index| ShardSpec {
        index,
        count: SHARDS,
    };
    let config = |shard, follow: Option<String>| ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_capacity: 64,
        shard: Some(spec(shard)),
        follow,
        ..ServerConfig::default()
    };

    let s0 = server::start(&config(0, None)).expect("bind shard 0");
    let s1 = server::start(&config(1, None)).expect("bind shard 1");
    let s1_addr = s1.addr().to_string();
    let s1b = server::start(&config(1, Some(s1_addr.clone()))).expect("bind shard 1 standby");
    let s1b_addr = s1b.addr().to_string();

    let mut router = Router::connect(&[s0.addr().to_string(), format!("{s1_addr}+{s1b_addr}")])
        .expect("connect router");

    // A workload with at least two keys per shard.
    let mut owned: Vec<Vec<SolveRequest>> = vec![Vec::new(); SHARDS as usize];
    let mut variant = 0usize;
    while owned.iter().any(|group| group.len() < 2) {
        let candidate = request(variant);
        variant += 1;
        let shard = ring.route(candidate.cache_key().view) as usize;
        if owned[shard].len() < 2 {
            owned[shard].push(candidate);
        }
        assert!(variant < 1000, "keys never spread");
    }
    let warm: Vec<SolveRequest> = owned
        .iter()
        .flat_map(|group| group.iter().cloned())
        .collect();
    let mut cold = Vec::new();
    for outcome in router.solve_batch(&warm).expect("warm-up batch") {
        cold.push(
            outcome
                .expect("warm-up element")
                .result_text()
                .expect("payload")
                .to_owned(),
        );
    }
    let mut at_s1b = Client::connect(&s1b_addr).expect("connect standby");
    wait_until("standby catch-up", Duration::from_secs(5), || {
        status_int(&mut at_s1b, &["cache", "entries"]) >= 2
    });

    // Shard 1's leader dies; its standby is promoted.
    s1.shutdown();
    s1.wait();
    at_s1b.promote().expect("promote standby");

    // A mixed batch straddling the failure: repeats for both shards (cache
    // hits), one malformed element, one fresh shard-1 key (a write the
    // promoted standby must now accept).
    let fresh = {
        let mut v = variant;
        loop {
            let candidate = request(v);
            if ring.route(candidate.cache_key().view) == 1 {
                break candidate;
            }
            v += 1;
        }
    };
    let mut batch: Vec<Json> = warm.iter().map(SolveRequest::to_json).collect();
    batch.push(Json::obj(vec![("op", Json::str("frobnicate"))]));
    batch.push(fresh.to_json());

    let outcomes = router.call_batch(&batch).expect("failover batch");
    assert_eq!(outcomes.len(), warm.len() + 2);
    for (idx, outcome) in outcomes.iter().take(warm.len()).enumerate() {
        let response = outcome
            .as_ref()
            .unwrap_or_else(|err| panic!("element {idx} failed across failover: {err}"));
        assert_eq!(
            response.source(),
            Some(Source::Cache),
            "element {idx} must replay from cache (shard 0 or the promoted standby)"
        );
        assert_eq!(
            response.result_text().expect("payload"),
            &cold[idx],
            "element {idx} must be byte-identical across the failover"
        );
    }
    assert!(
        outcomes[warm.len()].is_err(),
        "the malformed element fails alone, exactly in its slot"
    );
    let fresh_response = outcomes[warm.len() + 1]
        .as_ref()
        .expect("the fresh element is solved by the promoted standby");
    assert_eq!(fresh_response.source(), Some(Source::Solved));

    router.shutdown_all().expect("shutdown cluster");
    s0.wait();
    s1b.wait();
}

#[test]
fn auto_promotion_takes_over_after_the_heartbeat_window() {
    let leader = server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        cache_capacity: 16,
        ..ServerConfig::default()
    })
    .expect("bind leader");
    let mut at_leader = Client::connect(leader.addr()).expect("connect leader");
    at_leader.solve(&request(0)).expect("seed the cache");

    let follower = server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        cache_capacity: 16,
        follow: Some(leader.addr().to_string()),
        auto_promote: Some(Duration::from_millis(600)),
        ..ServerConfig::default()
    })
    .expect("bind follower");
    let mut at_follower = Client::connect(follower.addr()).expect("connect follower");
    wait_until("subscription", Duration::from_secs(5), || {
        status_int(&mut at_follower, &["cache", "entries"]) >= 1
    });
    assert_eq!(
        status_str(&mut at_follower, &["replication", "role"]),
        "follower"
    );

    // The leader dies without ceremony. Nobody calls promote.
    at_leader.shutdown().expect("shutdown leader");
    leader.wait();

    wait_until("auto-promotion", Duration::from_secs(10), || {
        status_str(&mut at_follower, &["replication", "role"]) == "leader"
    });
    assert_eq!(
        status_int(&mut at_follower, &["replication", "promotions"]),
        1
    );
    // Writable without any operator involvement: a fresh solve runs, and
    // the replicated entry still replays.
    let fresh = at_follower
        .solve(&request(1))
        .expect("solve after takeover");
    assert_eq!(fresh.source(), Some(Source::Solved));
    let replayed = at_follower.solve(&request(0)).expect("replayed entry");
    assert_eq!(replayed.source(), Some(Source::Cache));

    at_follower.shutdown().expect("shutdown follower");
    follower.wait();
}
