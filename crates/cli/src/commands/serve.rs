//! `strudel serve` — run the refinement service.

use strudel_server::prelude::{
    EngineKind, FsyncPolicy, PollerKind, ServerConfig, ShardSpec, TenantSpecSet,
};

use crate::args::{parse_args, ArgSpec};
use crate::error::CliError;

/// Argument specification of `serve`.
pub const SPEC: ArgSpec = ArgSpec {
    options: &[
        "addr",
        "workers",
        "cache",
        "persist",
        "compact-dead",
        "shard",
        "fsync",
        "follow",
        "auto-promote",
        "poller",
        "tenants",
        "solver",
        "trace-sample",
        "trace-slow-ms",
    ],
    flags: &[],
    min_positional: 0,
    max_positional: 0,
};

/// Usage text of `serve`.
pub const USAGE: &str = "strudel serve [--addr HOST:PORT] [--workers N] [--cache N]
             [--persist FILE] [--compact-dead N] [--fsync POLICY] [--shard I/N]
             [--follow LEADER:PORT] [--auto-promote MS] [--poller BACKEND]
             [--tenants SPEC] [--solver MODE] [--trace-sample N]
             [--trace-slow-ms MS]
  Runs the refinement service: line-delimited JSON over TCP driven by a
  readiness-based event loop, with a fixed-size compute pool, a
  content-addressed result cache (LRU), single-flight deduplication of
  concurrent identical solves, and a batch envelope amortizing framing.
  --poller epoll|scan|auto picks the event loop's readiness backend:
  epoll (Linux kernel readiness; idle costs zero wake-ups), scan (the
  portable full-scan/park fallback), or auto (the default: epoll on
  Linux, scan elsewhere; the STRUDEL_POLLER environment variable
  overrides auto). An explicit epoll on a platform that cannot run it is
  an error; only auto falls back.
  --persist FILE write-through caches results to an append-only segment file
  replayed on the next start (warm start, byte-identical answers);
  --compact-dead N compacts the segment once N dead records accumulate
  (default 1024); --fsync always|interval:<ms>|off picks the segment's
  durability barrier (default interval:100 — group fsync every 100 ms).
  --shard I/N runs this process as shard I of an N-shard
  cluster: it serves only the keys its consistent-hash ring arc covers
  (misrouted requests get a structured wrong_shard error), and namespaces
  its --persist segment per shard (FILE.shardIofN), so every shard can use
  the same base path. Route clients with 'strudel client --cluster'.
  --follow LEADER:PORT runs this process as a replication follower: it
  subscribes to the leader's record stream, replays it into its own cache
  and segment (a warm standby with byte-identical answers), serves cache
  hits read-only, and refuses writes with a structured not_leader error
  until promoted ('strudel promote', or --auto-promote MS to take over
  automatically once the leader has been silent MS milliseconds).
  --tenants SPEC configures per-tenant QoS, e.g.
  'acme:weight=3,rate=100,pool=2;beta:weight=1' — each ';'-separated entry
  names a tenant and sets any of weight (relative cache reserve), rate
  (admitted requests/second, token bucket), burst (bucket depth, default
  = rate), and pool (max concurrently-led solves). Clients pick a tenant
  with 'strudel client --tenant NAME' (unset = the unlimited 'default'
  tenant); over-limit requests get a structured over_quota error with a
  retry_after_ms hint, refused per batch element.
  --solver request|ilp|greedy picks the engine every solve runs: request
  (the default) runs the engine each request names; ilp or greedy
  replaces it before the cache key is taken, so the cache, the segment
  and the trace name the engine that ran. ilp also warm-starts each
  refine from the nearest solved neighbor's solution; a seeded refine
  decides what a cold one does but may return another refinement that
  meets the same k and theta. The status
  payload's 'solver' block reports cold/warm solve counts, the seed
  hit-rate, repaired hints, nodes, propagations and conflicts.
  --trace-sample N records every Nth solve request as a lifecycle span
  (per-stage micros: decode, admission, cache, solve, flush) in a
  fixed-size in-memory flight recorder dumped by 'strudel client trace'
  (0, the default, disables sampling; the STRUDEL_TRACE_SAMPLE
  environment variable overrides an unset flag). --trace-slow-ms MS is
  the always-on slow-request log: every request is timed and any whose
  total reaches MS milliseconds is recorded regardless of sampling
  (unset = off; STRUDEL_TRACE_SLOW_MS overrides an unset flag). The
  status payload's 'observe' block reports per-stage latency histograms
  (p50/p90/p99, tenant-tagged totals) and the recorder's gauges.
  Defaults: --addr 127.0.0.1:7464, --workers 4, --cache 1024
  entries. Blocks until a client sends {\"op\":\"shutdown\"}; shutdown drains
  in-flight solves and flushes the segment, then reports the final counters.";

/// Runs the command. Blocks until a `shutdown` request arrives.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let parsed = parse_args(args, &SPEC)?;
    let mut config = ServerConfig::default();
    if let Some(addr) = parsed.option("addr") {
        config.addr = addr.to_owned();
    }
    if let Some(workers) = parsed.option_parsed::<usize>("workers")? {
        config.workers = workers;
    }
    if let Some(cache) = parsed.option_parsed::<usize>("cache")? {
        config.cache_capacity = cache;
    }
    if let Some(path) = parsed.option("persist") {
        config.persist_path = Some(path.into());
    }
    if let Some(threshold) = parsed.option_parsed::<u64>("compact-dead")? {
        config.compact_dead_threshold = threshold;
    }
    if let Some(shard) = parsed.option("shard") {
        config.shard = Some(ShardSpec::parse(shard).map_err(|err| {
            CliError::Usage(format!("invalid value '{shard}' for --shard: {err}"))
        })?);
    }
    if let Some(policy) = parsed.option("fsync") {
        config.fsync = FsyncPolicy::parse(policy).map_err(|err| {
            CliError::Usage(format!("invalid value '{policy}' for --fsync: {err}"))
        })?;
    }
    if let Some(leader) = parsed.option("follow") {
        config.follow = Some(leader.to_owned());
    }
    if let Some(backend) = parsed.option("poller") {
        let kind: PollerKind = backend.parse().map_err(|err| {
            CliError::Usage(format!("invalid value '{backend}' for --poller: {err}"))
        })?;
        config.poller = Some(kind);
    }
    if let Some(spec) = parsed.option("tenants") {
        config.tenants = Some(TenantSpecSet::parse(spec).map_err(|err| {
            CliError::Usage(format!("invalid value '{spec}' for --tenants: {err}"))
        })?);
    }
    if let Some(mode) = parsed.option("solver") {
        config.solver = match mode.to_ascii_lowercase().as_str() {
            "request" => None,
            "ilp" => Some(EngineKind::Ilp),
            "greedy" => Some(EngineKind::Greedy),
            _ => {
                return Err(CliError::Usage(format!(
                    "invalid value '{mode}' for --solver: expected request, ilp, or greedy"
                )))
            }
        };
    }
    if let Some(every) = parsed.option_parsed::<u64>("trace-sample")? {
        config.trace_sample = Some(every);
    }
    if let Some(slow_ms) = parsed.option_parsed::<u64>("trace-slow-ms")? {
        config.trace_slow_ms = Some(slow_ms);
    }
    if let Some(window) = parsed.option_parsed::<u64>("auto-promote")? {
        if config.follow.is_none() {
            return Err(CliError::Usage(
                "--auto-promote only makes sense with --follow".to_owned(),
            ));
        }
        if window < 500 {
            return Err(CliError::Usage(format!(
                "--auto-promote {window} is below the 500 ms floor (the leader \
                 heartbeats every 100 ms; a tighter window would depose healthy leaders)"
            )));
        }
        config.auto_promote = Some(std::time::Duration::from_millis(window));
    }

    // Announce the bound address on stderr immediately (stdout carries the
    // final report): with --addr …:0 the OS picks the port and callers need
    // to learn it before the first client can connect.
    let status = serve_announced(&config)?;
    let mut out = String::new();
    out.push_str("server stopped\n");
    out.push_str(&format!(
        "poller: {} backend, {} waits, {} wakeups, {} spurious, {} syscalls\n",
        status.poller.backend,
        status.poller.waits,
        status.poller.wakeups,
        status.poller.spurious,
        status.poller.syscalls,
    ));
    out.push_str(&format!(
        "connections: {} ({} still open), requests: {} refine / {} highest-theta / {} lowest-k / {} status, errors: {}\n",
        status.connections,
        status.open_connections,
        status.refine,
        status.highest_theta,
        status.lowest_k,
        status.status,
        status.errors,
    ));
    out.push_str(&format!(
        "batches: {} envelopes carrying {} requests\n",
        status.batches, status.batched_requests,
    ));
    out.push_str(&format!(
        "cache: {} hits, {} misses, {} evictions, {} resident of {}\n",
        status.cache.hits,
        status.cache.misses,
        status.cache.evictions,
        status.cache.entries,
        status.cache.capacity,
    ));
    out.push_str(&format!(
        "single-flight: {} solves led, {} requests coalesced\n",
        status.flight.leaders, status.flight.shared,
    ));
    out.push_str(&format!(
        "solver: {} mode, {} cold / {} warm solves, {} hints repaired, {} nodes\n",
        status.solver.mode,
        status.solver.cold_solves,
        status.solver.warm_solves,
        status.solver.repaired_hints,
        status.solver.nodes,
    ));
    if let Some(persist) = &status.persist {
        out.push_str(&format!(
            "persist: {} replayed at start, {} puts, {} tombstones, {} compactions, {} fsyncs, {} bytes on disk\n",
            persist.replayed,
            persist.puts,
            persist.tombstones,
            persist.compactions,
            persist.fsyncs,
            persist.file_bytes,
        ));
    }
    let repl = &status.replication;
    out.push_str(&format!(
        "replication: {} (epoch {}), {} records sent / {} applied, {} promotion(s)\n",
        repl.role.name(),
        repl.epoch,
        repl.records_sent,
        repl.records_applied,
        repl.promotions,
    ));
    Ok(out)
}

fn serve_announced(
    config: &ServerConfig,
) -> Result<strudel_server::prelude::StatusSnapshot, CliError> {
    let handle = strudel_server::server::start(config).map_err(|source| CliError::Io {
        path: config.addr.clone(),
        source,
    })?;
    eprintln!(
        "strudel-server listening on {} ({} workers, {}-entry cache, {} poller{}{}{})",
        handle.addr(),
        config.workers,
        config.cache_capacity,
        handle.status().poller.backend,
        match &config.shard {
            Some(spec) => format!(", shard {spec}"),
            None => String::new(),
        },
        match &config.follow {
            Some(leader) => format!(", following {leader}"),
            None => String::new(),
        },
        match (&config.persist_path, &config.shard) {
            (Some(path), Some(spec)) => format!(
                ", persisting to {}",
                strudel_server::prelude::shard_segment_path(path, spec).display()
            ),
            (Some(path), None) => format!(", persisting to {}", path.display()),
            (None, _) => String::new(),
        }
    );
    Ok(handle.wait())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::test_support::args;
    use strudel_server::prelude::Client;

    /// Binds an OS-assigned port, releases it, and returns the address.
    /// Racy in principle, but ephemeral ports are not reused immediately.
    fn free_addr() -> String {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    }

    fn connect_eventually(addr: &str) -> Client {
        let mut attempts = 0;
        loop {
            match Client::connect(addr) {
                Ok(client) => return client,
                Err(err) => {
                    attempts += 1;
                    assert!(attempts < 500, "server never came up: {err}");
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
            }
        }
    }

    #[test]
    fn serve_blocks_until_shutdown_and_reports_counters() {
        let addr = free_addr();
        let serve_args = args(&["--addr", &addr, "--workers", "1", "--cache", "4"]);
        let report_thread = std::thread::spawn(move || run(&serve_args));

        // Wait for the listener to come up, then drive it over TCP.
        let mut client = connect_eventually(&addr);
        client.status().unwrap();
        client.shutdown().unwrap();

        let report = report_thread.join().unwrap().unwrap();
        assert!(report.contains("server stopped"), "report: {report}");
        assert!(report.contains("poller:"), "report: {report}");
        assert!(report.contains("cache:"), "report: {report}");
        assert!(report.contains("batches:"), "report: {report}");
        assert!(report.contains("single-flight:"), "report: {report}");
        assert!(report.contains("solver: request mode"), "report: {report}");
        assert!(
            !report.contains("persist:"),
            "no persistence configured: {report}"
        );
    }

    #[test]
    fn serve_with_an_explicit_poller_backend_reports_it() {
        let addr = free_addr();
        let serve_args = args(&["--addr", &addr, "--workers", "1", "--poller", "scan"]);
        let report_thread = std::thread::spawn(move || run(&serve_args));

        let mut client = connect_eventually(&addr);
        let status = client.status().unwrap();
        let backend = status
            .result()
            .and_then(|result| result.get("poller"))
            .and_then(|poller| poller.get("backend"))
            .and_then(strudel_server::json::Json::as_str)
            .map(str::to_owned);
        assert_eq!(backend.as_deref(), Some("scan"));
        client.shutdown().unwrap();

        let report = report_thread.join().unwrap().unwrap();
        assert!(report.contains("poller: scan backend"), "report: {report}");
    }

    #[test]
    fn serve_with_persistence_reports_the_segment() {
        let addr = free_addr();
        let segment =
            std::env::temp_dir().join(format!("strudel-serve-persist-{}.log", std::process::id()));
        std::fs::remove_file(&segment).ok();
        let serve_args = args(&[
            "--addr",
            &addr,
            "--workers",
            "1",
            "--persist",
            segment.to_str().unwrap(),
            "--compact-dead",
            "16",
        ]);
        let report_thread = std::thread::spawn(move || run(&serve_args));

        let mut client = connect_eventually(&addr);
        client.shutdown().unwrap();

        let report = report_thread.join().unwrap().unwrap();
        assert!(report.contains("persist:"), "report: {report}");
        assert!(segment.exists(), "segment file must be created");
        std::fs::remove_file(&segment).ok();
    }

    #[test]
    fn bad_arguments_are_usage_errors() {
        assert!(run(&args(&["unexpected-positional"])).is_err());
        assert!(run(&args(&["--workers", "not-a-number"])).is_err());
        assert!(run(&args(&["--compact-dead", "many"])).is_err());
        assert!(run(&args(&["--shard", "3"])).is_err());
        assert!(run(&args(&["--shard", "3/3"])).is_err());
        assert!(run(&args(&["--shard", "0of3"])).is_err());
        assert!(run(&args(&["--fsync", "sometimes"])).is_err());
        assert!(run(&args(&["--fsync", "interval:0"])).is_err());
        assert!(run(&args(&["--poller", "kqueue"])).is_err());
        assert!(run(&args(&["--poller", "uring"])).is_err());
        // Tenant specs are validated up front: unknown knobs, zero
        // values, and malformed entries are usage errors.
        assert!(run(&args(&["--tenants", "acme:speed=9"])).is_err());
        assert!(run(&args(&["--tenants", "acme:rate=0"])).is_err());
        assert!(run(&args(&["--tenants", "not a tenant!"])).is_err());
        // --auto-promote needs --follow, and has a sanity floor.
        assert!(run(&args(&["--auto-promote", "1000"])).is_err());
        assert!(run(&args(&["--follow", "127.0.0.1:1", "--auto-promote", "100"])).is_err());
        // Solver modes are a closed set, and the search has no restarts.
        assert!(run(&args(&["--solver", "simplex"])).is_err());
        assert!(matches!(
            run(&args(&["--solver", "portfolio"])),
            Err(CliError::Usage(message)) if message.contains("request, ilp, or greedy")
        ));
        assert!(matches!(
            run(&args(&["--solver-restarts", "100"])),
            Err(CliError::Usage(message)) if message.contains("unknown option")
        ));
        // Trace knobs must be numeric.
        assert!(run(&args(&["--trace-sample", "often"])).is_err());
        assert!(run(&args(&["--trace-slow-ms", "slowish"])).is_err());
    }

    #[test]
    fn serve_with_a_shard_spec_owns_only_its_arc() {
        use strudel_server::prelude::{ClientError, ShardRing};
        let addr = free_addr();
        let serve_args = args(&["--addr", &addr, "--workers", "1", "--shard", "1/3"]);
        let report_thread = std::thread::spawn(move || run(&serve_args));

        let mut client = connect_eventually(&addr);
        // The shard identity is in the status payload.
        let status = client.status().unwrap();
        let shard = status
            .result()
            .and_then(|result| result.get("shard"))
            .expect("shard block")
            .clone();
        assert_eq!(
            shard
                .get("index")
                .and_then(strudel_server::json::Json::as_int),
            Some(1)
        );
        assert_eq!(
            shard
                .get("count")
                .and_then(strudel_server::json::Json::as_int),
            Some(3)
        );
        // Any solve for a key shard 1 does not own is refused structurally.
        let ring = ShardRing::new(3);
        let view = strudel_rdf::signature::SignatureView::from_counts(
            vec!["http://ex/p".into()],
            vec![(vec![0], 5)],
        )
        .unwrap();
        let request = strudel_server::prelude::SolveRequest {
            op: strudel_server::prelude::SolveOp::Refine,
            view,
            spec: strudel_core::sigma::SigmaSpec::Coverage,
            engine: strudel_server::prelude::EngineKind::Greedy,
            k: Some(1),
            theta: Some(strudel_rules::prelude::Ratio::new(1, 2)),
            step: None,
            max_k: None,
            time_limit: None,
            routing: None,
            tenant: None,
        };
        let owner = ring.route(request.view.cache_key());
        let outcome = client.solve(&request);
        if owner == 1 {
            assert!(outcome.is_ok(), "the owner must solve: {outcome:?}");
        } else {
            assert!(
                matches!(outcome, Err(ClientError::WrongShard { .. })),
                "a non-owner must refuse: {outcome:?}"
            );
        }

        client.shutdown().unwrap();
        let report = report_thread.join().unwrap().unwrap();
        assert!(report.contains("server stopped"), "report: {report}");
    }
}
