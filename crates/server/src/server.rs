//! The refinement daemon: a readiness-based event loop, a compute pool, and
//! a write-through persistent result cache.
//!
//! Architecture (one box per module):
//!
//! ```text
//!  TCP clients ──► event loop (1 thread, non-blocking sockets)
//!                    │  per-connection read/write buffers + response slots
//!                    │  lines framed, batch envelopes opened per element
//!                    ▼
//!        dispatch: cache ──hit──► replay cached bytes into the slot
//!           │ miss
//!           ▼
//!        flight board: follower ──► park a token on the leader's flight
//!           │ leader
//!           ▼
//!        compute pool (fixed size, CPU-bound) ──► engine solve
//!           │ completion message + unpark
//!           ▼
//!  event loop: cache.insert ──► segment store (append P/D records)
//!              fan result out to every parked token, flush in order
//! ```
//!
//! **Event loop.** Connections cost a buffer, not a thread: the loop owns
//! every socket in non-blocking mode and pumps reads, dispatch, solve
//! completions, and writes per readiness event. Readiness comes from a
//! pluggable [`Poller`](crate::poller) backend — kernel epoll on Linux
//! (direct syscall bindings, no external crates) or the portable
//! full-scan/park fallback — selected at runtime (`serve --poller`).
//! Only fds the poller reports ready are pumped; write interest is
//! enabled exactly while a connection holds un-flushed bytes; dead fds
//! are deregistered instead of re-scanned; and compute-pool completions
//! wake the loop through the poller's [`Waker`](crate::poller::Waker),
//! so an idle epoll server makes *zero* sweeps (the scan backend keeps
//! the old ~500 Hz floor). Responses are assembled in per-connection
//! *slots* so they leave in request order even when solves complete out
//! of order.
//!
//! **Batching.** One line may carry a batch envelope (see
//! [`protocol`]); elements share the line's framing and a
//! single write-out, and each element runs the cache/single-flight path
//! independently, so a mixed batch serves its hits immediately while its
//! misses solve.
//!
//! **Persistence.** With a segment path configured, every cache insert is
//! written through to an append-only file and every eviction tombstoned;
//! startup replays the file so a restarted server answers previously-cached
//! requests byte-identically without recomputing (see
//! [`SegmentStore`]).
//!
//! The solve path serializes a result exactly once; every later identical
//! request — concurrent (single-flight), subsequent (cache), or in a later
//! process (segment replay) — receives those same bytes.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use strudel_core::engine::{hint_from_refinement, IlpEngine, IlpEngineConfig, RefinementHint};
use strudel_core::prelude::{highest_theta, lowest_k, HighestThetaOptions, SweepDirection};
use strudel_core::wire::{WireHighestTheta, WireLowestK, WireOutcome};

use crate::hints::{view_identities, HintIndex, SolveTelemetry, SolvedHint};

use crate::cache::{
    CacheStats, FsyncPolicy, LruCache, OwnerCacheStats, PersistStats, SegmentStore,
};
use crate::flight::{BoardJoin, FlightBoard, FlightStats};
use crate::json::Json;
use crate::poller::{
    self, Event, Fd, Interest, Poller, PollerCounters, PollerKind, PollerStats, Waker as PollWaker,
};
use crate::pool::WorkerPool;
use crate::protocol::{
    self, encode_error, encode_frame_header, encode_hello_ok, encode_not_leader, encode_over_quota,
    encode_success, encode_success_parts, encode_wrong_shard, try_decode_frame, CacheKey, Decoded,
    EngineKind, FrameKind, FrameView, Framing, NotLeader, OverQuota, Request, ShardRing, ShardSpec,
    SolveOp, SolveRequest, Source, WrongShard, DEFAULT_TENANT,
};
use crate::replica::{self, FollowerConfig, FollowerHost, ReplState, ReplStatus, ReplicaHub};
use crate::tenant::{TenantCounters, TenantRegistry, TenantSpecSet};
use crate::trace::{self, ActiveSpan, ObserveSnapshot, ObserveState};

/// Configuration of a server instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick one (tests do).
    pub addr: String,
    /// Worker threads solving instances (the CPU concurrency bound).
    pub workers: usize,
    /// Result cache capacity, in entries.
    pub cache_capacity: usize,
    /// Segment file for the write-through persistent cache; `None` keeps
    /// the cache memory-only (it dies with the process).
    pub persist_path: Option<PathBuf>,
    /// Dead records in the segment that trigger compaction.
    pub compact_dead_threshold: u64,
    /// This process's shard identity in a cluster (`serve --shard i/n`).
    /// When set, the server derives the cluster's [`ShardRing`], refuses
    /// solve requests it does not own with a structured `wrong_shard`
    /// error, and namespaces its persistent segment per shard (see
    /// [`shard_segment_path`]). `None` runs the classic single-process
    /// server.
    pub shard: Option<ShardSpec>,
    /// When the persistent segment fsyncs its appends
    /// (`serve --fsync always|interval:<ms>|off`; see [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
    /// Run as a replication follower of this leader (`serve --follow`):
    /// subscribe to its record stream, replay it into the local cache and
    /// segment, serve cache hits read-only, and refuse writes with a
    /// structured `not_leader` error until promoted.
    pub follow: Option<String>,
    /// Follower auto-promotion window: take over as leader once the
    /// leader's stream has been silent this long. `None` promotes only on
    /// an explicit `promote` request (`strudel promote`). Must comfortably
    /// exceed [`replica::HEARTBEAT_INTERVAL`].
    pub auto_promote: Option<Duration>,
    /// Readiness backend of the event loop (`serve --poller epoll|scan`).
    /// `None` auto-detects: the `STRUDEL_POLLER` environment override (the
    /// conformance matrix uses it) first, then epoll on Linux, scan
    /// elsewhere — see [`PollerKind::resolve`].
    pub poller: Option<PollerKind>,
    /// Per-tenant QoS configuration (`serve --tenants SPEC`): cache
    /// weights, admission rates, and compute-pool shares (see
    /// [`TenantSpecSet::parse`]). `None` runs a single unlimited
    /// `default` tenant — exactly the pre-tenancy behavior.
    pub tenants: Option<TenantSpecSet>,
    /// The engine every solve runs (`serve --solver ilp|greedy`). It
    /// overrides the request's `engine` field before the cache key is
    /// taken, so the key, the segment record, the hint bucket and the span
    /// all name the engine that ran. `None` (`--solver request`, the
    /// default) runs the engine each request names. `Some(Ilp)` also
    /// warm-starts `refine` solves from the nearest solved neighbor (see
    /// [`crate::hints`]).
    pub solver: Option<EngineKind>,
    /// Trace-sampling divisor (`serve --trace-sample N`): every Nth solve
    /// request is recorded as a flight-recorder span; 0 disables sampling.
    /// `None` consults the `STRUDEL_TRACE_SAMPLE` environment override (the
    /// CI trace-smoke matrix uses it), then defaults to 0.
    pub trace_sample: Option<u64>,
    /// Slow-request threshold in milliseconds (`serve --trace-slow-ms`):
    /// when set, every request is timed and any at or over the threshold is
    /// recorded regardless of sampling. `None` consults
    /// `STRUDEL_TRACE_SLOW_MS`, then leaves the slow log off.
    pub trace_slow_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7464".to_owned(),
            workers: 4,
            cache_capacity: 1024,
            persist_path: None,
            compact_dead_threshold: 1024,
            shard: None,
            fsync: FsyncPolicy::default(),
            follow: None,
            auto_promote: None,
            poller: None,
            tenants: None,
            solver: None,
            trace_sample: None,
            trace_slow_ms: None,
        }
    }
}

/// Seed of the tenant registry's refusal-jitter RNG. Fixed (not
/// wall-clock derived) so a refusal trace is reproducible run to run —
/// the determinism property tests depend on it.
const TENANT_JITTER_SEED: u64 = 0x7465_6e61_6e74_7331; // "tenants1"

/// The per-shard namespace of a persistent segment: every shard of a
/// cluster can be pointed at the *same* `--persist` base path and still
/// own a private file (`cache.segment` → `cache.segment.shard1of3`), so
/// shards never interleave writes or replay one another's keys.
pub fn shard_segment_path(base: &std::path::Path, spec: &ShardSpec) -> PathBuf {
    let name = base
        .file_name()
        .map(|name| name.to_string_lossy().into_owned())
        .unwrap_or_default();
    base.with_file_name(format!("{name}.shard{}of{}", spec.index, spec.count))
}

/// Everything a sharded server knows about its place in the cluster.
struct ShardState {
    spec: ShardSpec,
    ring: ShardRing,
}

/// Everything the event loop, the workers, and the handle share.
struct Shared {
    shard: Option<ShardState>,
    /// Replication state: the epoch stamps are validated against, the
    /// writable flag followers enforce, and the stream counters. Shared
    /// with the follower feed thread, hence the `Arc`.
    repl: Arc<ReplState>,
    cache: Mutex<LruCache<CacheKey, Arc<String>>>,
    persist: Mutex<Option<SegmentStore>>,
    /// The tenant control plane: admission buckets, pool shares, and the
    /// per-tenant counters (interior-mutexed; see [`TenantRegistry`]).
    tenants: TenantRegistry,
    pool: WorkerPool,
    metrics: Metrics,
    stop: AtomicBool,
    started: Instant,
    /// The poller's cross-thread wake handle: workers and `shutdown()`
    /// pull the event loop out of its readiness wait the moment there is
    /// something to do (this replaced the park/unpark channel).
    waker: Arc<dyn PollWaker>,
    /// Poller counters, shared so `status` can snapshot them from any
    /// thread while the poller itself lives on the loop thread.
    poller_counters: Arc<PollerCounters>,
    /// The readiness backend actually running (`"epoll"` / `"scan"`).
    poller_backend: &'static str,
    /// Finished solves travelling from the workers back to the event loop.
    /// Behind its own `Arc` so a worker's job closure captures *only* this
    /// queue, never `Shared` itself — if a job held the last `Shared`
    /// reference, dropping it on a worker thread would run
    /// `WorkerPool::drop`, which joins that very thread (a self-join that
    /// never returns).
    completions: Arc<Mutex<Vec<Completion>>>,
    /// The engine that overrides every request's (`--solver`).
    solver: Option<EngineKind>,
    /// The observability surface: span sampling, stage histograms, and the
    /// flight recorder (`--trace-sample` / `--trace-slow-ms`).
    observe: ObserveState,
}

/// One finished solve: the flight key, the tenant that led it (the key
/// namespaces tenants, so every waiter on the flight shares it), and the
/// serialized result (or the error message shared by everyone parked on
/// the flight).
struct Completion {
    key: CacheKey,
    tenant: String,
    outcome: Result<String, String>,
    /// The engine that ran, as the cache key names it.
    engine: EngineKind,
    /// Solver-core counters and the exported solution for the hint index.
    telemetry: SolveTelemetry,
}

/// Per-operation request counters and gauges.
#[derive(Default)]
struct Metrics {
    refine: AtomicU64,
    highest_theta: AtomicU64,
    lowest_k: AtomicU64,
    status: AtomicU64,
    shutdown: AtomicU64,
    errors: AtomicU64,
    connections: AtomicU64,
    open_connections: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    flight_leaders: AtomicU64,
    flight_shared: AtomicU64,
    flight_aborted: AtomicU64,
    persist_errors: AtomicU64,
    wrong_shard: AtomicU64,
    not_leader: AtomicU64,
    /// `bin1` request frames decoded (JSON lines are not counted here;
    /// they show up under the per-op request counters).
    frames_in: AtomicU64,
    /// `bin1` response frames staged for writing.
    frames_out: AtomicU64,
    /// Bytes read off client sockets, both framings.
    wire_bytes_in: AtomicU64,
    /// Bytes written to client sockets, both framings.
    wire_bytes_out: AtomicU64,
    /// Fatal frame-level decode failures (bad magic/version/kind,
    /// malformed varints, oversized payloads).
    wire_decode_errors: AtomicU64,
    /// `hello` negotiations that switched a connection to `bin1`.
    bin_negotiated: AtomicU64,
    /// Gauge: open connections currently speaking `bin1`.
    bin_connections: AtomicU64,
    /// Pool solves dispatched without a warm-start seed.
    solver_cold: AtomicU64,
    /// Pool solves seeded from a cached neighbor's solution.
    solver_warm: AtomicU64,
    /// Warm solves whose hint was stale and repaired by propagation.
    solver_repaired: AtomicU64,
    /// Neighbor-index consultations on the miss path.
    solver_seed_lookups: AtomicU64,
    /// Consultations that found a close-enough neighbor.
    solver_seed_hits: AtomicU64,
    /// Branch-and-bound nodes explored across all solves.
    solver_nodes: AtomicU64,
    /// Constraint propagations across all solves.
    solver_propagations: AtomicU64,
    /// Search conflicts (dead ends) across all solves.
    solver_conflicts: AtomicU64,
    /// `trace` requests served.
    trace: AtomicU64,
}

impl Metrics {
    fn count_solve(&self, op: SolveOp) {
        match op {
            SolveOp::Refine => &self.refine,
            SolveOp::HighestTheta => &self.highest_theta,
            SolveOp::LowestK => &self.lowest_k,
        }
        .fetch_add(1, Ordering::Relaxed);
    }
}

/// Shard identity block of the `status` payload (sharded servers only).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardStatus {
    /// This process's shard id.
    pub index: u32,
    /// Total shards in the cluster.
    pub count: u32,
    /// The ring epoch this server validates request stamps against.
    pub epoch: u64,
    /// Solve requests refused because this shard does not own their key
    /// (or their stamp carried a different ring epoch).
    pub wrong_shard: u64,
}

/// Wire-level counters of the `status` payload: traffic volume per
/// framing, frame counts, and the negotiated-framing roll-up across open
/// connections.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// `bin1` request frames decoded.
    pub frames_in: u64,
    /// `bin1` response frames written.
    pub frames_out: u64,
    /// Bytes read off client sockets (both framings).
    pub bytes_in: u64,
    /// Bytes written to client sockets (both framings).
    pub bytes_out: u64,
    /// Fatal frame decode failures.
    pub decode_errors: u64,
    /// `hello` negotiations that switched a connection to `bin1`.
    pub bin_negotiated: u64,
    /// Open connections currently speaking `bin1`.
    pub connections_bin: u64,
    /// Open connections on the default line-JSON framing.
    pub connections_json: u64,
}

/// Solver-core block of the `status` payload: how the miss path computed
/// and how often warm starts landed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// The `--solver` setting: `request` when each request's `engine`
    /// field runs, else the name of the engine that overrides it (`ilp`,
    /// `greedy`).
    pub mode: &'static str,
    /// Solves dispatched without a warm-start seed.
    pub cold_solves: u64,
    /// Solves seeded from a cached neighbor's solution.
    pub warm_solves: u64,
    /// Warm solves whose stale hint was repaired on the way to a solution.
    pub repaired_hints: u64,
    /// Neighbor-index consultations on the miss path.
    pub seed_lookups: u64,
    /// Consultations that produced a usable seed.
    pub seed_hits: u64,
    /// Branch-and-bound nodes explored across all solves.
    pub nodes: u64,
    /// Constraint propagations across all solves.
    pub propagations: u64,
    /// Search conflicts (dead ends) across all solves.
    pub conflicts: u64,
}

/// A point-in-time view of the server's counters (the `status` payload).
#[derive(Clone, Debug)]
pub struct StatusSnapshot {
    /// Shard identity; `None` for an unsharded server.
    pub shard: Option<ShardStatus>,
    /// Worker threads.
    pub workers: usize,
    /// Readiness-backend counters (backend name, waits, wakeups,
    /// spurious wakes, registered fds).
    pub poller: PollerStats,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Connections accepted so far.
    pub connections: u64,
    /// Connections currently open (the event loop's gauge).
    pub open_connections: u64,
    /// `refine` requests served.
    pub refine: u64,
    /// `highest-theta` requests served.
    pub highest_theta: u64,
    /// `lowest-k` requests served.
    pub lowest_k: u64,
    /// `status` requests served.
    pub status: u64,
    /// `shutdown` requests acknowledged.
    pub shutdowns: u64,
    /// Error responses sent (including per-element batch errors).
    pub errors: u64,
    /// Batch envelopes received.
    pub batches: u64,
    /// Requests that arrived inside a batch envelope.
    pub batched_requests: u64,
    /// Result cache counters.
    pub cache: CacheStats,
    /// Single-flight counters.
    pub flight: FlightStats,
    /// Persistent segment counters; `None` when persistence is off.
    pub persist: Option<PersistStats>,
    /// Persistent segment write failures (0 in healthy operation).
    pub persist_errors: u64,
    /// Replication counters: role, epoch, stream position, lag.
    pub replication: ReplStatus,
    /// Writes refused because this server is an unpromoted follower.
    pub not_leader: u64,
    /// Per-tenant QoS counters, in registry order (configured tenants
    /// first, then unknown tenants in first-seen order).
    pub tenants: Vec<TenantCounters>,
    /// Per-tenant cache occupancy (entries resident, reserve floor).
    pub tenant_cache: Vec<OwnerCacheStats>,
    /// Wire-level traffic counters and the per-connection framing roll-up.
    pub wire: WireStats,
    /// Solver-core counters: warm starts, repairs, nodes.
    pub solver: SolverStats,
    /// `trace` requests served.
    pub traces: u64,
    /// The observability surface: per-stage histograms, sampling counters,
    /// and the flight recorder's depth/dropped gauges.
    pub observe: ObserveSnapshot,
}

impl StatusSnapshot {
    /// Encodes the snapshot as the `status` response's result object.
    pub fn to_json(&self) -> Json {
        let persist = match &self.persist {
            None => Json::Null,
            Some(stats) => Json::obj(vec![
                ("replayed", Json::Int(stats.replayed as i64)),
                ("puts", Json::Int(stats.puts as i64)),
                ("tombstones", Json::Int(stats.tombstones as i64)),
                ("dead", Json::Int(stats.dead as i64)),
                ("live", Json::Int(stats.live as i64)),
                ("compactions", Json::Int(stats.compactions as i64)),
                ("file_bytes", Json::Int(stats.file_bytes as i64)),
                ("fsyncs", Json::Int(stats.fsyncs as i64)),
                ("skipped", Json::Int(stats.skipped_records as i64)),
                ("errors", Json::Int(self.persist_errors as i64)),
            ]),
        };
        // The tenants block joins the registry's counters with the cache's
        // per-owner occupancy by name; a tenant that has never inserted
        // simply reports zero entries.
        let tenants = {
            let occupancy: HashMap<&str, (usize, usize)> = self
                .tenant_cache
                .iter()
                .map(|o| (o.name.as_str(), (o.entries, o.reserved)))
                .collect();
            Json::Arr(
                self.tenants
                    .iter()
                    .map(|t| {
                        let (entries, reserved) =
                            occupancy.get(t.name.as_str()).copied().unwrap_or((0, 0));
                        Json::obj(vec![
                            ("name", Json::str(t.name.clone())),
                            ("hits", Json::Int(t.hits as i64)),
                            ("misses", Json::Int(t.misses as i64)),
                            ("evictions", Json::Int(t.evictions as i64)),
                            ("refusals", Json::Int(t.refusals as i64)),
                            ("inflight", Json::Int(t.inflight as i64)),
                            ("entries", Json::Int(entries as i64)),
                            ("reserved", Json::Int(reserved as i64)),
                            ("weight", Json::Int(t.weight as i64)),
                            ("rate", Json::Int(t.rate as i64)),
                            ("pool", Json::Int(t.pool as i64)),
                        ])
                    })
                    .collect(),
            )
        };
        let replication = {
            let repl = &self.replication;
            Json::obj(vec![
                ("role", Json::str(repl.role.name())),
                (
                    "leader",
                    match &repl.leader {
                        Some(addr) => Json::str(addr.clone()),
                        None => Json::Null,
                    },
                ),
                ("epoch", Json::Int(repl.epoch as i64)),
                ("last_seq", Json::Int(repl.last_seq as i64)),
                ("lag", Json::Int(repl.lag as i64)),
                ("subscribers", Json::Int(repl.subscribers as i64)),
                ("records_sent", Json::Int(repl.records_sent as i64)),
                ("records_applied", Json::Int(repl.records_applied as i64)),
                ("promotions", Json::Int(repl.promotions as i64)),
                ("refused_writes", Json::Int(self.not_leader as i64)),
            ])
        };
        let shard = match &self.shard {
            None => Json::Null,
            Some(shard) => Json::obj(vec![
                ("index", Json::Int(i64::from(shard.index))),
                ("count", Json::Int(i64::from(shard.count))),
                ("epoch", Json::Int(shard.epoch as i64)),
                ("wrong_shard", Json::Int(shard.wrong_shard as i64)),
            ]),
        };
        // The wire JSON is integer-only, so the derived rate travels as a
        // canonical fixed-point string next to the raw counters.
        let lookups = self.cache.hits + self.cache.misses;
        let hit_rate = if lookups == 0 {
            "0.0000".to_owned()
        } else {
            format!("{:.4}", self.cache.hits as f64 / lookups as f64)
        };
        let poller = Json::obj(vec![
            ("backend", Json::str(self.poller.backend)),
            ("waits", Json::Int(self.poller.waits as i64)),
            ("wakeups", Json::Int(self.poller.wakeups as i64)),
            ("spurious", Json::Int(self.poller.spurious as i64)),
            ("registered", Json::Int(self.poller.registered as i64)),
            ("syscalls", Json::Int(self.poller.syscalls as i64)),
        ]);
        let solver = {
            // Same fixed-point convention as the cache hit rate: the wire
            // JSON is integer-only, so the derived rate is a string.
            let seed_hit_rate = if self.solver.seed_lookups == 0 {
                "0.0000".to_owned()
            } else {
                format!(
                    "{:.4}",
                    self.solver.seed_hits as f64 / self.solver.seed_lookups as f64
                )
            };
            Json::obj(vec![
                ("mode", Json::str(self.solver.mode)),
                ("cold_solves", Json::Int(self.solver.cold_solves as i64)),
                ("warm_solves", Json::Int(self.solver.warm_solves as i64)),
                ("seed_lookups", Json::Int(self.solver.seed_lookups as i64)),
                ("seed_hits", Json::Int(self.solver.seed_hits as i64)),
                ("seed_hit_rate", Json::str(seed_hit_rate)),
                (
                    "repaired_hints",
                    Json::Int(self.solver.repaired_hints as i64),
                ),
                ("nodes", Json::Int(self.solver.nodes as i64)),
                ("propagations", Json::Int(self.solver.propagations as i64)),
                ("conflicts", Json::Int(self.solver.conflicts as i64)),
            ])
        };
        let wire = Json::obj(vec![
            ("frames_in", Json::Int(self.wire.frames_in as i64)),
            ("frames_out", Json::Int(self.wire.frames_out as i64)),
            ("bytes_in", Json::Int(self.wire.bytes_in as i64)),
            ("bytes_out", Json::Int(self.wire.bytes_out as i64)),
            ("decode_errors", Json::Int(self.wire.decode_errors as i64)),
            ("bin_negotiated", Json::Int(self.wire.bin_negotiated as i64)),
            (
                "connections",
                Json::obj(vec![
                    ("bin1", Json::Int(self.wire.connections_bin as i64)),
                    ("json", Json::Int(self.wire.connections_json as i64)),
                ]),
            ),
        ]);
        Json::obj(vec![
            ("workers", Json::Int(self.workers as i64)),
            ("poller", poller),
            ("wire", wire),
            ("shard", shard),
            ("replication", replication),
            ("uptime_ms", Json::Int(self.uptime_ms as i64)),
            ("connections", Json::Int(self.connections as i64)),
            ("open_connections", Json::Int(self.open_connections as i64)),
            (
                "requests",
                Json::obj(vec![
                    ("refine", Json::Int(self.refine as i64)),
                    ("highest_theta", Json::Int(self.highest_theta as i64)),
                    ("lowest_k", Json::Int(self.lowest_k as i64)),
                    ("status", Json::Int(self.status as i64)),
                    ("trace", Json::Int(self.traces as i64)),
                    ("shutdown", Json::Int(self.shutdowns as i64)),
                    ("errors", Json::Int(self.errors as i64)),
                    ("batch", Json::Int(self.batches as i64)),
                    ("batched", Json::Int(self.batched_requests as i64)),
                ]),
            ),
            (
                "cache",
                Json::obj(vec![
                    ("hits", Json::Int(self.cache.hits as i64)),
                    ("misses", Json::Int(self.cache.misses as i64)),
                    ("hit_rate", Json::str(hit_rate)),
                    ("evictions", Json::Int(self.cache.evictions as i64)),
                    ("insertions", Json::Int(self.cache.insertions as i64)),
                    ("entries", Json::Int(self.cache.entries as i64)),
                    ("capacity", Json::Int(self.cache.capacity as i64)),
                ]),
            ),
            (
                "singleflight",
                Json::obj(vec![
                    ("leaders", Json::Int(self.flight.leaders as i64)),
                    ("shared", Json::Int(self.flight.shared as i64)),
                    ("aborted", Json::Int(self.flight.aborted as i64)),
                ]),
            ),
            ("solver", solver),
            ("observe", self.observe.to_json()),
            ("persist", persist),
            ("tenants", tenants),
        ])
    }
}

/// A running server. Dropping the handle does not stop the server; call
/// [`ServerHandle::shutdown`] or send a `shutdown` request, then
/// [`ServerHandle::wait`].
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    loop_thread: Option<JoinHandle<()>>,
    follower_thread: Option<JoinHandle<()>>,
}

/// Starts a server from a configuration. Returns once the listener is bound
/// (so `handle.addr()` is immediately connectable) and, when persistence is
/// configured, once the segment file has been replayed into the cache.
pub fn start(config: &ServerConfig) -> std::io::Result<ServerHandle> {
    // std's TcpListener::bind sets SO_REUSEADDR on Unix before binding, so
    // a server restarted immediately after shutdown rebinds its port even
    // while the previous instance's connections sit in TIME_WAIT (rapid
    // test restarts depend on this; see the service tests).
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    // The readiness backend is opened here, not on the loop thread, so a
    // misconfiguration (epoll requested off-Linux, a bad STRUDEL_POLLER
    // value, fd exhaustion) fails the bind call instead of killing the
    // loop thread after `start` already returned success.
    let poller_kind = PollerKind::resolve(config.poller)?;
    let poller_counters = Arc::new(PollerCounters::default());
    let poll = poller::open(poller_kind, Arc::clone(&poller_counters))?;
    let waker = poll.waker();

    // A sharded server derives the cluster's ring from the shard count
    // alone — the same pure function every router and sibling shard
    // evaluates, so ownership needs no coordination.
    let shard = match config.shard {
        None => None,
        Some(spec) => {
            if spec.index >= spec.count || spec.count == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("invalid shard spec {}/{}", spec.index, spec.count),
                ));
            }
            let ring = ShardRing::new(spec.count);
            Some(ShardState { spec, ring })
        }
    };

    // The replication epoch starts at the ring epoch (the same fingerprint
    // the wrong_shard machinery validates). An unsharded server is epoch-
    // wise a one-shard cluster — routers for a single `a+a2` entry derive
    // exactly this ring — so stamped requests validate (and a resurrected
    // unsharded old leader is refused) without requiring `--shard 0/1`.
    let base_epoch = shard
        .as_ref()
        .map_or_else(|| ShardRing::new(1).epoch(), |state| state.ring.epoch());
    let repl = Arc::new(match &config.follow {
        None => ReplState::leader(base_epoch),
        Some(leader) => ReplState::follower(base_epoch, leader.clone()),
    });

    // Warm start: replay the persistent segment into the cache in append
    // order, which reconstructs the pre-restart recency ranking. A shard
    // replays (and writes) only its own namespaced file.
    let metrics = Metrics::default();
    let tenants = TenantRegistry::new(config.tenants.as_ref(), TENANT_JITTER_SEED);
    let mut cache = LruCache::new(config.cache_capacity);
    cache.set_weights(&tenants.weights());
    let persist = match &config.persist_path {
        None => None,
        Some(path) => {
            let path = match &shard {
                Some(state) => shard_segment_path(path, &state.spec),
                None => path.clone(),
            };
            let (mut store, entries) =
                SegmentStore::open(path, config.compact_dead_threshold, config.fsync)?;
            for (key, text, tenant) in entries {
                if let Some(victim) = cache.insert_for(&tenant, key, Arc::new(text)) {
                    // The segment outgrew this instance's capacity: keep
                    // disk consistent with what is actually resident.
                    tenants.count_eviction(&victim.owner);
                    if let Err(err) = store.record_evict(&victim.key) {
                        metrics.persist_errors.fetch_add(1, Ordering::Relaxed);
                        eprintln!("strudel-server: replay-overflow tombstone failed: {err}");
                    }
                }
            }
            // Resume the publication counter past everything compacted, so
            // a restarted leader never reissues a sequence number.
            repl.resume_seq(store.stats().checkpoint_seq);
            Some(store)
        }
    };

    let shared = Arc::new(Shared {
        shard,
        repl,
        cache: Mutex::new(cache),
        persist: Mutex::new(persist),
        tenants,
        pool: WorkerPool::new(config.workers),
        metrics,
        stop: AtomicBool::new(false),
        started: Instant::now(),
        waker,
        poller_counters,
        poller_backend: poller_kind.name(),
        completions: Arc::new(Mutex::new(Vec::new())),
        solver: config.solver,
        observe: ObserveState::new(
            trace::resolve_sample(config.trace_sample),
            trace::resolve_slow_ms(config.trace_slow_ms).map(|ms| ms.saturating_mul(1000)),
        ),
    });

    let loop_shared = Arc::clone(&shared);
    let handle = thread::Builder::new()
        .name("strudel-eventloop".to_owned())
        .spawn(move || EventLoop::new(listener, loop_shared, poll).run())?;

    // A follower subscribes to its leader from a dedicated feed thread,
    // replaying the stream into the same cache and segment the event loop
    // serves from.
    let follower_thread = match &config.follow {
        None => None,
        Some(leader) => Some(replica::spawn_follower(
            Arc::clone(&shared),
            Arc::clone(&shared.repl),
            FollowerConfig {
                leader: leader.clone(),
                shard: config.shard,
                auto_promote: config.auto_promote,
            },
        )?),
    };

    Ok(ServerHandle {
        local_addr,
        shared,
        loop_thread: Some(handle),
        follower_thread,
    })
}

/// The follower feed thread replays the leader's records through exactly
/// the write-through path the event loop uses: cache insert (plus overflow
/// tombstone) and segment append, compacting when the threshold trips.
/// Locks are taken one at a time except for the documented persist→cache
/// nesting during compaction (see [`EventLoop::persist_insert`]).
impl FollowerHost for Shared {
    fn apply_put(&self, key: &CacheKey, result: &str, tenant: &str) {
        let evicted = self.cache.lock().expect("cache lock").insert_for(
            tenant,
            key.clone(),
            Arc::new(result.to_owned()),
        );
        if let Some(victim) = &evicted {
            // The follower mirrors the leader's per-tenant accounting so
            // a promotion starts with honest eviction counters.
            self.tenants.count_eviction(&victim.owner);
        }
        let mut persist = self.persist.lock().expect("persist lock");
        let Some(store) = persist.as_mut() else {
            return;
        };
        let mut outcome = store.record_put_for(key, result, tenant);
        if let Some(victim) = &evicted {
            outcome = outcome.and_then(|()| store.record_evict(&victim.key));
        }
        if let Err(err) = outcome {
            self.metrics.persist_errors.fetch_add(1, Ordering::Relaxed);
            eprintln!("strudel-server: follower segment write failed: {err}");
            return;
        }
        if store.should_compact() {
            let snapshot = self
                .cache
                .lock()
                .expect("cache lock")
                .snapshot_lru_order_with_owners();
            if let Err(err) = store.compact(
                snapshot.iter().map(|(k, v, t)| (k, v.as_str(), t.as_str())),
                self.repl.last_seq(),
            ) {
                self.metrics.persist_errors.fetch_add(1, Ordering::Relaxed);
                eprintln!("strudel-server: follower segment compaction failed: {err}");
            }
        }
        // The event loop schedules the group fsync (`tick_persist_sync` /
        // `next_timeout`), but this append happened on the feed thread:
        // without a wake, an otherwise-idle follower under the epoll
        // backend would sit in an unbounded wait with a dirty segment and
        // the `--fsync interval` promise would silently become
        // sync-at-next-client-request. (The scan backend's sweep masks
        // this; the epoll backend exposes it.)
        drop(persist);
        self.waker.wake();
    }

    fn apply_evict(&self, key: &CacheKey) {
        let removed = self.cache.lock().expect("cache lock").remove(key).is_some();
        if !removed {
            return; // never resident here (capacity differences)
        }
        let mut persist = self.persist.lock().expect("persist lock");
        if let Some(store) = persist.as_mut() {
            if let Err(err) = store.record_evict(key) {
                self.metrics.persist_errors.fetch_add(1, Ordering::Relaxed);
                eprintln!("strudel-server: follower segment tombstone failed: {err}");
            }
            // Same as apply_put: the fsync clock lives on the event loop.
            drop(persist);
            self.waker.wake();
        }
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

impl ServerHandle {
    /// The bound address (with the OS-assigned port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The current counter snapshot.
    pub fn status(&self) -> StatusSnapshot {
        snapshot(&self.shared)
    }

    /// Asks the server to stop: the event loop closes the listener, drains
    /// in-flight solves, flushes the persistent segment, and exits
    /// (idempotent).
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        wake(&self.shared);
    }

    /// Blocks until the event loop has exited (after [`Self::shutdown`] or
    /// a client's `shutdown` request) and returns the final counters.
    pub fn wait(mut self) -> StatusSnapshot {
        if let Some(thread) = self.loop_thread.take() {
            let _ = thread.join();
        }
        // The feed thread notices the stop flag within its read timeout.
        if let Some(thread) = self.follower_thread.take() {
            let _ = thread.join();
        }
        snapshot(&self.shared)
    }
}

fn wake(shared: &Shared) {
    shared.waker.wake();
}

fn snapshot(shared: &Shared) -> StatusSnapshot {
    // The locks are taken strictly one at a time (each guard is a
    // temporary), so this never nests against the event loop's
    // cache-then-persist ordering.
    let (cache, tenant_cache) = {
        let guard = shared.cache.lock().expect("cache lock");
        (guard.stats(), guard.owner_stats())
    };
    let persist = shared
        .persist
        .lock()
        .expect("persist lock")
        .as_ref()
        .map(SegmentStore::stats);
    let metrics = &shared.metrics;
    let open = metrics.open_connections.load(Ordering::Relaxed);
    let connections_bin = metrics.bin_connections.load(Ordering::Relaxed);
    let wire = WireStats {
        frames_in: metrics.frames_in.load(Ordering::Relaxed),
        frames_out: metrics.frames_out.load(Ordering::Relaxed),
        bytes_in: metrics.wire_bytes_in.load(Ordering::Relaxed),
        bytes_out: metrics.wire_bytes_out.load(Ordering::Relaxed),
        decode_errors: metrics.wire_decode_errors.load(Ordering::Relaxed),
        bin_negotiated: metrics.bin_negotiated.load(Ordering::Relaxed),
        connections_bin,
        connections_json: open.saturating_sub(connections_bin),
    };
    StatusSnapshot {
        poller: shared.poller_counters.stats(shared.poller_backend),
        shard: shared.shard.as_ref().map(|state| ShardStatus {
            index: state.spec.index,
            count: state.spec.count,
            epoch: shared.repl.epoch(),
            wrong_shard: metrics.wrong_shard.load(Ordering::Relaxed),
        }),
        workers: shared.pool.workers(),
        uptime_ms: shared.started.elapsed().as_millis() as u64,
        connections: metrics.connections.load(Ordering::Relaxed),
        open_connections: metrics.open_connections.load(Ordering::Relaxed),
        refine: metrics.refine.load(Ordering::Relaxed),
        highest_theta: metrics.highest_theta.load(Ordering::Relaxed),
        lowest_k: metrics.lowest_k.load(Ordering::Relaxed),
        status: metrics.status.load(Ordering::Relaxed),
        shutdowns: metrics.shutdown.load(Ordering::Relaxed),
        errors: metrics.errors.load(Ordering::Relaxed),
        batches: metrics.batches.load(Ordering::Relaxed),
        batched_requests: metrics.batched_requests.load(Ordering::Relaxed),
        cache,
        flight: FlightStats {
            leaders: metrics.flight_leaders.load(Ordering::Relaxed),
            shared: metrics.flight_shared.load(Ordering::Relaxed),
            aborted: metrics.flight_aborted.load(Ordering::Relaxed),
        },
        persist,
        persist_errors: metrics.persist_errors.load(Ordering::Relaxed),
        replication: shared.repl.status(),
        not_leader: metrics.not_leader.load(Ordering::Relaxed),
        tenants: shared.tenants.snapshot(),
        tenant_cache,
        wire,
        solver: SolverStats {
            mode: shared.solver.map_or("request", EngineKind::name),
            cold_solves: metrics.solver_cold.load(Ordering::Relaxed),
            warm_solves: metrics.solver_warm.load(Ordering::Relaxed),
            repaired_hints: metrics.solver_repaired.load(Ordering::Relaxed),
            seed_lookups: metrics.solver_seed_lookups.load(Ordering::Relaxed),
            seed_hits: metrics.solver_seed_hits.load(Ordering::Relaxed),
            nodes: metrics.solver_nodes.load(Ordering::Relaxed),
            propagations: metrics.solver_propagations.load(Ordering::Relaxed),
            conflicts: metrics.solver_conflicts.load(Ordering::Relaxed),
        },
        traces: metrics.trace.load(Ordering::Relaxed),
        observe: shared.observe.snapshot(),
    }
}

/// Upper bound on one request line. Signature views are compact (DBpedia
/// Persons is 64 signatures over 8 properties); 32 MiB leaves orders of
/// magnitude of headroom while keeping one hostile connection from growing
/// an unbounded buffer.
const MAX_REQUEST_LINE: usize = 32 * 1024 * 1024;

/// Upper bound on un-flushed response bytes per connection; a client that
/// requests heavily but never reads is disconnected at this point.
const MAX_OUT_BUFFER: usize = 64 * 1024 * 1024;

/// How long a graceful shutdown waits for in-flight work and un-flushed
/// responses before giving up on slow clients.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Bytes read per `read()` call on a readable socket.
const READ_CHUNK: usize = 64 * 1024;

/// Slack on top of [`MAX_REQUEST_LINE`] for a buffered-but-incomplete
/// `bin1` frame: a maximal header (magic, version, kind, tenant up to 64
/// bytes, two varints) in front of a maximal payload.
const MAX_FRAME_HEADER: usize = 96;

/// Upper bound on iovec entries per `write_vectored` call (Linux caps a
/// single writev at `IOV_MAX`/1024; 64 already amortises the syscall).
const WRITE_BATCH_IOVECS: usize = 64;

/// Owned output fragments at or below this size are merged into the
/// previous owned fragment instead of costing their own iovec entry
/// (envelope prefixes, separators, frame headers are all tiny).
const MERGE_CHUNK: usize = 4096;

/// How long the listener stays muted after a persistent `accept` failure
/// (EMFILE under fd exhaustion being the classic) before the loop re-arms
/// it and retries. Level-triggered backends would otherwise re-report the
/// un-drained backlog every `wait` and spin the retry at full speed.
const ACCEPT_RETRY: Duration = Duration::from_millis(50);

/// One piece of an outgoing message. Owned fragments carry envelopes,
/// separators, and frame headers; shared fragments alias the cache's
/// `Arc<String>` result texts, so a hit's payload is flushed to the socket
/// without ever being copied into a per-response `String`.
enum Chunk {
    Owned(Vec<u8>),
    Shared(Arc<String>),
}

impl Chunk {
    fn as_bytes(&self) -> &[u8] {
        match self {
            Chunk::Owned(bytes) => bytes,
            Chunk::Shared(text) => text.as_bytes(),
        }
    }

    fn len(&self) -> usize {
        self.as_bytes().len()
    }
}

/// One response payload, assembled as a chunk list instead of a
/// concatenated `String`: a batch splices its elements' chunks between the
/// envelope fragments (no `Vec<String>` join), and cache hits alias the
/// cached result text. The line terminator (JSON framing) or frame header
/// (`bin1`) is added when the message is staged for writing.
struct Msg {
    chunks: Vec<Chunk>,
    len: usize,
    /// Trace spans riding with this response: they finish (and reach the
    /// histograms/recorder) only once the response's last byte has been
    /// flushed to the socket, so the flush stage is measured honestly.
    spans: Vec<ActiveSpan>,
}

impl Msg {
    fn new() -> Msg {
        Msg {
            chunks: Vec::new(),
            len: 0,
            spans: Vec::new(),
        }
    }

    fn from_line(line: String) -> Msg {
        let mut msg = Msg::new();
        msg.push_owned(line.into_bytes());
        msg
    }

    fn push_owned(&mut self, bytes: Vec<u8>) {
        if bytes.is_empty() {
            return;
        }
        self.len += bytes.len();
        if let Some(Chunk::Owned(back)) = self.chunks.last_mut() {
            if back.len() + bytes.len() <= MERGE_CHUNK {
                back.extend_from_slice(&bytes);
                return;
            }
        }
        self.chunks.push(Chunk::Owned(bytes));
    }

    fn push_str(&mut self, text: &str) {
        if text.is_empty() {
            return;
        }
        self.len += text.len();
        if let Some(Chunk::Owned(back)) = self.chunks.last_mut() {
            if back.len() + text.len() <= MERGE_CHUNK {
                back.extend_from_slice(text.as_bytes());
                return;
            }
        }
        self.chunks.push(Chunk::Owned(text.as_bytes().to_vec()));
    }

    fn push_shared(&mut self, text: Arc<String>) {
        if text.is_empty() {
            return;
        }
        self.len += text.len();
        self.chunks.push(Chunk::Shared(text));
    }

    fn append(&mut self, other: Msg) {
        for chunk in other.chunks {
            match chunk {
                Chunk::Owned(bytes) => self.push_owned(bytes),
                Chunk::Shared(text) => self.push_shared(text),
            }
        }
        self.spans.extend(other.spans);
    }

    /// Attaches a traced request's span (if any) to this response.
    fn attach(&mut self, span: Option<Box<ActiveSpan>>) {
        if let Some(span) = span {
            self.spans.push(*span);
        }
    }
}

/// The chunked equivalent of [`encode_success`] for a result that already
/// lives behind an `Arc` (cache hits, completion fan-out): the envelope
/// fragments are owned, the result text is aliased.
fn success_msg(op: &str, source: Source, result: &Arc<String>) -> Msg {
    let (prefix, suffix) = encode_success_parts(op, source);
    let mut msg = Msg::new();
    msg.push_owned(prefix.into_bytes());
    msg.push_shared(Arc::clone(result));
    msg.push_str(suffix);
    msg
}

/// One response being assembled. Slots leave the connection in FIFO order,
/// so responses are written in request order even when solves complete out
/// of order. Each slot captures the framing negotiated when its request
/// arrived, so responses pipelined behind a `hello` still leave in the
/// framing their requests were sent under.
struct Slot {
    id: u64,
    framing: Framing,
    body: SlotBody,
}

enum SlotBody {
    /// The response payload is complete (not yet staged for writing).
    Ready(Msg),
    /// A single request waiting on a solve completion.
    PendingSingle,
    /// A batch waiting on `remaining` of its elements.
    Batch {
        items: Vec<Option<Msg>>,
        remaining: usize,
    },
}

/// A parked requester on the flight board: enough to route a completed
/// solve back into the right slot. The board returns the leader's token
/// first; followers receive `Source::Coalesced`.
struct Waiter {
    conn: u64,
    slot: u64,
    elem: Option<usize>,
    op: SolveOp,
    /// The requester's trace span, parked with the token while the solve
    /// is in flight (the whole wait is the span's solve stage).
    span: Option<Box<ActiveSpan>>,
}

/// One client connection owned by the event loop.
struct Conn {
    stream: TcpStream,
    /// The socket's fd as registered with the poller (the registration
    /// token is the connection id).
    fd: Fd,
    /// The interest set currently registered; compared against the
    /// desired set after every pump so `modify` is only called on edges
    /// (write interest on when bytes queue, off when they drain).
    interest: Interest,
    read_buf: Vec<u8>,
    /// The framing this connection's *incoming* bytes are parsed under.
    /// Starts as line-JSON; a `hello {"framing":"bin1"}` switches it, and
    /// every byte after that hello's terminator must be a frame.
    framing: Framing,
    /// Un-flushed output, as a chunk queue: staged messages append their
    /// chunks here and `pump_write_conn` flushes them with vectored
    /// writes, so a response's bytes are never concatenated into one
    /// buffer.
    out: VecDeque<Chunk>,
    /// Bytes of `out`'s front chunk already written to the socket.
    out_front: usize,
    /// Total un-flushed bytes across `out` (backpressure accounting).
    out_len: usize,
    slots: VecDeque<Slot>,
    next_slot: u64,
    /// False once the peer half-closed (EOF); pending responses still
    /// flush before the connection is reaped.
    peer_open: bool,
    /// Set on fatal protocol violations (oversized line, bad UTF-8): stop
    /// reading, flush what is queued (ending with the error), then close.
    close_after_flush: bool,
    /// Set on socket errors: drop the connection without further I/O.
    dead: bool,
    /// Cumulative bytes flushed to the socket over the connection's life
    /// (the clock `pending_spans` offsets are measured against).
    flushed_bytes: u64,
    /// Spans whose response has been staged: `(offset, span)`, finalized
    /// once `flushed_bytes` reaches the offset — i.e. once the span's
    /// response bytes have actually left the server.
    pending_spans: VecDeque<(u64, ActiveSpan)>,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        // One small request line, one response line per round trip:
        // Nagle's algorithm interacts with delayed ACKs to put a ~40 ms
        // floor under exactly this traffic pattern, so switch it off.
        let _ = stream.set_nodelay(true);
        let fd = raw_fd(&stream);
        Conn {
            stream,
            fd,
            interest: Interest::READ,
            read_buf: Vec::new(),
            framing: Framing::Json,
            out: VecDeque::new(),
            out_front: 0,
            out_len: 0,
            slots: VecDeque::new(),
            next_slot: 0,
            peer_open: true,
            close_after_flush: false,
            dead: false,
            flushed_bytes: 0,
            pending_spans: VecDeque::new(),
        }
    }

    /// Appends one chunk to the output queue, merging small owned
    /// fragments into the previous owned chunk so a control response does
    /// not fan out into per-fragment iovec entries.
    fn push_out(&mut self, chunk: Chunk) {
        let len = chunk.len();
        if len == 0 {
            return;
        }
        self.out_len += len;
        if let (Chunk::Owned(bytes), Some(Chunk::Owned(back))) = (&chunk, self.out.back_mut()) {
            if back.len() + len <= MERGE_CHUNK {
                back.extend_from_slice(bytes);
                return;
            }
        }
        self.out.push_back(chunk);
    }

    /// Moves every leading completed slot into the output queue, in order,
    /// adding the framing-appropriate envelope: a line terminator for the
    /// JSON framing, a response frame header for `bin1`. Returns the
    /// number of `bin1` frames staged (the caller counts them).
    fn stage_ready(&mut self) -> u64 {
        let mut frames = 0u64;
        while matches!(self.slots.front(), Some(slot) if matches!(slot.body, SlotBody::Ready(_))) {
            let slot = self.slots.pop_front().expect("front just matched");
            let SlotBody::Ready(mut msg) = slot.body else {
                unreachable!("front just matched Ready");
            };
            let spans = std::mem::take(&mut msg.spans);
            match slot.framing {
                Framing::Json => {
                    for chunk in msg.chunks {
                        self.push_out(chunk);
                    }
                    match self.out.back_mut() {
                        Some(Chunk::Owned(back)) => {
                            back.push(b'\n');
                            self.out_len += 1;
                        }
                        _ => self.push_out(Chunk::Owned(vec![b'\n'])),
                    }
                }
                Framing::Bin1 => {
                    // Responses carry no tenant tag in the header; the
                    // payload's envelope already says everything.
                    let header = encode_frame_header(FrameKind::Response, "", msg.len);
                    self.push_out(Chunk::Owned(header));
                    for chunk in msg.chunks {
                        self.push_out(chunk);
                    }
                    frames += 1;
                }
            }
            // The response's last byte now sits `out_len` flushed bytes
            // away; its spans finish when the flush clock reaches it.
            let offset = self.flushed_bytes + self.out_len as u64;
            for span in spans {
                self.pending_spans.push_back((offset, span));
            }
        }
        frames
    }

    /// Consumes `n` flushed bytes off the front of the output queue.
    /// Fully-written chunks are popped (no memmove of the remainder, which
    /// is what the old contiguous `out` buffer paid under backpressure).
    fn advance_out(&mut self, mut n: usize) {
        self.flushed_bytes += n as u64;
        self.out_len -= n;
        while n > 0 {
            let front_left = self
                .out
                .front()
                .map(|chunk| chunk.len() - self.out_front)
                .expect("advance_out past the queue");
            if n >= front_left {
                n -= front_left;
                self.out.pop_front();
                self.out_front = 0;
            } else {
                self.out_front += n;
                n = 0;
            }
        }
    }

    fn flushed(&self) -> bool {
        self.out_len == 0
    }

    /// Drains every span still waiting on this connection — in
    /// `pending_spans` behind the flush clock, or buried in a not-yet
    /// staged slot — for teardown accounting. A connection that dies
    /// mid-flush must not strand its spans: the caller finishes them as
    /// `aborted` so they still roll into the histograms and the flight
    /// recorder instead of silently vanishing from the books.
    fn take_orphan_spans(&mut self) -> Vec<ActiveSpan> {
        let mut orphans: Vec<ActiveSpan> =
            self.pending_spans.drain(..).map(|(_, span)| span).collect();
        for slot in &mut self.slots {
            match &mut slot.body {
                SlotBody::Ready(msg) => orphans.append(&mut msg.spans),
                SlotBody::Batch { items, .. } => {
                    for item in items.iter_mut().flatten() {
                        orphans.append(&mut item.spans);
                    }
                }
                SlotBody::PendingSingle => {}
            }
        }
        orphans
    }

    /// Queues an error response as the final slot and begins teardown.
    fn fatal(&mut self, message: &str) {
        let id = self.next_slot;
        self.next_slot += 1;
        self.slots.push_back(Slot {
            id,
            framing: self.framing,
            body: SlotBody::Ready(Msg::from_line(encode_error(message))),
        });
        self.peer_open = false;
        self.close_after_flush = true;
    }
}

/// The poller token of the listening socket. Connection tokens are the
/// connection ids (monotonic from 0, never reused, so a stale kernel
/// event can never alias a newer connection); `u64::MAX` is the poller's
/// internal waker.
const LISTENER_TOKEN: u64 = u64::MAX - 1;

/// The registered fd of a socket. The scan backend never dereferences
/// fds, so non-Unix builds (which lack `AsRawFd`) pass a placeholder.
#[cfg(unix)]
fn raw_fd<T: std::os::unix::io::AsRawFd>(io: &T) -> Fd {
    io.as_raw_fd()
}
#[cfg(not(unix))]
fn raw_fd<T>(_io: &T) -> Fd {
    0
}

/// The event loop: owns the listener, every connection, the flight board,
/// the poller, and the scratch read buffer. Runs on one thread; workers
/// communicate back through `Shared::completions` + the poller's waker.
struct EventLoop {
    shared: Arc<Shared>,
    listener: Option<TcpListener>,
    listener_fd: Fd,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    board: FlightBoard<CacheKey, Waiter>,
    /// Leader-side replication: which connections are subscriber feeds.
    hub: ReplicaHub,
    pending_jobs: usize,
    stopping: bool,
    drain_deadline: Option<Instant>,
    /// While set, the listener's interest is muted after a persistent
    /// accept failure; accepting resumes once the instant passes.
    accept_muted_until: Option<Instant>,
    scratch: Vec<u8>,
    poller: Box<dyn Poller>,
    /// Readiness reports of the current round (reused allocation).
    events: Vec<Event>,
    /// Connections that queued or flushed bytes this round (reused
    /// allocation): only these get a write pump and an interest
    /// re-evaluation, so a round's cost tracks the work it did, not the
    /// number of open connections.
    touched: Vec<u64>,
    /// Recently solved `refine` instances, consulted on the miss path for
    /// warm-start neighbors (see [`crate::hints`]). Owned by the loop
    /// thread, so no lock: workers only carry hints, never the index.
    hints: HintIndex,
    /// Micros the current request line/frame took to decode, stamped right
    /// after the decode call and read by `handle_request` when it opens a
    /// span (elements of one batch share the line's decode cost). Always 0
    /// when tracing is disabled — decode is not timed at all then.
    pending_decode_us: u64,
}

impl EventLoop {
    fn new(listener: TcpListener, shared: Arc<Shared>, poller: Box<dyn Poller>) -> Self {
        let listener_fd = raw_fd(&listener);
        EventLoop {
            shared,
            listener: Some(listener),
            listener_fd,
            conns: HashMap::new(),
            next_conn: 0,
            board: FlightBoard::new(),
            hub: ReplicaHub::new(),
            pending_jobs: 0,
            stopping: false,
            drain_deadline: None,
            accept_muted_until: None,
            scratch: vec![0; READ_CHUNK],
            poller,
            events: Vec::new(),
            touched: Vec::new(),
            hints: HintIndex::new(),
            pending_decode_us: 0,
        }
    }

    fn run(mut self) {
        if let Err(err) = self
            .poller
            .register(self.listener_fd, LISTENER_TOKEN, Interest::READ)
        {
            // Accepting is impossible; serve nothing but exit cleanly.
            eprintln!("strudel-server: registering the listener failed: {err}");
            return;
        }
        // The first round sweeps unconditionally: a connection may already
        // be sitting in the accept backlog.
        let mut progress = true;
        loop {
            if self.shared.stop.load(Ordering::SeqCst) {
                self.begin_stop();
            }
            self.maybe_rearm_listener();
            // After a round that did work, poll without blocking (there
            // may be more ready already); otherwise sleep until an event,
            // a waker fire, or the next maintenance deadline (heartbeat,
            // group fsync, drain grace), whichever is soonest. With
            // nothing to wait for, the epoll backend blocks indefinitely
            // — a fully idle server costs zero wake-ups.
            let timeout = if progress {
                Some(Duration::ZERO)
            } else {
                self.next_timeout()
            };
            let mut events = std::mem::take(&mut self.events);
            if let Err(err) = self.poller.wait(&mut events, timeout) {
                eprintln!("strudel-server: poller wait failed: {err}");
                thread::sleep(poller::MAX_PARK); // do not spin on a broken poller
            }
            progress = false;
            for event in &events {
                match event.token {
                    LISTENER_TOKEN => progress |= self.accept_new(),
                    token => {
                        let Some(mut conn) = self.conns.remove(&token) else {
                            continue; // reaped earlier this round
                        };
                        if event.hangup {
                            // The peer is gone in both directions: nobody
                            // is left to read a flush, so drop without
                            // further I/O (level-triggered HUP would
                            // otherwise re-report forever).
                            conn.dead = true;
                            progress = true;
                        } else if event.readable && !self.stopping {
                            progress |= self.pump_read_conn(token, &mut conn);
                        }
                        self.conns.insert(token, conn);
                        self.touched.push(token);
                    }
                }
            }
            self.events = events;
            progress |= self.apply_completions();
            progress |= self.tick_replication();
            // Everything below works off this round's touched set, so a
            // round's cost tracks the work it did, not the number of open
            // connections: a connection can only need a flush, an
            // interest edge, or reaping through a path that pushed its id
            // here (reads, completion fills, replication delivery,
            // writable/hangup events, write errors).
            let mut touched = std::mem::take(&mut self.touched);
            touched.sort_unstable();
            touched.dedup();
            progress |= self.flush_touched(&touched);
            self.tick_persist_sync();
            self.reap(&touched);
            touched.clear();
            self.touched = touched; // hand the allocation back
            if self.stopping && self.drained() {
                break;
            }
        }
        self.finish();
    }

    /// The soonest maintenance deadline, as a poller-wait bound: the
    /// replication heartbeat (subscribers only), the group-fsync window
    /// (dirty segment only), and the drain grace (shutdown only). `None`
    /// means nothing is scheduled — wait for I/O alone.
    fn next_timeout(&self) -> Option<Duration> {
        let mut timeout: Option<Duration> = None;
        let mut consider = |due: Duration| {
            timeout = Some(timeout.map_or(due, |current: Duration| current.min(due)));
        };
        if let Some(due) = self.hub.heartbeat_due_in() {
            consider(due);
        }
        // A refused tenant's next token arrival bounds the wait, so a
        // retrying client is admitted as soon as its bucket refills even
        // on an otherwise-idle epoll server (which would block forever).
        let tenants = &self.shared.tenants;
        if let Some(due) = tenants.next_refill_due_in(tenants.now()) {
            consider(due);
        }
        if let Some(store) = self.shared.persist.lock().expect("persist lock").as_ref() {
            if let Some(due) = store.sync_due_in() {
                consider(due);
            }
        }
        if let Some(deadline) = self.drain_deadline {
            consider(deadline.saturating_duration_since(Instant::now()));
        }
        if let Some(until) = self.accept_muted_until {
            consider(until.saturating_duration_since(Instant::now()));
        }
        timeout
    }

    /// Restores the muted listener's read interest once its backoff has
    /// passed (see [`ACCEPT_RETRY`]) and retries the accept immediately.
    fn maybe_rearm_listener(&mut self) {
        let Some(until) = self.accept_muted_until else {
            return;
        };
        if Instant::now() < until {
            return;
        }
        self.accept_muted_until = None;
        if self.listener.is_some() {
            let _ = self
                .poller
                .modify(self.listener_fd, LISTENER_TOKEN, Interest::READ);
            self.accept_new();
        }
    }

    /// Keeps idle replication feeds alive: publishes a heartbeat
    /// checkpoint once [`replica::HEARTBEAT_INTERVAL`] has passed without
    /// traffic, so followers can tell a quiet leader from a dead one.
    fn tick_replication(&mut self) -> bool {
        if !self.hub.heartbeat_due() {
            return false;
        }
        let live = self
            .shared
            .cache
            .lock()
            .expect("cache lock")
            .stats()
            .entries as u64;
        if let Some((line, ids)) = self.hub.publish_checkpoint(&self.shared.repl, live) {
            self.deliver_to_subscribers(line, ids);
            return true;
        }
        false
    }

    /// Interval-fsync maintenance: syncs a dirty segment whose window has
    /// elapsed, so the last write of a burst is durable without waiting
    /// for the next request.
    fn tick_persist_sync(&mut self) {
        let mut persist = self.shared.persist.lock().expect("persist lock");
        if let Some(store) = persist.as_mut() {
            if let Err(err) = store.tick_sync() {
                self.shared
                    .metrics
                    .persist_errors
                    .fetch_add(1, Ordering::Relaxed);
                eprintln!("strudel-server: segment fsync failed: {err}");
            }
        }
    }

    /// Appends one record line to every subscriber feed, in slot order
    /// with whatever the connection already owes.
    fn deliver_to_subscribers(&mut self, line: String, ids: Vec<u64>) {
        for id in ids {
            let Some(conn) = self.conns.get_mut(&id) else {
                continue; // reap will unsubscribe it
            };
            self.touched.push(id);
            let slot_id = conn.next_slot;
            conn.next_slot += 1;
            conn.slots.push_back(Slot {
                id: slot_id,
                framing: conn.framing,
                body: SlotBody::Ready(Msg::from_line(line.clone())),
            });
            conn.stage_ready();
        }
    }

    /// Enters graceful shutdown: close the listener (refusing new clients
    /// and freeing the port), stop reading new requests, and start the
    /// drain clock. In-flight solves and queued responses still complete.
    fn begin_stop(&mut self) {
        if self.stopping {
            return;
        }
        self.stopping = true;
        if self.listener.take().is_some() {
            let _ = self.poller.deregister(self.listener_fd, LISTENER_TOKEN);
        }
        self.drain_deadline = Some(Instant::now() + DRAIN_GRACE);
        // Drop read interest everywhere: intake is over, and a readable
        // socket that will never be read must not re-report every round
        // (level-triggered backends would spin through the whole drain).
        for (&id, conn) in &mut self.conns {
            if conn.dead {
                continue;
            }
            let desired = Interest {
                read: false,
                write: !conn.flushed(),
            };
            if desired != conn.interest {
                conn.interest = desired;
                if self.poller.modify(conn.fd, id, desired).is_err() {
                    conn.dead = true;
                    self.touched.push(id); // reap works off the touched set
                }
            }
        }
    }

    /// Whether shutdown may complete: no solve in flight, no completion
    /// unapplied, every response flushed — or the grace period is over.
    fn drained(&self) -> bool {
        if self
            .drain_deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
        {
            return true;
        }
        self.board.is_empty()
            && self.pending_jobs == 0
            && self
                .shared
                .completions
                .lock()
                .expect("completions lock")
                .is_empty()
            && self
                .conns
                .values()
                .all(|conn| conn.dead || (conn.slots.is_empty() && conn.flushed()))
    }

    /// Final barrier: close out anything the drain left behind (dead
    /// connections keep their un-flushed spans until here), then flush
    /// and fsync the persistent segment so a restart replays everything
    /// acknowledged before exit.
    fn finish(&mut self) {
        for conn in self.conns.values_mut() {
            for span in conn.take_orphan_spans() {
                self.shared.observe.finish_aborted(span);
            }
        }
        // A drain grace that expired mid-solve leaves waiters parked on
        // the flight board; their spans abort like any other orphan.
        for mut waiter in self.board.drain_all() {
            if let Some(span) = waiter.span.take() {
                self.shared.observe.finish_aborted(*span);
            }
        }
        let mut persist = self.shared.persist.lock().expect("persist lock");
        if let Some(store) = persist.as_mut() {
            if let Err(err) = store.flush() {
                self.shared
                    .metrics
                    .persist_errors
                    .fetch_add(1, Ordering::Relaxed);
                eprintln!("strudel-server: flushing the persistent cache failed: {err}");
            }
        }
    }

    fn accept_new(&mut self) -> bool {
        let Some(listener) = &self.listener else {
            return false;
        };
        let mut any = false;
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(true);
                    self.shared
                        .metrics
                        .connections
                        .fetch_add(1, Ordering::Relaxed);
                    let id = self.next_conn;
                    self.next_conn += 1;
                    let conn = Conn::new(stream);
                    if let Err(err) = self.poller.register(conn.fd, id, Interest::READ) {
                        // The socket closes on drop; the client sees a
                        // reset instead of a silent connection.
                        eprintln!("strudel-server: registering a connection failed: {err}");
                        continue;
                    }
                    self.shared
                        .metrics
                        .open_connections
                        .fetch_add(1, Ordering::Relaxed);
                    self.conns.insert(id, conn);
                    any = true;
                }
                Err(err) if err.kind() == ErrorKind::WouldBlock => break,
                // A connection that died while queued in the backlog
                // (aborted/reset before accept reached it), or a signal:
                // a per-connection casualty, not a listener problem —
                // accept(2) says to treat these like EAGAIN and retry.
                Err(err)
                    if matches!(
                        err.kind(),
                        ErrorKind::ConnectionAborted
                            | ErrorKind::ConnectionReset
                            | ErrorKind::Interrupted
                    ) =>
                {
                    continue
                }
                Err(_) => {
                    // Persistent accept failure (EMFILE/ENFILE-class
                    // resource exhaustion): mute the listener and retry
                    // after a backoff. A level-triggered backend keeps
                    // reporting the un-drained backlog as readable, so
                    // leaving the interest armed would spin the loop at
                    // full speed until an fd frees up.
                    self.accept_muted_until = Some(Instant::now() + ACCEPT_RETRY);
                    let _ = self
                        .poller
                        .modify(self.listener_fd, LISTENER_TOKEN, Interest::NONE);
                    break;
                }
            }
        }
        any
    }

    fn pump_read_conn(&mut self, id: u64, conn: &mut Conn) -> bool {
        if conn.dead || conn.close_after_flush || !conn.peer_open {
            return false;
        }
        let mut any = false;
        loop {
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    conn.peer_open = false;
                    any = true;
                    break;
                }
                Ok(n) => {
                    any = true;
                    self.shared
                        .metrics
                        .wire_bytes_in
                        .fetch_add(n as u64, Ordering::Relaxed);
                    if conn.read_buf.is_empty() {
                        // Fast path (the common case): no partial request
                        // is buffered, so parse straight out of the
                        // scratch buffer and copy only an incomplete tail
                        // into the connection buffer — a whole request
                        // per read never touches `read_buf` at all.
                        let scratch = std::mem::take(&mut self.scratch);
                        let consumed = self.process_input(id, conn, &scratch[..n]);
                        conn.read_buf.extend_from_slice(&scratch[consumed..n]);
                        self.scratch = scratch;
                    } else {
                        conn.read_buf.extend_from_slice(&self.scratch[..n]);
                        let buf = std::mem::take(&mut conn.read_buf);
                        let consumed = self.process_input(id, conn, &buf);
                        conn.read_buf = buf;
                        conn.read_buf.drain(..consumed);
                    }
                    if conn.close_after_flush || self.stopping {
                        break; // a fatal input, or a shutdown request, stops intake
                    }
                    if conn.read_buf.len() > MAX_REQUEST_LINE + MAX_FRAME_HEADER {
                        conn.fatal(&oversized_line_message());
                        break;
                    }
                }
                Err(err) if err.kind() == ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    return true;
                }
            }
        }
        // A final JSON request may arrive without its trailing newline
        // right before EOF (`printf '…' | nc` clients): dispatch the
        // buffered remainder as a line instead of silently dropping it. A
        // torn frame at EOF has no such convention — the connection just
        // closes.
        if !conn.peer_open
            && !conn.close_after_flush
            && !self.stopping
            && !conn.read_buf.is_empty()
            && conn.framing == Framing::Json
        {
            let buf = std::mem::take(&mut conn.read_buf);
            any |= self.handle_line_bytes(id, conn, &buf);
        }
        let staged = conn.stage_ready();
        if staged > 0 {
            self.shared
                .metrics
                .frames_out
                .fetch_add(staged, Ordering::Relaxed);
        }
        any
    }

    /// Parses and dispatches every complete request in `buf` under the
    /// connection's current framing — newline-delimited JSON lines, or
    /// `bin1` frames — and returns how many bytes were consumed. The
    /// framing can flip *mid-buffer*: bytes pipelined behind a
    /// `hello {"framing":"bin1"}` line parse as frames.
    fn process_input(&mut self, id: u64, conn: &mut Conn, buf: &[u8]) -> usize {
        let mut consumed = 0usize;
        while consumed < buf.len() {
            if conn.close_after_flush || self.stopping {
                break;
            }
            match conn.framing {
                Framing::Json => {
                    let Some(nl) = buf[consumed..].iter().position(|&b| b == b'\n') else {
                        break;
                    };
                    let line_bytes = &buf[consumed..consumed + nl];
                    consumed += nl + 1;
                    self.handle_line_bytes(id, conn, line_bytes);
                }
                Framing::Bin1 => match try_decode_frame(&buf[consumed..], MAX_REQUEST_LINE) {
                    Ok(None) => break, // torn frame: wait for more bytes
                    Ok(Some(view)) => {
                        let frame_len = view.consumed;
                        self.handle_frame(id, conn, &view);
                        consumed += frame_len;
                    }
                    Err(message) => {
                        self.shared
                            .metrics
                            .wire_decode_errors
                            .fetch_add(1, Ordering::Relaxed);
                        conn.fatal(&format!("invalid frame: {message}"));
                        break;
                    }
                },
            }
        }
        consumed
    }

    /// Dispatches one decoded `bin1` request frame. The payload is decoded
    /// zero-copy out of the read buffer; only the typed request that comes
    /// out of it owns its strings.
    fn handle_frame(&mut self, id: u64, conn: &mut Conn, view: &FrameView<'_>) {
        self.shared
            .metrics
            .frames_in
            .fetch_add(1, Ordering::Relaxed);
        if view.kind != FrameKind::Request {
            self.shared
                .metrics
                .wire_decode_errors
                .fetch_add(1, Ordering::Relaxed);
            conn.fatal("response frames are not valid requests");
            return;
        }
        let decode_started = self.shared.observe.enabled().then(Instant::now);
        let decoded = protocol::decode_payload(view.payload);
        self.pending_decode_us =
            decode_started.map_or(0, |started| started.elapsed().as_micros() as u64);
        self.dispatch_decoded(id, conn, decoded);
    }

    /// Validates and dispatches one framed line — the single code path for
    /// newline-terminated lines and the EOF-terminated remainder. Returns
    /// whether it did any work (a blank line is none); protocol violations
    /// mark the connection fatal via [`Conn::fatal`].
    fn handle_line_bytes(&mut self, id: u64, conn: &mut Conn, line_bytes: &[u8]) -> bool {
        if line_bytes.len() > MAX_REQUEST_LINE {
            conn.fatal(&oversized_line_message());
            return true;
        }
        match std::str::from_utf8(line_bytes) {
            Ok(line) if line.trim().is_empty() => false,
            Ok(line) => {
                self.dispatch_line(id, conn, line);
                true
            }
            Err(_) => {
                conn.fatal("request line is not UTF-8");
                true
            }
        }
    }

    /// Handles one request line: decodes it and hands off to the shared
    /// dispatch layer both framings lower into.
    fn dispatch_line(&mut self, id: u64, conn: &mut Conn, line: &str) {
        let decode_started = self.shared.observe.enabled().then(Instant::now);
        let decoded = protocol::decode_line(line);
        self.pending_decode_us =
            decode_started.map_or(0, |started| started.elapsed().as_micros() as u64);
        self.dispatch_decoded(id, conn, decoded);
    }

    /// The framing-independent dispatch: opens batch envelopes, runs each
    /// element through cache and flight board, and queues the response
    /// slot. Both the line path and the frame path end here.
    fn dispatch_decoded(&mut self, id: u64, conn: &mut Conn, decoded: Decoded) {
        let slot_id = conn.next_slot;
        conn.next_slot += 1;
        let body = match decoded {
            Decoded::Single(Err(err)) => {
                self.shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
                SlotBody::Ready(Msg::from_line(encode_error(&err.message)))
            }
            // The replication handshake rebinds the connection (it becomes
            // a feed), so it is handled here where the connection is in
            // hand; it queues its own slots (response, snapshot, live).
            // Feeds stream newline-delimited record lines, so the
            // handshake requires the line framing.
            Decoded::Single(Ok(Request::ReplSubscribe { shard })) => {
                if conn.framing == Framing::Bin1 {
                    self.shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
                    SlotBody::Ready(Msg::from_line(encode_error(
                        "repl_subscribe needs the line-JSON framing; it streams record lines",
                    )))
                } else {
                    self.handle_subscribe(id, conn, slot_id, shard);
                    return;
                }
            }
            // The framing negotiation also rebinds the connection: the
            // acknowledgement (and everything after it) travels in the
            // *new* framing, while slots queued before the hello keep the
            // framing their requests arrived under.
            Decoded::Single(Ok(Request::Hello { framing })) => {
                SlotBody::Ready(Msg::from_line(self.handle_hello(conn, framing)))
            }
            Decoded::Single(Ok(request)) => match self.handle_request(request, id, slot_id, None) {
                Some(response) => SlotBody::Ready(response),
                None => SlotBody::PendingSingle,
            },
            Decoded::Batch(elements) => {
                let metrics = &self.shared.metrics;
                metrics.batches.fetch_add(1, Ordering::Relaxed);
                metrics
                    .batched_requests
                    .fetch_add(elements.len() as u64, Ordering::Relaxed);
                let mut items: Vec<Option<Msg>> = Vec::with_capacity(elements.len());
                let mut remaining = 0usize;
                for (elem, element) in elements.into_iter().enumerate() {
                    match element {
                        Err(err) => {
                            self.shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
                            items.push(Some(Msg::from_line(encode_error(&err.message))));
                        }
                        Ok(request) => {
                            match self.handle_request(request, id, slot_id, Some(elem)) {
                                Some(response) => items.push(Some(response)),
                                None => {
                                    items.push(None);
                                    remaining += 1;
                                }
                            }
                        }
                    }
                }
                if remaining == 0 {
                    SlotBody::Ready(assemble_batch(items))
                } else {
                    SlotBody::Batch { items, remaining }
                }
            }
        };
        conn.slots.push_back(Slot {
            id: slot_id,
            framing: conn.framing,
            body,
        });
    }

    /// Applies a `hello` framing negotiation to the connection and returns
    /// the response line. Switching json→bin1 flips the connection before
    /// the slot is created, so the acknowledgement itself travels framed —
    /// the client learns the outcome from the first response byte (`0xB5`
    /// for a frame, `{` for a JSON line). Re-requesting the current
    /// framing is a no-op; bin1→json is refused (reconnect instead).
    fn handle_hello(&mut self, conn: &mut Conn, framing: Framing) -> String {
        match (conn.framing, framing) {
            (Framing::Json, Framing::Bin1) => {
                conn.framing = Framing::Bin1;
                let metrics = &self.shared.metrics;
                metrics.bin_negotiated.fetch_add(1, Ordering::Relaxed);
                metrics.bin_connections.fetch_add(1, Ordering::Relaxed);
                encode_hello_ok(Framing::Bin1)
            }
            (Framing::Bin1, Framing::Json) => {
                self.shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
                encode_error("the framing cannot be renegotiated back to json; reconnect instead")
            }
            (current, _same) => encode_hello_ok(current),
        }
    }

    /// Turns a connection into a replication feed: validate the handshake,
    /// queue the response, then the snapshot (every resident entry, closed
    /// by a checkpoint), and register the connection for live records.
    fn handle_subscribe(
        &mut self,
        id: u64,
        conn: &mut Conn,
        slot_id: u64,
        shard: Option<ShardSpec>,
    ) {
        let refusal = if !self.shared.repl.is_writable() {
            Some("this server is a follower; subscribe to its leader".to_owned())
        } else {
            match (&self.shared.shard, &shard) {
                (None, None) => None,
                (Some(state), Some(spec)) if state.spec == *spec => None,
                (mine, theirs) => Some(format!(
                    "shard mismatch: this server is {}, the subscriber claims {}",
                    mine.as_ref()
                        .map_or("unsharded".to_owned(), |s| s.spec.to_string()),
                    theirs.map_or("unsharded".to_owned(), |s| s.to_string()),
                )),
            }
        };
        if let Some(message) = refusal {
            self.shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
            conn.slots.push_back(Slot {
                id: slot_id,
                framing: conn.framing,
                body: SlotBody::Ready(Msg::from_line(encode_error(&message))),
            });
            return;
        }

        let repl = &self.shared.repl;
        let snapshot = self
            .shared
            .cache
            .lock()
            .expect("cache lock")
            .snapshot_lru_order_with_owners();
        let response = encode_success(
            "repl_subscribe",
            Source::Solved,
            &Json::obj(vec![
                ("epoch", Json::Int(repl.epoch() as i64)),
                ("leader_seq", Json::Int(repl.last_seq() as i64)),
                ("snapshot", Json::Int(snapshot.len() as i64)),
            ])
            .to_text(),
        );
        conn.slots.push_back(Slot {
            id: slot_id,
            framing: conn.framing,
            body: SlotBody::Ready(Msg::from_line(response)),
        });
        // The snapshot travels as ordinary put records (seq 0) in LRU
        // order — replaying it reconstructs the leader's recency ranking —
        // closed by a checkpoint announcing where the live stream stands.
        let mut lines: Vec<String> = snapshot
            .iter()
            .map(|(key, text, tenant)| replica::snapshot_record(repl.epoch(), key, text, tenant))
            .collect();
        lines.push(protocol::encode_repl_record(
            &strudel_core::wire::ReplRecord::Checkpoint {
                seq: repl.last_seq(),
                epoch: repl.epoch(),
                live: snapshot.len() as u64,
            },
        ));
        repl.note_sent(lines.len() as u64);
        for line in lines {
            let slot_id = conn.next_slot;
            conn.next_slot += 1;
            conn.slots.push_back(Slot {
                id: slot_id,
                framing: conn.framing,
                body: SlotBody::Ready(Msg::from_line(line)),
            });
        }
        conn.stage_ready();
        self.hub.add(id, repl);
    }

    /// Runs one request (standalone or batch element). Returns the response
    /// line if it completed synchronously (control ops, cache hits); a
    /// `None` means a token is parked on the flight board and the response
    /// arrives as a completion.
    fn handle_request(
        &mut self,
        request: Request,
        conn: u64,
        slot: u64,
        elem: Option<usize>,
    ) -> Option<Msg> {
        let metrics = &self.shared.metrics;
        match request {
            Request::Status => {
                metrics.status.fetch_add(1, Ordering::Relaxed);
                let body = snapshot(&self.shared).to_json().to_text();
                Some(Msg::from_line(encode_success(
                    "status",
                    Source::Solved,
                    &body,
                )))
            }
            Request::Shutdown => {
                metrics.shutdown.fetch_add(1, Ordering::Relaxed);
                self.shared.stop.store(true, Ordering::SeqCst);
                self.begin_stop();
                Some(Msg::from_line(encode_success(
                    "shutdown",
                    Source::Solved,
                    "{\"stopping\":true}",
                )))
            }
            // Handled in dispatch_decoded (they rebind the connection); an
            // element reaching here slipped past decode validation.
            Request::ReplSubscribe { .. } => {
                metrics.errors.fetch_add(1, Ordering::Relaxed);
                Some(Msg::from_line(encode_error(
                    "repl_subscribe must arrive on its own line",
                )))
            }
            Request::Hello { .. } => {
                metrics.errors.fetch_add(1, Ordering::Relaxed);
                Some(Msg::from_line(encode_error(
                    "hello must arrive on its own line",
                )))
            }
            Request::Promote => {
                if self.shared.repl.is_writable() {
                    metrics.errors.fetch_add(1, Ordering::Relaxed);
                    return Some(Msg::from_line(encode_error(
                        "already the leader; promote targets a follower",
                    )));
                }
                let epoch = self.shared.repl.promote();
                eprintln!("strudel-server: promoted to leader (replication epoch {epoch})");
                Some(Msg::from_line(encode_success(
                    "promote",
                    Source::Solved,
                    &Json::obj(vec![
                        ("role", Json::str("leader")),
                        ("epoch", Json::Int(epoch as i64)),
                    ])
                    .to_text(),
                )))
            }
            Request::Trace { slow_only, tenant } => {
                metrics.trace.fetch_add(1, Ordering::Relaxed);
                let spans = self.shared.observe.dump(slow_only, tenant.as_deref());
                let (depth, dropped) = self.shared.observe.recorder_stats();
                let body = Json::obj(vec![
                    ("depth", Json::Int(depth as i64)),
                    ("dropped", Json::Int(dropped as i64)),
                    (
                        "spans",
                        Json::Arr(spans.iter().map(|span| span.to_json()).collect()),
                    ),
                ])
                .to_text();
                Some(Msg::from_line(encode_success(
                    "trace",
                    Source::Solved,
                    &body,
                )))
            }
            Request::Solve(mut solve) => {
                // The span (if this request is traced) rides the whole
                // pipeline: stage laps are stamped at each gate below and
                // the span finishes when the response bytes are flushed.
                let mut span =
                    self.shared
                        .observe
                        .begin(conn, solve.op.name(), self.pending_decode_us);
                // `--solver ilp|greedy` picks the engine for every request.
                // It replaces the request's choice before the key is taken,
                // so the cache, the segment, the hint bucket and the span
                // all name the engine that runs.
                if let Some(engine) = self.shared.solver {
                    solve.engine = engine;
                }
                let key = solve.cache_key();
                // Ownership gate: a sharded server answers only keys its
                // ring arc covers. Misrouted or stale-ring requests get the
                // structured refusal *before* touching cache or workers, so
                // a confused client cannot fragment the keyspace across
                // shards (which would defeat single-flight and duplicate
                // cache entries cluster-wide). The epoch compared is the
                // *replication* epoch (ring epoch + promotions), which is
                // what refuses a resurrected old leader's stale stamps —
                // and, symmetrically, a failed-over router's new stamps on
                // the old leader. An unsharded server is epoch-wise shard
                // 0 of 1 (its base epoch is the one-shard ring's), so
                // stamped requests validate there too and replication
                // fail-over does not require `--shard`; unstamped
                // requests always pass its ownership check.
                {
                    let epoch = self.shared.repl.epoch();
                    let (index, owner, count) = match &self.shared.shard {
                        Some(state) => (
                            state.spec.index,
                            state.ring.route(key.view),
                            state.spec.count,
                        ),
                        None => (0, 0, 1),
                    };
                    let refusal = match solve.routing {
                        Some(stamp) if stamp.epoch != epoch => Some(format!(
                            "replication epoch mismatch: request stamped {}, this shard's \
                             epoch is {epoch} ({count} shards)",
                            stamp.epoch
                        )),
                        _ if owner != index => Some(format!(
                            "key {:032x} belongs to shard {owner}, this is shard {index}",
                            key.view
                        )),
                        _ => None,
                    };
                    if let Some(message) = refusal {
                        metrics.wrong_shard.fetch_add(1, Ordering::Relaxed);
                        metrics.errors.fetch_add(1, Ordering::Relaxed);
                        let mut msg = Msg::from_line(encode_wrong_shard(
                            &message,
                            &WrongShard {
                                shard: index,
                                owner,
                                epoch,
                            },
                        ));
                        if let Some(span) = span.as_mut() {
                            span.set_outcome("wrong_shard");
                        }
                        msg.attach(span);
                        return Some(msg);
                    }
                }
                // Admission gate: the tenant's token bucket meters every
                // solve — hit or miss — *before* the cache is touched, so
                // a flooding tenant cannot even monopolise lookup
                // bandwidth. Refusals are per-element (a mixed batch keeps
                // its other answers) and structured: the client learns the
                // tenant and a deterministic `retry_after_ms`.
                let tenant = solve
                    .tenant
                    .clone()
                    .unwrap_or_else(|| DEFAULT_TENANT.to_owned());
                if let Some(span) = span.as_mut() {
                    span.set_tenant(&tenant);
                }
                if let Err(retry_after_ms) = self.shared.tenants.admit(&tenant) {
                    metrics.errors.fetch_add(1, Ordering::Relaxed);
                    let message =
                        format!("tenant '{tenant}' is over its admission rate; retry later");
                    let mut msg = Msg::from_line(encode_over_quota(
                        &message,
                        &OverQuota {
                            tenant,
                            retry_after_ms,
                        },
                    ));
                    if let Some(span) = span.as_mut() {
                        span.lap_admission();
                        span.set_outcome("over_quota");
                    }
                    msg.attach(span);
                    return Some(msg);
                }
                if let Some(span) = span.as_mut() {
                    span.lap_admission();
                }
                metrics.count_solve(solve.op);
                if let Some(result) = self.shared.cache.lock().expect("cache lock").get(&key) {
                    self.shared.tenants.count_hit(&tenant);
                    // The hit's payload is aliased, not copied: the
                    // envelope fragments own a few dozen bytes and the
                    // cached `Arc<String>` travels to the socket as its
                    // own iovec entry.
                    let mut msg = success_msg(solve.op.name(), Source::Cache, &result);
                    if let Some(span) = span.as_mut() {
                        span.lap_cache();
                        span.set_outcome("cache");
                    }
                    msg.attach(span);
                    return Some(msg);
                }
                self.shared.tenants.count_miss(&tenant);
                if let Some(span) = span.as_mut() {
                    span.lap_cache();
                }
                // Follower gate: a standby answers what its replicated
                // cache already holds (the hit path above); anything that
                // would *compute and insert* is a write, refused toward
                // the leader until promotion flips this shard writable.
                if !self.shared.repl.is_writable() {
                    metrics.not_leader.fetch_add(1, Ordering::Relaxed);
                    metrics.errors.fetch_add(1, Ordering::Relaxed);
                    let leader = self.shared.repl.leader_addr().unwrap_or_default();
                    let mut msg = Msg::from_line(encode_not_leader(
                        &format!("this shard is a follower; send writes to its leader at {leader}"),
                        &NotLeader { leader },
                    ));
                    if let Some(span) = span.as_mut() {
                        span.set_outcome("not_leader");
                    }
                    msg.attach(span);
                    return Some(msg);
                }
                // Pool gate: only a request that would *lead* a new solve
                // (no flight open for its key) is charged against its
                // tenant's compute-pool share — joining an open flight
                // costs no worker slot, so coalesced followers ride free.
                if !self.board.contains(&key) && !self.shared.tenants.pool_available(&tenant) {
                    let retry_after_ms = self.shared.tenants.refuse_pool(&tenant);
                    metrics.errors.fetch_add(1, Ordering::Relaxed);
                    let message =
                        format!("tenant '{tenant}' has no compute-pool share free; retry later");
                    let mut msg = Msg::from_line(encode_over_quota(
                        &message,
                        &OverQuota {
                            tenant,
                            retry_after_ms,
                        },
                    ));
                    if let Some(span) = span.as_mut() {
                        span.set_outcome("over_quota");
                    }
                    msg.attach(span);
                    return Some(msg);
                }
                let waiter = Waiter {
                    conn,
                    slot,
                    elem,
                    op: solve.op,
                    span,
                };
                match self.board.join(key.clone(), waiter) {
                    BoardJoin::Lead => {
                        metrics.flight_leaders.fetch_add(1, Ordering::Relaxed);
                        self.shared.tenants.begin_solve(&tenant);
                        self.pending_jobs += 1;
                        // Warm-start lookup: under `--solver ilp`, a
                        // `refine` miss first asks the neighbor index for
                        // the nearest solved instance of the same question
                        // (params string, tenant included) over an
                        // almost-identical signature set. The hint travels
                        // into the worker; the index stays here.
                        let warm_starts = solve.op == SolveOp::Refine
                            && self.shared.solver == Some(EngineKind::Ilp);
                        let hint = if warm_starts {
                            metrics.solver_seed_lookups.fetch_add(1, Ordering::Relaxed);
                            let identities = view_identities(&solve.view);
                            let hint = self.hints.lookup(&key.params, &identities);
                            if hint.is_some() {
                                metrics.solver_seed_hits.fetch_add(1, Ordering::Relaxed);
                            }
                            hint
                        } else {
                            None
                        };
                        // Capture only the completion queue and the
                        // poller's waker (see the field doc on
                        // `Shared::completions`), never `Shared`.
                        let completions = Arc::clone(&self.shared.completions);
                        let waker = Arc::clone(&self.shared.waker);
                        self.shared.pool.submit(move || {
                            // A panicking solve must complete its flight
                            // regardless — followers are parked on it.
                            let (outcome, telemetry) =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    solve_job(&solve, warm_starts, hint)
                                }))
                                .unwrap_or_else(|_| {
                                    (
                                        Err("solve panicked in the worker".to_owned()),
                                        SolveTelemetry::default(),
                                    )
                                });
                            completions
                                .lock()
                                .expect("completions lock")
                                .push(Completion {
                                    key,
                                    tenant,
                                    engine: solve.engine,
                                    outcome,
                                    telemetry,
                                });
                            waker.wake();
                        });
                    }
                    BoardJoin::Wait => {
                        metrics.flight_shared.fetch_add(1, Ordering::Relaxed);
                    }
                }
                None
            }
        }
    }

    /// Applies finished solves: insert into the cache, write through to the
    /// segment, and fan the result out to every parked token (leader first,
    /// as `solved`; followers as `coalesced`).
    fn apply_completions(&mut self) -> bool {
        let completed: Vec<Completion> =
            std::mem::take(&mut *self.shared.completions.lock().expect("completions lock"));
        if completed.is_empty() {
            return false;
        }
        for completion in completed {
            self.pending_jobs -= 1;
            self.shared.tenants.end_solve(&completion.tenant);
            let tokens = self.board.complete(&completion.key);
            self.account_solver(&completion);
            match completion.outcome {
                Ok(text) => {
                    let text = Arc::new(text);
                    let evicted = self.shared.cache.lock().expect("cache lock").insert_for(
                        &completion.tenant,
                        completion.key.clone(),
                        Arc::clone(&text),
                    );
                    if let Some(victim) = &evicted {
                        self.shared.tenants.count_eviction(&victim.owner);
                    }
                    let victim_key = evicted.as_ref().map(|victim| &victim.key);
                    let compacted =
                        self.persist_insert(&completion.key, &text, &completion.tenant, victim_key);
                    self.replicate_insert(&completion.key, &text, &completion.tenant, victim_key);
                    if compacted {
                        let live = self
                            .shared
                            .cache
                            .lock()
                            .expect("cache lock")
                            .stats()
                            .entries as u64;
                        if let Some((line, ids)) =
                            self.hub.publish_checkpoint(&self.shared.repl, live)
                        {
                            self.deliver_to_subscribers(line, ids);
                        }
                    }
                    let engine = completion.engine.name();
                    let nodes = completion.telemetry.nodes;
                    for (rank, mut waiter) in tokens.into_iter().enumerate() {
                        let source = if rank == 0 {
                            Source::Solved
                        } else {
                            Source::Coalesced
                        };
                        let mut msg = success_msg(waiter.op.name(), source, &text);
                        if let Some(mut span) = waiter.span.take() {
                            // The whole flight wait — queueing, solving,
                            // single-flight parking — is the solve stage.
                            span.lap_solve();
                            span.set_engine(engine, nodes);
                            span.set_outcome(if rank == 0 { "solved" } else { "coalesced" });
                            msg.attach(Some(span));
                        }
                        self.fill(waiter, msg);
                    }
                }
                Err(message) => {
                    // Errors are shared with everyone parked on the flight
                    // (they asked the same question) but never cached or
                    // persisted: a later retry re-solves.
                    for mut waiter in tokens {
                        self.shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
                        let mut msg = Msg::from_line(encode_error(&message));
                        if let Some(mut span) = waiter.span.take() {
                            span.lap_solve();
                            span.set_outcome("error");
                            msg.attach(Some(span));
                        }
                        self.fill(waiter, msg);
                    }
                }
            }
        }
        true
    }

    /// Rolls one completion's solver telemetry into the metrics and, on a
    /// successful `refine`, remembers the solution in the neighbor index
    /// so the *next* close-by instance starts warm.
    fn account_solver(&mut self, completion: &Completion) {
        let metrics = &self.shared.metrics;
        let telemetry = &completion.telemetry;
        if telemetry.warm {
            metrics.solver_warm.fetch_add(1, Ordering::Relaxed);
        } else {
            metrics.solver_cold.fetch_add(1, Ordering::Relaxed);
        }
        if telemetry.repaired {
            metrics.solver_repaired.fetch_add(1, Ordering::Relaxed);
        }
        metrics
            .solver_nodes
            .fetch_add(telemetry.nodes, Ordering::Relaxed);
        metrics
            .solver_propagations
            .fetch_add(telemetry.propagations, Ordering::Relaxed);
        metrics
            .solver_conflicts
            .fetch_add(telemetry.conflicts, Ordering::Relaxed);
        if completion.outcome.is_ok() {
            if let Some(solved) = &telemetry.solved {
                self.hints
                    .remember(&completion.key.params, completion.key.view, solved.clone());
            }
        }
    }

    /// Write-through: append the put (plus any eviction tombstone) to the
    /// segment, compacting when dead records cross the threshold. Returns
    /// whether a compaction ran (the caller announces it to replication
    /// subscribers as a checkpoint).
    fn persist_insert(
        &mut self,
        key: &CacheKey,
        text: &str,
        tenant: &str,
        evicted: Option<&CacheKey>,
    ) -> bool {
        // This is the one place a lock is acquired while another is held
        // (cache inside persist, for the compaction snapshot). It cannot
        // deadlock because no other path holds the cache lock across a
        // persist acquisition — `snapshot()` takes them strictly one at a
        // time; keep it that way.
        let snapshot = {
            let mut persist = self.shared.persist.lock().expect("persist lock");
            let Some(store) = persist.as_mut() else {
                return false;
            };
            let mut result = store.record_put_for(key, text, tenant);
            if let Some(victim) = evicted {
                result = result.and_then(|()| store.record_evict(victim));
            }
            match result {
                Err(err) => {
                    self.shared
                        .metrics
                        .persist_errors
                        .fetch_add(1, Ordering::Relaxed);
                    eprintln!("strudel-server: persistent cache write failed: {err}");
                    return false;
                }
                Ok(()) => {
                    if !store.should_compact() {
                        return false;
                    }
                }
            }
            self.shared
                .cache
                .lock()
                .expect("cache lock")
                .snapshot_lru_order_with_owners()
        };
        let mut persist = self.shared.persist.lock().expect("persist lock");
        let Some(store) = persist.as_mut() else {
            return false;
        };
        if let Err(err) = store.compact(
            snapshot.iter().map(|(k, v, t)| (k, v.as_str(), t.as_str())),
            self.shared.repl.last_seq(),
        ) {
            self.shared
                .metrics
                .persist_errors
                .fetch_add(1, Ordering::Relaxed);
            eprintln!("strudel-server: segment compaction failed: {err}");
            return false;
        }
        true
    }

    /// Replication fan-out of one completed insert: a put record (and, if
    /// capacity pushed something out, the matching evict record) to every
    /// subscriber feed. The publication clock ticks even with no
    /// subscribers — late joiners pick it up from their snapshot.
    fn replicate_insert(
        &mut self,
        key: &CacheKey,
        text: &str,
        tenant: &str,
        evicted: Option<&CacheKey>,
    ) {
        if let Some((line, ids)) = self.hub.publish_put(&self.shared.repl, key, text, tenant) {
            self.deliver_to_subscribers(line, ids);
        }
        if let Some(victim) = evicted {
            if let Some((line, ids)) = self.hub.publish_evict(&self.shared.repl, victim) {
                self.deliver_to_subscribers(line, ids);
            }
        }
    }

    /// Routes a completed response into its slot; tokens whose connection
    /// is already gone are counted as aborted.
    fn fill(&mut self, waiter: Waiter, mut msg: Msg) {
        self.touched.push(waiter.conn);
        let metrics = &self.shared.metrics;
        // Either abort path strands the spans riding on `msg` (the
        // requester's connection is gone, so their responses will never
        // flush): close them as `aborted` instead of dropping them.
        let Some(conn) = self.conns.get_mut(&waiter.conn) else {
            metrics.flight_aborted.fetch_add(1, Ordering::Relaxed);
            for span in msg.spans.drain(..) {
                self.shared.observe.finish_aborted(span);
            }
            return;
        };
        let Some(slot) = conn.slots.iter_mut().find(|slot| slot.id == waiter.slot) else {
            metrics.flight_aborted.fetch_add(1, Ordering::Relaxed);
            for span in msg.spans.drain(..) {
                self.shared.observe.finish_aborted(span);
            }
            return;
        };
        match (&mut slot.body, waiter.elem) {
            (SlotBody::PendingSingle, None) => slot.body = SlotBody::Ready(msg),
            (SlotBody::Batch { items, remaining }, Some(elem)) => {
                if items[elem].is_none() {
                    items[elem] = Some(msg);
                    *remaining -= 1;
                }
                if *remaining == 0 {
                    let items = std::mem::take(items);
                    slot.body = SlotBody::Ready(assemble_batch(items));
                }
            }
            _ => {}
        }
        let staged = conn.stage_ready();
        if staged > 0 {
            metrics.frames_out.fetch_add(staged, Ordering::Relaxed);
        }
    }

    /// Pumps writes and re-evaluates poller interest for every connection
    /// touched this round — one that read, queued a response (dispatch,
    /// completion fan-out, replication delivery), or was reported
    /// writable. Write interest is an *edge*: enabled exactly when a
    /// flush leaves bytes behind (the socket pushed back), disabled the
    /// moment the buffer drains, so level-triggered backends never spin
    /// on an idle writable socket. This is also what fixes the old scan
    /// loop's flush-starvation edge — a connection with a full write
    /// buffer and no new reads now has explicit WRITE interest and is
    /// flushed the moment the peer drains, instead of waiting out a park
    /// cycle.
    fn flush_touched(&mut self, ids: &[u64]) -> bool {
        let mut any = false;
        for &id in ids {
            let Some(conn) = self.conns.get_mut(&id) else {
                continue;
            };
            if conn.dead {
                continue;
            }
            any |= Self::pump_write_conn(conn, &self.shared.metrics);
            // Spans whose response bytes have fully left the socket are
            // done: stamp the flush stage and roll them into the
            // histograms/recorder.
            while conn
                .pending_spans
                .front()
                .is_some_and(|(offset, _)| *offset <= conn.flushed_bytes)
            {
                let (_, span) = conn.pending_spans.pop_front().expect("front just matched");
                self.shared.observe.finish(span);
            }
            let desired = Interest {
                read: conn.peer_open && !conn.close_after_flush && !self.stopping,
                write: !conn.flushed(),
            };
            if !conn.dead && desired != conn.interest {
                conn.interest = desired;
                if self.poller.modify(conn.fd, id, desired).is_err() {
                    conn.dead = true;
                }
            }
        }
        any
    }

    /// Writes as much of one connection's output queue as the socket
    /// accepts, gathering up to [`WRITE_BATCH_IOVECS`] chunks per
    /// `writev`-style vectored call: a batch of responses — envelope
    /// fragments, shared cache payloads, frame headers — leaves in one
    /// syscall without ever being copied into a contiguous buffer.
    fn pump_write_conn(conn: &mut Conn, metrics: &Metrics) -> bool {
        let mut any = false;
        while conn.out_len > 0 {
            let mut slices: Vec<IoSlice<'_>> =
                Vec::with_capacity(conn.out.len().min(WRITE_BATCH_IOVECS));
            let mut chunks = conn.out.iter();
            if let Some(front) = chunks.next() {
                slices.push(IoSlice::new(&front.as_bytes()[conn.out_front..]));
            }
            for chunk in chunks.take(WRITE_BATCH_IOVECS - 1) {
                slices.push(IoSlice::new(chunk.as_bytes()));
            }
            match conn.stream.write_vectored(&slices) {
                Ok(0) => {
                    conn.dead = true;
                    break;
                }
                Ok(n) => {
                    drop(slices);
                    metrics
                        .wire_bytes_out
                        .fetch_add(n as u64, Ordering::Relaxed);
                    conn.advance_out(n);
                    any = true;
                }
                Err(err) if err.kind() == ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        if conn.out_len > MAX_OUT_BUFFER {
            conn.dead = true; // requests heavily, never reads
        }
        any
    }

    /// Drops connections that are finished — dead, or closed with nothing
    /// left to flush. Only this round's touched ids are examined: every
    /// transition into a reapable state (an I/O error, a hangup event, an
    /// EOF read, the final flush of a closing connection, a completion
    /// landing on an EOF'd connection) happens on a path that pushed the
    /// id, so nothing lingers — it just waits for its transition round.
    fn reap(&mut self, ids: &[u64]) {
        for &id in ids {
            let gone = self.conns.get(&id).is_some_and(|conn| {
                conn.dead
                    || ((!conn.peer_open || conn.close_after_flush)
                        && conn.slots.is_empty()
                        && conn.flushed())
            });
            if !gone {
                continue;
            }
            let mut conn = self.conns.remove(&id).expect("presence just checked");
            // A span whose response never fully left the server would
            // otherwise wait forever on a flush clock that has stopped.
            for span in conn.take_orphan_spans() {
                self.shared.observe.finish_aborted(span);
            }
            // Deregister before the socket drops: a dead fd must leave
            // the interest list (the old loop kept re-scanning dead
            // connection slots until the end of the round that freed
            // them; the epoll backend would leak a kernel registration).
            let _ = self.poller.deregister(conn.fd, id);
            self.hub.remove(id, &self.shared.repl);
            if conn.framing == Framing::Bin1 {
                self.shared
                    .metrics
                    .bin_connections
                    .fetch_sub(1, Ordering::Relaxed);
            }
            self.shared
                .metrics
                .open_connections
                .fetch_sub(1, Ordering::Relaxed);
        }
    }
}

fn oversized_line_message() -> String {
    format!("request line exceeds {MAX_REQUEST_LINE} bytes; closing the connection")
}

/// Splices completed batch elements between the envelope fragments. All
/// items are `Some` by construction (`remaining` reached 0). Each
/// element's chunks — including shared cache payloads — move into the
/// batch message as-is: no per-element `String`, no join.
fn assemble_batch(items: Vec<Option<Msg>>) -> Msg {
    let mut msg = Msg::new();
    msg.push_str(protocol::BATCH_ENVELOPE_PREFIX);
    for (idx, item) in items.into_iter().enumerate() {
        if idx > 0 {
            msg.push_str(",");
        }
        msg.append(item.expect("all elements complete"));
    }
    msg.push_str(protocol::BATCH_ENVELOPE_SUFFIX);
    msg
}

/// Runs one solve on the worker thread. Returns the canonical serialization
/// of the result object (or an error message) plus the solver telemetry the
/// event loop rolls into its counters and neighbor index. `warm_starts`
/// marks a `refine` under `--solver ilp`: `hint` came from the neighbor
/// index, and a solution is exported back to it.
fn solve_job(
    request: &SolveRequest,
    warm_starts: bool,
    hint: Option<RefinementHint>,
) -> (Result<String, String>, SolveTelemetry) {
    let mut telemetry = SolveTelemetry::default();
    let outcome = solve_job_inner(request, warm_starts, hint, &mut telemetry);
    (outcome, telemetry)
}

fn solve_job_inner(
    request: &SolveRequest,
    warm_starts: bool,
    hint: Option<RefinementHint>,
    telemetry: &mut SolveTelemetry,
) -> Result<String, String> {
    // An exact `refine` is the solver core's op: it reports its search,
    // can start from a neighbor's hint, and can export its solution for
    // future neighbors. Every other solve runs the request's engine as
    // built.
    if request.op == SolveOp::Refine && request.engine == EngineKind::Ilp {
        let k = request.k.expect("validated at decode");
        let theta = request.theta.expect("validated at decode");
        let engine = IlpEngine::with_config(IlpEngineConfig {
            time_limit: request.time_limit,
        });
        let (outcome, stats) = engine
            .refine_with_hint(&request.view, &request.spec, k, theta, hint.as_ref())
            .map_err(|err| err.to_string())?;
        telemetry.warm = stats.hint_vars > 0;
        telemetry.nodes = stats.nodes;
        telemetry.propagations = stats.propagations;
        telemetry.conflicts = stats.conflicts;
        telemetry.repaired =
            telemetry.warm && stats.hint_mismatches > 0 && outcome.refinement().is_some();
        if warm_starts {
            if let Some(refinement) = outcome.refinement() {
                telemetry.solved = Some(SolvedHint {
                    identities: view_identities(&request.view),
                    assignments: hint_from_refinement(&request.view, refinement).assignments,
                });
            }
        }
        return Ok(protocol::outcome_to_json(&WireOutcome::from_outcome(&outcome)).to_text());
    }

    let engine = request.engine.build(request.time_limit);
    let result = match request.op {
        SolveOp::Refine => {
            let k = request.k.expect("validated at decode");
            let theta = request.theta.expect("validated at decode");
            let outcome = engine
                .refine(&request.view, &request.spec, k, theta)
                .map_err(|err| err.to_string())?;
            protocol::outcome_to_json(&WireOutcome::from_outcome(&outcome))
        }
        SolveOp::HighestTheta => {
            let k = request.k.expect("validated at decode");
            let mut options = HighestThetaOptions::default();
            if let Some(step) = request.step {
                options.step = step;
            }
            let result = highest_theta(&request.view, &request.spec, k, engine.as_ref(), &options)
                .map_err(|err| err.to_string())?;
            protocol::highest_theta_to_json(&WireHighestTheta::from_result(&result))
        }
        SolveOp::LowestK => {
            let theta = request.theta.expect("validated at decode");
            let result = lowest_k(
                &request.view,
                &request.spec,
                theta,
                engine.as_ref(),
                SweepDirection::Upward,
                request.max_k,
            )
            .map_err(|err| err.to_string())?;
            protocol::lowest_k_to_json(&WireLowestK::from_result(&result))
        }
    };
    Ok(result.to_text())
}

/// Serves until a `shutdown` request arrives (the `strudel serve` entry
/// point) and returns the final counters.
pub fn serve(config: &ServerConfig) -> std::io::Result<StatusSnapshot> {
    Ok(start(config)?.wait())
}

#[cfg(test)]
mod conn_tests {
    use super::*;

    fn conn_with_chunks(chunks: Vec<Chunk>) -> Conn {
        // A throwaway socket: these tests only exercise the output-queue
        // bookkeeping, never the stream itself.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut conn = Conn::new(stream);
        for chunk in chunks {
            conn.out_len += chunk.len();
            conn.out.push_back(chunk);
        }
        conn
    }

    fn remaining(conn: &Conn) -> Vec<u8> {
        let mut bytes = Vec::new();
        for (idx, chunk) in conn.out.iter().enumerate() {
            let skip = if idx == 0 { conn.out_front } else { 0 };
            bytes.extend_from_slice(&chunk.as_bytes()[skip..]);
        }
        bytes
    }

    /// Pins the short-write bookkeeping for the case the vectored flush
    /// path depends on: one `write_vectored` consuming the whole front
    /// chunk *and* part of a later one (a large shared cache payload
    /// spliced mid-batch). The consumed count must pop fully-written
    /// chunks and re-offset into the first partial one — never re-send
    /// or skip a byte.
    #[test]
    fn advance_out_spans_chunk_boundaries() {
        let payload: Vec<u8> = (0u8..=255).cycle().take(9000).collect();
        let mut conn = conn_with_chunks(vec![
            Chunk::Owned(payload[..100].to_vec()),
            Chunk::Shared(Arc::new(String::from_utf8(vec![b'x'; 8000]).unwrap())),
            Chunk::Owned(payload[..900].to_vec()),
        ]);
        let mut expected = Vec::new();
        expected.extend_from_slice(&payload[..100]);
        expected.extend_from_slice(&vec![b'x'; 8000]);
        expected.extend_from_slice(&payload[..900]);
        assert_eq!(remaining(&conn), expected);

        // Front chunk + 60 bytes into the shared chunk, in one write.
        conn.advance_out(160);
        assert_eq!(conn.out.len(), 2);
        assert_eq!(conn.out_front, 60);
        assert_eq!(conn.out_len, expected.len() - 160);
        assert_eq!(remaining(&conn), &expected[160..]);

        // The rest of the shared chunk + the entire tail chunk: exactly
        // to the end, leaving a clean (empty, zero-offset) queue.
        conn.advance_out(expected.len() - 160);
        assert!(conn.out.is_empty());
        assert_eq!(conn.out_front, 0);
        assert_eq!(conn.out_len, 0);
        assert_eq!(conn.flushed_bytes, expected.len() as u64);
    }

    /// A short write inside the front chunk only moves the offset; a
    /// follow-up that exactly finishes the chunk pops it and resets the
    /// offset for the next front.
    #[test]
    fn advance_out_partial_front_then_exact_pop() {
        let mut conn = conn_with_chunks(vec![
            Chunk::Owned(vec![1u8; 50]),
            Chunk::Owned(vec![2u8; 70]),
        ]);
        conn.advance_out(20);
        assert_eq!((conn.out.len(), conn.out_front, conn.out_len), (2, 20, 100));
        conn.advance_out(30);
        assert_eq!((conn.out.len(), conn.out_front, conn.out_len), (1, 0, 70));
        conn.advance_out(70);
        assert!(conn.out.is_empty() && conn.flushed());
    }

    /// Multi-chunk consumption in a single call across *three* chunks —
    /// two popped whole, the third entered partially.
    #[test]
    fn advance_out_pops_multiple_whole_chunks() {
        let mut conn = conn_with_chunks(vec![
            Chunk::Owned(vec![1u8; 10]),
            Chunk::Owned(vec![2u8; 10]),
            Chunk::Owned(vec![3u8; 10]),
        ]);
        conn.advance_out(25);
        assert_eq!((conn.out.len(), conn.out_front, conn.out_len), (1, 5, 5));
        assert_eq!(remaining(&conn), vec![3u8; 5]);
    }
}
