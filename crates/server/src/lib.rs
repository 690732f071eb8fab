//! # strudel-server
//!
//! The always-on refinement service of the **strudel** toolkit: a
//! long-running daemon wrapping the `strudel-core` refinement engines behind
//! a line-delimited JSON protocol over TCP, built from the ingredients that
//! turn a one-shot analysis kernel into serving infrastructure:
//!
//! * an **event loop** ([`server`]) — one thread owns every connection as a
//!   non-blocking socket with read/write buffers and ordered response
//!   slots, so thousands of idle clients cost no threads; a fixed-size
//!   **compute pool** ([`pool`]) bounds how many CPU-heavy ILP/greedy
//!   solves run concurrently and wakes the loop per completion. Every
//!   solve runs the request's engine from scratch, so an answer depends on
//!   its request alone, never on what the process solved before,
//! * a **batched wire protocol** ([`protocol`]) — one line can carry an
//!   array of requests; responses preserve order, elements fail
//!   independently, and cache lookups run per-element so mixed hit/miss
//!   batches amortize framing and syscalls,
//! * a **content-addressed result cache** ([`cache`]) keyed by the hash of
//!   `(signature view, σ spec, k, θ, engine, …)` with exact-LRU eviction —
//!   a repeated instance is answered from memory with the *same bytes* as
//!   the original response — plus a **write-through persistent segment**
//!   ([`cache::SegmentStore`]) replayed on startup, so a restarted server
//!   keeps answering warm without recomputing,
//! * **single-flight memoization** ([`flight`]) so `n` concurrent identical
//!   requests cost one solve: the first becomes the leader, the rest park
//!   tokens on its flight and share the result,
//! * a **shard-aware cluster layer** — each `serve --shard i/n` process
//!   owns one arc of a consistent-hash ring over the cache-key space
//!   (`ShardRing` in `strudel_core::wire`), refuses misrouted keys with a
//!   structured `wrong_shard` error, and namespaces its persistent segment;
//!   the client side splits into the single-socket transport ([`client`])
//!   and the [`router`], which holds one connection per shard, routes by
//!   key hash, and splits batches into concurrently-driven per-shard
//!   sub-batches. Duplicate keys converge on one shard, so caching and
//!   single-flight stay per-process — no cross-process coordination,
//! * a **replication layer** ([`replica`]) — a leader streams its segment
//!   records (puts, tombstones, compaction checkpoints) to warm standbys
//!   (`serve --follow`), which replay them into their own cache and
//!   segment, serve hits read-only, and refuse writes with a structured
//!   `not_leader` error; promotion (`strudel promote` or
//!   `--auto-promote`) bumps a replication epoch, and the router fails
//!   over to `+`-listed standbys, refusing resurrected stale leaders via
//!   the same epoch machinery,
//! * a **multi-tenant QoS layer** ([`tenant`]) — requests carry a tenant
//!   id (absent = `default`), resolved against a registry configured via
//!   `serve --tenants`; each tenant gets a weighted reserve of the cache
//!   (a hot tenant evicts its own tail, never a sibling's reserve), a
//!   deterministic token-bucket admission rate, and a bounded share of
//!   the compute pool, with over-limit requests refused per-element via
//!   a structured `over_quota` error carrying `retry_after_ms`. Segment
//!   records and the replication stream are tenant-tagged, so warm
//!   restarts and promoted followers preserve per-tenant accounting.
//!
//! * an **observability layer** ([`trace`]) — every Nth solve request (and
//!   every request over a slow-log threshold) carries a span through the
//!   pipeline, stamping per-stage micros (decode → admission → cache →
//!   solve → flush) into log-scale histograms surfaced by the `status`
//!   response's `observe` block, and into a fixed-size **flight recorder**
//!   dumped by the `trace` wire command.
//!
//! The protocol speaks seven operations — `refine`, `highest-theta`,
//! `lowest-k`, `batch`, `status`, `trace`, `shutdown` — carrying signature views and
//! exact rationals as canonical strings over a deliberately tiny
//! integer-only JSON ([`json`]). [`server`] is the daemon, [`client`] the
//! blocking client the CLI (`strudel serve` / `strudel client`) wraps.
//!
//! ## In-process quick start
//!
//! ```
//! use strudel_server::prelude::*;
//! use strudel_core::sigma::SigmaSpec;
//! use strudel_rdf::signature::SignatureView;
//! use strudel_rules::prelude::Ratio;
//!
//! let handle = server::start(&ServerConfig {
//!     addr: "127.0.0.1:0".into(), // OS-assigned port
//!     workers: 2,
//!     cache_capacity: 64,
//!     ..ServerConfig::default()   // no persistence
//! })
//! .unwrap();
//!
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let request = SolveRequest {
//!     op: SolveOp::Refine,
//!     view: SignatureView::from_counts(
//!         vec!["http://ex/name".into(), "http://ex/email".into()],
//!         vec![(vec![0], 9), (vec![0, 1], 1)],
//!     )
//!     .unwrap(),
//!     spec: SigmaSpec::Coverage,
//!     engine: EngineKind::Hybrid,
//!     k: Some(2),
//!     theta: Some(Ratio::new(1, 1)),
//!     step: None,
//!     max_k: None,
//!     time_limit: None,
//!     routing: None,
//!     tenant: None,
//! };
//! let cold = client.solve(&request).unwrap();
//! assert_eq!(cold.source(), Some(Source::Solved));
//! let warm = client.solve(&request).unwrap();
//! assert_eq!(warm.source(), Some(Source::Cache));
//! assert_eq!(warm.result_text(), cold.result_text()); // byte-identical
//!
//! // Batch: two requests, one line each way, order preserved.
//! let outcomes = client.solve_batch(&[request.clone(), request]).unwrap();
//! assert_eq!(outcomes.len(), 2);
//! assert!(outcomes.iter().all(|outcome| outcome.is_ok()));
//!
//! client.shutdown().unwrap();
//! handle.wait();
//! ```

// `deny`, not `forbid`: the one sanctioned exception is the epoll
// backend's direct syscall bindings (`poller::sys` — epoll and eventfd),
// which carries its own `#[allow(unsafe_code)]` plus per-call SAFETY
// notes. Everything else in the crate stays safe Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod flight;
pub mod json;
pub mod poller;
pub mod pool;
pub mod protocol;
pub mod replica;
pub mod router;
pub mod server;
pub mod tenant;
pub mod trace;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::cache::{
        CacheStats, Evicted, FsyncPolicy, LruCache, OwnerCacheStats, PersistStats, SegmentStore,
    };
    pub use crate::client::{Client, ClientError, ClientOptions, FramingMode, Response};
    pub use crate::flight::{BoardJoin, FlightBoard, FlightStats};
    pub use crate::json::Json;
    pub use crate::poller::{Event, Interest, Poller, PollerStats, Waker};
    pub use crate::pool::WorkerPool;
    pub use crate::protocol::{
        CacheKey, EngineKind, NotLeader, OverQuota, ReplRecord, Request, ShardRing, ShardSpec,
        ShardStamp, SolveOp, SolveRequest, Source, WrongShard, DEFAULT_TENANT,
    };
    pub use crate::replica::{ReplRole, ReplStatus, HEARTBEAT_INTERVAL};
    pub use crate::router::{Router, RouterOptions};
    pub use crate::server::start as start_server;
    pub use crate::server::{
        self, serve, shard_segment_path, ServerConfig, ServerHandle, ShardStatus, SolverStats,
        StatusSnapshot,
    };
    pub use crate::tenant::{TenantCounters, TenantQos, TenantRegistry, TenantSpecSet};
    pub use crate::trace::{FlightRecorder, ObserveSnapshot, ObserveState, SpanRecord};
}
