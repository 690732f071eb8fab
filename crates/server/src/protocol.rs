//! The line-delimited JSON protocol of the refinement service.
//!
//! Every request and every response is one JSON object on one line. Five
//! operations exist:
//!
//! * `refine` — decide one `(view, σ, k, θ)` instance and return the witness
//!   refinement if one exists,
//! * `highest-theta` — the highest threshold reachable with at most `k`
//!   implicit sorts (Section 7's first search strategy),
//! * `lowest-k` — the smallest `k` meeting a threshold (the second),
//! * `status` — server counters: per-op request totals, cache
//!   hit/miss/eviction counts, single-flight shares, worker count,
//! * `shutdown` — stop accepting connections and exit.
//!
//! A solve request looks like:
//!
//! ```json
//! {"op":"refine","view":{"properties":["http://ex/name","http://ex/email"],
//!  "signatures":[[[0],9],[[0,1],1]]},"rule":"cov","engine":"hybrid",
//!  "k":2,"theta":"1/2"}
//! ```
//!
//! and every response is `{"ok":true,"op":…,"source":…,"result":…}` or
//! `{"ok":false,"error":…}`. `source` is `"solved"` (computed by a worker),
//! `"cache"` (replayed from the result cache), or `"coalesced"` (shared a
//! concurrent identical solve via single-flight). The `result` bytes of a
//! cache or coalesced response are byte-identical to the cold response's,
//! because the server caches the serialized text, not the value.
//!
//! ## The batch envelope
//!
//! One line may carry many requests, amortizing framing and syscalls:
//!
//! ```json
//! {"op":"batch","requests":[{"op":"refine",…},{"op":"status"}]}
//! ```
//!
//! The response is `{"ok":true,"op":"batch","results":[…]}` with one
//! element per request **in request order**, each element being exactly
//! the envelope the request would have received on its own line. Elements
//! are decoded, cache-looked-up, and single-flighted independently, so a
//! malformed or failing element yields an `{"ok":false,…}` element without
//! poisoning its siblings, and a mixed hit/miss batch serves the hits
//! immediately while the misses solve. Batches do not nest, `shutdown` is
//! not allowed inside one (its connection-and-server-wide effect has no
//! per-element meaning), and at most [`MAX_BATCH_REQUESTS`] elements are
//! accepted per envelope.
//!
//! Numbers are integers only; exact rationals (σ values, thresholds) travel
//! as canonical strings like `"3/4"`. Requests normalise before keying the
//! cache — `"0.5"` and `"1/2"`, or a rule spelled `COV`, all map to the same
//! entry.

use std::fmt;
use std::time::Duration;

use strudel_core::engine::{
    GreedyConfig, GreedyEngine, HybridEngine, IlpEngine, IlpEngineConfig, RefinementEngine,
};
use strudel_core::sigma::{parse_spec, SigmaSpec};
use strudel_core::wire::{
    read_varint, write_varint, WireEnvelope, WireHighestTheta, WireLowestK, WireOutcome,
    WireRefinement, WireSort,
};

pub use strudel_core::wire::{
    encode_frame_header, encode_frame_into, try_decode_frame, validate_tenant, FrameKind,
    FrameView, NotLeader, OverQuota, ReplRecord, ShardRing, ShardSpec, ShardStamp, Source,
    WrongShard, DEFAULT_TENANT, FRAME_MAGIC, FRAME_VERSION,
};
use strudel_rdf::signature::SignatureView;
use strudel_rules::prelude::Ratio;

use crate::json::{self, Json};

/// The two wire framings a connection can speak.
///
/// Every connection starts in [`Framing::Json`] — one JSON object per
/// line, the debug and interop surface. A client may negotiate
/// [`Framing::Bin1`] with `{"op":"hello","framing":"bin1"}`: from the
/// byte after the hello line onward, both directions carry length-prefixed
/// `bin1` frames (see `strudel_core::wire::try_decode_frame` for the
/// layout). Request frames carry a compact binary payload decoded in a
/// single zero-copy pass; response frames carry the *canonical JSON
/// response line* as their payload, so a response is byte-identical across
/// framings — the byte-identity guarantee of the cache does not fork per
/// framing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Framing {
    /// Line-delimited JSON (the default).
    Json,
    /// Length-prefixed binary frames, negotiated via `hello`.
    Bin1,
}

impl Framing {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            Framing::Json => "json",
            Framing::Bin1 => "bin1",
        }
    }

    /// Parses a wire name.
    pub fn parse(text: &str) -> Result<Self, ProtocolError> {
        match text {
            "json" => Ok(Framing::Json),
            "bin1" => Ok(Framing::Bin1),
            other => Err(ProtocolError::new(format!(
                "unknown framing '{other}'; expected json or bin1"
            ))),
        }
    }
}

impl fmt::Display for Framing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The three operations that run a solver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveOp {
    /// Decide one `(view, σ, k, θ)` instance.
    Refine,
    /// Highest θ with at most `k` sorts.
    HighestTheta,
    /// Lowest `k` meeting θ.
    LowestK,
}

impl SolveOp {
    /// The wire name of the operation.
    pub fn name(self) -> &'static str {
        match self {
            SolveOp::Refine => "refine",
            SolveOp::HighestTheta => "highest-theta",
            SolveOp::LowestK => "lowest-k",
        }
    }
}

/// Which engine family solves the instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// Greedy first, ILP to confirm infeasibility (the default).
    Hybrid,
    /// The paper's ILP encoding and branch & bound, exact.
    Ilp,
    /// The greedy baseline only; cannot prove infeasibility.
    Greedy,
}

impl EngineKind {
    /// The wire name of the engine.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Hybrid => "hybrid",
            EngineKind::Ilp => "ilp",
            EngineKind::Greedy => "greedy",
        }
    }

    /// Parses a wire name.
    pub fn parse(text: &str) -> Result<Self, ProtocolError> {
        match text.to_ascii_lowercase().as_str() {
            "hybrid" => Ok(EngineKind::Hybrid),
            "ilp" => Ok(EngineKind::Ilp),
            "greedy" => Ok(EngineKind::Greedy),
            other => Err(ProtocolError::new(format!(
                "unknown engine '{other}'; expected hybrid, ilp, or greedy"
            ))),
        }
    }

    /// Builds a fresh engine instance. Engines are cheap stateless structs;
    /// the server constructs one per job inside the worker thread. The time
    /// limit reaches *every* family: the ILP engine's branch & bound budget,
    /// the greedy engine's construction/improvement deadline, and the hybrid
    /// engine's shared two-phase budget (it used to stop at the ILP config,
    /// so `serve --time-limit` silently ignored greedy-side work).
    pub fn build(self, time_limit: Option<Duration>) -> Box<dyn RefinementEngine> {
        let ilp_config = IlpEngineConfig { time_limit };
        match self {
            EngineKind::Hybrid => {
                let hybrid = HybridEngine::with_engines(
                    GreedyEngine::new(),
                    IlpEngine::with_config(ilp_config),
                );
                match time_limit {
                    Some(limit) => Box::new(hybrid.with_time_limit(limit)),
                    None => Box::new(hybrid),
                }
            }
            EngineKind::Ilp => Box::new(IlpEngine::with_config(ilp_config)),
            EngineKind::Greedy => {
                let config = GreedyConfig {
                    time_limit,
                    ..GreedyConfig::default()
                };
                Box::new(GreedyEngine::with_config(config))
            }
        }
    }
}

/// A fully decoded, validated solve request.
#[derive(Clone, Debug)]
pub struct SolveRequest {
    /// Which search to run.
    pub op: SolveOp,
    /// The signature view of the dataset.
    pub view: SignatureView,
    /// The structuredness function.
    pub spec: SigmaSpec,
    /// The engine family.
    pub engine: EngineKind,
    /// `k` — required for `refine` and `highest-theta`.
    pub k: Option<usize>,
    /// θ — required for `refine` and `lowest-k`.
    pub theta: Option<Ratio>,
    /// Threshold increment for `highest-theta` (defaults to 1/100).
    pub step: Option<Ratio>,
    /// Sweep bound for `lowest-k` (defaults to the signature count).
    pub max_k: Option<usize>,
    /// Per-instance engine time limit.
    pub time_limit: Option<Duration>,
    /// Shard-routing metadata a cluster router stamps on the request
    /// (`"shard"`/`"epoch"` wire fields). Not part of the cache key — it
    /// describes where the request travels, not what it asks — and ignored
    /// by unsharded servers; a sharded server validates it on dispatch.
    pub routing: Option<ShardStamp>,
    /// The tenant issuing the request (`"tenant"` wire field). `None` is
    /// the default tenant — decode normalises an explicit `"default"` to
    /// `None`, so the two spellings are one identity everywhere. Unlike
    /// the routing stamp this *is* part of the cache key: tenants are
    /// namespaces, and two tenants asking the same question own separate
    /// entries (and separate single-flights).
    pub tenant: Option<String>,
}

/// The key of a solve request in the result cache: the content hash of the
/// view plus the canonical text of every solver-relevant parameter. The
/// params string is kept verbatim, so two requests collide only when their
/// parameters are genuinely equal *and* their views share the 128-bit
/// content hash — exact except for an accidental hash collision, which the
/// 128-bit width makes negligible (see [`SignatureView::cache_key`] for the
/// trust caveat).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`SignatureView::cache_key`] of the request's view.
    pub view: u128,
    /// Canonical `op|engine|rule|k|theta|step|max_k|time_limit` text, with
    /// a `|tenant=<id>` suffix for non-default tenants (the default tenant
    /// keeps the bare form, so pre-tenancy keys — and the segments built
    /// from them — stay byte-identical).
    pub params: String,
}

impl SolveRequest {
    /// The request's cache key, built from canonical forms so spelling
    /// variants (`"0.5"` vs `"1/2"`, `COV` vs `cov`) share one entry.
    pub fn cache_key(&self) -> CacheKey {
        let fmt_ratio = |r: &Option<Ratio>| r.map(|r| r.to_string()).unwrap_or_default();
        let fmt_usize = |n: &Option<usize>| n.map(|n| n.to_string()).unwrap_or_default();
        let mut params = format!(
            "{}|{}|{}|{}|{}|{}|{}|{}",
            self.op.name(),
            self.engine.name(),
            self.spec.spec_string(),
            fmt_usize(&self.k),
            fmt_ratio(&self.theta),
            fmt_ratio(&self.step),
            fmt_usize(&self.max_k),
            self.time_limit
                .map(|d| d.as_millis().to_string())
                .unwrap_or_default(),
        );
        if let Some(tenant) = &self.tenant {
            // Tenants are namespaces: the suffix keeps their entries
            // apart. The default tenant stays suffix-free so existing
            // segments replay onto the same keys.
            params.push_str("|tenant=");
            params.push_str(tenant);
        }
        CacheKey {
            view: self.view.cache_key(),
            params,
        }
    }

    /// Encodes the request as its wire object.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("op".to_owned(), Json::str(self.op.name())),
            ("view".to_owned(), view_to_json(&self.view)),
            ("rule".to_owned(), Json::str(self.spec.spec_string())),
            ("engine".to_owned(), Json::str(self.engine.name())),
        ];
        if let Some(k) = self.k {
            members.push(("k".to_owned(), Json::Int(k as i64)));
        }
        if let Some(theta) = self.theta {
            members.push(("theta".to_owned(), Json::str(theta.to_string())));
        }
        if let Some(step) = self.step {
            members.push(("step".to_owned(), Json::str(step.to_string())));
        }
        if let Some(max_k) = self.max_k {
            members.push(("max_k".to_owned(), Json::Int(max_k as i64)));
        }
        if let Some(limit) = self.time_limit {
            members.push((
                "time_limit_ms".to_owned(),
                Json::Int(limit.as_millis() as i64),
            ));
        }
        if let Some(stamp) = self.routing {
            members.push(("shard".to_owned(), Json::Int(i64::from(stamp.shard))));
            members.push(("epoch".to_owned(), Json::Int(stamp.epoch as i64)));
        }
        if let Some(tenant) = &self.tenant {
            members.push(("tenant".to_owned(), Json::str(tenant.clone())));
        }
        Json::Obj(members)
    }
}

/// Any decoded request.
#[derive(Clone, Debug)]
pub enum Request {
    /// One of the three solver operations (boxed: a solve request carries a
    /// whole signature view, the control variants carry nothing).
    Solve(Box<SolveRequest>),
    /// Counter snapshot.
    Status,
    /// Stop the server.
    Shutdown,
    /// A follower's replication handshake: turn this connection into a
    /// record feed (snapshot first, then live records). The optional shard
    /// spec must match the leader's — a follower built for a different
    /// topology would replay the wrong arc of the key space.
    ReplSubscribe {
        /// The follower's shard identity, if it runs sharded.
        shard: Option<ShardSpec>,
    },
    /// Promote this server (a follower) to leader: bump the replication
    /// epoch and start accepting writes.
    Promote,
    /// Dump the flight recorder: the most recent traced request spans,
    /// optionally restricted to slow-log promotions and/or one tenant.
    Trace {
        /// Only spans promoted by the slow-request log.
        slow_only: bool,
        /// Only spans of this tenant.
        tenant: Option<String>,
    },
    /// Negotiate the connection's wire framing. Asking for the framing the
    /// connection already speaks is a no-op; switching a `bin1` connection
    /// back to `json` is refused (frame boundaries and line boundaries
    /// cannot be re-synchronized mid-stream).
    Hello {
        /// The framing the client wants to switch to.
        framing: Framing,
    },
}

/// A malformed or invalid request.
#[derive(Debug, Clone)]
pub struct ProtocolError {
    /// Human-readable description, sent back verbatim in the error response.
    pub message: String,
}

impl ProtocolError {
    /// Creates an error.
    pub fn new(message: impl Into<String>) -> Self {
        ProtocolError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ProtocolError {}

impl From<json::JsonError> for ProtocolError {
    fn from(err: json::JsonError) -> Self {
        ProtocolError::new(format!("invalid JSON: {err}"))
    }
}

/// Upper bound on elements per batch envelope: enough to amortize framing
/// thousands of times over, small enough that one hostile line cannot queue
/// unbounded work.
pub const MAX_BATCH_REQUESTS: usize = 1024;

/// A decoded request line: either one request or a batch of independently
/// decoded elements (a bad element is an `Err` in place, never a reason to
/// reject its siblings).
#[derive(Debug)]
pub enum Decoded {
    /// The line carried a single request (or failed outright).
    Single(Result<Request, ProtocolError>),
    /// The line was a batch envelope; one result per element, in order.
    Batch(Vec<Result<Request, ProtocolError>>),
}

/// Decodes one request line, recognising the batch envelope. Malformed
/// JSON, a bad batch container, or an oversized batch yield
/// `Single(Err(…))` — one error response for the whole line.
///
/// This is a single pass: the text is parsed once and the `op` of every
/// object is extracted once, routing both the envelope decision (batch or
/// not) and the parameter decode. The binary framing's [`decode_payload`]
/// lowers into the same request layer.
pub fn decode_line(line: &str) -> Decoded {
    let value = match json::parse(line) {
        Ok(value) => value,
        Err(err) => return Decoded::Single(Err(err.into())),
    };
    decode_value(&value)
}

/// Decodes one parsed request object, recognising the batch envelope.
pub fn decode_value(value: &Json) -> Decoded {
    let op = match request_op(value) {
        Ok(op) => op,
        Err(err) => return Decoded::Single(Err(err)),
    };
    if op != "batch" {
        return Decoded::Single(decode_request_with_op(op, value));
    }
    let Some(requests) = value.get("requests").and_then(Json::as_arr) else {
        return Decoded::Single(Err(ProtocolError::new(
            "a batch request needs a 'requests' array",
        )));
    };
    if requests.len() > MAX_BATCH_REQUESTS {
        return Decoded::Single(Err(ProtocolError::new(format!(
            "batch of {} requests exceeds the limit of {MAX_BATCH_REQUESTS}",
            requests.len()
        ))));
    }
    Decoded::Batch(requests.iter().map(decode_batch_element).collect())
}

/// Extracts the `op` of a request object — done exactly once per object.
fn request_op(value: &Json) -> Result<&str, ProtocolError> {
    value
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtocolError::new("request needs a string 'op' field"))
}

/// The ops refused inside a batch envelope, with the refusal message. All
/// of them rebind connection- or server-wide state, which has no
/// per-element meaning inside an envelope.
fn refuse_in_batch(op: &str) -> Option<ProtocolError> {
    match op {
        "batch" => Some(ProtocolError::new("batch envelopes cannot nest")),
        "shutdown" | "repl_subscribe" | "promote" | "hello" => Some(ProtocolError::new(format!(
            "'{op}' is not allowed inside a batch; send it on its own line"
        ))),
        _ => None,
    }
}

fn decode_batch_element(value: &Json) -> Result<Request, ProtocolError> {
    let op = request_op(value)?;
    if let Some(err) = refuse_in_batch(op) {
        return Err(err);
    }
    decode_request_with_op(op, value)
}

/// Decodes one request line (no batch envelope).
pub fn decode_request(line: &str) -> Result<Request, ProtocolError> {
    decode_request_value(&json::parse(line)?)
}

/// Decodes one parsed request object.
pub fn decode_request_value(value: &Json) -> Result<Request, ProtocolError> {
    decode_request_with_op(request_op(value)?, value)
}

/// Decodes one parsed request object whose `op` was already extracted.
fn decode_request_with_op(op: &str, value: &Json) -> Result<Request, ProtocolError> {
    match op {
        "status" => Ok(Request::Status),
        "shutdown" => Ok(Request::Shutdown),
        "promote" => Ok(Request::Promote),
        "trace" => {
            let slow_only = match value.get("slow") {
                None | Some(Json::Null) => false,
                Some(Json::Bool(flag)) => *flag,
                Some(_) => return Err(ProtocolError::new("'slow' in trace must be a boolean")),
            };
            let tenant = match value.get("tenant") {
                None | Some(Json::Null) => None,
                Some(Json::Str(name)) => Some(name.clone()),
                Some(_) => return Err(ProtocolError::new("'tenant' in trace must be a string")),
            };
            Ok(Request::Trace { slow_only, tenant })
        }
        "hello" => {
            let framing = match value.get("framing") {
                None | Some(Json::Null) => Framing::Json,
                Some(Json::Str(name)) => Framing::parse(name)?,
                Some(_) => return Err(ProtocolError::new("'framing' must be a string")),
            };
            Ok(Request::Hello { framing })
        }
        "repl_subscribe" => {
            let shard = match value.get("shard") {
                None | Some(Json::Null) => None,
                Some(Json::Str(text)) => Some(ShardSpec::parse(text).map_err(|err| {
                    ProtocolError::new(format!("invalid 'shard' in repl_subscribe: {err}"))
                })?),
                Some(_) => {
                    return Err(ProtocolError::new(
                        "'shard' in repl_subscribe must be an \"i/n\" string",
                    ))
                }
            };
            Ok(Request::ReplSubscribe { shard })
        }
        "refine" => decode_solve(value, SolveOp::Refine),
        "highest-theta" => decode_solve(value, SolveOp::HighestTheta),
        "lowest-k" => decode_solve(value, SolveOp::LowestK),
        other => Err(ProtocolError::new(format!(
            "unknown op '{other}'; expected refine, highest-theta, lowest-k, batch, \
             status, trace, shutdown, promote, repl_subscribe, or hello"
        ))),
    }
}

/// Encodes a batch request line from request objects (the client side of
/// the batch envelope).
pub fn encode_batch_request(requests: &[Json]) -> String {
    let mut out = String::from("{\"op\":\"batch\",\"requests\":[");
    for (idx, request) in requests.iter().enumerate() {
        if idx > 0 {
            out.push(',');
        }
        request.write_into(&mut out);
    }
    out.push_str("]}");
    out
}

fn decode_solve(value: &Json, op: SolveOp) -> Result<Request, ProtocolError> {
    let view = view_from_json(
        value
            .get("view")
            .ok_or_else(|| ProtocolError::new("solve request needs a 'view' field"))?,
    )?;
    let spec = match value.get("rule") {
        None => SigmaSpec::Coverage,
        Some(rule) => {
            let text = rule
                .as_str()
                .ok_or_else(|| ProtocolError::new("'rule' must be a string"))?;
            parse_spec(text).map_err(|err| ProtocolError::new(err.to_string()))?
        }
    };
    let engine = match value.get("engine") {
        None => EngineKind::Hybrid,
        Some(engine) => EngineKind::parse(
            engine
                .as_str()
                .ok_or_else(|| ProtocolError::new("'engine' must be a string"))?,
        )?,
    };
    let k = get_usize(value, "k")?;
    let theta = get_ratio(value, "theta")?;
    let step = get_ratio(value, "step")?;
    require_positive_step(step)?;
    let max_k = get_usize(value, "max_k")?;
    let time_limit = get_usize(value, "time_limit_ms")?.map(|ms| Duration::from_millis(ms as u64));
    // The routing stamp travels as a pair: a shard without an epoch (or
    // vice versa) is a malformed router, not a tolerable omission. The
    // epoch is a u64 fingerprint carried through the integer-only JSON as
    // its two's-complement i64.
    let routing = match (get_usize(value, "shard")?, value.get("epoch")) {
        (None, None) => None,
        (Some(shard), Some(Json::Int(epoch))) => Some(ShardStamp {
            shard: u32::try_from(shard)
                .map_err(|_| ProtocolError::new("'shard' is out of range"))?,
            epoch: *epoch as u64,
        }),
        (_, Some(other)) if !matches!(other, Json::Int(_)) => {
            return Err(ProtocolError::new("'epoch' must be an integer"))
        }
        _ => {
            return Err(ProtocolError::new(
                "'shard' and 'epoch' must be given together (a routing stamp)",
            ))
        }
    };

    // The tenant identity. A missing field and an explicit "default" are
    // the same tenant, normalised to `None` so every later comparison
    // (cache key, registry lookup, segment encoding) sees one spelling.
    let tenant = match value.get("tenant") {
        None | Some(Json::Null) => None,
        Some(Json::Str(id)) => {
            validate_tenant(id).map_err(|err| ProtocolError::new(format!("'tenant': {err}")))?;
            if id == DEFAULT_TENANT {
                None
            } else {
                Some(id.clone())
            }
        }
        Some(_) => return Err(ProtocolError::new("'tenant' must be a string")),
    };

    require_solve_params(op, k, theta)?;

    Ok(Request::Solve(Box::new(SolveRequest {
        op,
        view,
        spec,
        engine,
        k,
        theta,
        step,
        max_k,
        time_limit,
        routing,
        tenant,
    })))
}

/// A non-positive step would keep the highest-theta sweep at the same
/// threshold forever, and a tiny one records a probe per step from σ(D)
/// up to 1, which grows a worker's memory without bound. A step of at
/// least 1/10000 allows at most 10 001 probes (the paper's grid is 1/100).
/// Refuse either before a worker is committed. Shared by both framings'
/// decoders.
fn require_positive_step(step: Option<Ratio>) -> Result<(), ProtocolError> {
    if let Some(step) = step {
        if step <= Ratio::ZERO {
            return Err(ProtocolError::new(
                "'step' must be strictly positive (e.g. \"1/100\")",
            ));
        }
        // step < 1/10000, cross-multiplied without overflow: a numerator
        // past i128::MAX / 10000 is a step of at least 1/10000.
        if step
            .numer()
            .checked_mul(10_000)
            .is_some_and(|n| n < step.denom())
        {
            return Err(ProtocolError::new("'step' must be at least 1/10000"));
        }
    }
    Ok(())
}

/// Op-specific required parameters, shared by both framings' decoders.
fn require_solve_params(
    op: SolveOp,
    k: Option<usize>,
    theta: Option<Ratio>,
) -> Result<(), ProtocolError> {
    match op {
        SolveOp::Refine => {
            if k.is_none() || theta.is_none() {
                return Err(ProtocolError::new("'refine' needs both 'k' and 'theta'"));
            }
        }
        SolveOp::HighestTheta => {
            if k.is_none() {
                return Err(ProtocolError::new("'highest-theta' needs 'k'"));
            }
        }
        SolveOp::LowestK => {
            if theta.is_none() {
                return Err(ProtocolError::new("'lowest-k' needs 'theta'"));
            }
        }
    }
    Ok(())
}

fn get_usize(value: &Json, field: &str) -> Result<Option<usize>, ProtocolError> {
    match value.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Int(n)) if *n >= 0 => Ok(Some(*n as usize)),
        Some(_) => Err(ProtocolError::new(format!(
            "'{field}' must be a non-negative integer"
        ))),
    }
}

fn get_ratio(value: &Json, field: &str) -> Result<Option<Ratio>, ProtocolError> {
    match value.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(text)) => Ratio::parse(text)
            .map(Some)
            .map_err(|err| ProtocolError::new(format!("invalid '{field}': {err}"))),
        Some(Json::Int(n)) => Ok(Some(Ratio::from_integer(i128::from(*n)))),
        Some(_) => Err(ProtocolError::new(format!(
            "'{field}' must be a ratio string like \"1/2\" (or an integer)"
        ))),
    }
}

// ---------------------------------------------------------------------
// The `bin1` request payload codec.
//
// A request frame's payload starts with a kind byte:
//
// | byte | payload after it                                         |
// |------|----------------------------------------------------------|
// | 1–3  | a solve body (`refine`, `highest-theta`, `lowest-k`)     |
// | 4–6  | nothing (`status`, `shutdown`, `promote`)                |
// | 7    | a batch: varint count, then per element varint length +  |
// |      | a nested request payload (same kind bytes, minus the     |
// |      | ops refused inside batches)                              |
// | 8    | a canonical JSON request object, verbatim — the escape   |
// |      | hatch that keeps the binary framing fully general        |
//
// A solve body is `engine byte · flags byte · view · spec · optionals in
// flag order`. Strings are varint-length-prefixed UTF-8; integers are
// varints; ratios travel as their canonical text (exactness is the
// protocol's contract, and the text is already the canonical form the
// cache key is built from). The decoder is a single forward pass over the
// payload slice, borrowing every string until it materialises the
// `SolveRequest` — no intermediate `Json` tree, no per-element `String`.
// ---------------------------------------------------------------------

/// Kind byte of a binary `refine` request payload.
const BIN_REFINE: u8 = 1;
/// Kind byte of a binary `highest-theta` request payload.
const BIN_HIGHEST_THETA: u8 = 2;
/// Kind byte of a binary `lowest-k` request payload.
const BIN_LOWEST_K: u8 = 3;
/// Kind byte of a binary `status` request payload.
const BIN_STATUS: u8 = 4;
/// Kind byte of a binary `shutdown` request payload.
const BIN_SHUTDOWN: u8 = 5;
/// Kind byte of a binary `promote` request payload.
const BIN_PROMOTE: u8 = 6;
/// Kind byte of a binary batch payload.
const BIN_BATCH: u8 = 7;
/// Kind byte of an embedded-JSON request payload.
const BIN_JSON: u8 = 8;

/// Flag bits marking which optional fields a binary solve body carries.
const SF_K: u8 = 1;
const SF_THETA: u8 = 2;
const SF_STEP: u8 = 4;
const SF_MAX_K: u8 = 8;
const SF_TIME_LIMIT: u8 = 16;
const SF_ROUTING: u8 = 32;
const SF_TENANT: u8 = 64;
const SF_ALL: u8 = SF_K | SF_THETA | SF_STEP | SF_MAX_K | SF_TIME_LIMIT | SF_ROUTING | SF_TENANT;

fn engine_byte(engine: EngineKind) -> u8 {
    match engine {
        EngineKind::Hybrid => 1,
        EngineKind::Ilp => 2,
        EngineKind::Greedy => 3,
    }
}

fn engine_from_byte(byte: u8) -> Result<EngineKind, ProtocolError> {
    match byte {
        1 => Ok(EngineKind::Hybrid),
        2 => Ok(EngineKind::Ilp),
        3 => Ok(EngineKind::Greedy),
        other => Err(ProtocolError::new(format!(
            "unknown engine byte {other}; expected 1 (hybrid), 2 (ilp), or 3 (greedy)"
        ))),
    }
}

/// Appends a varint-length-prefixed UTF-8 string.
fn put_str(out: &mut Vec<u8>, text: &str) {
    write_varint(out, text.len() as u64);
    out.extend_from_slice(text.as_bytes());
}

/// A forward-only cursor over a frame payload. Every read is
/// bounds-checked against the slice; claimed lengths are additionally
/// bounded by the bytes actually remaining, so a hostile length prefix can
/// never drive allocation past the frame it arrived in.
struct BinCursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> BinCursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        BinCursor { buf, at: 0 }
    }

    fn varint(&mut self) -> Result<u64, ProtocolError> {
        match read_varint(&self.buf[self.at..]) {
            Ok(Some((value, used))) => {
                self.at += used;
                Ok(value)
            }
            Ok(None) => Err(ProtocolError::new("truncated binary payload")),
            Err(message) => Err(ProtocolError::new(message)),
        }
    }

    fn usize_value(&mut self) -> Result<usize, ProtocolError> {
        usize::try_from(self.varint()?)
            .map_err(|_| ProtocolError::new("binary integer is out of range"))
    }

    /// A varint announcing upcoming items or bytes, each at least one byte
    /// wide — so any claim beyond the remaining payload is malformed.
    fn bounded_len(&mut self) -> Result<usize, ProtocolError> {
        let value = self.varint()?;
        if value > (self.buf.len() - self.at) as u64 {
            return Err(ProtocolError::new(
                "binary length prefix overruns the payload",
            ));
        }
        Ok(value as usize)
    }

    fn byte(&mut self) -> Result<u8, ProtocolError> {
        let byte = *self
            .buf
            .get(self.at)
            .ok_or_else(|| ProtocolError::new("truncated binary payload"))?;
        self.at += 1;
        Ok(byte)
    }

    fn bytes(&mut self, len: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self
            .at
            .checked_add(len)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| ProtocolError::new("truncated binary payload"))?;
        let slice = &self.buf[self.at..end];
        self.at = end;
        Ok(slice)
    }

    /// A varint-length-prefixed UTF-8 string, borrowed from the payload.
    fn str_slice(&mut self) -> Result<&'a str, ProtocolError> {
        let len = self.bounded_len()?;
        std::str::from_utf8(self.bytes(len)?)
            .map_err(|_| ProtocolError::new("binary string is not valid UTF-8"))
    }

    fn done(&self) -> bool {
        self.at == self.buf.len()
    }
}

/// Encodes a solve request as its binary payload (kind byte included).
pub fn encode_solve_bin(solve: &SolveRequest) -> Vec<u8> {
    let mut out = Vec::with_capacity(96);
    out.push(match solve.op {
        SolveOp::Refine => BIN_REFINE,
        SolveOp::HighestTheta => BIN_HIGHEST_THETA,
        SolveOp::LowestK => BIN_LOWEST_K,
    });
    out.push(engine_byte(solve.engine));
    let mut flags = 0u8;
    let set = |present: bool, bit: u8| if present { bit } else { 0 };
    flags |= set(solve.k.is_some(), SF_K);
    flags |= set(solve.theta.is_some(), SF_THETA);
    flags |= set(solve.step.is_some(), SF_STEP);
    flags |= set(solve.max_k.is_some(), SF_MAX_K);
    flags |= set(solve.time_limit.is_some(), SF_TIME_LIMIT);
    flags |= set(solve.routing.is_some(), SF_ROUTING);
    flags |= set(solve.tenant.is_some(), SF_TENANT);
    out.push(flags);
    let properties = solve.view.properties();
    write_varint(&mut out, properties.len() as u64);
    for property in properties {
        put_str(&mut out, property);
    }
    let entries = solve.view.entries();
    write_varint(&mut out, entries.len() as u64);
    for entry in entries {
        let support = entry.support();
        write_varint(&mut out, support.len() as u64);
        for index in support {
            write_varint(&mut out, index as u64);
        }
        write_varint(&mut out, entry.count as u64);
    }
    put_str(&mut out, &solve.spec.spec_string());
    if let Some(k) = solve.k {
        write_varint(&mut out, k as u64);
    }
    if let Some(theta) = solve.theta {
        put_str(&mut out, &theta.to_string());
    }
    if let Some(step) = solve.step {
        put_str(&mut out, &step.to_string());
    }
    if let Some(max_k) = solve.max_k {
        write_varint(&mut out, max_k as u64);
    }
    if let Some(limit) = solve.time_limit {
        write_varint(&mut out, limit.as_millis() as u64);
    }
    if let Some(stamp) = solve.routing {
        write_varint(&mut out, u64::from(stamp.shard));
        write_varint(&mut out, stamp.epoch);
    }
    if let Some(tenant) = &solve.tenant {
        put_str(&mut out, tenant);
    }
    out
}

/// Encodes any decoded request as its binary payload. Requests with no
/// compact form (`repl_subscribe`, `hello`) ride the embedded-JSON escape
/// hatch.
pub fn encode_request_bin(request: &Request) -> Vec<u8> {
    match request {
        Request::Solve(solve) => encode_solve_bin(solve),
        Request::Status => vec![BIN_STATUS],
        Request::Shutdown => vec![BIN_SHUTDOWN],
        Request::Promote => vec![BIN_PROMOTE],
        Request::ReplSubscribe { shard } => {
            encode_json_payload(&encode_repl_subscribe(shard.as_ref()))
        }
        Request::Hello { framing } => encode_json_payload(&encode_hello(*framing)),
        Request::Trace { slow_only, tenant } => {
            encode_json_payload(&encode_trace(*slow_only, tenant.as_deref()))
        }
    }
}

/// Wraps a canonical JSON request object as an embedded-JSON payload.
pub fn encode_json_payload(text: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(text.len() + 1);
    out.push(BIN_JSON);
    out.extend_from_slice(text.as_bytes());
    out
}

/// Builds a binary batch payload from already-encoded element payloads.
pub fn encode_batch_bin(elements: &[Vec<u8>]) -> Vec<u8> {
    let total: usize = elements.iter().map(|el| el.len() + 10).sum();
    let mut out = Vec::with_capacity(total + 11);
    out.push(BIN_BATCH);
    write_varint(&mut out, elements.len() as u64);
    for element in elements {
        write_varint(&mut out, element.len() as u64);
        out.extend_from_slice(element);
    }
    out
}

/// Decodes a `bin1` request frame's payload, recognising the batch
/// payload — the binary mirror of [`decode_line`], lowering into the same
/// request layer and the same per-element error isolation.
pub fn decode_payload(payload: &[u8]) -> Decoded {
    match payload.first() {
        None => Decoded::Single(Err(ProtocolError::new("empty request frame"))),
        Some(&BIN_BATCH) => {
            let mut cur = BinCursor::new(&payload[1..]);
            let count = match cur.usize_value() {
                Ok(count) => count,
                Err(err) => return Decoded::Single(Err(err)),
            };
            if count > MAX_BATCH_REQUESTS {
                return Decoded::Single(Err(ProtocolError::new(format!(
                    "batch of {count} requests exceeds the limit of {MAX_BATCH_REQUESTS}"
                ))));
            }
            let mut elements = Vec::with_capacity(count);
            for _ in 0..count {
                match cur.bounded_len().and_then(|len| cur.bytes(len)) {
                    Ok(element) => elements.push(decode_request_bin(element, true)),
                    Err(err) => return Decoded::Single(Err(err)),
                }
            }
            if !cur.done() {
                return Decoded::Single(Err(ProtocolError::new(
                    "trailing bytes after the batch payload",
                )));
            }
            Decoded::Batch(elements)
        }
        // The embedded-JSON escape hatch keeps full decode_line semantics,
        // batch envelopes included.
        Some(&BIN_JSON) => match std::str::from_utf8(&payload[1..]) {
            Ok(text) => decode_line(text),
            Err(_) => Decoded::Single(Err(ProtocolError::new(
                "embedded JSON payload is not valid UTF-8",
            ))),
        },
        Some(_) => Decoded::Single(decode_request_bin(payload, false)),
    }
}

/// Decodes one binary request payload (a whole frame's, or one batch
/// element's — `in_batch` applies the same op refusals as JSON batches).
fn decode_request_bin(payload: &[u8], in_batch: bool) -> Result<Request, ProtocolError> {
    let Some((&kind, body)) = payload.split_first() else {
        return Err(ProtocolError::new("empty request payload"));
    };
    let expect_empty = |body: &[u8], op: &str| {
        if body.is_empty() {
            Ok(())
        } else {
            Err(ProtocolError::new(format!(
                "trailing bytes after the '{op}' payload"
            )))
        }
    };
    let refused = |op: &str| refuse_in_batch(op).expect("op is refused in batches");
    match kind {
        BIN_REFINE => decode_solve_bin(SolveOp::Refine, body),
        BIN_HIGHEST_THETA => decode_solve_bin(SolveOp::HighestTheta, body),
        BIN_LOWEST_K => decode_solve_bin(SolveOp::LowestK, body),
        BIN_STATUS => {
            expect_empty(body, "status")?;
            Ok(Request::Status)
        }
        BIN_SHUTDOWN => {
            if in_batch {
                return Err(refused("shutdown"));
            }
            expect_empty(body, "shutdown")?;
            Ok(Request::Shutdown)
        }
        BIN_PROMOTE => {
            if in_batch {
                return Err(refused("promote"));
            }
            expect_empty(body, "promote")?;
            Ok(Request::Promote)
        }
        BIN_BATCH => Err(refused("batch")),
        BIN_JSON => {
            let text = std::str::from_utf8(body)
                .map_err(|_| ProtocolError::new("embedded JSON payload is not valid UTF-8"))?;
            let value = json::parse(text)?;
            let op = request_op(&value)?;
            if in_batch {
                if let Some(err) = refuse_in_batch(op) {
                    return Err(err);
                }
            }
            decode_request_with_op(op, &value)
        }
        other => Err(ProtocolError::new(format!(
            "unknown binary request kind {other}"
        ))),
    }
}

/// Decodes a binary solve body in one forward pass, borrowing every
/// string from the payload until the final materialisation.
fn decode_solve_bin(op: SolveOp, body: &[u8]) -> Result<Request, ProtocolError> {
    let mut cur = BinCursor::new(body);
    let engine = engine_from_byte(cur.byte()?)?;
    let flags = cur.byte()?;
    if flags & !SF_ALL != 0 {
        return Err(ProtocolError::new(format!(
            "unknown solve flag bits 0x{:02X}",
            flags & !SF_ALL
        )));
    }
    let nprops = cur.bounded_len()?;
    let mut properties = Vec::with_capacity(nprops);
    for _ in 0..nprops {
        properties.push(cur.str_slice()?.to_owned());
    }
    let nsigs = cur.bounded_len()?;
    let mut signatures = Vec::with_capacity(nsigs);
    for _ in 0..nsigs {
        let nidx = cur.bounded_len()?;
        let mut indexes = Vec::with_capacity(nidx);
        for _ in 0..nidx {
            indexes.push(cur.usize_value()?);
        }
        let count = cur.usize_value()?;
        signatures.push((indexes, count));
    }
    let view = SignatureView::from_counts(properties, signatures)
        .map_err(|err| ProtocolError::new(format!("invalid view: {err}")))?;
    let spec = parse_spec(cur.str_slice()?).map_err(|err| ProtocolError::new(err.to_string()))?;
    let ratio_field = |text: &str, field: &str| {
        Ratio::parse(text).map_err(|err| ProtocolError::new(format!("invalid '{field}': {err}")))
    };
    let k = if flags & SF_K != 0 {
        Some(cur.usize_value()?)
    } else {
        None
    };
    let theta = if flags & SF_THETA != 0 {
        Some(ratio_field(cur.str_slice()?, "theta")?)
    } else {
        None
    };
    let step = if flags & SF_STEP != 0 {
        Some(ratio_field(cur.str_slice()?, "step")?)
    } else {
        None
    };
    require_positive_step(step)?;
    let max_k = if flags & SF_MAX_K != 0 {
        Some(cur.usize_value()?)
    } else {
        None
    };
    let time_limit = if flags & SF_TIME_LIMIT != 0 {
        Some(Duration::from_millis(cur.varint()?))
    } else {
        None
    };
    let routing = if flags & SF_ROUTING != 0 {
        Some(ShardStamp {
            shard: u32::try_from(cur.varint()?)
                .map_err(|_| ProtocolError::new("'shard' is out of range"))?,
            epoch: cur.varint()?,
        })
    } else {
        None
    };
    let tenant = if flags & SF_TENANT != 0 {
        let id = cur.str_slice()?;
        validate_tenant(id).map_err(|err| ProtocolError::new(format!("'tenant': {err}")))?;
        if id == DEFAULT_TENANT {
            None
        } else {
            Some(id.to_owned())
        }
    } else {
        None
    };
    if !cur.done() {
        return Err(ProtocolError::new("trailing bytes after the solve payload"));
    }
    require_solve_params(op, k, theta)?;
    Ok(Request::Solve(Box::new(SolveRequest {
        op,
        view,
        spec,
        engine,
        k,
        theta,
        step,
        max_k,
        time_limit,
        routing,
        tenant,
    })))
}

/// Encodes the `hello` negotiation request line.
pub fn encode_hello(framing: Framing) -> String {
    format!("{{\"op\":\"hello\",\"framing\":\"{}\"}}", framing.name())
}

/// Encodes the server's `hello` acknowledgement. It travels in the *newly
/// negotiated* framing (as a frame payload when switching to `bin1`), so a
/// client can classify the reply by its first byte: `0xB5` means the
/// switch happened, `{` means a JSON answer — either the acknowledgement
/// of `"framing":"json"` or an old server's unknown-op error.
pub fn encode_hello_ok(framing: Framing) -> String {
    format!(
        "{{\"ok\":true,\"op\":\"hello\",\"framing\":\"{}\"}}",
        framing.name()
    )
}

/// Encodes a signature view as its wire object.
pub fn view_to_json(view: &SignatureView) -> Json {
    Json::obj(vec![
        (
            "properties",
            Json::Arr(
                view.properties()
                    .iter()
                    .map(|p| Json::str(p.clone()))
                    .collect(),
            ),
        ),
        (
            "signatures",
            Json::Arr(
                view.entries()
                    .iter()
                    .map(|entry| {
                        Json::Arr(vec![
                            Json::Arr(
                                entry
                                    .support()
                                    .into_iter()
                                    .map(|col| Json::Int(col as i64))
                                    .collect(),
                            ),
                            Json::Int(entry.count as i64),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Decodes a signature view from its wire object, validating dimensions.
pub fn view_from_json(value: &Json) -> Result<SignatureView, ProtocolError> {
    let properties: Vec<String> = value
        .get("properties")
        .and_then(Json::as_arr)
        .ok_or_else(|| ProtocolError::new("'view.properties' must be an array of strings"))?
        .iter()
        .map(|p| {
            p.as_str()
                .map(str::to_owned)
                .ok_or_else(|| ProtocolError::new("'view.properties' must be an array of strings"))
        })
        .collect::<Result<_, _>>()?;
    let signatures_json = value
        .get("signatures")
        .and_then(Json::as_arr)
        .ok_or_else(|| {
            ProtocolError::new("'view.signatures' must be an array of [[indexes],count] pairs")
        })?;
    let mut signatures = Vec::with_capacity(signatures_json.len());
    for pair in signatures_json {
        let invalid =
            || ProtocolError::new("'view.signatures' entries must be [[indexes],count] pairs");
        let items = pair.as_arr().ok_or_else(invalid)?;
        if items.len() != 2 {
            return Err(invalid());
        }
        let indexes: Vec<usize> = items[0]
            .as_arr()
            .ok_or_else(invalid)?
            .iter()
            .map(|idx| match idx {
                Json::Int(n) if *n >= 0 => Ok(*n as usize),
                _ => Err(invalid()),
            })
            .collect::<Result<_, _>>()?;
        let count = match items[1] {
            Json::Int(n) if n >= 0 => n as usize,
            _ => return Err(invalid()),
        };
        signatures.push((indexes, count));
    }
    SignatureView::from_counts(properties, signatures)
        .map_err(|err| ProtocolError::new(format!("invalid view: {err}")))
}

/// Encodes a wire refinement as its JSON object.
pub fn refinement_to_json(refinement: &WireRefinement) -> Json {
    Json::obj(vec![
        ("spec", Json::str(refinement.spec.clone())),
        ("threshold", Json::str(refinement.threshold.clone())),
        (
            "sorts",
            Json::Arr(
                refinement
                    .sorts
                    .iter()
                    .map(|sort| {
                        Json::obj(vec![
                            (
                                "signatures",
                                Json::Arr(
                                    sort.signatures
                                        .iter()
                                        .map(|&sig| Json::Int(sig as i64))
                                        .collect(),
                                ),
                            ),
                            ("subjects", Json::Int(sort.subjects as i64)),
                            ("sigma", Json::str(sort.sigma.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Decodes a wire refinement from its JSON object.
pub fn refinement_from_json(value: &Json) -> Result<WireRefinement, ProtocolError> {
    let invalid = |what: &str| ProtocolError::new(format!("invalid refinement: {what}"));
    let spec = value
        .get("spec")
        .and_then(Json::as_str)
        .ok_or_else(|| invalid("missing 'spec'"))?
        .to_owned();
    let threshold = value
        .get("threshold")
        .and_then(Json::as_str)
        .ok_or_else(|| invalid("missing 'threshold'"))?
        .to_owned();
    let mut sorts = Vec::new();
    for sort in value
        .get("sorts")
        .and_then(Json::as_arr)
        .ok_or_else(|| invalid("missing 'sorts'"))?
    {
        let signatures = sort
            .get("signatures")
            .and_then(Json::as_arr)
            .ok_or_else(|| invalid("missing 'signatures'"))?
            .iter()
            .map(|sig| match sig {
                Json::Int(n) if *n >= 0 => Ok(*n as usize),
                _ => Err(invalid("signature indexes must be non-negative integers")),
            })
            .collect::<Result<_, _>>()?;
        let subjects = sort
            .get("subjects")
            .and_then(Json::as_int)
            .filter(|&n| n >= 0)
            .ok_or_else(|| invalid("missing 'subjects'"))? as usize;
        let sigma = sort
            .get("sigma")
            .and_then(Json::as_str)
            .ok_or_else(|| invalid("missing 'sigma'"))?
            .to_owned();
        sorts.push(WireSort {
            signatures,
            subjects,
            sigma,
        });
    }
    Ok(WireRefinement {
        spec,
        threshold,
        sorts,
    })
}

/// Encodes a `refine` answer as the response `result` object.
pub fn outcome_to_json(outcome: &WireOutcome) -> Json {
    match outcome {
        WireOutcome::Refinement(refinement) => Json::obj(vec![
            ("outcome", Json::str("refinement")),
            ("refinement", refinement_to_json(refinement)),
        ]),
        WireOutcome::Infeasible => Json::obj(vec![("outcome", Json::str("infeasible"))]),
        WireOutcome::Unknown => Json::obj(vec![("outcome", Json::str("unknown"))]),
    }
}

/// Encodes a `highest-theta` answer as the response `result` object.
pub fn highest_theta_to_json(result: &WireHighestTheta) -> Json {
    Json::obj(vec![
        ("theta", Json::str(result.theta.clone())),
        ("hit_budget", Json::Bool(result.hit_budget)),
        ("probes", Json::Int(result.probes as i64)),
        (
            "refinement",
            result
                .refinement
                .as_ref()
                .map(refinement_to_json)
                .unwrap_or(Json::Null),
        ),
    ])
}

/// Encodes a `lowest-k` answer as the response `result` object.
pub fn lowest_k_to_json(result: &WireLowestK) -> Json {
    Json::obj(vec![
        (
            "k",
            result.k.map(|k| Json::Int(k as i64)).unwrap_or(Json::Null),
        ),
        ("hit_budget", Json::Bool(result.hit_budget)),
        ("probes", Json::Int(result.probes as i64)),
        (
            "refinement",
            result
                .refinement
                .as_ref()
                .map(refinement_to_json)
                .unwrap_or(Json::Null),
        ),
    ])
}

/// The success envelope split around its `result` slot: an owned prefix
/// and the closing suffix. The server's vectored writer splices the cached
/// result text between the two without copying it; joining the parts with
/// the result in the middle is byte-identical to [`encode_success`].
pub fn encode_success_parts(op: &str, source: Source) -> (String, &'static str) {
    (
        format!(
            "{{\"ok\":true,\"op\":\"{op}\",\"source\":\"{}\",\"result\":",
            source.name()
        ),
        "}",
    )
}

/// Builds a success response line. `result_text` must be the canonical
/// serialization of the result object; it is spliced in verbatim, which is
/// what makes cache replays byte-identical to the original response body.
pub fn encode_success(op: &str, source: Source, result_text: &str) -> String {
    let (mut out, suffix) = encode_success_parts(op, source);
    out.reserve(result_text.len() + suffix.len());
    out.push_str(result_text);
    out.push_str(suffix);
    out
}

/// Builds an error response line.
pub fn encode_error(message: &str) -> String {
    let mut out = String::with_capacity(message.len() + 24);
    out.push_str("{\"ok\":false,\"error\":");
    Json::str(message).write_into(&mut out);
    out.push('}');
    out
}

/// Builds the structured `wrong_shard` error line a shard sends when it
/// receives a request it does not own (or a request stamped with a
/// different ring epoch): the plain error fields plus a machine-readable
/// `code` and the shard/owner/epoch triple a router needs to re-route.
pub fn encode_wrong_shard(message: &str, detail: &WrongShard) -> String {
    let mut out = String::with_capacity(message.len() + 96);
    out.push_str("{\"ok\":false,\"error\":");
    Json::str(message).write_into(&mut out);
    out.push_str(&format!(
        ",\"code\":\"wrong_shard\",\"shard\":{},\"owner\":{},\"epoch\":{}}}",
        detail.shard, detail.owner, detail.epoch as i64
    ));
    out
}

/// Reads the structured `wrong_shard` detail out of a parsed error
/// response, if the `code` marks one.
pub fn wrong_shard_from_json(value: &Json) -> Option<WrongShard> {
    if value.get("code").and_then(Json::as_str) != Some("wrong_shard") {
        return None;
    }
    let int = |field: &str| value.get(field).and_then(Json::as_int);
    Some(WrongShard {
        shard: u32::try_from(int("shard")?).ok()?,
        owner: u32::try_from(int("owner")?).ok()?,
        epoch: int("epoch")? as u64,
    })
}

/// Builds the structured `not_leader` error line a replication follower
/// sends when asked to do anything it cannot serve from its replicated
/// cache: the plain error fields plus a machine-readable `code` and the
/// leader's address, so clients redirect instead of guessing.
pub fn encode_not_leader(message: &str, detail: &NotLeader) -> String {
    let mut out = String::with_capacity(message.len() + detail.leader.len() + 64);
    out.push_str("{\"ok\":false,\"error\":");
    Json::str(message).write_into(&mut out);
    out.push_str(",\"code\":\"not_leader\",\"leader\":");
    Json::str(detail.leader.clone()).write_into(&mut out);
    out.push('}');
    out
}

/// Reads the structured `not_leader` detail out of a parsed error response,
/// if the `code` marks one.
pub fn not_leader_from_json(value: &Json) -> Option<NotLeader> {
    if value.get("code").and_then(Json::as_str) != Some("not_leader") {
        return None;
    }
    Some(NotLeader {
        leader: value.get("leader").and_then(Json::as_str)?.to_owned(),
    })
}

/// Builds the structured `over_quota` error line admission control sends
/// when a tenant's token bucket runs dry: the plain error fields plus a
/// machine-readable `code`, the refused tenant, and the deterministic
/// retry hint. Per-request (and per-batch-element), never connection-fatal.
pub fn encode_over_quota(message: &str, detail: &OverQuota) -> String {
    let mut out = String::with_capacity(message.len() + detail.tenant.len() + 80);
    out.push_str("{\"ok\":false,\"error\":");
    Json::str(message).write_into(&mut out);
    out.push_str(",\"code\":\"over_quota\",\"tenant\":");
    Json::str(detail.tenant.clone()).write_into(&mut out);
    out.push_str(&format!(
        ",\"retry_after_ms\":{}}}",
        detail.retry_after_ms as i64
    ));
    out
}

/// Reads the structured `over_quota` detail out of a parsed error response,
/// if the `code` marks one.
pub fn over_quota_from_json(value: &Json) -> Option<OverQuota> {
    if value.get("code").and_then(Json::as_str) != Some("over_quota") {
        return None;
    }
    Some(OverQuota {
        tenant: value.get("tenant").and_then(Json::as_str)?.to_owned(),
        retry_after_ms: value.get("retry_after_ms").and_then(Json::as_int)? as u64,
    })
}

/// Encodes a `trace` request (the client side of the flight-recorder dump).
pub fn encode_trace(slow_only: bool, tenant: Option<&str>) -> String {
    let mut members = vec![("op", Json::str("trace"))];
    if slow_only {
        members.push(("slow", Json::Bool(true)));
    }
    if let Some(tenant) = tenant {
        members.push(("tenant", Json::str(tenant)));
    }
    Json::obj(members).to_text()
}

/// Encodes the replication subscribe handshake line a follower opens its
/// feed connection with.
pub fn encode_repl_subscribe(shard: Option<&ShardSpec>) -> String {
    match shard {
        None => "{\"op\":\"repl_subscribe\"}".to_owned(),
        Some(spec) => format!("{{\"op\":\"repl_subscribe\",\"shard\":\"{spec}\"}}"),
    }
}

/// Encodes one replication stream record as its wire line.
///
/// The 128-bit view hash travels as 32 hex digits (it does not fit the
/// integer-only JSON); the epoch and sequence numbers as two's-complement
/// i64, like the routing stamp. The result text is carried as a JSON
/// *string* (escaped), and decoding restores the exact original bytes —
/// the follower's cache entry is byte-identical to the leader's.
pub fn encode_repl_record(record: &ReplRecord) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("{\"op\":\"repl_record\",\"kind\":\"");
    out.push_str(record.kind());
    out.push_str(&format!(
        "\",\"seq\":{},\"epoch\":{}",
        record.seq() as i64,
        record.epoch() as i64
    ));
    match record {
        ReplRecord::Put {
            view,
            params,
            result,
            tenant,
            ..
        } => {
            out.push_str(&format!(",\"view\":\"{view:032x}\",\"params\":"));
            Json::str(params.clone()).write_into(&mut out);
            out.push_str(",\"result\":");
            Json::str(result.clone()).write_into(&mut out);
            // The tenant travels only when it is not the default — an old
            // follower decoding a default-tenant stream sees the exact
            // pre-tenancy line bytes.
            if tenant != DEFAULT_TENANT {
                out.push_str(",\"tenant\":");
                Json::str(tenant.clone()).write_into(&mut out);
            }
        }
        ReplRecord::Evict { view, params, .. } => {
            out.push_str(&format!(",\"view\":\"{view:032x}\",\"params\":"));
            Json::str(params.clone()).write_into(&mut out);
        }
        ReplRecord::Checkpoint { live, .. } => {
            out.push_str(&format!(",\"live\":{}", *live as i64));
        }
    }
    out.push('}');
    out
}

/// Decodes one replication stream line back into its record.
pub fn repl_record_from_json(value: &Json) -> Result<ReplRecord, ProtocolError> {
    if value.get("op").and_then(Json::as_str) != Some("repl_record") {
        return Err(ProtocolError::new("not a repl_record line"));
    }
    let int = |field: &'static str| -> Result<u64, ProtocolError> {
        value
            .get(field)
            .and_then(Json::as_int)
            .map(|n| n as u64)
            .ok_or_else(|| ProtocolError::new(format!("repl_record lacks '{field}'")))
    };
    let seq = int("seq")?;
    let epoch = int("epoch")?;
    let view = || -> Result<u128, ProtocolError> {
        let text = value
            .get("view")
            .and_then(Json::as_str)
            .ok_or_else(|| ProtocolError::new("repl_record lacks 'view'"))?;
        u128::from_str_radix(text, 16)
            .map_err(|_| ProtocolError::new("repl_record 'view' is not a hex hash"))
    };
    let text = |field: &'static str| -> Result<String, ProtocolError> {
        value
            .get(field)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| ProtocolError::new(format!("repl_record lacks '{field}'")))
    };
    match value.get("kind").and_then(Json::as_str) {
        Some("put") => Ok(ReplRecord::Put {
            seq,
            epoch,
            view: view()?,
            params: text("params")?,
            result: text("result")?,
            // Absent on pre-tenancy (and default-tenant) streams; a
            // missing field is the default tenant, never a decode error —
            // the follower feed treats decode errors as a lost feed.
            tenant: value
                .get("tenant")
                .and_then(Json::as_str)
                .unwrap_or(DEFAULT_TENANT)
                .to_owned(),
        }),
        Some("evict") => Ok(ReplRecord::Evict {
            seq,
            epoch,
            view: view()?,
            params: text("params")?,
        }),
        Some("checkpoint") => Ok(ReplRecord::Checkpoint {
            seq,
            epoch,
            live: int("live")?,
        }),
        other => Err(ProtocolError::new(format!(
            "unknown repl_record kind {other:?}"
        ))),
    }
}

/// Builds a batch response line from already-encoded element envelopes
/// (each exactly what the element would have been as a standalone response
/// line). Splicing the pre-encoded elements is the batch-level analogue of
/// [`encode_success`]'s verbatim `result_text`: cached elements keep their
/// byte-identity guarantee inside a batch.
pub fn encode_batch(items: &[String]) -> String {
    let total: usize = items.iter().map(|item| item.len() + 1).sum();
    let mut out = String::with_capacity(total + 40);
    out.push_str(BATCH_ENVELOPE_PREFIX);
    for (idx, item) in items.iter().enumerate() {
        if idx > 0 {
            out.push(',');
        }
        out.push_str(item);
    }
    out.push_str(BATCH_ENVELOPE_SUFFIX);
    out
}

/// The batch envelope split around its `results` array, for chunk-splicing
/// assemblers: `prefix + items.join(",") + suffix` is byte-identical to
/// [`encode_batch`].
pub const BATCH_ENVELOPE_PREFIX: &str = "{\"ok\":true,\"op\":\"batch\",\"results\":[";
/// See [`BATCH_ENVELOPE_PREFIX`].
pub const BATCH_ENVELOPE_SUFFIX: &str = "]}";

/// Encodes any wire envelope to its response line.
pub fn encode_envelope(envelope: &WireEnvelope) -> String {
    match envelope {
        WireEnvelope::Success {
            op,
            source,
            result_text,
        } => encode_success(op, *source, result_text),
        WireEnvelope::Error {
            message,
            wrong_shard: None,
        } => encode_error(message),
        WireEnvelope::Error {
            message,
            wrong_shard: Some(detail),
        } => encode_wrong_shard(message, detail),
        WireEnvelope::Batch { items } => {
            let encoded: Vec<String> = items.iter().map(encode_envelope).collect();
            encode_batch(&encoded)
        }
    }
}

/// Decodes a parsed response value back into its wire envelope (the
/// client-side inverse of [`encode_envelope`]). The `result_text` of a
/// success element is recovered by canonical re-serialization, which is
/// byte-faithful because the protocol serializer is deterministic.
pub fn envelope_from_json(value: &Json) -> Result<WireEnvelope, ProtocolError> {
    match value.get("ok").and_then(Json::as_bool) {
        Some(false) => Ok(WireEnvelope::Error {
            message: value
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unspecified server error")
                .to_owned(),
            wrong_shard: wrong_shard_from_json(value),
        }),
        Some(true) => {
            let op = value
                .get("op")
                .and_then(Json::as_str)
                .ok_or_else(|| ProtocolError::new("response lacks an 'op' field"))?
                .to_owned();
            if op == "batch" {
                let items = value
                    .get("results")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| ProtocolError::new("batch response lacks 'results'"))?
                    .iter()
                    .map(envelope_from_json)
                    .collect::<Result<_, _>>()?;
                return Ok(WireEnvelope::Batch { items });
            }
            let source = value
                .get("source")
                .and_then(Json::as_str)
                .and_then(Source::parse)
                .ok_or_else(|| ProtocolError::new("response lacks a valid 'source' field"))?;
            let result_text = value
                .get("result")
                .ok_or_else(|| ProtocolError::new("response lacks a 'result' field"))?
                .to_text();
            Ok(WireEnvelope::Success {
                op,
                source,
                result_text,
            })
        }
        None => Err(ProtocolError::new("response lacks an 'ok' field")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_view() -> SignatureView {
        SignatureView::from_counts(
            vec!["http://ex/name".into(), "http://ex/email".into()],
            vec![(vec![0], 9), (vec![0, 1], 1)],
        )
        .unwrap()
    }

    #[test]
    fn views_round_trip() {
        let view = sample_view();
        let back = view_from_json(&view_to_json(&view)).unwrap();
        assert_eq!(back.cache_key(), view.cache_key());
        assert_eq!(back.properties(), view.properties());
        assert_eq!(back.subject_count(), view.subject_count());
    }

    #[test]
    fn solve_requests_round_trip() {
        let request = SolveRequest {
            op: SolveOp::Refine,
            view: sample_view(),
            spec: SigmaSpec::Similarity,
            engine: EngineKind::Ilp,
            k: Some(2),
            theta: Some(Ratio::new(1, 2)),
            step: None,
            max_k: None,
            time_limit: Some(Duration::from_millis(1500)),
            routing: Some(ShardStamp {
                shard: 2,
                epoch: u64::MAX - 17, // exercises the i64 wire crossing
            }),
            tenant: Some("acme".to_owned()),
        };
        let line = request.to_json().to_text();
        let Request::Solve(back) = decode_request(&line).unwrap() else {
            panic!("expected a solve request");
        };
        assert_eq!(back.op, SolveOp::Refine);
        assert_eq!(back.engine, EngineKind::Ilp);
        assert_eq!(back.spec, SigmaSpec::Similarity);
        assert_eq!(back.k, Some(2));
        assert_eq!(back.theta, Some(Ratio::new(1, 2)));
        assert_eq!(back.time_limit, Some(Duration::from_millis(1500)));
        assert_eq!(back.routing, request.routing);
        assert_eq!(back.tenant, request.tenant);
        assert_eq!(back.cache_key(), request.cache_key());
    }

    #[test]
    fn routing_stamps_do_not_perturb_the_cache_key() {
        let mut request = SolveRequest {
            op: SolveOp::Refine,
            view: sample_view(),
            spec: SigmaSpec::Coverage,
            engine: EngineKind::Hybrid,
            k: Some(2),
            theta: Some(Ratio::new(1, 2)),
            step: None,
            max_k: None,
            time_limit: None,
            routing: None,
            tenant: None,
        };
        let bare = request.cache_key();
        request.routing = Some(ShardStamp {
            shard: 1,
            epoch: 42,
        });
        assert_eq!(
            request.cache_key(),
            bare,
            "routing metadata describes the journey, not the question"
        );
    }

    #[test]
    fn tenants_partition_the_cache_key_space() {
        let mut request = SolveRequest {
            op: SolveOp::Refine,
            view: sample_view(),
            spec: SigmaSpec::Coverage,
            engine: EngineKind::Hybrid,
            k: Some(2),
            theta: Some(Ratio::new(1, 2)),
            step: None,
            max_k: None,
            time_limit: None,
            routing: None,
            tenant: None,
        };
        let bare = request.cache_key();
        assert!(
            !bare.params.contains("tenant="),
            "the default tenant keeps the pre-tenancy key bytes"
        );
        request.tenant = Some("acme".to_owned());
        let acme = request.cache_key();
        assert_ne!(acme, bare, "a tenant is a namespace, not metadata");
        assert!(acme.params.ends_with("|tenant=acme"));
        request.tenant = Some("globex".to_owned());
        assert_ne!(request.cache_key(), acme, "tenants do not share entries");

        // Decode normalises the explicit default spelling away.
        let view_json = view_to_json(&sample_view()).to_text();
        let line = format!(
            "{{\"op\":\"refine\",\"view\":{view_json},\"k\":2,\"theta\":\"1/2\",\
             \"tenant\":\"default\"}}"
        );
        let Ok(Request::Solve(solve)) = decode_request(&line) else {
            panic!("expected a solve request");
        };
        assert_eq!(solve.tenant, None);
        assert_eq!(solve.cache_key(), bare);

        // Invalid tenant ids are refused at decode time.
        for bad in ["\"\"", "\"a b\"", "\"a|b\"", "\"café\"", "7"] {
            let line = format!(
                "{{\"op\":\"refine\",\"view\":{view_json},\"k\":2,\"theta\":\"1/2\",\
                 \"tenant\":{bad}}}"
            );
            assert!(decode_request(&line).is_err(), "must reject tenant {bad}");
        }
    }

    #[test]
    fn over_quota_errors_round_trip_their_structure() {
        let detail = OverQuota {
            tenant: "acme".into(),
            retry_after_ms: 125,
        };
        let line = encode_over_quota("tenant 'acme' is over its rate limit", &detail);
        let value = json::parse(&line).unwrap();
        assert_eq!(value.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(value.get("code").and_then(Json::as_str), Some("over_quota"));
        assert_eq!(over_quota_from_json(&value), Some(detail));
        // Plain errors (and the other structured codes) carry no detail.
        assert_eq!(
            over_quota_from_json(&json::parse(&encode_error("boom")).unwrap()),
            None
        );
        let other = encode_not_leader(
            "nope",
            &NotLeader {
                leader: "x:1".into(),
            },
        );
        assert_eq!(over_quota_from_json(&json::parse(&other).unwrap()), None);
    }

    #[test]
    fn partial_routing_stamps_are_rejected() {
        let view_json = view_to_json(&sample_view()).to_text();
        for fragment in ["\"shard\":1", "\"epoch\":7", "\"shard\":1,\"epoch\":\"x\""] {
            let line = format!(
                "{{\"op\":\"refine\",\"view\":{view_json},\"k\":1,\"theta\":\"1/2\",{fragment}}}"
            );
            assert!(decode_request(&line).is_err(), "must reject: {fragment}");
        }
    }

    #[test]
    fn wrong_shard_errors_round_trip_their_structure() {
        let detail = WrongShard {
            shard: 1,
            owner: 2,
            epoch: u64::MAX - 3,
        };
        let line = encode_wrong_shard("key belongs to shard 2", &detail);
        let value = json::parse(&line).unwrap();
        assert_eq!(value.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            value.get("code").and_then(Json::as_str),
            Some("wrong_shard")
        );
        assert_eq!(wrong_shard_from_json(&value), Some(detail));
        // And through the envelope type, byte-identically.
        let envelope = envelope_from_json(&value).unwrap();
        assert_eq!(
            envelope,
            WireEnvelope::Error {
                message: "key belongs to shard 2".into(),
                wrong_shard: Some(detail),
            }
        );
        assert_eq!(encode_envelope(&envelope), line);
        // A plain error carries no detail.
        let plain = envelope_from_json(&json::parse(&encode_error("boom")).unwrap()).unwrap();
        assert_eq!(
            plain,
            WireEnvelope::Error {
                message: "boom".into(),
                wrong_shard: None,
            }
        );
    }

    #[test]
    fn cache_keys_normalise_spelling_variants() {
        let mut request = SolveRequest {
            op: SolveOp::Refine,
            view: sample_view(),
            spec: SigmaSpec::Coverage,
            engine: EngineKind::Hybrid,
            k: Some(2),
            theta: Some(Ratio::parse("0.5").unwrap()),
            step: None,
            max_k: None,
            time_limit: None,
            routing: None,
            tenant: None,
        };
        let decimal = request.cache_key();
        request.theta = Some(Ratio::parse("1/2").unwrap());
        assert_eq!(request.cache_key(), decimal);
        request.theta = Some(Ratio::parse("2/3").unwrap());
        assert_ne!(request.cache_key(), decimal);
        // And the view content participates.
        request.theta = Some(Ratio::parse("1/2").unwrap());
        request.view = SignatureView::from_counts(
            vec!["http://ex/name".into(), "http://ex/email".into()],
            vec![(vec![0], 8), (vec![0, 1], 2)],
        )
        .unwrap();
        assert_ne!(request.cache_key(), decimal);
    }

    #[test]
    fn op_specific_requirements_are_enforced() {
        let view_json = view_to_json(&sample_view()).to_text();
        let must_fail = [
            format!("{{\"op\":\"refine\",\"view\":{view_json},\"k\":2}}"),
            format!("{{\"op\":\"refine\",\"view\":{view_json},\"theta\":\"1/2\"}}"),
            format!("{{\"op\":\"highest-theta\",\"view\":{view_json}}}"),
            format!("{{\"op\":\"lowest-k\",\"view\":{view_json}}}"),
            "{\"op\":\"refine\"}".to_owned(),
            "{\"op\":\"frobnicate\"}".to_owned(),
            "{\"no\":\"op\"}".to_owned(),
            "not json at all".to_owned(),
        ];
        for line in &must_fail {
            assert!(decode_request(line).is_err(), "should reject: {line}");
        }
        let ok =
            format!("{{\"op\":\"highest-theta\",\"view\":{view_json},\"k\":2,\"step\":\"1/10\"}}");
        match decode_request(&ok) {
            Ok(Request::Solve(solve)) => assert_eq!(solve.op, SolveOp::HighestTheta),
            other => panic!("expected a solve request, got {other:?}"),
        }
        assert!(matches!(
            decode_request("{\"op\":\"status\"}"),
            Ok(Request::Status)
        ));
        assert!(matches!(
            decode_request("{\"op\":\"shutdown\"}"),
            Ok(Request::Shutdown)
        ));
    }

    #[test]
    fn non_positive_steps_are_rejected_at_decode() {
        let view_json = view_to_json(&sample_view()).to_text();
        for step in ["0", "-1/100", "0.0"] {
            let line = format!(
                "{{\"op\":\"highest-theta\",\"view\":{view_json},\"k\":2,\"step\":\"{step}\"}}"
            );
            let err = decode_request(&line).unwrap_err();
            assert!(
                err.message.contains("strictly positive"),
                "step {step}: {err}"
            );
        }
    }

    #[test]
    fn tiny_steps_are_rejected_at_decode() {
        let view_json = view_to_json(&sample_view()).to_text();
        let line = |step: &str| {
            format!("{{\"op\":\"highest-theta\",\"view\":{view_json},\"k\":2,\"step\":\"{step}\"}}")
        };
        for step in ["1/10001", "1/1000000000000", "0.00001"] {
            let err = decode_request(&line(step)).unwrap_err();
            assert_eq!(
                err.message, "'step' must be at least 1/10000",
                "step {step}"
            );
        }
        assert!(decode_request(&line("1/10000")).is_ok());
        // A numerator too large to scale by 10000 is a coarse step, not an
        // overflow on the event-loop thread.
        assert!(decode_request(&line("170141183460469231731687303715884105727")).is_ok());
    }

    #[test]
    fn refinements_round_trip_through_json() {
        let refinement = WireRefinement {
            spec: "cov".into(),
            threshold: "1/2".into(),
            sorts: vec![
                WireSort {
                    signatures: vec![0, 2],
                    subjects: 40,
                    sigma: "3/4".into(),
                },
                WireSort {
                    signatures: vec![1],
                    subjects: 2,
                    sigma: "1".into(),
                },
            ],
        };
        let back = refinement_from_json(&refinement_to_json(&refinement)).unwrap();
        assert_eq!(back, refinement);
    }

    #[test]
    fn batch_lines_decode_element_wise_in_order() {
        let view_json = view_to_json(&sample_view()).to_text();
        let line = format!(
            "{{\"op\":\"batch\",\"requests\":[\
             {{\"op\":\"refine\",\"view\":{view_json},\"k\":2,\"theta\":\"1/2\"}},\
             {{\"op\":\"frobnicate\"}},\
             {{\"op\":\"status\"}},\
             {{\"op\":\"shutdown\"}},\
             {{\"op\":\"batch\",\"requests\":[]}},\
             {{\"op\":\"lowest-k\",\"view\":{view_json},\"theta\":\"2/3\"}}]}}"
        );
        let Decoded::Batch(elements) = decode_line(&line) else {
            panic!("expected a batch");
        };
        assert_eq!(elements.len(), 6);
        assert!(matches!(&elements[0], Ok(Request::Solve(s)) if s.op == SolveOp::Refine));
        assert!(elements[1].is_err(), "unknown op fails alone");
        assert!(matches!(elements[2], Ok(Request::Status)));
        assert!(
            elements[3].is_err(),
            "shutdown is rejected inside a batch: {:?}",
            elements[3]
        );
        assert!(elements[4].is_err(), "batches cannot nest");
        assert!(
            matches!(&elements[5], Ok(Request::Solve(s)) if s.op == SolveOp::LowestK),
            "an error element must not poison later elements"
        );
    }

    #[test]
    fn bad_batch_containers_fail_as_one_line() {
        for line in [
            "{\"op\":\"batch\"}".to_owned(),
            "{\"op\":\"batch\",\"requests\":7}".to_owned(),
            format!(
                "{{\"op\":\"batch\",\"requests\":[{}]}}",
                vec!["{\"op\":\"status\"}"; MAX_BATCH_REQUESTS + 1].join(",")
            ),
        ] {
            assert!(
                matches!(decode_line(&line), Decoded::Single(Err(_))),
                "must reject outright: {}",
                &line[..line.len().min(80)]
            );
        }
        // A plain request still decodes as Single(Ok).
        assert!(matches!(
            decode_line("{\"op\":\"status\"}"),
            Decoded::Single(Ok(Request::Status))
        ));
        // An empty batch is a valid envelope with zero elements.
        assert!(
            matches!(decode_line("{\"op\":\"batch\",\"requests\":[]}"), Decoded::Batch(v) if v.is_empty())
        );
    }

    #[test]
    fn batch_responses_splice_elements_verbatim() {
        let items = vec![
            encode_success("refine", Source::Cache, "{\"outcome\":\"infeasible\"}"),
            encode_error("bad element"),
            encode_success("status", Source::Solved, "{\"workers\":4}"),
        ];
        let line = encode_batch(&items);
        let value = json::parse(&line).unwrap();
        assert_eq!(value.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(value.get("op").unwrap().as_str(), Some("batch"));
        let results = value.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 3);
        // Canonical serialization means each parsed element re-encodes to
        // the exact bytes that were spliced in.
        for (element, original) in results.iter().zip(&items) {
            assert_eq!(&element.to_text(), original);
        }
        // And the whole line round-trips through the envelope type.
        let envelope = envelope_from_json(&value).unwrap();
        assert_eq!(encode_envelope(&envelope), line);
    }

    #[test]
    fn envelopes_round_trip_from_wire_form() {
        let envelope = WireEnvelope::Batch {
            items: vec![
                WireEnvelope::Success {
                    op: "refine".into(),
                    source: Source::Coalesced,
                    result_text: "{\"outcome\":\"unknown\"}".into(),
                },
                WireEnvelope::Error {
                    message: "nope \"quoted\"".into(),
                    wrong_shard: None,
                },
                WireEnvelope::Error {
                    message: "not yours".into(),
                    wrong_shard: Some(WrongShard {
                        shard: 0,
                        owner: 2,
                        epoch: 99,
                    }),
                },
            ],
        };
        let line = encode_envelope(&envelope);
        let back = envelope_from_json(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, envelope);
    }

    #[test]
    fn repl_records_round_trip_byte_identically() {
        let records = [
            ReplRecord::Put {
                seq: 3,
                epoch: u64::MAX - 5, // exercises the i64 wire crossing
                view: 0xdead_beef_dead_beef_dead_beef_dead_beef,
                params: "refine|hybrid|cov|2|1/2|||".into(),
                result: "{\"outcome\":\"infeasible\",\"note\":\"quoted \\\"x\\\"\"}".into(),
                tenant: DEFAULT_TENANT.into(),
            },
            ReplRecord::Put {
                seq: 5,
                epoch: 9,
                view: 7,
                params: "refine|hybrid|cov|2|1/2||||tenant=acme".into(),
                result: "{\"outcome\":\"unknown\"}".into(),
                tenant: "acme".into(),
            },
            ReplRecord::Evict {
                seq: 4,
                epoch: 9,
                view: 1,
                params: "p|q".into(),
            },
            ReplRecord::Checkpoint {
                seq: 4,
                epoch: 9,
                live: 17,
            },
        ];
        for record in &records {
            let line = encode_repl_record(record);
            let value = json::parse(&line).unwrap();
            let back = repl_record_from_json(&value).unwrap();
            assert_eq!(&back, record, "line: {line}");
        }
        // A default-tenant put omits the field (pre-tenancy line bytes),
        // a non-default one carries it, and a stream from a version that
        // predates tenancy decodes to the default tenant, not an error.
        assert!(!encode_repl_record(&records[0]).contains("\"tenant\""));
        assert!(encode_repl_record(&records[1]).contains("\"tenant\":\"acme\""));
        // The result payload survives escaping verbatim — the byte-identity
        // guarantee crosses the replication stream.
        let ReplRecord::Put { result, .. } = &records[0] else {
            unreachable!()
        };
        let line = encode_repl_record(&records[0]);
        let ReplRecord::Put { result: back, .. } =
            repl_record_from_json(&json::parse(&line).unwrap()).unwrap()
        else {
            panic!("expected a put")
        };
        assert_eq!(&back, result);
    }

    #[test]
    fn repl_subscribe_lines_decode_with_and_without_a_shard() {
        let line = encode_repl_subscribe(None);
        assert!(matches!(
            decode_request(&line),
            Ok(Request::ReplSubscribe { shard: None })
        ));
        let spec = ShardSpec { index: 1, count: 3 };
        let line = encode_repl_subscribe(Some(&spec));
        assert!(matches!(
            decode_request(&line),
            Ok(Request::ReplSubscribe { shard: Some(s) }) if s == spec
        ));
        assert!(decode_request("{\"op\":\"repl_subscribe\",\"shard\":\"9/3\"}").is_err());
        assert!(decode_request("{\"op\":\"repl_subscribe\",\"shard\":7}").is_err());
        assert!(matches!(
            decode_request("{\"op\":\"promote\"}"),
            Ok(Request::Promote)
        ));
    }

    #[test]
    fn replication_control_ops_are_rejected_inside_batches() {
        for op in ["repl_subscribe", "promote"] {
            let line = format!("{{\"op\":\"batch\",\"requests\":[{{\"op\":\"{op}\"}}]}}");
            let Decoded::Batch(elements) = decode_line(&line) else {
                panic!("expected a batch");
            };
            assert!(
                elements[0].is_err(),
                "'{op}' must be refused inside a batch"
            );
        }
    }

    #[test]
    fn not_leader_errors_round_trip_their_structure() {
        let detail = NotLeader {
            leader: "127.0.0.1:7464".into(),
        };
        let line = encode_not_leader("this shard is a follower", &detail);
        let value = json::parse(&line).unwrap();
        assert_eq!(value.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(value.get("code").and_then(Json::as_str), Some("not_leader"));
        assert_eq!(not_leader_from_json(&value), Some(detail));
        // A plain error (and a wrong_shard error) carry no leader.
        assert_eq!(
            not_leader_from_json(&json::parse(&encode_error("boom")).unwrap()),
            None
        );
    }

    #[test]
    fn hello_lines_negotiate_framings() {
        assert!(matches!(
            decode_request(&encode_hello(Framing::Bin1)),
            Ok(Request::Hello {
                framing: Framing::Bin1
            })
        ));
        assert!(matches!(
            decode_request(&encode_hello(Framing::Json)),
            Ok(Request::Hello {
                framing: Framing::Json
            })
        ));
        // A bare hello defaults to json (a no-op), unknown framings fail.
        assert!(matches!(
            decode_request("{\"op\":\"hello\"}"),
            Ok(Request::Hello {
                framing: Framing::Json
            })
        ));
        assert!(decode_request("{\"op\":\"hello\",\"framing\":\"bin9\"}").is_err());
        assert!(decode_request("{\"op\":\"hello\",\"framing\":7}").is_err());
        // Refused inside a batch like the other connection-rebinding ops.
        let line = "{\"op\":\"batch\",\"requests\":[{\"op\":\"hello\",\"framing\":\"bin1\"}]}";
        let Decoded::Batch(elements) = decode_line(line) else {
            panic!("expected a batch");
        };
        assert!(elements[0].is_err());
        // The acknowledgement parses as a well-formed response object.
        let ack = json::parse(&encode_hello_ok(Framing::Bin1)).unwrap();
        assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(ack.get("framing").and_then(Json::as_str), Some("bin1"));
        // Framing names round-trip.
        for framing in [Framing::Json, Framing::Bin1] {
            assert_eq!(Framing::parse(framing.name()).unwrap(), framing);
        }
    }

    #[test]
    fn binary_solve_payloads_decode_to_the_same_request() {
        let request = SolveRequest {
            op: SolveOp::HighestTheta,
            view: sample_view(),
            spec: SigmaSpec::Similarity,
            engine: EngineKind::Greedy,
            k: Some(3),
            theta: None,
            step: Some(Ratio::new(1, 10)),
            max_k: Some(5),
            time_limit: Some(Duration::from_millis(750)),
            routing: Some(ShardStamp {
                shard: 2,
                epoch: u64::MAX - 17,
            }),
            tenant: Some("acme".to_owned()),
        };
        let payload = encode_solve_bin(&request);
        let Decoded::Single(Ok(Request::Solve(back))) = decode_payload(&payload) else {
            panic!("expected a solve request");
        };
        assert_eq!(back.op, request.op);
        assert_eq!(back.engine, request.engine);
        assert_eq!(back.spec, request.spec);
        assert_eq!(back.k, request.k);
        assert_eq!(back.step, request.step);
        assert_eq!(back.max_k, request.max_k);
        assert_eq!(back.time_limit, request.time_limit);
        assert_eq!(back.routing, request.routing);
        assert_eq!(back.tenant, request.tenant);
        assert_eq!(back.cache_key(), request.cache_key());
        // And it agrees with the JSON framing's decode of the same request.
        let Ok(Request::Solve(via_json)) = decode_request(&request.to_json().to_text()) else {
            panic!("expected a solve request");
        };
        assert_eq!(via_json.cache_key(), back.cache_key());
        // An explicit default tenant normalises to None, like JSON.
        let mut spelled = request.clone();
        spelled.tenant = Some(DEFAULT_TENANT.to_owned());
        let Decoded::Single(Ok(Request::Solve(normalised))) =
            decode_payload(&encode_solve_bin(&spelled))
        else {
            panic!("expected a solve request");
        };
        assert_eq!(normalised.tenant, None);
    }

    #[test]
    fn binary_batches_mirror_json_batch_semantics() {
        let solve = SolveRequest {
            op: SolveOp::Refine,
            view: sample_view(),
            spec: SigmaSpec::Coverage,
            engine: EngineKind::Hybrid,
            k: Some(2),
            theta: Some(Ratio::new(1, 2)),
            step: None,
            max_k: None,
            time_limit: None,
            routing: None,
            tenant: None,
        };
        let payload = encode_batch_bin(&[
            encode_solve_bin(&solve),
            vec![BIN_STATUS],
            vec![BIN_SHUTDOWN],
            vec![BIN_PROMOTE],
            encode_batch_bin(&[]),
            encode_json_payload("{\"op\":\"status\"}"),
            encode_json_payload(&encode_hello(Framing::Bin1)),
        ]);
        let Decoded::Batch(elements) = decode_payload(&payload) else {
            panic!("expected a batch");
        };
        assert_eq!(elements.len(), 7);
        assert!(matches!(&elements[0], Ok(Request::Solve(s)) if s.op == SolveOp::Refine));
        assert!(matches!(elements[1], Ok(Request::Status)));
        assert!(elements[2].is_err(), "shutdown refused inside a batch");
        assert!(elements[3].is_err(), "promote refused inside a batch");
        assert!(elements[4].is_err(), "batches cannot nest");
        assert!(
            matches!(elements[5], Ok(Request::Status)),
            "embedded JSON elements decode like batch elements"
        );
        assert!(elements[6].is_err(), "hello refused inside a batch");
        // The embedded-JSON escape hatch carries whole lines, batch
        // envelopes included, with full decode_line semantics.
        let Decoded::Batch(via_json) =
            decode_payload(&encode_json_payload("{\"op\":\"batch\",\"requests\":[]}"))
        else {
            panic!("expected a batch");
        };
        assert!(via_json.is_empty());
        // Control requests ride the typed kinds; the rest the escape hatch.
        assert_eq!(encode_request_bin(&Request::Status), vec![BIN_STATUS]);
        assert!(matches!(
            decode_payload(&encode_request_bin(&Request::ReplSubscribe { shard: None })),
            Decoded::Single(Ok(Request::ReplSubscribe { shard: None }))
        ));
    }

    #[test]
    fn hostile_binary_payloads_fail_cleanly() {
        let solve = SolveRequest {
            op: SolveOp::Refine,
            view: sample_view(),
            spec: SigmaSpec::Coverage,
            engine: EngineKind::Hybrid,
            k: Some(2),
            theta: Some(Ratio::new(1, 2)),
            step: None,
            max_k: None,
            time_limit: None,
            routing: None,
            tenant: None,
        };
        let good = encode_solve_bin(&solve);
        // Every strict prefix is a truncation error, never a panic.
        for cut in 0..good.len() {
            assert!(
                matches!(decode_payload(&good[..cut.max(1)]), Decoded::Single(Err(_)))
                    || cut == good.len(),
                "cut at {cut}"
            );
        }
        // Trailing garbage is refused (the payload length is authoritative).
        let mut padded = good.clone();
        padded.push(0);
        assert!(matches!(decode_payload(&padded), Decoded::Single(Err(_))));
        // Unknown kind bytes, engines, and flag bits are refused.
        assert!(matches!(decode_payload(&[0xEE]), Decoded::Single(Err(_))));
        let mut bad_engine = good.clone();
        bad_engine[1] = 9;
        assert!(matches!(
            decode_payload(&bad_engine),
            Decoded::Single(Err(_))
        ));
        let mut bad_flags = good.clone();
        bad_flags[2] |= 0x80;
        assert!(matches!(
            decode_payload(&bad_flags),
            Decoded::Single(Err(_))
        ));
        // A length prefix claiming more than the payload holds is refused
        // before any allocation happens.
        let mut hostile = vec![BIN_REFINE, 1, 0];
        write_varint(&mut hostile, u64::MAX);
        assert!(matches!(decode_payload(&hostile), Decoded::Single(Err(_))));
        // Oversized batch counts are refused like their JSON counterpart.
        let mut big = vec![BIN_BATCH];
        write_varint(&mut big, (MAX_BATCH_REQUESTS + 1) as u64);
        assert!(matches!(decode_payload(&big), Decoded::Single(Err(_))));
        // The empty payload is an error, not a panic.
        assert!(matches!(decode_payload(&[]), Decoded::Single(Err(_))));
    }

    #[test]
    fn response_envelopes_are_well_formed() {
        let line = encode_success("refine", Source::Cache, "{\"outcome\":\"infeasible\"}");
        let value = json::parse(&line).unwrap();
        assert_eq!(value.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(value.get("source").unwrap().as_str(), Some("cache"));
        assert_eq!(
            value
                .get("result")
                .unwrap()
                .get("outcome")
                .unwrap()
                .as_str(),
            Some("infeasible")
        );

        let line = encode_error("boom \"quoted\"");
        let value = json::parse(&line).unwrap();
        assert_eq!(value.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(
            value.get("error").unwrap().as_str(),
            Some("boom \"quoted\"")
        );
    }
}
