//! Request-lifecycle tracing: per-request span records, a fixed-size
//! flight-recorder ring buffer, and the stage histograms behind the
//! `status` response's `observe` block.
//!
//! A traced request carries an [`ActiveSpan`] through the event loop. The
//! span's [`StageTimer`] stamps a lap at each pipeline boundary — decode →
//! admission → cache → solve → flush — so the per-stage micros partition
//! the request's wall time. The finished [`SpanRecord`] lands in two
//! places:
//!
//! * the **stage histograms** ([`LatencyHistogram`] per stage, plus a
//!   total-latency histogram per tenant), read out by `status` and merged
//!   across shards in the CLI's cluster roll-up, and
//! * the **flight recorder** ([`FlightRecorder`]) — a fixed-size ring of
//!   the most recent sampled spans, dumped by the `trace` wire command.
//!
//! Two knobs control who gets traced. `--trace-sample N` records every
//! Nth solve request (0 disables sampling). `--trace-slow-ms MS` is the
//! always-on slow-request log: when set, *every* request is timed and any
//! whose total reaches the threshold is promoted into the recorder past
//! sampling — a tail-latency event is never lost to the 1/N dice. With
//! sampling off and no slow threshold, requests are not timed at all; the
//! only cost is one atomic load per solve.

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use strudel_core::metrics::{HistogramSnapshot, LatencyHistogram, StageTimer};

use crate::json::Json;
use crate::protocol::DEFAULT_TENANT;

/// Spans the flight recorder holds before wraparound evicts the oldest.
pub const RECORDER_CAPACITY: usize = 512;

/// Distinct tenants with their own total-latency histogram; later tenants
/// share one overflow label so a hostile tenant-id stream cannot grow the
/// observe block without bound.
const MAX_TENANT_HISTOGRAMS: usize = 32;

/// The overflow label (no valid tenant id starts with `~`).
const OVERFLOW_TENANT: &str = "~other";

/// One finished request's lifecycle record.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Monotonic span number, assigned when the span enters the recorder
    /// (0 until then).
    pub seq: u64,
    /// The connection the request arrived on.
    pub conn: u64,
    /// The tenant that issued the request.
    pub tenant: String,
    /// The operation (`refine`, `highest-theta`, `lowest-k`).
    pub op: &'static str,
    /// How the request resolved: `cache`, `solved`, `coalesced`, `error`,
    /// or a refusal (`wrong_shard`, `not_leader`, `over_quota`).
    pub outcome: &'static str,
    /// The engine that computed the result (empty when no solve ran).
    pub engine: &'static str,
    /// CP search nodes of the solve, summed over every instance it decided
    /// (0 when no solve ran or no exact search did).
    pub nodes: u64,
    /// Whether the slow-request log promoted this span past sampling.
    pub slow: bool,
    /// Micros spent parsing the request off the wire.
    pub decode_us: u64,
    /// Micros spent in the shard/tenant admission gates.
    pub admission_us: u64,
    /// Micros spent on the result-cache lookup.
    pub cache_us: u64,
    /// Micros from dispatch to the completion being applied (queue wait
    /// and single-flight parking included).
    pub solve_us: u64,
    /// Micros from the response being assembled to its last byte reaching
    /// the socket.
    pub flush_us: u64,
    /// Total micros, decode through flush.
    pub total_us: u64,
}

impl SpanRecord {
    /// Encodes the span as its wire object (one line of a `trace` dump).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seq", Json::Int(self.seq as i64)),
            ("conn", Json::Int(self.conn as i64)),
            ("tenant", Json::str(self.tenant.clone())),
            ("op", Json::str(self.op)),
            ("outcome", Json::str(self.outcome)),
            ("engine", Json::str(self.engine)),
            ("nodes", Json::Int(self.nodes as i64)),
            ("slow", Json::Bool(self.slow)),
            ("decode_us", Json::Int(self.decode_us as i64)),
            ("admission_us", Json::Int(self.admission_us as i64)),
            ("cache_us", Json::Int(self.cache_us as i64)),
            ("solve_us", Json::Int(self.solve_us as i64)),
            ("flush_us", Json::Int(self.flush_us as i64)),
            ("total_us", Json::Int(self.total_us as i64)),
        ])
    }
}

/// A request currently being traced: the stage timer plus the record being
/// filled in. Created by [`ObserveState::begin`], carried through the
/// event loop (boxed — an untraced request carries only a `None`), and
/// finished by [`ObserveState::finish`] once the response bytes are on the
/// socket.
#[derive(Debug)]
pub struct ActiveSpan {
    timer: StageTimer,
    record: SpanRecord,
    sampled: bool,
}

impl ActiveSpan {
    /// Names the tenant once the request has been attributed.
    pub fn set_tenant(&mut self, tenant: &str) {
        if self.record.tenant != tenant {
            self.record.tenant = tenant.to_owned();
        }
    }

    /// Names the engine that ran and its node count.
    pub fn set_engine(&mut self, engine: &'static str, nodes: u64) {
        self.record.engine = engine;
        self.record.nodes = nodes;
    }

    /// Records how the request resolved.
    pub fn set_outcome(&mut self, outcome: &'static str) {
        self.record.outcome = outcome;
    }

    /// Stamps the end of the admission stage (shard + tenant gates).
    pub fn lap_admission(&mut self) {
        self.record.admission_us = self.timer.lap();
    }

    /// Stamps the end of the cache-lookup stage.
    pub fn lap_cache(&mut self) {
        self.record.cache_us = self.timer.lap();
    }

    /// Stamps the end of the solve stage (dispatch through completion).
    pub fn lap_solve(&mut self) {
        self.record.solve_us = self.timer.lap();
    }
}

/// The fixed-size ring of recent spans — the flight recorder. Pushes and
/// dumps take one short mutex hold; the ring never reallocates past its
/// capacity.
pub struct FlightRecorder {
    capacity: usize,
    inner: Mutex<RecorderInner>,
}

struct RecorderInner {
    spans: VecDeque<SpanRecord>,
    dropped: u64,
    next_seq: u64,
}

impl FlightRecorder {
    /// An empty recorder holding at most `capacity` spans.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity,
            inner: Mutex::new(RecorderInner {
                spans: VecDeque::with_capacity(capacity),
                dropped: 0,
                next_seq: 1,
            }),
        }
    }

    /// Appends a span, evicting the oldest (and counting it dropped) when
    /// the ring is full. Returns the span's assigned sequence number.
    pub fn push(&self, mut span: SpanRecord) -> u64 {
        let mut inner = self.inner.lock().expect("recorder lock");
        let seq = inner.next_seq;
        inner.next_seq += 1;
        span.seq = seq;
        if inner.spans.len() == self.capacity {
            inner.spans.pop_front();
            inner.dropped += 1;
        }
        inner.spans.push_back(span);
        seq
    }

    /// The resident spans, oldest first, optionally filtered to slow spans
    /// and/or one tenant.
    pub fn dump(&self, slow_only: bool, tenant: Option<&str>) -> Vec<SpanRecord> {
        let inner = self.inner.lock().expect("recorder lock");
        inner
            .spans
            .iter()
            .filter(|span| !slow_only || span.slow)
            .filter(|span| tenant.map_or(true, |tenant| span.tenant == tenant))
            .cloned()
            .collect()
    }

    /// `(depth, dropped)`: spans currently resident, spans evicted by
    /// wraparound over the recorder's life.
    pub fn stats(&self) -> (usize, u64) {
        let inner = self.inner.lock().expect("recorder lock");
        (inner.spans.len(), inner.dropped)
    }
}

/// The server's whole observability surface: sampling configuration, the
/// per-stage histograms, the per-tenant total histograms, and the flight
/// recorder. One instance per server, shared by the event loop and the
/// `status`/`trace` readers.
pub struct ObserveState {
    sample_every: u64,
    slow_us: Option<u64>,
    ticks: AtomicU64,
    sampled: AtomicU64,
    slow: AtomicU64,
    decode: LatencyHistogram,
    admission: LatencyHistogram,
    cache: LatencyHistogram,
    solve: LatencyHistogram,
    flush: LatencyHistogram,
    total: LatencyHistogram,
    tenants: Mutex<Vec<(String, Arc<LatencyHistogram>)>>,
    recorder: FlightRecorder,
}

impl ObserveState {
    /// Builds the observe state from the resolved knobs: record every
    /// `sample_every`th request (0 = off) and promote any request at or
    /// over `slow_us` micros regardless of sampling (`None` = off).
    pub fn new(sample_every: u64, slow_us: Option<u64>) -> Self {
        ObserveState {
            sample_every,
            slow_us,
            ticks: AtomicU64::new(0),
            sampled: AtomicU64::new(0),
            slow: AtomicU64::new(0),
            decode: LatencyHistogram::new(),
            admission: LatencyHistogram::new(),
            cache: LatencyHistogram::new(),
            solve: LatencyHistogram::new(),
            flush: LatencyHistogram::new(),
            total: LatencyHistogram::new(),
            tenants: Mutex::new(Vec::new()),
            recorder: FlightRecorder::new(RECORDER_CAPACITY),
        }
    }

    /// Whether any tracing is configured at all. False means
    /// [`Self::begin`] is a constant `None` and the request path must not
    /// spend anything on timing.
    pub fn enabled(&self) -> bool {
        self.sample_every > 0 || self.slow_us.is_some()
    }

    /// The sampling divisor (0 = off).
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// The slow-log threshold in micros, if the slow log is on.
    pub fn slow_us(&self) -> Option<u64> {
        self.slow_us
    }

    /// Opens a span for one solve request, or `None` when this request is
    /// not traced. With the slow log on every request is timed (any of
    /// them might turn out slow); with sampling alone only every Nth is.
    pub fn begin(&self, conn: u64, op: &'static str, decode_us: u64) -> Option<Box<ActiveSpan>> {
        if !self.enabled() {
            return None;
        }
        let tick = self.ticks.fetch_add(1, Ordering::Relaxed);
        let sampled = self.sample_every > 0 && tick % self.sample_every == 0;
        if !sampled && self.slow_us.is_none() {
            return None;
        }
        if sampled {
            self.sampled.fetch_add(1, Ordering::Relaxed);
        }
        Some(Box::new(ActiveSpan {
            timer: StageTimer::start(),
            record: SpanRecord {
                seq: 0,
                conn,
                tenant: DEFAULT_TENANT.to_owned(),
                op,
                outcome: "error",
                engine: "",
                nodes: 0,
                slow: false,
                decode_us,
                admission_us: 0,
                cache_us: 0,
                solve_us: 0,
                flush_us: 0,
                total_us: 0,
            },
            sampled,
        }))
    }

    /// Closes a span once its response bytes reached the socket: stamps
    /// the flush stage and the total, rolls every stage into the
    /// histograms (and the tenant's total histogram), and pushes the span
    /// into the recorder if it was sampled or crossed the slow threshold.
    pub fn finish(&self, mut span: ActiveSpan) {
        span.record.flush_us = span.timer.lap();
        span.record.total_us = span.record.decode_us + span.timer.total_micros();
        let slow = self
            .slow_us
            .is_some_and(|threshold| span.record.total_us >= threshold);
        span.record.slow = slow;
        if slow {
            self.slow.fetch_add(1, Ordering::Relaxed);
        }
        let record = &span.record;
        self.decode.record(record.decode_us);
        self.admission.record(record.admission_us);
        self.cache.record(record.cache_us);
        self.solve.record(record.solve_us);
        self.flush.record(record.flush_us);
        self.total.record(record.total_us);
        self.tenant_histogram(&record.tenant)
            .record(record.total_us);
        if span.sampled || slow {
            self.recorder.push(span.record);
        }
    }

    /// Closes a span whose response never (fully) reached the peer — the
    /// connection died with the span still waiting on the flush clock, or
    /// with its request still in flight. The span rolls into the same
    /// histograms and recorder accounting as a flushed one (so aborted
    /// work is priced, not leaked), but its outcome says `aborted`: the
    /// flush stage measures time-until-teardown, not a delivery.
    pub fn finish_aborted(&self, mut span: ActiveSpan) {
        span.record.outcome = "aborted";
        self.finish(span);
    }

    /// Dumps the flight recorder (the `trace` wire command).
    pub fn dump(&self, slow_only: bool, tenant: Option<&str>) -> Vec<SpanRecord> {
        self.recorder.dump(slow_only, tenant)
    }

    /// The recorder's `(depth, dropped)` gauges.
    pub fn recorder_stats(&self) -> (usize, u64) {
        self.recorder.stats()
    }

    /// The tenant's total-latency histogram, created on first use and
    /// capped at [`MAX_TENANT_HISTOGRAMS`] distinct labels (later tenants
    /// share the `~other` overflow label).
    fn tenant_histogram(&self, tenant: &str) -> Arc<LatencyHistogram> {
        let mut tenants = self.tenants.lock().expect("tenant histograms lock");
        if let Some((_, histogram)) = tenants.iter().find(|(name, _)| name == tenant) {
            return Arc::clone(histogram);
        }
        let label = if tenants.len() < MAX_TENANT_HISTOGRAMS {
            tenant
        } else {
            if let Some((_, histogram)) = tenants.iter().find(|(name, _)| name == OVERFLOW_TENANT) {
                return Arc::clone(histogram);
            }
            OVERFLOW_TENANT
        };
        let histogram = Arc::new(LatencyHistogram::new());
        tenants.push((label.to_owned(), Arc::clone(&histogram)));
        histogram
    }

    /// A point-in-time copy of the whole observe surface (the `observe`
    /// block of `status`).
    pub fn snapshot(&self) -> ObserveSnapshot {
        let (depth, dropped) = self.recorder.stats();
        ObserveSnapshot {
            sample_every: self.sample_every,
            slow_us: self.slow_us,
            ticks: self.ticks.load(Ordering::Relaxed),
            sampled: self.sampled.load(Ordering::Relaxed),
            slow: self.slow.load(Ordering::Relaxed),
            depth,
            capacity: RECORDER_CAPACITY,
            dropped,
            stages: vec![
                ("decode", self.decode.snapshot()),
                ("admission", self.admission.snapshot()),
                ("cache", self.cache.snapshot()),
                ("solve", self.solve.snapshot()),
                ("flush", self.flush.snapshot()),
                ("total", self.total.snapshot()),
            ],
            tenants: self
                .tenants
                .lock()
                .expect("tenant histograms lock")
                .iter()
                .map(|(name, histogram)| (name.clone(), histogram.snapshot()))
                .collect(),
        }
    }
}

/// Resolves the sampling divisor: an explicit `--trace-sample` wins, then
/// the `STRUDEL_TRACE_SAMPLE` environment variable (the hook the CI
/// trace-smoke step uses to run unmodified e2e suites traced), then off.
/// A malformed override is an `InvalidInput` error naming the variable,
/// so a typo cannot run a suite untraced.
pub fn resolve_sample(explicit: Option<u64>) -> io::Result<u64> {
    match explicit {
        Some(every) => Ok(every),
        None => Ok(env_override("STRUDEL_TRACE_SAMPLE")?.unwrap_or(0)),
    }
}

/// Resolves the slow-log threshold in milliseconds: an explicit
/// `--trace-slow-ms` wins, then `STRUDEL_TRACE_SLOW_MS`, then off. A
/// malformed override is an error, as for [`resolve_sample`].
pub fn resolve_slow_ms(explicit: Option<u64>) -> io::Result<Option<u64>> {
    match explicit {
        Some(ms) => Ok(Some(ms)),
        None => env_override("STRUDEL_TRACE_SLOW_MS"),
    }
}

fn env_override(name: &str) -> io::Result<Option<u64>> {
    let value = std::env::var_os(name).map(|value| value.to_string_lossy().into_owned());
    parse_override(name, value.as_deref())
}

/// Parses the value of the override variable `name` (`None` when unset):
/// a non-negative integer, surrounding whitespace allowed.
fn parse_override(name: &str, value: Option<&str>) -> io::Result<Option<u64>> {
    let Some(text) = value else {
        return Ok(None);
    };
    text.trim().parse().map(Some).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{name}: invalid value '{text}' (expected a non-negative integer)"),
        )
    })
}

/// The `observe` block of a `status` snapshot.
#[derive(Clone, Debug)]
pub struct ObserveSnapshot {
    /// Sampling divisor (0 = off).
    pub sample_every: u64,
    /// Slow-log threshold in micros (`None` = off).
    pub slow_us: Option<u64>,
    /// Solve requests seen while tracing was enabled.
    pub ticks: u64,
    /// Spans recorded by 1/N sampling.
    pub sampled: u64,
    /// Spans promoted by the slow-request log.
    pub slow: u64,
    /// Spans currently resident in the recorder.
    pub depth: usize,
    /// The recorder's fixed capacity.
    pub capacity: usize,
    /// Spans evicted by recorder wraparound.
    pub dropped: u64,
    /// Per-stage histograms: decode, admission, cache, solve, flush, and
    /// the end-to-end total.
    pub stages: Vec<(&'static str, HistogramSnapshot)>,
    /// Per-tenant total-latency histograms.
    pub tenants: Vec<(String, HistogramSnapshot)>,
}

impl ObserveSnapshot {
    /// Encodes the block for the `status` payload. The wire JSON is
    /// integer-only; a disabled slow log travels as `slow_ms: -1` (0 is a
    /// real threshold — promote everything).
    pub fn to_json(&self) -> Json {
        let slow_ms = match self.slow_us {
            None => -1,
            Some(us) => (us / 1000) as i64,
        };
        let stages = Json::Obj(
            self.stages
                .iter()
                .map(|(name, snapshot)| ((*name).to_owned(), histogram_to_json(snapshot)))
                .collect(),
        );
        let tenants = Json::Arr(
            self.tenants
                .iter()
                .map(|(name, snapshot)| {
                    let Json::Obj(mut members) = histogram_to_json(snapshot) else {
                        unreachable!("histogram_to_json returns an object");
                    };
                    members.insert(0, ("name".to_owned(), Json::str(name.clone())));
                    Json::Obj(members)
                })
                .collect(),
        );
        Json::obj(vec![
            ("sample_every", Json::Int(self.sample_every as i64)),
            ("slow_ms", Json::Int(slow_ms)),
            ("ticks", Json::Int(self.ticks as i64)),
            ("sampled", Json::Int(self.sampled as i64)),
            ("slow", Json::Int(self.slow as i64)),
            (
                "recorder",
                Json::obj(vec![
                    ("depth", Json::Int(self.depth as i64)),
                    ("capacity", Json::Int(self.capacity as i64)),
                    ("dropped", Json::Int(self.dropped as i64)),
                ]),
            ),
            ("stages", stages),
            ("tenants", tenants),
        ])
    }
}

/// Encodes one histogram for the wire: the scalar counters, the derived
/// quantiles (micros, integers), and the sparse buckets a cluster client
/// merges for fleet-wide quantiles.
pub fn histogram_to_json(snapshot: &HistogramSnapshot) -> Json {
    Json::obj(vec![
        ("count", Json::Int(snapshot.count as i64)),
        ("sum", Json::Int(snapshot.sum as i64)),
        ("max", Json::Int(snapshot.max as i64)),
        ("p50", Json::Int(snapshot.p50() as i64)),
        ("p90", Json::Int(snapshot.p90() as i64)),
        ("p99", Json::Int(snapshot.p99() as i64)),
        (
            "buckets",
            Json::Arr(
                snapshot
                    .sparse()
                    .into_iter()
                    .map(|(index, count)| {
                        Json::Arr(vec![Json::Int(index as i64), Json::Int(count as i64)])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Decodes a wire histogram back into a mergeable snapshot (the cluster
/// roll-up path). Returns `None` when the object is missing any of the
/// expected fields.
pub fn histogram_from_json(value: &Json) -> Option<HistogramSnapshot> {
    let count = value.get("count")?.as_int()?;
    let sum = value.get("sum")?.as_int()?;
    let max = value.get("max")?.as_int()?;
    let pairs: Vec<(usize, u64)> = value
        .get("buckets")?
        .as_arr()?
        .iter()
        .filter_map(|pair| {
            let pair = pair.as_arr()?;
            let index = usize::try_from(pair.first()?.as_int()?).ok()?;
            let bucket_count = u64::try_from(pair.get(1)?.as_int()?).ok()?;
            Some((index, bucket_count))
        })
        .collect();
    Some(HistogramSnapshot::from_sparse(
        &pairs,
        count as u64,
        sum as u64,
        max as u64,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(tenant: &str, total_us: u64) -> SpanRecord {
        SpanRecord {
            seq: 0,
            conn: 1,
            tenant: tenant.to_owned(),
            op: "refine",
            outcome: "solved",
            engine: "ilp",
            nodes: 3,
            slow: false,
            decode_us: 1,
            admission_us: 1,
            cache_us: 1,
            solve_us: total_us.saturating_sub(4),
            flush_us: 1,
            total_us,
        }
    }

    #[test]
    fn recorder_wraps_and_counts_dropped() {
        let recorder = FlightRecorder::new(4);
        for i in 0..10 {
            recorder.push(span("default", 100 + i));
        }
        let (depth, dropped) = recorder.stats();
        assert_eq!(depth, 4);
        assert_eq!(dropped, 6);
        let spans = recorder.dump(false, None);
        assert_eq!(spans.len(), 4);
        // The survivors are the newest four, oldest first, and the
        // assigned sequence numbers never restart after wraparound.
        let seqs: Vec<u64> = spans.iter().map(|span| span.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9, 10]);
        let totals: Vec<u64> = spans.iter().map(|span| span.total_us).collect();
        assert_eq!(totals, vec![106, 107, 108, 109]);
    }

    #[test]
    fn recorder_dump_filters() {
        let recorder = FlightRecorder::new(8);
        let mut slow = span("acme", 9000);
        slow.slow = true;
        recorder.push(slow);
        recorder.push(span("acme", 50));
        recorder.push(span("default", 60));
        assert_eq!(recorder.dump(false, None).len(), 3);
        assert_eq!(recorder.dump(true, None).len(), 1);
        assert_eq!(recorder.dump(false, Some("acme")).len(), 2);
        assert_eq!(recorder.dump(true, Some("default")).len(), 0);
    }

    #[test]
    fn histogram_json_round_trips() {
        let histogram = LatencyHistogram::new();
        for value in [3, 90, 1500, 1500, 88_000] {
            histogram.record(value);
        }
        let snapshot = histogram.snapshot();
        let rebuilt = histogram_from_json(&histogram_to_json(&snapshot)).expect("round trip");
        assert_eq!(rebuilt, snapshot);
        assert_eq!(rebuilt.p99(), snapshot.p99());
    }

    #[test]
    fn a_trace_override_parses_or_names_its_variable() {
        let parse = |value| parse_override("STRUDEL_TRACE_SAMPLE", value);
        assert_eq!(parse(None).unwrap(), None);
        assert_eq!(parse(Some("1")).unwrap(), Some(1));
        assert_eq!(parse(Some(" 0 ")).unwrap(), Some(0));
        for bad in ["often", "-3", ""] {
            let err = parse(Some(bad)).expect_err(bad);
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            assert!(
                err.to_string()
                    .starts_with("STRUDEL_TRACE_SAMPLE: invalid value"),
                "{err}"
            );
        }
    }

    #[test]
    fn sampling_and_slow_promotion() {
        // 1/4 sampling: spans 0, 4, 8 of 10 are recorded.
        let observe = ObserveState::new(4, None);
        for _ in 0..10 {
            if let Some(span) = observe.begin(1, "refine", 1) {
                observe.finish(*span);
            }
        }
        let snapshot = observe.snapshot();
        assert_eq!(snapshot.ticks, 10);
        assert_eq!(snapshot.sampled, 3);
        assert_eq!(snapshot.depth, 3);
        // Slow log alone: every request is timed (histograms fill), and
        // with a 0 ms threshold every span is promoted into the recorder.
        let observe = ObserveState::new(0, Some(0));
        for _ in 0..5 {
            let span = observe.begin(1, "refine", 1).expect("slow log times all");
            observe.finish(*span);
        }
        let snapshot = observe.snapshot();
        assert_eq!(snapshot.sampled, 0);
        assert_eq!(snapshot.slow, 5);
        assert_eq!(snapshot.depth, 5);
        let totals = &snapshot.stages.last().expect("total stage").1;
        assert_eq!(totals.count, 5);
        // Disabled entirely: begin is a constant None.
        let observe = ObserveState::new(0, None);
        assert!(observe.begin(1, "refine", 1).is_none());
    }
}
