//! `serve-hot` and `serve-churn`: open-loop `refine` traffic against a
//! `strudel serve --workers 2` process of its own, so CPU and memory
//! figures belong to the server alone.
//!
//! * `serve-hot` — Zipf-skewed keys over seeded YAGO-like sorts. The
//!   distinct keys fit the cache and are pre-warmed in set-up, so almost
//!   every request is a cache hit. Why: decode of both framings,
//!   admission, cache lookup, flush and the poller carry the cost, and the
//!   solver does none of it.
//! * `serve-churn` — `--solver ilp --persist <fresh dir>` with the default
//!   fsync policy, and far more distinct views than the cache holds. A
//!   share of requests are one-signature neighbors of views asked 60–150
//!   requests earlier, a share re-ask a key that is still being solved, a
//!   share re-ask a cached key; misses are the clear majority. The window
//!   runs at a rate far below what the workers sustain, so a request
//!   seldom queues behind another solve and the median is a solve's.
//!   Why: the cache takes writes (inserts, evictions, segment appends,
//!   fsyncs and compactions on the event-loop thread) beside reads, and
//!   the pool, single-flight, hint index and exact solver sit on the
//!   blocking path. `--solver ilp` because the default `request` mode
//!   never consults the hint index.
//!
//! Traffic is split evenly between a connection that negotiated `bin1`
//! and one that stayed on line-JSON, both driven by one client thread.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use strudel_core::engine::{IlpEngine, RefineOutcome, RefinementEngine};
use strudel_core::metrics::{bucket_upper_bound, HistogramSnapshot};
use strudel_core::sigma::SigmaSpec;
use strudel_core::wire::WireOutcome;
use strudel_datagen::{synthetic_sort, yago_sample, SyntheticSortConfig, YagoSampleConfig};
use strudel_rdf::rng::StdRng;
use strudel_rdf::signature::SignatureView;
use strudel_rules::prelude::Ratio;
use strudel_server::json::{self, Json};
use strudel_server::protocol::{
    decode_line, decode_payload, encode_frame_into, encode_solve_bin, encode_success,
    outcome_to_json, refinement_from_json, Decoded, EngineKind, FrameKind, Framing, Request,
    SolveOp, SolveRequest, Source,
};
use strudel_server::trace::histogram_from_json;

use crate::check;
use crate::loadgen::{self, Bodies, Conn, Item, Limits, NO_BODY};
use crate::stats::{self, median, percentile, secs, Report};
use crate::Args;

/// The fixed shape of one serve workload.
struct Profile {
    /// Arrival rate of the latency window, requests per second.
    nominal_rps: f64,
    /// The rate ladder `max_rate_rps` is chosen from: `rungs` rates
    /// growing by `ratio` from `base`.
    base: f64,
    ratio: f64,
    rungs: usize,
    /// A ladder rate passes when its median latency stays within this
    /// limit (and nothing fails and the backlog does not run away).
    p50_limit_us: u64,
    /// Requests sent in set-up, before any window.
    prewarm: usize,
    /// Share of the run's seconds spent in the latency window; the rest
    /// goes to the rate ladder.
    window_share: f64,
    /// Binary-search probes of the ladder (`2^probes > rungs`).
    probes: usize,
}

impl Profile {
    fn rate(&self, rung: usize) -> f64 {
        (self.base * self.ratio.powi(rung as i32)).round()
    }
}

const HOT: Profile = Profile {
    nominal_rps: 20000.0,
    base: 10000.0,
    ratio: 1.06,
    rungs: 40,
    p50_limit_us: 1_000,
    prewarm: 0,
    window_share: 0.4,
    probes: 6,
};

const CHURN: Profile = Profile {
    nominal_rps: 60.0,
    base: 350.0,
    ratio: 1.1,
    rungs: 15,
    p50_limit_us: 20_000,
    prewarm: 300,
    window_share: 0.7,
    probes: 4,
};

/// Latency quantiles are taken per slice of at least this many samples
/// (so each slice's p99 has ten samples beyond it), and the median over
/// the slices is reported: a host stall that hits one slice moves the
/// figure only as far as the next slice's value.
const SLICE_SAMPLES: usize = 2000;
const MAX_SLICES: usize = 8;
/// Server instances per untraced run; `setup_s`, `latency_p50_ms` and
/// `peak_rss_mb` are medians over them.
const SETUPS: usize = 7;

/// One distinct request, pre-encoded in both framings.
struct Key {
    request: SolveRequest,
    json_line: Vec<u8>,
    bin_payload: Vec<u8>,
    bin_frame: Vec<u8>,
}

impl Key {
    fn new(
        view: SignatureView,
        spec: SigmaSpec,
        k: usize,
        theta: Ratio,
        engine: EngineKind,
    ) -> Key {
        let request = SolveRequest {
            op: SolveOp::Refine,
            view,
            spec,
            engine,
            k: Some(k),
            theta: Some(theta),
            step: None,
            max_k: None,
            time_limit: None,
            routing: None,
            tenant: None,
        };
        let mut json_line = request.to_json().to_text().into_bytes();
        json_line.push(b'\n');
        let bin_payload = encode_solve_bin(&request);
        let mut bin_frame = Vec::new();
        encode_frame_into(&mut bin_frame, FrameKind::Request, "", &bin_payload);
        Key {
            request,
            json_line,
            bin_payload,
            bin_frame,
        }
    }
}

/// Where a workload's requests come from.
trait KeySource {
    /// The key of the next request, and whether it re-asks a key sent
    /// just before (and so arrives right behind it).
    fn next(&mut self) -> (u32, bool);
    /// The key of the next set-up request.
    fn next_prewarm(&mut self) -> u32;
    fn keys(&self) -> &[Key];
    /// Share of requests that arrive right behind another.
    fn tight_share(&self) -> f64;
    /// The realized key mix, for the run's input report.
    fn describe(&self) -> String;
}

/// `serve-hot`: 48 small sorts × 4 (rule, k, θ) questions, Zipf-skewed.
struct HotKeys {
    rng: StdRng,
    keys: Vec<Key>,
    cdf: Vec<f64>,
    prewarmed: usize,
}

const ZIPF_EXPONENT: f64 = 1.0;

impl HotKeys {
    fn new(seed: u64) -> HotKeys {
        let sorts = yago_sample(
            &YagoSampleConfig {
                num_sorts: 48,
                min_subjects: 100,
                max_subjects: 20_000,
                max_signatures: 6,
                min_properties: 8,
                max_properties: 12,
            },
            seed,
        );
        let questions = [
            (SigmaSpec::Coverage, 2, Ratio::new(3, 5)),
            (SigmaSpec::Similarity, 2, Ratio::new(4, 5)),
            (SigmaSpec::Coverage, 3, Ratio::new(7, 10)),
            (SigmaSpec::Similarity, 3, Ratio::new(9, 10)),
        ];
        let mut keys = Vec::new();
        for sort in &sorts {
            for (spec, k, theta) in &questions {
                keys.push(Key::new(
                    sort.view.clone(),
                    spec.clone(),
                    *k,
                    *theta,
                    EngineKind::Hybrid,
                ));
            }
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0068_6f74);
        // Popularity rank r gets weight 1/r^s; ranks are dealt to keys at
        // random.
        let mut order: Vec<usize> = (0..keys.len()).collect();
        rng.shuffle(&mut order);
        let mut weights = vec![0.0; keys.len()];
        for (rank, &key) in order.iter().enumerate() {
            weights[key] = 1.0 / ((rank + 1) as f64).powf(ZIPF_EXPONENT);
        }
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        HotKeys {
            rng,
            keys,
            cdf,
            prewarmed: 0,
        }
    }
}

impl KeySource for HotKeys {
    fn next(&mut self) -> (u32, bool) {
        let u = self.rng.next_f64();
        let key = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.keys.len() - 1);
        (key as u32, false)
    }

    fn next_prewarm(&mut self) -> u32 {
        self.prewarmed += 1;
        (self.prewarmed - 1) as u32
    }

    fn keys(&self) -> &[Key] {
        &self.keys
    }

    fn tight_share(&self) -> f64 {
        0.0
    }

    fn describe(&self) -> String {
        format!(
            "Zipf exponent {ZIPF_EXPONENT} over {} keys",
            self.keys.len()
        )
    }
}

/// `serve-churn`: a stream of mostly fresh views with neighbors and
/// repeats mixed in.
struct ChurnKeys {
    rng: StdRng,
    keys: Vec<Key>,
    /// The key of every request generated so far, set-up included.
    history: Vec<u32>,
    last_miss: u32,
    /// Requests by kind: fresh, neighbor, in-flight repeat, repeat.
    kinds: [u64; 4],
}

const NEIGHBOR_SHARE: f64 = 0.20;
/// How many requests back a neighbor's base was asked: long enough that
/// its solve has finished, short enough that the server's hint index
/// (32 solved views per question) still holds it.
const NEIGHBOR_BACK: std::ops::Range<usize> = 60..150;
const INFLIGHT_SHARE: f64 = 0.10;
const REPEAT_SHARE: f64 = 0.15;
/// How many requests back a repeat's key was asked: within the cache's
/// 1024 entries, and reachable from the first request after the 300
/// pre-warm requests.
const REPEAT_BACK: std::ops::Range<usize> = 50..300;
const CHURN_QUESTIONS: [(u8, i128, i128); 4] = [(0, 1, 2), (0, 3, 5), (1, 3, 4), (0, 7, 10)];

impl ChurnKeys {
    fn new(seed: u64) -> ChurnKeys {
        ChurnKeys {
            rng: StdRng::seed_from_u64(seed ^ 0x0063_6875_726e),
            keys: Vec::new(),
            history: Vec::new(),
            last_miss: 0,
            kinds: [0; 4],
        }
    }

    fn push(&mut self, view: SignatureView, question: usize) -> u32 {
        let (rule, num, den) = CHURN_QUESTIONS[question];
        let spec = if rule == 0 {
            SigmaSpec::Coverage
        } else {
            SigmaSpec::Similarity
        };
        self.keys.push(Key::new(
            view,
            spec,
            2,
            Ratio::new(num, den),
            EngineKind::Ilp,
        ));
        self.last_miss = (self.keys.len() - 1) as u32;
        self.last_miss
    }

    fn fresh(&mut self) -> u32 {
        let config = SyntheticSortConfig {
            subjects: self.rng.gen_range(200usize..2000),
            properties: self.rng.gen_range(8usize..11),
            signatures: self.rng.gen_range(7usize..12),
            ..SyntheticSortConfig::default()
        };
        let view = synthetic_sort(&config, self.rng.next_u64());
        let question = self.rng.gen_range(0..CHURN_QUESTIONS.len());
        self.kinds[0] += 1;
        self.push(view, question)
    }

    /// A one-signature neighbor of `base`: one signature dropped, or one
    /// new signature added.
    fn neighbor(&mut self, base: u32) -> u32 {
        let request = &self.keys[base as usize].request;
        let view = &request.view;
        let properties = view.properties().to_vec();
        let mut signatures: Vec<(Vec<usize>, usize)> = view
            .entries()
            .iter()
            .map(|entry| (entry.support(), entry.count))
            .collect();
        if signatures.len() > 3 && self.rng.gen_bool(0.5) {
            let drop = self.rng.gen_range(0..signatures.len());
            signatures.remove(drop);
        } else {
            for _ in 0..64 {
                let pattern: Vec<usize> = (0..properties.len())
                    .filter(|_| self.rng.gen_bool(0.4))
                    .collect();
                if !pattern.is_empty() && signatures.iter().all(|(s, _)| *s != pattern) {
                    signatures.push((pattern, self.rng.gen_range(5usize..60)));
                    break;
                }
            }
        }
        let question = CHURN_QUESTIONS
            .iter()
            .position(|&(rule, num, den)| {
                let spec_matches = (rule == 0) == (request.spec == SigmaSpec::Coverage);
                spec_matches && request.theta == Some(Ratio::new(num, den))
            })
            .unwrap_or(0);
        let view = SignatureView::from_counts(properties, signatures).expect("valid neighbor");
        self.kinds[1] += 1;
        self.push(view, question)
    }
}

impl KeySource for ChurnKeys {
    fn next(&mut self) -> (u32, bool) {
        let h = self.history.len();
        let r = self.rng.next_f64();
        let (key, tight) = if r < NEIGHBOR_SHARE && h > NEIGHBOR_BACK.end {
            let base = self.history[h - self.rng.gen_range(NEIGHBOR_BACK)];
            (self.neighbor(base), false)
        } else if r < NEIGHBOR_SHARE + INFLIGHT_SHARE && h > 0 {
            self.kinds[2] += 1;
            (self.last_miss, true)
        } else if r < NEIGHBOR_SHARE + INFLIGHT_SHARE + REPEAT_SHARE && h > REPEAT_BACK.end {
            self.kinds[3] += 1;
            (self.history[h - self.rng.gen_range(REPEAT_BACK)], false)
        } else {
            (self.fresh(), false)
        };
        self.history.push(key);
        (key, tight)
    }

    fn next_prewarm(&mut self) -> u32 {
        let key = self.fresh();
        self.history.push(key);
        key
    }

    fn keys(&self) -> &[Key] {
        &self.keys
    }

    fn tight_share(&self) -> f64 {
        INFLIGHT_SHARE
    }

    fn describe(&self) -> String {
        let total = self.kinds.iter().sum::<u64>().max(1) as f64;
        let share = |i: usize| self.kinds[i] as f64 / total;
        format!(
            "of {} requests so far (set-up included): fresh {:.3}, one-signature neighbor {:.3}, \
             in-flight repeat {:.3}, repeat {:.3}",
            self.history.len(),
            share(0),
            share(1),
            share(2),
            share(3)
        )
    }
}

/// A seeded arrival schedule at `rate` for `seconds`, dealt alternately
/// to the two connections (0 is `bin1`, 1 is line-JSON). Gaps are
/// exponential (Poisson arrivals); a request that re-asks the key just
/// sent arrives 0–200 µs behind it, on the other connection.
fn plan(source: &mut dyn KeySource, rng: &mut StdRng, rate: f64, seconds: f64) -> Vec<Item> {
    let independent_rate = rate * (1.0 - source.tight_share());
    let end_ns = (seconds * 1e9) as u64;
    let mut plan = Vec::new();
    let mut due = 0u64;
    loop {
        let (key, tight) = source.next();
        let gap = if tight {
            rng.gen_range(0usize..200_000) as f64
        } else {
            -(1.0 - rng.next_f64()).ln() / independent_rate * 1e9
        };
        due += gap as u64;
        if due >= end_ns {
            break;
        }
        let conn = (plan.len() % 2) as u8;
        plan.push(Item {
            due_ns: due,
            conn,
            key,
        });
    }
    plan
}

/// A `strudel serve` child process.
struct Server {
    child: Child,
    addr: String,
    backend: String,
    pid: u32,
}

impl Server {
    fn start(strudel: &Path, dir: &Path, extra: &[String]) -> Result<Server, String> {
        std::fs::create_dir_all(dir).map_err(|err| err.to_string())?;
        let err_path = dir.join("server.stderr");
        let open = |path: PathBuf| std::fs::File::create(path).map_err(|err| err.to_string());
        let child = Command::new(strudel)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
            .args(extra)
            .env_remove("STRUDEL_POLLER")
            .env_remove("STRUDEL_FRAMING")
            .env_remove("STRUDEL_TRACE_SAMPLE")
            .env_remove("STRUDEL_TRACE_SLOW_MS")
            .stdin(Stdio::null())
            .stdout(open(dir.join("server.stdout"))?)
            .stderr(open(err_path.clone())?)
            .spawn()
            .map_err(|err| format!("start {}: {err}", strudel.display()))?;
        let pid = child.id();
        let mut server = Server {
            child,
            addr: String::new(),
            backend: String::new(),
            pid,
        };
        let begin = Instant::now();
        loop {
            let text = std::fs::read_to_string(&err_path).unwrap_or_default();
            // Only whole lines: the announcement may be read mid-write.
            let complete = &text[..text.rfind('\n').map_or(0, |end| end + 1)];
            if let Some(line) = complete.lines().find(|l| l.contains("listening on ")) {
                let after = &line[line.find("listening on ").unwrap() + 13..];
                server.addr = after
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_owned();
                server.backend = line
                    .split(", ")
                    .find(|part| part.contains(" poller"))
                    .and_then(|part| part.split(" poller").next())
                    .unwrap_or("unknown")
                    .to_owned();
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("the server exited at start ({status}): {text}"));
            }
            if secs(begin) > 20.0 {
                return Err("the server did not announce its address".to_owned());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn call(&self, line: &str) -> Result<Json, String> {
        let mut stream = TcpStream::connect(&self.addr).map_err(|err| err.to_string())?;
        stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|err| err.to_string())?;
        let mut reply = String::new();
        BufReader::new(stream)
            .read_line(&mut reply)
            .map_err(|err| err.to_string())?;
        json::parse(reply.trim()).map_err(|err| format!("bad reply {reply:?}: {err}"))
    }

    fn status(&self) -> Result<Json, String> {
        self.call("{\"op\":\"status\"}")?
            .get("result")
            .cloned()
            .ok_or_else(|| "status has no result".to_owned())
    }

    /// Resets the server's peak-RSS mark to its current RSS, so a later
    /// `VmHWM` read covers only what followed.
    fn reset_peak_rss(&self) {
        let _ = std::fs::write(format!("/proc/{}/clear_refs", self.pid), "5");
    }

    fn cpu_ticks(&self) -> u64 {
        stats::cpu_ticks(self.pid).unwrap_or(0)
    }

    /// Asks the server to stop and waits for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let asked = self.call("{\"op\":\"shutdown\"}");
        let begin = Instant::now();
        while secs(begin) < 30.0 {
            if let Ok(Some(_)) = self.child.try_wait() {
                return asked.map(|_| ());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Err("the server did not stop after shutdown".to_owned())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One request as the checks see it: which connection, which key, which
/// response body.
#[derive(Clone, Copy)]
struct Sent {
    conn: u8,
    key: u32,
    body: u32,
}

/// Nanoseconds as microseconds.
fn micros(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// What one window or ladder step measured (times in ns).
struct Phase {
    latencies: Vec<u64>,
    /// `(due time, latency)` of every answered request, in schedule order.
    timed: Vec<(u64, u64)>,
    lags: Vec<u64>,
    sent: Vec<Sent>,
    errors: usize,
    unanswered: usize,
    outstanding_at_end: usize,
    aborted: bool,
}

impl Phase {
    /// The `q` quantile of latency in µs, as the median over equal time
    /// slices of the phase (see [`SLICE_SAMPLES`]), and the number of
    /// slices.
    fn quantile(&self, q: f64) -> (f64, usize) {
        let slices = (self.timed.len() / SLICE_SAMPLES).clamp(1, MAX_SLICES);
        let end = self.timed.iter().map(|&(due, _)| due).max().unwrap_or(0) + 1;
        let mut buckets = vec![Vec::new(); slices];
        for &(due, latency) in &self.timed {
            buckets[(due as u128 * slices as u128 / end as u128) as usize].push(latency);
        }
        let values: Vec<f64> = buckets
            .iter_mut()
            .map(|bucket| {
                bucket.sort_unstable();
                micros(percentile(bucket, q))
            })
            .collect();
        (median(&values), slices)
    }
}

/// Every request sent so far and the distinct response bodies, per
/// connection.
#[derive(Default)]
struct Ledger {
    bodies: [Bodies; 2],
    sent: Vec<Sent>,
}

struct Client {
    conns: [Conn; 2],
    ledger: Ledger,
}

impl Client {
    fn open(addr: &str) -> Result<Client, String> {
        Ok(Client {
            conns: [
                Conn::open(addr, Framing::Bin1)?,
                Conn::open(addr, Framing::Json)?,
            ],
            ledger: Ledger::default(),
        })
    }

    fn run(&mut self, keys: &[Key], plan: &[Item], limits: Limits) -> Result<Phase, String> {
        let payload = |conn: usize, key: u32| -> &[u8] {
            let key = &keys[key as usize];
            if conn == 0 {
                &key.bin_frame
            } else {
                &key.json_line
            }
        };
        let epoch = Instant::now() + Duration::from_millis(2);
        let outcome = loadgen::drive(
            &mut self.conns,
            plan,
            &payload,
            &mut self.ledger.bodies,
            epoch,
            limits,
        )?;
        let mut phase = Phase {
            latencies: Vec::new(),
            timed: Vec::new(),
            lags: Vec::new(),
            sent: Vec::new(),
            errors: 0,
            unanswered: 0,
            outstanding_at_end: outcome.outstanding_at_end,
            aborted: outcome.aborted,
        };
        for (i, item) in plan.iter().enumerate() {
            let Some(sent_ns) = outcome.sent_ns[i] else {
                continue;
            };
            phase.lags.push(sent_ns.saturating_sub(item.due_ns));
            let body = outcome.body[i];
            phase.sent.push(Sent {
                conn: item.conn,
                key: item.key,
                body,
            });
            if body == NO_BODY {
                phase.unanswered += 1;
                continue;
            }
            let text = &self.ledger.bodies[item.conn as usize].texts[body as usize];
            if !text.starts_with(b"{\"ok\":true") {
                phase.errors += 1;
            }
            let latency = outcome.recv_ns[i].saturating_sub(item.due_ns);
            phase.latencies.push(latency);
            phase.timed.push((item.due_ns, latency));
        }
        phase.latencies.sort_unstable();
        phase.lags.sort_unstable();
        self.ledger.sent.extend_from_slice(&phase.sent);
        Ok(phase)
    }
}

fn new_source(workload: &str, seed: u64) -> Box<dyn KeySource> {
    if workload == "serve-hot" {
        Box::new(HotKeys::new(seed))
    } else {
        Box::new(ChurnKeys::new(seed))
    }
}

/// Generates the inputs of server `instance`, starts it and pre-warms its
/// cache.
fn set_up(
    workload: &str,
    profile: &Profile,
    args: &Args,
    instance: usize,
    dir: &Path,
    traced: bool,
) -> Result<(Server, Box<dyn KeySource>), String> {
    let seed = args.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ instance as u64;
    let mut source = new_source(workload, seed);
    let mut extra: Vec<String> = Vec::new();
    if workload == "serve-churn" {
        extra.extend(["--solver".into(), "ilp".into(), "--persist".into()]);
        extra.push(dir.join("segment").display().to_string());
    }
    if traced {
        extra.extend(["--trace-sample".into(), "1".into()]);
    }
    let server = Server::start(&args.strudel, dir, &extra)?;
    let count = if profile.prewarm == 0 {
        source.keys().len()
    } else {
        profile.prewarm
    };
    let items: Vec<Item> = (0..count)
        .map(|_| Item {
            due_ns: 0,
            conn: 0,
            key: source.next_prewarm(),
        })
        .collect();
    let mut conn = [Conn::open(&server.addr, Framing::Json)?];
    let mut bodies = [Bodies::default()];
    let keys = source.keys();
    let outcome = loadgen::drive(
        &mut conn,
        &items,
        &|_, key| &keys[key as usize].json_line,
        &mut bodies,
        Instant::now(),
        Limits {
            abort_outstanding: usize::MAX,
            drain: Duration::from_secs(120),
            spin: false,
        },
    )?;
    let answered_ok = outcome
        .body
        .iter()
        .all(|&b| b != NO_BODY && bodies[0].texts[b as usize].starts_with(b"{\"ok\":true"));
    if !answered_ok {
        return Err("a pre-warm request failed".to_owned());
    }
    Ok((server, source))
}

/// The latency window never stops early: it is the measurement. The
/// generator busy-polls, so its vCPU never sleeps and pays no host
/// wake-up per response (see `loadgen::Limits::spin`).
fn window_limits() -> Limits {
    Limits {
        abort_outstanding: usize::MAX,
        drain: Duration::from_secs(10),
        spin: true,
    }
}

/// A ladder step stops sending once a quarter second of arrivals is
/// outstanding: the server has fallen behind for good.
fn ladder_limits(rate: f64) -> Limits {
    Limits {
        abort_outstanding: ((rate / 4.0) as usize).max(64),
        ..window_limits()
    }
}

fn ladder_step(
    client: &mut Client,
    source: &mut dyn KeySource,
    rng: &mut StdRng,
    profile: &Profile,
    rate: f64,
    seconds: f64,
) -> Result<bool, String> {
    let plan = plan(source, rng, rate, seconds);
    let phase = client.run(source.keys(), &plan, ladder_limits(rate))?;
    let (p50, _) = phase.quantile(0.5);
    let (p99, _) = phase.quantile(0.99);
    let pass = !phase.aborted
        && phase.errors == 0
        && phase.unanswered == 0
        && p50 <= profile.p50_limit_us as f64;
    println!(
        "ladder {rate} req/s: {} sent, p50 {p50:.1} us, p99 {p99:.1} us, {} outstanding at the last \
         send, {} errors, {} unanswered{} -> {}",
        phase.sent.len(),
        phase.outstanding_at_end,
        phase.errors,
        phase.unanswered,
        if phase.aborted { ", stopped early" } else { "" },
        if pass { "pass" } else { "fail" }
    );
    Ok(pass)
}

fn print_window(label: &str, phase: &Phase) {
    let n = phase.latencies.len();
    let (p50, slices) = phase.quantile(0.5);
    let (p99, _) = phase.quantile(0.99);
    println!(
        "{label}: {} sent, {n} answered; median over {slices} slices: p50 {p50:.1} us, \
         p99 {p99:.1} us; whole window: p50 {:.1} us, p99 {:.1} us, p999 {:.1} us, max {:.1} us \
         ({} samples beyond p99); lag p99 {:.1} us, max {:.1} us",
        phase.sent.len(),
        micros(percentile(&phase.latencies, 0.5)),
        micros(percentile(&phase.latencies, 0.99)),
        micros(percentile(&phase.latencies, 0.999)),
        micros(phase.latencies.last().copied().unwrap_or(0)),
        n - (0.99 * n as f64).ceil() as usize,
        micros(percentile(&phase.lags, 0.99)),
        micros(phase.lags.last().copied().unwrap_or(0)),
    );
}

fn print_inputs(workload: &str, source: &dyn KeySource, plan: &[Item], status: &Json) {
    let keys = source.keys();
    let used: HashSet<u32> = plan.iter().map(|item| item.key).collect();
    let mean_bytes = |conn: u8, bytes: &dyn Fn(&Key) -> usize| {
        let sizes: Vec<usize> = plan
            .iter()
            .filter(|item| item.conn == conn)
            .map(|item| bytes(&keys[item.key as usize]))
            .collect();
        sizes.iter().sum::<usize>() as f64 / sizes.len().max(1) as f64
    };
    println!(
        "input {workload}: {} distinct keys in the window ({} generated) against a cache of {}; \
         request bytes bin1 {:.1}, line-JSON {:.1}",
        used.len(),
        keys.len(),
        int(status, &["cache", "capacity"]),
        mean_bytes(0, &|key| key.bin_frame.len()),
        mean_bytes(1, &|key| key.json_line.len()),
    );
    println!("input {workload}: {}", source.describe());
}

fn int(json: &Json, path: &[&str]) -> i64 {
    path.iter()
        .try_fold(json, |node, key| node.get(key))
        .and_then(Json::as_int)
        .unwrap_or(0)
}

/// The `q` quantile of a stage histogram, interpolated within its bucket
/// (values are whole µs, so bucket `[lo, hi]` spans `[lo, hi + 1)`): the
/// bucket bound alone would read the same on many runs. A stage that saw
/// no request in the window reads 0.
fn stage_quantile(hist: &HistogramSnapshot, q: f64) -> f64 {
    if hist.count == 0 {
        return 0.0;
    }
    let rank = q * hist.count as f64;
    let mut seen = 0.0;
    for (index, count) in hist.sparse() {
        let count = count as f64;
        if seen + count >= rank {
            let lo = if index == 0 {
                0
            } else {
                bucket_upper_bound(index - 1) + 1
            };
            let width = (bucket_upper_bound(index) + 1 - lo) as f64;
            return lo as f64 + width * (rank - seen) / count;
        }
        seen += count;
    }
    hist.max as f64
}

/// A stage histogram over the window between two status reads.
fn stage(before: &Json, after: &Json, name: &str) -> HistogramSnapshot {
    let read = |status: &Json| {
        status
            .get("observe")
            .and_then(|o| o.get("stages"))
            .and_then(|s| s.get(name))
            .and_then(histogram_from_json)
            .unwrap_or_else(HistogramSnapshot::empty)
    };
    let (b, a) = (read(before), read(after));
    let earlier: HashMap<usize, u64> = b.sparse().into_iter().collect();
    let pairs: Vec<(usize, u64)> = a
        .sparse()
        .into_iter()
        .map(|(i, c)| (i, c - earlier.get(&i).copied().unwrap_or(0)))
        .collect();
    HistogramSnapshot::from_sparse(&pairs, a.count - b.count, a.sum - b.sum, a.max)
}

/// The reference answer text of a key, computed in process the way the
/// server's default `request` mode computes it.
fn reference(key: &Key) -> Result<String, String> {
    let request = &key.request;
    let outcome = request
        .engine
        .build(None)
        .refine(
            &request.view,
            &request.spec,
            request.k.unwrap_or(1),
            request.theta.unwrap_or(Ratio::ZERO),
        )
        .map_err(|err| err.to_string())?;
    Ok(outcome_to_json(&WireOutcome::from_outcome(&outcome)).to_text())
}

enum Verdict {
    Refinement,
    Infeasible,
}

/// Checks one response body against its key: a well-formed success whose
/// refinement passes the certificate check; on `serve-hot` also equal,
/// byte for byte, to the in-process reference.
fn verdict(
    body: &[u8],
    key: &Key,
    hot_reference: Option<&str>,
) -> Result<(Source, Verdict), String> {
    let text = std::str::from_utf8(body).map_err(|_| "the response is not UTF-8".to_owned())?;
    let value = json::parse(text).map_err(|err| format!("unparsable response: {err}"))?;
    if value.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("error response: {text}"));
    }
    let source = value
        .get("source")
        .and_then(Json::as_str)
        .and_then(Source::parse)
        .ok_or_else(|| format!("response without a known source: {text}"))?;
    let result = value.get("result").ok_or("response without a result")?;
    let request = &key.request;
    let verdict = match result.get("outcome").and_then(Json::as_str) {
        Some("refinement") => {
            let refinement = result
                .get("refinement")
                .ok_or("a refinement outcome without a refinement")
                .map_err(str::to_owned)
                .and_then(|r| refinement_from_json(r).map_err(|err| err.to_string()))?;
            let sorts: Vec<Vec<usize>> = refinement
                .sorts
                .iter()
                .map(|s| s.signatures.clone())
                .collect();
            check::certificate(
                &request.view,
                &request.spec,
                request.k.unwrap_or(0),
                request.theta.unwrap_or(Ratio::ONE),
                &sorts,
            )?;
            Verdict::Refinement
        }
        Some("infeasible") => Verdict::Infeasible,
        other => return Err(format!("undecided or unknown outcome {other:?}")),
    };
    if let Some(reference) = hot_reference {
        if text != encode_success("refine", source, reference) {
            return Err(format!(
                "response differs from the in-process reference: {text}"
            ));
        }
    }
    Ok((source, verdict))
}

/// Checks every request sent so far; run after the timed windows.
fn check_all(workload: &str, ledger: &Ledger, keys: &[Key], seed: u64, report: &mut Report) {
    let hot = workload == "serve-hot";
    let mut references: HashMap<u32, Result<String, String>> = HashMap::new();
    // Per (connection, key, response body): the response's source and
    // whether it said infeasible, or why it failed its check.
    type Verdicts = HashMap<(u8, u32, u32), Result<(Source, bool), String>>;
    let mut verdicts = Verdicts::new();
    let (mut misses, mut infeasible_misses) = (0u64, 0u64);
    let mut infeasible_keys: Vec<u32> = Vec::new();
    for sent in &ledger.sent {
        if sent.body == NO_BODY {
            report.check(false, || {
                format!("request for key {} was never answered", sent.key)
            });
            continue;
        }
        let key = &keys[sent.key as usize];
        let outcome = verdicts
            .entry((sent.conn, sent.key, sent.body))
            .or_insert_with(|| {
                let reference = if hot {
                    match references.entry(sent.key).or_insert_with(|| reference(key)) {
                        Ok(text) => Some(text.clone()),
                        Err(err) => return Err(format!("reference failed: {err}")),
                    }
                } else {
                    None
                };
                let body = &ledger.bodies[sent.conn as usize].texts[sent.body as usize];
                verdict(body, key, reference.as_deref())
                    .map(|(source, v)| (source, matches!(v, Verdict::Infeasible)))
            });
        match outcome {
            Ok((source, infeasible)) => {
                report.check(true, String::new);
                if *source == Source::Solved {
                    misses += 1;
                    if *infeasible {
                        infeasible_misses += 1;
                        infeasible_keys.push(sent.key);
                    }
                }
            }
            Err(err) => {
                let err = err.clone();
                report.check(false, || format!("key {}: {err}", sent.key));
            }
        }
    }
    println!(
        "responses: {} checked, {misses} solved by the server, {:.3} of those infeasible",
        ledger.sent.len(),
        infeasible_misses as f64 / misses.max(1) as f64
    );
    if hot {
        return;
    }
    // A warm hint may pick a different witness, so infeasible answers are
    // re-decided cold, in process, on a seeded sample.
    infeasible_keys.sort_unstable();
    infeasible_keys.dedup();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x73616d70);
    rng.shuffle(&mut infeasible_keys);
    for &k in infeasible_keys.iter().take(16) {
        let request = &keys[k as usize].request;
        let outcome = IlpEngine::new().refine(
            &request.view,
            &request.spec,
            request.k.unwrap_or(1),
            request.theta.unwrap_or(Ratio::ONE),
        );
        report.check(matches!(outcome, Ok(RefineOutcome::Infeasible)), || {
            format!("key {k}: the server said infeasible, a cold solve says {outcome:?}")
        });
    }
}

/// Decode cost of the window's own frames, replayed in process through
/// the server's codecs plus the cache key: mean µs per request.
fn decode_cost(keys: &[Key], plan: &[Item]) -> f64 {
    let begin = Instant::now();
    let mut count = 0usize;
    for item in plan {
        let key = &keys[item.key as usize];
        let decoded = if item.conn == 0 {
            decode_payload(&key.bin_payload)
        } else {
            let line = &key.json_line[..key.json_line.len() - 1];
            decode_line(std::str::from_utf8(line).unwrap_or_default())
        };
        if let Decoded::Single(Ok(Request::Solve(request))) = decoded {
            std::hint::black_box(request.cache_key());
            count += 1;
        }
    }
    secs(begin) * 1e6 / count.max(1) as f64
}

pub fn run(workload: &str, args: &Args, report: &mut Report) -> Result<(), String> {
    let profile = if workload == "serve-hot" {
        &HOT
    } else {
        &CHURN
    };
    let base = PathBuf::from(".bench_run").join(format!("{workload}-{}", std::process::id()));
    let result = if args.trace {
        run_traced(workload, profile, args, &base, report)
    } else {
        run_untraced(workload, profile, args, &base, report)
    };
    let _ = std::fs::remove_dir_all(&base);
    let _ = std::fs::remove_dir(".bench_run");
    result
}

fn print_environment(workload: &str, server: &Server, dir: &Path) {
    println!("environment: poller backend {} (auto)", server.backend);
    if workload == "serve-churn" {
        println!(
            "environment: fsync policy interval:100 (the server default), segment on {}",
            stats::filesystem_of(dir)
        );
    }
}

/// The untraced run: several server instances, each set up and measured
/// through its own latency window; the last one also climbs the ladder.
/// Latency and memory are the median over instances, so one instance
/// that lands on a slow CPU placement moves them only as far as the next.
fn run_untraced(
    workload: &str,
    profile: &Profile,
    args: &Args,
    base: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let (mut setups, mut p50s, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let mut pooled: Vec<u64> = Vec::new();
    let mut max_rate = 0.0;
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x706c_616e);
    let window_s = args.seconds * profile.window_share / SETUPS as f64;
    for instance in 0..SETUPS {
        let begin = Instant::now();
        let dir = base.join(format!("server-{instance}"));
        let (server, mut source) = set_up(workload, profile, args, instance, &dir, false)?;
        setups.push(secs(begin));
        server.reset_peak_rss();
        let mut client = Client::open(&server.addr)?;
        let window_plan = plan(source.as_mut(), &mut rng, profile.nominal_rps, window_s);
        if instance == 0 {
            print_environment(workload, &server, &dir);
            print_inputs(workload, source.as_ref(), &window_plan, &server.status()?);
        }
        let window = client.run(source.keys(), &window_plan, window_limits())?;
        print_window(
            &format!("server {instance}: window at {} req/s", profile.nominal_rps),
            &window,
        );
        p50s.push(window.quantile(0.5).0);
        pooled.extend_from_slice(&window.latencies);
        // Peak memory of the server during the latency window: set-up's
        // transient buffers are left out, and so are the ladder's overload
        // steps, which would make it a measure of the overload.
        rss.push(stats::proc_status_mb(server.pid, "VmHWM").unwrap_or(f64::NAN));

        if instance + 1 == SETUPS {
            let step_s = args.seconds * (1.0 - profile.window_share) / profile.probes as f64;
            let (mut lo, mut hi) = (-1isize, profile.rungs as isize);
            for _ in 0..profile.probes {
                if hi - lo <= 1 {
                    break;
                }
                let mid = (lo + hi) / 2;
                let rate = profile.rate(mid as usize);
                if ladder_step(
                    &mut client,
                    source.as_mut(),
                    &mut rng,
                    profile,
                    rate,
                    step_s,
                )? {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            if lo >= 0 {
                max_rate = profile.rate(lo as usize);
            }
        }
        let Client { conns, ledger } = client;
        drop(conns);
        server.shutdown()?;
        check_all(workload, &ledger, source.keys(), args.seed, report);
    }

    pooled.sort_unstable();
    let beyond = pooled.len() - (0.99 * pooled.len() as f64).ceil() as usize;
    println!(
        "all windows: {} samples, p50 {:.1} us, p99 {:.1} us ({beyond} samples beyond), \
         p999 {:.1} us",
        pooled.len(),
        micros(percentile(&pooled, 0.5)),
        micros(percentile(&pooled, 0.99)),
        micros(percentile(&pooled, 0.999)),
    );
    // The p99 and the maximum rate are printed, not reported as metrics:
    // host scheduling stalls and the host's speed from one minute to the
    // next move them more than any change to the server would.
    println!("max_rate_rps = {max_rate} req/s");
    println!("set-ups {setups:?} s, window p50s {p50s:?} us, peaks {rss:?} MB");
    report.metric("setup_s", median(&setups), "s");
    report.metric("latency_p50_ms", median(&p50s) / 1e3, "ms");
    report.metric("peak_rss_mb", median(&rss), "MB");
    Ok(())
}

fn run_traced(
    workload: &str,
    profile: &Profile,
    args: &Args,
    base: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let window_s = args.seconds * profile.window_share;
    let mut cpu_per_req = Vec::new();
    let mut last = None;
    for traced in [false, true] {
        let dir = base.join(if traced { "traced" } else { "untraced" });
        let (server, mut source) = set_up(workload, profile, args, 0, &dir, traced)?;
        if traced {
            print_environment(workload, &server, &dir);
        }
        let mut client = Client::open(&server.addr)?;
        let mut rng = StdRng::seed_from_u64(args.seed ^ 0x706c_616e);
        let window_plan = plan(source.as_mut(), &mut rng, profile.nominal_rps, window_s);
        let before = server.status()?;
        let ticks = server.cpu_ticks();
        let window = client.run(source.keys(), &window_plan, window_limits())?;
        let ticks = server.cpu_ticks() - ticks;
        let after = server.status()?;
        let requests = (int(&after, &["requests", "refine"])
            - int(&before, &["requests", "refine"]))
        .max(1) as f64;
        cpu_per_req.push(ticks as f64 * stats::TICK_US / requests);
        print_window(
            &format!(
                "{} window at {} req/s",
                if traced { "traced" } else { "untraced" },
                profile.nominal_rps
            ),
            &window,
        );
        let Client { conns, ledger } = client;
        drop(conns);
        check_all(workload, &ledger, source.keys(), args.seed, report);
        if traced {
            print_inputs(workload, source.as_ref(), &window_plan, &after);
            let decode_us = decode_cost(source.keys(), &window_plan);
            last = Some((before, after, requests, window, decode_us));
        }
        server.shutdown()?;
    }
    let (before, after, requests, window, decode_us) = last.expect("the traced pass ran");
    let delta = |path: &[&str]| (int(&after, path) - int(&before, path)) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    report.metric(
        "loadgen.lag_p99_us",
        micros(percentile(&window.lags, 0.99)),
        "us",
    );
    report.metric("server.cpu_us_per_req", cpu_per_req[1], "us");
    report.metric(
        "trace.overhead_pct",
        100.0 * (cpu_per_req[1] / cpu_per_req[0] - 1.0),
        "%",
    );
    report.metric(
        "poller.syscalls_per_req",
        delta(&["poller", "syscalls"]) / requests,
        "count",
    );
    report.metric(
        "poller.wakeups_per_req",
        delta(&["poller", "wakeups"]) / requests,
        "count",
    );
    report.metric(
        "wire.bytes_in_per_req",
        delta(&["wire", "bytes_in"]) / requests,
        "B",
    );
    report.metric(
        "wire.bytes_out_per_req",
        delta(&["wire", "bytes_out"]) / requests,
        "B",
    );
    report.metric("protocol.decode_us", decode_us, "us");
    for name in ["decode", "admission", "cache", "flush", "solve"] {
        let hist = stage(&before, &after, name);
        report.metric(
            &format!("stage.{name}_p50_us"),
            stage_quantile(&hist, 0.5),
            "us",
        );
        if name == "flush" || name == "solve" {
            report.metric(
                &format!("stage.{name}_p99_us"),
                stage_quantile(&hist, 0.99),
                "us",
            );
        }
    }
    let hits = delta(&["cache", "hits"]);
    report.metric(
        "cache.hit_ratio",
        ratio(hits, hits + delta(&["cache", "misses"])),
        "ratio",
    );
    report.metric(
        "cache.evictions_per_req",
        delta(&["cache", "evictions"]) / requests,
        "count",
    );
    let shared = delta(&["singleflight", "shared"]);
    report.metric(
        "flight.coalesced_ratio",
        ratio(shared, shared + delta(&["singleflight", "leaders"])),
        "ratio",
    );
    report.metric(
        "hints.seed_hit_ratio",
        ratio(
            delta(&["solver", "seed_hits"]),
            delta(&["solver", "seed_lookups"]),
        ),
        "ratio",
    );
    let solves = delta(&["solver", "cold_solves"]) + delta(&["solver", "warm_solves"]);
    report.metric(
        "solver.nodes_per_solve",
        ratio(delta(&["solver", "nodes"]), solves),
        "count",
    );
    report.metric(
        "solver.conflicts_per_solve",
        ratio(delta(&["solver", "conflicts"]), solves),
        "count",
    );
    let puts = delta(&["persist", "puts"]);
    let bytes_per_put = if delta(&["persist", "compactions"]) == 0.0 {
        ratio(delta(&["persist", "file_bytes"]), puts)
    } else {
        ratio(
            int(&after, &["persist", "file_bytes"]) as f64,
            (int(&after, &["persist", "live"]) + int(&after, &["persist", "dead"])) as f64,
        )
    };
    report.metric("persist.bytes_per_put", bytes_per_put, "B");
    report.metric("persist.fsyncs", delta(&["persist", "fsyncs"]), "count");
    report.metric(
        "persist.compactions",
        delta(&["persist", "compactions"]),
        "count",
    );
    Ok(())
}
