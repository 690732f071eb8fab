//! `strudel client` — query a running refinement service.

use strudel_core::metrics::HistogramSnapshot;
use strudel_core::prelude::format_sigma;
use strudel_core::sigma::SigmaSpec;
use strudel_core::wire::WireRefinement;
use strudel_rules::prelude::Ratio;
use strudel_server::prelude::{
    Client, ClientError, ClientOptions, FramingMode, Json, Response, Router, RouterOptions,
    SolveOp, SolveRequest, Source,
};
use strudel_server::protocol::refinement_from_json;
use strudel_server::trace::histogram_from_json;

use crate::args::{parse_args, ArgSpec};
use crate::error::CliError;
use crate::io::{load_graph, views_of};
use crate::spec::{parse_engine, parse_sigma_spec, parse_time_limit};

/// Argument specification of `client`.
pub const SPEC: ArgSpec = ArgSpec {
    options: &[
        "addr",
        "cluster",
        "sort",
        "rule",
        "engine",
        "k",
        "theta",
        "step",
        "max-k",
        "time-limit",
        "tenant",
        "framing",
    ],
    flags: &["raw", "slow"],
    min_positional: 1,
    max_positional: 2,
};

/// Usage text of `client`.
pub const USAGE: &str =
    "strudel client <refine|highest-theta|lowest-k|batch|status|trace|shutdown> [FILE]
               [--addr HOST:PORT | --cluster HOST:PORT,HOST:PORT,…] [--sort IRI]
               [--rule SPEC] [--engine hybrid|ilp|greedy] [--k N] [--theta X]
               [--step X] [--max-k N] [--time-limit SECS] [--tenant NAME]
               [--framing bin|json|auto] [--raw] [--slow]
  Sends one request to a running 'strudel serve' (default --addr 127.0.0.1:7464).
  Solve operations load FILE, build its signature view locally, and ship the view;
  repeated identical requests are answered from the server's cache. 'batch' reads
  FILE as one JSON request object per line and ships them all in a single batch
  envelope (one line each way; responses in request order, elements fail
  independently). --raw prints the verbatim response line(s) instead of a report.
  --cluster lists every shard of a 'serve --shard i/n' cluster in shard order:
  solve requests are routed to the shard owning their key, batches are split
  into concurrent per-shard sub-batches, 'status' prints a per-shard table with
  aggregate totals, and 'shutdown' stops every shard. A shard entry may name
  replication standbys after '+' (--cluster a:1+a2:1,b:1+b2:1): when a shard's
  primary is unreachable the router retries with jittered backoff, then fails
  over to its standbys in order, adopting a promoted follower's replication
  epoch so a resurrected old leader is refused instead of serving stale.
  --tenant NAME tags solve requests with a tenant id (a server started with
  'serve --tenants' meters each tenant's cache share, admission rate, and
  compute-pool share; unset rides the unlimited 'default' tenant). An
  over-limit request gets a structured over_quota error naming the tenant
  and a retry_after_ms hint. --framing picks the wire framing: 'json' is the
  line-delimited default, 'bin' negotiates the length-prefixed bin1 framing
  (failing if the server refuses), and 'auto' tries bin1 but falls back to
  json. Responses are byte-identical either way; unset defers to the
  STRUDEL_FRAMING environment variable. 'trace' dumps the server's flight
  recorder — the per-request lifecycle spans 'serve --trace-sample' /
  '--trace-slow-ms' record — as one JSON object per line: --slow keeps only
  spans the slow-request log promoted, and --tenant filters to one tenant's
  spans. When tracing is on, 'status' renders the observe block: per-stage
  latency histograms (decode, admission, cache, solve, flush, total) and
  the recorder's depth/dropped gauges; the cluster status table adds a
  per-shard and merged total-latency p99 column.";

/// Runs the command.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let parsed = parse_args(args, &SPEC)?;
    let op_text = parsed.positional(0).expect("spec requires one positional");
    if let Some(cluster) = parsed.option("cluster") {
        if parsed.option("addr").is_some() {
            return Err(CliError::Usage(
                "--addr and --cluster are mutually exclusive".to_owned(),
            ));
        }
        return run_cluster(op_text, cluster, &parsed);
    }
    let addr = parsed.option("addr").unwrap_or("127.0.0.1:7464");
    let options = ClientOptions {
        framing: framing_option(&parsed)?,
        ..ClientOptions::default()
    };
    let mut client = Client::connect_with(addr, options).map_err(client_error)?;

    let response = match op_text {
        "status" => client.status().map_err(client_error)?,
        "shutdown" => client.shutdown().map_err(client_error)?,
        "batch" => return run_batch(&mut client, &parsed),
        "trace" => {
            let response = client
                .trace(parsed.has_flag("slow"), parsed.option("tenant"))
                .map_err(client_error)?;
            if parsed.has_flag("raw") {
                return Ok(response.raw.clone());
            }
            return render_trace(&response);
        }
        "refine" | "highest-theta" | "lowest-k" => {
            let op = match op_text {
                "refine" => SolveOp::Refine,
                "highest-theta" => SolveOp::HighestTheta,
                _ => SolveOp::LowestK,
            };
            let request = build_solve_request(op, &parsed)?;
            client.solve(&request).map_err(client_error)?
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown client operation '{other}'; expected refine, highest-theta, \
                 lowest-k, batch, status, trace, or shutdown"
            )))
        }
    };

    if parsed.has_flag("raw") {
        return Ok(response.raw.clone());
    }
    render_response(op_text, &response)
}

/// Dispatches a `--cluster` invocation through the shard [`Router`].
fn run_cluster(
    op_text: &str,
    cluster: &str,
    parsed: &crate::args::ParsedArgs,
) -> Result<String, CliError> {
    let addrs: Vec<&str> = cluster
        .split(',')
        .map(str::trim)
        .filter(|addr| !addr.is_empty())
        .collect();
    if addrs.is_empty() {
        return Err(CliError::Usage(
            "--cluster needs a comma-separated list of shard addresses".to_owned(),
        ));
    }
    let options = RouterOptions {
        client: ClientOptions {
            framing: framing_option(parsed)?,
            ..ClientOptions::default()
        },
        ..RouterOptions::default()
    };
    let mut router = Router::connect_with(&addrs, options).map_err(client_error)?;
    match op_text {
        "status" => render_cluster_status(&mut router, parsed.has_flag("raw")),
        "trace" => {
            let outcomes = router.trace_all(parsed.has_flag("slow"), parsed.option("tenant"));
            let mut out = String::new();
            for (idx, outcome) in outcomes.iter().enumerate() {
                match outcome {
                    Err(err) => out.push_str(&format!("shard {idx}: unreachable: {err}\n")),
                    Ok(response) if parsed.has_flag("raw") => {
                        out.push_str(&response.raw);
                        out.push('\n');
                    }
                    Ok(response) => {
                        out.push_str(&format!("shard {idx}:\n"));
                        out.push_str(&render_trace(response)?);
                    }
                }
            }
            Ok(out)
        }
        "shutdown" => {
            router.shutdown_all().map_err(client_error)?;
            Ok(format!("{} shard(s) are stopping\n", router.shard_count()))
        }
        "batch" => {
            let requests = read_batch_file(parsed)?;
            let outcomes = router.call_batch(&requests).map_err(client_error)?;
            render_batch_outcomes(&outcomes, parsed.has_flag("raw"))
        }
        "refine" | "highest-theta" | "lowest-k" => {
            let op = match op_text {
                "refine" => SolveOp::Refine,
                "highest-theta" => SolveOp::HighestTheta,
                _ => SolveOp::LowestK,
            };
            let request = build_solve_request(op, parsed)?;
            let shard = router.shard_of(&request);
            let response = router.solve(&request).map_err(client_error)?;
            if parsed.has_flag("raw") {
                return Ok(response.raw.clone());
            }
            let mut out = format!("routed to shard {shard}/{}\n", router.shard_count());
            out.push_str(&render_response(op_text, &response)?);
            Ok(out)
        }
        other => Err(CliError::Usage(format!(
            "unknown client operation '{other}'; expected refine, highest-theta, \
             lowest-k, batch, status, trace, or shutdown"
        ))),
    }
}

/// `client trace`: the recorder gauges plus one JSON object per span.
fn render_trace(response: &Response) -> Result<String, CliError> {
    let Some(result) = response.result() else {
        return Err(CliError::Usage("malformed trace response".to_owned()));
    };
    let depth = result.get("depth").and_then(Json::as_int).unwrap_or(0);
    let dropped = result.get("dropped").and_then(Json::as_int).unwrap_or(0);
    let spans: &[Json] = match result.get("spans") {
        Some(Json::Arr(spans)) => spans,
        _ => &[],
    };
    let mut out = format!(
        "trace: {} span(s), recorder depth {depth}, dropped {dropped}\n",
        spans.len()
    );
    for span in spans {
        out.push_str(&span.to_string());
        out.push('\n');
    }
    Ok(out)
}

/// `client status --cluster …`: one row per shard plus aggregate totals.
fn render_cluster_status(router: &mut Router, raw: bool) -> Result<String, CliError> {
    let statuses = router.status_all();
    let addrs: Vec<String> = router.addrs().iter().map(|a| (*a).to_owned()).collect();
    if raw {
        let mut out = String::new();
        for status in &statuses {
            match status {
                Ok(response) => out.push_str(&response.raw),
                Err(err) => out.push_str(&strudel_server::protocol::encode_error(&err.to_string())),
            }
            out.push('\n');
        }
        return Ok(out);
    }
    let mut out = format!(
        "{:<5} {:<21} {:<8} {:<7} {:>8} {:>8} {:>8} {:>8} {:>8} {:>11} {:>6} {:>8}\n",
        "shard",
        "addr",
        "role",
        "poller",
        "solves",
        "hits",
        "misses",
        "hit_rate",
        "entries",
        "wrong_shard",
        "lag",
        "p99_us"
    );
    let mut totals = ClusterTotals::default();
    for (idx, status) in statuses.iter().enumerate() {
        let addr = addrs.get(idx).map(String::as_str).unwrap_or("?");
        match status {
            Err(err) => out.push_str(&format!("{idx:<5} {addr:<21} unreachable: {err}\n")),
            Ok(response) => match response.result() {
                None => out.push_str(&format!("{idx:<5} {addr:<21} malformed status\n")),
                Some(result) => out.push_str(&shard_status_row(idx, addr, result, &mut totals)),
            },
        }
    }
    let total_rate = if totals.hits + totals.misses == 0 {
        "0.0000".to_owned()
    } else {
        format!(
            "{:.4}",
            totals.hits as f64 / (totals.hits + totals.misses) as f64
        )
    };
    let total_p99 = totals
        .stages
        .iter()
        .find(|(name, _)| name == "total")
        .map_or_else(|| "-".to_owned(), |(_, merged)| merged.p99().to_string());
    out.push_str(&format!(
        "{:<5} {:<21} {:<8} {:<7} {:>8} {:>8} {:>8} {total_rate:>8} {:>8} {:>11} {:>6} {total_p99:>8}\n",
        "total",
        "",
        "",
        "",
        totals.solves,
        totals.hits,
        totals.misses,
        totals.entries,
        totals.wrong,
        "",
    ));
    // Fleet-wide stage quantiles, merged bucket-by-bucket from every
    // reporting shard's observe histograms. Absent with tracing off.
    if !totals.stages.is_empty() {
        out.push_str("stages (merged across shards):\n");
        for (name, merged) in &totals.stages {
            out.push_str(&format!(
                "  {name:<10} {:>8} spans, p50 {:>6} us, p99 {:>6} us, max {:>6} us\n",
                merged.count,
                merged.p50(),
                merged.p99(),
                merged.max,
            ));
        }
    }
    // Per-tenant roll-up across shards, shown only when some shard knows a
    // tenant beyond the implicit 'default' (a tenancy-free cluster keeps
    // the pre-tenancy table shape).
    let mut tenants: Vec<(String, [i64; 4])> = Vec::new();
    for response in statuses.iter().flatten() {
        let Some(result) = response.result() else {
            continue;
        };
        let Some(Json::Arr(list)) = result.get("tenants") else {
            continue;
        };
        for tenant in list {
            let name = tenant
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_owned();
            let field = |key: &str| tenant.get(key).and_then(Json::as_int).unwrap_or(0);
            let row = [
                field("hits"),
                field("misses"),
                field("refusals"),
                field("entries"),
            ];
            match tenants.iter_mut().find(|(seen, _)| *seen == name) {
                Some((_, acc)) => {
                    for (sum, add) in acc.iter_mut().zip(row) {
                        *sum += add;
                    }
                }
                None => tenants.push((name, row)),
            }
        }
    }
    if tenants.iter().any(|(name, _)| name != "default") {
        out.push_str("tenants:\n");
        for (name, [hits, misses, refusals, entries]) in &tenants {
            out.push_str(&format!(
                "  {name}: {hits} hits, {misses} misses, {refusals} refusals, {entries} entries\n"
            ));
        }
    }
    Ok(out)
}

/// Accumulated cluster totals: scalar counters summed across shards, plus
/// per-stage latency histograms merged for fleet-wide quantiles.
#[derive(Default)]
struct ClusterTotals {
    solves: i64,
    hits: i64,
    misses: i64,
    entries: i64,
    wrong: i64,
    stages: Vec<(String, HistogramSnapshot)>,
}

/// Walks a nested path of status object members.
fn status_path<'a>(result: &'a Json, path: &[&str]) -> Option<&'a Json> {
    let mut value = result;
    for key in path {
        value = value.get(key)?;
    }
    Some(value)
}

/// A counter cell of the cluster table: the value at `path`, or `-` when
/// the shard's status lacks the enclosing `block` entirely (an older build,
/// or a feature left off). A missing block must read as missing — rendering
/// it as a silent zero hides which shards actually reported.
fn block_cell(result: &Json, block: &str, path: &[&str]) -> String {
    match result.get(block) {
        None => "-".to_owned(),
        Some(_) => status_path(result, path)
            .and_then(Json::as_int)
            .unwrap_or(0)
            .to_string(),
    }
}

/// One shard's row of the cluster status table, accumulated into `totals`
/// (blocks the shard didn't report contribute nothing).
fn shard_status_row(idx: usize, addr: &str, result: &Json, totals: &mut ClusterTotals) -> String {
    let int = |path: &[&str]| {
        status_path(result, path)
            .and_then(Json::as_int)
            .unwrap_or(0)
    };
    let row_solves = int(&["requests", "refine"])
        + int(&["requests", "highest_theta"])
        + int(&["requests", "lowest_k"]);
    let row_hits = int(&["cache", "hits"]);
    let row_misses = int(&["cache", "misses"]);
    let hit_rate = status_path(result, &["cache", "hit_rate"])
        .and_then(Json::as_str)
        .unwrap_or("-");
    let role = status_path(result, &["replication", "role"])
        .and_then(Json::as_str)
        .unwrap_or("-");
    let backend = status_path(result, &["poller", "backend"])
        .and_then(Json::as_str)
        .unwrap_or("-");
    let entries = int(&["cache", "entries"]);
    let wrong = block_cell(result, "shard", &["shard", "wrong_shard"]);
    let lag = block_cell(result, "replication", &["replication", "lag"]);
    let mut p99 = "-".to_owned();
    if let Some(Json::Obj(members)) = status_path(result, &["observe", "stages"]) {
        for (name, stage) in members {
            let Some(histogram) = histogram_from_json(stage) else {
                continue;
            };
            if histogram.count == 0 {
                continue;
            }
            if name == "total" {
                p99 = histogram.p99().to_string();
            }
            match totals.stages.iter_mut().find(|(seen, _)| seen == name) {
                Some((_, merged)) => merged.merge(&histogram),
                None => totals.stages.push((name.clone(), histogram)),
            }
        }
    }
    totals.solves += row_solves;
    totals.hits += row_hits;
    totals.misses += row_misses;
    totals.entries += entries;
    if result.get("shard").is_some() {
        totals.wrong += int(&["shard", "wrong_shard"]);
    }
    format!(
        "{idx:<5} {addr:<21} {role:<8} {backend:<7} {row_solves:>8} {row_hits:>8} \
         {row_misses:>8} {hit_rate:>8} {entries:>8} {wrong:>11} {lag:>6} {p99:>8}\n"
    )
}

/// Reads the `client batch` FILE: one JSON request object per line.
fn read_batch_file(parsed: &crate::args::ParsedArgs) -> Result<Vec<Json>, CliError> {
    let Some(path) = parsed.positional(1) else {
        return Err(CliError::Usage(
            "'client batch' needs a FILE with one JSON request per line".to_owned(),
        ));
    };
    let text = std::fs::read_to_string(path).map_err(|source| CliError::Io {
        path: path.to_owned(),
        source,
    })?;
    let requests: Vec<Json> = text
        .lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| {
            strudel_server::json::parse(line)
                .map_err(|err| CliError::Usage(format!("invalid request line in {path}: {err}")))
        })
        .collect::<Result<_, _>>()?;
    if requests.is_empty() {
        return Err(CliError::Usage(format!("{path} contains no requests")));
    }
    Ok(requests)
}

/// `client batch FILE`: one JSON request object per line of FILE, shipped
/// as a single batch envelope.
fn run_batch(client: &mut Client, parsed: &crate::args::ParsedArgs) -> Result<String, CliError> {
    let requests = read_batch_file(parsed)?;
    let outcomes = client.call_batch(&requests).map_err(client_error)?;
    render_batch_outcomes(&outcomes, parsed.has_flag("raw"))
}

/// Renders per-element batch outcomes (shared by the single-server and
/// cluster paths).
fn render_batch_outcomes(
    outcomes: &[Result<Response, String>],
    raw: bool,
) -> Result<String, CliError> {
    let mut out = String::new();
    if raw {
        for outcome in outcomes {
            match outcome {
                Ok(response) => out.push_str(&response.raw),
                Err(message) => out.push_str(&strudel_server::protocol::encode_error(message)),
            }
            out.push('\n');
        }
        return Ok(out);
    }
    out.push_str(&format!("batch of {} request(s):\n", outcomes.len()));
    for (idx, outcome) in outcomes.iter().enumerate() {
        match outcome {
            Ok(response) => {
                let op = response
                    .value
                    .get("op")
                    .and_then(Json::as_str)
                    .unwrap_or("?");
                let source = response.source().map(Source::name).unwrap_or("?");
                out.push_str(&format!("  [{idx}] ok: {op}, source: {source}\n"));
            }
            Err(message) => out.push_str(&format!("  [{idx}] error: {message}\n")),
        }
    }
    Ok(out)
}

/// The validated `--framing` choice, if any. `None` lets the client defer
/// to `STRUDEL_FRAMING` and then to the line-JSON default.
fn framing_option(parsed: &crate::args::ParsedArgs) -> Result<Option<FramingMode>, CliError> {
    match parsed.option("framing") {
        Some(text) => FramingMode::parse(text)
            .map(Some)
            .map_err(|err| CliError::Usage(format!("invalid value '{text}' for --framing: {err}"))),
        None => Ok(None),
    }
}

fn client_error(err: ClientError) -> CliError {
    match err {
        ClientError::Io(source) => CliError::Io {
            path: "server connection".to_owned(),
            source,
        },
        other => CliError::Usage(other.to_string()),
    }
}

fn build_solve_request(
    op: SolveOp,
    parsed: &crate::args::ParsedArgs,
) -> Result<SolveRequest, CliError> {
    let Some(path) = parsed.positional(1) else {
        return Err(CliError::Usage(format!(
            "'client {}' needs a dataset FILE to build the view from",
            op.name()
        )));
    };
    let graph = load_graph(path)?;
    let (_, view) = views_of(&graph, parsed.option("sort"))?;

    let spec = match parsed.option("rule") {
        Some(text) => parse_sigma_spec(text)?,
        None => SigmaSpec::Coverage,
    };
    let engine = parse_engine(parsed)?;
    let theta = match parsed.option("theta") {
        Some(text) => Some(parse_ratio(text, "theta")?),
        None => None,
    };
    let step = match parsed.option("step") {
        Some(text) => Some(parse_ratio(text, "step")?),
        None => None,
    };
    let tenant = match parsed.option("tenant") {
        Some(name) => {
            strudel_server::protocol::validate_tenant(name).map_err(|err| {
                CliError::Usage(format!("invalid value '{name}' for --tenant: {err}"))
            })?;
            Some(name.to_owned())
        }
        None => None,
    };
    let request = SolveRequest {
        op,
        view,
        spec,
        engine,
        k: parsed.option_parsed::<usize>("k")?,
        theta,
        step,
        max_k: parsed.option_parsed::<usize>("max-k")?,
        time_limit: parse_time_limit(parsed)?,
        routing: None, // the Router stamps this when --cluster is given
        tenant,
    };
    // Mirror the server's validation client-side for friendlier messages.
    match op {
        SolveOp::Refine if request.k.is_none() || request.theta.is_none() => Err(CliError::Usage(
            "'client refine' needs --k and --theta".to_owned(),
        )),
        SolveOp::HighestTheta if request.k.is_none() => Err(CliError::Usage(
            "'client highest-theta' needs --k".to_owned(),
        )),
        SolveOp::LowestK if request.theta.is_none() => Err(CliError::Usage(
            "'client lowest-k' needs --theta".to_owned(),
        )),
        _ => Ok(request),
    }
}

fn parse_ratio(text: &str, name: &str) -> Result<Ratio, CliError> {
    Ratio::parse(text)
        .map_err(|err| CliError::Usage(format!("invalid value '{text}' for --{name}: {err}")))
}

fn render_response(op: &str, response: &Response) -> Result<String, CliError> {
    let source = match response.source() {
        Some(Source::Solved) => "solved",
        Some(Source::Cache) => "cache",
        Some(Source::Coalesced) => "coalesced",
        None => "?",
    };
    let mut out = format!("op: {op}, source: {source}\n");
    let Some(result) = response.result() else {
        return Ok(out);
    };
    match op {
        "status" => out.push_str(&render_status(result)),
        "shutdown" => out.push_str("server is stopping\n"),
        "refine" => match result.get("outcome").and_then(Json::as_str) {
            Some("refinement") => {
                out.push_str("outcome: refinement exists\n");
                if let Some(refinement) = result.get("refinement") {
                    out.push_str(&render_refinement(refinement)?);
                }
            }
            Some(other) => out.push_str(&format!("outcome: {other}\n")),
            None => out.push_str("outcome: missing\n"),
        },
        "highest-theta" => {
            if let Some(theta) = result.get("theta").and_then(Json::as_str) {
                let pretty = Ratio::parse(theta)
                    .map(format_sigma)
                    .unwrap_or_else(|_| theta.to_owned());
                out.push_str(&format!("highest θ: {pretty}\n"));
            }
            out.push_str(&render_search_tail(result)?);
        }
        "lowest-k" => {
            match result.get("k") {
                Some(Json::Int(k)) => out.push_str(&format!("lowest k: {k}\n")),
                _ => out.push_str("no k meets the threshold within the sweep bound\n"),
            }
            out.push_str(&render_search_tail(result)?);
        }
        _ => {}
    }
    Ok(out)
}

fn render_search_tail(result: &Json) -> Result<String, CliError> {
    let mut out = String::new();
    if let Some(probes) = result.get("probes").and_then(Json::as_int) {
        out.push_str(&format!("probes: {probes}\n"));
    }
    if result.get("hit_budget").and_then(Json::as_bool) == Some(true) {
        out.push_str("(budget-limited)\n");
    }
    match result.get("refinement") {
        Some(Json::Null) | None => {}
        Some(refinement) => out.push_str(&render_refinement(refinement)?),
    }
    Ok(out)
}

fn render_refinement(value: &Json) -> Result<String, CliError> {
    let wire: WireRefinement = refinement_from_json(value)
        .map_err(|err| CliError::Usage(format!("malformed server response: {err}")))?;
    let mut out = format!("{} implicit sort(s):\n", wire.sorts.len());
    for (idx, sort) in wire.sorts.iter().enumerate() {
        let sigma = Ratio::parse(&sort.sigma)
            .map(format_sigma)
            .unwrap_or_else(|_| sort.sigma.clone());
        out.push_str(&format!(
            "  sort {idx}: {} subjects, {} signatures, σ = {sigma}\n",
            sort.subjects,
            sort.signatures.len(),
        ));
    }
    Ok(out)
}

fn render_status(result: &Json) -> String {
    let int = |path: &[&str]| -> i64 {
        let mut value = result;
        for key in path {
            match value.get(key) {
                Some(inner) => value = inner,
                None => return 0,
            }
        }
        value.as_int().unwrap_or(0)
    };
    let mut out = format!(
        "workers: {}, uptime: {} ms, connections: {} ({} open)\n\
         requests: {} refine / {} highest-theta / {} lowest-k / {} status, errors: {}\n\
         batches: {} envelopes carrying {} requests\n\
         cache: {} hits, {} misses, {} evictions, {} resident of {}\n\
         single-flight: {} solves led, {} requests coalesced\n",
        int(&["workers"]),
        int(&["uptime_ms"]),
        int(&["connections"]),
        int(&["open_connections"]),
        int(&["requests", "refine"]),
        int(&["requests", "highest_theta"]),
        int(&["requests", "lowest_k"]),
        int(&["requests", "status"]),
        int(&["requests", "errors"]),
        int(&["requests", "batch"]),
        int(&["requests", "batched"]),
        int(&["cache", "hits"]),
        int(&["cache", "misses"]),
        int(&["cache", "evictions"]),
        int(&["cache", "entries"]),
        int(&["cache", "capacity"]),
        int(&["singleflight", "leaders"]),
        int(&["singleflight", "shared"]),
    );
    if let Some(poller) = result.get("poller") {
        let backend = poller.get("backend").and_then(Json::as_str).unwrap_or("?");
        out.push_str(&format!(
            "poller: {backend} backend, {} waits, {} wakeups, {} spurious, {} syscalls, \
             {} fds registered\n",
            int(&["poller", "waits"]),
            int(&["poller", "wakeups"]),
            int(&["poller", "spurious"]),
            int(&["poller", "syscalls"]),
            int(&["poller", "registered"]),
        ));
    }
    if result.get("wire").is_some() {
        out.push_str(&format!(
            "wire: {} frames in / {} out, {} bytes in / {} out, {} decode errors, \
             {} bin1 + {} json connection(s)\n",
            int(&["wire", "frames_in"]),
            int(&["wire", "frames_out"]),
            int(&["wire", "bytes_in"]),
            int(&["wire", "bytes_out"]),
            int(&["wire", "decode_errors"]),
            int(&["wire", "connections", "bin1"]),
            int(&["wire", "connections", "json"]),
        ));
    }
    if let Some(solver) = result.get("solver") {
        let mode = solver.get("mode").and_then(Json::as_str).unwrap_or("?");
        out.push_str(&format!(
            "solver: {mode} mode, {} solves, {} nodes ({} propagations, {} conflicts)\n",
            int(&["solver", "cold_solves"]),
            int(&["solver", "nodes"]),
            int(&["solver", "propagations"]),
            int(&["solver", "conflicts"]),
        ));
    }
    if let Some(observe) = result.get("observe") {
        let sample = int(&["observe", "sample_every"]);
        let slow_ms = observe.get("slow_ms").and_then(Json::as_int).unwrap_or(-1);
        // Silent unless tracing is (or was) on: a tracing-free server keeps
        // the pre-observability report shape.
        if sample > 0 || slow_ms >= 0 || int(&["observe", "ticks"]) > 0 {
            let sampling = if sample > 0 {
                format!("1/{sample}")
            } else {
                "off".to_owned()
            };
            let slow = if slow_ms >= 0 {
                format!(">= {slow_ms} ms")
            } else {
                "off".to_owned()
            };
            out.push_str(&format!(
                "observe: sampling {sampling}, slow log {slow}, {} seen ({} sampled, {} slow), \
                 recorder {}/{} (dropped {})\n",
                int(&["observe", "ticks"]),
                int(&["observe", "sampled"]),
                int(&["observe", "slow"]),
                int(&["observe", "recorder", "depth"]),
                int(&["observe", "recorder", "capacity"]),
                int(&["observe", "recorder", "dropped"]),
            ));
            out.push_str(&format!(
                "  {:<10} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
                "stage", "count", "p50_us", "p90_us", "p99_us", "max_us"
            ));
            if let Some(Json::Obj(stages)) = observe.get("stages") {
                for (name, stage) in stages {
                    let field = |key: &str| stage.get(key).and_then(Json::as_int).unwrap_or(0);
                    out.push_str(&format!(
                        "  {name:<10} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
                        field("count"),
                        field("p50"),
                        field("p90"),
                        field("p99"),
                        field("max"),
                    ));
                }
            }
            if let Some(Json::Arr(tenants)) = observe.get("tenants") {
                for tenant in tenants {
                    let name = tenant.get("name").and_then(Json::as_str).unwrap_or("?");
                    let field = |key: &str| tenant.get(key).and_then(Json::as_int).unwrap_or(0);
                    // The lone implicit tenant adds nothing over the
                    // 'total' stage row.
                    if name != "default" || tenants.len() > 1 {
                        out.push_str(&format!(
                            "  tenant {name}: {} span(s), p50 {} us, p99 {} us\n",
                            field("count"),
                            field("p50"),
                            field("p99"),
                        ));
                    }
                }
            }
        }
    }
    if result.get("persist").map(|p| p != &Json::Null) == Some(true) {
        out.push_str(&format!(
            "persist: {} replayed, {} puts, {} tombstones, {} dead of {} live, {} compactions, {} fsyncs\n",
            int(&["persist", "replayed"]),
            int(&["persist", "puts"]),
            int(&["persist", "tombstones"]),
            int(&["persist", "dead"]),
            int(&["persist", "live"]),
            int(&["persist", "compactions"]),
            int(&["persist", "fsyncs"]),
        ));
    }
    if let Some(repl) = result.get("replication") {
        let role = repl.get("role").and_then(Json::as_str).unwrap_or("?");
        let leader = repl
            .get("leader")
            .and_then(Json::as_str)
            .map(|addr| format!(" of {addr}"))
            .unwrap_or_default();
        out.push_str(&format!(
            "replication: {role}{leader}, epoch {}, seq {} (lag {}), {} subscriber(s), \
             {} sent / {} applied\n",
            int(&["replication", "epoch"]),
            int(&["replication", "last_seq"]),
            int(&["replication", "lag"]),
            int(&["replication", "subscribers"]),
            int(&["replication", "records_sent"]),
            int(&["replication", "records_applied"]),
        ));
    }
    if let Some(Json::Arr(tenants)) = result.get("tenants") {
        for tenant in tenants {
            let name = tenant.get("name").and_then(Json::as_str).unwrap_or("?");
            let field = |key: &str| tenant.get(key).and_then(Json::as_int).unwrap_or(0);
            out.push_str(&format!(
                "tenant {name}: {} hits, {} misses, {} evictions, {} refusals, \
                 {} inflight, {} resident (reserve {})\n",
                field("hits"),
                field("misses"),
                field("evictions"),
                field("refusals"),
                field("inflight"),
                field("entries"),
                field("reserved"),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::test_support::{args, write_persons_ntriples};
    use strudel_server::prelude::{start_server, ServerConfig};

    fn start_test_server() -> (strudel_server::prelude::ServerHandle, String) {
        let handle = start_server(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            cache_capacity: 16,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = handle.addr().to_string();
        (handle, addr)
    }

    #[test]
    fn refine_round_trips_and_second_call_hits_the_cache() {
        let (handle, addr) = start_test_server();
        let file = write_persons_ntriples("client-refine");
        let file = file.to_str().unwrap();

        let request = [
            "refine",
            file,
            "--addr",
            &addr,
            "--sort",
            "http://ex/Person",
            "--k",
            "2",
            "--theta",
            "0.8",
        ];
        let cold = run(&args(&request)).unwrap();
        assert!(cold.contains("source: solved"), "cold: {cold}");
        assert!(
            cold.contains("outcome:"),
            "cold response must state the outcome: {cold}"
        );

        let warm = run(&args(&request)).unwrap();
        assert!(warm.contains("source: cache"), "warm: {warm}");
        // Identical answers modulo the source line.
        assert_eq!(
            cold.replace("source: solved", "source: X"),
            warm.replace("source: cache", "source: X"),
        );

        let status = run(&args(&["status", "--addr", &addr])).unwrap();
        assert!(status.contains("cache: 1 hits"), "status: {status}");
        assert!(status.contains("solver: request mode"), "status: {status}");

        run(&args(&["shutdown", "--addr", &addr])).unwrap();
        handle.wait();
        std::fs::remove_file(file).ok();
    }

    #[test]
    fn search_operations_render_their_results() {
        let (handle, addr) = start_test_server();
        let file = write_persons_ntriples("client-search");
        let file = file.to_str().unwrap();

        let output = run(&args(&[
            "highest-theta",
            file,
            "--addr",
            &addr,
            "--sort",
            "http://ex/Person",
            "--k",
            "2",
        ]))
        .unwrap();
        assert!(output.contains("highest θ"), "output: {output}");
        assert!(output.contains("implicit sort(s)"), "output: {output}");

        let output = run(&args(&[
            "lowest-k",
            file,
            "--addr",
            &addr,
            "--sort",
            "http://ex/Person",
            "--theta",
            "0.9",
            "--max-k",
            "6",
        ]))
        .unwrap();
        assert!(output.contains("lowest k"), "output: {output}");

        let raw = run(&args(&[
            "refine",
            file,
            "--addr",
            &addr,
            "--sort",
            "http://ex/Person",
            "--k",
            "2",
            "--theta",
            "1/2",
            "--raw",
        ]))
        .unwrap();
        assert!(raw.starts_with("{\"ok\":true,"), "raw: {raw}");

        run(&args(&["shutdown", "--addr", &addr])).unwrap();
        handle.wait();
        std::fs::remove_file(file).ok();
    }

    #[test]
    fn batch_files_ship_one_envelope_and_render_per_element() {
        let (handle, addr) = start_test_server();
        let path =
            std::env::temp_dir().join(format!("strudel-cli-batch-{}.jsonl", std::process::id()));
        std::fs::write(
            &path,
            "{\"op\":\"status\"}\n\
             {\"op\":\"refine\",\"view\":{\"properties\":[\"p\"],\"signatures\":[[[0],3]]},\"k\":1,\"theta\":\"1/2\"}\n\
             {\"op\":\"frobnicate\"}\n",
        )
        .unwrap();
        let file = path.to_str().unwrap();

        let report = run(&args(&["batch", file, "--addr", &addr])).unwrap();
        assert!(report.contains("batch of 3 request(s)"), "report: {report}");
        assert!(report.contains("[0] ok: status"), "report: {report}");
        assert!(report.contains("[1] ok: refine"), "report: {report}");
        assert!(report.contains("[2] error:"), "report: {report}");

        let raw = run(&args(&["batch", file, "--addr", &addr, "--raw"])).unwrap();
        let lines: Vec<&str> = raw.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(
            lines[1].contains("\"source\":\"cache\"") || lines[1].contains("\"source\":\"solved\"")
        );
        assert!(lines[2].starts_with("{\"ok\":false"), "raw: {raw}");

        run(&args(&["shutdown", "--addr", &addr])).unwrap();
        handle.wait();
        std::fs::remove_file(&path).ok();
    }

    fn start_test_cluster() -> (Vec<strudel_server::prelude::ServerHandle>, String) {
        use strudel_server::prelude::ShardSpec;
        let handles: Vec<_> = (0..3)
            .map(|index| {
                start_server(&ServerConfig {
                    addr: "127.0.0.1:0".into(),
                    workers: 1,
                    cache_capacity: 16,
                    shard: Some(ShardSpec { index, count: 3 }),
                    ..ServerConfig::default()
                })
                .unwrap()
            })
            .collect();
        let cluster = handles
            .iter()
            .map(|handle| handle.addr().to_string())
            .collect::<Vec<_>>()
            .join(",");
        (handles, cluster)
    }

    #[test]
    fn cluster_solves_route_and_status_aggregates_across_shards() {
        let (handles, cluster) = start_test_cluster();
        let file = write_persons_ntriples("client-cluster");
        let file = file.to_str().unwrap();

        let request = [
            "refine",
            file,
            "--cluster",
            &cluster,
            "--sort",
            "http://ex/Person",
            "--k",
            "2",
            "--theta",
            "0.8",
        ];
        let cold = run(&args(&request)).unwrap();
        assert!(cold.contains("routed to shard"), "cold: {cold}");
        assert!(cold.contains("source: solved"), "cold: {cold}");
        let warm = run(&args(&request)).unwrap();
        assert!(
            warm.contains("source: cache"),
            "the same key must route to the same shard: {warm}"
        );

        let status = run(&args(&["status", "--cluster", &cluster])).unwrap();
        assert!(status.contains("shard"), "status: {status}");
        assert!(status.contains("hit_rate"), "status: {status}");
        assert!(status.contains("total"), "status: {status}");
        // Three shard rows plus the header and the totals row.
        assert_eq!(status.lines().count(), 5, "status: {status}");
        // One hit somewhere, aggregated into the totals row.
        let totals = status.lines().last().unwrap();
        assert!(totals.starts_with("total"), "status: {status}");

        let report = run(&args(&["shutdown", "--cluster", &cluster])).unwrap();
        assert!(report.contains("3 shard(s)"), "report: {report}");
        for handle in handles {
            handle.wait();
        }
        std::fs::remove_file(file).ok();
    }

    #[test]
    fn cluster_batches_split_and_merge_in_request_order() {
        let (handles, cluster) = start_test_cluster();
        let path = std::env::temp_dir().join(format!(
            "strudel-cli-cluster-batch-{}.jsonl",
            std::process::id()
        ));
        std::fs::write(
            &path,
            "{\"op\":\"refine\",\"view\":{\"properties\":[\"p\"],\"signatures\":[[[0],3]]},\"k\":1,\"theta\":\"1/2\"}\n\
             {\"op\":\"frobnicate\"}\n\
             {\"op\":\"refine\",\"view\":{\"properties\":[\"q\",\"r\"],\"signatures\":[[[0],2],[[0,1],5]]},\"k\":1,\"theta\":\"1/3\"}\n",
        )
        .unwrap();
        let file = path.to_str().unwrap();

        let report = run(&args(&["batch", file, "--cluster", &cluster])).unwrap();
        assert!(report.contains("batch of 3 request(s)"), "report: {report}");
        assert!(report.contains("[0] ok: refine"), "report: {report}");
        assert!(report.contains("[1] error:"), "report: {report}");
        assert!(report.contains("[2] ok: refine"), "report: {report}");

        run(&args(&["shutdown", "--cluster", &cluster])).unwrap();
        for handle in handles {
            handle.wait();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn framing_flag_negotiates_bin1_and_answers_identically() {
        let (handle, addr) = start_test_server();
        let file = write_persons_ntriples("client-framing");
        let file = file.to_str().unwrap();

        let request = |framing: &str| {
            [
                "refine",
                file,
                "--addr",
                &addr,
                "--sort",
                "http://ex/Person",
                "--k",
                "2",
                "--theta",
                "0.8",
                "--framing",
                framing,
                "--raw",
            ]
            .map(str::to_owned)
            .to_vec()
        };
        let over_json = run(&request("json")).unwrap();
        let over_bin = run(&request("bin")).unwrap();
        assert!(over_json.starts_with("{\"ok\":true,"), "json: {over_json}");
        assert_eq!(
            over_json.replace("\"source\":\"solved\"", "\"source\":\"X\""),
            over_bin.replace("\"source\":\"cache\"", "\"source\":\"X\""),
            "responses must be byte-identical across framings"
        );

        // The status report shows the negotiated connection in the wire
        // block (and `auto` negotiates against a current server too).
        let status = run(&args(&["status", "--addr", &addr, "--framing", "auto"])).unwrap();
        assert!(status.contains("wire:"), "status: {status}");
        assert!(status.contains("frames in"), "status: {status}");

        let err = run(&args(&["status", "--addr", &addr, "--framing", "morse"])).unwrap_err();
        assert!(err.to_string().contains("morse"), "err: {err}");

        run(&args(&["shutdown", "--addr", &addr])).unwrap();
        handle.wait();
        std::fs::remove_file(file).ok();
    }

    #[test]
    fn trace_dumps_spans_and_status_renders_the_observe_block() {
        let handle = start_server(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            cache_capacity: 16,
            trace_sample: Some(1),
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = handle.addr().to_string();
        let file = write_persons_ntriples("client-trace");
        let file = file.to_str().unwrap();

        let request = [
            "refine",
            file,
            "--addr",
            &addr,
            "--sort",
            "http://ex/Person",
            "--k",
            "2",
            "--theta",
            "0.8",
        ];
        run(&args(&request)).unwrap();
        run(&args(&request)).unwrap();

        // Every span (a solve and a cache hit) is sampled at 1/1 and dumps
        // as one JSON object per line.
        let dump = run(&args(&["trace", "--addr", &addr])).unwrap();
        assert!(dump.contains("2 span(s)"), "dump: {dump}");
        let span_line = dump.lines().nth(1).expect("a span line");
        assert!(span_line.starts_with("{\"seq\":1,"), "dump: {dump}");
        assert!(span_line.contains("\"op\":\"refine\""), "dump: {dump}");
        assert!(span_line.contains("\"outcome\":\"solved\""), "dump: {dump}");
        assert!(span_line.contains("\"total_us\":"), "dump: {dump}");
        assert!(dump.contains("\"outcome\":\"cache\""), "dump: {dump}");

        // The slow log is off, so --slow filters everything out; no span
        // rode the 'acme' tenant either.
        let slow = run(&args(&["trace", "--addr", &addr, "--slow"])).unwrap();
        assert!(slow.contains("0 span(s)"), "slow: {slow}");
        let acme = run(&args(&["trace", "--addr", &addr, "--tenant", "acme"])).unwrap();
        assert!(acme.contains("0 span(s)"), "acme: {acme}");

        let status = run(&args(&["status", "--addr", &addr])).unwrap();
        assert!(status.contains("observe: sampling 1/1"), "status: {status}");
        assert!(status.contains("slow log off"), "status: {status}");
        for stage in ["decode", "admission", "cache", "solve", "flush", "total"] {
            assert!(status.contains(stage), "missing {stage} row: {status}");
        }

        run(&args(&["shutdown", "--addr", &addr])).unwrap();
        handle.wait();
        std::fs::remove_file(file).ok();
    }

    #[test]
    fn cluster_rows_render_missing_status_blocks_as_dashes() {
        // A shard speaking an older status dialect: no poller, shard,
        // replication, or observe blocks at all.
        let old = strudel_server::json::parse(
            "{\"requests\":{\"refine\":3},\
              \"cache\":{\"hits\":1,\"misses\":2,\"entries\":2,\"hit_rate\":\"0.3333\"}}",
        )
        .unwrap();
        let mut totals = ClusterTotals::default();
        let row = shard_status_row(0, "127.0.0.1:1", &old, &mut totals);
        let cells: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(
            cells,
            vec![
                "0",
                "127.0.0.1:1",
                "-",
                "-",
                "3",
                "1",
                "2",
                "0.3333",
                "2",
                "-",
                "-",
                "-"
            ],
            "missing blocks must render as '-', not silent zeros: {row}"
        );
        assert_eq!(totals.wrong, 0);

        // A current shard fills every cell and sums into the totals.
        let histogram = strudel_core::metrics::LatencyHistogram::new();
        histogram.record(100);
        histogram.record(200);
        let stage = strudel_server::trace::histogram_to_json(&histogram.snapshot());
        let new = Json::obj(vec![
            (
                "cache",
                Json::obj(vec![
                    ("hits", Json::Int(4)),
                    ("misses", Json::Int(4)),
                    ("entries", Json::Int(4)),
                    ("hit_rate", Json::str("0.5000")),
                ]),
            ),
            ("shard", Json::obj(vec![("wrong_shard", Json::Int(1))])),
            ("poller", Json::obj(vec![("backend", Json::str("epoll"))])),
            (
                "replication",
                Json::obj(vec![("role", Json::str("leader")), ("lag", Json::Int(0))]),
            ),
            (
                "observe",
                Json::obj(vec![(
                    "stages",
                    Json::Obj(vec![("total".to_owned(), stage)]),
                )]),
            ),
        ]);
        let row = shard_status_row(1, "127.0.0.1:2", &new, &mut totals);
        assert!(!row.contains('-'), "every reported cell is concrete: {row}");
        assert_eq!(totals.wrong, 1);
        let (name, merged) = totals.stages.first().expect("merged total stage");
        assert_eq!(name, "total");
        assert_eq!(merged.count, 2);
    }

    #[test]
    fn addr_and_cluster_are_mutually_exclusive() {
        let err = run(&args(&[
            "status",
            "--addr",
            "127.0.0.1:1",
            "--cluster",
            "127.0.0.1:1",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"));
    }

    #[test]
    fn usage_errors_are_reported_before_connecting_where_possible() {
        let (handle, addr) = start_test_server();
        // Unknown op.
        let err = run(&args(&["frobnicate", "--addr", &addr])).unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
        // Missing FILE for a solve op.
        let err = run(&args(&["refine", "--addr", &addr])).unwrap_err();
        assert!(err.to_string().contains("FILE"));
        run(&args(&["shutdown", "--addr", &addr])).unwrap();
        handle.wait();

        // No server listening at all: a connection error, not a panic.
        let err = run(&args(&["status", "--addr", "127.0.0.1:1"])).unwrap_err();
        assert!(matches!(err, CliError::Io { .. }));
    }
}
