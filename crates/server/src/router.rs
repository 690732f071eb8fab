//! Shard-aware client routing: one connection per shard, requests routed
//! by consistent hash of their cache key, with standby fail-over.
//!
//! The client stack is two layers. [`Client`] is the
//! transport: one socket, one line each way, deadlines on every operation.
//! [`Router`] sits above it and owns one *endpoint set* per shard of a
//! cluster — a primary plus any standbys, written `primary+standby` in the
//! cluster list — derives the same [`ShardRing`] every server derives (the
//! ring is a pure function of the shard count — no coordination service),
//! and:
//!
//! * routes [`Router::solve`] to the shard owning the request's
//!   `CacheKey.view`, stamping the request with the shard id and the
//!   highest *replication epoch* it has seen for that shard, so the server
//!   can verify both sides agree (and so a resurrected old leader, still
//!   on the previous epoch, refuses the stamp instead of serving stale
//!   answers),
//! * splits [`Router::call_batch`] into per-shard sub-batches, drives them
//!   **concurrently** (one thread per shard with traffic), and merges the
//!   responses back into request order — a failed element, or a whole
//!   unreachable shard, yields `Err` elements without poisoning the rest,
//! * retries a dead connection with **bounded, jittered backoff** (the
//!   shard may simply be restarting — a single immediate attempt used to
//!   race the rebind and surface a hard error), then **fails over** to the
//!   shard's standbys in order, adopting the promoted follower's epoch
//!   from its status before re-stamping. Timeouts skip the reconnect
//!   loop — a wedged shard fails toward its standby promptly — and the
//!   jitter comes from a seeded [`StdRng`], never the wall clock, so
//!   routing behaviour in tests is reproducible.
//!
//! Because duplicate keys converge on one shard, the server's per-process
//! single-flight and result cache keep working unchanged: the cluster
//! needs no cross-process coordination at all — and neither does
//! fail-over, which is driven entirely by the epoch arithmetic of
//! [`replica`](crate::replica).

use std::thread;
use std::time::Duration;

use strudel_core::wire::{ShardRing, ShardStamp};
use strudel_rdf::rng::StdRng;

use crate::client::{Client, ClientError, ClientOptions, Response};
use crate::json::Json;
use crate::protocol::{self, Request, SolveRequest};

/// Tuning knobs of a [`Router`] beyond the per-connection deadlines.
#[derive(Clone, Copy, Debug)]
pub struct RouterOptions {
    /// Deadlines for every shard connection.
    pub client: ClientOptions,
    /// Reconnect attempts against the *same* address after a connection
    /// failure, before failing over to a standby (default 3).
    pub reconnect_attempts: u32,
    /// Base of the exponential reconnect backoff (default 25 ms; attempt
    /// `n` sleeps `base × 2ⁿ` plus up to half that again of jitter).
    pub backoff_base: Duration,
    /// Seed of the jitter generator. Deterministic by design: tests (and
    /// bug reports) replay the same backoff schedule.
    pub seed: u64,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            client: ClientOptions::default(),
            reconnect_attempts: 3,
            backoff_base: Duration::from_millis(25),
            seed: 0x5742_u64, // arbitrary but fixed
        }
    }
}

/// One shard's endpoints: the primary and its standbys (in fail-over
/// order), the currently active index, the cached connection, and the
/// highest replication epoch observed for this shard.
struct RouterShard {
    /// `addrs[0]` is the primary; the rest are standbys in `+` order.
    addrs: Vec<String>,
    active: usize,
    options: RouterOptions,
    client: Option<Client>,
    /// The epoch stamped on requests to this shard. Starts at the ring
    /// epoch; raised (never lowered) when a standby reports a higher one.
    epoch: u64,
    rng: StdRng,
}

impl RouterShard {
    fn ensure(&mut self) -> Result<&mut Client, ClientError> {
        if self.client.is_none() {
            self.client = Some(Client::connect_with(
                self.addrs[self.active].as_str(),
                self.options.client,
            )?);
        }
        Ok(self.client.as_mut().expect("just connected"))
    }

    fn try_active<R>(
        &mut self,
        call: &mut impl FnMut(&mut Client, u64) -> Result<R, ClientError>,
    ) -> Result<R, ClientError> {
        let epoch = self.epoch;
        let result = self.ensure().and_then(|client| call(client, epoch));
        if matches!(
            result,
            Err(ClientError::Io(_) | ClientError::Timeout { .. })
        ) {
            self.client = None; // never reuse a failed connection
        }
        result
    }

    /// One jittered exponential-backoff sleep: `base × 2ⁿ` plus up to half
    /// that again, from the seeded generator.
    fn backoff(&mut self, attempt: u32) {
        let base = self.options.backoff_base.as_micros() as u64;
        let step = base.saturating_mul(1 << attempt.min(8));
        let jitter = self.rng.gen_range(0..step.max(2) / 2 + 1);
        thread::sleep(Duration::from_micros(step + jitter));
    }

    /// Best-effort epoch refresh after landing on a new address: read the
    /// replication block of the peer's status and adopt its epoch if — and
    /// only if — it is *higher* than what we stamp now. Never adopting a
    /// lower epoch is the fail-over safety property: a resurrected old
    /// leader cannot talk the router back onto its stale epoch.
    fn refresh_epoch(&mut self) {
        let Some(client) = self.client.as_mut() else {
            return;
        };
        let status = Json::obj(vec![("op", Json::str("status"))]);
        let Ok(response) = client.call(&status) else {
            return;
        };
        let peer = response
            .result()
            .and_then(|result| result.get("replication"))
            .and_then(|repl| repl.get("epoch"))
            .and_then(Json::as_int)
            .map(|epoch| epoch as u64);
        if let Some(peer) = peer {
            if peer > self.epoch {
                self.epoch = peer;
            }
        }
    }

    /// Runs `call` over this shard's connection, riding out restarts and
    /// leader death. The closure receives the epoch to stamp (it may
    /// change across attempts as fail-over adopts a promoted standby's
    /// epoch). The ladder:
    ///
    /// 1. the active address, reusing the cached connection;
    /// 2. on a connection-level failure: bounded reconnect attempts
    ///    against the same address, with jittered exponential backoff
    ///    (a restarting shard comes back mid-ladder);
    /// 3. on exhaustion — or immediately on a timeout, which marks a
    ///    wedged rather than restarting peer — the standbys in order,
    ///    refreshing the stamp epoch from each one that accepts a
    ///    connection.
    ///
    /// Server-side refusals (`not_leader`, plain errors) are returned
    /// as-is: the connection is healthy, the answer is the answer. The one
    /// exception is a `wrong_shard` refusal carrying a *higher* epoch —
    /// the peer was promoted while we were connected (auto-promotion with
    /// no fail-over in between) — which is adopted and retried once.
    fn call<R>(
        &mut self,
        mut call: impl FnMut(&mut Client, u64) -> Result<R, ClientError>,
    ) -> Result<R, ClientError> {
        let mut result = self.call_with_failover(&mut call);
        if let Err(ClientError::WrongShard { detail, .. }) = &result {
            if detail.epoch > self.epoch {
                self.epoch = detail.epoch;
                result = self.call_with_failover(&mut call);
            }
        }
        result
    }

    fn call_with_failover<R>(
        &mut self,
        call: &mut impl FnMut(&mut Client, u64) -> Result<R, ClientError>,
    ) -> Result<R, ClientError> {
        let mut result = self.try_active(call);
        if let Err(ClientError::Io(_)) = result {
            for attempt in 0..self.options.reconnect_attempts {
                self.backoff(attempt);
                result = self.try_active(call);
                if !matches!(result, Err(ClientError::Io(_))) {
                    break;
                }
            }
        }
        if matches!(
            result,
            Err(ClientError::Io(_) | ClientError::Timeout { .. })
        ) && self.addrs.len() > 1
        {
            let previous = self.active;
            for step in 1..self.addrs.len() {
                self.active = (previous + step) % self.addrs.len();
                self.client = None;
                if self.ensure().is_err() {
                    continue;
                }
                self.refresh_epoch();
                result = self.try_active(call);
                if !matches!(
                    result,
                    Err(ClientError::Io(_) | ClientError::Timeout { .. })
                ) {
                    return result;
                }
            }
            // Nobody answered: settle back on the primary for next time.
            self.active = previous;
            self.client = None;
        }
        result
    }
}

/// One shard's contribution to a split batch: the original request indices
/// of its sub-batch, and the per-element outcomes (or the shard-wide
/// failure that befell all of them).
type ShardBatchOutcome = (
    Vec<usize>,
    Result<Vec<Result<Response, String>>, ClientError>,
);

/// A connection-per-shard client routing requests across a cluster by
/// consistent hash, with standby fail-over. See the module documentation.
pub struct Router {
    shards: Vec<RouterShard>,
    ring: ShardRing,
}

/// Splits one cluster-list entry into its primary and standbys.
fn split_endpoints(entry: &str) -> Vec<String> {
    entry
        .split('+')
        .map(str::trim)
        .filter(|addr| !addr.is_empty())
        .map(str::to_owned)
        .collect()
}

impl Router {
    /// Connects to every shard of a cluster with default options. The
    /// address *order defines the shard ids*: `addrs[i]` must be the server
    /// started with `--shard i/n`. Each entry may name standbys after `+`
    /// (`"host:port+standby:port"`); the router fails over to them in
    /// order when the primary is unreachable.
    pub fn connect<A: AsRef<str>>(addrs: &[A]) -> Result<Self, ClientError> {
        Self::connect_with(addrs, RouterOptions::default())
    }

    /// Connects with explicit options. Fails fast: every shard must have
    /// at least one reachable endpoint at construction time.
    pub fn connect_with<A: AsRef<str>>(
        addrs: &[A],
        options: RouterOptions,
    ) -> Result<Self, ClientError> {
        if addrs.is_empty() {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a cluster needs at least one shard address",
            )));
        }
        let ring = ShardRing::new(addrs.len() as u32);
        let mut shards = Vec::with_capacity(addrs.len());
        for (index, entry) in addrs.iter().enumerate() {
            let endpoints = split_endpoints(entry.as_ref());
            if endpoints.is_empty() {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("shard {index} has no address"),
                )));
            }
            let mut shard = RouterShard {
                addrs: endpoints,
                active: 0,
                options,
                client: None,
                epoch: ring.epoch(),
                rng: StdRng::seed_from_u64(options.seed ^ index as u64),
            };
            // Any endpoint will do to come up: a cluster whose primary
            // died before the router even started still routes (reads now,
            // writes once the standby is promoted).
            let mut connected = Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "unreachable",
            )));
            for candidate in 0..shard.addrs.len() {
                shard.active = candidate;
                match shard.ensure() {
                    Ok(_) => {
                        connected = Ok(());
                        break;
                    }
                    Err(err) => connected = Err(err),
                }
            }
            connected?;
            // Unconditionally, not just for standbys: the *primary* may
            // itself be a previously-promoted server running a higher
            // epoch than the bare ring's (a router started after a
            // fail-over must not stamp the stale base epoch forever).
            shard.refresh_epoch();
            shards.push(shard);
        }
        Ok(Router { shards, ring })
    }

    /// Number of shards in the cluster.
    pub fn shard_count(&self) -> u32 {
        self.ring.count()
    }

    /// The currently active address of every shard, in shard-id order.
    pub fn addrs(&self) -> Vec<&str> {
        self.shards
            .iter()
            .map(|shard| shard.addrs[shard.active].as_str())
            .collect()
    }

    /// The ring this router routes by.
    pub fn ring(&self) -> &ShardRing {
        &self.ring
    }

    /// The replication epoch currently stamped on requests to `shard`.
    pub fn shard_epoch(&self, shard: u32) -> u64 {
        self.shards[shard as usize].epoch
    }

    /// The shard owning a solve request's cache key.
    pub fn shard_of(&self, request: &SolveRequest) -> u32 {
        self.ring.route(request.cache_key().view)
    }

    /// Routes one solve request to the shard owning its key.
    pub fn solve(&mut self, request: &SolveRequest) -> Result<Response, ClientError> {
        let shard = self.shard_of(request);
        self.shards[shard as usize].call(|client, epoch| {
            let mut stamped = request.clone();
            stamped.routing = Some(ShardStamp { shard, epoch });
            client.call(&stamped.to_json())
        })
    }

    /// Applies (or replaces) the routing stamp on a raw request object.
    fn stamp_value(value: &Json, shard: u32, epoch: u64) -> Json {
        let mut stamped = value.clone();
        if let Json::Obj(members) = &mut stamped {
            members.retain(|(name, _)| name != "shard" && name != "epoch");
            members.push(("shard".to_owned(), Json::Int(i64::from(shard))));
            members.push(("epoch".to_owned(), Json::Int(epoch as i64)));
        }
        stamped
    }

    /// Which shard a raw request object routes to: solve requests go to
    /// their key's owner; control ops and undecodable elements go to shard
    /// 0 (any shard can answer or refuse them). Solve requests are flagged
    /// for stamping at dispatch time (the epoch may change mid-call as
    /// fail-over adopts a promoted standby's).
    fn route_value(&self, value: &Json) -> (u32, bool) {
        if let Ok(Request::Solve(solve)) = protocol::decode_request_value(value) {
            (self.ring.route(solve.cache_key().view), true)
        } else {
            (0, false)
        }
    }

    /// Splits a batch of raw request objects into per-shard sub-batches and
    /// drives them (see [`Router::solve_batch`] for the typed, cheaper
    /// path: raw objects must be decoded here just to find their key).
    pub fn call_batch(
        &mut self,
        requests: &[Json],
    ) -> Result<Vec<Result<Response, String>>, ClientError> {
        let mut groups: Vec<Vec<(usize, Json, bool)>> = vec![Vec::new(); self.shards.len()];
        for (idx, value) in requests.iter().enumerate() {
            let (shard, stamp) = self.route_value(value);
            groups[shard as usize].push((idx, value.clone(), stamp));
        }
        Ok(self.dispatch_groups(requests.len(), groups))
    }

    /// Routes many solve requests as per-shard batch envelopes. Typed
    /// requests route without re-decoding: the key comes from
    /// [`SolveRequest::cache_key`] and the stamp is appended to the
    /// serialized object at dispatch time.
    pub fn solve_batch(
        &mut self,
        requests: &[SolveRequest],
    ) -> Result<Vec<Result<Response, String>>, ClientError> {
        let mut groups: Vec<Vec<(usize, Json, bool)>> = vec![Vec::new(); self.shards.len()];
        for (idx, request) in requests.iter().enumerate() {
            let shard = self.shard_of(request);
            groups[shard as usize].push((idx, request.to_json(), true));
        }
        Ok(self.dispatch_groups(requests.len(), groups))
    }

    /// Drives per-shard sub-batches concurrently (one thread per shard
    /// with traffic) and merges the per-element outcomes back into request
    /// order. An unreachable shard turns *its* elements into `Err`s; the
    /// other shards' elements are unaffected — and a shard whose leader
    /// died mid-batch retries against its standby without the other
    /// shards noticing.
    fn dispatch_groups(
        &mut self,
        total: usize,
        groups: Vec<Vec<(usize, Json, bool)>>,
    ) -> Vec<Result<Response, String>> {
        let mut slots: Vec<Option<Result<Response, String>>> = (0..total).map(|_| None).collect();
        let outcomes: Vec<ShardBatchOutcome> = thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .enumerate()
                .zip(groups)
                .filter(|(_, group)| !group.is_empty())
                .map(|((shard_id, shard), group)| {
                    scope.spawn(move || {
                        let indices: Vec<usize> = group.iter().map(|(idx, _, _)| *idx).collect();
                        let outcome = shard.call(|client, epoch| {
                            let values: Vec<Json> = group
                                .iter()
                                .map(|(_, value, stamp)| {
                                    if *stamp {
                                        Router::stamp_value(value, shard_id as u32, epoch)
                                    } else {
                                        value.clone()
                                    }
                                })
                                .collect();
                            client.call_batch(&values)
                        });
                        (indices, outcome)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("router shard thread"))
                .collect()
        });

        for (indices, outcome) in outcomes {
            match outcome {
                Ok(elements) => {
                    for (idx, element) in indices.into_iter().zip(elements) {
                        slots[idx] = Some(element);
                    }
                }
                Err(err) => {
                    let message = err.to_string();
                    for idx in indices {
                        slots[idx] = Some(Err(message.clone()));
                    }
                }
            }
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every element was routed"))
            .collect()
    }

    /// Fetches every shard's counter snapshot, in shard-id order. Per-shard
    /// failures are reported in place — a down shard must not hide the
    /// others' counters.
    pub fn status_all(&mut self) -> Vec<Result<Response, ClientError>> {
        let status = Json::obj(vec![("op", Json::str("status"))]);
        self.shards
            .iter_mut()
            .map(|shard| shard.call(|client, _| client.call(&status)))
            .collect()
    }

    /// Dumps every shard's flight recorder, in shard-id order. Like
    /// [`Self::status_all`], per-shard failures are reported in place.
    pub fn trace_all(
        &mut self,
        slow_only: bool,
        tenant: Option<&str>,
    ) -> Vec<Result<Response, ClientError>> {
        self.shards
            .iter_mut()
            .map(|shard| shard.call(|client, _| client.trace(slow_only, tenant)))
            .collect()
    }

    /// Asks every shard to shut down, returning the first failure (after
    /// attempting all of them).
    pub fn shutdown_all(&mut self) -> Result<(), ClientError> {
        let shutdown = Json::obj(vec![("op", Json::str("shutdown"))]);
        let mut first_failure = None;
        for shard in &mut self.shards {
            if let Err(err) = shard.call(|client, _| client.call(&shutdown)) {
                first_failure.get_or_insert(err);
            }
        }
        match first_failure {
            None => Ok(()),
            Some(err) => Err(err),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_entries_split_into_primary_and_standbys() {
        assert_eq!(split_endpoints("a:1"), vec!["a:1"]);
        assert_eq!(split_endpoints("a:1+b:2"), vec!["a:1", "b:2"]);
        assert_eq!(
            split_endpoints(" a:1 + b:2 + c:3 "),
            vec!["a:1", "b:2", "c:3"]
        );
        assert!(split_endpoints("++").is_empty());
    }

    #[test]
    fn default_router_options_bound_the_retry_budget() {
        let options = RouterOptions::default();
        // Worst case: 25 + 50 + 100 ms base plus ≤ 50% jitter each — keep
        // the full reconnect ladder well under a second so a dead shard
        // fails over promptly.
        let base = options.backoff_base.as_millis() as u64;
        let worst: u64 = (0..options.reconnect_attempts)
            .map(|n| base * (1 << n) * 3 / 2)
            .sum();
        assert!(worst < 1000, "reconnect ladder too slow: {worst} ms");
    }

    #[test]
    fn jitter_is_reproducible_for_a_fixed_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let draws_a: Vec<u64> = (0..16).map(|_| a.gen_range(0..1000u64)).collect();
        let draws_b: Vec<u64> = (0..16).map(|_| b.gen_range(0..1000u64)).collect();
        assert_eq!(draws_a, draws_b);
    }
}
