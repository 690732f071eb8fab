//! Shared helpers of the e2e suites — most importantly the
//! backend-parameterized conformance harness: [`for_each_backend`] runs a
//! test body once per available poller backend (epoll and scan on Linux,
//! scan elsewhere), so the suites *prove* the two readiness
//! implementations behaviorally identical instead of assuming it.
//!
//! The `STRUDEL_POLLER` environment variable narrows the matrix to one
//! backend — that is how CI re-runs every suite per backend without
//! double-covering inside a single run (unconfigured servers started by
//! non-wrapped tests also honor it, via `PollerKind::resolve`).

#![allow(dead_code)] // each test binary uses a subset of these helpers

use strudel_core::engine::{IlpEngine, RefineOutcome, RefinementEngine};
use strudel_rdf::signature::SignatureView;
use strudel_server::prelude::{PollerKind, SolveRequest};

/// The poller backends this run should cover: the `STRUDEL_POLLER`
/// override alone when set (panicking on a typo rather than silently
/// faking coverage), otherwise every backend the platform offers. An
/// override naming a real backend this *platform* cannot run (epoll off
/// Linux) skips with a logged reason instead of failing.
pub fn backends() -> Vec<PollerKind> {
    match std::env::var("STRUDEL_POLLER") {
        Ok(value) => {
            let kind: PollerKind = value
                .parse()
                .unwrap_or_else(|err| panic!("STRUDEL_POLLER: {err}"));
            if !PollerKind::available().contains(&kind) {
                eprintln!("skipping: STRUDEL_POLLER={kind} is not supported on this platform");
                return Vec::new();
            }
            vec![kind]
        }
        Err(_) => PollerKind::available(),
    }
}

/// Runs `body` once per backend in [`backends`], announcing each leg so a
/// failure names the backend it happened under.
pub fn for_each_backend(test: &str, body: impl Fn(PollerKind)) {
    for kind in backends() {
        eprintln!("[{test}] poller backend: {kind}");
        body(kind);
    }
}

/// A view the exact ILP engine cannot polish off quickly: 72 wide, heavily
/// overlapping signatures over 24 properties leave the CP search a deep
/// tree at k = 3 and θ = 3/4, so a capped solve runs until its time budget
/// instead of returning in microseconds.
pub fn hard_view() -> SignatureView {
    let properties: Vec<String> = (0..24).map(|i| format!("http://ex/p{i}")).collect();
    let signatures: Vec<(Vec<usize>, usize)> = (0..72)
        .map(|i| {
            let width = 3 + (i % 7);
            let start = (i * 5) % 12;
            ((start..start + width).collect(), 10 + (i * 13) % 97)
        })
        .collect();
    SignatureView::from_counts(properties, signatures).expect("valid synthetic view")
}

/// Asserts, in process, the premise of a test that needs a solve still in
/// flight: the exact engine leaves the refine `request` undecided for its
/// whole time limit. A faster search that decides it fails here, naming the
/// premise, instead of in whatever the test waits for next.
pub fn assert_stays_undecided(request: &SolveRequest) {
    let limit = request.time_limit.expect("a capped solve");
    let (k, theta) = (request.k.expect("k"), request.theta.expect("θ"));
    let outcome = IlpEngine::with_time_limit(limit)
        .refine(&request.view, &request.spec, k, theta)
        .expect("a valid instance");
    assert!(
        matches!(outcome, RefineOutcome::Unknown),
        "the request must stay undecided for its whole {limit:?} cap, but the \
         search decided it: pick a harder instance"
    );
}
