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

use strudel_server::prelude::PollerKind;

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
