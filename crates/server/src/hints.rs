//! Warm-start plumbing for the compute pool's miss path under
//! `serve --solver ilp`.
//!
//! Two pieces live here:
//!
//! * [`HintIndex`] — the event loop's memory of recently solved `refine`
//!   instances, keyed by the cache key's params string. Because the params
//!   text excludes the view (and carries the tenant suffix), one bucket
//!   holds *variants of the same question over different datasets, for one
//!   tenant* — exactly the population a warm start can seed from. Before
//!   dispatching a cold solve the loop asks the index for the nearest
//!   neighbor by signature-set distance; a close-enough prior solution
//!   ships to the worker as a [`RefinementHint`].
//! * [`SolveTelemetry`] — what a worker reports back alongside the result
//!   text: whether the solve was warm-seeded, whether a stale hint was
//!   repaired, node/propagation/conflict counts, and (on a successful
//!   `refine`) the exported solution the index remembers.
//!
//! A seeded solve decides what a cold one decides, because a hint orders
//! the values the search tries and never the set. Its refinement is the
//! first one in the hint's order, though, and that can be another
//! partition than the first one a cold search meets; both meet the
//! request's k and θ. So the refinement a miss returns depends on what the
//! tenant solved before, and once cached it replays byte-identically.
//!
//! The index is owned by the single-threaded event loop, so it needs no
//! lock; workers only ever *carry* hints and telemetry, never touch the
//! index itself.

use std::collections::HashMap;

use strudel_core::engine::RefinementHint;
use strudel_rdf::signature::SignatureView;

/// Maximum symmetric difference between two instances' signature-identity
/// sets for one to warm-start the other. Distance 2 covers the incremental
/// workloads warm starts target: one signature added *and* one removed
/// (an S±1 edit is distance 1).
pub const MAX_NEIGHBOR_DISTANCE: usize = 2;

/// Entries remembered per params bucket. Old entries fall off first; a
/// re-solved view replaces its previous entry in place.
const MAX_ENTRIES_PER_BUCKET: usize = 32;

/// The signature-identity set of a view: one content hash per signature,
/// independent of signature order and counts. Two views are warm-start
/// neighbors when these sets almost coincide.
pub fn view_identities(view: &SignatureView) -> Vec<u64> {
    let mut identities: Vec<u64> = (0..view.signature_count())
        .map(|sig| strudel_core::engine::signature_identity(view, sig))
        .collect();
    identities.sort_unstable();
    identities.dedup();
    identities
}

/// A successful `refine` solution exported for the index: the instance's
/// identity set plus the identity→sort assignment a neighbor can seed from.
#[derive(Clone, Debug)]
pub struct SolvedHint {
    /// Sorted, deduplicated signature identities of the solved view.
    pub identities: Vec<u64>,
    /// `(signature identity, sort index)` pairs of the solution.
    pub assignments: Vec<(u64, usize)>,
}

/// What a worker reports back with a finished solve.
#[derive(Clone, Debug, Default)]
pub struct SolveTelemetry {
    /// A neighbor hint seeded the search (`hint_vars > 0`).
    pub warm: bool,
    /// The hint was stale — some hinted value changed — and the search
    /// repaired it on the way to a solution.
    pub repaired: bool,
    /// Branch-and-bound nodes explored (0 for greedy-only solves).
    pub nodes: u64,
    /// Constraint propagations performed (0 for greedy-only solves).
    pub propagations: u64,
    /// Search conflicts — dead ends that forced a backtrack.
    pub conflicts: u64,
    /// Exported solution for the neighbor index, on a successful `refine`.
    pub solved: Option<SolvedHint>,
}

/// One remembered solution.
#[derive(Clone, Debug)]
struct HintEntry {
    /// The solved view's 128-bit content hash (replacement identity).
    view: u128,
    /// Sorted signature identities (the distance metric's operand).
    identities: Vec<u64>,
    /// The solution, ready to ship as a warm start.
    assignments: Vec<(u64, usize)>,
}

/// Symmetric difference of two sorted, deduplicated id sets.
fn distance(a: &[u64], b: &[u64]) -> usize {
    let (mut i, mut j, mut diff) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                diff += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                diff += 1;
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    diff + (a.len() - i) + (b.len() - j)
}

/// The event loop's per-params memory of recent solutions.
#[derive(Debug, Default)]
pub struct HintIndex {
    buckets: HashMap<String, Vec<HintEntry>>,
    lookups: u64,
    seeded: u64,
}

impl HintIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        HintIndex::default()
    }

    /// Remembers a solved instance under its params bucket. A re-solve of
    /// the same view replaces its entry; otherwise the oldest entry makes
    /// room once the bucket is full.
    pub fn remember(&mut self, params: &str, view: u128, solved: SolvedHint) {
        let bucket = self.buckets.entry(params.to_owned()).or_default();
        let entry = HintEntry {
            view,
            identities: solved.identities,
            assignments: solved.assignments,
        };
        if let Some(existing) = bucket.iter_mut().find(|e| e.view == view) {
            *existing = entry;
            return;
        }
        if bucket.len() == MAX_ENTRIES_PER_BUCKET {
            bucket.remove(0);
        }
        bucket.push(entry);
    }

    /// The nearest remembered neighbor of `identities` within
    /// [`MAX_NEIGHBOR_DISTANCE`], as a ready-to-ship hint. Ties go to the
    /// most recently remembered entry.
    pub fn lookup(&mut self, params: &str, identities: &[u64]) -> Option<RefinementHint> {
        self.lookups += 1;
        let bucket = self.buckets.get(params)?;
        let best = bucket
            .iter()
            .rev()
            .map(|entry| (distance(&entry.identities, identities), entry))
            .filter(|(d, _)| *d <= MAX_NEIGHBOR_DISTANCE)
            .min_by_key(|(d, _)| *d)?;
        self.seeded += 1;
        Some(RefinementHint {
            assignments: best.1.assignments.clone(),
        })
    }

    /// `(lookups, seeded)` counters: how often the miss path asked, and how
    /// often a neighbor was close enough to seed.
    pub fn counters(&self) -> (u64, u64) {
        (self.lookups, self.seeded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_the_symmetric_difference() {
        assert_eq!(distance(&[1, 2, 3], &[1, 2, 3]), 0);
        assert_eq!(distance(&[1, 2, 3], &[1, 2, 3, 4]), 1);
        assert_eq!(distance(&[1, 2, 3], &[1, 2, 4]), 2);
        assert_eq!(distance(&[], &[5, 6]), 2);
        assert_eq!(distance(&[7], &[]), 1);
    }

    #[test]
    fn lookup_finds_the_nearest_neighbor_within_range() {
        let mut index = HintIndex::new();
        index.remember(
            "refine|ilp",
            1,
            SolvedHint {
                identities: vec![10, 20, 30],
                assignments: vec![(10, 0), (20, 0), (30, 1)],
            },
        );
        index.remember(
            "refine|ilp",
            2,
            SolvedHint {
                identities: vec![10, 20, 30, 50, 60],
                assignments: vec![(10, 0)],
            },
        );
        // Distance 1 to the first entry, 3 to the second.
        let hint = index
            .lookup("refine|ilp", &[10, 20, 30, 40])
            .expect("neighbor in range");
        assert_eq!(hint.assignments.len(), 3);
        // Far from both entries: nothing usable.
        assert!(index.lookup("refine|ilp", &[1, 2, 3, 4, 5, 6]).is_none());
        // Foreign bucket (other params / other tenant): never consulted.
        assert!(index.lookup("refine|greedy", &[10, 20, 30]).is_none());
        assert_eq!(index.counters(), (3, 1));
    }

    #[test]
    fn a_resolved_view_replaces_its_entry() {
        let mut index = HintIndex::new();
        index.remember(
            "p",
            7,
            SolvedHint {
                identities: vec![1],
                assignments: vec![(1, 0)],
            },
        );
        index.remember(
            "p",
            7,
            SolvedHint {
                identities: vec![1],
                assignments: vec![(1, 2)],
            },
        );
        let hint = index.lookup("p", &[1]).expect("present");
        assert_eq!(hint.assignments, vec![(1, 2)]);
        assert_eq!(index.buckets.get("p").map(Vec::len), Some(1));
    }

    #[test]
    fn full_buckets_evict_the_oldest_entry() {
        let mut index = HintIndex::new();
        for view in 0..(MAX_ENTRIES_PER_BUCKET + 1) as u128 {
            index.remember(
                "p",
                view,
                SolvedHint {
                    identities: vec![view as u64],
                    assignments: vec![(view as u64, 0)],
                },
            );
        }
        let bucket = index.buckets.get("p").expect("bucket exists");
        assert_eq!(bucket.len(), MAX_ENTRIES_PER_BUCKET);
        assert!(bucket.iter().all(|entry| entry.view != 0), "oldest evicted");
    }
}
