//! Property tests for the log-linear [`LatencyHistogram`] — the contract
//! the observability surface stands on:
//!
//! * **monotone bucketing**: `a <= b` implies `bucket_index(a) <=
//!   bucket_index(b)`, and a value never exceeds its bucket's upper bound,
//! * **merge is record-all**: merging two shards' snapshots reads out
//!   exactly as if every value had been recorded into one histogram — the
//!   cluster roll-up loses nothing,
//! * **quantile bounds**: against a sorted reference, an estimated
//!   quantile is never below the true order statistic and at most
//!   `1/SUB_BUCKETS` (12.5%) above it, capped at the observed maximum.
//!
//! Uses the workspace's seeded xoshiro generator (`strudel_rdf::rng`);
//! failures print the seed, and re-running with that seed reproduces them.

use strudel_core::metrics::{
    bucket_index, bucket_upper_bound, HistogramSnapshot, LatencyHistogram, SUB_BUCKETS,
};
use strudel_rdf::rng::StdRng;

/// A log-uniform latency sample below 2^40 (about 13 days in micros):
/// every scale is equally likely, exercising the linear range and dozens
/// of octaves, while sums over thousands of samples stay far from u64
/// overflow — as real microsecond latencies do.
fn random_latency(rng: &mut StdRng) -> u64 {
    let shift = rng.gen_range(24u64..64) as u32;
    rng.next_u64() >> shift
}

#[test]
fn bucketing_is_monotone_and_bounds_err_high() {
    for seed in [20140801u64, 20140802, 20140803] {
        let mut rng = StdRng::seed_from_u64(seed);
        for case in 0..5000 {
            let a = random_latency(&mut rng);
            let b = random_latency(&mut rng);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            assert!(
                bucket_index(lo) <= bucket_index(hi),
                "seed {seed} case {case}: bucket_index({lo}) > bucket_index({hi})"
            );
            let upper = bucket_upper_bound(bucket_index(lo));
            assert!(
                upper >= lo,
                "seed {seed} case {case}: bucket upper bound {upper} below value {lo}"
            );
        }
    }
}

#[test]
fn merging_two_shards_equals_recording_everything_into_one() {
    for seed in [20140811u64, 20140812, 20140813] {
        let mut rng = StdRng::seed_from_u64(seed);
        let ours = LatencyHistogram::new();
        let theirs = LatencyHistogram::new();
        let all = LatencyHistogram::new();
        for _ in 0..2000 {
            let value = random_latency(&mut rng);
            if rng.gen_bool(0.5) {
                ours.record(value);
            } else {
                theirs.record(value);
            }
            all.record(value);
        }
        let mut merged = ours.snapshot();
        merged.merge(&theirs.snapshot());
        let reference = all.snapshot();
        assert_eq!(merged, reference, "seed {seed}: merge must be record-all");
        for q in [0.50, 0.90, 0.99, 1.0] {
            assert_eq!(
                merged.quantile(q),
                reference.quantile(q),
                "seed {seed} q {q}"
            );
        }
        // The empty snapshot is merge's identity element.
        let mut identity = HistogramSnapshot::empty();
        identity.merge(&reference);
        assert_eq!(identity, reference, "seed {seed}");
    }
}

#[test]
fn quantiles_bracket_the_sorted_reference() {
    for seed in [20140821u64, 20140822, 20140823] {
        let mut rng = StdRng::seed_from_u64(seed);
        let histogram = LatencyHistogram::new();
        let mut reference: Vec<u64> = Vec::new();
        for _ in 0..1000 {
            let value = random_latency(&mut rng);
            histogram.record(value);
            reference.push(value);
        }
        reference.sort_unstable();
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.max, *reference.last().expect("non-empty"));
        for q in [0.01, 0.25, 0.50, 0.90, 0.99, 1.0] {
            let rank = ((q * reference.len() as f64).ceil() as usize).clamp(1, reference.len());
            let truth = reference[rank - 1];
            let estimate = snapshot.quantile(q);
            assert!(
                estimate >= truth,
                "seed {seed} q {q}: estimate {estimate} below true value {truth}"
            );
            assert!(
                estimate <= truth + truth / SUB_BUCKETS,
                "seed {seed} q {q}: estimate {estimate} beyond 1/{SUB_BUCKETS} above {truth}"
            );
            assert!(
                estimate <= snapshot.max,
                "seed {seed} q {q}: estimate {estimate} beyond observed max {}",
                snapshot.max
            );
        }
    }
}
