//! Property tests for the consistent-hash [`ShardRing`] — the routing
//! contract the whole cluster layer stands on:
//!
//! * **determinism**: two rings built independently (as a router and a
//!   server process would) route every key identically, and routing is a
//!   pure function — no hidden per-process state,
//! * **balance**: random keys spread across the shards within a reasonable
//!   bound of the ideal `1/n` share,
//! * **monotone growth**: going from `n` to `n+1` shards moves only the
//!   keys the new shard takes over — roughly `1/(n+1)` of them, and every
//!   moved key moves *to* the new shard, never between old ones.
//!
//! Uses the workspace's seeded xoshiro generator (`strudel_rdf::rng`);
//! failures print the seed, and re-running with that seed reproduces them.

use strudel_core::wire::ShardRing;
use strudel_rdf::rng::StdRng;

const KEYS: usize = 20_000;

fn random_key(rng: &mut StdRng) -> u128 {
    (u128::from(rng.gen_range(0u64..u64::MAX)) << 64) | u128::from(rng.gen_range(0u64..u64::MAX))
}

#[test]
fn routing_is_deterministic_across_independent_rings() {
    let seed = 20140701;
    let mut rng = StdRng::seed_from_u64(seed);
    for count in [1u32, 2, 3, 5, 8, 16] {
        let ours = ShardRing::new(count);
        let theirs = ShardRing::new(count); // "another process"
        assert_eq!(ours.epoch(), theirs.epoch(), "seed {seed} count {count}");
        for case in 0..2000 {
            let key = random_key(&mut rng);
            let shard = ours.route(key);
            assert!(shard < count, "seed {seed} count {count} case {case}");
            assert_eq!(
                shard,
                theirs.route(key),
                "seed {seed} count {count} case {case}: rings disagree on {key:#034x}"
            );
            assert_eq!(
                shard,
                ours.route(key),
                "seed {seed} count {count} case {case}: routing must be pure"
            );
        }
    }
}

#[test]
fn keys_spread_within_a_reasonable_balance_bound() {
    let seed = 20140702;
    let mut rng = StdRng::seed_from_u64(seed);
    for count in [2u32, 3, 4, 8] {
        let ring = ShardRing::new(count);
        let mut per_shard = vec![0usize; count as usize];
        for _ in 0..KEYS {
            per_shard[ring.route(random_key(&mut rng)) as usize] += 1;
        }
        let ideal = KEYS / count as usize;
        for (shard, &hits) in per_shard.iter().enumerate() {
            // With 64 virtual nodes per shard the worst arc stays well
            // within a factor of two of the ideal share; a violated bound
            // means the point hash degenerated, which would silently turn
            // the cluster into one hot shard.
            assert!(
                hits * 2 > ideal && hits < ideal * 2,
                "seed {seed}: shard {shard}/{count} took {hits} of {KEYS} keys \
                 (ideal {ideal}): {per_shard:?}"
            );
        }
    }
}

#[test]
fn growing_the_ring_moves_only_the_new_shards_keys() {
    let seed = 20140703;
    for count in [1u32, 2, 3, 5, 8] {
        let mut rng = StdRng::seed_from_u64(seed + u64::from(count));
        let small = ShardRing::new(count);
        let grown = ShardRing::new(count + 1);
        let mut moved = 0usize;
        for case in 0..KEYS {
            let key = random_key(&mut rng);
            let before = small.route(key);
            let after = grown.route(key);
            if before != after {
                moved += 1;
                // Consistent hashing's defining property: the new shard's
                // points only *take over* arcs — no key is reshuffled
                // between the old shards.
                assert_eq!(
                    after,
                    count,
                    "seed {seed} case {case}: key {key:#034x} moved from shard {before} \
                     to old shard {after} when growing {count}→{}",
                    count + 1
                );
            }
        }
        // The new shard takes ~1/(n+1) of the space; allow generous noise
        // but fail on a reshuffle-sized move count.
        let expected = KEYS / (count as usize + 1);
        assert!(
            moved <= expected * 2,
            "seed {seed}: growing {count}→{} moved {moved} of {KEYS} keys \
             (expected ~{expected})",
            count + 1
        );
        // And growth must actually hand the new shard some keys.
        assert!(
            moved * 4 >= expected,
            "seed {seed}: growing {count}→{} moved only {moved} keys \
             (expected ~{expected}); the new shard is starved",
            count + 1
        );
    }
}
