//! Experiment scaling and shared constants.

use serde::{Deserialize, Serialize};

/// The paper's fixed base price `C_s` (§4.1).
pub const BASE_PRICE: f64 = 10.0;

/// The paper's privacy window `w` for Eq. 14. The paper does not state the
/// value used; 5 slots gives the qualitative behaviour of Fig. 6 (recent
/// reporting is penalized, spread-out reporting is cheap).
pub const PRIVACY_WINDOW: usize = 5;

/// θ_min for point queries (§4.3).
pub const THETA_MIN: f64 = 0.2;

/// Scale of an experiment run: the full paper configuration or a reduced
/// one for tests and micro-benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Scale {
    /// Number of simulated time slots (50 in the paper).
    pub slots: usize,
    /// Multiplier (0–1] applied to per-slot query counts.
    pub query_factor: f64,
    /// Multiplier (0–1] applied to sensor-population sizes.
    pub sensor_factor: f64,
    /// Base RNG seed; every run derives sub-seeds from it.
    pub seed: u64,
    /// Worker threads for `Aggregator::step`'s parallel evaluate phases
    /// (`AggregatorBuilder::threads`): `0` = auto-detect. Purely a
    /// wall-clock knob — every experiment's output is bit-identical for
    /// every value.
    pub threads: usize,
    /// Tile-grid side for the federation layer: `1` runs the single
    /// `Aggregator`, `g ≥ 2` a `ps_cluster::ShardedAggregator` over a
    /// `g × g` grid (g² shards) with halo routing and global settlement.
    /// Unlike `threads`, sharding may change results on cross-tile
    /// workloads; `tests/cluster_equivalence.rs` bounds the welfare gap
    /// (`docs/PERFORMANCE.md`).
    pub shards: usize,
}

impl Scale {
    /// The paper's full configuration.
    pub fn full() -> Self {
        Self {
            slots: 50,
            query_factor: 1.0,
            sensor_factor: 1.0,
            seed: 2013,
            threads: 0,
            shards: 1,
        }
    }

    /// A fast configuration for integration tests (~seconds).
    pub fn test() -> Self {
        Self {
            slots: 8,
            query_factor: 0.15,
            sensor_factor: 0.5,
            seed: 2013,
            threads: 0,
            shards: 1,
        }
    }

    /// A middle ground for Criterion benches.
    pub fn bench() -> Self {
        Self {
            slots: 10,
            query_factor: 0.25,
            sensor_factor: 0.6,
            seed: 2013,
            threads: 0,
            shards: 1,
        }
    }

    /// The smallest sane configuration: CI runs `repro --scale smoke all`
    /// on every PR so the experiment drivers are *executed*, not just
    /// compiled.
    pub fn smoke() -> Self {
        Self {
            slots: 3,
            query_factor: 0.05,
            sensor_factor: 0.3,
            seed: 2013,
            threads: 0,
            shards: 1,
        }
    }

    /// City scale: the ROADMAP's operating point rather than the paper's.
    /// Scales the §4 populations up to ≥ 10 000 sensors
    /// (`sensor_count(635)` ≥ 10k) and ≥ 1 000 standing mixed queries per
    /// slot (`queries(300)` point queries alone exceed 1k, before
    /// aggregates and the monitor population). Pair with
    /// `workload::StandingMixProfile::from_scale`, which also grows the
    /// arena to keep the paper's sensor density.
    pub fn city() -> Self {
        Self {
            slots: 20,
            query_factor: 4.0,
            sensor_factor: 16.0,
            seed: 2013,
            threads: 0,
            shards: 2,
        }
    }

    /// Metro scale: an order of magnitude past [`Scale::city`] —
    /// ≥ 100 000 sensors per announcement (`sensor_count(635)` ≥ 100k)
    /// and ≥ 5 000 standing mixed queries per slot across all four
    /// campaign types. This is the tier the multi-threaded slot pipeline
    /// targets; pair with
    /// `workload::StandingMixProfile::metro`, which adds bursty arrivals
    /// and a mixed aggregate-campaign profile on top of the density-true
    /// arena.
    pub fn metro() -> Self {
        Self {
            slots: 10,
            query_factor: 14.0,
            sensor_factor: 160.0,
            seed: 2013,
            threads: 0,
            shards: 2,
        }
    }

    /// Scales a query count, keeping at least 1.
    pub fn queries(&self, full: usize) -> usize {
        ((full as f64 * self.query_factor).round() as usize).max(1)
    }

    /// Scales a sensor count, keeping at least 1.
    pub fn sensor_count(&self, full: usize) -> usize {
        ((full as f64 * self.sensor_factor).round() as usize).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_matches_paper() {
        let s = Scale::full();
        assert_eq!(s.slots, 50);
        assert_eq!(s.queries(300), 300);
        assert_eq!(s.sensor_count(635), 635);
    }

    #[test]
    fn city_scale_reaches_the_roadmap_floor() {
        let s = Scale::city();
        assert!(
            s.sensor_count(635) >= 10_000,
            "city must field ≥10k sensors"
        );
        assert!(s.queries(300) >= 1_000, "city must field ≥1k point queries");
    }

    #[test]
    fn metro_scale_reaches_the_roadmap_floor() {
        let s = Scale::metro();
        assert!(
            s.sensor_count(635) >= 100_000,
            "metro must field ≥100k sensors"
        );
        // Standing mix: 300 points + 8 aggregates + 40 location + 25
        // region monitors at the paper's scale.
        let standing = s.queries(300) + s.queries(8) + s.queries(40) + s.queries(25);
        assert!(standing >= 5_000, "metro must field ≥5k standing queries");
    }

    #[test]
    fn shard_defaults_follow_the_tier() {
        // Paper-sized tiers run the single engine; the city and metro
        // operating points default to a 2×2 federation.
        for s in [Scale::full(), Scale::test(), Scale::bench(), Scale::smoke()] {
            assert_eq!(s.shards, 1);
        }
        assert_eq!(Scale::city().shards, 2);
        assert_eq!(Scale::metro().shards, 2);
    }

    #[test]
    fn test_scale_shrinks_but_never_to_zero() {
        let s = Scale::test();
        assert!(s.queries(300) < 300);
        assert!(s.queries(1) >= 1);
        assert!(s.sensor_count(1) >= 1);
    }
}
