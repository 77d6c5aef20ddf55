//! The spatial index is a pure accelerator: an `Aggregator` with
//! `spatial_index(true)` and one with `spatial_index(false)` must produce
//! **identical** `SlotReport`s — same welfare bits, same selections, same
//! payments — on the same seeded mixed standing stream. The scheduled
//! (§4.5/§4.6) path gets the same treatment.

use ps_core::aggregator::{Aggregator, AggregatorBuilder, SlotReport, SPATIAL_INDEX_MIN_SENSORS};
use ps_core::alloc::baseline::BaselinePointScheduler;
use ps_core::alloc::egalitarian::EgalitarianScheduler;
use ps_core::alloc::local_search::LocalSearchScheduler;
use ps_core::alloc::optimal::{GreedyPointScheduler, OptimalScheduler, WithLpBound};
use ps_core::alloc::PointScheduler;
use ps_core::valuation::quality::QualityModel;
use ps_gp::kernel::SquaredExponential;
use ps_sim::config::Scale;
use ps_sim::workload::{test_monitoring_ctx, StandingMixProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn profile() -> StandingMixProfile {
    let mut p = StandingMixProfile::from_scale(&Scale::test());
    // Small but genuinely mixed: every query type participates. The
    // sensor count clears `SPATIAL_INDEX_MIN_SENSORS`, so the indexed
    // engine really builds its index.
    p.sensors = 600;
    p.points_per_slot = 200;
    p.aggregates_mean = 3;
    p.location_monitors = 6;
    p.region_monitors = 4;
    p
}

/// Drives `slots` slots of `p` through an engine, collecting every report.
fn run(engine: &mut Aggregator<'_>, p: &StandingMixProfile, slots: usize) -> Vec<SlotReport> {
    let ctx = test_monitoring_ctx();
    let kernel = SquaredExponential::new(2.0, 2.0);
    let mut rng = StdRng::seed_from_u64(42);
    (0..slots)
        .map(|t| {
            p.submit_slot(&mut rng, t, engine, &ctx, &kernel);
            let sensors = p.sensors(&mut rng);
            assert!(
                sensors.len() >= SPATIAL_INDEX_MIN_SENSORS,
                "{} sensors would skip the index on both sides",
                sensors.len()
            );
            engine.step(t, &sensors)
        })
        .collect()
}

/// Exact comparison — the index must not perturb a single bit.
fn assert_reports_identical(a: &[SlotReport], b: &[SlotReport]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        let t = x.slot;
        assert_eq!(x.welfare, y.welfare, "welfare diverged at slot {t}");
        assert_eq!(x.sensors_used, y.sensors_used, "selections at slot {t}");
        assert_eq!(
            x.breakdown.point_satisfied, y.breakdown.point_satisfied,
            "point satisfaction at slot {t}"
        );
        assert_eq!(
            x.breakdown.aggregate_answered, y.breakdown.aggregate_answered,
            "aggregates at slot {t}"
        );
        assert_eq!(
            x.breakdown.monitor_samples, y.breakdown.monitor_samples,
            "monitor samples at slot {t}"
        );
        assert_eq!(
            x.ledger.total_payments(),
            y.ledger.total_payments(),
            "payments at slot {t}"
        );
        assert_eq!(
            x.ledger.total_receipts(),
            y.ledger.total_receipts(),
            "receipts at slot {t}"
        );
        assert_eq!(x.point_results.len(), y.point_results.len());
        for (pa, pb) in x.point_results.iter().zip(&y.point_results) {
            assert_eq!(pa.id, pb.id);
            assert_eq!(pa.value, pb.value, "point value at slot {t}");
            assert_eq!(pa.paid, pb.paid, "point payment at slot {t}");
            assert_eq!(pa.sensor, pb.sensor, "serving sensor at slot {t}");
        }
        for (aa, ab) in x.aggregate_results.iter().zip(&y.aggregate_results) {
            assert_eq!(aa.id, ab.id);
            assert_eq!(aa.value, ab.value, "aggregate value at slot {t}");
            assert_eq!(aa.sensors, ab.sensors, "aggregate sensors at slot {t}");
        }
    }
}

fn assert_indexed_matches_brute_force(p: &StandingMixProfile, slots: usize) {
    let mut indexed = AggregatorBuilder::new(QualityModel::new(5.0)).build();
    let mut brute = AggregatorBuilder::new(QualityModel::new(5.0))
        .spatial_index(false)
        .build();
    let a = run(&mut indexed, p, slots);
    let b = run(&mut brute, p, slots);
    assert_reports_identical(&a, &b);
    // The stream actually exercised the engine.
    assert!(a.iter().any(|r| r.breakdown.point_satisfied > 0));
    assert!(a.iter().any(|r| r.breakdown.monitor_samples > 0));
}

#[test]
fn indexed_and_brute_force_steps_are_identical_on_a_mixed_stream() {
    assert_indexed_matches_brute_force(&profile(), 6);
}

#[test]
#[ignore = "city scale (10 160 sensors); run with --release -- --ignored"]
fn indexed_and_brute_force_steps_are_identical_at_city_scale() {
    assert_indexed_matches_brute_force(&StandingMixProfile::from_scale(&Scale::city()), 7);
}

#[test]
fn indexed_and_brute_force_scheduled_paths_are_identical() {
    let schedulers: [fn() -> Box<dyn PointScheduler>; 6] = [
        || Box::new(OptimalScheduler::new()),
        || Box::new(LocalSearchScheduler::new()),
        || Box::new(GreedyPointScheduler),
        // The certified configuration of the benchmark.
        || Box::new(WithLpBound::new(GreedyPointScheduler)),
        || Box::new(BaselinePointScheduler),
        || Box::new(EgalitarianScheduler),
    ];
    let p = profile();
    for scheduler in schedulers {
        let build = |spatial: bool| {
            AggregatorBuilder::new(QualityModel::new(5.0))
                .spatial_index(spatial)
                .scheduler(scheduler())
                .build()
        };
        let mut indexed = build(true);
        let mut brute = build(false);
        let a = run(&mut indexed, &p, 4);
        let b = run(&mut brute, &p, 4);
        assert_reports_identical(&a, &b);
    }
}
