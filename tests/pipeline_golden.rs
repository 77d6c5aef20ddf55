//! Golden pin of the Algorithm 5 slot pipeline.
//!
//! Every engine configuration the pipeline supports runs the same small
//! mixed workload — end-user points, aggregates, one custom
//! [`SetValuation`] per slot, location monitors and region monitors —
//! over several slots, and every slot's report is folded into one
//! FNV-1a hash per configuration. The hash covers the welfare bits,
//! every [`MixBreakdown`] field, the ledger's per-query payments and
//! per-sensor receipts, `sensors_used`, the point/aggregate/custom
//! results, the retired monitors and the id counter, so any change to
//! selection, payments, welfare accumulation order or id minting order
//! shows up as a changed constant. A second set of pins runs a
//! 600-sensor standing mix through joint Algorithm 5 and every point
//! scheduler.
//!
//! The constants are part of the engine's contract: a refactor of the
//! pipeline must leave them untouched. FNV-1a is written out by hand
//! because `std`'s `DefaultHasher` does not promise a stable output.

use ps_cluster::{ClusterBuilder, SHARD_ID_BLOCK};
use ps_core::aggregator::RetiredMonitor;
use ps_core::aggregator::{
    AggregateSpec, Aggregator, AggregatorBuilder, LocationMonitorSpec, MixBreakdown, MixStrategy,
    PointSpec, RegionMonitorSpec, SlotReport,
};
use ps_core::alloc::baseline::BaselinePointScheduler;
use ps_core::alloc::egalitarian::EgalitarianScheduler;
use ps_core::alloc::local_search::LocalSearchScheduler;
use ps_core::alloc::optimal::{GreedyPointScheduler, OptimalScheduler, WithLpBound};
use ps_core::alloc::PointScheduler;
use ps_core::model::{QueryId, SensorSnapshot};
use ps_core::payment::Ledger;
use ps_core::query::AggregateKind;
use ps_core::streaming::ArrivalEvent;
use ps_core::valuation::monitoring::{MonitoringContext, MonitoringValuation};
use ps_core::valuation::quality::QualityModel;
use ps_core::valuation::region::RegionValuation;
use ps_core::valuation::{SetValuation, SpatialSupport};
use ps_geo::{Point, Rect};
use ps_gp::kernel::SquaredExponential;
use ps_sim::config::Scale;
use ps_sim::workload::{test_monitoring_ctx, StandingMixProfile};
use ps_stats::regression::DiurnalBasis;
use ps_stats::TimeSeries;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::RangeInclusive;
use std::sync::Arc;

const SLOTS: usize = 5;
const ARENA: f64 = 40.0;
const SENSORS: usize = 70;

// ── FNV-1a ───────────────────────────────────────────────────────────────

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn usize(&mut self, x: usize) {
        self.u64(x as u64);
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    fn opt(&mut self, x: Option<usize>) {
        self.u64(x.map_or(u64::MAX, |v| v as u64));
    }
}

fn hash_breakdown(h: &mut Fnv, b: &MixBreakdown) {
    h.usize(b.point_total);
    h.usize(b.point_satisfied);
    h.f64(b.point_quality_sum);
    h.usize(b.aggregate_total);
    h.usize(b.aggregate_answered);
    h.f64(b.aggregate_quality_sum);
    h.usize(b.monitor_samples);
    h.f64(b.point_sched_welfare);
    h.f64(b.point_lp_bound);
    h.usize(b.bound_known_slots);
    h.usize(b.limited_slots);
}

/// Per-query payments over every id the engine could have minted, then
/// per-sensor receipts in sensor-id order.
fn hash_ledger(h: &mut Fnv, ledger: &Ledger, ids: &[RangeInclusive<u64>]) {
    for range in ids {
        for id in range.clone() {
            h.f64(ledger.query_payment(QueryId(id)));
        }
    }
    for (sensor, receipt) in ledger.paid_sensors() {
        h.usize(sensor);
        h.f64(receipt);
    }
}

fn hash_report(h: &mut Fnv, r: &SlotReport, ids: &[RangeInclusive<u64>]) {
    h.usize(r.slot);
    h.f64(r.welfare);
    hash_breakdown(h, &r.breakdown);
    hash_ledger(h, &r.ledger, ids);
    h.usize(r.sensors_used.len());
    for &si in &r.sensors_used {
        h.usize(si);
    }
    h.usize(r.point_results.len());
    for p in &r.point_results {
        h.u64(p.id.0);
        h.opt(p.sensor);
        h.f64(p.value);
        h.f64(p.paid);
        h.f64(p.quality);
    }
    for set in [&r.aggregate_results, &r.custom_results] {
        h.usize(set.len());
        for s in set {
            h.u64(s.id.0);
            h.usize(s.sensors.len());
            for &si in &s.sensors {
                h.usize(si);
            }
            h.f64(s.value);
            h.f64(s.paid);
        }
    }
}

fn hash_retired<'a>(h: &mut Fnv, retired: impl IntoIterator<Item = &'a RetiredMonitor>) {
    for m in retired {
        h.u64(m.id().0);
        h.f64(m.value());
        h.f64(m.spent());
    }
}

// ── The workload ─────────────────────────────────────────────────────────

/// splitmix64: a dependency-free, platform-stable generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn quality() -> QualityModel {
    QualityModel::new(5.0)
}

fn monitoring_ctx() -> Arc<MonitoringContext> {
    let times: Vec<f64> = (0..100).map(|i| i as f64 - 100.0).collect();
    let values: Vec<f64> = times
        .iter()
        .map(|&t| 20.0 + 5.0 * (std::f64::consts::TAU * t / 50.0).sin())
        .collect();
    Arc::new(MonitoringContext {
        basis: DiurnalBasis {
            period: 50.0,
            harmonics: 1,
        },
        history: TimeSeries::new(times, values),
        fold: None,
    })
}

/// A custom black-box valuation: 9 per distinct sensor inside its
/// rectangle, capped at three sensors. Declares its support so the
/// federation layer can route it.
struct RectCoverage {
    rect: Rect,
    committed: usize,
}

impl RectCoverage {
    fn value_of(n: usize) -> f64 {
        9.0 * n.min(3) as f64
    }
}

impl SetValuation for RectCoverage {
    fn current_value(&self) -> f64 {
        Self::value_of(self.committed)
    }

    fn marginal(&self, sensor: &SensorSnapshot) -> f64 {
        if !self.is_relevant(sensor) {
            return 0.0;
        }
        Self::value_of(self.committed + 1) - Self::value_of(self.committed)
    }

    fn commit(&mut self, _sensor: &SensorSnapshot) {
        self.committed += 1;
    }

    fn is_relevant(&self, sensor: &SensorSnapshot) -> bool {
        self.rect.contains(sensor.loc)
    }

    fn support(&self) -> Option<SpatialSupport> {
        Some(SpatialSupport::Rect(self.rect))
    }

    fn max_value(&self) -> f64 {
        Self::value_of(3)
    }
}

/// Grid-snapped coordinate so several point queries share a location
/// (the paper's `Q_l` groups).
fn grid_point(rng: &mut Rng) -> Point {
    Point::new(
        2.0 * rng.below(19) as f64 + 1.0,
        2.0 * rng.below(19) as f64 + 1.0,
    )
}

fn square(rng: &mut Rng, side: f64) -> Rect {
    let x = rng.uniform(0.0, ARENA - side);
    let y = rng.uniform(0.0, ARENA - side);
    Rect::new(x, y, x + side, y + side)
}

/// One slot's queries and announcement.
struct SlotInput {
    points: Vec<PointSpec>,
    aggregates: Vec<AggregateSpec>,
    custom: Rect,
    location_monitors: Vec<LocationMonitorSpec>,
    region_monitors: Vec<RegionMonitorSpec>,
    sensors: Vec<SensorSnapshot>,
}

fn slot_input(t: usize) -> SlotInput {
    let mut rng = Rng(0x5107_0000 + t as u64);
    let ctx = monitoring_ctx();
    let kernel = SquaredExponential::new(2.0, 2.0);
    let points = (0..14)
        .map(|_| PointSpec {
            loc: grid_point(&mut rng),
            budget: rng.uniform(4.0, 22.0),
            theta_min: 0.2,
        })
        .collect();
    let aggregates = (0..2)
        .map(|_| AggregateSpec {
            region: square(&mut rng, 10.0),
            budget: rng.uniform(25.0, 60.0),
            kind: AggregateKind::Average,
        })
        .collect();
    let custom = square(&mut rng, 12.0);
    // Monitors arrive at slots 0 and 2; the short ones retire mid-run.
    let location_monitors = if matches!(t, 0 | 2) {
        (0..3)
            .map(|i| LocationMonitorSpec {
                loc: grid_point(&mut rng),
                t1: t,
                t2: t + 1 + i,
                alpha: 0.5,
                theta_min: 0.2,
                valuation: MonitoringValuation::new(
                    ctx.clone(),
                    rng.uniform(40.0, 120.0),
                    vec![t as f64, t as f64 + 2.0],
                ),
            })
            .collect()
    } else {
        Vec::new()
    };
    let region_monitors = if t < 2 {
        (0..2)
            .map(|i| RegionMonitorSpec {
                t1: t,
                t2: t + 2 + i,
                alpha: 0.5,
                theta_min: 0.2,
                valuation: RegionValuation::new(
                    rng.uniform(60.0, 140.0),
                    square(&mut rng, 12.0),
                    &kernel,
                    0.1,
                ),
            })
            .collect()
    } else {
        Vec::new()
    };
    let sensors = (0..SENSORS)
        .map(|id| SensorSnapshot {
            id,
            loc: Point::new(rng.uniform(0.0, ARENA), rng.uniform(0.0, ARENA)),
            cost: rng.uniform(3.0, 14.0),
            trust: 1.0,
            inaccuracy: 0.0,
        })
        .collect();
    SlotInput {
        points,
        aggregates,
        custom,
        location_monitors,
        region_monitors,
        sensors,
    }
}

fn custom_valuation(rect: Rect) -> RectCoverage {
    RectCoverage { rect, committed: 0 }
}

// ── Drivers ──────────────────────────────────────────────────────────────

/// How a single engine consumes each slot.
#[derive(Clone, Copy)]
enum Drive {
    /// Everything submitted up front, then `step`.
    Batch,
    /// Monitors and customs up front; points, aggregates and sensors as
    /// interleaved mid-slot events through `step_streaming`.
    Stream,
}

fn submit_upfront(engine: &mut Aggregator<'_>, input: &SlotInput, with_oneshots: bool) {
    for spec in &input.location_monitors {
        engine.submit_location_monitor(spec.clone());
    }
    for spec in &input.region_monitors {
        engine.submit_region_monitor(spec.clone());
    }
    if with_oneshots {
        for spec in &input.points {
            engine.submit_point(*spec);
        }
        for spec in &input.aggregates {
            engine.submit_aggregate(spec.clone());
        }
    }
    engine.submit_valuation(custom_valuation(input.custom));
}

/// Mid-slot arrivals: a third of the points before any sensor, the rest
/// interleaved with the sensors over the slot; aggregates near the end.
fn slot_events(input: &SlotInput, ticks: u64) -> Vec<ArrivalEvent> {
    let mut events = Vec::new();
    let split = input.points.len() / 3;
    for spec in &input.points[..split] {
        events.push(ArrivalEvent::point(0, *spec));
    }
    let rest = &input.points[split..];
    for (i, s) in input.sensors.iter().enumerate() {
        let tick = (i as u64 * ticks) / input.sensors.len() as u64;
        events.push(ArrivalEvent::sensor(tick, *s));
        if i % 5 == 4 {
            if let Some(spec) = rest.get(i / 5) {
                events.push(ArrivalEvent::point(tick, *spec));
            }
        }
    }
    for spec in rest.iter().skip(input.sensors.len() / 5) {
        events.push(ArrivalEvent::point(ticks - 1, *spec));
    }
    for spec in &input.aggregates {
        events.push(ArrivalEvent::aggregate(ticks - 10, spec.clone()));
    }
    events
}

fn run_engine(mut engine: Aggregator<'_>, drive: Drive) -> u64 {
    let mut h = Fnv::new();
    for t in 0..SLOTS {
        let input = slot_input(t);
        let report = match drive {
            Drive::Batch => {
                submit_upfront(&mut engine, &input, true);
                engine.step(t, &input.sensors)
            }
            Drive::Stream => {
                submit_upfront(&mut engine, &input, false);
                let events = slot_events(&input, engine.ticks_per_slot());
                engine.step_streaming(t, &events)
            }
        };
        let ids = [1..=engine.next_query_id()];
        hash_report(&mut h, &report, &ids);
        hash_retired(&mut h, engine.retired_monitors());
        h.u64(engine.next_query_id());
    }
    h.0
}

fn engine<'s>(f: impl FnOnce(AggregatorBuilder<'s>) -> AggregatorBuilder<'s>) -> Aggregator<'s> {
    f(AggregatorBuilder::new(quality()).threads(2)).build()
}

fn run_cluster() -> u64 {
    let mut cluster = ClusterBuilder::new(quality(), Rect::with_size(ARENA, ARENA), 2)
        .threads(2)
        .build();
    let mut h = Fnv::new();
    for t in 0..SLOTS {
        let input = slot_input(t);
        for spec in &input.location_monitors {
            cluster.submit_location_monitor(spec.clone());
        }
        for spec in &input.region_monitors {
            cluster.submit_region_monitor(spec.clone());
        }
        for spec in &input.points {
            cluster.submit_point(*spec);
        }
        for spec in &input.aggregates {
            cluster.submit_aggregate(spec.clone());
        }
        cluster.submit_valuation(custom_valuation(input.custom));
        let report = cluster.step(t, &input.sensors);
        let ids: Vec<RangeInclusive<u64>> = cluster
            .shards()
            .iter()
            .enumerate()
            .map(|(k, shard)| k as u64 * SHARD_ID_BLOCK + 1..=shard.next_query_id())
            .collect();
        hash_report(&mut h, &report, &ids);
        hash_retired(&mut h, cluster.retired_monitors());
        for shard in cluster.shards() {
            h.u64(shard.next_query_id());
        }
    }
    h.0
}

// ── The pins ─────────────────────────────────────────────────────────────

fn check(label: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{label}: pipeline output changed (hash {got:#018x}, pinned {want:#018x})"
    );
}

#[test]
fn alg5_joint_selection() {
    check(
        "alg5",
        run_engine(engine(|b| b), Drive::Batch),
        0x7f3d_2fb0_f84d_8c2f,
    );
}

#[test]
fn alg5_with_optimal_scheduler() {
    let e = engine(|b| b.scheduler(OptimalScheduler::new()));
    check(
        "alg5+optimal",
        run_engine(e, Drive::Batch),
        0xd9df_6b92_b288_4f1d,
    );
}

#[test]
fn alg5_with_local_search_scheduler() {
    let e = engine(|b| b.scheduler(LocalSearchScheduler::new()));
    check(
        "alg5+local_search",
        run_engine(e, Drive::Batch),
        0xadc1_5fb0_a6e7_f9dc,
    );
}

#[test]
fn alg5_with_certified_greedy_scheduler() {
    let e = engine(|b| b.scheduler(WithLpBound::new(GreedyPointScheduler::new())));
    check(
        "alg5+lp_bound(greedy)",
        run_engine(e, Drive::Batch),
        0xd9df_6b92_b288_4f1d,
    );
}

#[test]
fn alg5_with_the_region_baseline_configuration() {
    // The §4.6 (fig 8/9) baseline: baseline point scheduler, raw costs,
    // no A_{r,t} sharing.
    let e = engine(|b| {
        b.scheduler(BaselinePointScheduler::new())
            .cost_weighting(false)
            .sensor_sharing(false)
    });
    check(
        "alg5+baseline_scheduler",
        run_engine(e, Drive::Batch),
        0x84f0_fd58_fa87_8d8a,
    );
}

#[test]
fn sequential_baseline() {
    let e = engine(|b| b.strategy(MixStrategy::SequentialBaseline));
    check(
        "sequential_baseline",
        run_engine(e, Drive::Batch),
        0xce44_b850_7dc3_be38,
    );
}

#[test]
fn online_auction_batch_step() {
    let e = engine(|b| b.strategy(MixStrategy::OnlineAuction));
    check(
        "online_auction/step",
        run_engine(e, Drive::Batch),
        0xdbf7_0da8_97ab_ef6c,
    );
}

#[test]
fn online_auction_mid_slot_stream() {
    let e = engine(|b| b.strategy(MixStrategy::OnlineAuction));
    check(
        "online_auction/stream",
        run_engine(e, Drive::Stream),
        0xd2e2_92a3_a29f_04ad,
    );
}

#[test]
fn alg5_on_a_two_by_two_cluster() {
    check("cluster_2x2", run_cluster(), 0xffb4_2636_b94a_0c72);
}

// ── The collapsed configuration matrix ───────────────────────────────────

#[test]
fn sequential_baseline_with_the_baseline_scheduler_is_the_sequential_baseline() {
    // `SequentialBaseline` is the §4.7 baseline on every stage; naming its
    // default point scheduler explicitly must not change a single bit.
    let plain = engine(|b| b.strategy(MixStrategy::SequentialBaseline));
    let explicit = engine(|b| {
        b.strategy(MixStrategy::SequentialBaseline)
            .scheduler(BaselinePointScheduler::new())
    });
    assert_eq!(
        run_engine(explicit, Drive::Batch),
        run_engine(plain, Drive::Batch),
        "an explicit BaselinePointScheduler changed the sequential baseline"
    );
}

// ── The 600-sensor standing mix ──────────────────────────────────────────
//
// The inputs above announce 70 sensors. These pins run a larger mixed
// standing stream, 600 sensors with every query type, through joint
// Algorithm 5 and through each point scheduler. Their constants were
// recorded from the engine's former brute-force candidate scans (full
// scans of the announcement instead of `SensorIndex` queries) and
// matched the indexed engine bit for bit, so they hold the index path
// to the scan results it replaced.

fn standing_mix() -> StandingMixProfile {
    let mut p = StandingMixProfile::from_scale(&Scale::test());
    p.sensors = 600;
    p.points_per_slot = 200;
    p.aggregates_mean = 3;
    p.location_monitors = 6;
    p.region_monitors = 4;
    p
}

fn run_standing_mix(mut engine: Aggregator<'_>, slots: usize) -> u64 {
    let p = standing_mix();
    let ctx = test_monitoring_ctx();
    let kernel = SquaredExponential::new(2.0, 2.0);
    let mut rng = StdRng::seed_from_u64(42);
    let mut h = Fnv::new();
    let mut served = 0;
    for t in 0..slots {
        p.submit_slot(&mut rng, t, &mut engine, &ctx, &kernel);
        let sensors = p.sensors(&mut rng);
        let report = engine.step(t, &sensors);
        served += report.breakdown.point_satisfied + report.breakdown.monitor_samples;
        let ids = [1..=engine.next_query_id()];
        hash_report(&mut h, &report, &ids);
        hash_retired(&mut h, engine.retired_monitors());
        h.u64(engine.next_query_id());
    }
    assert!(served > 0, "the standing mix served nothing");
    h.0
}

fn check_scheduled_mix(label: &str, scheduler: impl PointScheduler + 'static, want: u64) {
    let e = engine(|b| b.scheduler(scheduler));
    check(label, run_standing_mix(e, 4), want);
}

#[test]
fn standing_mix_joint_selection() {
    check(
        "mix/alg5",
        run_standing_mix(engine(|b| b), 6),
        0x3728_6725_fd05_763e,
    );
}

#[test]
fn standing_mix_with_optimal_scheduler() {
    check_scheduled_mix(
        "mix/optimal",
        OptimalScheduler::new(),
        0x1c7b_8754_478b_2b05,
    );
}

#[test]
fn standing_mix_with_local_search_scheduler() {
    check_scheduled_mix(
        "mix/local_search",
        LocalSearchScheduler::new(),
        0x10e5_e821_7a36_ca5e,
    );
}

#[test]
fn standing_mix_with_greedy_scheduler() {
    check_scheduled_mix(
        "mix/greedy",
        GreedyPointScheduler::new(),
        0x10e5_e821_7a36_ca5e,
    );
}

#[test]
fn standing_mix_with_certified_greedy_scheduler() {
    check_scheduled_mix(
        "mix/lp_bound(greedy)",
        WithLpBound::new(GreedyPointScheduler::new()),
        0xdc2e_b4d3_ef7d_99a5,
    );
}

#[test]
fn standing_mix_with_baseline_scheduler() {
    check_scheduled_mix(
        "mix/baseline",
        BaselinePointScheduler::new(),
        0x018b_0951_7816_3d18,
    );
}

#[test]
fn standing_mix_with_egalitarian_scheduler() {
    check_scheduled_mix(
        "mix/egalitarian",
        EgalitarianScheduler::new(),
        0xecb9_f1c7_ddce_9642,
    );
}
