//! The four workloads and the closed slot loop that drives them.
//!
//! Every workload is a `ps_sim::workload::StandingMixProfile` fed to an
//! engine one slot at a time: slot `t + 1` is generated only after slot
//! `t`'s report has come back. Only the calls into the system under test
//! are timed (query submission or intake, and the engine step), never
//! input generation or the correctness checks.

use crate::trace::{CallCounts, Instance, Timed, Tracer};
use ps_cluster::{ClusterBuilder, ShardedAggregator, SlotEngine};
use ps_core::aggregator::{
    AggregateSpec, Aggregator, AggregatorBuilder, LocationMonitorSpec, MixStrategy, PointSpec,
    RegionMonitorSpec, RetiredMonitor, SlotReport, Totals, DEFAULT_TICKS_PER_SLOT,
};
use ps_core::alloc::optimal::{GreedyPointScheduler, WithLpBound};
use ps_core::model::{QueryId, SensorSnapshot, Slot};
use ps_core::monitor::location::LocationMonitor;
use ps_core::monitor::region::RegionMonitor;
use ps_core::payment::Ledger;
use ps_core::streaming::{ArrivalEvent, ArrivalPayload, StreamStats};
use ps_core::valuation::monitoring::MonitoringContext;
use ps_core::valuation::quality::QualityModel;
use ps_geo::{Point, SensorIndex};
use ps_gp::kernel::SquaredExponential;
use ps_intake::{AdmissionController, AdmissionPolicy};
use ps_sim::config::Scale;
use ps_sim::workload::{test_monitoring_ctx, StandingMixProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Eq. 4 quality radius `d_max`, as in the simulator's experiments.
const D_MAX: f64 = 5.0;
/// Slots stepped after each engine build before measuring.
pub const WARMUP_SLOTS: usize = 2;
/// Eq. 9 instances the certified workload keeps for open-loop replay.
pub const REPLAY_INSTANCES: usize = 4;
/// Relative tolerance of the ledger and certificate checks.
const TOL: f64 = 1e-6;

/// Span names shared by the slot loop and the metric extraction.
pub const ENGINE_SUBMIT: &str = "engine.submit";
pub const ENGINE_STEP: &str = "engine.step";
pub const INTAKE_SUBMIT: &str = "intake.submit";
pub const INTAKE_ADMIT: &str = "intake.admit";
pub const SOLVER_CERTIFIED: &str = "solver.certified";
pub const SOLVER_SCHEDULE: &str = "solver.schedule";
pub const GEO_INDEX_BUILD: &str = "geo.index_build";
pub const MONITOR_REGION_PLAN: &str = "monitor.region_plan";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MetroBatch,
    CityStream,
    CityCertified,
    MetroFederated,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::MetroBatch,
        Workload::CityStream,
        Workload::CityCertified,
        Workload::MetroFederated,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MetroBatch => "metro_batch",
            Workload::CityStream => "city_stream",
            Workload::CityCertified => "city_certified",
            Workload::MetroFederated => "metro_federated",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn profile(self) -> StandingMixProfile {
        match self {
            Workload::MetroBatch | Workload::MetroFederated => StandingMixProfile::metro(),
            Workload::CityStream => {
                let mut p = StandingMixProfile::from_scale(&Scale::city());
                p.burst_period = 4;
                p.burst_factor = 1.5;
                p
            }
            Workload::CityCertified => StandingMixProfile::from_scale(&Scale::city()),
        }
    }
}

/// The engine under test: one aggregator or the 2×2 federation.
enum Engine {
    Single(Aggregator<'static>),
    Cluster(ShardedAggregator<'static>),
}

impl Engine {
    fn get(&self) -> &dyn SlotEngine {
        match self {
            Engine::Single(a) => a,
            Engine::Cluster(c) => c,
        }
    }

    fn get_mut(&mut self) -> &mut dyn SlotEngine {
        match self {
            Engine::Single(a) => a,
            Engine::Cluster(c) => c,
        }
    }
}

/// One slot's queries as `StandingMixProfile::submit_slot` produced
/// them, held back so that generation stays outside the timed call.
#[derive(Default)]
struct Specs {
    points: Vec<PointSpec>,
    aggregates: Vec<AggregateSpec>,
    location: Vec<LocationMonitorSpec>,
    region: Vec<RegionMonitorSpec>,
}

impl Specs {
    fn len(&self) -> usize {
        self.points.len() + self.aggregates.len() + self.location.len() + self.region.len()
    }

    /// Submits in `submit_slot`'s own order, so the engine mints the
    /// same query ids it would have minted under a direct call.
    fn submit_into(self, engine: &mut dyn SlotEngine) {
        for s in self.points {
            engine.submit_point(s);
        }
        for s in self.aggregates {
            engine.submit_aggregate(s);
        }
        for s in self.location {
            engine.submit_location_monitor(s);
        }
        for s in self.region {
            engine.submit_region_monitor(s);
        }
    }
}

/// A `SlotEngine` that records submissions instead of executing them.
/// Monitor counts include the recorded specs, which is all
/// `submit_slot` reads; every other read goes to the real engine. It is
/// never stepped.
struct Recorder<'a> {
    engine: &'a dyn SlotEngine,
    specs: Specs,
}

impl SlotEngine for Recorder<'_> {
    fn submit_point(&mut self, spec: PointSpec) -> QueryId {
        self.specs.points.push(spec);
        QueryId(0)
    }

    fn submit_aggregate(&mut self, spec: AggregateSpec) -> QueryId {
        self.specs.aggregates.push(spec);
        QueryId(0)
    }

    fn submit_location_monitor(&mut self, spec: LocationMonitorSpec) -> QueryId {
        self.specs.location.push(spec);
        QueryId(0)
    }

    fn submit_region_monitor(&mut self, spec: RegionMonitorSpec) -> QueryId {
        self.specs.region.push(spec);
        QueryId(0)
    }

    fn step(&mut self, _: Slot, _: &[SensorSnapshot]) -> SlotReport {
        unreachable!("the recorder only collects submissions")
    }

    fn step_streaming(&mut self, _: Slot, _: &[ArrivalEvent]) -> SlotReport {
        unreachable!("the recorder only collects submissions")
    }

    fn totals(&self) -> &Totals {
        self.engine.totals()
    }

    fn ledger(&self) -> &Ledger {
        self.engine.ledger()
    }

    fn location_monitors(&self) -> Vec<&LocationMonitor> {
        self.engine.location_monitors()
    }

    fn region_monitors(&self) -> Vec<&RegionMonitor> {
        self.engine.region_monitors()
    }

    fn location_monitor_count(&self) -> usize {
        self.engine.location_monitor_count() + self.specs.location.len()
    }

    fn region_monitor_count(&self) -> usize {
        self.engine.region_monitor_count() + self.specs.region.len()
    }

    fn retired_monitors(&self) -> Vec<&RetiredMonitor> {
        self.engine.retired_monitors()
    }

    fn clear_retired(&mut self) {}
}

enum Input {
    Batch(Specs),
    Stream(Vec<ArrivalEvent>),
}

/// What one slot produced, as the slot loop and the end-to-end metrics
/// see it.
#[derive(Debug, Clone)]
pub struct SlotResult {
    /// Wall time of the timed calls, in ms.
    pub ms: f64,
    /// Queries handed to the system this slot.
    pub queries: usize,
    /// Queries the system refused (admission rejections).
    pub rejected: usize,
    pub welfare: f64,
    pub point_total: usize,
    pub point_satisfied: usize,
    /// The first failed check, if any.
    pub failure: Option<String>,
}

/// Per-layer counts and timings gathered by a traced slot loop.
#[derive(Debug, Default)]
pub struct Layers {
    pub sensors_used: usize,
    pub sched_welfare: f64,
    pub lp_bound: f64,
    pub region_plan_points: usize,
    pub region_active: usize,
    pub location_active: usize,
    pub intake_admitted: usize,
    pub intake_deferred: usize,
    pub intake_rejected: usize,
    pub intake_backlog_max: usize,
    pub stream_events: usize,
    pub stream: Option<StreamStats>,
    pub stream_points: usize,
    pub halo_duplicates: usize,
    pub cost_restored: f64,
}

/// Handles a traced slot loop keeps on its instrumentation.
struct Probes {
    tracer: Arc<Tracer>,
    solver: Option<Arc<Mutex<CallCounts>>>,
    instances: Arc<Mutex<Vec<Instance>>>,
}

/// One engine plus its seeded input stream.
pub struct SlotLoop {
    workload: Workload,
    profile: StandingMixProfile,
    quality: QualityModel,
    engine: Engine,
    intake: Option<AdmissionController>,
    rng: StdRng,
    ctx: Arc<MonitoringContext>,
    kernel: SquaredExponential,
    t: Slot,
    probes: Option<Probes>,
    pub layers: Layers,
}

impl SlotLoop {
    /// Builds the workload's engine for `seed`; with a tracer, the
    /// certified scheduler is wrapped as `Timed<WithLpBound<Timed<_>>>`.
    /// Returns the loop and the build time in seconds.
    pub fn build(workload: Workload, seed: u64, tracer: Option<Arc<Tracer>>) -> (Self, f64) {
        let profile = workload.profile();
        let quality = QualityModel::new(D_MAX);
        let instances = Arc::new(Mutex::new(Vec::new()));
        let mut solver = None;
        let start = Instant::now();
        let engine = match workload {
            Workload::MetroBatch => {
                Engine::Single(AggregatorBuilder::new(quality).threads(1).build())
            }
            Workload::CityStream => Engine::Single(
                AggregatorBuilder::new(quality)
                    .strategy(MixStrategy::OnlineAuction)
                    .ticks_per_slot(DEFAULT_TICKS_PER_SLOT)
                    .threads(1)
                    .build(),
            ),
            Workload::CityCertified => {
                let builder = AggregatorBuilder::new(quality).threads(1);
                let builder = match &tracer {
                    None => builder.scheduler(WithLpBound::new(GreedyPointScheduler)),
                    Some(tr) => {
                        let inner = Timed::new(GreedyPointScheduler, SOLVER_SCHEDULE, tr.clone());
                        let outer =
                            Timed::new(WithLpBound::new(inner), SOLVER_CERTIFIED, tr.clone())
                                .record_into(REPLAY_INSTANCES, instances.clone());
                        solver = Some(outer.counts());
                        builder.scheduler(outer)
                    }
                };
                Engine::Single(builder.build())
            }
            Workload::MetroFederated => Engine::Cluster(
                ClusterBuilder::new(quality, profile.arena, 2)
                    .threads(1)
                    .build(),
            ),
        };
        let build_s = start.elapsed().as_secs_f64();
        let intake = (workload == Workload::CityStream).then(|| {
            AdmissionController::new(AdmissionPolicy {
                max_queries_per_slot: profile.standing_queries(),
                max_budget_per_slot: f64::INFINITY,
                max_defer_slots: 2,
            })
        });
        let slot_loop = Self {
            workload,
            profile,
            quality,
            engine,
            intake,
            rng: StdRng::seed_from_u64(seed),
            ctx: test_monitoring_ctx(),
            kernel: SquaredExponential::new(2.0, 2.0),
            t: 0,
            probes: tracer.map(|tracer| Probes {
                tracer,
                solver,
                instances,
            }),
            layers: Layers::default(),
        };
        (slot_loop, build_s)
    }

    pub fn profile(&self) -> &StandingMixProfile {
        &self.profile
    }

    pub fn quality(&self) -> &QualityModel {
        &self.quality
    }

    /// Zeroes the layer counters, scheduler counts and recorded
    /// instances, so that they cover only what follows.
    pub fn reset_probes(&mut self) {
        self.layers = Layers::default();
        if let Some(p) = &self.probes {
            p.instances.lock().expect("instance sink poisoned").clear();
            if let Some(c) = &p.solver {
                *c.lock().expect("counter lock poisoned") = CallCounts::default();
            }
        }
    }

    /// Calls and queries the certified scheduler has seen.
    pub fn solver_counts(&self) -> CallCounts {
        self.probes
            .as_ref()
            .and_then(|p| p.solver.as_ref())
            .map_or_else(CallCounts::default, |c| {
                *c.lock().expect("counter lock poisoned")
            })
    }

    /// Eq. 9 instances recorded for replay.
    pub fn take_instances(&self) -> Vec<Instance> {
        self.probes.as_ref().map_or_else(Vec::new, |p| {
            std::mem::take(&mut *p.instances.lock().expect("instance sink poisoned"))
        })
    }

    /// Per-shard cumulative point-query totals (federated workload only).
    pub fn shard_point_totals(&self) -> Vec<usize> {
        match &self.engine {
            Engine::Cluster(c) => c
                .shards()
                .iter()
                .map(|s| s.totals().breakdown.point_total)
                .collect(),
            Engine::Single(_) => Vec::new(),
        }
    }

    fn generate(&mut self, t: Slot) -> (Input, Vec<SensorSnapshot>) {
        let engine = self.engine.get();
        match self.workload {
            Workload::CityStream => {
                let events = self.profile.slot_events(
                    &mut self.rng,
                    t,
                    DEFAULT_TICKS_PER_SLOT,
                    engine.location_monitor_count(),
                    engine.region_monitor_count(),
                    &self.ctx,
                    &self.kernel,
                );
                let sensors = events
                    .iter()
                    .filter_map(|e| match &e.payload {
                        ArrivalPayload::Sensor(s) => Some(*s),
                        _ => None,
                    })
                    .collect();
                (Input::Stream(events), sensors)
            }
            _ => {
                let mut recorder = Recorder {
                    engine,
                    specs: Specs::default(),
                };
                self.profile
                    .submit_slot(&mut self.rng, t, &mut recorder, &self.ctx, &self.kernel);
                let specs = recorder.specs;
                let sensors = self.profile.sensors(&mut self.rng);
                (Input::Batch(specs), sensors)
            }
        }
    }

    /// Generates, runs and checks the next slot. Only the submission (or
    /// intake) and the engine step are timed.
    pub fn step(&mut self) -> SlotResult {
        let t = self.t;
        self.t += 1;
        let (input, sensors) = self.generate(t);
        let queries = match &input {
            Input::Batch(specs) => specs.len(),
            Input::Stream(events) => events
                .iter()
                .filter(|e| !matches!(e.payload, ArrivalPayload::Sensor(_)))
                .count(),
        };
        let tracer = self.probes.as_ref().map(|p| p.tracer.clone());
        let tr = tracer.as_deref();
        if let Some(tr) = tr {
            tr.set_slot(t);
        }
        // Monitor state the step is about to consume, for the replayed
        // region planning of traced runs: taken after batch submission,
        // between the two timed calls; on the stream, monitors arriving
        // within the slot are not in it.
        let snapshot = |engine: &dyn SlotEngine| match tr {
            Some(_) => active_monitors(engine, t),
            None => (Vec::new(), 0),
        };

        let engine = self.engine.get_mut();
        let mut ms = 0.0;
        let monitors;
        let (report, admission) = match input {
            Input::Batch(specs) => {
                timed(tr, ENGINE_SUBMIT, &mut ms, || specs.submit_into(engine));
                monitors = snapshot(engine);
                let report = timed(tr, ENGINE_STEP, &mut ms, || engine.step(t, &sensors));
                (report, None)
            }
            Input::Stream(events) => {
                monitors = snapshot(engine);
                let intake = self
                    .intake
                    .as_mut()
                    .expect("the streaming workload has an intake");
                timed(tr, INTAKE_SUBMIT, &mut ms, || {
                    for ev in events {
                        intake.submit(ev);
                    }
                });
                let batch = timed(tr, INTAKE_ADMIT, &mut ms, || intake.admit_slot(t));
                let report = timed(tr, ENGINE_STEP, &mut ms, || {
                    engine.step_streaming(t, &batch.admitted)
                });
                (report, Some((batch, intake.pending())))
            }
        };
        let (planned, location_active) = monitors;
        self.engine.get_mut().clear_retired();

        let failure = self.check(&report, &sensors).err();
        if let Some(tr) = tr {
            let l = &mut self.layers;
            l.sensors_used += report.sensors_used.len();
            l.sched_welfare += report.breakdown.point_sched_welfare;
            l.lp_bound += report.breakdown.point_lp_bound;
            l.region_active += planned.len();
            l.location_active += location_active;
            if let Some((batch, pending)) = &admission {
                l.intake_admitted += batch.admitted.len() - sensors.len();
                l.intake_deferred += batch.deferred();
                l.intake_rejected += batch.rejected();
                l.intake_backlog_max = l.intake_backlog_max.max(*pending);
                l.stream_events += batch.admitted.len();
                l.stream_points += batch
                    .admitted
                    .iter()
                    .filter(|e| matches!(e.payload, ArrivalPayload::Point(_)))
                    .count();
            }
            if let Some(stats) = &report.streaming {
                self.layers
                    .stream
                    .get_or_insert_with(|| StreamStats::new(stats.ticks_per_slot))
                    .absorb(stats);
            }
            if let Engine::Cluster(c) = &self.engine {
                let s = c.last_settlement();
                self.layers.halo_duplicates += s.duplicates;
                self.layers.cost_restored += s.cost_restored;
            }
            self.replay_layers(tr, t, &sensors, &planned);
        }
        SlotResult {
            ms,
            queries,
            rejected: admission.map_or(0, |(batch, _)| batch.rejected()),
            welfare: report.welfare,
            point_total: report.breakdown.point_total,
            point_satisfied: report.breakdown.point_satisfied,
            failure,
        }
    }

    /// Replays two layers the engine calls internally, on this slot's
    /// inputs: `SensorIndex::build` over the announcement, and
    /// `RegionMonitor::plan_indexed` for every region monitor that was
    /// active, with plain (unweighted) sensor costs.
    fn replay_layers(
        &mut self,
        tr: &Tracer,
        t: Slot,
        sensors: &[SensorSnapshot],
        monitors: &[(usize, RegionMonitor)],
    ) {
        let positions: Vec<Point> = sensors.iter().map(|s| s.loc).collect();
        let index = tr.span(GEO_INDEX_BUILD, || SensorIndex::build(&positions));
        let costs: Vec<f64> = sensors.iter().map(|s| s.cost).collect();
        let mut next = 0u64;
        let mut make_id = || {
            next += 1;
            QueryId(next)
        };
        let points = tr.span(MONITOR_REGION_PLAN, || {
            monitors
                .iter()
                .map(|(mi, m)| {
                    m.plan_indexed(t, sensors, &costs, *mi, &mut make_id, Some(&index))
                        .queries
                        .len()
                })
                .sum::<usize>()
        });
        self.layers.region_plan_points += points;
    }

    /// The per-slot correctness checks: finite welfare, budget balance,
    /// cost recovery against the announced costs, and the workload's own
    /// certificate or latency bound.
    fn check(&self, report: &SlotReport, sensors: &[SensorSnapshot]) -> Result<(), String> {
        if !report.welfare.is_finite() {
            return Err(format!(
                "slot {}: welfare {} is not finite",
                report.slot, report.welfare
            ));
        }
        let (paid, received) = (
            report.ledger.total_payments(),
            report.ledger.total_receipts(),
        );
        if (paid - received).abs() > TOL * received.abs().max(1.0) {
            return Err(format!(
                "slot {}: payments {paid} do not balance receipts {received}",
                report.slot
            ));
        }
        let mut cost_of = vec![f64::NAN; sensors.iter().map(|s| s.id + 1).max().unwrap_or(0)];
        for s in sensors {
            cost_of[s.id] = s.cost;
        }
        report
            .ledger
            .verify_cost_recovery(|id| cost_of.get(id).copied().unwrap_or(f64::NAN), TOL)
            .map_err(|e| format!("slot {}: cost recovery: {e}", report.slot))?;
        let b = &report.breakdown;
        if self.workload == Workload::CityCertified {
            if b.point_total > 0 && b.bound_known_slots != 1 {
                return Err(format!("slot {}: no LP certificate", report.slot));
            }
            if b.point_sched_welfare > b.point_lp_bound + TOL * b.point_lp_bound.abs().max(1.0) {
                return Err(format!(
                    "slot {}: schedule welfare {} exceeds its LP bound {}",
                    report.slot, b.point_sched_welfare, b.point_lp_bound
                ));
            }
        }
        if self.workload == Workload::CityStream {
            let stats = report
                .streaming
                .as_ref()
                .ok_or_else(|| format!("slot {}: no streaming statistics", report.slot))?;
            if stats.p99().is_some_and(|p99| p99 > stats.ticks_per_slot) {
                return Err(format!(
                    "slot {}: p99 decision latency {:?} exceeds the slot's {} ticks",
                    report.slot,
                    stats.p99(),
                    stats.ticks_per_slot
                ));
            }
        }
        Ok(())
    }
}

/// Runs `f` inside a span when tracing, and adds its wall time to `ms`.
fn timed<R>(tracer: Option<&Tracer>, name: &'static str, ms: &mut f64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = match tracer {
        Some(tr) => tr.span(name, f),
        None => f(),
    };
    *ms += start.elapsed().as_secs_f64() * 1e3;
    out
}

/// The region monitors active at `t` (with their position in the
/// engine's list), and the number of active location monitors.
fn active_monitors(engine: &dyn SlotEngine, t: Slot) -> (Vec<(usize, RegionMonitor)>, usize) {
    let region = engine
        .region_monitors()
        .into_iter()
        .enumerate()
        .filter(|(_, m)| m.is_active(t))
        .map(|(i, m)| (i, m.clone()))
        .collect();
    let location = engine
        .location_monitors()
        .iter()
        .filter(|m| m.is_active(t))
        .count();
    (region, location)
}
