//! The stateful aggregator engine: a long-running service around
//! Algorithm 5.
//!
//! The paper's aggregator is not a batch of figure scripts — it is a
//! service. Queries arrive and persist, continuous queries live across
//! slots, and every tick the data-acquisition loop (Algorithm 5) runs
//! against whatever sensors announced themselves. [`Aggregator`] owns
//! that loop: query intake with internal [`QueryId`] minting, monitor
//! lifecycle (activation, expiry, retired-monitor statistics), a
//! cumulative [`Ledger`], and a single [`Aggregator::step`] that executes
//! one time slot and returns a [`SlotReport`].
//!
//! # Builder knobs → paper equations
//!
//! | Builder knob | Paper element |
//! |---|---|
//! | [`AggregatorBuilder::new`] (quality model) | Eq. 4 reading quality `θ_{q,s}` (`d_max`) |
//! | [`AggregatorBuilder::sensing_range`] | §4.4 sensing radius `r_s` for aggregate coverage `G_q` (Eq. 5) |
//! | [`AggregatorBuilder::strategy`] = [`MixStrategy::Alg5`] | Algorithm 5: joint selection via Algorithm 1, payments by Eq. 11 |
//! | [`AggregatorBuilder::strategy`] = [`MixStrategy::SequentialBaseline`] | §4.7 baseline on every stage: desired-times monitor queries, raw costs, no sharing, set-valued queries one by one, then the baseline point scheduler |
//! | [`AggregatorBuilder::strategy`] = [`MixStrategy::OnlineAuction`] | online double auction (arXiv:1608.04857) matching point queries at arrival, in front of the Algorithm 5 pipeline |
//! | [`AggregatorBuilder::scheduler`] | §3.1 point schedulers (Eq. 9 exact / Local Search / baseline) as the point stage of Algorithms 2–3 |
//! | [`AggregatorBuilder::cost_weighting`] | Eq. 18 shared-cost weighting `w(k)` for region planning |
//! | [`AggregatorBuilder::sensor_sharing`] | Algorithm 3's `A_{r,t}` free-riding on sensors bought by other queries |
//! | [`AggregatorBuilder::threads`] | worker count for the parallel evaluate work (scaling only — output is bit-identical for every count) |
//!
//! # The slot pipeline: gather → select → route → settle
//!
//! Every slot is one pass of Algorithm 5 through four stages:
//!
//! 1. **gather** — drain the pending one-shot queries, build the slot's
//!    [`SensorIndex`], and turn monitors into point queries: one per
//!    location monitor (Algorithm 2), then the region monitors' plans
//!    (Algorithms 3–4, over Eq. 18 weighted costs). Every point query
//!    carries its [`QueryOrigin`].
//! 2. **select** — choose and price sensors, either *jointly* (Algorithm
//!    1 over every query at once) or *staged*: a set-valued stage for
//!    aggregates and custom valuations, then the configured
//!    [`PointScheduler`] over every point query, called once, with the
//!    sensors the first stage bought cost-discounted to 0.
//! 3. **route** — send each point answer back by its origin: an
//!    end-user result, a location monitor's sample, or a region
//!    monitor's satisfied list.
//! 4. **settle** — payments into the [`Ledger`], monitor results, region
//!    monitors free-riding on bought sensors with the Algorithm 5
//!    refunds to the original payers, the report, and expiry.
//!
//! [`AggregatorBuilder::build`] resolves the knobs into stage choices
//! once:
//!
//! | Configuration | gather | select | settle |
//! |---|---|---|---|
//! | `Alg5` | opportunistic monitor queries, Eq. 18 costs | joint | sharing |
//! | `Alg5` + scheduler | as above | Algorithm 1 set stage, then the scheduler | sharing |
//! | `SequentialBaseline` | desired-times monitor queries, raw costs | sequential set stage, then [`BaselinePointScheduler`] or the configured scheduler | no sharing |
//! | `OnlineAuction` | arrival-time matching first, then as `Alg5` | joint, over what is still open, bought sensors at cost 0 | sharing |
//!
//! `cost_weighting(false)` and `sensor_sharing(false)` turn Eq. 18 and
//! sharing off in the other rows; `OnlineAuction` with a scheduler is
//! rejected by `build`.
//!
//! The embarrassingly parallel work inside gather and select — Eq. 18
//! weight accumulation, per-monitor region planning, Algorithm 1
//! relevance lists and initial gains, the point schedulers'
//! candidate/value evaluation — shards across a [`Threads`] scoped
//! worker pool over contiguous ranges, merging partials in ascending
//! range order. The adaptive picks (Algorithm 1's greedy loop, a
//! scheduler's argmax, where each pick conditions the next), route, and
//! settle stay serial.
//!
//! The determinism contract: for a fixed input stream, the produced
//! [`SlotReport`]s, ledgers, and retired-monitor statistics are
//! **bit-identical** for every `threads` value (see [`crate::exec`];
//! property-tested end to end in `tests/parallel_determinism.rs`).
//!
//! # One slot in five lines
//!
//! ```rust
//! use ps_core::aggregator::{AggregatorBuilder, PointSpec};
//! use ps_core::model::SensorSnapshot;
//! use ps_core::valuation::quality::QualityModel;
//! use ps_geo::Point;
//!
//! let sensors = vec![SensorSnapshot {
//!     id: 0, loc: Point::new(5.0, 5.0), cost: 10.0, trust: 1.0, inaccuracy: 0.0,
//! }];
//! let mut engine = AggregatorBuilder::new(QualityModel::new(5.0)).build();
//! engine.submit_point(PointSpec { loc: Point::new(5.0, 5.0), budget: 12.0, theta_min: 0.2 });
//! let report = engine.step(0, &sensors);
//! assert_eq!(report.breakdown.point_satisfied, 1);
//! assert!(report.welfare > 0.0);
//! ```

use crate::alloc::baseline::{baseline_select_for_query, BaselinePointScheduler};
use crate::alloc::greedy::{greedy_select, GreedySelection};
use crate::alloc::{build_index, PointScheduler};
use crate::exec::Threads;
use crate::model::{QueryId, SensorSnapshot, Slot};
use crate::monitor::location::LocationMonitor;
use crate::monitor::region::{sharing_weight, RegionMonitor, RegionPlan};
use crate::payment::Ledger;
use crate::query::{AggregateKind, AggregateQuery, PointQuery, QueryOrigin};
use crate::streaming::{ArrivalEvent, ArrivalPayload, StreamStats};
use crate::valuation::aggregate::AggregateValuation;
use crate::valuation::monitoring::MonitoringValuation;
use crate::valuation::point::PointValuation;
use crate::valuation::quality::QualityModel;
use crate::valuation::region::RegionValuation;
use crate::valuation::SetValuation;
use ps_geo::{Point, Rect, SensorIndex};
use std::collections::{HashMap, HashSet};

/// Default intra-slot tick resolution for the streaming path (see
/// [`AggregatorBuilder::ticks_per_slot`]).
pub const DEFAULT_TICKS_PER_SLOT: u64 = 1_000;

/// How the select stage picks sensors.
enum SelectStage<'s> {
    /// Algorithm 1 over every query at once (Algorithm 5's joint
    /// selection).
    Joint,
    /// A set-valued stage for aggregates and custom valuations, then
    /// `point` over every point query on cost-discounted sensors.
    Staged {
        set: SetStage,
        point: Box<dyn PointScheduler + 's>,
    },
}

/// The set-valued half of [`SelectStage::Staged`].
#[derive(Clone, Copy)]
enum SetStage {
    /// One Algorithm 1 run over the set-valued queries.
    Greedy,
    /// The §4.7 baseline: one query at a time, buffering bought data.
    Sequential,
}

/// One slot's one-shot queries, drained from the intake. The gather
/// stage appends the monitor-generated point queries to `points`, which
/// then holds the slot's whole point workload, end-user queries first.
struct OneShots<'s> {
    points: Vec<PointQuery>,
    aggregates: Vec<AggregateQuery>,
    customs: Vec<(QueryId, Box<dyn SetValuation + 's>)>,
}

impl OneShots<'_> {
    /// Ids of the set-valued queries: aggregates, then customs.
    fn set_ids(&self) -> impl Iterator<Item = QueryId> + '_ {
        let aggregates = self.aggregates.iter().map(|q| q.id);
        aggregates.chain(self.customs.iter().map(|(id, _)| *id))
    }
}

/// What the select stage decided, in the shape route and settle consume.
#[derive(Default)]
struct Selection {
    /// Set-valued answers: aggregates, then custom valuations.
    sets: Vec<SetQueryResult>,
    /// One answer per point query, in gather order.
    points: Vec<PointResult>,
    /// `(snapshot index, payment)` pairs per query — `sets`, then
    /// `points` — recorded into the ledger in this order; also the
    /// payers region sharing refunds.
    payments: Vec<Vec<(usize, f64)>>,
    /// Welfare booked by the select stage, before routing.
    welfare: f64,
    /// Sensor cost booked after routing (the §4.7 baseline's point
    /// stage).
    post_route_cost: f64,
    /// Sensors bought this slot, in selection order, excluding those a
    /// pre-stage bought.
    sensors_used: Vec<usize>,
    /// Sensors region monitors may free-ride on (Algorithm 3's
    /// `A_{r,t}`).
    candidates: Vec<usize>,
    /// The point scheduler's solver metrics.
    solver: MixBreakdown,
}

/// How the engine acquires data each slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MixStrategy {
    /// Algorithm 5: monitors are translated into point queries, then all
    /// queries are selected *jointly* by Algorithm 1 (or, with a
    /// configured point scheduler, aggregates and customs by Algorithm 1
    /// and point queries by the scheduler), sharing sensors and
    /// splitting costs by Eq. 11.
    #[default]
    Alg5,
    /// The §4.7 sequential baseline on every stage: location monitors
    /// sample at their desired times only, region monitors plan on raw
    /// costs and never free-ride, aggregates and custom valuations are
    /// executed one by one (buffering bought data), then point queries
    /// run through [`BaselinePointScheduler`] — or through the configured
    /// [`AggregatorBuilder::scheduler`], which replaces only that last
    /// stage.
    SequentialBaseline,
    /// The quality-adaptive online double auction (Mukhopadhyay et al.,
    /// arXiv:1608.04857): point queries and sensors are matched at
    /// arrival time by surplus (value of quality minus the sensor's
    /// remaining price — a sensor already bought this slot resells its
    /// buffered reading free), and whatever is still open at the slot
    /// boundary clears through the ordinary Algorithm 5 batch with the
    /// bought sensors cost-discounted. Batch [`Aggregator::step`] under
    /// this strategy is the degenerate stream in which every sensor
    /// arrives at tick 0; feed mid-slot [`ArrivalEvent`]s through
    /// [`Aggregator::step_streaming`] to see arrival-time clearing. The
    /// auction matches point queries itself, so
    /// [`AggregatorBuilder::build`] rejects this strategy combined with an
    /// [`AggregatorBuilder::scheduler`].
    OnlineAuction,
}

/// Intake spec for an end-user point query (§2.2.1, Eq. 3). The engine
/// mints the [`QueryId`].
#[derive(Debug, Clone, Copy)]
pub struct PointSpec {
    /// Queried location `l_q`.
    pub loc: Point,
    /// Budget `B_q` (willingness to pay per unit of quality).
    pub budget: f64,
    /// Minimum acceptable reading quality `θ_min`.
    pub theta_min: f64,
}

/// Intake spec for a spatial aggregate query (§2.2.2, Eq. 5).
#[derive(Debug, Clone)]
pub struct AggregateSpec {
    /// Queried region `r_q`.
    pub region: Rect,
    /// Budget `B_q`.
    pub budget: f64,
    /// Requested aggregate.
    pub kind: AggregateKind,
}

/// Intake spec for a location-monitoring query (§2.3.2, Eqs. 16–17).
#[derive(Debug, Clone)]
pub struct LocationMonitorSpec {
    /// Monitored location.
    pub loc: Point,
    /// First active slot.
    pub t1: Slot,
    /// Last active slot (inclusive).
    pub t2: Slot,
    /// Opportunistic budget fraction α (0.5 in §4.5).
    pub alpha: f64,
    /// θ_min for the generated point queries.
    pub theta_min: f64,
    /// Eq. 16 valuation carrying the budget and desired times.
    pub valuation: MonitoringValuation,
}

/// Intake spec for a region-monitoring query (§2.3.1, Eqs. 6–7).
#[derive(Debug, Clone)]
pub struct RegionMonitorSpec {
    /// First active slot.
    pub t1: Slot,
    /// Last active slot (inclusive).
    pub t2: Slot,
    /// Opportunistic budget fraction α (0.5 in §4.6).
    pub alpha: f64,
    /// θ_min for the generated point queries.
    pub theta_min: f64,
    /// Eq. 7 valuation carrying the budget and the region.
    pub valuation: RegionValuation,
}

/// Per-query-type results of one slot (the Fig. 10 metrics).
#[derive(Debug, Clone, Default)]
pub struct MixBreakdown {
    /// End-user point queries issued this slot.
    pub point_total: usize,
    /// …of which answered with positive value.
    pub point_satisfied: usize,
    /// Σ quality-of-results (`v/B` = θ) over satisfied point queries.
    pub point_quality_sum: f64,
    /// Aggregate queries issued this slot.
    pub aggregate_total: usize,
    /// …of which answered with positive value.
    pub aggregate_answered: usize,
    /// Σ quality-of-results (`v/B`) over answered aggregates.
    pub aggregate_quality_sum: f64,
    /// Number of location monitors that achieved a sample this slot.
    pub monitor_samples: usize,
    /// Σ point-schedule welfare over the slots counted by
    /// `bound_known_slots` (the scheduler's own Eq. 9 objective —
    /// end-user and monitor point queries alike — before monitors fold
    /// their shares into Eq. 2). Paired with `point_lp_bound` so the two
    /// sums always cover the same slots.
    pub point_sched_welfare: f64,
    /// Σ certified LP-relaxation bounds over the same slots.
    pub point_lp_bound: f64,
    /// Slots whose scheduler attached an LP bound to its allocation.
    pub bound_known_slots: usize,
    /// Slots whose exact solve ran out of node/pivot budget
    /// (`SolveStatus::LimitReached`) — the anytime incumbent was used.
    pub limited_slots: usize,
}

impl MixBreakdown {
    /// Adds `other`'s counts into this breakdown — slot-into-totals
    /// accumulation, and the federation layer's shard-order merge of
    /// per-shard breakdowns into one cluster breakdown.
    pub fn absorb(&mut self, other: &MixBreakdown) {
        self.point_total += other.point_total;
        self.point_satisfied += other.point_satisfied;
        self.point_quality_sum += other.point_quality_sum;
        self.aggregate_total += other.aggregate_total;
        self.aggregate_answered += other.aggregate_answered;
        self.aggregate_quality_sum += other.aggregate_quality_sum;
        self.monitor_samples += other.monitor_samples;
        self.point_sched_welfare += other.point_sched_welfare;
        self.point_lp_bound += other.point_lp_bound;
        self.bound_known_slots += other.bound_known_slots;
        self.limited_slots += other.limited_slots;
    }

    /// The point-schedule optimality gap accumulated so far:
    /// `(Σ lp_bound − Σ scheduler welfare) / Σ lp_bound` over the slots
    /// with a certified bound, or `None` when no slot had one (heuristic
    /// scheduler without the bound wrapper, or no point queries).
    pub fn optimality_gap(&self) -> Option<f64> {
        if self.bound_known_slots == 0 || self.point_lp_bound <= 0.0 {
            return None;
        }
        Some(((self.point_lp_bound - self.point_sched_welfare) / self.point_lp_bound).max(0.0))
    }
}

/// The answer the engine returns for one end-user point query.
#[derive(Debug, Clone, Copy)]
pub struct PointResult {
    /// The query (submission order is preserved in
    /// [`SlotReport::point_results`]).
    pub id: QueryId,
    /// Achieved value `v_q` (0 when unanswered).
    pub value: f64,
    /// Total payment charged to the query.
    pub paid: f64,
    /// Reading quality θ of the serving sensor (0 when unanswered).
    pub quality: f64,
    /// Snapshot index of the serving sensor, when answered.
    pub sensor: Option<usize>,
}

/// The answer the engine returns for one set-valued query (aggregate or
/// custom valuation).
#[derive(Debug, Clone)]
pub struct SetQueryResult {
    /// The query.
    pub id: QueryId,
    /// Achieved value `v_q(S_q)`.
    pub value: f64,
    /// Total payment charged to the query.
    pub paid: f64,
    /// Snapshot indices of the sensors acquired for it.
    pub sensors: Vec<usize>,
}

/// A continuous query that left the engine (its window `[t1, t2]`
/// elapsed). The full monitor state is retained so callers can audit
/// results; call [`Aggregator::clear_retired`] in long-running services.
#[derive(Debug, Clone)]
pub enum RetiredMonitor {
    /// A finished location-monitoring query.
    Location(Box<LocationMonitor>),
    /// A finished region-monitoring query.
    Region(Box<RegionMonitor>),
}

impl RetiredMonitor {
    /// The monitor's query identifier.
    pub fn id(&self) -> QueryId {
        match self {
            RetiredMonitor::Location(m) => m.id,
            RetiredMonitor::Region(m) => m.id,
        }
    }

    /// Final quality-of-results metric (`v/B`).
    pub fn quality_of_results(&self) -> f64 {
        match self {
            RetiredMonitor::Location(m) => m.quality_of_results(),
            RetiredMonitor::Region(m) => m.quality_of_results(),
        }
    }

    /// Final accumulated value.
    pub fn value(&self) -> f64 {
        match self {
            RetiredMonitor::Location(m) => m.value(),
            RetiredMonitor::Region(m) => m.value(),
        }
    }

    /// Total budget spent over the monitor's lifetime.
    pub fn spent(&self) -> f64 {
        match self {
            RetiredMonitor::Location(m) => m.spent(),
            RetiredMonitor::Region(m) => m.spent(),
        }
    }
}

/// Cumulative engine statistics since construction.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    /// Number of slots stepped.
    pub slots: usize,
    /// Σ per-slot welfare (Eq. 2 total utility).
    pub welfare: f64,
    /// Summed per-type breakdowns.
    pub breakdown: MixBreakdown,
    /// Monitors retired so far.
    pub monitors_retired: usize,
}

impl Totals {
    /// Accumulates one (possibly merged) slot report into these totals.
    /// The federation layer uses this to keep cluster-level totals over
    /// settled cross-shard reports; `monitors_retired` is not derivable
    /// from a report and is tracked by the caller.
    pub fn absorb_report(&mut self, report: &SlotReport) {
        self.slots += 1;
        self.welfare += report.welfare;
        self.breakdown.absorb(&report.breakdown);
    }
}

/// Everything one [`Aggregator::step`] produced.
#[derive(Debug, Clone)]
pub struct SlotReport {
    /// The slot that was executed.
    pub slot: Slot,
    /// This slot's total utility: value created minus sensor costs.
    pub welfare: f64,
    /// This slot's per-type breakdown.
    pub breakdown: MixBreakdown,
    /// This slot's money flows (also absorbed into the cumulative
    /// [`Aggregator::ledger`]).
    pub ledger: Ledger,
    /// Snapshot indices of sensors that provided measurements.
    pub sensors_used: Vec<usize>,
    /// Per-query answers for this slot's end-user point queries, in
    /// submission order.
    pub point_results: Vec<PointResult>,
    /// Per-query answers for this slot's aggregate queries, in submission
    /// order.
    pub aggregate_results: Vec<SetQueryResult>,
    /// Per-query answers for this slot's custom set valuations, in
    /// submission order.
    pub custom_results: Vec<SetQueryResult>,
    /// Cumulative statistics after this slot.
    pub totals: Totals,
    /// Decision-latency statistics when the slot was driven through
    /// [`Aggregator::step_streaming`]; `None` for batch slots.
    pub streaming: Option<StreamStats>,
}

/// Configures and builds an [`Aggregator`].
///
/// The lifetime parameter bounds a borrowed [`PointScheduler`] (or custom
/// valuations submitted later); owned schedulers give `'static` and can be
/// elided.
///
/// The type is `#[must_use]`: every knob takes `self` and returns the
/// configured builder, so dropping the return value of a chain method
/// silently discards that configuration.
#[must_use = "builder methods take `self` — reassign or chain the result, or the configuration is dropped"]
pub struct AggregatorBuilder<'s> {
    quality: QualityModel,
    sensing_range: f64,
    strategy: MixStrategy,
    scheduler: Option<Box<dyn PointScheduler + 's>>,
    use_cost_weighting: bool,
    share_sensors: bool,
    threads: Threads,
    next_query_id: u64,
    ticks_per_slot: u64,
}

impl<'s> AggregatorBuilder<'s> {
    /// Starts a builder around the Eq. 4 quality model. Defaults:
    /// sensing range 10 (§4.4), [`MixStrategy::Alg5`], joint Algorithm 1
    /// selection (no dedicated scheduler), Eq. 18 cost weighting on,
    /// `A_{r,t}` sensor sharing on, worker threads = available
    /// parallelism, query ids minted from 1.
    pub fn new(quality: QualityModel) -> Self {
        Self {
            quality,
            sensing_range: 10.0,
            strategy: MixStrategy::Alg5,
            scheduler: None,
            use_cost_weighting: true,
            share_sensors: true,
            threads: Threads::default(),
            next_query_id: 0,
            ticks_per_slot: DEFAULT_TICKS_PER_SLOT,
        }
    }

    /// Sensing radius `r_s` used for aggregate coverage (Eq. 5).
    pub fn sensing_range(mut self, r: f64) -> Self {
        self.sensing_range = r;
        self
    }

    /// Selects Algorithm 5, the §4.7 sequential baseline, or the online
    /// double auction (see [`MixStrategy`]).
    pub fn strategy(mut self, s: MixStrategy) -> Self {
        self.strategy = s;
        self
    }

    /// Routes point queries (end-user and monitor-generated) through a
    /// dedicated [`PointScheduler`] instead of the joint Algorithm 1
    /// selection. Aggregates and custom valuations then run in a
    /// set-valued stage of their own (Algorithm 1, or the §4.7 sequential
    /// stage under [`MixStrategy::SequentialBaseline`]); sensors that
    /// stage buys are free for the point stage (their data is buffered),
    /// so no sensor is charged twice in one slot. Not allowed with
    /// [`MixStrategy::OnlineAuction`].
    pub fn scheduler(mut self, s: impl PointScheduler + 's) -> Self {
        self.scheduler = Some(Box::new(s));
        self
    }

    /// Toggles the Eq. 18 cost weighting `w(k)` in region planning.
    /// [`MixStrategy::SequentialBaseline`] always plans on raw costs.
    pub fn cost_weighting(mut self, on: bool) -> Self {
        self.use_cost_weighting = on;
        self
    }

    /// Toggles Algorithm 3's `A_{r,t}` sharing (region monitors
    /// free-riding on sensors bought by other queries).
    /// [`MixStrategy::SequentialBaseline`] never shares.
    pub fn sensor_sharing(mut self, on: bool) -> Self {
        self.share_sensors = on;
        self
    }

    /// Worker threads for the parallel evaluate work of the
    /// [slot pipeline](self#the-slot-pipeline-gather--select--route--settle):
    /// `0` (the default) auto-detects via
    /// [`std::thread::available_parallelism`], any other value is taken
    /// literally. Purely a wall-clock knob — selections, payments,
    /// ledgers, and welfare are bit-identical for every thread count, so
    /// it exists for scaling and for benchmarking the serial path
    /// (`threads(1)`), never for correctness.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Threads::new(n);
        self
    }

    /// Seeds the id counter: the next minted id is `n + 1`.
    pub fn next_query_id(mut self, n: u64) -> Self {
        self.next_query_id = n;
        self
    }

    /// Intra-slot tick resolution for [`Aggregator::step_streaming`]
    /// (default [`DEFAULT_TICKS_PER_SLOT`]): arrival-event ticks live in
    /// `[0, n)` and boundary decisions are recorded at latency
    /// `n − arrival_tick`. Must be positive.
    pub fn ticks_per_slot(mut self, n: u64) -> Self {
        assert!(n > 0, "ticks_per_slot must be positive");
        self.ticks_per_slot = n;
        self
    }

    /// Builds the engine, resolving the strategy, scheduler, and toggles
    /// into the pipeline's stage choices once (see the
    /// [module docs](self#the-slot-pipeline-gather--select--route--settle)).
    ///
    /// # Panics
    /// When [`MixStrategy::OnlineAuction`] is combined with a
    /// [`AggregatorBuilder::scheduler`]: the auction matches point queries
    /// at arrival time and has no point stage to hand to a scheduler.
    #[must_use = "dropping the built engine discards all the configuration"]
    pub fn build(self) -> Aggregator<'s> {
        assert!(
            self.strategy != MixStrategy::OnlineAuction || self.scheduler.is_none(),
            "OnlineAuction matches point queries itself and takes no scheduler"
        );
        let baseline = self.strategy == MixStrategy::SequentialBaseline;
        let select = match self.scheduler {
            None if !baseline => SelectStage::Joint,
            scheduler => SelectStage::Staged {
                set: if baseline {
                    SetStage::Sequential
                } else {
                    SetStage::Greedy
                },
                point: scheduler.unwrap_or_else(|| Box::new(BaselinePointScheduler)),
            },
        };
        Aggregator {
            quality: self.quality,
            sensing_range: self.sensing_range,
            strategy: self.strategy,
            select,
            desired_times_only: baseline,
            use_cost_weighting: self.use_cost_weighting && !baseline,
            share_sensors: self.share_sensors && !baseline,
            threads: self.threads,
            next_query_id: self.next_query_id,
            ticks_per_slot: self.ticks_per_slot,
            pending_points: Vec::new(),
            pending_aggregates: Vec::new(),
            pending_customs: Vec::new(),
            location_monitors: Vec::new(),
            region_monitors: Vec::new(),
            retired: Vec::new(),
            ledger: Ledger::new(),
            totals: Totals::default(),
        }
    }
}

/// The stateful aggregator service (see the [module docs](self)).
///
/// Submit queries at any slot; each [`Aggregator::step`] consumes the
/// pending one-shot queries, runs the continuous ones, and retires
/// monitors whose window has elapsed.
pub struct Aggregator<'s> {
    quality: QualityModel,
    sensing_range: f64,
    strategy: MixStrategy,
    // Stage choices, resolved once by `AggregatorBuilder::build`.
    select: SelectStage<'s>,
    desired_times_only: bool,
    use_cost_weighting: bool,
    share_sensors: bool,
    threads: Threads,
    next_query_id: u64,
    ticks_per_slot: u64,
    pending_points: Vec<PointQuery>,
    pending_aggregates: Vec<AggregateQuery>,
    pending_customs: Vec<(QueryId, Box<dyn SetValuation + 's>)>,
    location_monitors: Vec<LocationMonitor>,
    region_monitors: Vec<RegionMonitor>,
    retired: Vec<RetiredMonitor>,
    ledger: Ledger,
    totals: Totals,
}

impl<'s> Aggregator<'s> {
    fn mint(&mut self) -> QueryId {
        self.next_query_id += 1;
        QueryId(self.next_query_id)
    }

    // ── Query intake ──────────────────────────────────────────────────

    fn point_query(&mut self, spec: PointSpec) -> PointQuery {
        PointQuery {
            id: self.mint(),
            loc: spec.loc,
            budget: spec.budget,
            offset: 0.0,
            theta_min: spec.theta_min,
            origin: QueryOrigin::EndUser,
        }
    }

    fn aggregate_query(&mut self, spec: &AggregateSpec) -> AggregateQuery {
        AggregateQuery {
            id: self.mint(),
            region: spec.region,
            budget: spec.budget,
            kind: spec.kind,
        }
    }

    /// Submits an end-user point query for the next slot.
    pub fn submit_point(&mut self, spec: PointSpec) -> QueryId {
        let q = self.point_query(spec);
        self.pending_points.push(q);
        q.id
    }

    /// Submits a spatial aggregate query for the next slot.
    pub fn submit_aggregate(&mut self, spec: AggregateSpec) -> QueryId {
        let q = self.aggregate_query(&spec);
        let id = q.id;
        self.pending_aggregates.push(q);
        id
    }

    /// Submits a location-monitoring query; it activates at `spec.t1` and
    /// retires after `spec.t2`.
    pub fn submit_location_monitor(&mut self, spec: LocationMonitorSpec) -> QueryId {
        let id = self.mint();
        self.location_monitors.push(LocationMonitor::new(
            id,
            spec.loc,
            spec.t1,
            spec.t2,
            spec.alpha,
            spec.theta_min,
            spec.valuation,
        ));
        id
    }

    /// Submits a region-monitoring query; it activates at `spec.t1` and
    /// retires after `spec.t2`.
    pub fn submit_region_monitor(&mut self, spec: RegionMonitorSpec) -> QueryId {
        let id = self.mint();
        self.region_monitors.push(RegionMonitor::new(
            id,
            spec.t1,
            spec.t2,
            spec.alpha,
            spec.theta_min,
            spec.valuation,
        ));
        id
    }

    /// Submits an arbitrary black-box [`SetValuation`] for the next slot
    /// (the paper treats `v_q(·)` as opaque; Algorithm 1 schedules it
    /// jointly with everything else).
    pub fn submit_valuation(&mut self, v: impl SetValuation + 's) -> QueryId {
        let id = self.mint();
        self.pending_customs.push((id, Box::new(v)));
        id
    }

    // ── Introspection ─────────────────────────────────────────────────

    /// Live location monitors, in submission order.
    pub fn location_monitors(&self) -> &[LocationMonitor] {
        &self.location_monitors
    }

    /// Live region monitors, in submission order.
    pub fn region_monitors(&self) -> &[RegionMonitor] {
        &self.region_monitors
    }

    /// Monitors whose window has elapsed, in retirement order.
    pub fn retired_monitors(&self) -> &[RetiredMonitor] {
        &self.retired
    }

    /// Drops retained retired-monitor state (long-running services).
    pub fn clear_retired(&mut self) {
        self.retired.clear();
    }

    /// Cumulative money flows across all slots stepped so far.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Cumulative statistics across all slots stepped so far.
    pub fn totals(&self) -> &Totals {
        &self.totals
    }

    /// Current value of the id counter (the next minted id is this +1).
    pub fn next_query_id(&self) -> u64 {
        self.next_query_id
    }

    /// The configured strategy.
    pub fn strategy(&self) -> MixStrategy {
        self.strategy
    }

    /// The configured Eq. 4 quality model.
    pub fn quality(&self) -> &QualityModel {
        &self.quality
    }

    /// The configured sensing range.
    pub fn sensing_range(&self) -> f64 {
        self.sensing_range
    }

    /// The resolved worker-thread count for the parallel evaluate work
    /// (≥ 1; see [`AggregatorBuilder::threads`]).
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// The configured intra-slot tick resolution (see
    /// [`AggregatorBuilder::ticks_per_slot`]).
    pub fn ticks_per_slot(&self) -> u64 {
        self.ticks_per_slot
    }

    // ── The tick ──────────────────────────────────────────────────────

    /// Runs one time slot against the announced sensors: consumes the
    /// pending one-shot queries, translates monitors into point queries
    /// (Algorithms 2–4), selects and pays sensors, applies monitor
    /// results and the Algorithm 5 payment adjustment, and retires
    /// monitors whose window ended at `slot`.
    pub fn step(&mut self, slot: Slot, sensors: &[SensorSnapshot]) -> SlotReport {
        // The online auction treats the batch announcement as the
        // degenerate stream where every sensor arrives at tick 0 — one
        // code path, so batch and all-arrivals-at-start streaming runs
        // are bit-identical by construction.
        if self.strategy == MixStrategy::OnlineAuction {
            let events: Vec<ArrivalEvent> = sensors
                .iter()
                .map(|&s| ArrivalEvent::sensor(0, s))
                .collect();
            return self.step_streaming(slot, &events);
        }

        let queries = OneShots {
            points: std::mem::take(&mut self.pending_points),
            aggregates: std::mem::take(&mut self.pending_aggregates),
            customs: std::mem::take(&mut self.pending_customs),
        };
        // One spatial index per slot, shared by every hot path below.
        let index = build_index(sensors);
        let none_bought = vec![false; sensors.len()];
        let report = self.run_pipeline(slot, sensors, &index, queries, &none_bought);
        self.finalize(slot, report)
    }

    /// Runs one time slot against a stream of intra-slot
    /// [`ArrivalEvent`]s instead of a boundary announcement. Under
    /// [`MixStrategy::OnlineAuction`], point queries are matched at
    /// arrival time by the online double auction and whatever remains
    /// open clears at the boundary; every other strategy replays the
    /// events into the ordinary intake in order and executes the batch
    /// pipeline, recording boundary decision latencies. Either way
    /// [`SlotReport::streaming`] is populated, and a stream whose events
    /// all carry tick 0 in submission order is bit-identical to the
    /// batch [`Aggregator::step`].
    pub fn step_streaming(&mut self, slot: Slot, events: &[ArrivalEvent]) -> SlotReport {
        if self.strategy == MixStrategy::OnlineAuction {
            let report = self.step_online(slot, events);
            return self.finalize(slot, report);
        }

        // Replay the stream into the intake (preserving event order,
        // hence the minted id sequence) and resolve everything at the
        // boundary.
        let tps = self.ticks_per_slot;
        let mut stats = StreamStats::new(tps);
        let mut sensors: Vec<SensorSnapshot> = Vec::new();
        for ev in events {
            let tick = ev.tick.min(tps);
            match &ev.payload {
                ArrivalPayload::Point(spec) => {
                    self.submit_point(*spec);
                    stats.query_arrivals += 1;
                    stats.decision_ticks.push(tps - tick);
                }
                ArrivalPayload::Aggregate(spec) => {
                    self.submit_aggregate(spec.clone());
                    stats.query_arrivals += 1;
                    stats.decision_ticks.push(tps - tick);
                }
                ArrivalPayload::LocationMonitor(spec) => {
                    self.submit_location_monitor(spec.clone());
                    stats.query_arrivals += 1;
                }
                ArrivalPayload::RegionMonitor(spec) => {
                    self.submit_region_monitor(spec.clone());
                    stats.query_arrivals += 1;
                }
                ArrivalPayload::Sensor(s) => sensors.push(*s),
            }
        }
        stats.sensor_arrivals = sensors.len();
        let mut report = self.step(slot, &sensors);
        report.streaming = Some(stats);
        report
    }

    /// Post-dispatch bookkeeping shared by the batch and streaming
    /// paths: absorb the slot ledger, roll the totals, retire monitors
    /// whose window ended at `slot`, and stamp the cumulative totals
    /// into the report.
    fn finalize(&mut self, slot: Slot, mut report: SlotReport) -> SlotReport {
        self.ledger.absorb(&report.ledger);
        self.totals.slots += 1;
        self.totals.welfare += report.welfare;
        self.totals.breakdown.absorb(&report.breakdown);

        // Retire monitors that can never be active again.
        let retired = &mut self.retired;
        let before = retired.len();
        self.location_monitors.retain(|m| {
            let live = m.t2 > slot;
            if !live {
                retired.push(RetiredMonitor::Location(Box::new(m.clone())));
            }
            live
        });
        self.region_monitors.retain(|m| {
            let live = m.t2 > slot;
            if !live {
                retired.push(RetiredMonitor::Region(Box::new(m.clone())));
            }
            live
        });
        // Increment rather than read `retired.len()`: `clear_retired`
        // drops the retained state but must not reset the running count.
        self.totals.monitors_retired += self.retired.len() - before;

        report.totals = self.totals.clone();
        report
    }

    /// Eq. 18 weighted sensor costs for region planning (raw costs when
    /// weighting is off or no region monitor is active). The per-sensor
    /// sharing degree `k` is accumulated by one rectangle query per
    /// active monitor.
    ///
    /// Part of the parallel evaluate work: the accumulation shards by
    /// monitor range (per-shard integer count vectors, summed in shard
    /// order). Counts are integers and each weight is computed from the
    /// final count, so the result is bit-identical for every thread
    /// count.
    fn weighted_costs(&self, t: Slot, sensors: &[SensorSnapshot], index: &SensorIndex) -> Vec<f64> {
        if !self.use_cost_weighting || self.region_monitors.is_empty() {
            return sensors.iter().map(|s| s.cost).collect();
        }
        let monitors = &self.region_monitors;
        let shards = self.threads.map_ranges_min(monitors.len(), 8, |range| {
            let mut k = vec![0u32; sensors.len()];
            let mut buf: Vec<usize> = Vec::new();
            for m in monitors[range].iter().filter(|m| m.is_active(t)) {
                index.query_rect_into(&m.region, &mut buf);
                for &si in &buf {
                    k[si] += 1;
                }
            }
            k
        });
        let mut k = vec![0u32; sensors.len()];
        for shard in shards {
            for (total, part) in k.iter_mut().zip(shard) {
                *total += part;
            }
        }
        sensors
            .iter()
            .zip(&k)
            .map(|(s, &k)| s.cost * sharing_weight(k as usize))
            .collect()
    }

    /// Region-monitor planning (Algorithms 3–4) for one slot, sharded by
    /// contiguous monitor range — each monitor's plan is a pure function
    /// of its own state and the slot inputs. Workers mint *placeholder*
    /// ids from a per-monitor counter; the serial renumbering pass below
    /// then assigns real ids in monitor-then-query order, which is
    /// exactly the order the serial loop minted them in, so plans are
    /// bit-identical for every thread count.
    ///
    /// Returns the plans; `next_query_id` advances by the total number of
    /// planned queries.
    fn plan_regions(
        monitors: &[RegionMonitor],
        threads: Threads,
        t: Slot,
        sensors: &[SensorSnapshot],
        weighted_cost: &[f64],
        index: &SensorIndex,
        next_query_id: &mut u64,
    ) -> Vec<RegionPlan> {
        let shards = threads.map_ranges(monitors.len(), |range| {
            range
                .map(|mi| {
                    let mut local = 0u64;
                    let mut placeholder = || {
                        local += 1;
                        QueryId(local)
                    };
                    monitors[mi].plan_indexed(
                        t,
                        sensors,
                        weighted_cost,
                        mi,
                        &mut placeholder,
                        Some(index),
                    )
                })
                .collect::<Vec<RegionPlan>>()
        });
        let mut plans: Vec<RegionPlan> = shards.into_iter().flatten().collect();
        for plan in &mut plans {
            for planned in &mut plan.queries {
                *next_query_id += 1;
                planned.query.id = QueryId(*next_query_id);
            }
        }
        plans
    }

    /// The quality-adaptive online double auction over one slot's event
    /// stream (`MixStrategy::OnlineAuction`) — the arrival-time
    /// pre-stage in front of the slot pipeline.
    ///
    /// Arrival-time clearing: an arriving point query is matched
    /// immediately to the in-range sensor offering the highest surplus
    /// (value of quality minus the sensor's remaining price — the first
    /// buyer pays the announced cost, later queries reuse the buffered
    /// reading free), or joins a waiting book; an arriving sensor is
    /// offered, in arrival order, to every waiting point whose surplus
    /// with it is positive. Aggregates, monitors, and custom valuations
    /// wait for the slot boundary, where everything still open — plus
    /// the unmatched points — clears through the ordinary Algorithm 5
    /// pipeline with the online-bought sensors cost-discounted to 0
    /// (their data is buffered, exactly as between the staged select's
    /// set and point stages).
    ///
    /// Money stays conserved: the online ledger holds exactly one
    /// full-cost receipt per bought sensor, the boundary stage sees
    /// those sensors at cost 0 and excludes them from region sharing,
    /// and the merged slot ledger is budget-balanced and
    /// cost-recovering (proptested in `tests/streaming_equivalence.rs`).
    fn step_online(&mut self, t: Slot, events: &[ArrivalEvent]) -> SlotReport {
        let tps = self.ticks_per_slot;
        // Cell grid over arrived sensors, cell side d_max: a point's
        // candidates all live in the 3×3 neighborhood of its cell.
        let cell = self.quality.d_max;
        let cell_of =
            |p: Point| -> (i64, i64) { ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64) };

        let mut sensors: Vec<SensorSnapshot> = Vec::new();
        let mut bought: Vec<bool> = Vec::new();
        let mut grid: HashMap<(i64, i64), Vec<usize>> = HashMap::new();

        // One-shot arrival ticks (points + aggregates, in arrival order)
        // for the decision-latency statistics.
        let mut oneshot_ticks: Vec<u64> = Vec::new();
        // Point-query state: every arrival owns a result slot; matched
        // ones fill it online, the rest go to the boundary.
        let mut point_slots: Vec<Option<PointResult>> = Vec::new();
        // Waiting book entries: (query, result slot, one-shot index).
        type Waiter = (PointQuery, usize, usize);
        let mut waiting: Vec<Waiter> = Vec::new();
        // Arrival-time matches in commit order: (waiter, sensor, θ,
        // value, price paid, tick). The first buyer of a sensor pays its
        // full cost; later buyers reuse the buffered reading free.
        let mut matches: Vec<(Waiter, usize, f64, f64, f64, u64)> = Vec::new();
        let mut aggregates: Vec<AggregateQuery> = Vec::new();
        let mut query_arrivals = 0usize;
        let mut sensor_arrivals = 0usize;

        // Pending one-shot queries submitted before the slot started are
        // tick-0 arrivals preceding the event stream — this is what makes
        // the batch `step` (sensor-only events) literally this code path.
        enum Arrival {
            Point(PointQuery),
            Aggregate(AggregateQuery),
            Monitor,
            Sensor(SensorSnapshot),
        }
        let mut process: Vec<(u64, Arrival)> = Vec::new();
        for q in std::mem::take(&mut self.pending_points) {
            process.push((0, Arrival::Point(q)));
        }
        for q in std::mem::take(&mut self.pending_aggregates) {
            process.push((0, Arrival::Aggregate(q)));
        }
        for ev in events {
            let tick = ev.tick.min(tps);
            let arrival = match &ev.payload {
                ArrivalPayload::Point(spec) => Arrival::Point(self.point_query(*spec)),
                ArrivalPayload::Aggregate(spec) => Arrival::Aggregate(self.aggregate_query(spec)),
                ArrivalPayload::LocationMonitor(spec) => {
                    self.submit_location_monitor(spec.clone());
                    Arrival::Monitor
                }
                ArrivalPayload::RegionMonitor(spec) => {
                    self.submit_region_monitor(spec.clone());
                    Arrival::Monitor
                }
                ArrivalPayload::Sensor(s) => Arrival::Sensor(*s),
            };
            process.push((tick, arrival));
        }

        for (tick, arrival) in process {
            match arrival {
                Arrival::Point(q) => {
                    query_arrivals += 1;
                    let waiter = (q, point_slots.len(), oneshot_ticks.len());
                    point_slots.push(None);
                    oneshot_ticks.push(tick);
                    // Best-surplus match among the arrived sensors.
                    let (cx, cy) = cell_of(q.loc);
                    let mut cand: Vec<usize> = Vec::new();
                    for dx in -1..=1 {
                        for dy in -1..=1 {
                            if let Some(v) = grid.get(&(cx + dx, cy + dy)) {
                                cand.extend_from_slice(v);
                            }
                        }
                    }
                    // Ascending snapshot order + strict `>` ⇒ ties go to
                    // the earliest-arrived sensor, deterministically.
                    cand.sort_unstable();
                    let mut best: Option<(f64, usize, f64, f64)> = None;
                    for &si in &cand {
                        let theta = self.quality.quality(&sensors[si], q.loc);
                        let value = q.value_of_quality(theta);
                        if value <= 0.0 {
                            continue;
                        }
                        let price = if bought[si] { 0.0 } else { sensors[si].cost };
                        let surplus = value - price;
                        if surplus > 1e-9 && best.is_none_or(|(b, _, _, _)| surplus > b) {
                            best = Some((surplus, si, theta, value));
                        }
                    }
                    match best {
                        Some((_, si, theta, value)) => {
                            let price = if bought[si] { 0.0 } else { sensors[si].cost };
                            bought[si] = true;
                            matches.push((waiter, si, theta, value, price, tick));
                        }
                        None => waiting.push(waiter),
                    }
                }
                Arrival::Aggregate(q) => {
                    query_arrivals += 1;
                    oneshot_ticks.push(tick);
                    aggregates.push(q);
                }
                Arrival::Monitor => query_arrivals += 1,
                Arrival::Sensor(s) => {
                    sensor_arrivals += 1;
                    let si = sensors.len();
                    sensors.push(s);
                    bought.push(false);
                    grid.entry(cell_of(s.loc)).or_default().push(si);
                    // Offer the new sensor to the waiting book in
                    // arrival order; earlier waiters buy first (and
                    // later ones then see the reading free).
                    for waiter in std::mem::take(&mut waiting) {
                        let theta = self.quality.quality(&s, waiter.0.loc);
                        let value = waiter.0.value_of_quality(theta);
                        let price = if bought[si] { 0.0 } else { s.cost };
                        if value > 0.0 && value - price > 1e-9 {
                            bought[si] = true;
                            matches.push((waiter, si, theta, value, price, tick));
                        } else {
                            waiting.push(waiter);
                        }
                    }
                }
            }
        }

        // Book the arrival-time matches, in commit order.
        let mut online_ledger = Ledger::new();
        let mut online_welfare = 0.0;
        let mut online_quality_sum = 0.0;
        let mut decisions: Vec<Option<u64>> = vec![None; oneshot_ticks.len()];
        for &((q, slot_idx, oneshot), si, theta, value, price, tick) in &matches {
            if price > 0.0 {
                online_ledger.record(q.id, sensors[si].id, price);
            }
            online_welfare -= price;
            online_welfare += value;
            online_quality_sum += value / q.max_value();
            point_slots[slot_idx] = Some(PointResult {
                id: q.id,
                value,
                paid: price,
                quality: theta,
                sensor: Some(si),
            });
            decisions[oneshot] = Some(tick.saturating_sub(oneshot_ticks[oneshot]));
        }

        // ── Boundary: everything still open clears through the pipeline
        // with the online-bought sensors cost-discounted. ──────────────
        let boundary_sensors = discounted(&sensors, &bought);
        let index = build_index(&boundary_sensors);
        let leftover_slots: Vec<usize> = waiting.iter().map(|&(_, s, _)| s).collect();
        let queries = OneShots {
            points: waiting.iter().map(|(q, _, _)| *q).collect(),
            aggregates,
            customs: std::mem::take(&mut self.pending_customs),
        };
        let total_points = point_slots.len();
        let mut report = self.run_pipeline(t, &boundary_sensors, &index, queries, &bought);

        // Merge the online phase into the boundary report.
        report.welfare += online_welfare;
        report.ledger.absorb(&online_ledger);
        let boundary_results = std::mem::take(&mut report.point_results);
        for (res, &slot_idx) in boundary_results.into_iter().zip(&leftover_slots) {
            point_slots[slot_idx] = Some(res);
        }
        report.point_results = point_slots
            .into_iter()
            .map(|r| r.expect("every point arrival has a result"))
            .collect();
        report.breakdown.point_total = total_points;
        report.breakdown.point_satisfied += matches.len();
        report.breakdown.point_quality_sum += online_quality_sum;
        let mut used: Vec<usize> = (0..sensors.len()).filter(|&si| bought[si]).collect();
        used.extend(std::mem::take(&mut report.sensors_used));
        report.sensors_used = used;

        let mut stats = StreamStats::new(tps);
        stats.query_arrivals = query_arrivals;
        stats.sensor_arrivals = sensor_arrivals;
        stats.matched_at_arrival = matches.len();
        stats.decision_ticks = decisions
            .into_iter()
            .zip(&oneshot_ticks)
            .map(|(d, &arrived)| d.unwrap_or(tps - arrived))
            .collect();
        report.streaming = Some(stats);
        report
    }

    // ── The pipeline: gather → select → route → settle ────────────────

    /// Algorithm 5 for one slot: **gather** the point queries of every
    /// origin, **select** sensors, **route** each answer back to the
    /// query or monitor it came from, and **settle** monitor results,
    /// region sharing, and payments into the report.
    ///
    /// `prebought[si]` marks sensors a pre-stage already bought this slot
    /// (the online auction's arrival-time matches): they arrive here
    /// cost-discounted to 0, are left out of the report's `sensors_used`
    /// (the pre-stage owns them), and are not region-sharing candidates —
    /// a free-riding contribution must have payers to refund.
    fn run_pipeline(
        &mut self,
        t: Slot,
        sensors: &[SensorSnapshot],
        index: &SensorIndex,
        mut queries: OneShots<'s>,
        prebought: &[bool],
    ) -> SlotReport {
        let point_total = queries.points.len();
        let plans = self.gather(t, sensors, index, &mut queries.points);
        let selection = self.select(sensors, index, &mut queries, prebought);
        self.settle(t, sensors, &queries, point_total, &plans, selection)
    }

    /// Gather: appends to the end-user `points` one point query per
    /// location monitor (Algorithm 2 — opportunistic, or at the desired
    /// times only under the §4.7 baseline), then the region monitors'
    /// planned queries (Algorithms 3–4 over Eq. 18 weighted or raw
    /// costs). Ids are minted in that order: one per location monitor,
    /// then the plans. Every query carries its [`QueryOrigin`], which is
    /// what the route stage keys on.
    fn gather(
        &mut self,
        t: Slot,
        sensors: &[SensorSnapshot],
        index: &SensorIndex,
        points: &mut Vec<PointQuery>,
    ) -> Vec<RegionPlan> {
        for (mi, m) in self.location_monitors.iter().enumerate() {
            self.next_query_id += 1;
            let id = QueryId(self.next_query_id);
            points.extend(if self.desired_times_only {
                m.create_point_query_baseline(t, id, mi)
            } else {
                m.create_point_query(t, id, mi)
            });
        }
        let costs = self.weighted_costs(t, sensors, index);
        let plans = Self::plan_regions(
            &self.region_monitors,
            self.threads,
            t,
            sensors,
            &costs,
            index,
            &mut self.next_query_id,
        );
        points.extend(
            plans
                .iter()
                .flat_map(|p| p.queries.iter().map(|pq| pq.query)),
        );
        plans
    }

    /// Select: sensors for every query of the slot, through the stage
    /// the builder chose.
    fn select(
        &self,
        sensors: &[SensorSnapshot],
        index: &SensorIndex,
        queries: &mut OneShots<'s>,
        prebought: &[bool],
    ) -> Selection {
        let (set, point) = match &self.select {
            SelectStage::Joint => return self.select_joint(sensors, index, queries, prebought),
            SelectStage::Staged { set, point } => (*set, point.as_ref()),
        };
        let mut selection = match set {
            SetStage::Greedy => self.select_sets_greedy(sensors, index, queries),
            SetStage::Sequential => self.select_sets_sequential(sensors, index, queries),
        };
        let point_cost = self.schedule_points(
            point,
            &mut selection,
            sensors,
            index,
            &queries.points,
            prebought,
        );
        // Where the point stage's sensor cost enters the welfare sum
        // changes its float rounding, and both orders are pinned
        // (tests/pipeline_golden.rs): the §4.7 baseline books it after
        // the point answers, the greedy stage before them.
        match set {
            SetStage::Greedy => selection.welfare -= point_cost,
            SetStage::Sequential => selection.post_route_cost = point_cost,
        }
        selection
    }

    /// Runs Algorithm 1 over the slot's aggregates and custom valuations
    /// followed by `points`, in that valuation (and payment) order.
    /// Returns the selection and each set-valued query's final value.
    fn run_greedy(
        &self,
        sensors: &[SensorSnapshot],
        index: &SensorIndex,
        queries: &mut OneShots<'s>,
        points: &mut [PointValuation],
    ) -> (GreedySelection, Vec<f64>) {
        let mut agg_vals: Vec<AggregateValuation> = queries
            .aggregates
            .iter()
            .map(|q| AggregateValuation::new(q, self.sensing_range))
            .collect();
        let mut vals: Vec<&mut dyn SetValuation> =
            Vec::with_capacity(agg_vals.len() + queries.customs.len() + points.len());
        vals.extend(agg_vals.iter_mut().map(|v| v as &mut dyn SetValuation));
        vals.extend(queries.customs.iter_mut().map(|(_, v)| v.as_mut() as _));
        vals.extend(points.iter_mut().map(|v| v as &mut dyn SetValuation));
        let selection = greedy_select(&mut vals, sensors, index, self.threads);
        drop(vals);
        let values = agg_vals
            .iter()
            .map(|v| v.current_value())
            .chain(queries.customs.iter().map(|(_, v)| v.current_value()))
            .collect();
        (selection, values)
    }

    /// The joint selection of Algorithm 5: Algorithm 1 over every query
    /// at once — aggregates, custom valuations, and point queries of all
    /// origins — sharing sensors and splitting costs by Eq. 11.
    fn select_joint(
        &self,
        sensors: &[SensorSnapshot],
        index: &SensorIndex,
        queries: &mut OneShots<'s>,
        prebought: &[bool],
    ) -> Selection {
        let mut point_vals: Vec<PointValuation> = queries
            .points
            .iter()
            .map(|q| PointValuation::new(*q, self.quality))
            .collect();
        let (selection, set_values) = self.run_greedy(sensors, index, queries, &mut point_vals);

        // Stable-id → snapshot-index map, built once per slot. Sorted
        // pairs + binary search: at city scale, hashing every announced
        // sensor cost more than the whole index build.
        let id_to_index: Vec<(usize, usize)> = {
            let mut m: Vec<(usize, usize)> =
                sensors.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
            m.sort_unstable();
            m
        };
        let index_of = |stable: usize| -> usize {
            let k = id_to_index
                .binary_search_by_key(&stable, |&(id, _)| id)
                .expect("serving sensor was announced this slot");
            id_to_index[k].1
        };
        let paid_of = |pays: &[(usize, f64)]| -> f64 { pays.iter().map(|&(_, p)| p).sum() };

        let mut welfare = -selection.total_cost;
        let mut sets = Vec::with_capacity(set_values.len());
        for ((id, value), pays) in queries
            .set_ids()
            .zip(set_values)
            .zip(&selection.per_query_payments)
        {
            welfare += value;
            sets.push(SetQueryResult {
                id,
                value,
                paid: paid_of(pays),
                sensors: pays.iter().map(|&(si, _)| si).collect(),
            });
        }
        let points = point_vals
            .iter()
            .zip(&selection.per_query_payments[sets.len()..])
            .map(|(v, pays)| PointResult {
                id: v.query().id,
                value: v.current_value(),
                paid: paid_of(pays),
                quality: v.best_quality(),
                sensor: v.best_sensor().map(index_of),
            })
            .collect();
        let sensors_used: Vec<usize> = selection
            .selected
            .into_iter()
            .filter(|&si| !prebought[si])
            .collect();
        Selection {
            sets,
            points,
            payments: selection.per_query_payments,
            welfare,
            candidates: sensors_used.clone(),
            sensors_used,
            ..Selection::default()
        }
    }

    /// The set-valued stage as its own Algorithm 1 run over the
    /// aggregates and custom valuations.
    fn select_sets_greedy(
        &self,
        sensors: &[SensorSnapshot],
        index: &SensorIndex,
        queries: &mut OneShots<'s>,
    ) -> Selection {
        let mut out = Selection::default();
        if queries.aggregates.is_empty() && queries.customs.is_empty() {
            return out;
        }
        let (selection, set_values) = self.run_greedy(sensors, index, queries, &mut []);
        out.welfare += selection.welfare;
        out.sensors_used = selection.selected;
        for ((id, value), pays) in queries
            .set_ids()
            .zip(set_values)
            .zip(selection.per_query_payments)
        {
            out.sets.push(SetQueryResult {
                id,
                value,
                paid: pays.iter().fold(0.0, |paid, &(_, p)| paid + p),
                sensors: pays.iter().map(|&(si, _)| si).collect(),
            });
            out.payments.push(pays);
        }
        out
    }

    /// The §4.7 baseline's set-valued stage: aggregates, then custom
    /// valuations, one query at a time, each buying what it alone
    /// profits from, with sensors bought earlier in the slot free
    /// (buffered data).
    fn select_sets_sequential(
        &self,
        sensors: &[SensorSnapshot],
        index: &SensorIndex,
        queries: &mut OneShots<'s>,
    ) -> Selection {
        let mut out = Selection::default();
        let mut bought = vec![false; sensors.len()];
        let ids: Vec<QueryId> = queries.set_ids().collect();
        let mut agg_vals: Vec<AggregateValuation> = queries
            .aggregates
            .iter()
            .map(|q| AggregateValuation::new(q, self.sensing_range))
            .collect();
        let vals = agg_vals
            .iter_mut()
            .map(|v| v as &mut dyn SetValuation)
            .chain(queries.customs.iter_mut().map(|(_, v)| v.as_mut() as _));
        for (id, v) in ids.into_iter().zip(vals) {
            let r = baseline_select_for_query(v, sensors, &mut bought, index);
            out.welfare += r.value - r.cost;
            out.sensors_used.extend(&r.newly_selected);
            out.payments.push(
                r.newly_selected
                    .iter()
                    .map(|&si| (si, sensors[si].cost))
                    .collect(),
            );
            out.sets.push(SetQueryResult {
                id,
                value: r.value,
                paid: r.cost,
                sensors: r.newly_selected,
            });
        }
        out
    }

    /// The point stage after a set-valued stage: `scheduler` runs over
    /// every point query, exactly once, on sensors cost-discounted to 0
    /// where an earlier stage already bought them (their data is
    /// buffered), so no sensor is charged twice in one slot. Fills the
    /// selection's point answers, payments, sharing candidates, and
    /// solver metrics; returns the point stage's sensor cost.
    fn schedule_points(
        &self,
        scheduler: &dyn PointScheduler,
        out: &mut Selection,
        sensors: &[SensorSnapshot],
        index: &SensorIndex,
        points: &[PointQuery],
        prebought: &[bool],
    ) -> f64 {
        let mut bought = prebought.to_vec();
        for &si in &out.sensors_used {
            bought[si] = true;
        }
        // Sensor locations are unchanged by the discount, so the slot's
        // index stays valid.
        let alloc = scheduler.schedule_sharded(
            points,
            &discounted(sensors, &bought),
            &self.quality,
            Some(index),
            self.threads,
        );

        // Solver metrics: welfare and bound are paired per slot so the
        // accumulated optimality gap compares like with like.
        if let Some(bound) = alloc.lp_bound {
            out.solver.point_sched_welfare += alloc.welfare;
            out.solver.point_lp_bound += bound;
            out.solver.bound_known_slots += 1;
        }
        if alloc.solve_status == Some(ps_solver::SolveStatus::LimitReached) {
            out.solver.limited_slots += 1;
        }

        for (q, &a) in points.iter().zip(&alloc.assignments) {
            out.points.push(PointResult {
                id: q.id,
                value: a.map_or(0.0, |a| a.value),
                paid: a.map_or(0.0, |a| a.payment),
                quality: a.map_or(0.0, |a| a.quality),
                sensor: a.map(|a| a.sensor),
            });
            out.payments.push(match a {
                Some(a) if a.payment > 0.0 => vec![(a.sensor, a.payment)],
                _ => Vec::new(),
            });
        }
        // Only sensors the point stage actually paid for are sharing
        // candidates — a contribution must have payers to refund.
        let paid: HashSet<usize> = (alloc.assignments.iter().flatten())
            .filter_map(|a| (a.payment > 0.0).then_some(a.sensor))
            .collect();
        out.candidates = alloc
            .sensors_used
            .iter()
            .copied()
            .filter(|si| paid.contains(si))
            .collect();
        out.sensors_used
            .extend(alloc.sensors_used.iter().copied().filter(|&si| !bought[si]));
        alloc.total_sensor_cost
    }

    /// Route and settle. Records the selection's payments; routes every
    /// point answer by its [`QueryOrigin`] — to the end-user results, a
    /// location monitor's sample, or a region monitor's satisfied list;
    /// applies the monitors' results, letting region monitors free-ride
    /// on the selection's sharing candidates (Algorithm 3's `A_{r,t}`)
    /// and refunding the original payers (Algorithm 5's payment
    /// adjustment); and assembles the report.
    fn settle(
        &mut self,
        t: Slot,
        sensors: &[SensorSnapshot],
        queries: &OneShots<'s>,
        point_total: usize,
        plans: &[RegionPlan],
        selection: Selection,
    ) -> SlotReport {
        let Selection {
            mut sets,
            points,
            payments,
            mut welfare,
            post_route_cost,
            sensors_used,
            candidates,
            solver,
        } = selection;
        let ids: Vec<QueryId> = sets
            .iter()
            .map(|r| r.id)
            .chain(points.iter().map(|r| r.id))
            .collect();
        let mut ledger = Ledger::new();
        for (&id, pays) in ids.iter().zip(&payments) {
            for &(si, pay) in pays {
                ledger.record(id, sensors[si].id, pay);
            }
        }
        let mut breakdown = MixBreakdown {
            point_total,
            aggregate_total: queries.aggregates.len(),
            ..solver
        };
        let custom_results = sets.split_off(queries.aggregates.len());
        for (r, q) in sets.iter().zip(&queries.aggregates) {
            if r.value > 0.0 {
                breakdown.aggregate_answered += 1;
                breakdown.aggregate_quality_sum += r.value / q.budget;
            }
        }

        // Route: one answer per point query, keyed on its origin.
        let mut point_results = Vec::with_capacity(point_total);
        let mut lm_results: Vec<Option<(f64, f64)>> = vec![None; self.location_monitors.len()];
        let mut rm_satisfied: Vec<Vec<(SensorSnapshot, f64)>> =
            vec![Vec::new(); self.region_monitors.len()];
        for (q, r) in queries.points.iter().zip(&points) {
            match q.origin {
                QueryOrigin::EndUser => {
                    welfare += r.value;
                    if r.value > 0.0 {
                        breakdown.point_satisfied += 1;
                        breakdown.point_quality_sum += r.value / q.budget;
                    }
                    point_results.push(*r);
                }
                // Welfare counted through the monitor's own valuation.
                QueryOrigin::LocationMonitor { monitor } => {
                    if r.value > 0.0 {
                        lm_results[monitor] = Some((r.quality, r.paid));
                    }
                }
                QueryOrigin::RegionMonitor { monitor, .. } => {
                    if r.value > 0.0 {
                        let serving = r.sensor.expect("positive value");
                        rm_satisfied[monitor].push((sensors[serving], r.paid));
                    }
                }
            }
        }

        // Settle: location monitors record their samples…
        for (m, result) in self.location_monitors.iter_mut().zip(lm_results) {
            if !m.is_active(t) {
                continue;
            }
            let before = m.value();
            m.apply_result(t, result);
            if result.is_some() {
                breakdown.monitor_samples += 1;
            }
            welfare += m.value() - before;
        }
        welfare -= post_route_cost;

        // …and region monitors theirs, free-riding on the candidates
        // when sharing is on and refunding the payers they relieve.
        let candidates: Vec<SensorSnapshot> = candidates.iter().map(|&si| sensors[si]).collect();
        let mut region_welfare = 0.0;
        for ((m, satisfied), plan) in self
            .region_monitors
            .iter_mut()
            .zip(&rm_satisfied)
            .zip(plans)
        {
            if !m.is_active(t) {
                continue;
            }
            let before = m.value();
            let shared: Vec<SensorSnapshot> = if self.share_sensors {
                let served: HashSet<usize> = satisfied.iter().map(|(s, _)| s.id).collect();
                candidates
                    .iter()
                    .filter(|s| m.region.contains(s.loc) && !served.contains(&s.id))
                    .copied()
                    .collect()
            } else {
                Vec::new()
            };
            for (sensor_id, contribution) in m.apply_results(satisfied, plan, &shared) {
                // Sensor-attributed: if a settlement pass later unwinds
                // this sensor (`Ledger::strip_sensor`), the monitor's
                // contribution is refunded along with the payers' net
                // payments, keeping the merged ledger balanced per query.
                ledger.charge_for(m.id, sensor_id, contribution);
                refund_proportionally(
                    &mut ledger,
                    &payments,
                    &ids,
                    sensors,
                    sensor_id,
                    contribution,
                );
            }
            region_welfare += m.value() - before;
        }
        welfare += region_welfare;

        SlotReport {
            slot: t,
            welfare,
            breakdown,
            ledger,
            sensors_used,
            point_results,
            aggregate_results: sets,
            custom_results,
            totals: Totals::default(),
            streaming: None,
        }
    }
}

/// `sensors` with the cost of every `bought` one zeroed: data bought
/// earlier in the slot is buffered, so later stages get it free.
fn discounted(sensors: &[SensorSnapshot], bought: &[bool]) -> Vec<SensorSnapshot> {
    let discount = |(s, &b): (&SensorSnapshot, &bool)| SensorSnapshot {
        cost: if b { 0.0 } else { s.cost },
        ..*s
    };
    sensors.iter().zip(bought).map(discount).collect()
}

/// Splits `amount` back to the queries that paid for `sensor_id`,
/// proportionally to their payments. `ids[i]` is the query behind
/// `per_query_payments[i]`.
fn refund_proportionally(
    ledger: &mut Ledger,
    per_query_payments: &[Vec<(usize, f64)>],
    ids: &[QueryId],
    sensors: &[SensorSnapshot],
    sensor_id: usize,
    amount: f64,
) {
    let mut payers: Vec<(QueryId, f64)> = Vec::new();
    for (qi, pays) in per_query_payments.iter().enumerate() {
        for &(si, p) in pays {
            if sensors[si].id == sensor_id && p > 0.0 {
                payers.push((ids[qi], p));
            }
        }
    }
    let total: f64 = payers.iter().map(|&(_, p)| p).sum();
    if total <= 1e-12 {
        return;
    }
    for (qid, p) in payers {
        ledger.refund_for(qid, sensor_id, amount * p / total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::optimal::OptimalScheduler;
    use crate::valuation::monitoring::MonitoringContext;
    use ps_gp::kernel::SquaredExponential;
    use ps_stats::regression::DiurnalBasis;
    use ps_stats::TimeSeries;
    use std::sync::Arc;

    fn quality() -> QualityModel {
        QualityModel::new(5.0)
    }

    fn sensor(id: usize, x: f64, y: f64) -> SensorSnapshot {
        SensorSnapshot {
            id,
            loc: Point::new(x, y),
            cost: 10.0,
            trust: 1.0,
            inaccuracy: 0.0,
        }
    }

    fn point_spec(x: f64, y: f64, budget: f64) -> PointSpec {
        PointSpec {
            loc: Point::new(x, y),
            budget,
            theta_min: 0.2,
        }
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

    fn location_spec(loc: Point, budget: f64) -> LocationMonitorSpec {
        LocationMonitorSpec {
            loc,
            t1: 0,
            t2: 10,
            alpha: 0.5,
            theta_min: 0.2,
            valuation: MonitoringValuation::new(monitoring_ctx(), budget, vec![0.0, 3.0, 6.0]),
        }
    }

    fn region_spec(region: Rect, budget: f64) -> RegionMonitorSpec {
        RegionMonitorSpec {
            t1: 0,
            t2: 10,
            alpha: 0.5,
            theta_min: 0.2,
            valuation: RegionValuation::new(
                budget,
                region,
                &SquaredExponential::new(2.0, 2.0),
                0.1,
            ),
        }
    }

    #[test]
    fn minted_ids_are_unique_and_monotone() {
        let mut engine = AggregatorBuilder::new(quality()).next_query_id(100).build();
        let a = engine.submit_point(point_spec(1.0, 1.0, 10.0));
        let b = engine.submit_aggregate(AggregateSpec {
            region: Rect::new(0.0, 0.0, 5.0, 5.0),
            budget: 20.0,
            kind: AggregateKind::Average,
        });
        let c = engine.submit_location_monitor(location_spec(Point::new(1.0, 1.0), 50.0));
        assert_eq!(a, QueryId(101));
        assert_eq!(b, QueryId(102));
        assert_eq!(c, QueryId(103));
        assert_eq!(engine.next_query_id(), 103);
    }

    #[test]
    fn shared_point_queries_split_one_sensor() {
        let sensors = vec![sensor(0, 5.0, 5.0), sensor(1, 12.0, 5.0)];
        let mut engine = AggregatorBuilder::new(quality()).build();
        let q1 = engine.submit_point(point_spec(5.0, 5.0, 12.0));
        let q2 = engine.submit_point(point_spec(5.0, 5.0, 12.0));
        let report = engine.step(0, &sensors);
        assert_eq!(report.breakdown.point_satisfied, 2);
        assert_eq!(report.sensors_used.len(), 1);
        assert!(report.welfare > 0.0);
        // Both queries split the 10-cost sensor.
        let paid: f64 = report.ledger.query_payment(q1) + report.ledger.query_payment(q2);
        assert!((paid - 10.0).abs() < 1e-9);
        assert_eq!(report.point_results.len(), 2);
        assert_eq!(report.point_results[0].id, q1);
        assert_eq!(report.point_results[0].sensor, Some(0));
    }

    #[test]
    fn pending_queries_are_consumed_by_exactly_one_step() {
        let sensors = vec![sensor(0, 5.0, 5.0)];
        let mut engine = AggregatorBuilder::new(quality()).build();
        engine.submit_point(point_spec(5.0, 5.0, 20.0));
        let first = engine.step(0, &sensors);
        assert_eq!(first.breakdown.point_total, 1);
        let second = engine.step(1, &sensors);
        assert_eq!(second.breakdown.point_total, 0);
        assert_eq!(second.welfare, 0.0);
    }

    #[test]
    fn monitors_activate_sample_and_retire() {
        let sensors = vec![sensor(0, 5.0, 5.0)];
        let mut engine = AggregatorBuilder::new(quality()).build();
        let mut spec = location_spec(Point::new(5.0, 5.0), 100.0);
        spec.t2 = 3;
        let id = engine.submit_location_monitor(spec);
        for t in 0..=3 {
            engine.step(t, &sensors);
        }
        assert!(engine.location_monitors().is_empty(), "monitor must retire");
        assert_eq!(engine.retired_monitors().len(), 1);
        let retired = &engine.retired_monitors()[0];
        assert_eq!(retired.id(), id);
        assert!(retired.value() > 0.0);
        assert!(engine.totals().breakdown.monitor_samples >= 1);
        assert_eq!(engine.totals().monitors_retired, 1);
    }

    #[test]
    fn cumulative_ledger_matches_slot_ledgers() {
        let sensors: Vec<SensorSnapshot> = (0..4)
            .map(|i| sensor(i, 2.0 + 4.0 * i as f64, 5.0))
            .collect();
        let mut engine = AggregatorBuilder::new(quality()).build();
        let mut paid = 0.0;
        for t in 0..3 {
            for i in 0..4 {
                engine.submit_point(point_spec(2.0 + 4.0 * i as f64, 5.0, 25.0));
            }
            let report = engine.step(t, &sensors);
            // Per-slot invariant: each used sensor recovers its cost.
            report
                .ledger
                .verify_cost_recovery(|_| 10.0, 1e-6)
                .unwrap_or_else(|e| panic!("slot {t}: {e}"));
            paid += report.ledger.total_payments();
        }
        // Cumulative ledger = sum of the slot ledgers, still balanced.
        assert!((engine.ledger().total_payments() - paid).abs() < 1e-9);
        assert!((engine.ledger().total_receipts() - engine.ledger().total_payments()).abs() < 1e-9);
    }

    #[test]
    fn region_contributions_keep_the_ledger_balanced() {
        let region = Rect::new(0.0, 0.0, 8.0, 8.0);
        let sensors = vec![sensor(0, 4.0, 4.0), sensor(1, 2.0, 6.0)];
        let mut engine = AggregatorBuilder::new(quality()).build();
        engine.submit_region_monitor(region_spec(region, 80.0));
        engine.submit_region_monitor(region_spec(region, 80.0));
        for t in 0..3 {
            let report = engine.step(t, &sensors);
            assert!(
                (report.ledger.total_receipts() - report.ledger.total_payments()).abs() < 1e-6,
                "slot {t}: receipts {} != payments {}",
                report.ledger.total_receipts(),
                report.ledger.total_payments()
            );
            report
                .ledger
                .verify_cost_recovery(|_| 10.0, 1e-6)
                .expect("cost recovery with sharing contributions");
        }
        let total_value: f64 = engine.region_monitors().iter().map(|m| m.value()).sum();
        assert!(total_value > 0.0);
    }

    #[test]
    fn scheduler_path_matches_direct_scheduling() {
        let sensors: Vec<SensorSnapshot> = (0..3)
            .map(|i| sensor(i, 2.0 + 4.0 * i as f64, 5.0))
            .collect();
        let specs: Vec<PointSpec> = (0..5)
            .map(|i| point_spec(2.0 + 4.0 * (i % 3) as f64, 5.0, 18.0))
            .collect();
        let mut engine = AggregatorBuilder::new(quality())
            .scheduler(OptimalScheduler::new())
            .build();
        let queries: Vec<PointQuery> = specs
            .iter()
            .map(|s| {
                let id = engine.submit_point(*s);
                PointQuery {
                    id,
                    loc: s.loc,
                    budget: s.budget,
                    offset: 0.0,
                    theta_min: s.theta_min,
                    origin: QueryOrigin::EndUser,
                }
            })
            .collect();
        let report = engine.step(0, &sensors);
        let direct = OptimalScheduler::new().schedule(&queries, &sensors, &quality());
        assert!((report.welfare - direct.welfare).abs() < 1e-9);
        assert_eq!(report.breakdown.point_satisfied, direct.satisfied_count());
        assert_eq!(report.sensors_used.len(), direct.sensors_used.len());
    }

    #[test]
    fn scheduler_path_does_not_double_charge_aggregate_bought_sensors() {
        // One sensor serves both an aggregate (set-valued stage) and a
        // co-located point query (scheduler stage): the point stage must
        // treat it as already bought — one receipt, one cost in welfare.
        let sensors = vec![sensor(0, 5.0, 5.0)];
        let mut engine = AggregatorBuilder::new(quality())
            .scheduler(OptimalScheduler::new())
            .sensing_range(10.0)
            .build();
        engine.submit_aggregate(AggregateSpec {
            region: Rect::new(0.0, 0.0, 10.0, 10.0),
            budget: 50.0,
            kind: AggregateKind::Average,
        });
        engine.submit_point(point_spec(5.0, 5.0, 20.0));
        let report = engine.step(0, &sensors);
        report
            .ledger
            .verify_cost_recovery(|_| 10.0, 1e-6)
            .expect("sensor charged exactly once");
        assert_eq!(report.sensors_used, vec![0], "no duplicate usage entry");
        assert_eq!(report.breakdown.point_satisfied, 1);
        assert_eq!(report.point_results[0].paid, 0.0, "buffered data is free");
        // Welfare: aggregate value + point value − one sensor cost.
        let expected = report.aggregate_results[0].value + report.point_results[0].value - 10.0;
        assert!((report.welfare - expected).abs() < 1e-9);
    }

    #[test]
    fn clear_retired_keeps_the_cumulative_count() {
        let sensors = vec![sensor(0, 5.0, 5.0)];
        let mut engine = AggregatorBuilder::new(quality()).build();
        let mut short = location_spec(Point::new(5.0, 5.0), 50.0);
        short.t2 = 0;
        engine.submit_location_monitor(short);
        engine.step(0, &sensors);
        assert_eq!(engine.totals().monitors_retired, 1);
        engine.clear_retired();
        let mut short2 = location_spec(Point::new(5.0, 5.0), 50.0);
        short2.t1 = 1;
        short2.t2 = 1;
        engine.submit_location_monitor(short2);
        engine.step(1, &sensors);
        assert_eq!(
            engine.totals().monitors_retired,
            2,
            "clear_retired must not reset the running count"
        );
    }

    #[test]
    fn custom_valuation_is_scheduled_jointly() {
        use crate::valuation::FnValuation;
        let sensors = vec![sensor(0, 2.0, 2.0), sensor(1, 8.0, 8.0)];
        let mut engine = AggregatorBuilder::new(quality()).build();
        // Pays 15 per distinct sensor committed, up to two.
        let id = engine.submit_valuation(FnValuation::new(
            |set: &[SensorSnapshot]| 15.0 * set.len().min(2) as f64,
            30.0,
        ));
        let report = engine.step(0, &sensors);
        assert_eq!(report.custom_results.len(), 1);
        let r = &report.custom_results[0];
        assert_eq!(r.id, id);
        assert_eq!(r.sensors.len(), 2);
        assert!((r.value - 30.0).abs() < 1e-9);
        assert!((r.paid - 20.0).abs() < 1e-9, "pays both sensor costs");
        assert!((report.welfare - 10.0).abs() < 1e-9);
    }

    #[test]
    fn alg5_engine_beats_baseline_engine_on_a_shared_slot() {
        let sensors = vec![
            sensor(0, 5.0, 5.0),
            sensor(1, 12.0, 5.0),
            sensor(2, 5.0, 12.0),
        ];
        let run = |strategy: MixStrategy| -> SlotReport {
            let mut engine = AggregatorBuilder::new(quality()).strategy(strategy).build();
            for _ in 0..6 {
                engine.submit_point(point_spec(5.0, 5.0, 7.0));
            }
            engine.submit_aggregate(AggregateSpec {
                region: Rect::new(0.0, 0.0, 15.0, 15.0),
                budget: 60.0,
                kind: AggregateKind::Average,
            });
            engine.step(0, &sensors)
        };
        let alg5 = run(MixStrategy::Alg5);
        let baseline = run(MixStrategy::SequentialBaseline);
        assert!(
            alg5.welfare >= baseline.welfare - 1e-9,
            "alg5 {} below baseline {}",
            alg5.welfare,
            baseline.welfare
        );
        assert!(alg5.breakdown.point_satisfied >= baseline.breakdown.point_satisfied);
        assert!(alg5.breakdown.point_satisfied > 0);
    }

    #[test]
    #[should_panic(expected = "takes no scheduler")]
    fn online_auction_rejects_a_scheduler() {
        let _ = AggregatorBuilder::new(quality())
            .strategy(MixStrategy::OnlineAuction)
            .scheduler(OptimalScheduler::new())
            .build();
    }

    #[test]
    fn totals_accumulate_across_slots() {
        let sensors = vec![sensor(0, 5.0, 5.0)];
        let mut engine = AggregatorBuilder::new(quality()).build();
        let mut welfare = 0.0;
        for t in 0..4 {
            engine.submit_point(point_spec(5.0, 5.0, 20.0));
            welfare += engine.step(t, &sensors).welfare;
        }
        assert_eq!(engine.totals().slots, 4);
        assert!((engine.totals().welfare - welfare).abs() < 1e-9);
        assert_eq!(engine.totals().breakdown.point_total, 4);
    }
}
