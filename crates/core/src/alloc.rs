//! Sensor-allocation engines for one time slot.
//!
//! * [`optimal`] — the exact BILP schedule of Eq. 9 (facility-location
//!   branch-and-bound), the greedy opener, and the LP-bound wrapper.
//! * [`local_search`] — the Feige-et-al. Local Search heuristic (§3.1.2).
//! * [`egalitarian`] — the §2 alternative objective: the most satisfied
//!   queries instead of the most welfare.
//! * [`baseline`] — the paper's baseline: sequential per-query execution
//!   with data buffering (§4.3, §4.4).
//! * [`greedy`] — Algorithm 1, greedy multi-query sensor selection over
//!   black-box set valuations.
//!
//! Every point scheduler implements one method,
//! [`PointScheduler::schedule_sharded`], and returns a
//! [`PointAllocation`]. The facility-location schedulers (optimal, the
//! greedy opener, local search, egalitarian) share one path in this
//! module: queries are grouped by queried location (`Q_l`), locations
//! become clients, sensors become facilities, and
//! `v_l(s) = Σ_{q∈Q_l} v_q(s)` (Eq. 10's `v'` with non-positive values
//! dropped); the scheduler solves that problem, and its solution is priced
//! with Eq. 11 payments. Each scheduler adds only its solve step.

pub mod baseline;
pub mod egalitarian;
pub mod greedy;
pub mod local_search;
pub mod optimal;

use crate::exec::Threads;
use crate::model::SensorSnapshot;
use crate::query::PointQuery;
use crate::valuation::quality::QualityModel;
use ps_geo::{Point, SensorIndex};
use ps_solver::ufl::{WelfareProblem, WelfareSolution};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// One query's share of the schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointAssignment {
    /// Index of the serving sensor in the slot's snapshot slice.
    pub sensor: usize,
    /// Reading quality θ for this query's location.
    pub quality: f64,
    /// The query's value `v_q(s)` for that reading.
    pub value: f64,
    /// The query's payment π (Eq. 11).
    pub payment: f64,
}

/// The outcome of scheduling one slot's point queries.
#[derive(Debug, Clone)]
pub struct PointAllocation {
    /// Per query (parallel to the input slice): its assignment, or `None`
    /// when unanswered.
    pub assignments: Vec<Option<PointAssignment>>,
    /// Total utility: answered value minus the cost of used sensors.
    pub welfare: f64,
    /// Snapshot indices of the sensors that provide measurements.
    pub sensors_used: Vec<usize>,
    /// Total cost paid out to sensors.
    pub total_sensor_cost: f64,
    /// Certified upper bound on the slot's optimal point welfare (LP
    /// relaxation), when the scheduler computed one. `welfare ≤ lp_bound`
    /// up to float noise, so `(lp_bound − welfare) / lp_bound` is the
    /// slot's optimality gap.
    pub lp_bound: Option<f64>,
    /// How the schedule was established: `Optimal` = proven by the exact
    /// solver; `Feasible` = a feasible point without proof (heuristics,
    /// or an exact solve cut short by its deadline); `LimitReached` = the
    /// exact solve ran out of node/pivot budget. `None` for schedulers
    /// that bypass the facility-location build entirely (baseline).
    pub solve_status: Option<ps_solver::SolveStatus>,
}

impl PointAllocation {
    /// An empty allocation for `n` queries.
    pub fn empty(n: usize) -> Self {
        Self {
            assignments: vec![None; n],
            welfare: 0.0,
            sensors_used: Vec::new(),
            total_sensor_cost: 0.0,
            lp_bound: None,
            solve_status: None,
        }
    }

    /// Number of queries answered with positive value.
    pub fn satisfied_count(&self) -> usize {
        self.assignments
            .iter()
            .flatten()
            .filter(|a| a.value > 0.0)
            .count()
    }
}

/// A scheduler of single-sensor point queries for one slot.
///
/// [`PointScheduler::schedule_sharded`] is the one required method;
/// [`PointScheduler::schedule`] and [`PointScheduler::schedule_indexed`]
/// are shorthands for it without a caller's index and on one thread. A
/// type may override a shorthand (to trace calls, say), but the override
/// must return exactly what `schedule_sharded` returns for the same
/// arguments.
///
/// `Send + Sync` is a supertrait because engines owning a scheduler cross
/// thread boundaries in the federation layer (`ps_cluster` steps whole
/// `Aggregator`s on scoped worker threads). Every in-tree scheduler is a
/// plain stateless struct, so the bounds are free; custom schedulers with
/// interior state must make it thread-safe.
pub trait PointScheduler: Send + Sync {
    /// Chooses sensors for `queries` among `sensors`, computing values,
    /// payments, and welfare.
    ///
    /// `index`, when given, is a [`SensorIndex`] built over the same
    /// snapshot slice; the in-tree schedulers panic when its length
    /// differs, and build one themselves when it is `None`. They take
    /// each queried location's candidate sensors (the disk of radius
    /// `d_max`) from it. `threads`
    /// is a budget for sharding the embarrassingly-parallel per-query
    /// work (candidate collection, value evaluation); the schedule must
    /// be **bit-identical** for every thread count.
    fn schedule_sharded(
        &self,
        queries: &[PointQuery],
        sensors: &[SensorSnapshot],
        quality: &QualityModel,
        index: Option<&SensorIndex>,
        threads: Threads,
    ) -> PointAllocation;

    /// [`PointScheduler::schedule_sharded`] without a caller's index, on
    /// one thread.
    fn schedule(
        &self,
        queries: &[PointQuery],
        sensors: &[SensorSnapshot],
        quality: &QualityModel,
    ) -> PointAllocation {
        self.schedule_sharded(queries, sensors, quality, None, Threads::single())
    }

    /// [`PointScheduler::schedule_sharded`] on one thread.
    fn schedule_indexed(
        &self,
        queries: &[PointQuery],
        sensors: &[SensorSnapshot],
        quality: &QualityModel,
        index: Option<&SensorIndex>,
    ) -> PointAllocation {
        self.schedule_sharded(queries, sensors, quality, index, Threads::single())
    }
}

impl<T: PointScheduler + ?Sized> PointScheduler for &T {
    fn schedule_sharded(
        &self,
        queries: &[PointQuery],
        sensors: &[SensorSnapshot],
        quality: &QualityModel,
        index: Option<&SensorIndex>,
        threads: Threads,
    ) -> PointAllocation {
        (**self).schedule_sharded(queries, sensors, quality, index, threads)
    }
}

impl<T: PointScheduler + ?Sized> PointScheduler for Box<T> {
    fn schedule_sharded(
        &self,
        queries: &[PointQuery],
        sensors: &[SensorSnapshot],
        quality: &QualityModel,
        index: Option<&SensorIndex>,
        threads: Threads,
    ) -> PointAllocation {
        (**self).schedule_sharded(queries, sensors, quality, index, threads)
    }
}

/// Builds the [`SensorIndex`] over one slot's announcement.
pub(crate) fn build_index(sensors: &[SensorSnapshot]) -> SensorIndex {
    let positions: Vec<Point> = sensors.iter().map(|s| s.loc).collect();
    SensorIndex::build(&positions)
}

/// Panics unless `index` was built over an announcement of `sensors`
/// sensors. An index over fewer sensors would silently drop candidates,
/// and one over more would hand out out-of-bounds snapshot indices.
pub(crate) fn check_index(index: &SensorIndex, sensors: &[SensorSnapshot]) {
    assert_eq!(
        index.len(),
        sensors.len(),
        "SensorIndex covers {} sensors but the announcement has {}",
        index.len(),
        sensors.len()
    );
}

/// The index a public entry point works with: the caller's, checked
/// against `sensors`, or one built over `sensors` when the caller gave
/// none.
pub(crate) fn resolve_index<'a>(
    index: Option<&'a SensorIndex>,
    sensors: &[SensorSnapshot],
) -> Cow<'a, SensorIndex> {
    match index {
        Some(idx) => {
            check_index(idx, sensors);
            Cow::Borrowed(idx)
        }
        None => Cow::Owned(build_index(sensors)),
    }
}

/// Exact-coordinate key; queried locations in the experiments are drawn
/// from a discrete grid, so sharing only happens on exact collisions —
/// the paper's `Q_l` semantics.
fn location_key(p: ps_geo::Point) -> (u64, u64) {
    (p.x.to_bits(), p.y.to_bits())
}

/// Queries grouped by queried location, the clients of the
/// facility-location formulation: for each distinct location, the indices
/// of the queries at it.
pub(crate) fn group_by_location(queries: &[PointQuery]) -> Vec<Vec<usize>> {
    let mut map: BTreeMap<(u64, u64), Vec<usize>> = BTreeMap::new();
    for (i, q) in queries.iter().enumerate() {
        map.entry(location_key(q.loc)).or_default().push(i);
    }
    map.into_values().collect()
}

/// Builds the Eq. 9 welfare problem: clients are locations, facilities are
/// sensors, `v_l(s) = Σ_{q∈Q_l} v_q(θ(s, l))`.
///
/// Each location's candidate sensors come from the `d_max` disk around
/// it in `index` (built over the same snapshot slice): exactly the
/// sensors the `in_range` predicate accepts, in ascending order. The
/// per-client evaluation is sharded across `threads` (contiguous client
/// ranges, partials concatenated in range order), which leaves the
/// problem bit-identical for every thread count.
pub(crate) fn build_welfare_problem(
    queries: &[PointQuery],
    groups: &[Vec<usize>],
    sensors: &[SensorSnapshot],
    quality: &QualityModel,
    index: &SensorIndex,
    threads: Threads,
) -> WelfareProblem {
    let costs: Vec<f64> = sensors.iter().map(|s| s.cost).collect();
    // Floor: one disk query + a few multiplies per location — inline
    // below 64 distinct locations.
    let shards = threads.map_ranges_min(groups.len(), 64, |range| {
        let mut buf: Vec<usize> = Vec::new();
        groups[range]
            .iter()
            .map(|qs| {
                let loc = queries[qs[0]].loc;
                let value_of = |si: usize| -> Option<(usize, f64)> {
                    let s = &sensors[si];
                    if !quality.in_range(s, loc) {
                        return None;
                    }
                    let theta = quality.quality(s, loc);
                    let v: f64 = qs
                        .iter()
                        .map(|&qi| queries[qi].value_of_quality(theta))
                        .sum();
                    (v > 0.0).then_some((si, v))
                };
                index.query_disk_into(loc, quality.d_max, &mut buf);
                buf.iter().filter_map(|&si| value_of(si)).collect()
            })
            .collect::<Vec<Vec<(usize, f64)>>>()
    });
    let client_values: Vec<Vec<(usize, f64)>> = shards.into_iter().flatten().collect();
    WelfareProblem::new(costs, client_values)
}

/// The Eq. 9 path every facility-location scheduler shares: group the
/// queries by location, build the welfare problem, run `solve` on it, and
/// price the solution with [`allocation_from_solution`]. A scheduler
/// contributes only its `solve` step. Only the build uses the index
/// (resolved by [`resolve_index`]) and shards across `threads` (see
/// [`build_welfare_problem`]); `solve` and the pricing run serially on
/// the identical problem, so the schedule is bit-identical for every
/// thread count.
pub(crate) fn schedule_welfare(
    queries: &[PointQuery],
    sensors: &[SensorSnapshot],
    quality: &QualityModel,
    index: Option<&SensorIndex>,
    threads: Threads,
    solve: impl FnOnce(&WelfareProblem, &[Vec<usize>]) -> WelfareSolution,
) -> PointAllocation {
    let index = resolve_index(index, sensors);
    if queries.is_empty() || sensors.is_empty() {
        return PointAllocation::empty(queries.len());
    }
    let groups = group_by_location(queries);
    let problem = build_welfare_problem(queries, &groups, sensors, quality, &index, threads);
    let solution = solve(&problem, &groups);
    allocation_from_solution(queries, &groups, sensors, quality, &problem, &solution)
}

/// Converts a facility-location solution into a [`PointAllocation`],
/// computing Eq. 11 payments and enforcing cost recovery.
///
/// Cost recovery: a used sensor whose total served value does not exceed
/// its cost would force some query to pay more than its value. The exact
/// solver never produces such a sensor, but Local Search can (via the
/// complement set); those sensors are dropped and their locations
/// reassigned until stable, which only increases welfare.
fn allocation_from_solution(
    queries: &[PointQuery],
    groups: &[Vec<usize>],
    sensors: &[SensorSnapshot],
    quality: &QualityModel,
    problem: &WelfareProblem,
    solution: &WelfareSolution,
) -> PointAllocation {
    let mut open = solution.open.clone();
    // Iteratively drop cost-unrecoverable sensors. The per-sensor served
    // value of the stable solution is also the Eq. 11 denominator.
    let (final_solution, served_value) = loop {
        let sol = problem.solution_from_open(&open);
        let mut served_value = vec![0.0f64; sensors.len()];
        for (client, assigned) in sol.assignment.iter().enumerate() {
            if let Some(f) = assigned {
                let loc = queries[groups[client][0]].loc;
                let theta = quality.quality(&sensors[*f], loc);
                let v: f64 = groups[client]
                    .iter()
                    .map(|&qi| queries[qi].value_of_quality(theta))
                    .sum();
                served_value[*f] += v;
            }
        }
        let mut dropped = false;
        for (f, is_open) in open.iter_mut().enumerate() {
            if *is_open && sol.open[f] && served_value[f] <= sensors[f].cost + 1e-12 {
                *is_open = false;
                dropped = true;
            }
            // Also sync pruned-dead facilities.
            if *is_open && !sol.open[f] {
                *is_open = false;
            }
        }
        if !dropped {
            break (sol, served_value);
        }
    };

    let mut assignments: Vec<Option<PointAssignment>> = vec![None; queries.len()];
    let mut total_value = 0.0;
    for (client, assigned) in final_solution.assignment.iter().enumerate() {
        let Some(f) = assigned else { continue };
        let loc = queries[groups[client][0]].loc;
        let theta = quality.quality(&sensors[*f], loc);
        for &qi in &groups[client] {
            let value = queries[qi].value_of_quality(theta);
            // Eq. 11: proportionate cost allocation.
            let payment = if value > 0.0 && served_value[*f] > 0.0 {
                value * sensors[*f].cost / served_value[*f]
            } else {
                0.0
            };
            total_value += value;
            assignments[qi] = Some(PointAssignment {
                sensor: *f,
                quality: theta,
                value,
                payment,
            });
        }
    }

    let sensors_used: Vec<usize> = final_solution
        .open
        .iter()
        .enumerate()
        .filter_map(|(f, &o)| o.then_some(f))
        .collect();
    let total_sensor_cost: f64 = sensors_used.iter().map(|&f| sensors[f].cost).sum();

    // The bound belongs to the *problem*, not the open set, so the
    // original solution's bound stays valid for the post-drop allocation
    // (dropping cost-unrecoverable sensors only changes the achieved
    // welfare). Clamp so reported gaps never go negative on float noise.
    let welfare = total_value - total_sensor_cost;
    PointAllocation {
        assignments,
        welfare,
        sensors_used,
        total_sensor_cost,
        lp_bound: solution.lp_bound.map(|b| b.max(welfare)),
        solve_status: Some(solution.status),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::QueryId;
    use crate::query::QueryOrigin;
    use ps_geo::Point;

    fn pq(id: u64, x: f64, y: f64, budget: f64) -> PointQuery {
        PointQuery {
            id: QueryId(id),
            loc: Point::new(x, y),
            budget,
            offset: 0.0,
            theta_min: 0.2,
            origin: QueryOrigin::EndUser,
        }
    }

    #[test]
    fn grouping_collects_same_location_queries() {
        let queries = vec![
            pq(0, 1.0, 1.0, 10.0),
            pq(1, 2.0, 2.0, 10.0),
            pq(2, 1.0, 1.0, 20.0),
        ];
        let groups = group_by_location(&queries);
        assert_eq!(groups.len(), 2);
        let sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
        assert!(sizes.contains(&2) && sizes.contains(&1));
    }

    #[test]
    fn welfare_problem_sums_query_values_per_location() {
        let queries = vec![pq(0, 0.0, 0.0, 10.0), pq(1, 0.0, 0.0, 30.0)];
        let sensors = vec![SensorSnapshot {
            id: 0,
            loc: Point::new(2.5, 0.0),
            cost: 10.0,
            trust: 1.0,
            inaccuracy: 0.0,
        }];
        let quality = QualityModel::new(5.0);
        let groups = group_by_location(&queries);
        let p = build_welfare_problem(
            &queries,
            &groups,
            &sensors,
            &quality,
            &build_index(&sensors),
            Threads::single(),
        );
        assert_eq!(p.num_clients(), 1);
        // θ = 0.5 → v = 0.5·10 + 0.5·30 = 20.
        assert_eq!(p.client_values[0], vec![(0, 20.0)]);
    }

    #[test]
    fn out_of_range_sensors_are_excluded() {
        let queries = vec![pq(0, 0.0, 0.0, 10.0)];
        let sensors = vec![SensorSnapshot {
            id: 0,
            loc: Point::new(9.0, 0.0),
            cost: 10.0,
            trust: 1.0,
            inaccuracy: 0.0,
        }];
        let quality = QualityModel::new(5.0);
        let groups = group_by_location(&queries);
        let p = build_welfare_problem(
            &queries,
            &groups,
            &sensors,
            &quality,
            &build_index(&sensors),
            Threads::single(),
        );
        assert!(p.client_values[0].is_empty());
    }

    /// Implements only the required method and records the
    /// `(index given, threads)` of every call routed to it.
    #[derive(Default)]
    struct Recorder(std::sync::Mutex<Vec<(bool, Threads)>>);

    impl PointScheduler for Recorder {
        fn schedule_sharded(
            &self,
            queries: &[PointQuery],
            _sensors: &[SensorSnapshot],
            _quality: &QualityModel,
            index: Option<&SensorIndex>,
            threads: Threads,
        ) -> PointAllocation {
            self.0.lock().unwrap().push((index.is_some(), threads));
            PointAllocation::empty(queries.len())
        }
    }

    #[test]
    fn every_entry_point_routes_to_schedule_sharded() {
        let quality = QualityModel::new(5.0);
        let index = SensorIndex::build(&[Point::new(0.0, 0.0)]);
        let (single, four) = (Threads::single(), Threads::new(4));
        let rec = Recorder::default();
        rec.schedule(&[], &[], &quality);
        rec.schedule_indexed(&[], &[], &quality, Some(&index));
        // Fully qualified, so the `&T` impl is the one called.
        <&Recorder as PointScheduler>::schedule(&&rec, &[], &[], &quality);
        <&Recorder as PointScheduler>::schedule_sharded(&&rec, &[], &[], &quality, None, four);
        let boxed: Box<dyn PointScheduler + '_> = Box::new(&rec);
        boxed.schedule_indexed(&[], &[], &quality, Some(&index));
        boxed.schedule_sharded(&[], &[], &quality, Some(&index), four);
        assert_eq!(
            *rec.0.lock().unwrap(),
            vec![
                (false, single),
                (true, single),
                (false, single),
                (false, four),
                (true, single),
                (true, four),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "SensorIndex covers 1 sensors but the announcement has 2")]
    fn a_schedulers_index_must_cover_the_announcement() {
        let queries = vec![pq(0, 0.0, 0.0, 10.0)];
        let sensors: Vec<SensorSnapshot> = (0..2)
            .map(|id| SensorSnapshot {
                id,
                loc: Point::new(id as f64, 0.0),
                cost: 1.0,
                trust: 1.0,
                inaccuracy: 0.0,
            })
            .collect();
        let short = build_index(&sensors[..1]);
        optimal::GreedyPointScheduler.schedule_indexed(
            &queries,
            &sensors,
            &QualityModel::new(5.0),
            Some(&short),
        );
    }

    #[test]
    fn empty_allocation_shape() {
        let a = PointAllocation::empty(3);
        assert_eq!(a.assignments.len(), 3);
        assert_eq!(a.satisfied_count(), 0);
        assert_eq!(a.welfare, 0.0);
    }
}
