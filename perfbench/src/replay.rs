//! Open-loop replay of recorded Eq. 9 instances through every point
//! scheduler, so that schedulers are compared on identical inputs.
//!
//! The traced `city_certified` run records the first few
//! `(queries, sensors)` instances its engine handed to the scheduler.
//! Each is replayed through `WithLpBound(Greedy)`,
//! `WithLpBound(LocalSearch)` and `Optimal`. Per instance the two
//! wrapped heuristics must report one shared LP bound, every welfare must
//! stay under it, and Optimal's welfare must be at least each
//! heuristic's.

use crate::trace::Tracer;
use crate::workloads::SlotLoop;
use ps_core::alloc::local_search::LocalSearchScheduler;
use ps_core::alloc::optimal::{GreedyPointScheduler, OptimalScheduler, WithLpBound};
use ps_core::alloc::{PointAllocation, PointScheduler};
use ps_geo::{Point, SensorIndex};
use std::time::Instant;

/// Relative tolerance of the shared-bound and dominance checks.
const TOL: f64 = 1e-6;

/// One replayed scheduler: its span and metric names, the scheduler,
/// and what it measured.
struct Row {
    name: &'static str,
    ms_metric: &'static str,
    welfare_metric: &'static str,
    scheduler: Box<dyn PointScheduler>,
    ms: Vec<f64>,
    welfare: f64,
}

pub struct Replay {
    rows: Vec<Row>,
    pub failures: Vec<String>,
}

impl Replay {
    pub fn run(slot_loop: &SlotLoop, tracer: &Tracer) -> Self {
        let row = |[name, ms_metric, welfare_metric]: [&'static str; 3],
                   scheduler: Box<dyn PointScheduler>| Row {
            name,
            ms_metric,
            welfare_metric,
            scheduler,
            ms: Vec::new(),
            welfare: 0.0,
        };
        // Order matters to `check_instance`: greedy, local search, optimal.
        let mut rows = vec![
            row(
                [
                    "solver.replay.greedy",
                    "solver.replay.greedy.ms",
                    "solver.replay.greedy.welfare",
                ],
                Box::new(WithLpBound::new(GreedyPointScheduler)),
            ),
            row(
                [
                    "solver.replay.local_search",
                    "solver.replay.local_search.ms",
                    "solver.replay.local_search.welfare",
                ],
                Box::new(WithLpBound::new(LocalSearchScheduler::new())),
            ),
            row(
                [
                    "solver.replay.optimal",
                    "solver.replay.optimal.ms",
                    "solver.replay.optimal.welfare",
                ],
                Box::new(OptimalScheduler::new()),
            ),
        ];
        let mut failures = Vec::new();
        for (i, inst) in slot_loop.take_instances().iter().enumerate() {
            let positions: Vec<Point> = inst.sensors.iter().map(|s| s.loc).collect();
            let index = SensorIndex::build(&positions);
            let allocs: Vec<PointAllocation> = rows
                .iter_mut()
                .map(|r| {
                    let start = Instant::now();
                    let a = tracer.span(r.name, || {
                        r.scheduler.schedule_indexed(
                            &inst.queries,
                            &inst.sensors,
                            slot_loop.quality(),
                            Some(&index),
                        )
                    });
                    r.ms.push(start.elapsed().as_secs_f64() * 1e3);
                    r.welfare += a.welfare;
                    a
                })
                .collect();
            failures.extend(check_instance(i, &allocs));
        }
        Replay { rows, failures }
    }

    /// `<span>.ms` (median per instance) and `<span>.welfare` (summed
    /// over the instances) for every scheduler.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let mut m = Vec::new();
        for r in &self.rows {
            let mut ms = r.ms.clone();
            ms.sort_by(f64::total_cmp);
            let median = ms
                .get(ms.len().saturating_sub(1) / 2)
                .copied()
                .unwrap_or(0.0);
            m.push((r.ms_metric, median, "ms"));
            m.push((r.welfare_metric, r.welfare, "utility"));
        }
        m
    }
}

/// The per-instance checks on `[greedy, local search, optimal]`.
fn check_instance(i: usize, allocs: &[PointAllocation]) -> Vec<String> {
    let [greedy, local, optimal] = allocs else {
        unreachable!("three schedulers are replayed")
    };
    let (Some(bound), Some(other)) = (greedy.lp_bound, local.lp_bound) else {
        return vec![format!(
            "instance {i}: a wrapped heuristic reported no LP bound"
        )];
    };
    let tol = TOL * bound.abs().max(1.0);
    let mut out = Vec::new();
    if (bound - other).abs() > tol {
        out.push(format!(
            "instance {i}: LP bounds differ (greedy {bound}, local search {other})"
        ));
    }
    for (name, a) in [
        ("greedy", greedy),
        ("local search", local),
        ("optimal", optimal),
    ] {
        if a.welfare > bound + tol {
            out.push(format!(
                "instance {i}: {name} welfare {} exceeds the LP bound {bound}",
                a.welfare
            ));
        }
        if optimal.welfare + tol < a.welfare {
            out.push(format!(
                "instance {i}: optimal welfare {} below {name}'s {}",
                optimal.welfare, a.welfare
            ));
        }
    }
    out
}
